"""Operator-facing command line.

Subcommands: ``ingest`` (append evidence or assessments), ``evaluate``
(score one merchant), ``compare`` (rank several), ``surface`` (export a
mapping-surface CSV).

Exit codes: 0 success, 1 domain error, 2 usage error, 3 storage error.
Payloads go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import replace
from typing import Sequence

from .errors import StorageFailure, TrustError, UnknownVariable
from .fuzzy import surface_grid
from .opinion import EvidenceCount
from .pipeline import (
    PipelineConfig,
    TrustReport,
    compare_merchants,
    evaluate_merchant,
    load_config,
    merchant_rulebase,
    module_rulebase,
    named_variable_trust,
)
from .store import (
    STORE_ENV_VAR,
    DirectAssessment,
    EvidenceRecord,
    EvidenceStore,
    NEGATIVE,
    POSITIVE,
    decode_line,
    record_from_dict,
    split_lines,
)
from .variables import CANONICAL_VARIABLES, MERCHANT_MODULE, normalize_name

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_STORAGE = 3


class UsageError(Exception):
    """A command line the parser accepts but the command cannot run;
    ``main`` prints it as ``error: <message>`` and exits 2."""


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def _c_t_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'c,t_scaled', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected two numbers, got {text!r}") from exc


def _module_override(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep or not name.strip():
        raise argparse.ArgumentTypeError(f"expected 'Module=value', got {text!r}")
    try:
        return name.strip(), float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a numeric value in {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="certaintrust",
        description="Evidence-based merchant trust scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_store(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--store",
            default=None,
            help=f"evidence log path (default: ${STORE_ENV_VAR})",
        )

    def add_config(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="pipeline config JSON")

    p = sub.add_parser("ingest", help="append evidence or assessments to the store")
    add_store(p)
    add_config(p)
    p.add_argument("--merchant", help="merchant identifier")
    p.add_argument("--variable", help="pipeline variable name")
    p.add_argument("--positive", type=_nonneg_int, default=None, metavar="N")
    p.add_argument("--negative", type=_nonneg_int, default=None, metavar="N")
    p.add_argument("--assessment", type=_c_t_pair, default=None, metavar="C,T")
    p.add_argument("--from-file", default=None, metavar="PATH",
                   help="append records from a JSON-lines file")
    p.add_argument("--timestamp", type=int, default=None,
                   help="record timestamp (default: now)")
    p.add_argument("--allow-unknown", action="store_true",
                   help="accept variables outside the configured twelve")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("evaluate", help="score one merchant")
    add_store(p)
    add_config(p)
    p.add_argument("--merchant", required=True)
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.add_argument("--module-trust", type=_module_override, action="append",
                   default=None, metavar="MODULE=T",
                   help="pin a module trust percentage directly (repeatable)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="rank merchants by trust")
    add_store(p)
    add_config(p)
    p.add_argument("--merchant", action="append", required=True,
                   help="merchant identifier (repeat for each)")
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("surface", help="export a mapping surface as CSV")
    add_config(p)
    p.add_argument("--module", required=True,
                   help="Existence, Affiliation, Fulfillment, Policy, or Merchant Trust")
    p.add_argument("--x", required=True, help="input swept along x")
    p.add_argument("--y", required=True, help="input swept along y")
    p.add_argument("--resolution", type=int, default=51, metavar="K")
    p.add_argument("--out", required=True, metavar="PATH.csv")
    p.set_defaults(func=cmd_surface)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call and kept for the process."""
    return build_parser()


def _open_store(args: argparse.Namespace) -> EvidenceStore:
    path = args.store or os.environ.get(STORE_ENV_VAR)
    if not path:
        raise UsageError(f"no store given (use --store or ${STORE_ENV_VAR})")
    return EvidenceStore(path)


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    return load_config(args.config) if args.config else PipelineConfig()


def cmd_ingest(args: argparse.Namespace) -> int:
    store = _open_store(args)
    cfg = _load_config(args)
    now = args.timestamp if args.timestamp is not None else int(time.time())

    records = []
    if args.from_file is not None:
        flags = ("merchant", "variable", "positive", "negative", "assessment", "timestamp")
        given = [f"--{flag}" for flag in flags if getattr(args, flag) is not None]
        if given:
            raise UsageError(f"--from-file cannot be combined with {', '.join(given)}")
        try:
            with open(args.from_file, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise StorageFailure(f"cannot read {args.from_file}: {exc}") from exc
        for i, line in enumerate(split_lines(data), start=1):  # the lines of a log
            try:
                if line is None:
                    raise ValueError("not valid UTF-8")
                if line.strip():
                    records.append(record_from_dict(decode_line(line)))
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"{args.from_file}:{i}: {exc}") from exc
    else:
        if not args.merchant or not args.variable:
            raise UsageError("--merchant and --variable are required")
        if args.positive is None and args.negative is None and args.assessment is None:
            raise UsageError("nothing to ingest (use --positive/--negative/--assessment)")
        # before any record is built, so a huge count costs nothing
        named_variable_trust(args.merchant, args.variable,
                             EvidenceCount(args.positive or 0, args.negative or 0), cfg.params)
        for _ in range(args.positive or 0):
            records.append(EvidenceRecord(args.merchant, args.variable, POSITIVE, now))
        for _ in range(args.negative or 0):
            records.append(EvidenceRecord(args.merchant, args.variable, NEGATIVE, now))
        if args.assessment is not None:
            c, t_scaled = args.assessment
            records.append(DirectAssessment(args.merchant, args.variable, c, t_scaled, now))

    # the config's variables, then those of the default twelve it does not list
    known = tuple(dict.fromkeys(cfg.variable_names() + CANONICAL_VARIABLES))
    records = [replace(r, variable=normalize_name(r.variable, known, args.allow_unknown))
               for r in records]
    tallies: dict[tuple[str, str], list[int]] = {}
    for r in records:
        if isinstance(r, DirectAssessment):
            named_variable_trust(r.merchant, r.variable, r, cfg.params)
        else:
            tallies.setdefault((r.merchant, r.variable), [0, 0])[r.outcome == NEGATIVE] += 1
    for (merchant, variable), (positive, negative) in tallies.items():
        named_variable_trust(merchant, variable, EvidenceCount(positive, negative), cfg.params)
    store.append(*records)
    print(f"Appended {len(records)} record(s) to {store.path}")
    return EXIT_OK


def _format_report(report: TrustReport) -> str:
    lines = [
        f"Merchant: {report.merchant}",
        f"Merchant trust: {report.merchant_trust:.4f}%",
        f"Trust class: {report.trust_class}",
        f"Behavioral probability: {report.behavioral.value:+.4f}% ({report.behavioral.direction})",
        "Module trusts:",
    ]
    for name, value in report.module_trusts.items():
        lines.append(f"  {name:<24} {value:>9.4f}%")
    lines.append("Variable trusts:")
    for name, value in report.variable_trusts.items():
        lines.append(f"  {name:<24} {value:>9.4f}%")
    return "\n".join(lines)


def cmd_evaluate(args: argparse.Namespace) -> int:
    store = _open_store(args)
    cfg = _load_config(args)
    try:
        overrides = {normalize_name(name, cfg.module_names(), kind="module"): value
                     for name, value in args.module_trust or ()}
    except UnknownVariable as exc:
        raise UsageError(exc)
    report = evaluate_merchant(args.merchant, cfg, store=store, module_overrides=overrides)
    if args.format == "json":
        print(report.to_json())
    else:
        print(_format_report(report))
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    merchants = args.merchant
    if len(merchants) < 2:
        raise UsageError("compare needs at least two --merchant arguments")
    repeated = next((m for i, m in enumerate(merchants) if m in merchants[:i]), None)
    if repeated is not None:
        raise UsageError(f"merchant {repeated!r} is given more than once")
    store = _open_store(args)
    cfg = _load_config(args)
    with store.pinned():  # every merchant is scored from one read of the log
        reports = [evaluate_merchant(m, cfg, store=store) for m in merchants]
    ordered = compare_merchants(reports)
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in ordered], indent=2, sort_keys=True))
    else:
        print(f"{'rank':<6}{'merchant':<20}{'trust%':>10}{'behavioral%':>14}  class")
        for rank, report in enumerate(ordered, start=1):
            print(
                f"{rank:<6}{report.merchant:<20}{report.merchant_trust:>10.4f}"
                f"{report.behavioral.value:>+14.4f}  {report.trust_class}"
            )
    return EXIT_OK


def cmd_surface(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    try:
        module = normalize_name(args.module, cfg.module_names() + (MERCHANT_MODULE,), kind="module")
        if module == MERCHANT_MODULE:
            rb = merchant_rulebase(cfg)
            inputs = cfg.module_names()
        else:
            spec = next(m for m in cfg.modules if m.name == module)
            rb = module_rulebase(spec)
            inputs = spec.variables
        x_index = inputs.index(normalize_name(args.x, inputs))
        y_index = inputs.index(normalize_name(args.y, inputs))
    except UnknownVariable as exc:
        raise UsageError(exc)
    if x_index == y_index:
        raise UsageError("--x and --y must name different inputs")
    if args.resolution < 2:
        raise UsageError("--resolution must be at least 2")
    grid = surface_grid(rb, x_index, y_index, resolution=args.resolution)
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(grid.to_csv())
    except OSError as exc:
        raise StorageFailure(f"cannot write {args.out}: {exc}") from exc
    print(f"Wrote {args.resolution}x{args.resolution} surface for {module} to {args.out}")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (StorageFailure, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_STORAGE
    except (TrustError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
