"""Closed-loop benchmark of the certaintrust package.

    python3 bench/run.py --workload rank_store --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --report --seconds 3

A run generates its inputs from the seed, imports the package from
``src/`` of the checkout it sits in, measures for ``--seconds`` and checks
every output.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics.  Human-readable lines come first; the last line of
stdout is one JSON object.  ``--report`` runs every workload both ways
and prints every metric by name with its unit.

The exit code is 0 when every check passed, 1 when a check failed and
2 when the package or its test oracle is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = "certaintrust"

sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

from spans import Tracer, package_modules  # noqa: E402
from speed import REFERENCE_S, SpeedProbe  # noqa: E402
from workloads import SIZES, WORKLOADS, Stats  # noqa: E402

#: cold set-ups per end-to-end run; setup_s is their median
SETUP_REPEATS = 5
#: traced rounds per per-layer run, at least
TRACED_ROUNDS = 2

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "op_p50_ms": "ms"}

#: per-layer metrics and their units; ``.calls``, ``.self_s`` and ``.p50_us``
#: entries come from spans, the rest from counters
LAYER_UNITS = {
    "store.records.calls": "count",
    "store.records.self_s": "s",
    "store.lines_parsed": "count",
    "store.match_ratio": "ratio",
    "store.load_profile.calls": "count",
    "store.load_profile.self_s": "s",
    "store.append.calls": "count",
    "store.append.p50_us": "us",
    "store.fsyncs": "count",
    "store.bytes_written": "bytes",
    "fuzzy.infer.calls": "count",
    "fuzzy.infer.self_s": "s",
    "fuzzy.infer125.p50_us": "us",
    "fuzzy.infer625.p50_us": "us",
    "fuzzy.rules_evaluated": "count",
    "fuzzy.surface_grid.calls": "count",
    "fuzzy.surface_grid.self_s": "s",
    "fuzzy.to_csv.calls": "count",
    "fuzzy.to_csv.self_s": "s",
    "pipeline.evaluate_merchant.calls": "count",
    "pipeline.evaluate_merchant.self_s": "s",
    "pipeline.variable_trust.self_s": "s",
    "pipeline.compare_merchants.calls": "count",
    "pipeline.compare_merchants.self_s": "s",
    "opinion.calls": "count",
    "opinion.self_s": "s",
    "variables.normalize_name.calls": "count",
    "variables.normalize_name.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}

#: per-workload names for the end-to-end metrics:
#: (name, metric, factor, unit); the tails print only, as they do not
#: repeat across runs within the bounds
NAMED = {
    "rank_store": [("rank.merchants_per_s", "items_per_s", 1.0, "1/s"),
                   ("rank.compare_p50_s", "op_p50_ms", 1e-3, "s")],
    "score_fuzzy": [("fuzzy.merchants_per_s", "items_per_s", 1.0, "1/s"),
                    ("fuzzy.eval_p50_ms", "op_p50_ms", 1.0, "ms"),
                    ("fuzzy.eval_p99_ms", "op_p99_ms", 1.0, "ms")],
    "surface_export": [("surface.cells_per_s", "items_per_s", 1.0, "1/s"),
                       ("surface.export_p50_s", "op_p50_ms", 1e-3, "s")],
    "ingest_rescore": [("ingest.records_per_s", "items_per_s", 1.0, "1/s"),
                       ("ingest.rescore_p50_ms", "op_p50_ms", 1.0, "ms"),
                       ("ingest.rescore_p90_ms", "op_p90_ms", 1.0, "ms")],
}


class MissingProgram(RuntimeError):
    """The checkout holds no package (or no test oracle) to benchmark."""


def import_package():
    """Import the package from scratch, as a new process would."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise MissingProgram(f"{PACKAGE} was imported from {pkg.__file__}, not from {SRC}")
    importlib.import_module(PACKAGE + ".cli")
    return SimpleNamespace(**{m.__name__.rpartition(".")[2]: m for m in package_modules()})


def setup_once(workload) -> tuple[float, float]:
    """Start and end of a cold package import through the warm-up operation."""
    t0 = perf_counter()
    workload.bind(import_package())
    workload.warmup()
    return t0, perf_counter()


def percentile_ms(latencies: list[float], q: float) -> float:
    return float(np.percentile(latencies, q)) * 1e3 if latencies else 0.0


def summarize(stats: Stats, setups: list, duration) -> dict:
    """End-to-end metrics, each call timed as ``duration(start, end)``."""
    latencies = [duration(s, e) for s, e, op in stats.calls if op]
    busy = sum(duration(s, e) for s, e, _ in stats.calls)
    return {
        "setup_s": statistics.median(duration(s, e) for s, e in setups),
        "items_per_s": stats.items / busy if busy else 0.0,
        "op_p50_ms": percentile_ms(latencies, 50),
        "op_p90_ms": percentile_ms(latencies, 90),
        "op_p99_ms": percentile_ms(latencies, 99),
    }


def end_to_end(workload, seconds: float) -> tuple[dict, Stats, list[str]]:
    probe = SpeedProbe()
    setups = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        setups.append(setup_once(workload))
    probe.sample()
    stats = Stats(probe=probe)
    start = perf_counter()
    while True:
        workload.round(stats)
        if perf_counter() - start >= seconds:
            break
    probe.sample()
    workload.check()
    metrics = summarize(stats, setups, probe.scaled)
    raw = summarize(stats, setups, lambda s, e: e - s)
    ops = sum(op for _, _, op in stats.calls)
    factors = [REFERENCE_S / k for k in probe.kernel]
    lines = [
        f"ops timed: {ops} x {workload.op}; items: {stats.items} {workload.item}",
        f"speed factor: median {statistics.median(factors):.3f}, "
        f"range {min(factors):.3f}-{max(factors):.3f} over {len(factors)} kernel runs",
        "unscaled: " + ", ".join(f"{k} {raw[k]:.6g}" for k in raw),
    ]
    for name, source, factor, unit in NAMED[workload.name]:
        lines.append(f"{name} = {metrics[source] * factor:.6g} {unit}")
    return {k: metrics[k] for k in END_TO_END_UNITS}, stats, lines


def layer_metrics(tracer: Tracer, extra: dict) -> dict:
    stats = tracer.layer_stats()
    counts = dict(tracer.counts)
    counts.update(extra)
    out = {}
    for name in LAYER_UNITS:
        head, _, key = name.rpartition(".")
        if key in ("calls", "self_s") and head == "opinion":
            out[name] = sum(v[key] for k, v in stats.items() if k.startswith("opinion."))
        elif key in ("calls", "self_s"):
            out[name] = stats.get(head, {}).get(key, 0)
        elif key == "p50_us":
            samples = tracer.samples.get(head, [])
            out[name] = statistics.median(samples) * 1e6 if samples else 0.0
        elif name == "store.match_ratio":
            parsed = counts.get("store.lines_parsed", 0)
            out[name] = counts.get("store.lines_matched", 0) / parsed if parsed else 0.0
        elif name != "trace.overhead_ratio":
            out[name] = counts.get(name, 0)
    return out


def per_layer(workload, seconds: float) -> tuple[dict, Stats, list[str]]:
    setup_once(workload)
    probe = SpeedProbe()
    probe.sample()
    total = Stats()
    plain_rounds, traced_rounds, layers = [], [], []
    start = perf_counter()
    while len(layers) < TRACED_ROUNDS or perf_counter() - start < seconds:
        # alternate which side goes first, so warming favours neither
        for traced in (len(layers) % 2 == 1, len(layers) % 2 == 0):
            stats = Stats(probe=probe)
            if traced:
                tracer = Tracer()
                tracer.install()
                workload.tracer = tracer
                try:
                    workload.round(stats)
                finally:
                    tracer.uninstall()
                    workload.tracer = None
                layers.append(layer_metrics(tracer, workload.extra_counts()))
                traced_rounds.append(stats.calls)
            else:
                workload.round(stats)
                plain_rounds.append(stats.calls)
            total.attempted += stats.attempted
            total.failed += stats.failed
    workload.check()
    metrics = {}
    for name in LAYER_UNITS:
        values = [layer[name] for layer in layers if name in layer]
        if name.endswith((".self_s", ".p50_us")):
            metrics[name] = statistics.median(values)
        elif values:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                workload.errors.append(f"{name} differs between identical traced rounds: {values}")
    probe.sample()

    def busy(rounds):
        return statistics.median(sum(probe.scaled(s, e) for s, e, _ in calls) for calls in rounds)

    metrics["trace.overhead_ratio"] = busy(traced_rounds) / busy(plain_rounds)
    for name in workload.expect_zero:
        if metrics[name] != 0:
            workload.errors.append(f"{name} = {metrics[name]}, expected 0 on {workload.name}")
    for name in workload.expect_positive:
        if not metrics[name] > 0:
            workload.errors.append(f"{name} = {metrics[name]}, expected > 0 (missed binding?)")
    lines = [f"traced rounds: {len(layers)}; untraced rounds: {len(plain_rounds)}"]
    if workload.name == "ingest_rescore":
        appends = metrics["store.append.calls"]
        lines.append(f"ingest.append_p50_us = {metrics['store.append.p50_us']:.6g} us")
        lines.append(f"fsyncs per appended record: {metrics['store.fsyncs'] / appends:.3f}"
                     if appends else "no appends traced")
    return metrics, total, lines


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment_lines() -> list[str]:
    return [
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"nproc {os.cpu_count()}, git {git_sha()}",
        "client: one, closed loop, in-process; "
        f"flush policy: {WORKLOADS['ingest_rescore'].FLUSH_POLICY}",
    ]


def check_checkout() -> None:
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise MissingProgram(f"no package at {SRC / PACKAGE}")
    if not (ROOT / "tests" / "oracle.py").is_file():
        raise MissingProgram(f"no test oracle at {ROOT / 'tests' / 'oracle.py'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def run(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None):
    """One benchmark run; returns (result dict, human-readable lines)."""
    check_checkout()
    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](seed, workdir, (sizes or SIZES)[name])
        workload.prepare()
        measure = per_layer if trace else end_to_end
        metrics, stats, lines = measure(workload, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    lines = [f"workload {name}, seed {seed}, trace {int(trace)}"] + lines
    lines += [f"{key} = {metrics[key]:.6g} {unit}" for key, unit in units.items()]
    ratio = stats.failed / stats.attempted if stats.attempted else 0.0
    lines.append(f"failed_ops_ratio = {ratio:.6g} ({stats.failed} of {stats.attempted})")
    lines += [f"failure: {f}" for f in workload.failures[:5]]
    lines += [f"CHECK FAILED: {e}" for e in workload.errors[:20]]
    result = {
        "correct": not workload.errors,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload, untraced and traced, and print every metric")
    args = parser.parse_args(argv)
    if not args.report and args.workload is None:
        parser.error("give --workload or --report")
    runs = [(w, t) for w in WORKLOADS for t in (False, True)] if args.report else [
        (args.workload, bool(args.trace))
    ]
    ok = True
    try:
        check_checkout()
        print("\n".join(environment_lines()), flush=True)
        for name, trace in runs:
            result, lines = run(name, args.seed, args.seconds, trace)
            print("\n".join(lines), flush=True)
            ok = ok and result["correct"]
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.report:
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
