"""The four closed-loop workloads: one client, each call waits for the last.

A workload generates its inputs from the seed (``prepare``), binds to a
freshly imported package (``bind``), runs one untimed warm-up operation
(``warmup``), and then repeats identical rounds (``round``).  Only the
calls into the package are timed; correctness checks run between them.
Each workload stresses a different layer:

* ``rank_store``: store parse and fold; fuzzy inference is bypassed.
* ``score_fuzzy``: single-point fuzzy inference; the store is bypassed.
* ``surface_export``: the same inference in bulk, plus CSV formatting.
* ``ingest_rescore``: durable appends interleaved with store re-reads.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import gen
import reference
from speed import SpeedProbe

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "surface_sha256.json"

#: the unit-domain oracle tolerance of tests/test_fuzzy.py, scaled to 0..100
ORACLE_TOL = 1e-7

SIZES = {
    "rank_store": {"lines": 25_000, "merchants": 1_000, "compare": 4},
    "score_fuzzy": {"population": 200, "override_share": 0.10, "oracle_sample": 2},
    "surface_export": {"resolution": 51},
    "ingest_rescore": {"lines": 10_000, "merchants": 200, "bursts": 40},
}

#: sizes for the benchmark's own tests
TINY_SIZES = {
    "rank_store": {"lines": 600, "merchants": 20, "compare": 3},
    "score_fuzzy": {"population": 12, "override_share": 0.3, "oracle_sample": 1},
    "surface_export": {"resolution": 5},
    "ingest_rescore": {"lines": 300, "merchants": 10, "bursts": 6},
}


@dataclass
class Stats:
    """What one or more rounds did: each timed call, items done, failures."""

    #: (start, end, is_op) of every timed call; ``is_op`` marks the calls
    #: whose latency the workload reports
    calls: list[tuple[float, float, bool]] = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failed: int = 0
    probe: SpeedProbe | None = None

    def record(self, start: float, end: float, op: bool = True) -> None:
        self.calls.append((start, end, op))
        self.attempted += 1
        if self.probe is not None:
            self.probe.maybe_sample(end)


class Workload:
    name = ""
    #: what ``items_per_s`` counts and what ``op_*_ms`` times
    item = ""
    op = ""
    #: traced call counts that must be zero, and ones that must be positive
    expect_zero: tuple[str, ...] = ()
    expect_positive: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path, sizes: dict) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.sizes = sizes
        self.mods = None
        self.tracer = None
        self.errors: list[str] = []
        self.failures: list[str] = []

    def bind(self, mods) -> None:
        self.mods = mods

    def cli(self, stats: Stats, argv: list[str], timed_op: bool = True) -> str | None:
        """One in-process CLI call; returns stdout, or None if it failed."""
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.mods.cli.main(argv)
        except Exception as exc:  # counted as a failed operation, never fatal
            rc = f"raised {type(exc).__name__}: {exc}"
        stats.record(t0, perf_counter(), timed_op)
        text = out.getvalue()
        if self.tracer is not None:
            self.tracer.counts["cli.output_bytes"] += len(text.encode("utf-8"))
        if rc != 0:
            stats.failed += 1
            self.failures.append(f"{argv[0]} exit {rc}: {err.getvalue().strip()[:200]}")
            return None
        return text

    def extra_counts(self) -> dict[str, int]:
        """Counts the workload measures itself during a traced round."""
        return {}

    def check(self) -> None:
        """Checks that need the whole run, after the timed loop."""


class RankStore(Workload):
    name = "rank_store"
    item = "merchants ranked"
    op = "compare call"
    expect_zero = ("fuzzy.infer.calls", "store.append.calls")
    expect_positive = ("store.records.calls", "store.load_profile.calls",
                       "pipeline.evaluate_merchant.calls", "cli.main.calls")

    def prepare(self) -> None:
        path = self.workdir / "rank.jsonl"
        tally = gen.write_store(path, self.rng, self.sizes["lines"], self.sizes["merchants"])
        names = gen.merchant_names(self.sizes["merchants"])
        self.chosen = self.rng.sample(names, self.sizes["compare"])
        self.expected = {
            m: reference.average_report(reference.profile_sources(tally, m)) for m in self.chosen
        }
        config = self.workdir / "average.json"
        config.write_text(json.dumps({"aggregation": "average"}), encoding="utf-8")
        self.argv = ["compare", "--store", str(path), "--config", str(config), "--format", "json"]
        for m in self.chosen:
            self.argv += ["--merchant", m]

    def warmup(self) -> None:
        self.cli(Stats(), self.argv)

    def round(self, stats: Stats) -> None:
        text = self.cli(stats, self.argv)
        if text is None:
            return
        stats.items += len(self.chosen)
        reports = json.loads(text)
        for report in reports:
            expected = self.expected.get(report["merchant"])
            if expected is not None:
                self.errors += reference.report_mismatches(report, expected)
        self.errors += reference.ranking_mismatches(
            [r["merchant"] for r in reports],
            {m: e["merchant_trust"] for m, e in self.expected.items()},
        )


def load_oracle():
    path = BENCH_DIR.parent / "tests" / "oracle.py"
    spec = importlib.util.spec_from_file_location("certaintrust_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class ScoreFuzzy(Workload):
    name = "score_fuzzy"
    item = "merchants scored"
    op = "evaluate_merchant call"
    expect_zero = ("store.records.calls", "store.load_profile.calls", "store.append.calls",
                   "cli.main.calls", "fuzzy.surface_grid.calls")
    expect_positive = ("fuzzy.infer.calls", "pipeline.evaluate_merchant.calls",
                       "pipeline.compare_merchants.calls", "opinion.calls",
                       "variables.normalize_name.calls")

    def prepare(self) -> None:
        self.population = gen.make_population(
            self.rng, self.sizes["population"], self.sizes["override_share"]
        )
        sample = self.rng.sample(self.population, self.sizes["oracle_sample"])
        pinned = [m for m in self.population if m.overrides]
        if pinned and not any(m.overrides for m in sample):
            sample.append(pinned[0])
        self.sample = sample
        self.first: dict[str, tuple] | None = None

    def bind(self, mods) -> None:
        super().bind(mods)
        self.cfg = mods.pipeline.PipelineConfig(aggregation="fuzzy")
        count = mods.opinion.EvidenceCount
        self.inputs = [
            {
                m.spelling[name]: count(a, b) if kind == "evidence" else (a, b)
                for name, (kind, a, b) in m.sources.items()
            }
            for m in self.population
        ]

    def evaluate(self, stats: Stats, index: int):
        merchant = self.population[index]
        t0 = perf_counter()
        try:
            report = self.mods.pipeline.evaluate_merchant(
                merchant.name, self.cfg, variables=self.inputs[index],
                module_overrides=merchant.overrides or None,
            )
        except Exception as exc:  # counted as a failed operation, never fatal
            report = None
            self.failures.append(f"{merchant.name}: {type(exc).__name__}: {exc}")
        stats.record(t0, perf_counter())
        if report is None:
            stats.failed += 1
        return report

    def warmup(self) -> None:
        self.evaluate(Stats(), 0)

    def round(self, stats: Stats) -> None:
        reports = [self.evaluate(stats, i) for i in range(len(self.population))]
        reports = [r for r in reports if r is not None]
        stats.items += len(reports)
        t0 = perf_counter()
        try:
            ordered = self.mods.pipeline.compare_merchants(reports)
        except Exception as exc:  # counted as a failed operation, never fatal
            ordered = None
            self.failures.append(f"compare_merchants: {type(exc).__name__}: {exc}")
        stats.record(t0, perf_counter(), op=False)
        if ordered is None:
            stats.failed += 1
            return
        trusts = {r.merchant: r.merchant_trust for r in reports}
        self.errors += reference.ranking_mismatches([r.merchant for r in ordered], trusts)
        outcome = {
            r.merchant: (r.merchant_trust, tuple(r.module_trusts.items()), r.trust_class)
            for r in reports
        }
        if self.first is None:
            self.first = outcome
        elif outcome != self.first:
            self.errors.append("reports differ between rounds over the same inputs")

    def check(self) -> None:
        """Sampled module and merchant trusts against the brute-force oracle."""
        if self.first is None:
            self.errors.append("no complete round to check")
            return
        oracle = load_oracle()
        for merchant in self.sample:
            got = self.first.get(merchant.name)
            if got is None:
                self.errors.append(f"{merchant.name}: no report")
                continue
            got_trust, got_modules, _ = got
            got_modules = dict(got_modules)
            modules = {}
            for module in gen.MODULES:
                if module in merchant.overrides:
                    modules[module] = merchant.overrides[module]
                    continue
                xs = [reference.trust_from_source(merchant.sources[v]) for v in gen.WIRING[module]]
                modules[module] = oracle.bruteforce_infer(xs, 0.0, 100.0)
            for module, want in modules.items():
                if abs(got_modules[module] - want) > ORACLE_TOL:
                    self.errors.append(
                        f"{merchant.name} {module} = {got_modules[module]!r}, oracle {want!r}"
                    )
            want = oracle.bruteforce_infer([modules[m] for m in gen.MODULES], 0.0, 100.0)
            if abs(got_trust - want) > ORACLE_TOL:
                self.errors.append(f"{merchant.name} merchant trust = {got_trust!r}, oracle {want!r}")


STAGES = gen.MODULES + ("Merchant Trust",)


class SurfaceExport(Workload):
    name = "surface_export"
    item = "surface cells"
    op = "one-stage surface export"
    expect_zero = ("store.records.calls", "store.load_profile.calls", "store.append.calls",
                   "pipeline.evaluate_merchant.calls")
    expect_positive = ("fuzzy.infer.calls", "fuzzy.surface_grid.calls", "fuzzy.to_csv.calls",
                       "cli.main.calls")

    def prepare(self) -> None:
        digests = json.loads(DIGESTS.read_text(encoding="utf-8"))["sha256"]
        resolution = self.sizes["resolution"]
        self.exports = []
        for stage in STAGES:
            x, y = self.rng.sample(gen.WIRING.get(stage, gen.MODULES), 2)
            key = digest_key(stage, x, y, resolution)
            if key not in digests:
                raise KeyError(f"no recorded digest for {key}")
            self.exports.append((stage, x, y, digests[key]))
        self.resolution = resolution

    def argv(self, stage: str, x: str, y: str, resolution: int) -> list[str]:
        return ["surface", "--module", stage, "--x", x, "--y", y,
                "--resolution", str(resolution), "--out", str(self.workdir / "surface.csv")]

    def warmup(self) -> None:
        """Every stage once at resolution 3: builds each rulebase and output grid."""
        for stage, x, y, _ in self.exports:
            self.cli(Stats(), self.argv(stage, x, y, 3))

    def round(self, stats: Stats) -> None:
        for stage, x, y, digest in self.exports:
            if self.cli(stats, self.argv(stage, x, y, self.resolution)) is None:
                continue
            stats.items += self.resolution ** 2
            got = hashlib.sha256((self.workdir / "surface.csv").read_bytes()).hexdigest()
            if got != digest:
                self.errors.append(f"{stage} ({x} x {y}): sha256 {got} != recorded")


def digest_key(stage: str, x: str, y: str, resolution: int) -> str:
    return f"{stage}|{x}|{y}|{resolution}"


class IngestRescore(Workload):
    name = "ingest_rescore"
    item = "records acknowledged"
    op = "evaluate (rescore) call"
    expect_zero = ("fuzzy.infer.calls", "fuzzy.surface_grid.calls")
    expect_positive = ("store.append.calls", "store.records.calls", "store.load_profile.calls",
                       "cli.main.calls", "pipeline.evaluate_merchant.calls")

    #: how records reach the disk; EvidenceStore.append fsyncs each one
    FLUSH_POLICY = "fsync per record"

    def prepare(self) -> None:
        self.base = self.workdir / "ingest-base.jsonl"
        lines, merchants = self.sizes["lines"], self.sizes["merchants"]
        self.base_tally = gen.write_store(self.base, self.rng, lines, merchants)
        batches = self.workdir / "batches"
        batches.mkdir()
        self.bursts = gen.make_bursts(
            self.rng, merchants, self.sizes["bursts"], gen.BASE_TIMESTAMP + lines, batches
        )
        self.live = self.workdir / "ingest.jsonl"

    def burst(self, stats: Stats, store: Path, burst) -> bool:
        text = self.cli(stats, ["ingest", "--store", str(store), *burst.argv], timed_op=False)
        return text is not None

    def warmup(self) -> None:
        warm = self.workdir / "ingest-warm.jsonl"
        shutil.copyfile(self.base, warm)
        first = self.bursts[0]
        self.burst(Stats(), warm, first)
        self.cli(Stats(), ["evaluate", "--store", str(warm), "--merchant", first.merchant,
                           "--format", "json"])

    def round(self, stats: Stats) -> None:
        shutil.copyfile(self.base, self.live)
        tally = self.base_tally.copy()
        acknowledged = []
        for burst in self.bursts:
            if self.burst(stats, self.live, burst):
                acknowledged += burst.records
                stats.items += len(burst.records)
                for record in burst.records:
                    tally.add(record)
            text = self.cli(stats, ["evaluate", "--store", str(self.live),
                                    "--merchant", burst.merchant, "--format", "json"])
            if text is not None:
                expected = reference.average_report(
                    reference.profile_sources(tally, burst.merchant)
                )
                self.errors += reference.report_mismatches(json.loads(text), expected)
        self.errors += self.read_back(acknowledged, tally)

    def read_back(self, acknowledged: list[dict], tally) -> list[str]:
        """Every acknowledged record is in the log, in order, and nothing else."""
        with open(self.live, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        appended = lines[self.base_tally.lines:]
        problems = []
        if appended != acknowledged:
            problems.append(
                f"log holds {len(appended)} appended records, {len(acknowledged)} acknowledged"
            )
        seen = gen.Tally()
        for record in lines:
            seen.add(record)
        if seen.counts != tally.counts or seen.assessments != tally.assessments:
            problems.append("per-pair counts in the log differ from the generator's tally")
        return problems

    def extra_counts(self) -> dict[str, int]:
        return {"store.bytes_written": self.live.stat().st_size - self.base.stat().st_size}


WORKLOADS = {w.name: w for w in (RankStore, ScoreFuzzy, SurfaceExport, IngestRescore)}
