"""Tests of the benchmark harness at tiny sizes.  No timing is asserted.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import TINY_SIZES, WORKLOADS  # noqa: E402

#: counts that must repeat exactly between runs of one seed
DETERMINISTIC_COUNTS = ("store.lines_parsed", "store.fsyncs", "store.bytes_written",
                        "fuzzy.rules_evaluated", "cli.output_bytes")


def tiny(name: str, seed: int, trace: bool) -> dict:
    result, lines = run.run(name, seed, 0.0, trace, sizes=TINY_SIZES)
    assert result["correct"], "\n".join(lines)
    assert result["failed"] == 0, "\n".join(lines)
    return result


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_metrics_reported(name):
    result = tiny(name, 3, trace=False)
    metrics = result["metrics"]
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in metrics.values())
    assert result["attempted"] >= 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_for_one_seed(name):
    first = tiny(name, 7, trace=True)["metrics"]
    second = tiny(name, 7, trace=True)["metrics"]
    assert set(first) == set(run.LAYER_UNITS)
    for key in DETERMINISTIC_COUNTS:
        assert first[key]["value"] == second[key]["value"], key
    assert first["trace.overhead_ratio"]["value"] > 0


def test_seed_changes_inputs():
    a = tiny("ingest_rescore", 1, trace=True)["metrics"]
    b = tiny("ingest_rescore", 2, trace=True)["metrics"]
    assert a["store.bytes_written"]["value"] != b["store.bytes_written"]["value"]


def test_tracer_patches_every_binding_and_restores():
    run.check_checkout()
    mods = run.import_package()
    originals = (mods.pipeline.infer, mods.cli.evaluate_merchant, mods.fuzzy.infer,
                 mods.store.EvidenceStore.records, mods.store.os)
    tracer = Tracer()
    tracer.install()
    try:
        assert mods.pipeline.infer is mods.fuzzy.infer is mods.certaintrust.infer
        assert mods.pipeline.infer is not originals[0]
        assert mods.cli.evaluate_merchant is mods.pipeline.evaluate_merchant
        assert mods.cli.evaluate_merchant is not originals[1]
        assert mods.store.EvidenceStore.records is not originals[3]
        rb = mods.pipeline.module_rulebase(mods.pipeline.default_modules()[0])
        mods.fuzzy.surface_grid(rb, 0, 1, resolution=2)
    finally:
        tracer.uninstall()
    assert (mods.pipeline.infer, mods.cli.evaluate_merchant, mods.fuzzy.infer,
            mods.store.EvidenceStore.records, mods.store.os) == originals
    stats = tracer.layer_stats()
    assert stats["fuzzy.surface_grid"]["calls"] == 1
    assert stats["fuzzy.infer"]["calls"] == 4
    assert tracer.counts["fuzzy.rules_evaluated"] == 4 * 125


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [("outer", 0.0, 10.0, -1), ("inner", 2.0, 5.0, 0), ("inner", 6.0, 7.0, 0)]
    stats = tracer.layer_stats()
    assert stats["outer"] == {"calls": 1, "self_s": 6.0}
    assert stats["inner"] == {"calls": 2, "self_s": 4.0}


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        command + ["--workload", "rank_store", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
