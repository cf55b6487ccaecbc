"""Paired benchmark runs of one workload: a parent revision against the working tree.

Extracts the parent's committed files with ``git archive`` into a temporary
directory, removed on exit, then alternates runs of the benchmark command
that ``BENCHMARK.json`` names, with ``--workload W --trace 0``, there and in
the working tree, in ABBA order: pair ``i`` runs the parent first when ``i``
is even.  From each run's last JSON line it takes every end-to-end metric of
``BENCHMARK.json`` and prints, per metric, each side's median and quartiles,
the ratio of each pair (change over parent), the change's wins, whether
the gain rule holds and the no-regression verdict.  The gain rule holds
when the change wins at least nine pairs in ten, ties counting for
neither, and its median is better than the parent's by more than the
parent's interquartile range.  The verdict, against the metric's ``bound``
in ``BENCHMARK.json`` (a fraction of the parent's median), is
``unresolved`` when the parent's interquartile range is wider than the
bound and not every run of the change is better than every run of the
parent; otherwise ``broken`` when the change's median is worse than the
parent's by more than the bound, and ``held`` when it is not.

    python3 tools/ab_bench.py HEAD --workload rank_store
    python3 tools/ab_bench.py main --workload score_fuzzy --pairs 10 --seed 2

Both sides run with the same seed and the run length of ``BENCHMARK.json``
(``run_seconds``).  The exit status is 1 when a run fails or reports
``"correct": false``, and 2 when the revision does not resolve.  Stopped by
SIGTERM or Ctrl-C, it interrupts the running benchmark with SIGINT, so that
the benchmark removes its work directory, and removes the parent's files.
Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: how long a stopped run has to remove its work directory before it is killed
STOP_GRACE_S = 10.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, the median and the third quartile, inclusive method."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The paired comparison of one metric, whose pair ``i`` is
    ``(parent[i], change[i])``, which is better ``"lower"`` or ``"higher"``
    and which may worsen by ``bound``, a fraction of the parent's median."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
    overlap = max(sign * c for c in change) >= min(sign * p for p in parent)
    if pq3 - pq1 > bound * abs(pmed) and overlap:
        verdict = "unresolved"
    elif sign * (cmed - pmed) > bound * abs(pmed):
        verdict = "broken"
    else:
        verdict = "held"
    return {
        "parent": (pq1, pmed, pq3),
        "change": (cq1, cmed, cq3),
        "ratios": [c / p if p else float("nan") for p, c in zip(parent, change)],
        "wins": wins,
        "gain": 10 * wins >= 9 * len(parent) and sign * (pmed - cmed) > pq3 - pq1,
        "bound": bound,
        "verdict": verdict,
    }


def format_summary(name: str, unit: str, better: str, summary: dict) -> list[str]:
    ratios = summary["ratios"]
    lines = [f"{name} ({unit}, {better} is better)"]
    for side in ("parent", "change"):
        q1, median, q3 = summary[side]
        lines.append(f"  {side:6}  median {median:.6g}  quartiles {q1:.6g} .. {q3:.6g}")
    lines.append("  ratios  " + " ".join(f"{r:.3f}" for r in ratios))
    lines.append(f"  change wins {summary['wins']} of {len(ratios)}; median ratio "
                 f"{statistics.median(ratios):.3f}; gain rule "
                 f"{'met' if summary['gain'] else 'not met'}")
    lines.append(f"  no regression beyond {summary['bound']:.0%}: {summary['verdict']}")
    return lines


def run_once(command: list[str], where: Path) -> dict:
    """One benchmark run in the checkout at ``where``: its last JSON line.

    The run is its own session, so that a Ctrl-C at the terminal reaches
    this process alone; when this process is stopped, by SIGTERM or
    Ctrl-C, it hands the run one SIGINT, which unwinds the run's
    ``finally`` blocks and so removes its work directory, and kills it
    after ``STOP_GRACE_S`` seconds."""
    with subprocess.Popen(command, cwd=where, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as child:
        try:
            stdout, stderr = child.communicate()
        except BaseException:  # a stop: SystemExit from SIGTERM, or KeyboardInterrupt
            child.send_signal(signal.SIGINT)
            try:  # drained, so that a full pipe cannot hold the run up
                child.communicate(timeout=STOP_GRACE_S)
            except subprocess.TimeoutExpired:
                child.kill()
            raise
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if child.returncode == 0 and lines else None
    if result is None or not result.get("correct"):
        sys.stdout.write(stdout + stderr)
        raise SystemExit(f"run failed in {where} (exit status {child.returncode})")
    return result


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the revision to compare the working tree with")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    rev = subprocess.run(["git", "rev-parse", "--verify", f"{args.parent}^{{commit}}"],
                         cwd=ROOT, capture_output=True, text=True)
    if rev.returncode:
        print(f"error: {args.parent!r} is not a revision: {rev.stderr.strip()}", file=sys.stderr)
        return 2
    command = [*config["command"], "--workload", args.workload, "--trace", "0",
               "--seconds", str(config["run_seconds"]), "--seed", str(args.seed)]
    metrics = config["end_to_end"]
    values = {side: {m["name"]: [] for m in metrics} for side in ("parent", "change")}
    # a stop by SIGTERM unwinds as an exit does: the running child is
    # interrupted and the parent's files are removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parent_dir = Path(tempfile.mkdtemp(prefix="ab_bench-"))
    try:
        archive = subprocess.Popen(["git", "archive", rev.stdout.strip()], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(parent_dir)], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait():
            raise SystemExit("git archive failed")
        print(f"workload {args.workload}, seed {args.seed}, {config['run_seconds']:g} s per run, "
              f"{args.pairs} pairs; parent {rev.stdout.strip()[:12]} against the working tree",
              flush=True)
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                result = run_once(command, parent_dir if side == "parent" else ROOT)
                for name in values[side]:
                    values[side][name].append(result["metrics"][name]["value"])
            print(f"pair {i + 1}: " + ", ".join(
                f"{m['name']} {values['parent'][m['name']][-1]:.6g} -> "
                f"{values['change'][m['name']][-1]:.6g}" for m in metrics), flush=True)
    finally:
        shutil.rmtree(parent_dir, ignore_errors=True)
    for m in metrics:
        summary = summarize(values["parent"][m["name"]], values["change"][m["name"]],
                            m["better"], m["bound"])
        print("\n".join(format_summary(m["name"], m["unit"], m["better"], summary)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
