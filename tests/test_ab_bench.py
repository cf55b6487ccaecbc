"""The summary that ``tools/ab_bench.py`` prints for paired benchmark runs,
on fixed numbers, and how it stops a run, on a stub child; no benchmark
process is started."""

import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
_spec = importlib.util.spec_from_file_location("ab_bench", TOOL)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

#: ten pairs of op_p50_ms: the change is faster in all but pair 4, a tie
PARENT = [2.70, 2.74, 2.72, 2.60, 2.76, 2.71, 2.73, 2.75, 2.69, 2.72]
CHANGE = [2.58, 2.61, 2.60, 2.60, 2.62, 2.57, 2.59, 2.63, 2.56, 2.60]


def test_a_lower_is_better_gain_is_met():
    summary = ab_bench.summarize(PARENT, CHANGE, "lower")
    assert summary["parent"] == pytest.approx((2.7025, 2.72, 2.7375))
    assert summary["change"] == pytest.approx((2.5825, 2.6, 2.6075))
    assert summary["ratios"] == pytest.approx([c / p for p, c in zip(PARENT, CHANGE)])
    assert summary["ratios"][3] == 1.0
    assert summary["wins"] == 9  # the tie counts for neither side
    assert summary["gain"]


def test_the_same_pairs_are_no_gain_where_higher_is_better():
    summary = ab_bench.summarize(PARENT, CHANGE, "higher")
    assert (summary["wins"], summary["gain"]) == (0, False)
    assert ab_bench.summarize(CHANGE, PARENT, "higher")["gain"]


def test_eight_wins_in_ten_or_a_median_inside_the_parents_spread_is_no_gain():
    eight = CHANGE[:2] + [2.73] + CHANGE[3:]  # pair 3 lost as well as pair 4 tied
    assert ab_bench.summarize(PARENT, eight, "lower")["wins"] == 8
    assert not ab_bench.summarize(PARENT, eight, "lower")["gain"]
    close = [p - 0.01 for p in PARENT]  # wins all ten by less than the quartile spread
    summary = ab_bench.summarize(PARENT, close, "lower")
    assert summary["wins"] == 10
    assert not summary["gain"]


def test_the_printed_summary_names_both_sides_and_the_verdict():
    lines = ab_bench.format_summary("op_p50_ms", "ms", "lower",
                                    ab_bench.summarize(PARENT, CHANGE, "lower"))
    assert lines[0] == "op_p50_ms (ms, lower is better)"
    assert lines[1] == "  parent  median 2.72  quartiles 2.7025 .. 2.7375"
    assert lines[2] == "  change  median 2.6  quartiles 2.5825 .. 2.6075"
    assert lines[3].split()[1:3] == ["0.956", "0.953"]
    assert lines[4] == "  change wins 9 of 10; median ratio 0.954; gain rule met"


#: a stand-in for one benchmark run: it makes its work directory, notes its
#: pid there and removes the directory in ``finally``, as ``bench/run.py``
#: does; ``deaf`` ignores SIGINT
STUB = """
import os, shutil, signal, sys, time
from pathlib import Path
work = Path(sys.argv[1])
if sys.argv[2] == "deaf":
    signal.signal(signal.SIGINT, signal.SIG_IGN)
work.mkdir()
try:
    (work / "pid").write_text(str(os.getpid()))
    time.sleep(60)
finally:
    shutil.rmtree(work)
"""

#: ``run_once`` of the stub under the SIGTERM handler that ``main`` installs
CALLER = """
import importlib.util, signal, sys
from pathlib import Path
tool, grace, stub, work, mode = sys.argv[1:]
spec = importlib.util.spec_from_file_location("ab_bench", tool)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)
ab_bench.STOP_GRACE_S = float(grace)
signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
ab_bench.run_once([sys.executable, "-c", stub, work, mode], Path.cwd())
"""


def stopped_run(tmp_path, signum, mode: str, grace: float) -> tuple:
    """Start the stub under ``run_once``, send the caller ``signum`` once the
    stub has made its work directory, and return the caller's exit status,
    the stub's pid and whether the work directory is left."""
    work = tmp_path / "work"
    caller = subprocess.Popen([sys.executable, "-c", CALLER, str(TOOL), str(grace), STUB,
                               str(work), mode])
    try:
        deadline = time.monotonic() + 30
        while not (work / "pid").exists() or not (work / "pid").read_text():
            assert time.monotonic() < deadline and caller.poll() is None
            time.sleep(0.01)
        pid = int((work / "pid").read_text())
        caller.send_signal(signum)
        status = caller.wait(timeout=30)
    finally:
        caller.kill()
        caller.wait()
    return status, pid, work.exists()


def gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"])
def test_a_stopped_run_removes_its_work_directory(tmp_path, signum):
    status, pid, left = stopped_run(tmp_path, signum, "hears", grace=30)
    assert status != 0
    assert not left
    assert gone(pid)


def test_a_run_that_ignores_sigint_is_killed_after_the_grace(tmp_path):
    began = time.monotonic()
    status, pid, left = stopped_run(tmp_path, signal.SIGTERM, "deaf", grace=0.5)
    assert status == 143
    assert time.monotonic() - began < 20
    assert left  # killed, so its finally never ran
    assert gone(pid)
