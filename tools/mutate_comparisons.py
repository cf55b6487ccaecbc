"""Comparison mutation check for one module of ``src/certaintrust``.

Flips one comparison operator at a time (``<`` and ``<=``, ``>`` and
``>=``, ``==`` and ``!=``) in a temporary copy of the checkout, runs the
module's test files against each mutant with ``pytest -x``, and prints the
mutants that no test kills, apart from those listed in ``EQUIVALENT``.

    python tools/mutate_comparisons.py store
    python tools/mutate_comparisons.py pipeline tests/test_pipeline.py tests/test_cli.py

The test files default to those ``DEFAULT_TESTS`` names for the module,
or else to ``tests/test_<module>.py``; they must pass on the unmutated
copy first.  Each mutant is one pytest process, run one after another; a
run that fails or exceeds ``TIMEOUT_S`` kills it.  The exit status is 1
when a mutant outside ``EQUIVALENT`` survives, and 2 when the tests do
not pass unmutated.  Stdlib only.
"""

from __future__ import annotations

import ast
import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "certaintrust"
FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
         ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
#: a mutant whose tests run longer than this counts as killed
TIMEOUT_S = 900
#: mutants that change no behaviour, each with the reason, keyed by module,
#: the source line with its indentation stripped, and which flippable
#: operator of that line is flipped (0 for the first)
EQUIVALENT: dict[tuple[str, str, int], str] = {
    ("store", "while final >= 0 and lines[final] is not None and not lines[final].strip():", 0):
        "final is compared only with the index of a non-blank line, and the two loops"
        " differ only when line 0 is blank",
    ("fuzzy", "if not lo <= x <= hi:", 1):
        "at x == hi the branch sets x to hi, which it already is",
    ("fuzzy", "x = lo if x < lo else hi", 0):
        "the branch holds only x outside [lo, hi], so x never equals lo there",
    ("opinion", "if -_CLIP_TOL < value < 0.0:", 1):
        "at value == 0.0 the branch returns 0.0, which compares equal to it",
    ("opinion", "if 1.0 < value < 1.0 + _CLIP_TOL:", 0):
        "at value == 1.0 the branch returns 1.0, the value itself",
    ("opinion", "if denom <= BASE_EPS:", 0):
        "op_and's denom is above 0.5, or else 1 - f_A*f_B exactly (Sterbenz) and so a"
        " multiple of 2**-53, which BASE_EPS = 1e-9 is not; op_or's twin, which can equal"
        " BASE_EPS, is killed by a test",
}
#: the test files of a module whose own file leaves mutants alive that others kill
DEFAULT_TESTS = {
    "opinion": ["tests/test_opinion.py", "tests/test_properties.py", "tests/test_pipeline.py",
                "tests/test_acceptance.py"],
}


def mutants(source: str) -> list[tuple[int, int, int, str, str]]:
    """Each flippable comparison operator of ``source`` as (line, start
    column, end column, operator, replacement), columns in characters."""
    lines = source.splitlines(keepends=True)
    # operator tokens by position: an ast node gives only the operands' spans
    tokens = {(tok.start, tok.string): tok.end
              for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type == tokenize.OP}
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, before, after in zip(node.ops, operands, operands[1:]):
            if type(op) not in FLIPS:
                continue
            old, new = FLIPS[type(op)]
            # the first operator token between the two operands
            start = (before.end_lineno, _chars(lines, before.end_lineno, before.end_col_offset))
            stop = (after.lineno, _chars(lines, after.lineno, after.col_offset))
            hit = min(pos for pos, text in tokens if text == old and start <= pos < stop)
            found.append((hit[0], hit[1], tokens[hit, old][1], old, new))
    return sorted(found)


def _chars(lines: list[str], lineno: int, offset: int) -> int:
    """The character column of the UTF-8 byte ``offset`` on line ``lineno``."""
    return len(lines[lineno - 1].encode("utf-8")[:offset].decode("utf-8"))


def main(argv: list[str]) -> int:
    if not argv or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    module = argv[0]
    tests = argv[1:] or DEFAULT_TESTS.get(module, [f"tests/test_{module}.py"])
    relative = PACKAGE / f"{module}.py"
    source = (ROOT / relative).read_text(encoding="utf-8")
    found = mutants(source)
    lines = source.splitlines(keepends=True)
    print(f"{relative}: {len(found)} comparison mutants, tests: {' '.join(tests)}", flush=True)
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_work", "*.snapshot"))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   "--hypothesis-seed=0", *tests]

        def fails() -> bool:
            try:
                return bool(subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                                           stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode)
            except subprocess.TimeoutExpired:
                return True

        # a test run that cannot pass (a wrong path, a failing test) would kill every mutant
        if fails():
            print("error: the tests do not pass on the unmutated checkout", file=sys.stderr)
            return 2
        for i, (lineno, start, end, old, new) in enumerate(found):
            line = lines[lineno - 1]
            key = (module, line.strip(), sum(m[0] == lineno for m in found[:i]))
            mutated = lines[:lineno - 1] + [line[:start] + new + line[end:]] + lines[lineno:]
            (copy / relative).write_text("".join(mutated), encoding="utf-8")
            began = time.perf_counter()
            verdict = ("killed" if fails() else
                       "equivalent" if key in EQUIVALENT else "SURVIVED")
            print(f"{relative}:{lineno}:{start + 1}: {old} -> {new}: {verdict}"
                  f" ({time.perf_counter() - began:.1f} s)", flush=True)
            if verdict == "SURVIVED":
                survivors.append(f"{relative}:{lineno}: {old} -> {new}: {key[1:]!r}")
    print(f"{len(survivors)} of {len(found)} mutants survived"
          + "".join(f"\n  {s}" for s in survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
