"""Seeded search for the worst output drop after raising one fuzzy input.

On the generated rulebase over ``n`` inputs on 0-100, each step draws a
uniform point in [0, 100]^n, one input and a raise in (0, 5] points (the
raised value clamped at 100), and measures how far the output falls.  The
ten worst steps are then refined by a seeded random local search that keeps
any nearby step with a larger drop.  This pins the ripple band that
``tests/test_fuzzy.py`` asserts; it is too slow for the test suite.

    PYTHONPATH=src python tools/ripple_search.py            # 400,000 steps per arity
    PYTHONPATH=src python tools/ripple_search.py 20000
"""

from __future__ import annotations

import random
import sys

from certaintrust import generate_rulebase, make_variable
from certaintrust.fuzzy import infer_batch

ARITIES = (3, 4)
CHUNK = 2000
KEEP = 10
REFINE_ITERS = 4000


def rulebase(n):
    return generate_rulebase([make_variable(f"v{i}", 0.0, 100.0) for i in range(n)],
                             make_variable("out", 0.0, 100.0))


def drops(rb, steps):
    """``infer(xs) - infer(xs with input i raised by d)`` for each ``(xs, i, d)``."""
    rows = []
    for xs, i, d in steps:
        up = list(xs)
        up[i] = min(up[i] + d, 100.0)
        rows += [xs, up]
    ys = infer_batch([rb] * len(rows), rows)
    return [ys[2 * k] - ys[2 * k + 1] for k in range(len(steps))]


def search(rb, n, total, rng):
    """The ``KEEP`` largest ``(drop, step)`` pairs and the share of steps that lowered the output."""
    best, lowered = [], 0
    for _ in range(total // CHUNK):
        steps = [([rng.uniform(0.0, 100.0) for _ in range(n)], rng.randrange(n), rng.uniform(0.0, 5.0))
                 for _ in range(CHUNK)]
        found = list(zip(drops(rb, steps), steps))
        lowered += sum(d > 0 for d, _ in found)
        best = sorted(best + found, key=lambda f: -f[0])[:KEEP]
    return best, lowered / (total // CHUNK * CHUNK)


def refine(rb, drop, step, rng):
    """Gaussian moves around ``step``, narrowing threefold every 1,000 tries."""
    xs, i, d = step
    scale = 1.0
    for k in range(REFINE_ITERS):
        cand = ([min(max(x + rng.gauss(0.0, scale), 0.0), 100.0) for x in xs], i,
                min(max(d + rng.gauss(0.0, scale / 2), 0.0), 5.0))
        got = drops(rb, [cand])[0]
        if got > drop:
            drop, (xs, i, d) = got, cand
        if k % 1000 == 999:
            scale /= 3
    return drop, (xs, i, d)


def main(argv):
    total = int(argv[0]) if argv else 400_000
    for n in ARITIES:
        rb = rulebase(n)
        rng = random.Random(8 + n)
        best, share = search(rb, n, total, rng)
        print(f"n={n}: {total} steps, worst drop {best[0][0]:.4f}, {share:.3f} of steps lowered")
        for drop, step in best:
            refined, (xs, i, d) = refine(rb, drop, step, rng)
            print(f"  {drop:.4f} -> {refined:.4f} at xs={[round(x, 6) for x in xs]} i={i} d={d:.6f}")


if __name__ == "__main__":
    main(sys.argv[1:])
