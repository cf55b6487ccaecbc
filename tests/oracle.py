"""Independent reference implementations used to check the package.

Deliberately structured differently from the library: operator formulas
are evaluated with exact ``Fraction`` arithmetic, and Mamdani inference is
a naive per-rule loop over a plain-Python sample grid (no per-term
grouping, no numpy).  Keep it that way; the value of these checks is the
independence of the route.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def frac_or(a: tuple, b: tuple) -> tuple:
    """Exact OR on (t, c, f) triples of Fractions."""
    tA, cA, fA = a
    tB, cB, fB = b
    denom = fA + fB - fA * fB
    c = cA + cB - cA * cB - (cA * (1 - cB) * fB * (1 - tA) + (1 - cA) * cB * fA * (1 - tB)) / denom
    t = (cA * tA + cB * tB - cA * cB * tA * tB) / c if c != 0 else Fraction(1, 2)
    return t, c, fA + fB - fA * fB


def frac_and(a: tuple, b: tuple) -> tuple:
    """Exact AND on (t, c, f) triples of Fractions."""
    tA, cA, fA = a
    tB, cB, fB = b
    denom = 1 - fA * fB
    c = cA + cB - cA * cB - ((1 - cA) * cB * (1 - fA) * tB + cA * (1 - cB) * (1 - fB) * tA) / denom
    if c != 0:
        t = (cA * cB * tA * tB + (cA * (1 - cB) * (1 - fA) * fB * tA + (1 - cA) * cB * fA * (1 - fB) * tB) / denom) / c
    else:
        t = Fraction(1, 2)
    return t, c, fA * fB


def frac_expectation(o: tuple) -> Fraction:
    t, c, f = o
    return t * c + (1 - c) * f


STANDARD_SIGMA = 0.125 / math.sqrt(2.0 * math.log(2.0))


def standard_centers(lo: float, hi: float) -> list[float]:
    return [lo + i * (hi - lo) / 4.0 for i in range(5)]


def gauss(x: float, center: float, sigma: float) -> float:
    return math.exp(-((x - center) ** 2) / (2.0 * sigma * sigma))


def mean_rule_table(n: int) -> dict[tuple[int, ...], int]:
    """Full Cartesian rulebase under the rounded-mean consequent policy."""
    table = {}
    for ante in itertools.product(range(5), repeat=n):
        table[ante] = (2 * sum(ante) + n) // (2 * n)
    return table


def bruteforce_infer(
    xs: list[float],
    lo: float = 0.0,
    hi: float = 1.0,
    samples: int = 1001,
    table: dict[tuple[int, ...], int] | None = None,
) -> float:
    """Naive Mamdani over the standard five-term layout: per-rule loop,
    clip, pointwise max, discretized centroid.

    ``table`` maps antecedents to consequents; by default it is the full
    rounded-mean table over ``len(xs)`` inputs."""
    n = len(xs)
    sigma = STANDARD_SIGMA * (hi - lo)
    centers = standard_centers(lo, hi)
    xs = [min(max(x, lo), hi) for x in xs]
    grid = [lo + (hi - lo) * k / (samples - 1) for k in range(samples)]
    agg = [0.0] * samples
    if table is None:
        table = mean_rule_table(n)
    for ante, cons in table.items():
        degrees = [gauss(xs[i], centers[ante[i]], sigma) for i in range(n)]
        fire = min(degrees)
        for k, g in enumerate(grid):
            clipped = min(fire, gauss(g, centers[cons], sigma))
            if clipped > agg[k]:
                agg[k] = clipped
    num = sum(g * a for g, a in zip(grid, agg))
    den = sum(agg)
    return num / den


def bruteforce_centroid(mu, lo: float, hi: float, samples: int = 1001) -> float:
    grid = [lo + (hi - lo) * k / (samples - 1) for k in range(samples)]
    vals = [mu(g) for g in grid]
    return sum(g * v for g, v in zip(grid, vals)) / sum(vals)
