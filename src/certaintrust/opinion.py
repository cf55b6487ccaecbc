"""Evidence-based opinion algebra.

An opinion about a proposition is a triple ``(t, c, f)``:

* ``t`` -- average rating, the fraction of positive evidence (0.5 with no
  evidence at all),
* ``c`` -- certainty, how representative that rating is assumed to be,
  growing from 0 (no evidence) to 1 (evidence cap ``N`` reached),
* ``f`` -- initial expectation, the prior assumed truth absent evidence.

On top of the triple the module provides the logical operators AND / OR /
NOT, the expectation value ``E = t*c + (1-c)*f``, and the two derived
scores used by the scoring pipeline: the trust percentage
``T = (c * t_scaled / scale) * 100`` and the behavioral probability, the
signed relative deviation of ``T`` from the base expectation ``f``.

All functions are pure and all values immutable; concurrent use is safe.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from numbers import Real

from .errors import DegenerateBase, EvidenceExceedsCap, ZeroBase

#: tolerance below which an operator denominator counts as degenerate
BASE_EPS = 1e-9

#: float drift tolerated when clipping operator outputs back into [0, 1]
_CLIP_TOL = 1e-9

BELOW_BASE = "below_base"
BALANCED = "balanced"
ABOVE_BASE = "above_base"


def _is_number(value) -> bool:
    """The one number test of the config classes: a real, not a bool, and finite
    as a float (``nan``, ``inf`` and ints past the float range fail)."""
    return (isinstance(value, Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def _clip_unit(value: float) -> float:
    """Absorb sub-tolerance float drift; genuine violations pass through."""
    if -_CLIP_TOL < value < 0.0:
        return 0.0
    if 1.0 < value < 1.0 + _CLIP_TOL:
        return 1.0
    return value


@dataclass(frozen=True)
class EvidenceCount:
    """Tally of positive (``r``) and negative (``s``) evidence."""

    r: int
    s: int

    def __post_init__(self) -> None:
        for name, value in (("r", self.r), ("s", self.s)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")

    @property
    def total(self) -> int:
        return self.r + self.s


@dataclass(frozen=True)
class TrustParams:
    """Context parameters for deriving opinions and scores from evidence.

    ``N`` caps the evidence considered, ``w`` is the dispositional trust
    weight controlling how fast certainty rises, ``f`` the initial
    expectation, and ``scale`` the rating ceiling (five-star by default).
    """

    N: int = 100
    w: float = 1.0
    f: float = 0.5
    scale: float = 5.0

    def __post_init__(self) -> None:
        if not (isinstance(self.N, int) and _is_number(self.N) and self.N >= 1):
            raise ValueError(f"N must be a positive integer, got {self.N!r}")
        if self.N > 2 ** 53:
            raise ValueError(f"N must be at most 2**53, so certainty stays a float, got {self.N!r}")
        for name, value in (("w", self.w), ("scale", self.scale)):
            if not (_is_number(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
        if not (_is_number(self.f) and 0.0 <= self.f <= 1.0):
            raise ValueError(f"f must be a number in [0, 1], got {self.f!r}")


@dataclass(frozen=True)
class Opinion:
    """Immutable opinion triple; every component lives in [0, 1]."""

    t: float
    c: float
    f: float

    def __post_init__(self) -> None:
        _check_unit("t", self.t)
        _check_unit("c", self.c)
        _check_unit("f", self.f)


@dataclass(frozen=True)
class BehavioralProbability:
    """Signed percentage deviation of trust from the base expectation."""

    value: float
    direction: str

    def __post_init__(self) -> None:
        expected = ABOVE_BASE if self.value > 0 else BELOW_BASE if self.value < 0 else BALANCED
        if self.direction != expected:
            raise ValueError(
                f"direction {self.direction!r} inconsistent with value {self.value!r}"
            )


def average_rating(e: EvidenceCount) -> float:
    """Fraction of positive evidence; 0.5 by convention when there is none."""
    if e.total == 0:
        return 0.5
    return e.r / e.total


def certainty(e: EvidenceCount, p: TrustParams) -> float:
    """Certainty ``N*(r+s) / (2*w*(N-(r+s)) + N*(r+s))``.

    Raises :class:`EvidenceExceedsCap` when ``r+s > N``: beyond the cap the
    denominator can go negative, so ingestion bugs surface loudly instead
    of being clamped away.
    """
    rs = e.total
    if rs == 0:
        return 0.0
    if rs > p.N:
        raise EvidenceExceedsCap(f"r+s = {rs} exceeds evidence cap N = {p.N}")
    return (p.N * rs) / (2.0 * p.w * (p.N - rs) + p.N * rs)


def expectation(o: Opinion) -> float:
    """Expectation value ``E = t*c + (1-c)*f``."""
    return o.t * o.c + (1.0 - o.c) * o.f


def opinion_from_evidence(e: EvidenceCount, p: TrustParams) -> Opinion:
    """Bundle rating and certainty with the configured initial expectation."""
    return Opinion(average_rating(e), certainty(e, p), p.f)


def op_not(a: Opinion) -> Opinion:
    """Negate an opinion: ``(1-t, c, 1-f)``.

    Certainty is preserved: negating a proposition does not change how much
    evidence backs it, and preservation is the only choice under which
    ``E(not A) = 1 - E(A)`` holds for every certainty level.
    """
    return Opinion(1.0 - a.t, a.c, 1.0 - a.f)


def op_and(a: Opinion, b: Opinion) -> Opinion:
    """Conjunction of two opinions.

    Reduces to the probabilistic product at full certainty and keeps
    ``f = f_A * f_B``.  Raises :class:`DegenerateBase` when
    ``1 - f_A*f_B <= BASE_EPS`` (both priors ~1), where the shared denominator
    vanishes.
    """
    denom = 1.0 - a.f * b.f
    if denom <= BASE_EPS:
        raise DegenerateBase(f"1 - f_A*f_B = {denom!r} is below {BASE_EPS!r}")
    c = (
        a.c
        + b.c
        - a.c * b.c
        - ((1.0 - a.c) * b.c * (1.0 - a.f) * b.t + a.c * (1.0 - b.c) * (1.0 - b.f) * a.t)
        / denom
    )
    c = _clip_unit(c)
    f = a.f * b.f
    if c == 0.0:
        return Opinion(0.5, 0.0, f)
    t = (
        a.c * b.c * a.t * b.t
        + (a.c * (1.0 - b.c) * (1.0 - a.f) * b.f * a.t + (1.0 - a.c) * b.c * a.f * (1.0 - b.f) * b.t)
        / denom
    ) / c
    return Opinion(_clip_unit(t), c, f)


def op_or(a: Opinion, b: Opinion) -> Opinion:
    """Disjunction of two opinions.

    Reduces to ``t_A + t_B - t_A*t_B`` at full certainty and keeps
    ``f = f_A + f_B - f_A*f_B``.  Raises :class:`DegenerateBase` when that
    combined prior is ``<= BASE_EPS`` (both priors ~0).
    """
    denom = a.f + b.f - a.f * b.f
    if denom <= BASE_EPS:
        raise DegenerateBase(f"f_A + f_B - f_A*f_B = {denom!r} is below {BASE_EPS!r}")
    c = (
        a.c
        + b.c
        - a.c * b.c
        - (a.c * (1.0 - b.c) * b.f * (1.0 - a.t) + (1.0 - a.c) * b.c * a.f * (1.0 - b.t))
        / denom
    )
    c = _clip_unit(c)
    f = denom
    if c == 0.0:
        return Opinion(0.5, 0.0, f)
    t = (a.c * a.t + b.c * b.t - a.c * b.c * a.t * b.t) / c
    return Opinion(_clip_unit(t), c, f)


def scale_rating(t: float, p: TrustParams) -> float:
    """Rescale a unit rating onto the configured rating scale."""
    _check_unit("t", t)
    return t * p.scale


def trust_percent(c: float, t_scaled: float, p: TrustParams) -> float:
    """Trust percentage ``T = (c * t_scaled / scale) * 100``."""
    _check_unit("c", c)
    if not 0.0 <= t_scaled <= p.scale:
        raise ValueError(f"t_scaled must be in [0, {p.scale}], got {t_scaled!r}")
    return (c * t_scaled / p.scale) * 100.0


def behavioral_probability(trust: float, p: TrustParams) -> BehavioralProbability:
    """Signed deviation of trust from the base expectation, as a percentage.

    ``trust`` is a percentage in [0, 100]; it is normalized to [0, 1]
    before comparison with ``f``.  Positive means the subject behaves
    better than initially expected, negative worse, zero balanced.
    """
    if not 0.0 <= trust <= 100.0:
        raise ValueError(f"trust must be a percentage in [0, 100], got {trust!r}")
    if p.f == 0.0:
        raise ZeroBase("behavioral probability is undefined for f = 0")
    value = ((trust / 100.0 - p.f) / p.f) * 100.0
    direction = ABOVE_BASE if value > 0 else BELOW_BASE if value < 0 else BALANCED
    return BehavioralProbability(value, direction)
