"""Five-term Gaussian linguistic variables and Mamdani rule evaluation.

Every linguistic variable carries exactly five Gaussian terms
(Very_Low .. Very_High) with evenly spaced centers and a shared sigma
chosen so adjacent terms cross at membership 0.5.  Rulebases are generated
as the full Cartesian product over the inputs (consequent = rounded mean of
the antecedent indices), or built from explicit :class:`Rule` tuples.

Inference is Mamdani style (Mamdani & Assilian, 1975): per-rule firing
strength as the min of the antecedent memberships, consequent terms clipped
at the firing strength, aggregation by pointwise max, and a discretized
centroid over 1001 samples of the output domain.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ArityMismatch, EmptyAggregate, IndexOutOfRange, InvalidDomain
from .opinion import _is_number

TERM_LABELS = ("Very_Low", "Low", "Medium", "High", "Very_High")
TERM_COUNT = len(TERM_LABELS)

CENTROID_SAMPLES = 1001

# sigma per unit of domain width: adjacent centers sit 0.25 apart, so the
# half-way point is 0.125 away and exp(-0.125^2 / (2 sigma^2)) = 0.5
SIGMA_FACTOR = 0.125 / math.sqrt(2.0 * math.log(2.0))


@dataclass(frozen=True)
class MembershipFunction:
    """Gaussian membership curve with unit peak at ``center``."""

    center: float
    sigma: float

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma!r}")


def gaussian_mf(x: float, mf: MembershipFunction) -> float:
    """Membership degree ``exp(-(x-center)^2 / (2 sigma^2))``, in (0, 1]."""
    d = x - mf.center
    return math.exp(-(d * d) / (2.0 * mf.sigma * mf.sigma))


@dataclass(frozen=True)
class LinguisticVariable:
    """A named finite domain ``[lo, hi]`` with five Gaussian terms: centers
    evenly spaced from ``lo`` to ``hi``, and a shared sigma that makes
    adjacent terms cross at membership 0.5 and ``2 sigma^2`` a positive float."""

    name: str
    lo: float
    hi: float
    #: five ``(label, MembershipFunction)`` pairs, built from ``lo`` and ``hi``
    terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (isinstance(self.name, str) and self.name.strip()):
            raise ValueError(f"name must be a non-empty string, got {self.name!r}")
        lo, hi = self.lo, self.hi
        if not (_is_number(lo) and _is_number(hi)):
            raise InvalidDomain(f"{self.name}: need finite lo and hi, got [{lo!r}, {hi!r}]")
        if not lo < hi:
            raise InvalidDomain(f"{self.name}: need lo < hi, got [{lo}, {hi}]")
        width = hi - lo
        sigma = SIGMA_FACTOR * width
        two_var = 2.0 * sigma * sigma
        if not (_is_number(two_var) and two_var > 0):
            raise InvalidDomain(f"{self.name}: domain width {width!r} gives 2 sigma^2 = "
                                f"{two_var!r}, need a positive finite value")
        object.__setattr__(self, "terms", tuple(
            (label, MembershipFunction(lo + i * width / 4.0, sigma))
            for i, label in enumerate(TERM_LABELS)
        ))

    @property
    def midpoint(self) -> float:
        return (self.lo + self.hi) / 2.0

    def clamp(self, x: float) -> float:
        """``x`` moved into the domain; NaN raises :class:`InvalidDomain`."""
        if x != x:
            raise InvalidDomain(f"{self.name}: input is NaN")
        return min(max(x, self.lo), self.hi)


make_variable = LinguisticVariable  #: the standard five-term variable over ``[lo, hi]``


def fuzzify(v: LinguisticVariable, x: float) -> tuple[float, ...]:
    """Membership degree of ``x`` in each term, after clamping to the domain."""
    x = v.clamp(x)
    return tuple(gaussian_mf(x, mf) for _, mf in v.terms)


@dataclass(frozen=True)
class Rule:
    """One term index per input variable, and a consequent term index."""

    antecedent: tuple[int, ...]
    consequent: int

    def __post_init__(self) -> None:
        for idx in (*self.antecedent, self.consequent):
            if not isinstance(idx, int) or isinstance(idx, bool) or not 0 <= idx < TERM_COUNT:
                raise IndexOutOfRange(f"term index {idx!r} out of range 0..{TERM_COUNT - 1}")


@dataclass(frozen=True)
class RuleBase:
    inputs: tuple[LinguisticVariable, ...]
    output: LinguisticVariable
    rules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        if not self.inputs:
            raise ValueError("a rulebase needs at least one input variable")
        arity = len(self.inputs)
        seen: dict[tuple[int, ...], int] = {}  # each antecedent's first rule number
        for i, rule in enumerate(self.rules, start=1):
            ante = rule.antecedent
            if len(ante) != arity:
                raise ArityMismatch(f"rule {i}: antecedent length {len(ante)} != arity {arity}")
            if ante in seen:
                raise ValueError(f"rule {i}: duplicate antecedent {ante} "
                                 f"(first at rule {seen[ante]})")
            seen[ante] = i

    # Built on first use.  A cached property sits outside the dataclass
    # fields: equality and hash ignore it.
    @cached_property
    def kernel(self) -> _Kernel:
        """The memberships and the shared rule table :func:`infer` evaluates this rulebase from."""
        inputs = tuple(
            (v.name, float(v.lo), float(v.hi),
             tuple((float(mf.center), float(2.0 * mf.sigma * mf.sigma)) for _, mf in v.terms))
            for v in self.inputs
        )
        n = len(self.inputs)
        key = (n, self.output.lo, self.output.hi, self.rules)
        table = _Table.by_content.get(key)
        if table is None:
            # rules grouped by consequent, in rule order within a group (the
            # sort is stable), each group opened by a sentinel column that
            # reads the trailing 0.0 of the degree vector, so every term has
            # a strength, 0 when it concludes no rule
            rules = sorted(self.rules, key=lambda r: r.consequent)
            counts = np.bincount([r.consequent for r in rules], minlength=TERM_COUNT)
            offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
            flat = np.array([r.antecedent for r in rules], dtype=np.intp).reshape(len(rules), n)
            flat += TERM_COUNT * np.arange(n)
            index = np.ascontiguousarray(np.insert(flat, offsets, n * TERM_COUNT, axis=0).T)
            starts = offsets + np.arange(TERM_COUNT)

            grid = np.linspace(self.output.lo, self.output.hi, CENTROID_SAMPLES)
            curves = np.empty((TERM_COUNT, CENTROID_SAMPLES))
            for k, (_, mf) in enumerate(self.output.terms):
                curves[k] = np.exp(-((grid - mf.center) ** 2) / (2.0 * mf.sigma * mf.sigma))
            for array in (index, starts, grid, curves):
                array.setflags(write=False)
            table = _Table.by_content[key] = _Table(index, starts, grid, curves)
        return _Kernel(inputs, table)


@dataclass(frozen=True, eq=False)
class _Table:
    """A rule table laid out for Mamdani inference, shared by equal rulebases."""

    #: ``(n, R + 5)`` positions in the :meth:`_Kernel.degrees` vector, rules grouped by consequent
    index: np.ndarray
    #: first column of each consequent group, for ``np.maximum.reduceat``
    starts: np.ndarray
    #: sampled output domain and the five output term curves over it
    grid: np.ndarray
    curves: np.ndarray
    #: every live table by its content, so a batch checks with ``is`` (a class attribute)
    by_content = weakref.WeakValueDictionary()


@dataclass(frozen=True, eq=False)
class _Kernel:
    """A rulebase's input memberships and its rule table."""

    #: per input: its name, ``lo``, ``hi`` and five ``(center, 2 sigma^2)`` pairs
    inputs: tuple[tuple[str, float, float, tuple[tuple[float, float], ...]], ...]
    table: _Table

    def degrees(self, xs: Sequence[float]) -> list[float]:
        """Every input's five degrees, as :func:`fuzzify` computes them, then 0.0."""
        if len(xs) != len(self.inputs):
            raise ArityMismatch(f"expected {len(self.inputs)} inputs, got {len(xs)}")
        exp = math.exp
        out = []
        for (name, lo, hi, terms), x in zip(self.inputs, xs):
            # the clamp of LinguisticVariable.clamp, without two builtin calls
            if not lo <= x <= hi:
                if x != x:
                    raise InvalidDomain(f"{name}: input is NaN")
                x = lo if x < lo else hi
            for center, two_var in terms:
                d = x - center
                out.append(exp(-(d * d) / two_var))
        out.append(0.0)
        return out


def mean_consequent(antecedent: Sequence[int]) -> int:
    """Round-half-up of the arithmetic mean of the antecedent indices."""
    n = len(antecedent)
    return (2 * sum(antecedent) + n) // (2 * n)


def generate_rulebase(inputs: Sequence[LinguisticVariable], output: LinguisticVariable) -> RuleBase:
    """Emit all ``5**n`` antecedent combinations over the inputs.

    The consequent is the rounded mean of the antecedent indices, which is
    symmetric in the inputs and monotone: raising any antecedent index
    never lowers the consequent.
    """
    rules = tuple(
        Rule(ante, mean_consequent(ante))
        for ante in itertools.product(range(TERM_COUNT), repeat=len(inputs))
    )
    return RuleBase(tuple(inputs), output, rules)


def _mamdani(table: _Table, per_input: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The centroid's weighted and plain sums, from degrees gathered as ``(..., n, R + 5)``."""
    # ufunc reductions, as ndarray.min/max/sum make them, without the wrappers
    firings = np.minimum.reduce(per_input, axis=-2)
    # max of min(firing, curve) over rules sharing a consequent equals
    # min(max firing, curve), so one strength per output term suffices
    strengths = np.maximum.reduceat(firings, table.starts, axis=-1)
    agg = np.maximum.reduce(np.minimum(strengths[..., None], table.curves), axis=-2)
    return np.add.reduce(table.grid * agg, axis=-1), np.add.reduce(agg, axis=-1)


def _centroid(weighted: float, total: float) -> float:
    """Discretized centroid from the two sums of :func:`_mamdani`."""
    if total <= 0.0:
        raise EmptyAggregate("membership has no mass on the domain")
    return float(weighted / total)


def infer(rb: RuleBase, xs: Sequence[float]) -> float:
    """Run Mamdani inference for one input vector; returns the crisp output.

    Gaussian memberships never vanish, so with a generated rulebase every
    rule fires with positive strength and the aggregate is never empty.
    """
    kernel = rb.kernel
    per_input = np.array(kernel.degrees(xs))[kernel.table.index]
    return rb.output.clamp(_centroid(*_mamdani(kernel.table, per_input)))


def infer_batch(rbs: Sequence[RuleBase], rows: Sequence[Sequence[float]]) -> list[float]:
    """Each row's :func:`infer` under its rulebase, bit for bit, in one call over a shared table."""
    table = rbs[0].kernel.table if rbs else None
    degrees = [rb.kernel.degrees(xs) for rb, xs in zip(rbs, rows) if rb.kernel.table is table]
    if not len(degrees) == len(rbs) == len(rows) > 0:
        raise ValueError("need one rulebase per row, all sharing one rule table")
    weighted, total = _mamdani(table, np.take(np.array(degrees), table.index, axis=1))
    return [rb.output.clamp(_centroid(w, t))
            for rb, w, t in zip(rbs, weighted.tolist(), total.tolist())]


@dataclass(frozen=True)
class SurfaceGrid:
    """Crisp outputs over a 2-D sweep; ``values[i][j]`` pairs xs[i], ys[j]."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]

    def to_csv(self) -> str:
        ys = [f"{y:.6f}" for y in self.ys]  # each coordinate is formatted once
        lines = ["x,y,z"]
        for x, row in zip(self.xs, self.values):
            x = f"{x:.6f}"
            lines += [f"{x},{y},{z:.6f}" for y, z in zip(ys, row)]
        return "\n".join(lines) + "\n"


def surface_grid(rb: RuleBase, x_index: int, y_index: int, resolution: int = 51) -> SurfaceGrid:
    """Sweep two inputs across their domains with every other input at its midpoint."""
    n = len(rb.inputs)
    if resolution < 2:
        raise InvalidDomain(f"resolution must be at least 2, got {resolution}")
    for idx in (x_index, y_index):
        if not 0 <= idx < n:
            raise IndexOutOfRange(f"input index {idx} out of range 0..{n - 1}")
    if x_index == y_index:
        raise IndexOutOfRange("x_index and y_index must differ")

    xv, yv = rb.inputs[x_index], rb.inputs[y_index]
    xs = [float(x) for x in np.linspace(xv.lo, xv.hi, resolution)]
    ys = [float(y) for y in np.linspace(yv.lo, yv.hi, resolution)]
    values = []
    point = [v.midpoint for v in rb.inputs]
    for x in xs:
        row = []
        point[x_index] = x
        for y in ys:
            point[y_index] = y
            row.append(infer(rb, point))
        values.append(tuple(row))
    return SurfaceGrid(tuple(xs), tuple(ys), tuple(values))
