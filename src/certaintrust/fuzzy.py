"""Five-term Gaussian linguistic variables and Mamdani rule evaluation.

Every linguistic variable carries exactly five Gaussian terms
(Very_Low .. Very_High) with evenly spaced centers and a shared sigma
chosen so adjacent terms cross at membership 0.5.  Rulebases are either
generated as the full Cartesian product over the inputs (consequent =
rounded mean of the antecedent indices) or loaded explicitly from JSON.

Inference is Mamdani style: per-rule firing strength from the antecedent
memberships (min by default, product optionally), consequent terms clipped
at the firing strength, aggregation by pointwise max, and a discretized
centroid over 1001 samples of the output domain.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ArityMismatch, EmptyAggregate, IndexOutOfRange, InvalidDomain

TERM_LABELS = ("Very_Low", "Low", "Medium", "High", "Very_High")
TERM_COUNT = len(TERM_LABELS)

CENTROID_SAMPLES = 1001

# sigma per unit of domain width: adjacent centers sit 0.25 apart, so the
# half-way point is 0.125 away and exp(-0.125^2 / (2 sigma^2)) = 0.5
SIGMA_FACTOR = 0.125 / math.sqrt(2.0 * math.log(2.0))

TNORMS = ("min", "product")

MEAN_POLICY = "mean"
EXPLICIT_POLICY = "explicit"


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
    """A named domain ``[lo, hi]`` with five ordered Gaussian terms."""

    name: str
    lo: float
    hi: float
    terms: tuple[tuple[str, MembershipFunction], ...]

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise InvalidDomain(f"{self.name}: need lo < hi, got [{self.lo}, {self.hi}]")
        if len(self.terms) != TERM_COUNT:
            raise ValueError(f"{self.name}: exactly {TERM_COUNT} terms required")
        centers = [mf.center for _, mf in self.terms]
        if any(b <= a for a, b in zip(centers, centers[1:])):
            raise ValueError(f"{self.name}: term centers must be strictly increasing")
        if centers[0] < self.lo or centers[-1] > self.hi:
            raise ValueError(f"{self.name}: term centers must lie within the domain")

    @property
    def midpoint(self) -> float:
        return (self.lo + self.hi) / 2.0

    def clamp(self, x: float) -> float:
        """``x`` moved into the domain; NaN raises :class:`InvalidDomain`."""
        if x != x:
            raise InvalidDomain(f"{self.name}: input is NaN")
        return min(max(x, self.lo), self.hi)


def make_variable(name: str, lo: float, hi: float) -> LinguisticVariable:
    """Build the standard five-term variable over ``[lo, hi]``.

    Centers are evenly spaced from ``lo`` to ``hi``; the shared sigma makes
    adjacent terms cross at membership 0.5.
    """
    if not lo < hi:
        raise InvalidDomain(f"{name}: need lo < hi, got [{lo}, {hi}]")
    width = hi - lo
    sigma = SIGMA_FACTOR * width
    terms = tuple(
        (label, MembershipFunction(lo + i * width / 4.0, sigma))
        for i, label in enumerate(TERM_LABELS)
    )
    return LinguisticVariable(name, lo, hi, terms)


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
        seen: set[tuple[int, ...]] = set()
        for i, rule in enumerate(self.rules):
            if len(rule.antecedent) != arity:
                raise ArityMismatch(
                    f"rule {i + 1}: antecedent length {len(rule.antecedent)} != arity {arity}"
                )
            if rule.antecedent in seen:
                raise ValueError(f"rule {i + 1}: duplicate antecedent {rule.antecedent}")
            seen.add(rule.antecedent)

    # Built on first use.  A cached property sits outside the dataclass
    # fields: equality and hash ignore it.
    @cached_property
    def kernel(self) -> _Kernel:
        """The tables :func:`infer` evaluates this rulebase from."""
        n = len(self.inputs)
        inputs = tuple(
            (v.name, float(v.lo), float(v.hi),
             tuple((float(mf.center), float(2.0 * mf.sigma * mf.sigma)) for _, mf in v.terms))
            for v in self.inputs
        )
        # rules grouped by consequent, in rule order within a group (the sort
        # is stable), each group opened by a sentinel column that reads the
        # trailing 0.0 of the degree vector, so every term has a strength, 0
        # when it concludes no rule
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
        return _Kernel(inputs, index, starts, grid, curves)


@dataclass(frozen=True, eq=False)
class _Kernel:
    """A rulebase's rule table laid out for single-point Mamdani inference."""

    #: per input: its name, ``lo``, ``hi`` and five ``(center, 2 sigma^2)`` pairs
    inputs: tuple[tuple[str, float, float, tuple[tuple[float, float], ...]], ...]
    #: ``(n, R + 5)`` positions in the :meth:`degrees` vector, rules grouped by consequent
    index: np.ndarray
    #: first column of each consequent group, for ``np.maximum.reduceat``
    starts: np.ndarray
    #: sampled output domain and the five output term curves over it
    grid: np.ndarray
    curves: np.ndarray

    def degrees(self, xs: Sequence[float]) -> list[float]:
        """Every input's five degrees, as :func:`fuzzify` computes them, then 0.0."""
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


def _centroid(xs: np.ndarray, mu: np.ndarray) -> float:
    """Discretized centroid of the sampled membership ``mu`` over ``xs``."""
    total = float(mu.sum())
    if total <= 0.0:
        raise EmptyAggregate("membership has no mass on the domain")
    return float((xs * mu).sum() / total)


def infer(rb: RuleBase, xs: Sequence[float], tnorm: str = "min") -> float:
    """Run Mamdani inference for one input vector; returns the crisp output.

    Gaussian memberships never vanish, so with a generated rulebase every
    rule fires with positive strength and the aggregate is never empty.
    """
    if tnorm not in TNORMS:
        raise ValueError(f"tnorm must be one of {TNORMS}, got {tnorm!r}")
    if len(xs) != len(rb.inputs):
        raise ArityMismatch(f"expected {len(rb.inputs)} inputs, got {len(xs)}")
    kernel = rb.kernel
    per_input = np.array(kernel.degrees(xs))[kernel.index]
    firings = per_input.min(axis=0) if tnorm == "min" else per_input.prod(axis=0)

    # max of min(firing, curve) over rules sharing a consequent equals
    # min(max firing, curve), so one strength per output term suffices
    strengths = np.maximum.reduceat(firings, kernel.starts)
    agg = np.minimum(strengths[:, None], kernel.curves).max(axis=0)
    return rb.output.clamp(_centroid(kernel.grid, agg))


@dataclass(frozen=True)
class SurfaceGrid:
    """Crisp outputs over a 2-D sweep; ``values[i][j]`` pairs xs[i], ys[j]."""

    x_name: str
    y_name: str
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]

    def to_csv(self) -> str:
        lines = ["x,y,z"]
        for x, row in zip(self.xs, self.values):
            for y, z in zip(self.ys, row):
                lines.append(f"{x:.6f},{y:.6f},{z:.6f}")
        return "\n".join(lines) + "\n"


def surface_grid(
    rb: RuleBase,
    x_index: int,
    y_index: int,
    fixed: Sequence[float] | None = None,
    resolution: int = 51,
    tnorm: str = "min",
) -> SurfaceGrid:
    """Sweep two inputs across their domains with the rest held fixed.

    ``fixed`` supplies one value per input (the two swept slots are
    overwritten cell by cell); by default all inputs sit at their domain
    midpoints.
    """
    n = len(rb.inputs)
    if resolution < 2:
        raise InvalidDomain(f"resolution must be at least 2, got {resolution}")
    for idx in (x_index, y_index):
        if not 0 <= idx < n:
            raise IndexOutOfRange(f"input index {idx} out of range 0..{n - 1}")
    if x_index == y_index:
        raise IndexOutOfRange("x_index and y_index must differ")
    if fixed is None:
        fixed = [v.midpoint for v in rb.inputs]
    if len(fixed) != n:
        raise ArityMismatch(f"fixed needs {n} values, got {len(fixed)}")

    xv, yv = rb.inputs[x_index], rb.inputs[y_index]
    xs = [float(x) for x in np.linspace(xv.lo, xv.hi, resolution)]
    ys = [float(y) for y in np.linspace(yv.lo, yv.hi, resolution)]
    values = []
    point = list(fixed)
    for x in xs:
        row = []
        point[x_index] = x
        for y in ys:
            point[y_index] = y
            row.append(infer(rb, point, tnorm=tnorm))
        values.append(tuple(row))
    return SurfaceGrid(xv.name, yv.name, tuple(xs), tuple(ys), tuple(values))


# ---------------------------------------------------------------------------
# rulebase file format


def rulebase_to_dict(rb: RuleBase, policy: str = EXPLICIT_POLICY) -> dict:
    return {
        "inputs": [{"name": v.name, "lo": v.lo, "hi": v.hi} for v in rb.inputs],
        "output": {"name": rb.output.name, "lo": rb.output.lo, "hi": rb.output.hi},
        "policy": policy,
        "rules": [{"if": list(r.antecedent), "then": r.consequent} for r in rb.rules],
    }


def validate_rulebase_data(data: object) -> list[str]:
    """Collect every schema problem in a rulebase document.

    Returns human-readable issue strings (empty when the document is
    valid); rule-level issues are prefixed ``rule N:`` with 1-based N.
    """
    issues: list[str] = []
    if not isinstance(data, dict):
        return ["document must be a JSON object"]

    def check_var(entry: object, label: str) -> None:
        if not isinstance(entry, dict):
            issues.append(f"{label} must be an object with name/lo/hi")
            return
        if not isinstance(entry.get("name"), str) or not entry["name"].strip():
            issues.append(f"{label}: name must be a non-empty string")
        lo, hi = entry.get("lo"), entry.get("hi")
        if not isinstance(lo, (int, float)) or not isinstance(hi, (int, float)):
            issues.append(f"{label}: lo and hi must be numbers")
        elif not lo < hi:
            issues.append(f"{label}: need lo < hi, got [{lo}, {hi}]")

    inputs = data.get("inputs")
    if not isinstance(inputs, list) or not inputs:
        issues.append("inputs must be a non-empty list")
        inputs = []
    for i, entry in enumerate(inputs):
        check_var(entry, f"inputs[{i}]")
    check_var(data.get("output"), "output")

    policy = data.get("policy")
    if policy not in (MEAN_POLICY, EXPLICIT_POLICY):
        issues.append(f"policy must be 'mean' or 'explicit', got {policy!r}")

    rules = data.get("rules")
    if not isinstance(rules, list):
        issues.append("rules must be a list")
        rules = []
    arity = len(inputs)
    seen: dict[tuple, int] = {}
    for i, rule in enumerate(rules, start=1):
        if not isinstance(rule, dict) or "if" not in rule or "then" not in rule:
            issues.append(f"rule {i}: must be an object with 'if' and 'then'")
            continue
        ante, cons = rule["if"], rule["then"]
        if not isinstance(ante, list) or len(ante) != arity:
            issues.append(f"rule {i}: 'if' must list {arity} term indices")
            continue
        bad = [k for k in (*ante, cons) if not isinstance(k, int) or isinstance(k, bool)
               or not 0 <= k < TERM_COUNT]
        if bad:
            issues.append(f"rule {i}: term indices {bad} out of range 0..{TERM_COUNT - 1}")
            continue
        key = tuple(ante)
        if key in seen:
            issues.append(f"rule {i}: duplicate antecedent {key} (first at rule {seen[key]})")
        else:
            seen[key] = i
    return issues


def rulebase_from_dict(data: dict) -> RuleBase:
    issues = validate_rulebase_data(data)
    if issues:
        raise ValueError("invalid rulebase document:\n" + "\n".join(issues))
    inputs = tuple(make_variable(d["name"], d["lo"], d["hi"]) for d in data["inputs"])
    output = make_variable(data["output"]["name"], data["output"]["lo"], data["output"]["hi"])
    if data["policy"] == MEAN_POLICY and not data["rules"]:
        return generate_rulebase(inputs, output)
    rules = tuple(Rule(tuple(r["if"]), r["then"]) for r in data["rules"])
    return RuleBase(inputs, output, rules)


def dump_rulebase(rb: RuleBase, policy: str = EXPLICIT_POLICY) -> str:
    """Serialize with one rule per line so reports can cite line numbers."""
    doc = rulebase_to_dict(rb, policy)
    head = json.dumps({k: doc[k] for k in ("inputs", "output", "policy")}, indent=2)
    rule_lines = ",\n".join("    " + json.dumps(r) for r in doc["rules"])
    return head[:-2] + ',\n  "rules": [\n' + rule_lines + "\n  ]\n}\n"


def load_rulebase(path: str) -> RuleBase:
    with open(path, encoding="utf-8") as fh:
        return rulebase_from_dict(json.load(fh))
