"""Expected outputs computed by the benchmark itself, for the correctness checks.

The average route is re-derived here from the paper's formulas over the
generators' tallies; the fuzzy route is checked against the brute-force
Mamdani oracle in ``tests/oracle.py``.
"""

from __future__ import annotations

from gen import MODULES, N_CAP, SCALE, WIRING

W = 1.0
F = 0.5
CLASS_BOUNDS = (20.0, 40.0, 60.0, 80.0)
CLASSES = ("Very_Low", "Low", "Medium", "High", "Very_High")

#: the CLI rounds every reported figure to 4 decimals
REPORTED_TOL = 0.5e-4 + 1e-9


def trust_from_source(source: tuple) -> float:
    """Variable trust % from ``("evidence", r, s)`` or ``("assessment", c, t_scaled)``."""
    kind, a, b = source
    if kind == "assessment":
        return a * b / SCALE * 100.0
    rs = a + b
    if rs == 0:
        return 0.0
    c = N_CAP * rs / (2.0 * W * (N_CAP - rs) + N_CAP * rs)
    return c * (a / rs) * 100.0


def profile_sources(tally, merchant: str) -> dict[str, tuple]:
    """Per-variable source the store route must pick: latest assessment, else counts."""
    sources = {}
    for module in MODULES:
        for variable in WIRING[module]:
            key = (merchant, variable)
            if key in tally.assessments:
                sources[variable] = ("assessment", *tally.assessments[key])
            else:
                r, s = tally.counts.get(key, (0, 0))
                sources[variable] = ("evidence", r, s)
    return sources


def average_report(sources: dict[str, tuple]) -> dict:
    """Variable, module and merchant trusts on the average route."""
    variables = {v: trust_from_source(src) for v, src in sources.items()}
    modules = {m: sum(variables[v] for v in WIRING[m]) / 3.0 for m in MODULES}
    trust = sum(modules.values()) / len(modules)
    return {"variable_trusts": variables, "module_trusts": modules, "merchant_trust": trust}


def behavioral(trust: float) -> float:
    return (trust / 100.0 - F) / F * 100.0


def trust_class(trust: float) -> str:
    return CLASSES[sum(trust >= b for b in CLASS_BOUNDS)]


def report_mismatches(reported: dict, expected: dict) -> list[str]:
    """Differences between one ``--format json`` report and the expected trusts."""
    name = reported.get("merchant")
    problems = []
    for group in ("variable_trusts", "module_trusts"):
        for key, want in expected[group].items():
            got = reported[group].get(key)
            if got is None or abs(got - want) > REPORTED_TOL:
                problems.append(f"{name} {group}[{key}] = {got}, expected {want:.6f}")
    want = expected["merchant_trust"]
    if abs(reported["merchant_trust"] - want) > REPORTED_TOL:
        problems.append(f"{name} merchant_trust = {reported['merchant_trust']}, expected {want:.6f}")
    if abs(reported["behavioral"]["value"] - behavioral(want)) > REPORTED_TOL * 2:
        problems.append(f"{name} behavioral = {reported['behavioral']['value']}")
    if reported["trust_class"] != trust_class(want) and min(
        abs(want - b) for b in CLASS_BOUNDS
    ) > 1e-9:
        problems.append(f"{name} trust_class = {reported['trust_class']}, expected {trust_class(want)}")
    return problems


def ranking_mismatches(ordered: list[str], trusts: dict[str, float]) -> list[str]:
    """A best-first order must never place a merchant above a clearly better one."""
    problems = []
    if sorted(ordered) != sorted(trusts):
        problems.append(f"ranked {sorted(ordered)}, expected {sorted(trusts)}")
        return problems
    for hi, lo in zip(ordered, ordered[1:]):
        if trusts[hi] < trusts[lo] - 1e-9:
            problems.append(f"{hi} ({trusts[hi]:.6f}) ranked above {lo} ({trusts[lo]:.6f})")
    return problems
