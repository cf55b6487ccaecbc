"""Wiring from per-variable trust values to the final merchant score.

Four topic modules (Existence, Affiliation, Fulfillment, Policy) each
aggregate three variable trusts; the merchant score then aggregates the
four module trusts.  Both aggregation routes are first-class: plain
averaging, and fuzzy inference over generated five-term rulebases.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Real
from typing import Mapping, Sequence

from .errors import EvidenceExceedsCap, MissingVariable
from .fuzzy import RuleBase, generate_rulebase, infer, make_variable
from .opinion import (
    BehavioralProbability,
    EvidenceCount,
    TrustParams,
    average_rating,
    behavioral_probability,
    certainty,
    scale_rating,
    trust_percent,
)
from .store import DirectAssessment, EvidenceStore, MerchantProfile
from .variables import DEFAULT_WIRING, MERCHANT_MODULE, MODULE_NAMES, normalize_name

AVERAGE = "average"
FUZZY = "fuzzy"
AGGREGATIONS = (AVERAGE, FUZZY)

TRUST_CLASSES = ("Very_Low", "Low", "Medium", "High", "Very_High")
DEFAULT_CLASS_BOUNDS = (20.0, 40.0, 60.0, 80.0)


@dataclass(frozen=True)
class ModuleSpec:
    """A named topic module and the three variables feeding it."""

    name: str
    variables: tuple[str, str, str]

    def __post_init__(self) -> None:
        if len(self.variables) != 3:
            raise ValueError(f"module {self.name}: exactly 3 variables required")


def default_modules() -> tuple[ModuleSpec, ...]:
    return tuple(ModuleSpec(name, DEFAULT_WIRING[name]) for name in MODULE_NAMES)


@dataclass(frozen=True)
class PipelineConfig:
    params: TrustParams = TrustParams()
    aggregation: str = AVERAGE
    modules: tuple[ModuleSpec, ...] = field(default_factory=default_modules)
    class_bounds: tuple[float, float, float, float] = DEFAULT_CLASS_BOUNDS

    def __post_init__(self) -> None:
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {AGGREGATIONS}")
        if len(self.modules) != 4:
            raise ValueError(f"exactly 4 modules required, got {len(self.modules)}")
        if len(self.class_bounds) != 4:
            raise ValueError("exactly 4 class bounds required")
        if any(b <= a for a, b in zip(self.class_bounds, self.class_bounds[1:])):
            raise ValueError(f"class bounds must be strictly ascending: {self.class_bounds}")
        if not (0.0 < self.class_bounds[0] and self.class_bounds[-1] < 100.0):
            raise ValueError("class bounds must lie inside (0, 100)")

    def variable_names(self) -> tuple[str, ...]:
        return tuple(name for spec in self.modules for name in spec.variables)

    def module_names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self.modules)


def config_to_dict(cfg: PipelineConfig) -> dict:
    return {
        "scale": cfg.params.scale,
        "N": cfg.params.N,
        "w": cfg.params.w,
        "f": cfg.params.f,
        "aggregation": cfg.aggregation,
        "class_bounds": list(cfg.class_bounds),
        "modules": [{"name": m.name, "variables": list(m.variables)} for m in cfg.modules],
    }


#: keys a config document may hold; ``not_mode`` names a setting that was
#: removed, and is accepted and ignored so that older files still load
_CONFIG_KEYS = (*config_to_dict(PipelineConfig()), "not_mode")
_MODULE_KEYS = ("name", "variables")


def _unknown_keys(place: str, entry: Mapping, known: Sequence[str]) -> list[str]:
    unknown = [repr(key) for key in entry if key not in known]
    return [f"{place}: unknown keys {', '.join(unknown)}"] if unknown else []


def _is_number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def _config_issues(data: Mapping) -> list[str]:
    """One issue for each place in the document holding unknown keys or a
    value of the wrong shape; ranges are left to the config classes."""
    issues = _unknown_keys("config", data, _CONFIG_KEYS)
    issues += [f"{key}: must be a number, got {data[key]!r}"
               for key in ("scale", "N", "w", "f") if key in data and not _is_number(data[key])]
    bounds = data.get("class_bounds", [])
    if not (isinstance(bounds, (list, tuple)) and all(map(_is_number, bounds))):
        issues.append(f"class_bounds: must be a list of numbers, got {bounds!r}")
    modules = data.get("modules", [])
    if not isinstance(modules, (list, tuple)):
        issues.append(f"modules: must be a list, got {type(modules).__name__}")
        modules = []
    for i, entry in enumerate(modules):
        place = f"modules[{i}]"
        if not isinstance(entry, Mapping):
            issues.append(f"{place}: must be an object, got {type(entry).__name__}")
            continue
        issues += _unknown_keys(place, entry, _MODULE_KEYS)
        missing = [repr(key) for key in _MODULE_KEYS if key not in entry]
        if missing:
            issues.append(f"{place}: missing keys {', '.join(missing)}")
        elif not (isinstance(entry["name"], str) and isinstance(entry["variables"], (list, tuple))
                  and all(isinstance(v, str) for v in entry["variables"])):
            issues.append(f"{place}: name must be a string and variables a list of strings")
    return issues


def config_from_dict(data: Mapping) -> PipelineConfig:
    """Build a config from a document; unknown keys and malformed values
    are an error naming each key or ``modules[i]`` entry."""
    if not isinstance(data, Mapping):
        raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
    issues = _config_issues(data)
    if issues:
        raise ValueError("invalid config: " + "; ".join(issues))
    data = {**config_to_dict(PipelineConfig()), **data}
    return PipelineConfig(
        params=TrustParams(N=data["N"], w=data["w"], f=data["f"], scale=data["scale"]),
        aggregation=data["aggregation"],
        modules=tuple(ModuleSpec(m["name"], tuple(m["variables"])) for m in data["modules"]),
        class_bounds=tuple(data["class_bounds"]),
    )


def load_config(path: str) -> PipelineConfig:
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def save_config(cfg: PipelineConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class TrustReport:
    """Full evaluation result for one merchant."""

    merchant: str
    variable_trusts: dict[str, float]
    module_trusts: dict[str, float]
    merchant_trust: float
    behavioral: BehavioralProbability
    trust_class: str

    def to_dict(self) -> dict:
        return {
            "merchant": self.merchant,
            "variable_trusts": {k: round(v, 4) for k, v in self.variable_trusts.items()},
            "module_trusts": {k: round(v, 4) for k, v in self.module_trusts.items()},
            "merchant_trust": round(self.merchant_trust, 4),
            "behavioral": {
                "value": round(self.behavioral.value, 4),
                "direction": self.behavioral.direction,
            },
            "trust_class": self.trust_class,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


TrustSource = EvidenceCount | DirectAssessment | tuple


def variable_trust(source: TrustSource, params: TrustParams) -> float:
    """Trust percentage for one variable.

    Accepts either raw evidence counts (rating and certainty are derived)
    or a direct ``(c, t_scaled)`` pair as supplied by expert assessments.
    """
    if isinstance(source, EvidenceCount):
        c = certainty(source, params)
        t_scaled = scale_rating(average_rating(source), params)
    elif isinstance(source, DirectAssessment):
        c, t_scaled = source.c, source.t_scaled
    else:
        c, t_scaled = source
    return trust_percent(c, t_scaled, params)


def module_trust_average(trusts: Sequence[float]) -> float:
    """Arithmetic mean of the module's variable trusts."""
    if not trusts:
        raise ValueError("cannot average an empty trust list")
    return sum(trusts) / len(trusts)


@lru_cache(maxsize=32)
def _percent_rulebase(input_names: tuple[str, ...], output_name: str) -> RuleBase:
    inputs = [make_variable(name, 0.0, 100.0) for name in input_names]
    return generate_rulebase(inputs, make_variable(output_name, 0.0, 100.0))


def module_rulebase(spec: ModuleSpec) -> RuleBase:
    """Generated 125-rule base over the module's three variables."""
    return _percent_rulebase(spec.variables, spec.name)


def merchant_rulebase(cfg: PipelineConfig) -> RuleBase:
    """Generated 625-rule base over the four module outputs."""
    return _percent_rulebase(cfg.module_names(), MERCHANT_MODULE)


def module_trust_fuzzy(trusts: Sequence[float], rb: RuleBase) -> float:
    """Crisp module trust via fuzzy inference over the variable trusts."""
    return infer(rb, list(trusts))


def _aggregate(
    trusts: Sequence[float], cfg: PipelineConfig, input_names: tuple[str, ...], output_name: str
) -> float:
    """Average or infer over ``trusts``, as ``cfg.aggregation`` says.

    The rulebase over ``input_names`` is only built on the fuzzy route.
    """
    if cfg.aggregation == AVERAGE:
        return module_trust_average(trusts)
    return module_trust_fuzzy(trusts, _percent_rulebase(input_names, output_name))


def merchant_trust(module_trusts: Sequence[float], cfg: PipelineConfig) -> float:
    """Combine the four module trusts into the final merchant trust."""
    if len(module_trusts) != len(cfg.modules):
        raise ValueError(f"expected {len(cfg.modules)} module trusts, got {len(module_trusts)}")
    return _aggregate(module_trusts, cfg, cfg.module_names(), MERCHANT_MODULE)


def classify_trust(trust: float, cfg: PipelineConfig | None = None) -> str:
    """Map a trust percentage onto the five classes via the config cut points."""
    if not 0.0 <= trust <= 100.0:
        raise ValueError(f"trust must be in [0, 100], got {trust!r}")
    bounds = cfg.class_bounds if cfg is not None else DEFAULT_CLASS_BOUNDS
    return TRUST_CLASSES[bisect_right(list(bounds), trust)]


def evaluate_merchant(
    merchant: str,
    cfg: PipelineConfig | None = None,
    store: EvidenceStore | None = None,
    variables: Mapping[str, TrustSource] | None = None,
    module_overrides: Mapping[str, float] | None = None,
) -> TrustReport:
    """Produce a full :class:`TrustReport` for one merchant.

    Variable inputs are resolved, in order of precedence, from the
    ``variables`` mapping, then from the store profile (latest assessment
    first, evidence counts otherwise).  ``module_overrides`` pins a
    module's trust to a given percentage, e.g. to score from module-level
    figures when no per-variable breakdown exists; variables under an
    overridden module become optional.

    Raises :class:`MissingVariable` naming every unresolvable input.
    """
    cfg = cfg or PipelineConfig()
    known = cfg.variable_names()
    supplied = {normalize_name(name, known): source for name, source in (variables or {}).items()}

    overrides: dict[str, float] = {}
    module_names = cfg.module_names()
    for name, value in (module_overrides or {}).items():
        canonical = normalize_name(name, module_names)
        if not 0.0 <= float(value) <= 100.0:
            raise ValueError(f"module override for {canonical} must be in [0, 100]")
        overrides[canonical] = float(value)

    # each source overrides the one before: evidence, assessments, supplied
    profile = store.load_profile(merchant) if store is not None else MerchantProfile(merchant)
    sources: dict[str, TrustSource] = {
        **{name: counts for name, counts in profile.counts.items() if counts.total > 0},
        **profile.assessments,
        **supplied,
    }

    variable_trusts: dict[str, float] = {}
    module_trusts: dict[str, float] = {}
    missing: list[str] = []
    for spec in cfg.modules:
        member_trusts: list[float] = []
        for name in spec.variables:
            source = sources.get(name)
            if source is None:
                if spec.name not in overrides:
                    missing.append(name)
                continue
            try:
                trust = variable_trust(source, cfg.params)
            except (EvidenceExceedsCap, ValueError) as exc:
                raise type(exc)(f"merchant {merchant!r}, variable {name}: {exc}") from exc
            variable_trusts[name] = trust
            member_trusts.append(trust)
        if spec.name in overrides:
            module_trusts[spec.name] = overrides[spec.name]
        elif len(member_trusts) == len(spec.variables):
            module_trusts[spec.name] = _aggregate(member_trusts, cfg, spec.variables, spec.name)
    if missing:
        raise MissingVariable(f"unresolved variables for {merchant}: {', '.join(missing)}")

    overall = merchant_trust([module_trusts[name] for name in module_names], cfg)
    return TrustReport(
        merchant=merchant,
        variable_trusts=variable_trusts,
        module_trusts=module_trusts,
        merchant_trust=overall,
        behavioral=behavioral_probability(overall, cfg.params),
        trust_class=classify_trust(overall, cfg),
    )


def compare_merchants(reports: Sequence[TrustReport]) -> list[TrustReport]:
    """Order reports best-first.

    Descending merchant trust, ties broken by behavioral probability, then
    by merchant identifier; the result is a permutation of the input and
    independent of input order.
    """
    if len(reports) < 2:
        raise ValueError("need at least 2 reports to compare")
    return sorted(
        reports,
        key=lambda r: (-r.merchant_trust, -r.behavioral.value, r.merchant),
    )
