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
from typing import Mapping, Sequence

from .errors import EvidenceExceedsCap, MissingVariable
from .fuzzy import RuleBase, generate_rulebase, infer, infer_batch, make_variable
from .opinion import (
    BehavioralProbability,
    EvidenceCount,
    TrustParams,
    _is_number,
    average_rating,
    behavioral_probability,
    certainty,
    scale_rating,
    trust_percent,
)
from .store import DirectAssessment, EvidenceStore, MerchantProfile
from .variables import DEFAULT_WIRING, MERCHANT_MODULE, MODULE_NAMES, name_key, normalize_name

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
        if not (isinstance(self.variables, tuple) and len(self.variables) == 3
                and all(isinstance(n, str) and n.strip() for n in (self.name, *self.variables))):
            raise ValueError(f"module {self.name!r}: name and variables must be non-empty strings, "
                             f"3 variables in a tuple, got {self.variables!r}")


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
        if self.params.f == 0:
            raise ValueError(f"f must be above 0 to score, as every report divides by it, "
                             f"got {self.params.f!r}")
        if not (isinstance(self.modules, tuple) and len(self.modules) == 4
                and all(isinstance(spec, ModuleSpec) for spec in self.modules)):
            raise ValueError(f"modules must be a tuple of 4 ModuleSpec, got {self.modules!r}")
        # one variable may feed several modules, but not under two spellings
        for kind, names in (("module", self.module_names()),
                            ("variable", tuple(dict.fromkeys(self.variable_names())))):
            keys = [name_key(name) for name in names]
            twice = next((i for i, key in enumerate(keys) if key in keys[:i]), None)
            if twice is not None:
                raise ValueError(f"{kind} {names[twice]!r}: name matches an earlier {kind}'s, "
                                 "ignoring case, '_', '-' and spaces")
        bounds = self.class_bounds
        if not (isinstance(bounds, tuple) and len(bounds) == 4 and all(map(_is_number, bounds))
                and 0.0 < bounds[0] < bounds[1] < bounds[2] < bounds[3] < 100.0):
            raise ValueError("class bounds must be 4 finite numbers, strictly ascending inside "
                             f"(0, 100), got {bounds!r}")

    def variable_names(self) -> tuple[str, ...]:
        return tuple(name for spec in self.modules for name in spec.variables)

    def module_names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self.modules)


#: the default config, built and checked once; it is frozen, so every caller shares it
DEFAULT_CONFIG = PipelineConfig()


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


#: the default config as a document, whose entries a loaded document's replace
_DEFAULTS = config_to_dict(DEFAULT_CONFIG)
#: keys a config document may hold; ``not_mode`` names a setting that was
#: removed, and is accepted and ignored so that older files still load
_CONFIG_KEYS = (*_DEFAULTS, "not_mode")
_MODULE_KEYS = ("name", "variables")


def _unknown_keys(place: str, entry: Mapping, known: Sequence[str]) -> list[str]:
    unknown = [repr(key) for key in entry if key not in known]
    return [f"{place}: unknown keys {', '.join(unknown)}"] if unknown else []


def _config_issues(data: Mapping) -> list[str]:
    """One issue for each place in the document holding unknown keys or a
    list of the wrong shape; the config classes check every value."""
    issues = _unknown_keys("config", data, _CONFIG_KEYS)
    if not isinstance(data.get("class_bounds", []), (list, tuple)):
        issues.append(f"class_bounds: must be a list of numbers, got {data['class_bounds']!r}")
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
        elif not isinstance(entry["variables"], (list, tuple)):
            issues.append(f"{place}: variables must be a list, got {entry['variables']!r}")
    return issues


def config_from_dict(data: Mapping) -> PipelineConfig:
    """Build a config from a document; each unknown key, misshapen list and
    bad value is an error naming its key, ``modules[i]`` entry or module."""
    if not isinstance(data, Mapping):
        raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
    issues = _config_issues(data)
    if issues:
        raise ValueError("invalid config: " + "; ".join(issues))
    data = {**_DEFAULTS, **data}
    return PipelineConfig(
        params=TrustParams(N=data["N"], w=data["w"], f=data["f"], scale=data["scale"]),
        aggregation=data["aggregation"],
        modules=tuple(ModuleSpec(m["name"], tuple(m["variables"])) for m in data["modules"]),
        class_bounds=tuple(data["class_bounds"]),
    )


def read_json(path: str) -> object:
    """The JSON value of the UTF-8 file at ``path``.  A file that is not
    UTF-8 or not JSON, that nests too deeply, or that gives a key twice in
    one object raises ValueError naming it (and the line, or the key)."""
    with open(path, "rb") as fh:
        data = fh.read()

    def unique(pairs: list[tuple[str, object]]) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError(f"{path}: key {key!r} given twice")
            obj[key] = value
        return obj

    try:
        return json.loads(data.decode("utf-8"), object_pairs_hook=unique)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid UTF-8") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: not valid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: nested too deeply") from exc


def load_config(path: str) -> PipelineConfig:
    return config_from_dict(read_json(path))


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


def named_variable_trust(merchant: str, name: str, source: TrustSource,
                         params: TrustParams) -> float:
    """:func:`variable_trust`, with any error prefixed by the merchant and variable."""
    try:
        return variable_trust(source, params)
    except (EvidenceExceedsCap, ValueError) as exc:
        raise type(exc)(f"merchant {merchant!r}, variable {name}: {exc}") from exc


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


def merchant_trust(module_trusts: Sequence[float], cfg: PipelineConfig) -> float:
    """The merchant trust from the four module trusts, by ``cfg.aggregation``."""
    if len(module_trusts) != len(cfg.modules):
        raise ValueError(f"expected {len(cfg.modules)} module trusts, got {len(module_trusts)}")
    if cfg.aggregation == AVERAGE:
        return module_trust_average(module_trusts)
    return module_trust_fuzzy(module_trusts, merchant_rulebase(cfg))


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
    ``variables`` mapping, whose names are matched to the config's, then
    from the store profile under the config's exact names (latest
    assessment first, evidence counts otherwise).  ``module_overrides``
    pins a module's trust to a given percentage, e.g. to score from
    module-level figures when no per-variable breakdown exists; variables
    under an overridden module become optional.

    Raises :class:`MissingVariable` naming every unresolvable input.
    """
    cfg = cfg or DEFAULT_CONFIG
    known = cfg.variable_names()
    supplied = {normalize_name(name, known): source for name, source in (variables or {}).items()}

    overrides: dict[str, float] = {}
    module_names = cfg.module_names()
    for name, value in (module_overrides or {}).items():
        canonical = normalize_name(name, module_names, kind="module")
        if not (_is_number(value) and 0.0 <= value <= 100.0):
            raise ValueError(f"module override for {canonical} must be a number in [0, 100], "
                             f"got {value!r}")
        overrides[canonical] = float(value)

    # each source overrides the one before: evidence, assessments, supplied
    profile = store.load_profile(merchant) if store is not None else MerchantProfile(merchant)
    sources: dict[str, TrustSource] = {**profile.counts, **profile.assessments, **supplied}

    variable_trusts: dict[str, float] = {}
    rows: dict[str, list[float]] = {}  # the variable trusts of each module not overridden
    missing: list[str] = []
    for spec in cfg.modules:
        member_trusts: list[float] = []
        for name in spec.variables:
            source = sources.get(name)
            if source is None:
                if spec.name not in overrides:
                    missing.append(name)
                continue
            trust = named_variable_trust(merchant, name, source, cfg.params)
            variable_trusts[name] = trust
            member_trusts.append(trust)
        if spec.name not in overrides:
            rows[spec.name] = member_trusts
    if missing:
        raise MissingVariable(f"unresolved variables for {merchant}: {', '.join(missing)}")

    if cfg.aggregation == FUZZY and rows:  # the generated module bases share one rule table
        rbs = [module_rulebase(spec) for spec in cfg.modules if spec.name in rows]
        scored = dict(zip(rows, infer_batch(rbs, list(rows.values()))))
    else:
        scored = {name: module_trust_average(trusts) for name, trusts in rows.items()}
    module_trusts = {name: scored[name] if name in scored else overrides[name]
                     for name in module_names}
    overall = merchant_trust(list(module_trusts.values()), cfg)
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
