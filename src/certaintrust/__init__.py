"""Evidence-based merchant trust scoring.

Opinion algebra over (rating, certainty, expectation) triples, a five-term
Gaussian Mamdani fuzzy engine, and the four-module scoring pipeline that
turns per-variable evidence into a merchant trust percentage, behavioral
probability, and linguistic trust class.
"""

from .errors import (
    ArityMismatch,
    DegenerateBase,
    EmptyAggregate,
    EvidenceExceedsCap,
    IndexOutOfRange,
    InvalidDomain,
    MissingVariable,
    StorageFailure,
    TrustError,
    UnknownVariable,
    ZeroBase,
)
from .fuzzy import (
    LinguisticVariable,
    MembershipFunction,
    Rule,
    RuleBase,
    SurfaceGrid,
    TERM_LABELS,
    fuzzify,
    gaussian_mf,
    generate_rulebase,
    infer,
    load_rulebase,
    make_variable,
    mean_consequent,
    surface_grid,
)
from .opinion import (
    BehavioralProbability,
    EvidenceCount,
    Opinion,
    TrustParams,
    average_rating,
    behavioral_probability,
    certainty,
    expectation,
    op_and,
    op_not,
    op_or,
    opinion_from_evidence,
    scale_rating,
    trust_percent,
)
from .pipeline import (
    ModuleSpec,
    PipelineConfig,
    TrustReport,
    classify_trust,
    compare_merchants,
    config_from_dict,
    config_to_dict,
    evaluate_merchant,
    load_config,
    merchant_rulebase,
    merchant_trust,
    module_rulebase,
    module_trust_average,
    module_trust_fuzzy,
    save_config,
    variable_trust,
)
from .store import (
    DirectAssessment,
    EvidenceRecord,
    EvidenceStore,
    MerchantProfile,
    STORE_ENV_VAR,
)
from .variables import CANONICAL_VARIABLES, DEFAULT_WIRING, MODULE_NAMES

__version__ = "0.1.0"
