"""Belief updating over finite state spaces with exact rational arithmetic.

The package models conditional beliefs four ways (complete chain-rule
tables, ordered prior hierarchies, weighted prior selection, lexicographic
levels), converts between them where the theory allows it, and checks the
preference axioms that separate them.  Everything is a Fraction end to
end; nothing rounds.
"""

from .core import (
    Act,
    Belief,
    CheckResult,
    Event,
    Lottery,
    Preference,
    StateSpace,
    UtilityFunction,
    bayes_update,
    compare_values,
    compose_act,
    is_null_event,
    max_enumerable_states,
    seu_value,
)
from .errors import (
    AllLevelsNull,
    AllZeroScores,
    AmbiguousArgmax,
    BadDelta,
    BeliefkitError,
    CycleDetected,
    DegenerateBase,
    EmptyEvent,
    IncompleteCoverage,
    InfeasibleSubevent,
    MissingUtility,
    NoPriorExceedsThreshold,
    NotCps,
    NullConditioning,
    ParseError,
    SeparationFailed,
    SpaceMismatch,
    TooManyStates,
    ValidationError,
)
from .hypothesis_testing import (
    EpsOsConstruction,
    HTRepresentation,
    SelectionBranch,
    SelectionTrace,
    eps_os_construction,
    eps_os_to_ht,
    ht_rule,
    ht_select,
    os_to_ht,
)
from .lps import (
    LexValue,
    LPSRepresentation,
    ResolutionReport,
    clps_condition,
    indifference_resolution_demo,
    lps_compare,
    lps_value,
)
from .ordered_surprises import (
    OSRepresentation,
    SurprisePartition,
    canonicalize_os,
    cps_to_os,
    eps_os_update,
    os_rule,
    os_update,
    surprise_order,
    surprise_partition,
)
from .preferences import (
    GRID_PROBABILITIES,
    PreferenceFamily,
    RiskIndependenceReport,
    act_grid,
    check_conditional_consistency,
    check_consequentialism,
    check_constant_act_agreement,
    check_risk_independence,
    default_act_pairs,
    default_act_triples,
    default_event_pairs,
    lottery_grid,
    null_states,
    os_prefer,
)
from .rules import (
    CpsValidation,
    CpsWitness,
    UpdatingRule,
    bayesian_rule,
    conservative_rule,
    is_complete,
    is_concentrated,
    rules_equal,
    validate_cps,
)
from .scenario import (
    Scenario,
    fixture_names,
    format_rational,
    load_scenario,
    parse_rational,
    parse_scenario,
    render,
)

__version__ = "0.1.0"
