"""The package exports every public name lazily, with the same objects as before.

``EXPORTS`` is the list the package's eager ``__init__`` used to import,
module by module; the lazy ``__init__`` must keep it whole.
"""

from importlib import import_module

import pytest

import beliefkit

EXPORTS = {
    "core": (
        "Act", "Belief", "CheckResult", "Event", "Lottery", "Preference",
        "StateSpace", "UtilityFunction", "bayes_update", "compare_values",
        "compose_act", "max_enumerable_states", "seu_value",
    ),
    "errors": (
        "AllLevelsNull", "AmbiguousArgmax", "BadDelta", "BeliefkitError",
        "DegenerateBase", "EmptyEvent", "IncompleteCoverage",
        "InfeasibleSubevent", "MissingUtility", "NoPriorExceedsThreshold",
        "NotCps", "NullConditioning", "ParseError", "SpaceMismatch",
        "TooManyStates", "ValidationError",
    ),
    "hypothesis_testing": (
        "EpsOsConstruction", "HTRepresentation", "SelectionBranch",
        "SelectionTrace", "eps_os_construction", "ht_rule", "ht_select",
        "os_to_ht",
    ),
    "lps": (
        "LPSRepresentation", "ResolutionReport", "clps_condition",
        "indifference_resolution_demo", "lps_compare", "lps_value",
    ),
    "ordered_surprises": (
        "OSRepresentation", "SurprisePartition", "cps_to_os", "eps_os_update",
        "os_rule", "os_update", "surprise_order", "surprise_partition",
    ),
    "preferences": (
        "PreferenceFamily", "RiskIndependenceReport",
        "check_conditional_consistency", "check_consequentialism",
        "check_constant_act_agreement", "check_risk_independence",
        "default_event_pairs", "os_prefer",
    ),
    "rules": (
        "CpsValidation", "CpsWitness", "UpdatingRule", "bayesian_rule",
        "conservative_rule", "is_complete", "is_concentrated", "rules_equal",
        "validate_cps",
    ),
    "scenario": (
        "Scenario", "fixture_names", "format_rational", "load_scenario",
        "parse_rational", "parse_scenario",
    ),
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_export_is_its_modules_object(module):
    origin = import_module(f"beliefkit.{module}")
    for name in EXPORTS[module]:
        assert getattr(beliefkit, name) is getattr(origin, name), name


def test_all_dir_and_star_import_list_every_export():
    assert len(NAMES) == 74
    assert sorted(beliefkit.__all__) == NAMES
    assert not [name for name in beliefkit.__all__ if name.startswith("_")]
    assert set(NAMES) <= set(dir(beliefkit))
    namespace: dict = {}
    exec("from beliefkit import *", namespace)
    assert set(NAMES) <= set(namespace)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        beliefkit.no_such_name


def test_submodules_and_version_stay_reachable():
    from beliefkit import rules

    assert rules is import_module("beliefkit.rules")
    assert beliefkit.scenario is import_module("beliefkit.scenario")
    assert beliefkit.__version__ == "0.1.0"
