"""Belief updating over finite state spaces with exact rational arithmetic.

The package models conditional beliefs four ways (complete chain-rule
tables, ordered prior hierarchies, weighted prior selection, lexicographic
levels), converts between them where the theory allows it, and checks the
preference axioms that separate them.  Everything is exact end to end
(integer numerators read as Fractions); nothing rounds.

Every public name is importable from the package itself.  Importing the
package registers each submodule in ``sys.modules`` as a lazy module,
executed on its first attribute access, and each public name is fetched
from its module on first use (PEP 562).  So importing one module, such as
``beliefkit.cli``, runs only the modules it reaches.
"""

_EXPORTS = {
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
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def _register_lazily(module: str):
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec

    spec = find_spec(f"{__name__}.{module}")
    spec.loader = LazyLoader(spec.loader)
    lazy = module_from_spec(spec)
    sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    return lazy


globals().update({module: _register_lazily(module) for module in _EXPORTS})


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_MODULE_OF[name]], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
