"""The result records keep the interface they had as frozen dataclasses.

Each record is built positionally, by keyword, and from its defaults; its
fields read back by name, refuse assignment, and print as
``Name(field=value, ...)``.  ``Scenario`` is a plain class with the same
fields and defaults, compared field by field.
"""

from fractions import Fraction

import pytest

from beliefkit import (
    Belief,
    CheckResult,
    CpsValidation,
    CpsWitness,
    EpsOsConstruction,
    Preference,
    ResolutionReport,
    RiskIndependenceReport,
    Scenario,
    SelectionBranch,
    SelectionTrace,
    StateSpace,
    load_scenario,
    parse_scenario,
)

SPACE = StateSpace(("a", "b"))
A, B = SPACE.event_from(["a"]), SPACE.full_event
HALF = Fraction(1, 2)

# record -> (every field with a value, the fields that have defaults and their defaults)
RECORDS = {
    CheckResult: ({"ok": False, "witness": (A, B)}, {"witness": None}),
    SelectionTrace: (
        {"event": A, "branch": SelectionBranch.ARGMAX, "scores": (HALF, 1), "chosen": 1},
        {},
    ),
    EpsOsConstruction: (
        {
            "ht": "ht",
            "eps": HALF,
            "class_of": (0, 1),
            "bounds": ((1, HALF),),
            "cross_max": Fraction(1, 4),
        },
        {},
    ),
    ResolutionReport: (
        {
            "os_ex_ante": Preference.INDIFFERENT,
            "os_conditional": Preference.FIRST,
            "lps_ex_ante": Preference.FIRST,
            "clps_conditional": Preference.FIRST,
            "os_resolves": True,
            "clps_resolves": False,
            "clps_agrees": True,
        },
        {},
    ),
    RiskIndependenceReport: (
        {"holds": True, "coefficients": {1: (2, HALF)}, "witness_order": 1, "witness_outcome": "x"},
        {"coefficients": None, "witness_order": None, "witness_outcome": None},
    ),
    CpsWitness: ({"g": A, "f": A, "e": B, "lhs": HALF, "rhs": 0}, {}),
    CpsValidation: (
        {
            "status": "violation",
            "witness": CpsWitness(A, A, B, HALF, 0),
            "reason": "r",
            "triples": 3,
            "priors": (Belief(SPACE, {"a": 1}),),
        },
        {"witness": None, "reason": None, "triples": 0, "priors": ()},
    ),
}


@pytest.mark.parametrize("record", list(RECORDS), ids=lambda r: r.__name__)
def test_records_build_read_and_print_as_before(record):
    values, defaults = RECORDS[record]
    by_position = record(*values.values())
    by_keyword = record(**values)
    assert by_position == by_keyword
    for name, value in values.items():
        assert getattr(by_keyword, name) is value
    required = {k: v for k, v in values.items() if k not in defaults}
    minimal = record(**required)
    for name, value in {**required, **defaults}.items():
        assert getattr(minimal, name) == value
    fields = ", ".join(f"{name}={value!r}" for name, value in values.items())
    assert repr(by_keyword) == f"{record.__name__}({fields})"


@pytest.mark.parametrize("record", list(RECORDS), ids=lambda r: r.__name__)
def test_records_refuse_assignment(record):
    values, _ = RECORDS[record]
    built = record(**values)
    for name in values:
        with pytest.raises(AttributeError):
            setattr(built, name, None)
    with pytest.raises(AttributeError):
        built.extra = 1


def test_truth_follows_the_verdict():
    assert CheckResult(True) and not CheckResult(False, A)
    assert RiskIndependenceReport(True) and not RiskIndependenceReport(False)
    assert CpsValidation.valid(5, ()) and CpsValidation.valid(5, ()).triples == 5
    violation = CpsValidation.violation(CpsWitness(A, A, B, HALF, 0), 2)
    assert not violation and violation.status == "violation" and violation.triples == 2
    refused = CpsValidation.not_candidate("incomplete")
    assert not refused and refused.reason == "incomplete" and refused.witness is None


def test_scenario_keeps_its_fields_defaults_and_equality():
    text = load_scenario("lps_demo").render()
    assert parse_scenario(text) == parse_scenario(text)
    assert parse_scenario(text) != load_scenario("coin")
    bare = Scenario(SPACE)
    assert (bare.beliefs, bare.utilities, bare.acts, bare.events) == ({}, {}, {}, {})
    assert bare.beliefs is not Scenario(SPACE).beliefs
    assert (bare.os, bare.os_names, bare.ht, bare.ht_prior_names) == (None,) * 4
    assert (bare.lps, bare.lps_names) == (None, None)
    assert bare == Scenario(SPACE, {}, None, None, None, None, None, None, {}, {}, {})
    assert bare != Scenario(SPACE, {"p": Belief(SPACE, {"a": 1})})
    with pytest.raises(TypeError):
        hash(bare)
