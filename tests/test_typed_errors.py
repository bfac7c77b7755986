"""Each misuse the package can reach raises its typed error with its message.

One case per guard that no other in-process test reaches: operations
across state spaces, empty or out-of-range inputs, constructors with
nothing to hold, and utility names the CLI cannot use.
"""

from fractions import Fraction

import pytest

from beliefkit import (
    Act,
    Belief,
    EmptyEvent,
    Event,
    HTRepresentation,
    LexValue,
    LPSRepresentation,
    Lottery,
    OSRepresentation,
    SpaceMismatch,
    StateSpace,
    UtilityFunction,
    ValidationError,
    bayesian_rule,
    clps_condition,
    compose_act,
    eps_os_update,
    ht_select,
    indifference_resolution_demo,
    max_enumerable_states,
    rules_equal,
    seu_value,
    surprise_partition,
)
from beliefkit.cli import main

AB = StateSpace(("a", "b"))
XY = StateSpace(("x", "y"))
MU = Belief(AB, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
NU = Belief(XY, {"x": 1})
ON_A = Belief(AB, {"a": 1})
WIN = Lottery({"$1": 1})
F = Act.constant(AB, WIN)
G = Act.constant(XY, WIN)
U = UtilityFunction({"$1": 1, "$0": 0})
HIER = OSRepresentation(AB, (MU,))
LPS = LPSRepresentation(AB, (ON_A,))


def max_states_of(raw):
    def run(monkeypatch):
        monkeypatch.setenv("BELIEFKIT_MAX_STATES", raw)
        return max_enumerable_states()

    return run


CASES = {
    "max-states-zero": (
        max_states_of("0"),
        ValidationError,
        "BELIEFKIT_MAX_STATES must be positive, got 0",
    ),
    "event-mask-out-of-range": (
        lambda _: Event(AB, 4),
        ValidationError,
        "event mask 4 out of range for StateSpace(['a', 'b'])",
    ),
    "prob-across-spaces": (
        lambda _: MU.prob(XY.full_event),
        SpaceMismatch,
        "belief and event belong to different state spaces",
    ),
    "act-mix-across-spaces": (
        lambda _: F.mix(Fraction(1, 2), G),
        SpaceMismatch,
        "acts belong to different state spaces",
    ),
    "compose-acts-across-spaces": (
        lambda _: compose_act(F, AB.full_event, G),
        SpaceMismatch,
        "acts belong to different state spaces",
    ),
    "compose-event-across-spaces": (
        lambda _: compose_act(F, XY.full_event, F),
        SpaceMismatch,
        "event belongs to a different state space",
    ),
    "seu-across-spaces": (
        lambda _: seu_value(U, NU, F),
        SpaceMismatch,
        "belief and act belong to different state spaces",
    ),
    "act-value-not-a-lottery": (
        lambda _: Act(AB, {"a": WIN, "b": "$1"}),
        ValidationError,
        "state 'b' must map to a Lottery",
    ),
    "empty-utility": (
        lambda _: UtilityFunction({}),
        ValidationError,
        "utility table must not be empty",
    ),
    "os-without-priors": (
        lambda _: OSRepresentation(AB, ()),
        ValidationError,
        "a hierarchy needs at least one prior",
    ),
    "os-prior-across-spaces": (
        lambda _: OSRepresentation(AB, (MU, NU)),
        SpaceMismatch,
        "prior built over a different state space",
    ),
    "lps-without-levels": (
        lambda _: LPSRepresentation(AB, ()),
        ValidationError,
        "need at least one level",
    ),
    "lps-level-across-spaces": (
        lambda _: LPSRepresentation(AB, (MU, NU)),
        SpaceMismatch,
        "level built over a different state space",
    ),
    "ht-without-priors": (
        lambda _: HTRepresentation(AB, (), ()),
        ValidationError,
        "a representation needs at least one prior",
    ),
    "ht-prior-across-spaces": (
        lambda _: HTRepresentation(AB, (MU, NU), (Fraction(2, 3), Fraction(1, 3))),
        SpaceMismatch,
        "prior built over a different state space",
    ),
    "ht-select-across-spaces": (
        lambda _: ht_select(HTRepresentation(AB, (MU,), (1,)), XY.full_event),
        SpaceMismatch,
        "event built over a different state space",
    ),
    "eps-update-across-spaces": (
        lambda _: eps_os_update(HIER, 0, XY.full_event),
        SpaceMismatch,
        "event built over a different state space",
    ),
    "clps-across-spaces": (
        lambda _: clps_condition(LPS, XY.full_event),
        SpaceMismatch,
        "event built over a different state space",
    ),
    "clps-empty-event": (
        lambda _: clps_condition(LPS, Event(AB, 0)),
        EmptyEvent,
        "cannot condition on the empty event",
    ),
    "class-of-across-spaces": (
        lambda _: surprise_partition(HIER).class_of(XY.full_event),
        SpaceMismatch,
        "event built over a different state space",
    ),
    "class-of-uncovered": (
        lambda _: surprise_partition(HIER).class_of(Event(AB, 0)),
        ValidationError,
        "event not covered by this partition",
    ),
    "lex-value-against-a-tuple": (
        lambda _: LexValue((1,)) < (1,),
        TypeError,
        "cannot compare LexValue with tuple",
    ),
    "demo-without-a-hierarchy": (
        lambda _: indifference_resolution_demo(LPS, LPS, U, F, F, AB.full_event),
        ValidationError,
        "os_family does not carry an ordered hierarchy",
    ),
    "rules-equal-across-spaces": (
        lambda _: rules_equal(bayesian_rule(MU), bayesian_rule(NU)),
        SpaceMismatch,
        "rules built over different state spaces",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_misuse_raises_its_typed_error(case, monkeypatch):
    call, error, message = CASES[case]
    with pytest.raises(error) as caught:
        call(monkeypatch)
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (("lps-compare", "lps_demo", "--acts", "f_v1,g", "--utility", "zz"), "unknown utility 'zz'"),
        (("check-axioms", "lps_demo", "--utilities", "money,money"), "--utilities needs 1 or 3 names, got 2"),
    ],
    ids=["unknown-utility", "utility-count"],
)
def test_cli_rejects_utility_names_it_cannot_use(capsys, argv, message):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error\tValidationError\t{message}\n"
