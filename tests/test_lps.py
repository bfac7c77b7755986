"""Lexicographic evaluation, conditioning, and the resolution contrast."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefkit import (
    Act,
    AllLevelsNull,
    Belief,
    LPSRepresentation,
    LexValue,
    Lottery,
    Preference,
    PreferenceFamily,
    StateSpace,
    UtilityFunction,
    ValidationError,
    clps_condition,
    indifference_resolution_demo,
    lps_compare,
    lps_value,
    os_prefer,
    os_update,
)
from helpers import coin_hierarchy, random_canonical_os


@pytest.fixture
def coin():
    return coin_hierarchy()


@pytest.fixture
def coin_lps(coin):
    return LPSRepresentation(coin.space, coin.priors)


@pytest.fixture
def money():
    return UtilityFunction(
        {"$0": 0, "$1": 1, "$1/2": Fraction(1, 2), "$2": 2}
    )


def dollars_on(space, event, amount):
    """Pay ``amount`` inside the event, nothing outside."""
    win = Lottery({f"${amount}": 1})
    zero = Lottery({"$0": 1})
    return Act(space, {s: (win if s in event else zero) for s in space.states})


def test_lex_value_ordering():
    a = LexValue((Fraction(1), Fraction(0)))
    b = LexValue((Fraction(1), Fraction(1, 2)))
    assert a < b
    assert b > a
    assert a != b
    assert a == LexValue((Fraction(1), Fraction(0)))
    assert hash(a) == hash(LexValue((1, 0)))
    assert not a < a


def test_lex_values_of_mismatched_length_do_not_compare():
    with pytest.raises(ValidationError):
        LexValue((Fraction(1),)) < LexValue((Fraction(1), Fraction(0)))
    with pytest.raises(ValidationError):
        LexValue(())


def test_level_values_and_verdict_flip_with_stakes(coin_lps, money):
    """The early-end hedge loses to a big enough coin payoff."""
    space = coin_lps.space
    heads_tails = space.event("h", "t")
    early = space.event("e", "el")
    g = Act(
        space,
        {
            s: Lottery({("$1" if s in heads_tails else "$1/2" if s in early else "$0"): 1})
            for s in space.states
        },
    )
    f_v1 = dollars_on(space, heads_tails, 1)
    f_v2 = dollars_on(space, heads_tails, 2)

    assert lps_value(coin_lps, money, f_v1) == LexValue((1, 0, 0))
    assert lps_value(coin_lps, money, g) == LexValue((1, Fraction(1, 2), 0))
    assert lps_compare(coin_lps, money, f_v1, g) is Preference.SECOND
    assert lps_value(coin_lps, money, f_v2) == LexValue((2, 0, 0))
    assert lps_compare(coin_lps, money, f_v2, g) is Preference.FIRST
    assert lps_compare(coin_lps, money, g, g) is Preference.INDIFFERENT


def test_conditioning_drops_null_levels(coin_lps):
    space = coin_lps.space
    conditioned = clps_condition(coin_lps, space.event("e", "el"))
    assert len(conditioned) == 1
    assert conditioned.levels[0] == coin_lps.levels[1]


def test_conditioning_keeps_level_order_and_updates():
    space = StateSpace(("a", "b", "c"))
    top = Belief(space, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
    deep = Belief(space, {"b": Fraction(1, 4), "c": Fraction(3, 4)})
    lps = LPSRepresentation(space, (top, deep))
    conditioned = clps_condition(lps, space.event("b", "c"))
    assert len(conditioned) == 2
    assert conditioned.levels[0] == Belief(space, {"b": 1})
    assert conditioned.levels[1] == deep


def test_conditioning_on_a_globally_null_event_raises(coin_lps):
    space = coin_lps.space
    lps = LPSRepresentation(space, (coin_lps.levels[0],))
    with pytest.raises(AllLevelsNull):
        clps_condition(lps, space.event("l1"))


def test_single_full_support_level_is_plain_seu():
    space = StateSpace(("a", "b"))
    mu = Belief(space, {"a": Fraction(1, 3), "b": Fraction(2, 3)})
    lps = LPSRepresentation(space, (mu,))
    u = UtilityFunction({"x": 0, "y": 1})
    f = Act(space, {"a": Lottery({"y": 1}), "b": Lottery({"x": 1})})
    g = Act.constant(space, Lottery({"x": Fraction(1, 2), "y": Fraction(1, 2)}))
    assert lps_value(lps, u, f).components == (Fraction(1, 3),)
    assert lps_compare(lps, u, f, g) is Preference.SECOND


def test_resolution_demo_contrast(coin, coin_lps, money):
    """Conditioning resolves the hierarchy's tie but not the lexicographic one."""
    space = coin.space
    f = dollars_on(space, space.event("h", "t"), 1)
    g = Act(
        space,
        {
            "h": Lottery({"$1": 1}),
            "t": Lottery({"$1": 1}),
            "e": Lottery({"$1/2": 1}),
            "el": Lottery({"$1/2": 1}),
            "l1": Lottery({"$0": 1}),
            "l2": Lottery({"$0": 1}),
        },
    )
    report = indifference_resolution_demo(
        coin, coin_lps, money, f, g, space.event("e", "el")
    )
    assert report.os_ex_ante is Preference.INDIFFERENT
    assert report.os_conditional is Preference.SECOND
    assert report.lps_ex_ante is Preference.SECOND
    assert report.clps_conditional is Preference.SECOND
    assert report.os_resolves
    assert not report.clps_resolves
    assert report.clps_agrees

    fam = PreferenceFamily(coin, (money, money, money))
    assert os_prefer(fam, space.full_event, f, g) is Preference.INDIFFERENT
    assert os_prefer(fam, space.event("e", "el"), f, g) is Preference.SECOND


def test_resolution_demo_accepts_a_family(coin, coin_lps, money):
    space = coin.space
    fam = PreferenceFamily(coin, (money, money, money))
    f = dollars_on(space, space.event("h", "t"), 2)
    report = indifference_resolution_demo(
        fam, coin_lps, money, f, f, space.event("e", "el")
    )
    assert report.os_ex_ante is Preference.INDIFFERENT
    assert not report.os_resolves
    assert report.clps_agrees


def test_resolution_demo_propagates_undefined_conditionals(coin, money):
    space = coin.space
    shallow = LPSRepresentation(space, (coin.priors[0],))
    f = dollars_on(space, space.event("h"), 1)
    with pytest.raises(AllLevelsNull):
        indifference_resolution_demo(
            coin, shallow, money, f, f, space.event("l1", "l2")
        )


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_the_first_surviving_level_is_the_hierarchy_posterior(seed):
    """Blume, Brandenburger and Dekel (1991): with disjoint supports the
    conditional LPS leads with the OS posterior, so a strict OS verdict is
    the conditional lexicographic verdict too."""
    rng = random.Random(seed)
    h = random_canonical_os(rng, max_states=6)
    lps = LPSRepresentation(h.space, h.priors)
    states = h.space.states
    e = h.space.event_from(rng.sample(states, rng.randint(1, len(states))))
    assert clps_condition(lps, e).levels[0] == os_update(h, e)

    u = UtilityFunction({"x": 0, "y": 1, "z": rng.randint(-2, 3)})

    def act():
        def lottery():
            p = Fraction(rng.randint(0, 2), 2)
            return Lottery({"x": 1 - p, rng.choice("yz"): p})

        return Act(h.space, {s: lottery() for s in states})

    f, g = act(), act()
    report = indifference_resolution_demo(h, lps, u, f, g, e)
    if report.os_conditional is not Preference.INDIFFERENT:
        assert report.clps_conditional is report.os_conditional
