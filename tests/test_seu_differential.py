"""seu_value, os_prefer and UtilityFunction.expected against the Fraction formula.

The oracle is ``helpers.fraction_seu``: mass times p * u(o), summed in
Fractions.  Beliefs carry zero masses, utilities go negative, lotteries
have one to three outcomes.  Every value is asked for twice, so a repeat
call must agree with the first.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefkit import (
    Act,
    Belief,
    Lottery,
    MissingUtility,
    StateSpace,
    UtilityFunction,
    compare_values,
    os_prefer,
    seu_value,
)
from helpers import fraction_seu

OUTCOMES = ("a", "b", "c", "d")


class FixedFamily:
    """The family shape ``os_prefer`` reads, with one belief and one utility."""

    def __init__(self, belief: Belief, utility: UtilityFunction):
        self.belief = belief
        self.utility = utility

    def belief_given(self, e):
        return self.belief

    def utility_given(self, e):
        return self.utility


@st.composite
def beliefs(draw):
    n = draw(st.integers(1, 5))
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    weights = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    if not any(weights):
        weights[draw(st.integers(0, n - 1))] = 1
    total = sum(weights)
    return Belief(space, {s: Fraction(w, total) for s, w in zip(space.states, weights) if w})


rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7))


@st.composite
def lotteries(draw):
    outcomes = draw(st.lists(st.sampled_from(OUTCOMES), min_size=1, max_size=3, unique=True))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(outcomes), max_size=len(outcomes)))
    total = sum(weights)
    return Lottery({o: Fraction(w, total) for o, w in zip(outcomes, weights)})


@st.composite
def acts(draw, space: StateSpace):
    return Act(space, {s: draw(lotteries()) for s in space.states})


@st.composite
def cases(draw):
    mu = draw(beliefs())
    u = UtilityFunction({o: draw(rationals) for o in OUTCOMES})
    return mu, u, draw(acts(mu.space)), draw(acts(mu.space))


@settings(max_examples=200)
@given(cases())
def test_seu_os_prefer_and_expected_match_the_fraction_formula(case):
    mu, u, f, g = case
    family = FixedFamily(mu, u)
    event = mu.space.full_event
    want_f, want_g = fraction_seu(u, mu, f), fraction_seu(u, mu, g)
    for _ in range(2):
        assert seu_value(u, mu, f) == want_f
        assert seu_value(u, mu, g) == want_g
        assert os_prefer(family, event, f, g) is compare_values(want_f, want_g)
        for lottery in f.assignment:
            assert u.expected(lottery) == sum(p * u.value(o) for o, p in lottery.entries)


@settings(max_examples=50)
@given(beliefs(), st.data())
def test_missing_utility_on_a_zero_mass_state_raises_every_time(mu, data):
    space = StateSpace((*mu.space.states, "null"))
    mu = Belief(space, dict(mu.items()))
    u = UtilityFunction({o: data.draw(rationals) for o in OUTCOMES})
    f = Act(space, {**{s: data.draw(lotteries()) for s in space.states}, "null": Lottery({"z": 1})})
    for _ in range(2):
        with pytest.raises(MissingUtility):
            fraction_seu(u, mu, f)
        with pytest.raises(MissingUtility):
            seu_value(u, mu, f)
        with pytest.raises(MissingUtility):
            u.expected(f.lottery_at("null"))
