"""Exact decisions of consequentialism and conditional consistency.

Without an explicit sample both checks decide their axiom over every act
that maps each state to a mixture of the first two shared outcomes.  The
oracles in ``helpers`` rank every such act on a grid holding the
instance's ratios, in Fractions, at |S| <= 4.  Every witness, sampled or
built, is ranked again through ``os_prefer``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefkit import (
    Act,
    Belief,
    EmptyEvent,
    Event,
    InfeasibleSubevent,
    Lottery,
    MissingUtility,
    OSRepresentation,
    Preference,
    PreferenceFamily,
    SpaceMismatch,
    StateSpace,
    UtilityFunction,
    ValidationError,
    bayes_update,
    check_conditional_consistency,
    check_consequentialism,
    compose_act,
    default_act_pairs,
    default_act_triples,
    default_event_pairs,
    os_prefer,
    preferences,
)
from helpers import (
    brute_conditional_consistency,
    brute_consequentialism,
    coin_hierarchy,
    random_overlapping_os,
)

OUTCOMES = ("x", "y", "z")


class TableFamily:
    """A family-shaped object that reads beliefs and utilities off tables.

    Events missing from a table fall back to the honest family when one is
    given, so one distorted entry can be planted in an honest family.
    """

    def __init__(self, space, beliefs, utilities, honest=None):
        self.space = space
        self._beliefs = beliefs
        self._utilities = utilities
        self._honest = honest

    def belief_given(self, e: Event) -> Belief:
        if e in self._beliefs:
            return self._beliefs[e]
        return self._honest.belief_given(e)

    def utility_given(self, e: Event) -> UtilityFunction:
        if e in self._utilities:
            return self._utilities[e]
        return self._honest.utility_given(e)

    def shared_outcomes(self):
        if self._honest is not None:
            return self._honest.shared_outcomes()
        return OUTCOMES


@st.composite
def spaces(draw):
    n = draw(st.integers(1, 4))
    return StateSpace(tuple(f"s{i}" for i in range(n)))


@st.composite
def beliefs(draw, space, must_meet=0):
    """A belief with small integer weights; it gives ``must_meet`` mass."""
    weights = draw(st.lists(st.integers(0, 4), min_size=len(space), max_size=len(space)))
    inside = [i for i in range(len(space)) if must_meet >> i & 1]
    if inside and not any(weights[i] for i in inside):
        weights[draw(st.sampled_from(inside))] += 1
    if not any(weights):
        weights[0] = 1
    total = sum(weights)
    return Belief(space, {s: Fraction(w, total) for s, w in zip(space.states, weights) if w})


@st.composite
def utilities(draw):
    """A utility on x, y, z; u(y) - u(x) may be positive, negative or zero."""
    values = draw(st.lists(st.integers(-3, 3), min_size=3, max_size=3))
    return UtilityFunction(dict(zip(OUTCOMES, values)))


@st.composite
def events(draw, space, within=None):
    full = (1 << len(space)) - 1 if within is None else within
    submasks = [m for m in range(1, full + 1) if m & full == m]
    return Event(space, draw(st.sampled_from(submasks)))


@st.composite
def consequentialism_cases(draw):
    """An event with an arbitrary belief, so mass may sit off it."""
    space = draw(spaces())
    e = draw(events(space))
    fam = TableFamily(space, {e: draw(beliefs(space, must_meet=e.mask))}, {e: draw(utilities())})
    return fam, e


@st.composite
def consistency_cases(draw):
    """(family, e, a) with a feasible given e; the a-conditional honest or not.

    An honest a-conditional is the Bayes update of the e-conditional; its
    utility is an affine image of e's with a scale that may be negative
    (then v_e = c * v_a with c < 0) or zero.
    """
    space = draw(spaces())
    e = draw(events(space))
    a = draw(events(space, within=e.mask))
    b_e = draw(beliefs(space, must_meet=a.mask))
    u_e = draw(utilities())
    if draw(st.booleans()):
        b_a = bayes_update(b_e, a)
    else:
        b_a = draw(beliefs(space))
    if draw(st.booleans()):
        scale = draw(st.sampled_from([-2, -1, 0, Fraction(1, 2), 3]))
        u_a = u_e.affine(scale, draw(st.integers(-2, 2)))
    else:
        u_a = draw(utilities())
    if a == e:
        b_a, u_a = b_e, u_e
    return TableFamily(space, {a: b_a, e: b_e}, {a: u_a, e: u_e}), e, a


def assert_consequentialism_witness(fam, e, check):
    f, forced, verdict = check.witness
    assert verdict is not Preference.INDIFFERENT
    assert forced == compose_act(f, e, forced)
    assert os_prefer(fam, e, f, forced) is verdict


def assert_consistency_witness(fam, e, a, check):
    f, g, h, under_e, under_a = check.witness
    assert under_e is not under_a
    assert os_prefer(fam, e, compose_act(f, a, h), compose_act(g, a, h)) is under_e
    assert os_prefer(fam, a, f, g) is under_a


# ---------------------------------------------------------------------------
# the decisions against the brute-force oracles


@settings(max_examples=100, deadline=None)
@given(consequentialism_cases())
def test_consequentialism_decision_matches_brute_force(case):
    fam, e = case
    check = check_consequentialism(fam, e)
    assert check.ok == brute_consequentialism(fam, e)
    if not check:
        assert_consequentialism_witness(fam, e, check)
        sampled = check_consequentialism(fam, e, default_act_pairs(fam.space, OUTCOMES))
        assert check == sampled


@settings(max_examples=100, deadline=None)
@given(consistency_cases())
def test_consistency_decision_matches_brute_force(case):
    fam, e, a = case
    check = check_conditional_consistency(fam, e, a)
    assert check.ok == brute_conditional_consistency(fam, e, a)
    if not check:
        assert_consistency_witness(fam, e, a, check)
        sampled = check_conditional_consistency(
            fam, e, a, default_act_triples(fam.space, OUTCOMES)
        )
        if not sampled:
            assert check == sampled


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_honest_families_pass_on_every_feasible_pair(rng, data):
    hier = random_overlapping_os(rng, max_states=4)
    varying = utilities().filter(lambda u: len({value for _, value in u.items}) > 1)
    fam = PreferenceFamily(hier, [data.draw(varying) for _ in hier.priors])
    space = hier.space
    for e in space.events():
        assert check_consequentialism(fam, e)
        assert brute_consequentialism(fam, e)
        for a_mask in range(1, e.mask + 1):
            a = Event(space, a_mask)
            if a_mask & e.mask != a_mask or fam.belief_given(e).prob(a) == 0:
                continue
            assert check_conditional_consistency(fam, e, a)


def test_a_pass_ranks_no_act(monkeypatch):
    def refuse(*args):
        raise AssertionError("a pass must not rank acts")

    monkeypatch.setattr(preferences, "os_prefer", refuse)
    monkeypatch.setattr(preferences, "seu_value", refuse)
    coin = coin_hierarchy()
    fam = PreferenceFamily(coin, [UtilityFunction({"x": 0, "y": 1})] * 3)
    for e, a in default_event_pairs(coin):
        assert check_consequentialism(fam, e)
        assert check_conditional_consistency(fam, e, a)
    # u(y) = u(x): mass off the event cannot move a ranking
    flat = UtilityFunction({"x": 1, "y": 1, "z": 0})
    lone = coin.space.event("h")
    leaky = TableFamily(coin.space, {lone: coin.priors[0]}, {lone: flat})
    assert check_consequentialism(leaky, lone)


def test_ratios_off_the_half_grid_are_told_apart():
    """On a, v_e is (1, 11/10) and v_a is (1, 6/5): every {0, 1/2, 1} act agrees."""
    space = StateSpace(("s0", "s1", "s2"))
    e, a = space.full_event, space.event("s0", "s1")
    u = UtilityFunction({"x": 0, "y": 1})
    b_e = Belief(space, {"s0": Fraction(10, 42), "s1": Fraction(11, 42), "s2": Fraction(1, 2)})
    b_a = Belief(space, {"s0": Fraction(5, 11), "s1": Fraction(6, 11)})
    fam = TableFamily(space, {e: b_e, a: b_a}, {e: u, a: u})
    lotteries = [Lottery({"x": 1 - p, "y": p}) for p in (Fraction(0), Fraction(1, 2), Fraction(1))]
    acts = [
        Act(space, dict(zip(space.states, (p, q, lotteries[0]))))
        for p in lotteries
        for q in lotteries
    ]
    padding = Act.constant(space, lotteries[0])
    half_grid = [(f, g, padding) for f in acts for g in acts if f != g]
    assert check_conditional_consistency(fam, e, a, sample_triples=half_grid)
    check = check_conditional_consistency(fam, e, a)
    assert not check
    assert not brute_conditional_consistency(fam, e, a)
    assert_consistency_witness(fam, e, a, check)


# ---------------------------------------------------------------------------
# the sample's blind spot, and what an explicit sample means


def eight_state_miss():
    """Uniform prior on eight states; the belief given {s6, s7} is (7/16, 9/16)."""
    space = StateSpace(tuple(f"s{i}" for i in range(8)))
    honest = PreferenceFamily(
        OSRepresentation(space, (Belief.uniform_on(space.full_event),)),
        (UtilityFunction({"x": 0, "y": 1}),),
    )
    a = space.event("s6", "s7")
    skewed = Belief(space, {"s6": Fraction(7, 16), "s7": Fraction(9, 16)})
    return TableFamily(space, {a: skewed}, {}, honest=honest), space.full_event, a


def test_the_eight_state_miss_fails_with_a_built_witness():
    fam, e, a = eight_state_miss()
    sampled = check_conditional_consistency(
        fam, e, a, default_act_triples(fam.space, fam.shared_outcomes())
    )
    assert sampled  # the sample's bets stop at s5
    check = check_conditional_consistency(fam, e, a)
    assert not check
    assert_consistency_witness(fam, e, a, check)
    f, g, h, under_e, under_a = check.witness
    y, x = Lottery({"y": 1}), Lottery({"x": 1})
    assert f.lottery_at("s6") == y and g.lottery_at("s7") == y
    assert h == Act.constant(fam.space, x)
    assert (under_e, under_a) == (Preference.INDIFFERENT, Preference.SECOND)


def test_mass_leaked_past_the_sampled_bets_gets_a_bet_of_its_own():
    """The belief given {s2} leaks 1/4 onto s7, which no sampled bet reaches."""
    fam, e, _ = eight_state_miss()
    space = fam.space
    a = space.event("s2")
    fam._beliefs[a] = Belief(space, {"s2": Fraction(3, 4), "s7": Fraction(1, 4)})
    assert check_conditional_consistency(
        fam, e, a, default_act_triples(space, fam.shared_outcomes())
    )
    check = check_conditional_consistency(fam, e, a)
    assert not check
    assert_consistency_witness(fam, e, a, check)
    f, g, h, under_e, under_a = check.witness
    assert f == Act(space, {s: Lottery({"y" if s == "s7" else "x": 1}) for s in space.states})
    assert g == h == Act.constant(space, Lottery({"x": 1}))
    assert (under_e, under_a) == (Preference.INDIFFERENT, Preference.FIRST)


def test_explicit_samples_keep_their_sampled_verdict():
    fam, e, a = eight_state_miss()
    assert check_conditional_consistency(fam, e, a, sample_triples=())
    space = fam.space
    leaky = TableFamily(
        space,
        {space.event("s0"): Belief.uniform_on(space.full_event)},
        {},
        honest=fam._honest,
    )
    lone = space.event("s0")
    assert not check_consequentialism(leaky, lone)
    constant = Act.constant(space, Lottery({"x": 1}))
    assert check_consequentialism(leaky, lone, sample_pairs=[(constant, constant)])
    assert check_consequentialism(leaky, lone, sample_pairs=())


# ---------------------------------------------------------------------------
# errors keep their order


def one_outcome_family():
    """The coin hierarchy with utilities that share only the outcome x."""
    return PreferenceFamily(
        coin_hierarchy(),
        (
            UtilityFunction({"x": 0, "p": 1}),
            UtilityFunction({"x": 0, "q": 1}),
            UtilityFunction({"x": 0, "r": 1}),
        ),
    )


def test_errors_keep_their_precedence():
    fam = one_outcome_family()
    space = fam.space
    foreign = StateSpace(("a", "b")).event("a")
    with pytest.raises(EmptyEvent):
        check_consequentialism(fam, space.empty_event)
    with pytest.raises(ValidationError, match="two distinct outcomes"):
        check_consequentialism(fam, foreign)
    with pytest.raises(ValidationError, match="two distinct outcomes"):
        check_consequentialism(fam, space.event("h"))
    with pytest.raises(SpaceMismatch):
        check_conditional_consistency(fam, space.full_event, foreign)
    with pytest.raises(EmptyEvent):
        check_conditional_consistency(fam, space.full_event, space.empty_event)
    with pytest.raises(ValidationError, match="contained"):
        check_conditional_consistency(fam, space.event("h"), space.event("t"))
    with pytest.raises(InfeasibleSubevent):
        check_conditional_consistency(fam, space.full_event, space.event("el"))
    with pytest.raises(ValidationError, match="two distinct outcomes"):
        check_conditional_consistency(fam, space.full_event, space.event("h"))

    two = PreferenceFamily(coin_hierarchy(), [UtilityFunction({"x": 0, "y": 1})] * 3)
    with pytest.raises(SpaceMismatch, match="event belongs to a different state space"):
        check_consequentialism(two, StateSpace(tuple("abcdef")).event("a"))

    # a utility without the shared outcome y: the typed error, not a KeyError
    full = space.full_event
    lacking = TableFamily(space, {}, {full: UtilityFunction({"x": 0, "z": 1})}, honest=two)
    with pytest.raises(MissingUtility, match="'y'"):
        check_consequentialism(lacking, full)
    with pytest.raises(MissingUtility, match="'y'"):
        check_conditional_consistency(lacking, full, full)


class AskCounter:
    """Wraps a family and records each belief or utility it is asked for."""

    def __init__(self, fam):
        self._fam = fam
        self.space = fam.space
        self.asked = []

    def belief_given(self, e: Event) -> Belief:
        self.asked.append(("belief", e))
        return self._fam.belief_given(e)

    def utility_given(self, e: Event) -> UtilityFunction:
        self.asked.append(("utility", e))
        return self._fam.utility_given(e)

    def shared_outcomes(self):
        return self._fam.shared_outcomes()


def test_sampled_loops_ask_the_family_once():
    fam, e, a = eight_state_miss()
    space = fam.space
    counter = AskCounter(fam)
    triples = default_act_triples(space, fam.shared_outcomes())
    assert check_conditional_consistency(counter, e, a, triples)
    assert counter.asked == [("belief", e), ("utility", e), ("belief", a), ("utility", a)]
    counter.asked.clear()
    assert check_conditional_consistency(counter, e, a, sample_triples=())
    assert counter.asked == [("belief", e)]  # its feasibility only

    lone = space.event("s0")
    leaky = AskCounter(
        TableFamily(space, {lone: Belief.uniform_on(space.full_event)}, {}, honest=fam._honest)
    )
    constant = Act.constant(space, Lottery({"x": 1}))
    assert check_consequentialism(leaky, lone, sample_pairs=[(constant, constant)] * 5)
    assert leaky.asked == [("belief", lone), ("utility", lone)]
    leaky.asked.clear()
    assert check_consequentialism(leaky, lone, sample_pairs=())
    assert leaky.asked == []
    assert not check_consequentialism(leaky, lone)
    assert leaky.asked == [("utility", lone), ("belief", lone)]
