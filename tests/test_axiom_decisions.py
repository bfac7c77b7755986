"""Exact decisions of consequentialism and conditional consistency.

Consequentialism is decided over every act on the shared outcomes, and
conditional consistency over every act that maps each state to a mixture
of the first two shared outcomes.  The brute-force oracles in ``helpers``
rank every such act (pure acts, or x/y mixtures on a grid holding the
instance's ratios) in Fractions, at |S| <= 4.  The sampling oracles rank
the deterministic act sample the checks once ran, whose first witness a
failing check must report; a seeded differential runs all three default
checks against them at |S| <= 8.  Every witness is ranked again through
``os_prefer``.
"""

import random
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
    check_constant_act_agreement,
    compose_act,
    default_event_pairs,
    os_prefer,
    preferences,
)
from helpers import (
    brute_conditional_consistency,
    brute_consequentialism,
    coin_hierarchy,
    count_fractions,
    default_act_pairs,
    default_act_triples,
    fraction_constant_act_agreement,
    oracle_conditional_consistency,
    oracle_consequentialism,
    random_overlapping_os,
    sampled_consequentialism,
    sampled_consistency,
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
    u = fam.utility_given(e)
    if u.value("x") != u.value("y"):  # the x/y sample's domain
        assert check == sampled_consequentialism(fam, e, default_act_pairs(fam.space, OUTCOMES))


@settings(max_examples=100, deadline=None)
@given(consistency_cases())
def test_consistency_decision_matches_brute_force(case):
    fam, e, a = case
    check = check_conditional_consistency(fam, e, a)
    assert check.ok == brute_conditional_consistency(fam, e, a)
    if not check:
        assert_consistency_witness(fam, e, a, check)
        sampled = sampled_consistency(fam, e, a, default_act_triples(fam.space, OUTCOMES))
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
    # u constant on the shared outcomes: mass off the event cannot move a ranking
    flat = UtilityFunction({"x": 1, "y": 1, "z": 1, "w": 0})
    lone = coin.space.event("h")
    leaky = TableFamily(coin.space, {lone: coin.priors[0]}, {lone: flat})
    assert check_consequentialism(leaky, lone)


def test_a_third_outcome_breaks_consequentialism_where_x_and_y_tie():
    """u = {x: 0, y: 0, z: 1} and the belief given {a} is 1/2 a + 1/2 b."""
    space = StateSpace(("a", "b", "c"))
    lone = space.event("a")
    belief = Belief(space, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
    fam = TableFamily(space, {lone: belief}, {lone: UtilityFunction({"x": 0, "y": 0, "z": 1})})
    check = check_consequentialism(fam, lone)
    assert not check
    assert not brute_consequentialism(fam, lone)
    assert check == oracle_consequentialism(fam, lone)
    assert_consequentialism_witness(fam, lone, check)
    f, forced, verdict = check.witness
    x, mixed = Lottery({"x": 1}), Lottery({"x": Fraction(1, 2), "z": Fraction(1, 2)})
    assert f == Act.constant(space, x)
    assert forced == Act(space, {"a": x, "b": mixed, "c": mixed})
    assert verdict is Preference.SECOND
    # the x/y sample cannot see it
    assert sampled_consequentialism(fam, lone, default_act_pairs(space, OUTCOMES))


def test_a_third_outcome_breaks_consistency_where_x_and_y_tie():
    """u = {x: 0, y: 0, z: 1}; on {a, b} the belief is (1/4, 3/4) given S, (1/2, 1/2) given it."""
    space = StateSpace(("a", "b", "c"))
    e, sub = space.full_event, space.event("a", "b")
    u = UtilityFunction({"x": 0, "y": 0, "z": 1})
    b_e = Belief(space, {"a": Fraction(1, 4), "b": Fraction(3, 4)})
    fam = TableFamily(space, {e: b_e, sub: Belief.uniform_on(sub)}, {e: u, sub: u})
    check = check_conditional_consistency(fam, e, sub)
    assert not check
    assert not brute_conditional_consistency(fam, e, sub)
    assert check == oracle_conditional_consistency(fam, e, sub)
    assert_consistency_witness(fam, e, sub, check)
    f, g, h, _, _ = check.witness
    assert {o for act in (f, g) for lot in act.assignment for o, _ in lot.entries} == {"x", "z"}
    # the x/y mixtures cannot see it
    assert sampled_consistency(fam, e, sub, default_act_triples(space, OUTCOMES))


def test_a_utility_off_the_line_breaks_consistency_where_beliefs_agree():
    """u_a values x, y, z at 0, 1, 3 and u_e at 0, 1, 2; b_a is b_e's update."""
    space = StateSpace(("a", "b", "c"))
    e, sub = space.full_event, space.event("a", "b")
    b_e = Belief.uniform_on(e)
    u_e, u_a = UtilityFunction({"x": 0, "y": 1, "z": 2}), UtilityFunction({"x": 0, "y": 1, "z": 3})
    fam = TableFamily(space, {e: b_e, sub: bayes_update(b_e, sub)}, {e: u_e, sub: u_a})
    check = check_conditional_consistency(fam, e, sub)
    assert not check
    assert not brute_conditional_consistency(fam, e, sub)
    assert check == oracle_conditional_consistency(fam, e, sub)
    assert_consistency_witness(fam, e, sub, check)
    # u_a ties 2/3 x + 1/3 z with y, and u_e prefers y
    mixed = Lottery({"x": Fraction(2, 3), "z": Fraction(1, 3)})
    assert check.witness == (
        Act.constant(space, mixed),
        Act.constant(space, Lottery({"y": 1})),
        Act.constant(space, Lottery({"x": 1})),
        Preference.SECOND,
        Preference.INDIFFERENT,
    )
    assert sampled_consistency(fam, e, sub, default_act_triples(space, OUTCOMES))
    # one utility for both events, or an affine image of it, passes
    for image in (u_e, u_e.affine(3, -1)):
        agreeing = TableFamily(space, fam._beliefs, {e: u_e, sub: image})
        assert check_conditional_consistency(agreeing, e, sub)


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
    assert sampled_consistency(fam, e, a, half_grid)
    check = check_conditional_consistency(fam, e, a)
    assert not check
    assert not brute_conditional_consistency(fam, e, a)
    assert_consistency_witness(fam, e, a, check)


# ---------------------------------------------------------------------------
# every default witness against the sampling oracles, at |S| <= 8


class Uniformly:
    """The same belief and utility given every event, over given outcomes."""

    def __init__(self, belief, utility, outcomes):
        self._belief, self._utility, self._outcomes = belief, utility, outcomes

    def belief_given(self, e: Event) -> Belief:
        return self._belief

    def utility_given(self, e: Event) -> UtilityFunction:
        return self._utility

    def shared_outcomes(self):
        return self._outcomes


def random_belief(rng, space, within):
    """Small integer weights on ``within`` or, half the time, on every state."""
    n = len(space)
    states = [i for i in range(n) if within >> i & 1 and rng.random() < 0.5] or range(n)
    weights = [rng.randint(0, 3) if i in states else 0 for i in range(n)]
    if not any(weights):
        weights[rng.choice(list(states))] = 1
    total = sum(weights)
    return Belief(space, {s: Fraction(w, total) for s, w in zip(space.states, weights) if w})


def random_table_case(rng):
    """(family, e, a, utility family) with |S| in 1..8 and 1 to 4 outcome labels.

    Beliefs leak off their event or not; the a-conditional is the Bayes
    update of the e-conditional, possibly with mass moved between states
    past s5 (where the sample's bets stop, so only a built witness shows
    it), or drawn freely; e or a may be empty, a may lie outside e, and one
    in twenty cases puts e or a in another space.  Utility values lie in
    -2..2, so ties between outcomes are common.  The utility family has one
    to four orders, some positive affine images of order 0 and some not,
    each with a private outcome.
    """
    n = 8 if rng.random() < 0.25 else rng.randint(1, 7)
    labels = ("x", "y", "z", "w")[: rng.randint(1, 4)]
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    full = (1 << n) - 1

    def utility():
        return UtilityFunction({o: rng.randint(-2, 2) for o in labels})

    e_mask = rng.randint(0, full) if rng.random() < 0.1 else rng.randint(1, full)
    inside = [m for m in range(1, full + 1) if m & e_mask == m]
    a_mask = rng.choice(inside) if inside and rng.random() < 0.85 else rng.randint(0, full)
    b_e = random_belief(rng, space, e_mask)
    if b_e.mask_num(a_mask) and rng.random() < 0.4:
        b_a = bayes_update(b_e, Event(space, a_mask))
        mass = list(b_a.mass)
        late = [(i, 13 - i) for i in (6, 7) if i < n and mass[i]]  # (s6, s7) or (s7, s6)
        if n == 8 and late and rng.random() < 0.75:
            giver, taker = rng.choice(late)
            mass[giver], mass[taker] = mass[giver] / 2, mass[taker] + mass[giver] / 2
            b_a = Belief(space, {s: m for s, m in zip(space.states, mass) if m})
    else:
        b_a = random_belief(rng, space, a_mask)
    u_e = utility()
    u_a = u_e if rng.random() < 0.5 else utility()
    e, a = Event(space, e_mask), Event(space, a_mask)
    fallback = Uniformly(random_belief(rng, space, full), utility(), labels)
    fam = TableFamily(space, {a: b_a, e: b_e}, {a: u_a, e: u_e}, honest=fallback)
    if rng.random() < 0.05:
        foreign = StateSpace((*space.states, "extra")).event("s0")
        e, a = (foreign, a) if rng.random() < 0.5 else (e, foreign)

    tables = []
    for k in range(rng.randint(1, 4)):
        if k and rng.random() < 0.4:
            scale = rng.choice([1, 2, Fraction(1, 2)])
            table = dict(tables[0].affine(scale, rng.randint(-2, 2)).items)
        else:
            table = {o: rng.randint(-2, 3) for o in labels}
        tables.append(UtilityFunction({**table, f"private{k}": -9}))
    orders = StateSpace(tuple(f"t{k}" for k in range(len(tables))))
    hier = OSRepresentation(orders, [Belief(orders, {t: 1}) for t in orders.states])
    return fam, e, a, PreferenceFamily(hier, tables)


def outcome(check, *args):
    """("result", the check's result), or ("error", its error's type, message)."""
    try:
        return "result", check(*args)
    except Exception as error:
        return "error", type(error), str(error)


@pytest.mark.parametrize("seed", range(3))
def test_default_checks_match_the_sampling_oracles(seed):
    """Each default check returns what its oracle returns, error or result."""
    rng = random.Random(1900 + seed)
    seen = set()
    for _ in range(400):
        fam, e, a, utility_fam = random_table_case(rng)
        for name, check, oracle, args in (
            ("consequentialism", check_consequentialism, oracle_consequentialism, (fam, e)),
            (
                "consistency",
                check_conditional_consistency,
                oracle_conditional_consistency,
                (fam, e, a),
            ),
            (
                "constant_act",
                check_constant_act_agreement,
                fraction_constant_act_agreement,
                (utility_fam,),
            ),
        ):
            got = outcome(check, *args)
            assert got == outcome(oracle, *args), (name, args)
            kind, result = got[:2]
            seen.add((name, result.ok if kind == "result" else kind))
            if name == "consistency" and kind == "result" and not result:
                triples = default_act_triples(fam.space, fam.shared_outcomes())
                seen.add((name, "sampled" if not sampled_consistency(*args, triples) else "built"))
    # every check passed, failed and raised; consistency reported sampled and built witnesses
    assert len(seen) == 11, seen


# ---------------------------------------------------------------------------
# the sample's blind spot


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
    sampled = sampled_consistency(fam, e, a, default_act_triples(fam.space, fam.shared_outcomes()))
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
    assert sampled_consistency(fam, e, a, default_act_triples(space, fam.shared_outcomes()))
    check = check_conditional_consistency(fam, e, a)
    assert not check
    assert_consistency_witness(fam, e, a, check)
    f, g, h, under_e, under_a = check.witness
    assert f == Act(space, {s: Lottery({"y" if s == "s7" else "x": 1}) for s in space.states})
    assert g == h == Act.constant(space, Lottery({"x": 1}))
    assert (under_e, under_a) == (Preference.INDIFFERENT, Preference.FIRST)


@pytest.mark.parametrize("witness", ["grid", "built"])
def test_a_failing_check_builds_fractions_only_for_its_witness_lotteries(monkeypatch, witness):
    """The decision and the ranking run on integers; each distinct lottery is built once."""
    fam, e, a = eight_state_miss()
    if witness == "grid":  # the belief given {s0, s1} leaks onto s2, where a grid bet sits
        a = fam.space.event("s0", "s1")
        fam._beliefs[a] = Belief(fam.space, {"s0": Fraction(1, 2), "s2": Fraction(1, 2)})
    for event in (e, a):
        fam.belief_given(event), fam.utility_given(event)
    made = count_fractions(monkeypatch)
    check = check_conditional_consistency(fam, e, a)
    monkeypatch.undo()
    assert not check
    triples = default_act_triples(fam.space, fam.shared_outcomes())
    assert (witness == "grid") == (not sampled_consistency(fam, e, a, triples))
    lotteries = {id(lot): lot for act in check.witness[:3] for lot in act.assignment}.values()
    probabilities = {p for lot in lotteries for _, p in lot.entries}
    assert len(lotteries) <= 3
    # each lottery's probabilities of x and of y, and nothing else
    assert len(made) == 2 * len(lotteries)
    assert {Fraction(*args) for args in made} >= probabilities


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
        check_consequentialism(fam, Event(space, 0))
    with pytest.raises(ValidationError, match="two distinct outcomes"):
        check_consequentialism(fam, foreign)
    with pytest.raises(ValidationError, match="two distinct outcomes"):
        check_consequentialism(fam, space.event("h"))
    with pytest.raises(SpaceMismatch):
        check_conditional_consistency(fam, space.full_event, foreign)
    with pytest.raises(EmptyEvent):
        check_conditional_consistency(fam, space.full_event, Event(space, 0))
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


def test_default_paths_ask_the_family_once():
    fam, e, a = eight_state_miss()
    space = fam.space
    counter = AskCounter(fam)
    assert not check_conditional_consistency(counter, e, a)  # a built witness
    assert counter.asked == [("belief", e), ("utility", e), ("belief", a), ("utility", a)]
    counter.asked.clear()
    first = space.event("s0")
    assert check_conditional_consistency(counter, e, first)
    assert counter.asked == [("belief", e), ("utility", e), ("belief", first), ("utility", first)]

    lone = space.event("s0")
    leaky = AskCounter(
        TableFamily(space, {lone: Belief.uniform_on(space.full_event)}, {}, honest=fam._honest)
    )
    assert not check_consequentialism(leaky, lone)
    assert leaky.asked == [("utility", lone), ("belief", lone)]
    leaky.asked.clear()
    flat = UtilityFunction({"x": 1, "y": 1, "w": 0})
    assert check_consequentialism(TableFamily(space, {}, {lone: flat}, honest=leaky), lone)
    assert leaky.asked == []  # u constant on the shared outcomes: no belief needed
