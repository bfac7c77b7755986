"""Core object behavior: spaces, events, beliefs, acts, exact arithmetic."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefkit import (
    Act,
    Belief,
    Event,
    EmptyEvent,
    Lottery,
    MissingUtility,
    NullConditioning,
    Preference,
    SpaceMismatch,
    StateSpace,
    TooManyStates,
    UtilityFunction,
    ValidationError,
    bayes_update,
    compare_values,
    compose_act,
    seu_value,
)
from beliefkit.core import _lex_masks, as_fraction, lex_submasks, mask_indices
from helpers import fraction_bayes_update, fraction_belief, fraction_lottery


# ---------------------------------------------------------------------------
# strategies


@st.composite
def spaces(draw, max_states=5):
    n = draw(st.integers(1, max_states))
    return StateSpace(tuple(f"s{i}" for i in range(n)))


@st.composite
def weighted_beliefs(draw, space):
    weights = draw(
        st.lists(
            st.integers(0, 9), min_size=len(space), max_size=len(space)
        ).filter(any)
    )
    total = sum(weights)
    return Belief(
        space,
        {s: Fraction(w, total) for s, w in zip(space.states, weights) if w},
    )


@st.composite
def belief_with_space(draw):
    space = draw(spaces())
    return space, draw(weighted_beliefs(space))


@st.composite
def spelled_masses(draw, space, weights):
    """weights / sum(weights) as a mass map, each mass spelled at random.

    A mass is an int where it can be one (0 may also be left out), else a
    reduced Fraction or an unreduced spelling such as Fraction(2, 4).
    """
    total = sum(weights)
    masses = {}
    for label, w in zip(space.states, weights):
        if w % total == 0 and draw(st.booleans()):
            if w or draw(st.booleans()):
                masses[label] = w // total
        else:
            scale = draw(st.sampled_from((1, 1, 2, 6)))
            masses[label] = Fraction(w * scale, total * scale)
    return masses


@st.composite
def one_belief_two_spellings(draw):
    space = draw(spaces())
    weights = draw(
        st.lists(st.integers(0, 12), min_size=len(space), max_size=len(space)).filter(any)
    )
    first, second = draw(spelled_masses(space, weights)), draw(spelled_masses(space, weights))
    return space, weights, first, second


@st.composite
def nested_event_chain(draw):
    """A belief plus events G <= F <= E, all with positive mass."""
    space, mu = draw(belief_with_space())
    support = mask_indices(mu.support_mask)
    e_extra = draw(st.lists(st.integers(0, len(space) - 1), max_size=3))
    g_pick = draw(st.integers(0, len(support) - 1))
    f_picks = draw(st.lists(st.integers(0, len(support) - 1), max_size=3))
    g_mask = 1 << support[g_pick]
    f_mask = g_mask
    for i in f_picks:
        f_mask |= 1 << support[i]
    e_mask = f_mask
    for i in e_extra:
        e_mask |= 1 << i
    return mu, Event(space, e_mask), Event(space, f_mask), Event(space, g_mask)


# ---------------------------------------------------------------------------
# construction and validation


def test_state_space_rejects_duplicates_and_blanks():
    with pytest.raises(ValidationError):
        StateSpace(("a", "a"))
    with pytest.raises(ValidationError):
        StateSpace(("a", ""))
    with pytest.raises(ValidationError):
        StateSpace(())


def test_as_fraction_rejects_floats_and_bools():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction(Fraction(1, 7)) == Fraction(1, 7)
    with pytest.raises(ValidationError):
        as_fraction(0.5)
    with pytest.raises(ValidationError):
        as_fraction(True)


def test_belief_masses_must_sum_to_one():
    space = StateSpace(("a", "b"))
    with pytest.raises(ValidationError):
        Belief(space, {"a": Fraction(1, 2)})
    with pytest.raises(ValidationError):
        Belief(space, {"a": Fraction(1, 2), "b": Fraction(2, 3)})


def test_belief_rejects_negative_mass_and_unknown_labels():
    space = StateSpace(("a", "b"))
    with pytest.raises(ValidationError):
        Belief(space, {"a": Fraction(3, 2), "b": Fraction(-1, 2)})
    with pytest.raises(ValidationError):
        Belief(space, {"a": Fraction(1, 2), "z": Fraction(1, 2)})


BROKEN = ("zero", "negative", "sum", "label", "float", "bool", "str")


def seeded_masses(rng, labels, kind):
    """Masses on some of ``labels``, valid or broken one way, in a random key order.

    ``kind`` is "valid" or one of BROKEN: an extra zero mass (still valid),
    a negated mass, a doubled mass, a mass moved to an unknown label, or
    one value spelled as a float, a bool or a string.  Values are
    Fractions or ints.
    """
    chosen = rng.sample(labels, rng.randint(1, len(labels)))
    weights = [rng.randint(1, 6) for _ in chosen]
    total = sum(weights)
    items = [[label, Fraction(w, total)] for label, w in zip(chosen, weights)]
    if len(items) == 1:
        items[0][1] = rng.choice([1, Fraction(1)])
    target = rng.choice(items)
    if kind == "zero":
        items.append([rng.choice(labels), rng.choice([0, Fraction(0)])])
    elif kind == "negative":
        target[1] = -target[1]
    elif kind == "sum":
        target[1] = 2 * target[1]
    elif kind == "label":
        target[0] = "nowhere"
    elif kind in ("float", "bool", "str"):
        target[1] = {"float": float, "bool": bool, "str": str}[kind](target[1])
    rng.shuffle(items)
    return dict(items)


def built(construct, *args):
    """("result", the object), or ("error", its error's type, message)."""
    try:
        return "result", construct(*args)
    except Exception as error:
        return "error", type(error), str(error)


@pytest.mark.parametrize("seed", range(2))
def test_constructors_match_their_fraction_oracles(seed):
    """``Belief`` and ``Lottery`` decide in integers what the Fraction bodies decided."""
    rng = random.Random(2000 + seed)
    space = StateSpace(tuple(f"s{i}" for i in range(6)))
    outcomes = ["w", "x", "y", "z"]
    seen = set()
    for _ in range(600):
        kind = rng.choice(("valid",) * 3 + BROKEN)
        for construct, oracle, args in (
            (Belief, fraction_belief, (space, seeded_masses(rng, list(space.states), kind))),
            (Lottery, fraction_lottery, (seeded_masses(rng, outcomes, kind),)),
        ):
            got, want = built(construct, *args), built(oracle, *args)
            seen.add((construct.__name__, kind, got[0]))
            if want[0] == "error":
                assert got == want, (kind, args)
                continue
            assert got[0] == "result", (kind, args, got)
            mine, theirs = got[1], want[1]
            if construct is Belief:
                assert (mine.nums, mine.den, mine.support_mask) == (
                    theirs.nums,
                    theirs.den,
                    theirs.support_mask,
                )
            else:
                assert mine.entries == theirs.entries
                assert all(type(p) is Fraction for _, p in mine.entries)
            assert mine == theirs and hash(mine) == hash(theirs)
    # each constructor built and refused; an unknown outcome label is no error
    assert {(name, result) for name, _, result in seen} == {
        (name, result) for name in ("Belief", "Lottery") for result in ("result", "error")
    }
    assert ("Belief", "label", "error") in seen and ("Lottery", "label", "result") in seen


def test_uniform_beliefs_match_the_fraction_oracle():
    space = StateSpace(tuple(f"s{i}" for i in range(5)))
    for event in space.events():
        share = Fraction(1, len(event))
        want = fraction_belief(space, {s: share for s in event.members})
        got = Belief.uniform_on(event)
        assert (got.nums, got.den, got.support_mask) == (want.nums, want.den, want.support_mask)
        assert got == want and hash(got) == hash(want)
    with pytest.raises(EmptyEvent):
        Belief.uniform_on(Event(space, 0))


@given(one_belief_two_spellings())
@settings(max_examples=200, deadline=None)
def test_beliefs_store_reduced_integer_numerators(case):
    space, weights, first, second = case
    mu, nu = Belief(space, first), Belief(space, second)
    assert mu.den > 0
    assert gcd(mu.den, *mu.nums) == 1
    total = sum(weights)
    assert mu.mass == tuple(Fraction(w, total) for w in weights)
    assert all(mu.mass[i] == Fraction(n, mu.den) for i, n in enumerate(mu.nums))
    assert mu.support_mask == sum(1 << i for i, n in enumerate(mu.nums) if n)
    # two spellings of one distribution store the same integers
    assert (mu.den, mu.nums) == (nu.den, nu.nums)
    assert mu == nu
    assert hash(mu) == hash(nu)
    # the same integers over another space are another belief
    other = StateSpace(tuple(f"t{i}" for i in range(len(space))))
    moved = Belief(other, dict(zip(other.states, mu.mass)))
    assert (moved.den, moved.nums) == (mu.den, mu.nums)
    assert moved != mu


def test_canonical_event_order_is_lexicographic_on_index_tuples():
    space = StateSpace(("a", "b", "c"))
    order = [e.members for e in space.events()]
    assert order == [
        ("a",),
        ("a", "b"),
        ("a", "b", "c"),
        ("a", "c"),
        ("b",),
        ("b", "c"),
        ("c",),
    ]


def sorted_subsets(indices) -> list[int]:
    """Oracle for the canonical order: nonempty subsets sorted by index tuple."""
    indices = sorted(indices)
    subsets = [c for size in range(1, len(indices) + 1) for c in combinations(indices, size)]
    return [sum(1 << i for i in c) for c in sorted(subsets)]


@pytest.mark.parametrize("n", range(11))
def test_canonical_masks_match_the_sorted_subsets(n):
    expected = sorted_subsets(range(n))
    assert _lex_masks(range(n)) == expected
    assert lex_submasks((1 << n) - 1) == (0, *expected)
    if n:
        space = StateSpace(tuple(f"s{i}" for i in range(n)))
        assert space.canonical_masks() == tuple(expected)


def test_lex_submasks_of_scattered_masks_match_the_sorted_subsets():
    rng = random.Random("lex-submasks")
    for _ in range(200):
        indices = rng.sample(range(40), rng.randint(0, 10))
        mask = sum(1 << i for i in indices)
        assert lex_submasks(mask) == (0, *sorted_subsets(indices))
        assert _lex_masks(sorted(indices)) == sorted_subsets(indices)


@pytest.mark.parametrize("n", range(1, 11))
def test_each_canonical_mask_follows_its_prefix(n):
    """A mask's prefix (its top state removed) is the latest earlier mask one
    state shorter: the order is a preorder walk of the prefix tree."""
    latest = {0: 0}  # by size, the latest mask seen
    for mask in StateSpace(tuple(f"s{i}" for i in range(n))).canonical_masks():
        size = mask.bit_count()
        assert latest[size - 1] == mask ^ (1 << (mask.bit_length() - 1))
        latest[size] = mask


def test_enumeration_cap_via_environment(monkeypatch):
    space = StateSpace(tuple(f"s{i}" for i in range(6)))
    monkeypatch.setenv("BELIEFKIT_MAX_STATES", "5")
    with pytest.raises(TooManyStates):
        space.canonical_masks()
    monkeypatch.setenv("BELIEFKIT_MAX_STATES", "6")
    assert len(space.canonical_masks()) == 63
    monkeypatch.setenv("BELIEFKIT_MAX_STATES", "zero")
    fresh = StateSpace(tuple(f"t{i}" for i in range(2)))
    with pytest.raises(ValidationError):
        fresh.canonical_masks()


def test_event_algebra_matches_set_semantics():
    space = StateSpace(("a", "b", "c", "d"))
    e = space.event("a", "c")
    f = space.event("c", "d")
    assert e.members == ("a", "c") and len(e) == 2
    assert space.event("c") <= e
    assert not e <= f
    assert space.event("d", "c") == f
    assert "a" in e and "b" not in e


def test_cross_space_operations_raise():
    e = StateSpace(("a", "b")).event("a")
    f = StateSpace(("a", "c")).event("a")
    with pytest.raises(SpaceMismatch):
        e <= f


# ---------------------------------------------------------------------------
# Bayes updating


def test_bayes_update_coin():
    space = StateSpace(("h", "t", "e"))
    mu = Belief(space, {"h": Fraction(1, 4), "t": Fraction(1, 4), "e": Fraction(1, 2)})
    posterior = bayes_update(mu, space.event("h", "t"))
    assert posterior.mass_of("h") == Fraction(1, 2)
    assert posterior.mass_of("t") == Fraction(1, 2)
    assert posterior.mass_of("e") == 0


def test_bayes_update_error_cases():
    space = StateSpace(("h", "t", "e"))
    mu = Belief(space, {"h": Fraction(1, 2), "t": Fraction(1, 2)})
    with pytest.raises(EmptyEvent):
        bayes_update(mu, Event(space, 0))
    with pytest.raises(NullConditioning):
        bayes_update(mu, space.event("e"))


@st.composite
def belief_and_events(draw):
    """A belief whose masses have unlike denominators, and two events."""
    space = draw(spaces(max_states=6))
    weights = draw(
        st.lists(st.integers(0, 60), min_size=len(space), max_size=len(space)).filter(any)
    )
    total = sum(weights)
    mu = Belief(space, {s: Fraction(w, total) for s, w in zip(space.states, weights) if w})
    full = (1 << len(space)) - 1
    return mu, Event(space, draw(st.integers(1, full))), Event(space, draw(st.integers(1, full)))


def assert_same_posterior(got: Belief, want: Belief):
    assert got == want
    assert hash(got) == hash(want)
    assert got.support_mask == want.support_mask
    # the seeded numerators equal the ones Belief computes from the masses
    rebuilt = Belief(got.space, dict(got.items()))
    assert (got.den, got.nums) == (rebuilt.den, rebuilt.nums)


@given(belief_and_events())
@settings(max_examples=200, deadline=None)
def test_bayes_update_matches_the_fraction_oracle(case):
    mu, e, f = case
    if not e.mask & mu.support_mask:
        return
    got = bayes_update(mu, e)
    assert_same_posterior(got, fraction_bayes_update(mu, e))
    if f.mask & got.support_mask:
        # a posterior's own seeded numerators feed the next update
        assert_same_posterior(bayes_update(got, f), fraction_bayes_update(got, f))


def test_bayes_update_errors_match_the_fraction_oracle():
    space = StateSpace(("h", "t", "e"))
    mu = Belief(space, {"h": Fraction(1, 3), "t": Fraction(2, 3)})
    cases = (
        (StateSpace(("h", "t")).event("h"), SpaceMismatch),
        (Event(space, 0), EmptyEvent),
        (space.event("e"), NullConditioning),
    )
    for e, error in cases:
        with pytest.raises(error) as got:
            bayes_update(mu, e)
        with pytest.raises(error) as want:
            fraction_bayes_update(mu, e)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


@given(nested_event_chain())
def test_bayes_tower_property(chain):
    """Conditioning in one step or through an intermediate event agrees."""
    mu, e, f, g = chain
    assert bayes_update(mu, f) == bayes_update(bayes_update(mu, e), f)
    direct = bayes_update(mu, g)
    assert direct == bayes_update(bayes_update(mu, f), g)
    assert direct.prob(g) == 1


@given(belief_with_space())
def test_update_on_full_space_is_identity(pair):
    space, mu = pair
    assert bayes_update(mu, space.full_event) == mu
    # an event holding the whole support returns the belief itself
    assert bayes_update(mu, space.full_event) is mu
    assert bayes_update(mu, Event(space, mu.support_mask)) is mu


@st.composite
def two_beliefs_and_a_weight(draw):
    space = draw(spaces(max_states=6))
    a, b = draw(weighted_beliefs(space)), draw(weighted_beliefs(space))
    den = draw(st.integers(1, 9))
    return a, b, Fraction(draw(st.integers(0, den)), den)


@given(two_beliefs_and_a_weight())
@settings(max_examples=200, deadline=None)
def test_belief_mix_matches_the_fraction_oracle(case):
    a, b, alpha = case
    masses = {s: alpha * x + (1 - alpha) * y for (s, x), (_, y) in zip(a.items(), b.items())}
    assert_same_posterior(a.mix(alpha, b), Belief(a.space, {s: v for s, v in masses.items() if v}))


def test_belief_mix_checks_its_weight_and_space():
    space = StateSpace(("a", "b"))
    mu = Belief.uniform_on(space.full_event)
    assert mu.mix(1, Belief(space, {"a": 1})) == mu
    for alpha in (Fraction(3, 2), -1, 0.5):
        with pytest.raises(ValidationError):
            mu.mix(alpha, mu)
    with pytest.raises(SpaceMismatch):
        mu.mix(Fraction(1, 2), Belief.uniform_on(StateSpace(("a", "c")).full_event))


# ---------------------------------------------------------------------------
# acts, lotteries, utility


def test_lottery_mix_is_exact():
    """A mixture spelled outcome by outcome keeps exact thirds; a weight past 1 is refused."""
    a, b = dict(Lottery({"x": 1}).items()), dict(Lottery({"y": 1}).items())

    def mix(alpha):
        return Lottery({o: alpha * a.get(o, 0) + (1 - alpha) * b.get(o, 0) for o in "xy"})

    mixed = mix(Fraction(1, 3))
    assert mixed.items() == (("x", Fraction(1, 3)), ("y", Fraction(2, 3)))
    assert mixed == Lottery({"y": Fraction(2, 3), "x": Fraction(1, 3)})
    with pytest.raises(ValidationError):
        mix(Fraction(3, 2))


def test_utility_expected_value():
    u = UtilityFunction({"x": 0, "y": Fraction(5)})
    lot = Lottery({"x": Fraction(1, 5), "y": Fraction(4, 5)})
    assert u.expected(lot) == Fraction(4)


def test_seu_requires_full_outcome_coverage():
    space = StateSpace(("a", "b"))
    mu = Belief(space, {"a": 1})
    f = Act(space, {"a": Lottery({"x": 1}), "b": Lottery({"z": 1})})
    u = UtilityFunction({"x": 1})
    with pytest.raises(MissingUtility):
        seu_value(u, mu, f)


@settings(max_examples=60)
@given(belief_with_space(), st.integers(0, 4), st.integers(0, 4), st.integers(0, 8))
def test_seu_mixture_linearity(pair, i, j, num):
    space, mu = pair
    u = UtilityFunction({"x": 0, "y": 1})
    lots = [Lottery({"x": Fraction(k, 4), "y": Fraction(4 - k, 4)}) for k in range(5)]
    f = Act(space, {s: lots[(i + space.index(s)) % 5] for s in space.states})
    g = Act(space, {s: lots[(j + 2 * space.index(s)) % 5] for s in space.states})
    alpha = Fraction(num, 8)

    def mixed_at(state):
        # the statewise mixture alpha * f + (1 - alpha) * g, outcome by outcome
        p_f, p_g = dict(f.lottery_at(state).items()), dict(g.lottery_at(state).items())
        return Lottery({o: alpha * p_f.get(o, 0) + (1 - alpha) * p_g.get(o, 0) for o in "xy"})

    mixed = seu_value(u, mu, Act(space, {s: mixed_at(s) for s in space.states}))
    assert mixed == alpha * seu_value(u, mu, f) + (1 - alpha) * seu_value(u, mu, g)


@given(belief_with_space(), st.integers(0, 30))
def test_null_events_are_behaviorally_irrelevant(pair, mask_seed):
    """Two acts differing only on a null event get the same value."""
    space, mu = pair
    a = Event(space, mask_seed % (1 << len(space)) & ~mu.support_mask)
    u = UtilityFunction({"x": 0, "y": 1})
    f = Act.constant(space, Lottery({"x": 1}))
    g = compose_act(Act.constant(space, Lottery({"y": 1})), a, f)
    assert mu.prob(a) == 0
    assert seu_value(u, mu, f) == seu_value(u, mu, g)


def test_compose_act_picks_sides():
    space = StateSpace(("a", "b", "c"))
    f = Act.constant(space, Lottery({"x": 1}))
    g = Act.constant(space, Lottery({"y": 1}))
    h = compose_act(f, space.event("b"), g)
    assert h.lottery_at("b") == Lottery({"x": 1})
    assert h.lottery_at("a") == Lottery({"y": 1})
    assert h.lottery_at("c") == Lottery({"y": 1})


def test_compare_values_enum():
    assert compare_values(Fraction(2), Fraction(1)) is Preference.FIRST
    assert compare_values(Fraction(1), Fraction(2)) is Preference.SECOND
    assert compare_values(Fraction(1), Fraction(1)) is Preference.INDIFFERENT
    assert Preference.FIRST.value == "first"
