"""SEU preference families and the computational axiom checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefkit import (
    Act,
    Belief,
    DegenerateBase,
    EmptyEvent,
    Event,
    InfeasibleSubevent,
    Lottery,
    OSRepresentation,
    Preference,
    PreferenceFamily,
    SpaceMismatch,
    StateSpace,
    UtilityFunction,
    ValidationError,
    check_conditional_consistency,
    check_consequentialism,
    check_constant_act_agreement,
    check_risk_independence,
    default_event_pairs,
    os_prefer,
    preferences,
)
from helpers import (
    coin_hierarchy,
    count_fractions,
    fraction_constant_act_agreement,
    fraction_risk_independence,
    random_canonical_os,
)

XY = UtilityFunction({"x": 0, "y": 1})


@pytest.fixture
def coin_family():
    coin = coin_hierarchy()
    return PreferenceFamily(coin, (XY, XY, XY))


class SkewedFamily:
    """Family whose conditionals blend the top prior back in.

    Shaped like PreferenceFamily but deliberately dishonest: the reported
    conditional keeps half the ex-ante mass, so it can sit outside the
    conditioning event.  Used to show the axiom checks actually bite.
    """

    def __init__(self, fam: PreferenceFamily):
        self._fam = fam

    @property
    def space(self):
        return self._fam.space

    def belief_given(self, e: Event) -> Belief:
        honest = self._fam.belief_given(e)
        prior = self._fam.os.priors[0]
        space = self.space
        blended = {
            s: Fraction(1, 2) * prior.mass_of(s) + Fraction(1, 2) * honest.mass_of(s)
            for s in space.states
        }
        return Belief(space, {s: m for s, m in blended.items() if m})

    def utility_given(self, e: Event) -> UtilityFunction:
        return self._fam.utility_given(e)

    def shared_outcomes(self):
        return self._fam.shared_outcomes()


def two_level_family(u0: UtilityFunction, u1: UtilityFunction) -> PreferenceFamily:
    space = StateSpace(("s0", "s1"))
    hier = OSRepresentation(
        space, (Belief(space, {"s0": 1}), Belief(space, {"s1": 1}))
    )
    return PreferenceFamily(hier, (u0, u1))


# ---------------------------------------------------------------------------
# family plumbing


def test_family_validates_utility_count_and_shape(coin_family):
    coin = coin_family.os
    with pytest.raises(ValidationError):
        PreferenceFamily(coin, (XY, XY))
    with pytest.raises(ValidationError):
        PreferenceFamily(coin, (XY, XY, UtilityFunction({"x": 1, "z": 1})))


def test_utility_given_tracks_surprise_order():
    coin = coin_hierarchy()
    u_deep = UtilityFunction({"x": 0, "y": 2})
    fam = PreferenceFamily(coin, (XY, XY, u_deep))
    assert fam.utility_given(coin.space.event("h")) is XY
    assert fam.utility_given(coin.space.event("el", "l1")) is XY
    assert fam.utility_given(coin.space.event("l1", "l2")) is u_deep


def test_utility_given_computes_each_order_once(monkeypatch):
    calls = []
    real = preferences.surprise_order

    def counting(os, e):
        calls.append(e.mask)
        return real(os, e)

    monkeypatch.setattr(preferences, "surprise_order", counting)
    coin = coin_hierarchy()
    u_deep = UtilityFunction({"x": 0, "y": 2})
    fam = PreferenceFamily(coin, (XY, XY, u_deep))
    events = [coin.space.event(*labels) for labels in (("h",), ("el", "l1"), ("l1", "l2"))]
    for _ in range(3):
        assert [fam.utility_given(e) for e in events] == [XY, XY, u_deep]
    assert calls == [e.mask for e in events]


def test_cached_lookups_still_check_the_space(coin_family):
    coin_family.belief_given(coin_family.space.event("h"))
    coin_family.utility_given(coin_family.space.event("h"))
    foreign = StateSpace(("a", "b", "c", "d", "e", "f")).event("a")  # same mask as {h}
    with pytest.raises(SpaceMismatch):
        coin_family.belief_given(foreign)
    with pytest.raises(SpaceMismatch):
        coin_family.utility_given(foreign)


def test_os_prefer_matches_conditional_seu(coin_family):
    space = coin_family.space
    win_h = Act(
        space,
        {s: Lottery({("y" if s == "h" else "x"): 1}) for s in space.states},
    )
    half = Act.constant(space, Lottery({"x": Fraction(1, 2), "y": Fraction(1, 2)}))
    assert os_prefer(coin_family, space.full_event, win_h, half) is Preference.INDIFFERENT
    assert os_prefer(coin_family, space.event("h"), win_h, half) is Preference.FIRST
    assert os_prefer(coin_family, space.event("e", "el"), win_h, half) is Preference.SECOND


# ---------------------------------------------------------------------------
# axiom checks, honest side


def test_axioms_hold_on_the_coin_family(coin_family):
    for e, a in default_event_pairs(coin_family.os):
        assert check_consequentialism(coin_family, e)
        assert check_conditional_consistency(coin_family, e, a)
    assert check_constant_act_agreement(coin_family)
    report = check_risk_independence(coin_family)
    assert report
    assert report.coefficients == {
        0: (Fraction(1), Fraction(0)),
        1: (Fraction(1), Fraction(0)),
        2: (Fraction(1), Fraction(0)),
    }


def test_axioms_hold_on_a_small_corpus():
    rng = random.Random(1312)
    for _ in range(12):
        hier = random_canonical_os(rng, max_states=6)
        fam = PreferenceFamily(hier, tuple(XY for _ in hier.priors))
        for e, a in default_event_pairs(hier):
            assert check_consequentialism(fam, e)
            assert check_conditional_consistency(fam, e, a)


def test_affine_utility_changes_never_move_a_verdict(coin_family):
    coin = coin_family.os
    scaled = PreferenceFamily(
        coin,
        (XY.affine(2, 5), XY.affine(Fraction(1, 3), -1), XY.affine(7, 0)),
    )
    space = coin.space
    lots = [Lottery({"x": 1 - p, "y": p}) for p in (Fraction(0), Fraction(1, 2), Fraction(1))]
    acts = [Act.constant(space, lot) for lot in lots]
    acts.append(
        Act(space, {s: lots[2 if s in ("h", "el") else 0] for s in space.states})
    )
    for e, _ in default_event_pairs(coin):
        for f in acts:
            for g in acts:
                assert os_prefer(coin_family, e, f, g) is os_prefer(scaled, e, f, g)


# ---------------------------------------------------------------------------
# axiom checks, dishonest side


def test_blended_conditionals_fail_consequentialism(coin_family):
    skewed = SkewedFamily(coin_family)
    e = coin_family.space.event("e", "el")
    check = check_consequentialism(skewed, e)
    assert not check
    f, forced, verdict = check.witness
    assert verdict is not Preference.INDIFFERENT
    assert os_prefer(skewed, e, f, forced) is verdict


def test_blended_conditionals_fail_conditional_consistency(coin_family):
    skewed = SkewedFamily(coin_family)
    space = coin_family.space
    e = space.event("h", "t")
    a = space.event("h")
    check = check_conditional_consistency(skewed, e, a)
    assert not check
    f, g, h, under_e, under_a = check.witness
    assert under_e is not under_a


def test_consequentialism_guards_the_empty_event(coin_family):
    with pytest.raises(EmptyEvent):
        check_consequentialism(coin_family, coin_family.space.empty_event)


def test_conditional_consistency_guards_its_events(coin_family):
    space = coin_family.space
    with pytest.raises(InfeasibleSubevent):
        check_conditional_consistency(coin_family, space.full_event, space.event("el"))
    with pytest.raises(ValidationError):
        check_conditional_consistency(coin_family, space.event("h"), space.event("t"))
    with pytest.raises(EmptyEvent):
        check_conditional_consistency(coin_family, space.full_event, space.empty_event)


# ---------------------------------------------------------------------------
# risk independence and constant acts


def test_affine_utilities_fit_exactly():
    u0 = UtilityFunction({"p": 0, "q": 1, "r": 2})
    u1 = u0.affine(2, 3)
    report = check_risk_independence(two_level_family(u0, u1))
    assert report
    assert report.coefficients[1] == (Fraction(2), Fraction(3))


def test_quadratic_utility_breaks_the_fit():
    u0 = UtilityFunction({"p": 0, "q": 1, "r": 2})
    u1 = UtilityFunction({"p": 0, "q": 1, "r": 4})
    report = check_risk_independence(two_level_family(u0, u1))
    assert not report
    assert report.witness_order == 1
    assert report.witness_outcome == "r"
    assert report.coefficients is None


def test_negative_scale_is_rejected():
    u0 = UtilityFunction({"p": 0, "q": 1})
    u1 = UtilityFunction({"p": 1, "q": 0})
    report = check_risk_independence(two_level_family(u0, u1))
    assert not report
    assert report.witness_order == 1


def test_degenerate_base_raises():
    u0 = UtilityFunction({"p": 0, "q": 0, "extra": 1})
    u1 = UtilityFunction({"p": 3, "q": 5})
    with pytest.raises(DegenerateBase):
        check_risk_independence(two_level_family(u0, u1))


def test_constant_act_agreement_tracks_risk_independence():
    """Affine pairs agree on every mixture; non-affine pairs flip one."""
    u0 = UtilityFunction({"p": 0, "q": 1, "r": 2})
    good = two_level_family(u0, u0.affine(5, Fraction(-1, 2)))
    assert check_risk_independence(good)
    assert check_constant_act_agreement(good)

    flipped = two_level_family(u0, UtilityFunction({"p": 1, "q": 0, "r": 2}))
    assert not check_risk_independence(flipped)
    caa = check_constant_act_agreement(flipped)
    assert not caa
    p, q, order, verdict, bench = caa.witness
    assert order == 1
    assert verdict is not bench

    quad = two_level_family(u0, UtilityFunction({"p": 0, "q": 1, "r": 4}))
    probe = (
        Lottery({"p": Fraction(1, 2), "r": Fraction(1, 2)}),
        Lottery({"q": 1}),
    )
    assert not check_risk_independence(quad)
    # the decision needs no probe: it builds the probe pair as its witness
    caa = check_constant_act_agreement(quad)
    assert not caa
    assert caa.witness == (*probe, 1, Preference.FIRST, Preference.INDIFFERENT)


SHARED = ("p", "q", "r")


@st.composite
def utility_families(draw):
    """Two or three orders over shared outcomes p, q, r, one private outcome each.

    Shared values lie in 0..3, so every mixture that makes order 0
    indifferent between two outcomes and a third has a probability with
    denominator at most 3.  Order 0 may be constant on the shared outcomes;
    later orders are drawn freely or as positive affine images of order 0,
    with shared values in -2..20.  Each private outcome is worth -5, off
    that range, so every utility is non-constant.
    """
    orders = draw(st.integers(2, 3))
    values = st.lists(st.integers(0, 3), min_size=3, max_size=3)
    base = dict(zip(SHARED, draw(values)))
    utilities = [UtilityFunction({**base, "s0": -5})]
    for k in range(1, orders):
        if draw(st.booleans()):
            scale = Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 3)))
            shift = draw(st.integers(-2, 2))
            table = {o: scale * v + shift for o, v in base.items()}
        else:
            table = dict(zip(SHARED, draw(values)))
        utilities.append(UtilityFunction({**table, f"s{k}": -5}))
    space = StateSpace(tuple(f"t{k}" for k in range(orders)))
    hier = OSRepresentation(space, [Belief(space, {t: 1}) for t in space.states])
    return PreferenceFamily(hier, utilities)


def sixths_grid() -> list[Lottery]:
    """Every mixture of two shared outcomes at a multiple of 1/6."""
    grid = {Lottery({o: 1}) for o in SHARED}
    for i, x in enumerate(SHARED):
        for y in SHARED[i + 1 :]:
            grid.update(Lottery({x: Fraction(j, 6), y: 1 - Fraction(j, 6)}) for j in range(1, 6))
    return sorted(grid, key=repr)


def eu(u: UtilityFunction, lottery: Lottery) -> Fraction:
    return sum((prob * u.value(o) for o, prob in lottery.items()), Fraction(0))


def ranking(u: UtilityFunction, p: Lottery, q: Lottery) -> Preference:
    a, b = eu(u, p), eu(u, q)
    return Preference.FIRST if a > b else Preference.SECOND if b > a else Preference.INDIFFERENT


@settings(max_examples=150, deadline=None)
@given(utility_families())
def test_constant_act_decision_matches_a_lottery_grid(fam):
    """The check is a decision: it fails exactly when some pair on the
    sixths grid flips, and its witness is a genuine flip, the one the
    Fraction oracle reports: the five-point grid's first flip when there
    is one, else the pair built at the break."""
    grid = sixths_grid()
    base = fam.utilities[0]
    values = [[eu(u, p) for p in grid] for u in fam.utilities]
    flips = any(
        (v[i] > v[j]) != (values[0][i] > values[0][j])
        or (v[i] < v[j]) != (values[0][i] < values[0][j])
        for v in values[1:]
        for i in range(len(grid))
        for j in range(i + 1, len(grid))
    )
    result = check_constant_act_agreement(fam)
    assert bool(result) is not flips
    if result:
        return
    p, q, k, verdict, bench = result.witness
    assert verdict is ranking(fam.utilities[k], p, q)
    assert bench is ranking(base, p, q)
    assert verdict is not bench
    assert result == fraction_constant_act_agreement(fam)


def assert_fit_matches_the_oracle(fam):
    """Both checks report what the Fraction oracles report, field by field."""
    try:
        want = fraction_risk_independence(fam)
    except DegenerateBase:
        with pytest.raises(DegenerateBase):
            check_risk_independence(fam)
    else:
        got = check_risk_independence(fam)
        assert got == want  # holds, coefficients, witness order and outcome
        for pair in (got.coefficients or {}).values():
            assert all(type(c) is Fraction for c in pair)
    assert check_constant_act_agreement(fam) == fraction_constant_act_agreement(fam)


@settings(max_examples=150, deadline=None)
@given(utility_families())
def test_integer_fit_matches_the_fraction_oracle(fam):
    assert_fit_matches_the_oracle(fam)


PQR = UtilityFunction({"p": 0, "q": 1, "r": 2})
FLAT = UtilityFunction({"p": 1, "q": 1, "r": 1, "s": 0})


@pytest.mark.parametrize(
    "u0, u1",
    (
        (PQR, PQR.affine(-2, 1)),
        (PQR, UtilityFunction({"p": 3, "q": 3, "r": 3, "s": 0})),
        (FLAT, PQR),
        (FLAT, UtilityFunction({"p": 2, "q": 2, "r": 2, "t": 5})),
        (PQR.affine(Fraction(1, 7), 3), PQR.affine(Fraction(2, 3), Fraction(-1, 5))),
    ),
    ids=("negative-scale", "zero-scale", "constant-base", "both-constant", "denominators"),
)
def test_integer_fit_matches_the_fraction_oracle_at_the_edges(u0, u1):
    assert_fit_matches_the_oracle(two_level_family(u0, u1))


def test_passing_checks_build_fractions_only_for_coefficients(monkeypatch):
    """Honest families pass every check, and only risk independence builds
    Fractions: its reported coefficients, two per order."""
    rng = random.Random(1818)
    families = []
    for _ in range(12):
        hier = random_canonical_os(rng, max_states=6)
        base = UtilityFunction({"x": 0, "y": 1, "z": rng.randint(2, 5)})
        scales = [Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in hier.priors[1:]]
        families.append(
            PreferenceFamily(hier, [base, *(base.affine(c, rng.randint(-4, 4)) for c in scales)])
        )
    checks = {
        "consequentialism": lambda fam: [
            check_consequentialism(fam, e) for e, _ in default_event_pairs(fam.os)
        ],
        "conditional_consistency": lambda fam: [
            check_conditional_consistency(fam, e, a) for e, a in default_event_pairs(fam.os)
        ],
        "risk_independence": lambda fam: [check_risk_independence(fam)],
        "constant_act_agreement": lambda fam: [check_constant_act_agreement(fam)],
    }
    counts = {}
    for name, run in checks.items():
        built = count_fractions(monkeypatch)
        passed = all(all(run(fam)) for fam in families)
        monkeypatch.undo()
        assert passed, name
        counts[name] = len(built)
    orders = sum(len(fam.utilities) for fam in families)
    assert counts == {
        "consequentialism": 0,
        "conditional_consistency": 0,
        "risk_independence": 2 * orders,
        "constant_act_agreement": 0,
    }
