"""Score-based prior selection and the two weight constructions."""

import random
from fractions import Fraction
from itertools import accumulate
from math import gcd

import pytest

from beliefkit import (
    AmbiguousArgmax,
    Belief,
    EpsOsConstruction,
    HTRepresentation,
    IncompleteCoverage,
    NoPriorExceedsThreshold,
    OSRepresentation,
    SelectionBranch,
    StateSpace,
    ValidationError,
    eps_os_construction,
    eps_os_update,
    ht_rule,
    ht_select,
    os_rule,
    os_to_ht,
    os_update,
    rules_equal,
    surprise_order,
    surprise_partition,
    validate_cps,
)
from helpers import (
    coin_hierarchy,
    count_fractions,
    random_canonical_os,
    random_overlapping_os,
)


@pytest.fixture
def coin():
    return coin_hierarchy()


@pytest.fixture
def skewed(coin):
    """Hand-picked weights that overrule the hierarchy order on some events."""
    return HTRepresentation(
        coin.space,
        coin.priors,
        (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
        0,
    )


def test_representation_validation(coin):
    space, priors = coin.space, coin.priors
    with pytest.raises(ValidationError):
        HTRepresentation(space, priors, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 3)))
    with pytest.raises(ValidationError):
        HTRepresentation(space, priors, (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
    with pytest.raises(ValidationError):
        HTRepresentation(space, priors, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)), 1)
    with pytest.raises(ValidationError):
        HTRepresentation(
            space,
            (priors[0], priors[1], priors[1]),
            (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
        )


def test_select_uses_bayes_on_expected_events(skewed):
    space = skewed.space
    trace, belief = ht_select(skewed, space.event("h", "t", "e"))
    assert trace.branch is SelectionBranch.BAYESIAN
    assert trace.chosen == 0
    assert belief == Belief(space, {"h": Fraction(1, 2), "t": Fraction(1, 2)})


def test_select_scores_overrule_hierarchy_order(skewed):
    """The deeper prior wins on the short event, the shallow one on the long."""
    space = skewed.space
    a = space.event("el", "l1", "l2")
    trace_a, belief_a = ht_select(skewed, a)
    assert trace_a.branch is SelectionBranch.ARGMAX
    assert trace_a.scores == (0, Fraction(1, 24), Fraction(1, 6))
    assert trace_a.chosen == 2
    assert belief_a == Belief(space, {"l1": Fraction(1, 2), "l2": Fraction(1, 2)})

    e = space.event("e", "el", "l1", "l2")
    trace_e, belief_e = ht_select(skewed, e)
    assert trace_e.scores == (0, Fraction(1, 3), Fraction(1, 6))
    assert trace_e.chosen == 1
    assert belief_e == Belief(space, {"e": Fraction(7, 8), "el": Fraction(1, 8)})


def test_skewed_weights_break_the_chain_rule(skewed, coin):
    report = validate_cps(ht_rule(skewed))
    assert report.status == "violation"
    w = report.witness
    assert w.e.members == ("e", "el", "l1")
    assert w.f.members == ("el", "l1")
    assert w.g.members == ("el",)
    assert w.lhs == Fraction(1, 8)
    assert w.rhs == 0

    check = rules_equal(os_rule(coin), ht_rule(skewed))
    assert not check
    assert check.witness.members == ("el", "l1")


def test_tied_scores_raise_with_the_tie_reported():
    space = StateSpace(("a", "b", "c"))
    rep = HTRepresentation(
        space,
        (Belief(space, {"a": 1}), Belief(space, {"b": 1}), Belief(space, {"c": 1})),
        (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
    )
    with pytest.raises(AmbiguousArgmax) as exc:
        ht_select(rep, space.event("b", "c"))
    assert exc.value.event == space.event("b", "c")
    assert exc.value.tied == (1, 2)
    with pytest.raises(AmbiguousArgmax):
        ht_rule(rep)


def test_weight_construction_on_the_coin(coin):
    ht = os_to_ht(coin)
    assert ht.eps == 0
    assert ht.priors == coin.priors
    assert ht.rho == (Fraction(64, 81), Fraction(16, 81), Fraction(1, 81))
    assert rules_equal(os_rule(coin), ht_rule(ht))


def test_constructed_weights_make_depth_win_strictly(coin):
    """On every event the selected prior is the surprise-order one, and its
    score strictly beats every deeper prior's."""
    ht = os_to_ht(coin)
    for e in coin.space.events():
        trace, belief = ht_select(ht, e)
        k = surprise_order(coin, e)
        assert trace.chosen == k
        assert belief == os_update(coin, e)
        for j in range(k + 1, len(ht.priors)):
            assert trace.scores[k] > trace.scores[j]


def test_weight_construction_on_a_small_corpus():
    """Disjoint supports, then 400 covering hierarchies whose supports may
    overlap: the rules agree, and each order's least score beats the next
    order's weight."""
    rng = random.Random(4242)
    corpus = [random_canonical_os(rng, max_states=6) for _ in range(20)]
    rng = random.Random("os-to-ht-overlapping")
    overlapping = [random_overlapping_os(rng, max_states=7) for _ in range(400)]
    assert sum(not hier.is_canonical for hier in overlapping) >= 200  # most overlap
    for hier in corpus + overlapping:
        ht = os_to_ht(hier)
        assert rules_equal(os_rule(hier), ht_rule(ht))
        for k, prior in enumerate(hier.priors[:-1]):
            assert ht.rho[k] * min(m for m in prior.mass if m) > ht.rho[k + 1]


def test_only_the_thresholded_construction_needs_disjoint_supports():
    space = StateSpace(("a", "b", "c"))
    mu0 = Belief(space, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
    mu1 = Belief(space, {"b": Fraction(1, 2), "c": Fraction(1, 2)})
    overlap = OSRepresentation(space, (mu0, mu1))
    assert os_to_ht(overlap).rho == (Fraction(4, 5), Fraction(1, 5))
    with pytest.raises(ValidationError) as err:
        eps_os_construction(overlap, 0)
    assert type(err.value) is ValidationError
    assert str(err.value) == "hierarchy priors must have pairwise disjoint supports"
    with pytest.raises(IncompleteCoverage) as err:
        os_to_ht(OSRepresentation(space, (mu0,)))
    assert str(err.value) == "hierarchy supports must jointly cover the space"


def test_thresholded_construction_coin_quarter(coin):
    built = eps_os_construction(coin, Fraction(1, 4))
    assert isinstance(built, EpsOsConstruction)
    assert built.ht.eps == Fraction(1, 4)
    assert built.cross_max == Fraction(1, 8)
    assert built.class_of == (0, 0, 0, 1, 1, 2, 2, 2)
    assert built.ht.rho == (
        Fraction(48, 235),
        Fraction(224, 1175),
        Fraction(208, 1175),
        Fraction(8, 75),
        Fraction(368, 3525),
        Fraction(177, 2350),
        Fraction(17, 235),
        Fraction(163, 2350),
    )
    assert built.ht.priors[0] == coin.priors[0]


def test_thresholded_construction_interval_discipline(coin):
    for eps in (0, Fraction(1, 8), Fraction(1, 4)):
        built = eps_os_construction(coin, eps)
        bounds = built.bounds
        for hi, lo in bounds:
            assert hi > lo > 0
        for (_, lo), (next_hi, _) in zip(bounds, bounds[1:]):
            assert lo > next_hi
        for i, k in enumerate(built.class_of):
            hi, lo = bounds[k]
            assert lo < built.ht.rho[i] < hi
        threshold = built.ht.eps
        assert bounds[-1][1] > threshold * bounds[0][0]


def test_thresholded_construction_edges_are_forward_and_intra_class(coin):
    for eps in (0, Fraction(1, 8), Fraction(1, 4)):
        built = eps_os_construction(coin, eps)
        for winner, loser in built.edges:
            assert winner < loser
            assert built.class_of[winner] == built.class_of[loser]
            assert built.ht.rho[winner] > built.ht.rho[loser]


def uneven_hierarchy(seed: int, sizes: tuple[int, ...]) -> OSRepresentation:
    """Priors over consecutive chunks of shuffled states: too big for the oracle."""
    rng = random.Random(seed)
    space = StateSpace(tuple(f"s{i}" for i in range(sum(sizes))))
    labels = list(space.states)
    rng.shuffle(labels)
    priors = []
    for lo, size in zip(accumulate((0, *sizes)), sizes):
        chunk = labels[lo : lo + size]
        weights = [rng.randint(1, 9) for _ in chunk]
        total = sum(weights)
        priors.append(Belief(space, {s: Fraction(w, total) for s, w in zip(chunk, weights)}))
    return OSRepresentation(space, priors)


@pytest.mark.parametrize("cut", (0, 4))
@pytest.mark.parametrize("eps", (0, Fraction(1, 8), Fraction(1, 4)), ids=str)
def test_thresholded_construction_past_the_oracle(cut, eps):
    """Postorder within each class, and edges are exactly its proper-subset
    pairs, listed by class in canonical order of winner, then loser."""
    sizes = (cut, 10 - cut) if cut else (10,)
    built = eps_os_construction(uneven_hierarchy(10 + cut, sizes), eps)
    supports = [prior.support_mask for prior in built.ht.priors]
    classes = {}
    for i, k in enumerate(built.class_of):
        classes.setdefault(k, []).append(i)
    want = set()
    for members in classes.values():
        masks = [supports[i] for i in members]
        postorder = sorted(masks, key=lambda m: (*[x for x in range(10) if m >> x & 1], 10))
        assert masks == postorder
        want |= {
            (w, l)
            for w in members
            for l in members
            if supports[l] != supports[w] and supports[l] & ~supports[w] == 0
        }
    assert all(w < l for w, l in want)
    edges = built.edges  # listed on each read
    assert len(set(edges)) == len(edges)
    assert set(edges) == want

    def canonical(i: int) -> list[int]:
        return [x for x in range(10) if supports[i] >> x & 1]

    # by class, then winners and each winner's losers in canonical order
    ordered = sorted(want, key=lambda pair: (built.class_of[pair[0]], *map(canonical, pair)))
    assert edges == tuple(ordered)


def test_edges_are_read_only_and_constructions_compare_by_value():
    h = uneven_hierarchy(14, (4, 6))
    built = eps_os_construction(h, Fraction(1, 8))
    with pytest.raises(AttributeError):
        built.edges = ()
    again = eps_os_construction(h, Fraction(1, 8))
    assert again is not built
    assert again == built and hash(again) == hash(built)
    assert again.edges == built.edges


@pytest.mark.parametrize("sizes", ((9, 1), (6, 3, 1), (10,), (6, 4, 2)), ids=str)
@pytest.mark.parametrize("eps", (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)), ids=str)
def test_thresholded_bookkeeping_past_the_oracle(sizes, eps):
    """Gap limits, cross-class maximum and interval chain by the direct scans.

    Each gap limit is the largest 1 - (least droppable numerator in s_i) /
    num(s_i) over the rows s_i, the cross-class maximum the largest
    num(part & s_b) / num(s_b) over a shallower row s_b and a part below
    the threshold, and the chain is rebuilt in Fractions.
    """
    os = uneven_hierarchy(sum(sizes), sizes)
    gaps, rows, nums = [], [], []
    for prior in os.priors:
        support = prior.support_mask
        states = [i for i in range(len(os.space)) if support >> i & 1]
        num = {
            m: sum(prior.nums[i] for i in states if m >> i & 1)
            for m in range(support + 1)
            if m & ~support == 0
        }
        cleared = [m for m in num if num[m] > eps * prior.den]
        drop = [i for i in states if support ^ 1 << i in cleared]
        limit = Fraction(0)
        for s_i in cleared:
            least = [prior.nums[i] for i in drop if s_i >> i & 1]
            if least:
                limit = max(limit, Fraction(num[s_i] - min(least), num[s_i]))
        gaps.append(limit)
        rows.append(cleared)
        nums.append(num)
    cross_max = Fraction(0)
    for num, cleared in zip(nums[:-1], rows[:-1]):
        below = [m for m in num if m not in cleared]
        for s_b in cleared:
            cross_max = max(cross_max, Fraction(max(num[p & s_b] for p in below), num[s_b]))
    threshold = max(cross_max, eps)
    bounds, upper = [], Fraction(1)
    for gap in gaps:
        lower = (max(threshold, upper * gap) + upper) / 2
        bounds.append((upper, lower))
        upper = (threshold + lower) / 2
    raw = [
        hi - (hi - lo) / (len(row) + 1) * pos
        for (hi, lo), row in zip(bounds, rows)
        for pos in range(1, len(row) + 1)
    ]
    total = sum(raw)

    built = eps_os_construction(os, eps)
    assert built.cross_max == cross_max
    assert built.bounds == tuple((hi / total, lo / total) for hi, lo in bounds)
    assert built.ht.eps == threshold
    assert built.ht.rho == tuple(value / total for value in raw)


def test_thresholded_rule_agrees_wherever_defined(coin):
    for eps in (0, Fraction(1, 8), Fraction(1, 4)):
        ht = eps_os_construction(coin, eps).ht
        rule = ht_rule(ht)
        part = surprise_partition(coin, eps)
        for events in part.classes:
            for e in events:
                assert rule[e] == eps_os_update(coin, eps, e)
        for e in part.undefined:
            with pytest.raises(NoPriorExceedsThreshold):
                eps_os_update(coin, eps, e)


def test_threshold_zero_construction_reports_zero(coin):
    assert eps_os_construction(coin, 0).ht.eps == 0
    assert eps_os_construction(coin, 0).cross_max == 0


def test_threshold_zero_construction_matches_plain_rule(coin):
    assert rules_equal(os_rule(coin), ht_rule(eps_os_construction(coin, 0).ht))


def assert_integer_weights(ht: HTRepresentation) -> None:
    """Reduced integer weights, read back as Fractions, and a public round trip."""
    assert ht.total > 0 and gcd(ht.total, *ht.weights) == 1
    assert ht.rho == tuple(Fraction(w, ht.total) for w in ht.weights)
    rebuilt = HTRepresentation(ht.space, ht.priors, ht.rho, ht.eps)
    assert rebuilt == ht and hash(rebuilt) == hash(ht)
    assert (rebuilt.weights, rebuilt.total) == (ht.weights, ht.total)


def test_constructed_weights_are_reduced_integers():
    rng = random.Random("integer-weights")
    for _ in range(40):
        h = random_canonical_os(rng, max_states=6)
        ht = os_to_ht(h)
        assert_integer_weights(ht)
        chain = [Fraction(1)]  # the weight chain in Fractions, as documented
        for prior in h.priors[:-1]:
            chain.append(chain[-1] * min(m for m in prior.mass if m) / 2)
        assert ht.rho == tuple(v / sum(chain) for v in chain)
        for eps in (0, Fraction(1, 8), Fraction(1, 3)):
            assert_integer_weights(eps_os_construction(h, eps).ht)


def test_public_constructor_errors_keep_their_types_and_messages(coin):
    space, priors = coin.space, coin.priors
    cases = [
        ((Fraction(3, 2), Fraction(-1, 4), Fraction(-1, 4)), "weights must be strictly positive"),
        ((Fraction(1, 2), Fraction(1, 2), 0), "weights must be strictly positive"),
        ((Fraction(1, 2), Fraction(1, 3), Fraction(1, 3)), "weights must sum to 1, got 7/6"),
        ((1, 1, 1), "weights must sum to 1, got 3"),
        (
            (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
            "the first prior's weight must be strictly maximal",
        ),
        (
            (0.5, Fraction(1, 4), Fraction(1, 4)),
            "expected an exact rational (int or Fraction), got float",
        ),
        ((Fraction(1, 2), Fraction(1, 2)), "need exactly one weight per prior"),
    ]
    for rho, message in cases:
        with pytest.raises(ValidationError) as err:
            HTRepresentation(space, priors, rho)
        assert type(err.value) is ValidationError and str(err.value) == message


@pytest.mark.parametrize("sizes", ((8,), (4, 4), (3, 3, 2)), ids=str)
def test_construction_builds_fractions_only_for_its_bookkeeping(monkeypatch, sizes):
    """At most 2 per class (the bounds) and 3 more; ``ht_rule`` builds none."""
    h, eps = uneven_hierarchy(8, sizes), Fraction(1, 4)
    built = count_fractions(monkeypatch)
    construction = eps_os_construction(h, eps)
    monkeypatch.undo()
    assert len(built) <= 2 * len(sizes) + 3
    assert len(construction.ht.priors) > 2 * len(sizes) + 3  # one per weight would show
    for ht in (construction.ht, os_to_ht(h)):
        built = count_fractions(monkeypatch)
        rule = ht_rule(ht)
        monkeypatch.undo()
        assert built == []
        assert len(rule) == 255
