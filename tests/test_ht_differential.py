"""HT selection against a Fraction oracle, on seeded random representations.

The oracle is ``helpers.fraction_ht_select``: every prior's score
mass_j(E) * rho_j as a Fraction, a strict argmax and the tied indices.
``ht_select`` and ``ht_rule`` must agree with it on every event: the same
branch, scores and chosen prior, the same posterior, and on a tie the same
``AmbiguousArgmax`` event and ``tied`` tuple (for ``ht_rule``, at the
canonically first tied event).  Besides the seeded samples, every small
grid hierarchy is swept under every small top-heavy weight vector, and
both weight constructions are checked on the same grid.

``ht_rule``'s fast path, the OS rule of the weight order on disjoint
supports, keeps its table path as the oracle: the top prior's block and
``_rejected``'s events, built directly.  It must fire exactly where a
Fraction restatement of the weight-order test holds, and give the table
path's entries or tie on the grid and beside every bound.
"""

import random
from fractions import Fraction
from itertools import chain, combinations
from math import gcd

import pytest

from beliefkit import (
    AmbiguousArgmax,
    Belief,
    HTRepresentation,
    NoPriorExceedsThreshold,
    SelectionBranch,
    StateSpace,
    eps_os_construction,
    eps_os_update,
    ht_rule,
    ht_select,
    os_rule,
    os_to_ht,
    validate_cps,
)
from beliefkit.hypothesis_testing import _rejected, _weight_order
from beliefkit.rules import tabulate_traces
from helpers import (
    fraction_bayes_update,
    fraction_ht_select,
    grid_hierarchies,
    grid_weights,
    random_canonical_os,
    rule_entries,
)

SEED = 20261018
CASES = 200
GRID_EPS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
SEEDED_EPS = (Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def random_representation(rng: random.Random) -> HTRepresentation:
    """Covering priors with small weights (so scores tie often), eps mostly > 0."""
    n = rng.randint(1, 6)
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    rows = []
    for _ in range(rng.randint(1, 6)):
        row = [rng.randint(0, 2) for _ in range(n)]
        row[rng.randrange(n)] = rng.randint(1, 2)
        rows.append(row)
    for i in range(n):
        if not any(row[i] for row in rows):
            rows[rng.randrange(len(rows))][i] = 1
    priors = []
    for row in rows:
        total = sum(row)
        masses = {s: Fraction(w, total) for s, w in zip(space.states, row) if w}
        priors.append(Belief(space, masses))
    raw = [rng.randint(1, 2) for _ in rows[1:]]
    raw = [max(raw, default=0) + rng.randint(1, 2), *raw]
    rho = [Fraction(r, sum(raw)) for r in raw]
    if rng.random() < 0.2:
        eps = Fraction(0)
    else:
        den = rng.randint(2, 8)
        eps = Fraction(rng.randint(1, den - 1), den)
    return HTRepresentation(space, priors, rho, eps)


def assert_matches_oracle(ht: HTRepresentation, counts: dict):
    """Check ``ht_select`` on every event and ``ht_rule`` as a whole; tally what was reached.

    Returns the canonically first tied event with its tied priors, or None.

    ``counts["overwrite"]`` gains, for a rule with no tie, its thresholded
    argmax events on which the top prior has positive mass and a later
    prior wins: ``ht_rule`` fills those from the top prior's table first,
    so their entries rest on the rejected walk overwriting that fill.
    """
    first_tie = None
    expected = {}
    overwritten = 0
    for e in ht.space.events():
        bayesian, scores, tied = fraction_ht_select(ht, e)
        if len(tied) > 1:
            counts["tie"] += 1
            with pytest.raises(AmbiguousArgmax) as tie:
                ht_select(ht, e)
            assert tie.value.event == e
            assert tie.value.tied == tied
            if first_tie is None:
                first_tie = (e, tied)
            continue
        counts["bayesian" if bayesian else "argmax"] += 1
        trace, belief = ht_select(ht, e)
        assert trace.branch is (SelectionBranch.BAYESIAN if bayesian else SelectionBranch.ARGMAX)
        assert trace.chosen == tied[0]
        if scores is not None:
            assert trace.scores == scores
            overwritten += ht.eps > 0 and scores[0] > 0 and tied[0] != 0
        expected[e] = fraction_bayes_update(ht.priors[tied[0]], e)
        assert belief == expected[e]
    if first_tie is None:
        counts["overwrite"] += overwritten
        rule = ht_rule(ht)
        assert len(rule) == len(expected)
        for e, belief in expected.items():
            assert rule[e] == belief
    else:
        with pytest.raises(AmbiguousArgmax) as tie:
            ht_rule(ht)
        assert (tie.value.event, tie.value.tied) == first_tie
    return first_tie


def test_selection_matches_the_fraction_oracle():
    rng = random.Random(SEED)
    counts = {"tie": 0, "bayesian": 0, "argmax": 0, "overwrite": 0}
    tied_rules = thresholded_argmax = 0
    for _ in range(CASES):
        ht = random_representation(rng)
        ties, argmax = counts["tie"], counts["argmax"]
        assert_matches_oracle(ht, counts)
        tied_rules += counts["tie"] > ties
        thresholded_argmax += ht.eps > 0 and counts["argmax"] > argmax
    # the sample reaches both branches and many ties, positive thresholds included
    assert counts["bayesian"] > 1000 and counts["argmax"] > 1000 and counts["tie"] > 50
    assert tied_rules > 40
    assert thresholded_argmax > 100


def test_constructed_representations_match_the_fraction_oracle():
    """Thresholded constructions: up to 63 priors, no ties by design."""
    rng = random.Random(SEED + 1)
    counts = {"tie": 0, "bayesian": 0, "argmax": 0, "overwrite": 0}
    for _ in range(30):
        h = random_canonical_os(rng, max_states=6)
        eps = rng.choice((Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 3)))
        assert_matches_oracle(eps_os_construction(h, eps).ht, counts)
    assert counts["tie"] == 0
    assert counts["argmax"] > 100


def split_representation(rng: random.Random, straddler: bool) -> HTRepresentation:
    """A top prior on s, priors inside s and priors inside the rest t, and maybe one meeting both.

    Masses and weights are integers 1-3, so scores tie often; the priors
    inside t cover it, and the threshold is one of ``GRID_EPS``.
    """
    n = rng.randint(2, 6)
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    order = rng.sample(range(n), n)
    cut = rng.randint(1, n - 1)
    inside, rest = order[:cut], order[cut:]

    def prior(states) -> Belief:
        row = {space.states[i]: rng.randint(1, 3) for i in states}
        return Belief(space, {label: Fraction(w, sum(row.values())) for label, w in row.items()})

    supports = [rng.sample(inside, rng.randint(1, cut)) for _ in range(rng.randint(0, 2))]
    outer = [rng.sample(rest, rng.randint(1, n - cut)) for _ in range(rng.randint(1, 3))]
    for i in rest:
        if not any(i in support for support in outer):
            rng.choice(outer).append(i)
    supports += outer
    if straddler:
        supports.append([rng.choice(inside), rng.choice(rest)])
    rng.shuffle(supports)
    raw = [rng.randint(1, 3) for _ in supports]
    raw = [max(raw) + rng.randint(1, 2), *raw]
    rho = [Fraction(r, sum(raw)) for r in raw]
    priors = [prior(inside), *map(prior, supports)]
    return HTRepresentation(space, priors, rho, rng.choice(GRID_EPS))


def test_split_representations_match_the_fraction_oracle():
    """Priors on either side of the top support, and some meeting both, against the oracle.

    ``ht_rule`` scores a rejected event q | r (q inside the top support s,
    r outside it) by the best prior inside s on q, the best inside the
    rest on r, and per event any prior meeting both.  Every entry is
    checked, and the sample must reach: a rule whose first tie is at a
    q | r with both parts nonempty, between a prior inside s and one
    outside it; an event q | r before a rule's first tie (so it must not
    raise) where the losing side ties within itself below the winner; and
    an entry of a tie-free rule won by the prior meeting both sides.
    """
    rng = random.Random(SEED + 3)
    counts = {"tie": 0, "bayesian": 0, "argmax": 0, "overwrite": 0}
    across = side_ties = straddler_wins = 0
    for case in range(3 * CASES):
        ht = split_representation(rng, straddler=case % 3 == 0)
        s = ht.priors[0].support_mask
        sides = [(0 if not p.support_mask & ~s else 1 if not p.support_mask & s else 2) for p in ht.priors]
        first_tie = assert_matches_oracle(ht, counts)
        if first_tie is not None:
            e, tied = first_tie
            across += bool(e.mask & s and e.mask & ~s) and {sides[j] for j in tied} == {0, 1}
        for e in ht.space.events():  # up to the first tie, which every entry before must pass
            if first_tie is not None and e == first_tie[0]:
                break
            bayesian, scores, (winner,) = fraction_ht_select(ht, e)
            if bayesian:
                continue
            straddler_wins += first_tie is None and sides[winner] == 2
            if sides[winner] < 2 and e.mask & s and e.mask & ~s:
                losing = [score for score, side in zip(scores, sides) if side == 1 - sides[winner]]
                side_ties += losing.count(max(losing)) > 1 and max(losing) > 0
    # 734 ties and 5644 argmax entries; 32 first ties across, 20 side ties, 70 straddler wins
    assert counts["tie"] > 500 and counts["argmax"] > 5000
    assert across > 25 and side_ties > 15 and straddler_wins > 50


def grid_domain():
    """Every ``grid_hierarchies`` hierarchy at |S| <= 3 on the 1/2- and 1/3-grids: 217, 40 canonical."""
    for n in (1, 2, 3):
        for den in (2, 3):
            yield from grid_hierarchies(n, den)


def test_every_grid_hierarchy_under_every_grid_weight_matches_the_fraction_oracle():
    """Every grid hierarchy, each top-heavy weight vector from integers 1-3, each grid threshold.

    The domain: the 217 hierarchies of ``grid_domain`` (6 with one prior,
    67 with two, 144 with three), weighted by each of ``grid_weights``' 1,
    3 or 5 vectors, at each of the 4 thresholds in ``GRID_EPS``:
    4 * 927 = 3708 representations.  Every entry is the selected prior's update, and a
    rule with a tie raises ``AmbiguousArgmax`` at its canonically first
    tied event, with the oracle's ``tied``.  The tie-free rules hold 156
    entries where a positive threshold rejects a top prior of positive
    mass and a later prior wins, each checked against the oracle.
    """
    counts = {"tie": 0, "bayesian": 0, "argmax": 0, "overwrite": 0}
    tied_rules = representations = 0
    for hier in grid_domain():
        for rho in grid_weights(len(hier.priors)):
            for eps in GRID_EPS:
                ties = counts["tie"]
                assert_matches_oracle(HTRepresentation(hier.space, hier.priors, rho, eps), counts)
                tied_rules += counts["tie"] > ties
                representations += 1
    assert representations == 3708
    # both branches, and a tie in over a third of the rules
    assert counts["bayesian"] > 10000 and counts["argmax"] > 5000 and tied_rules > 1000
    # entries where the rejected walk overwrites the top prior's fill (156 of them)
    assert counts["overwrite"] > 150


def test_every_grid_hierarchy_is_reproduced_by_both_weight_constructions():
    """``os_to_ht`` on every grid hierarchy; ``eps_os_construction`` on the canonical ones.

    The domain is ``grid_domain``'s 217 hierarchies at |S| <= 3, and for
    the thresholded construction its 40 canonical ones at each of the 4
    thresholds in ``GRID_EPS``.  The rule of the constructed weights is the
    hierarchy's rule, and on every event the thresholded update defines,
    the constructed rule holds that update.
    """
    canonical = defined = 0
    for hier in grid_domain():
        assert ht_rule(os_to_ht(hier)) == os_rule(hier)
        if not hier.is_canonical:
            continue
        canonical += 1
        for eps in GRID_EPS:
            rule = ht_rule(eps_os_construction(hier, eps).ht)
            assert len(rule) == (1 << len(hier.space)) - 1
            for e in hier.space.events():
                try:
                    update = eps_os_update(hier, eps, e)
                except NoPriorExceedsThreshold:
                    continue
                defined += 1
                assert rule[e] == update
    assert canonical == 40 and defined


def test_weights_are_stored_as_reduced_integers():
    """rho is w / total, and a representation rebuilt from it is equal and
    hashes alike; representations differing in any field are told apart."""
    rng = random.Random(SEED + 2)
    hts = [random_representation(rng) for _ in range(CASES)]
    for ht in hts:
        assert ht.total > 0 and gcd(ht.total, *ht.weights) == 1
        assert ht.rho == tuple(Fraction(w, ht.total) for w in ht.weights)
        assert sum(ht.rho) == 1
        rebuilt = HTRepresentation(ht.space, ht.priors, ht.rho, ht.eps)
        assert rebuilt == ht and hash(rebuilt) == hash(ht)
    assert len(set(hts)) == len({(ht.space, ht.priors, ht.rho, ht.eps) for ht in hts})


def fraction_weight_order(ht: HTRepresentation) -> list[int] | None:
    """Oracle for ``_weight_order``: the weight-order test, in Fractions and over every pair.

    The top prior first and the others by decreasing weight, when the
    supports are pairwise disjoint and rho_k * m_k > rho_j for every k
    before j in that order (m_k the least positive mass of prior k; the
    top counts only when m_0 is at or below the threshold); else None.
    """
    supports = [prior.support_mask for prior in ht.priors]
    if any(a & b for a, b in combinations(supports, 2)):
        return None
    rho = ht.rho
    order = [0, *sorted(range(1, len(rho)), key=lambda j: -rho[j])]
    least = [min(m for m in prior.mass if m) for prior in ht.priors]
    for at, k in enumerate(order):
        if k == 0 and least[0] > ht.eps:
            continue
        if any(rho[k] * least[k] <= rho[j] for j in order[at + 1:]):
            return None
    return order


def ruled(build) -> tuple:
    """(entries by mask, None), or (None, (event, tied)) of the AmbiguousArgmax it raises."""
    try:
        rule = build()
    except AmbiguousArgmax as tie:
        return None, (tie.event, tie.tied)
    return rule_entries(rule), None


def assert_fast_path_matches_the_table(ht: HTRepresentation, counts: dict) -> None:
    """``ht_rule`` against its table path built directly, on every event; tally the path taken.

    The fast path fires exactly where ``fraction_weight_order`` holds, and
    then the rule is that order's blocks with no exception, no event ties,
    and ``validate_cps`` finds it valid with that order's priors.
    Otherwise a tie-free rule is the top prior's block and the rejected
    events.
    """
    order = _weight_order(ht)
    assert order == fraction_weight_order(ht)
    table = ruled(lambda: tabulate_traces(ht.space, ht.priors[:1], chain.from_iterable(_rejected(ht))))
    assert ruled(lambda: ht_rule(ht)) == table
    if order is None:
        counts["table"] += 1
        counts["tie"] += table[1] is not None
        if table[1] is None:
            rule = ht_rule(ht)
            assert [update for _, update, _ in rule._blocks] == [ht.priors[0]]
            assert rule._exceptions == dict(chain.from_iterable(_rejected(ht)))
        return
    counts["fast"] += 1
    rule = ht_rule(ht)
    assert rule._exceptions == {}
    assert [update for _, update, _ in rule._blocks] == [ht.priors[j] for j in order]
    validation = validate_cps(rule)
    n = len(ht.space)
    assert validation.status == "valid" and validation.triples == 4**n - 2**n
    assert validation.priors == tuple(ht.priors[j] for j in order)


def test_the_weight_order_fast_path_matches_the_table_path_on_the_grid():
    """Every disjoint grid hierarchy under every grid weight and threshold, both ``ht_rule`` paths.

    The domain: the 40 canonical hierarchies of ``grid_domain`` (|S| <= 3),
    each weighted by every one of ``grid_weights``' 1, 3 or 5 vectors, at
    each of the 4 thresholds in ``GRID_EPS``: 4 * 132 = 528 representations.
    On each, ``_weight_order`` agrees with its Fraction restatement, and
    ``ht_rule`` with the table path, entry for entry or tie for tie: 318
    take the fast path, and 174 of the other 210 tie.  The other 177 grid
    hierarchies overlap, and the order is None on all 4 * 795 of theirs.
    """
    counts = {"fast": 0, "table": 0, "tie": 0}
    overlapping = 0
    for hier in grid_domain():
        for rho in grid_weights(len(hier.priors)):
            for eps in GRID_EPS:
                ht = HTRepresentation(hier.space, hier.priors, rho, eps)
                if hier.is_canonical:
                    assert_fast_path_matches_the_table(ht, counts)
                else:
                    assert _weight_order(ht) is None and fraction_weight_order(ht) is None
                    overlapping += 1
    assert counts["fast"] + counts["table"] == 4 * 132 and overlapping == 4 * 795
    assert counts["fast"] > 300 and counts["table"] > 200 and counts["tie"] > 150


def on_the_bound(rng: random.Random, eps: Fraction) -> tuple[HTRepresentation, str]:
    """Disjoint shuffled priors at |S| <= 8, with weights built down the weight-order bounds.

    Each weight after the top is the one before times that prior's least
    mass times a factor in (0, 1), so every bound holds, but in two cases
    of three one binding pair is picked: its weight goes exactly on the
    bound, a thousandth of it above or below, or (past the top) equal to
    the weight before.  The top's pair binds when its least mass is at or
    below ``eps``.  Returns the representation and the case, "free" when
    no pair was picked.
    """
    h = random_canonical_os(rng, max_states=8)
    priors = list(h.priors)
    rng.shuffle(priors)
    least = [min(m for m in prior.mass if m) for prior in priors]
    case = rng.choice(("on", "above", "below", "equal", "free", "free"))
    binding = [at for at in range(len(priors) - 1) if at or least[0] <= eps and case != "equal"]
    pick = rng.choice(binding) if binding else None
    case = case if binding else "free"
    order = [0, *rng.sample(range(1, len(priors)), len(priors) - 1)]
    rho = [Fraction(0)] * len(priors)
    rho[0] = Fraction(1)
    for at, (k, j) in enumerate(zip(order, order[1:])):
        bound = rho[k] * least[k]
        rho[j] = bound * Fraction(rng.randint(1, 7), 8)
        if at == pick and case != "free":
            rho[j] = {
                "on": bound,
                "above": bound * Fraction(1001, 1000),
                "below": bound * Fraction(999, 1000),
                "equal": rho[k],
            }[case]
    if max(rho[1:], default=0) >= rho[0]:  # keep the top strictly heaviest
        rho[0] = 2 * max(rho[1:])
    total = sum(rho)
    return HTRepresentation(h.space, priors, [r / total for r in rho], eps), case


def test_the_weight_order_fast_path_matches_the_table_path_on_and_beside_each_bound():
    """1500 seeded disjoint representations at |S| <= 8, weights on, above and below the weight-order bounds.

    The thresholds are 0, 1/8, 1/4, 1/2 and 3/4, so the top's least mass
    is at or below the threshold in many of them and its bound then binds.
    Each case goes through ``assert_fast_path_matches_the_table``; the
    sample must take both paths (1195 fast, 305 table, 204 of those tied),
    take the table path on a weight exactly on a binding bound (the bound
    is strict), a thousandth above it or equal to the weight before, the
    fast path a thousandth below it, and the fast path 135 times where the
    top's bound binds.
    """
    rng = random.Random(SEED + 4)
    counts = {"fast": 0, "table": 0, "tie": 0}
    cases: dict[tuple[str, bool], int] = {}
    top_binds = 0
    for _ in range(1500):
        ht, case = on_the_bound(rng, rng.choice(SEEDED_EPS))
        fast = counts["fast"]
        assert_fast_path_matches_the_table(ht, counts)
        fired = counts["fast"] > fast
        cases[case, fired] = cases.get((case, fired), 0) + 1
        top = ht.priors[0]
        top_binds += fired and len(ht.priors) > 1 and min(m for m in top.mass if m) <= ht.eps
    assert counts["fast"] > 1000 and counts["table"] > 250 and counts["tie"] > 150
    assert cases.get(("on", False), 0) > 80 and cases.get(("equal", False), 0) > 60
    assert cases.get(("below", True), 0) > 80 and cases.get(("above", False), 0) > 80
    assert top_binds > 100


def test_every_grid_hierarchy_weighted_by_os_to_ht_is_its_blocks_alone():
    """``os_to_ht``'s weights pass the weight-order test on every canonical grid hierarchy.

    The 40 canonical hierarchies of ``grid_domain``: ``ht_rule`` holds no
    exception, and its blocks are the hierarchy's priors in order.
    """
    canonical = 0
    for hier in grid_domain():
        if hier.is_canonical:
            canonical += 1
            rule = ht_rule(os_to_ht(hier))
            assert rule._exceptions == {}
            assert [update for _, update, _ in rule._blocks] == list(hier.priors)
    assert canonical == 40
