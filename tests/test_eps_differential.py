"""eps_os_construction against the Fraction construction it replaced.

The oracle is ``helpers.fraction_eps_os_construction``: every event scanned
for its class, dominance and cross-class masses compared as Fractions, and
each class ordered by re-sorting its ready list after every step.  On
seeded canonical hierarchies (|S| = 1-8, 1-4 priors, balanced and random
cuts) at fixed and random thresholds, both must return the same
construction field by field, with the record's ``edges`` (listed on read)
equal to the oracle's dominance pairs in order, or raise the same error
with the same message.  The construction reads each prior's kept map in
place, so it must not depend on the order in which that map was filled.
"""

import random
from fractions import Fraction
from itertools import chain

import pytest

from beliefkit import (
    Belief,
    BeliefkitError,
    EpsOsConstruction,
    OSRepresentation,
    StateSpace,
    TooManyStates,
    eps_os_construction,
)
from beliefkit.core import kept_update, lex_submasks, mask_indices
from helpers import fraction_eps_os_construction, grid_hierarchies

SEED = 20261018
CASES = 160
EPS_LEVELS = (Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(3, 5))


def hierarchy(rng: random.Random, n: int, parts: int, balanced: bool) -> OSRepresentation:
    """Disjoint supports covering |S| = n states, cut evenly or at random."""
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    labels = list(space.states)
    rng.shuffle(labels)
    if balanced:
        cuts = [n * k // parts for k in range(1, parts)]
    else:
        cuts = sorted(rng.sample(range(1, n), parts - 1))
    priors = []
    for lo, hi in zip([0] + cuts, cuts + [n]):
        chunk = labels[lo:hi]
        weights = [rng.randint(1, 9) for _ in chunk]
        total = sum(weights)
        priors.append(Belief(space, {s: Fraction(w, total) for s, w in zip(chunk, weights)}))
    return OSRepresentation(space, priors)


def seeded_cases():
    rng = random.Random(SEED)
    for _ in range(CASES):
        n = rng.randint(1, 8)
        parts = rng.randint(1, min(n, 4))
        h = hierarchy(rng, n, parts, balanced=rng.random() < 0.5)
        if rng.random() < 0.7:
            eps = rng.choice(EPS_LEVELS)
        else:
            den = rng.randint(2, 40)
            eps = Fraction(rng.randrange(den), den)
        yield h, eps


def outcome(build, h, eps):
    try:
        return build(h, eps)
    except BeliefkitError as exc:
        return type(exc), str(exc)


def assert_same(got, want):
    """``want`` is the oracle's (record, dominance pairs) or (error type, message)."""
    if not isinstance(want[0], EpsOsConstruction):
        assert got == want
        return
    want, pairs = want
    assert got.ht.priors == want.ht.priors
    assert got.ht.rho == want.ht.rho
    assert got.ht.eps == want.ht.eps
    assert got.eps == want.eps
    assert got.class_of == want.class_of
    assert got.bounds == want.bounds
    assert got.edges == pairs
    assert got.cross_max == want.cross_max
    assert got == want


def gap_limit_binds(built) -> bool:
    """True when some class's floor is upper * gap limit, not the threshold.

    The bounds are scaled by the weights' total, and the first upper bound
    is 1 before scaling.  Each lower bound is the midpoint of the floor and
    the upper bound, so the floor is 2 * lower - upper.
    """
    scale = built.bounds[0][0]
    return any((2 * lo - hi) / scale > built.ht.eps for hi, lo in built.bounds)


def test_construction_matches_the_fraction_oracle():
    binds = raised_threshold = 0
    for h, eps in seeded_cases():
        got = outcome(eps_os_construction, h, eps)
        want = outcome(fraction_eps_os_construction, h, eps)
        assert_same(got, want)
        binds += gap_limit_binds(want[0])
        raised_threshold += want[0].cross_max > eps
    # the sample reaches both places where the construction departs from eps
    assert binds > 10
    assert raised_threshold > 10


def test_rejections_match_the_fraction_oracle(monkeypatch):
    rng = random.Random(SEED + 1)
    h = hierarchy(rng, 5, 2, balanced=True)
    space = h.space
    overlapping = OSRepresentation(space, (*h.priors, Belief(space, {"s0": 1})))
    partial = OSRepresentation(space, h.priors[:1])
    cases = [
        (h, Fraction(1)),
        (h, Fraction(-1, 8)),
        (h, 0.25),
        (overlapping, Fraction(1, 8)),
        (partial, Fraction(1, 8)),
    ]
    for hier, eps in cases:
        want = outcome(fraction_eps_os_construction, hier, eps)
        assert not isinstance(want[0], EpsOsConstruction)
        assert outcome(eps_os_construction, hier, eps) == want

    monkeypatch.setenv("BELIEFKIT_MAX_STATES", "4")
    wide = hierarchy(rng, 5, 2, balanced=False)
    want = outcome(fraction_eps_os_construction, wide, Fraction(1, 4))
    assert want[0] is TooManyStates
    assert outcome(eps_os_construction, wide, Fraction(1, 4)) == want


def test_a_multi_prior_construction_leaves_the_power_set_unbuilt():
    h = hierarchy(random.Random(SEED + 3), 12, 2, balanced=True)
    assert eps_os_construction(h, Fraction(1, 4)).class_of[0] == 0
    assert h.space._masks is None


@pytest.mark.parametrize("eps", EPS_LEVELS, ids=str)
def test_single_prior_at_eight_states(eps):
    h = hierarchy(random.Random(SEED + 2), 8, 1, balanced=True)
    assert_same(eps_os_construction(h, eps), fraction_eps_os_construction(h, eps))


def chunked(*chunks: tuple[int, ...]) -> OSRepresentation:
    """Hierarchy over consecutive states, one prior per chunk of weights."""
    space = StateSpace(tuple(f"s{i}" for i in range(sum(map(len, chunks)))))
    priors, start = [], 0
    for weights in chunks:
        labels = space.states[start : start + len(weights)]
        total = sum(weights)
        priors.append(Belief(space, {s: Fraction(w, total) for s, w in zip(labels, weights)}))
        start += len(weights)
    return OSRepresentation(space, priors)


@pytest.mark.parametrize(
    "h, eps",
    [
        (chunked((1, 1)), Fraction(3, 5)),
        (chunked((1, 1, 1)), Fraction(2, 3)),
        (chunked((4, 4, 1)), Fraction(3, 5)),
        (chunked((2,), (1, 1)), Fraction(1, 2)),
        (chunked((3, 1), (1, 1, 1)), Fraction(2, 3)),
    ],
    ids=["two-even", "three-even", "two-heavy", "deep-even", "deep-three"],
)
def test_states_too_heavy_to_drop(h, eps):
    """Dropping such a state leaves the support below the threshold, so
    no row mask misses it and it never sets the gap limit."""
    assert_same(eps_os_construction(h, eps), fraction_eps_os_construction(h, eps))


def prefilled(prior: Belief, share: int) -> Belief:
    """An equal prior whose map ``kept_update`` filled with ``share`` of its
    traces in reverse canonical order: 0 none, 1 half of them, 2 all."""
    copy = Belief(prior.space, dict(prior.items()))
    support = copy.support_mask
    traces = [q for q in lex_submasks(support)[:0:-1] if q != support]
    for q in traces[: len(traces) * share // 2]:
        kept_update(copy, q)
    return copy


def test_a_map_filled_out_of_order_gives_the_fresh_construction():
    """Every ``grid_hierarchies`` hierarchy at |S| <= 3 on the 1/2- and
    1/3-grids (217, 40 canonical), at thresholds 0, 1/8, 1/4 and 1/2: the
    construction on priors whose kept maps were filled in reverse canonical
    order, partly and to completion, equals the one on fresh equal priors,
    or raises the same error.  Some partly filled maps are out of canonical
    order when the construction starts."""
    unordered = hierarchies = 0
    for h in chain.from_iterable(grid_hierarchies(n, den) for n in (1, 2, 3) for den in (2, 3)):
        hierarchies += 1
        for eps in (Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)):
            fresh = [prefilled(prior, 0) for prior in h.priors]
            want = outcome(eps_os_construction, OSRepresentation(h.space, fresh), eps)
            for share in (1, 2):
                priors = [prefilled(prior, share) for prior in h.priors]
                maps = [list(prior._traces or ()) for prior in priors]
                unordered += sum(masks != sorted(masks, key=mask_indices) for masks in maps)
                got = outcome(eps_os_construction, OSRepresentation(h.space, priors), eps)
                assert got == want, (h.priors, eps, share)
    assert hierarchies == 217 and unordered > 0
