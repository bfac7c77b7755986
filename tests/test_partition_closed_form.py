"""The surprise partition's closed form on disjoint supports, against the walk and an oracle.

On pairwise-disjoint supports ``surprise_partition`` counts each class
from the priors' light trace lists and builds each mask list only when
read (``ordered_surprises._listed``): every class from one walk, or the
undefined events alone by a pruned walk.  Two oracles check it:
``_walked``, the walk over every event that overlapping supports still
take, through the public constructor, and ``helpers.partition_oracle``,
per-event ``eps_surprise_order`` lookups.  Each prior's ``light_traces``,
masks and numerators, are checked against its submasks filtered by their
Fraction mass.  Every compared reading
(``sizes``, ``classes``, ``undefined``, ``class_of``, ``==``, ``hash``
and ``repr``) is taken first on a partition of its own, so each one
builds its own lists, and one partition reads ``undefined`` before the
classes.  The inputs: every canonical ``grid_hierarchies``
case at |S| <= 4 on the 1/2 and 1/3 grids (234 hierarchies), with eps on
every mass of every prior's proper traces (the empty one's 0 included)
and that mass plus and minus 1/1009, inside [0, 1), as in
``tests/test_threshold_boundary.py``; and 300 seeded disjoint
hierarchies up to |S| = 8, in shuffled order and some with priors
dropped so that states go uncovered.
"""

import random
from fractions import Fraction

import pytest

from beliefkit import (
    Event,
    OSRepresentation,
    SurprisePartition,
    TooManyStates,
    ValidationError,
    surprise_partition,
)
from beliefkit import ordered_surprises
from beliefkit.core import MAX_STATES_ENV, lex_submasks
from beliefkit.ordered_surprises import _walked, light_traces
from helpers import grid_hierarchies, partition_oracle, random_canonical_os

NUDGE = Fraction(1, 1009)


def walked(h: OSRepresentation, eps: Fraction) -> SurprisePartition:
    floors = [eps.numerator * prior.den // eps.denominator for prior in h.priors]
    return SurprisePartition(h.space, eps, _walked(h.space, h.priors, floors))


def trace_masses(h: OSRepresentation) -> set[Fraction]:
    return {
        Fraction(prior.mask_num(q), prior.den)
        for prior in h.priors
        for q in lex_submasks(prior.support_mask)
        if q != prior.support_mask
    }


def boundary_thresholds(h: OSRepresentation) -> list[Fraction]:
    near = {m + step for m in trace_masses(h) for step in (-NUDGE, 0, NUDGE)}
    return sorted(eps for eps in near if 0 <= eps < 1)


def assert_closed_form_matches(h: OSRepresentation, eps: Fraction) -> None:
    for prior in h.priors:
        traces = lex_submasks(prior.support_mask)
        masses = [(q, Fraction(prior.mask_num(q), prior.den)) for q in traces]
        floor = eps.numerator * prior.den // eps.denominator
        light = [(q, m) for q, m in masses if m <= eps]
        masks, nums = light_traces(prior, floor)
        assert (masks, nums) == ([q for q, _ in light], [m * prior.den for _, m in light])
    walk, oracle = walked(h, eps), partition_oracle(h, eps)
    assert walk == oracle
    events = [Event(h.space, mask) for mask in h.space.canonical_masks()]
    assert surprise_partition(h, eps).sizes == walk.sizes == oracle.sizes, (h.priors, eps)
    assert repr(surprise_partition(h, eps)) == repr(walk) == repr(oracle)
    assert surprise_partition(h, eps).undefined == walk.undefined == oracle.undefined
    assert surprise_partition(h, eps).classes == walk.classes == oracle.classes
    part = surprise_partition(h, eps)
    assert [part.class_of(e) for e in events] == [oracle.class_of(e) for e in events]
    with pytest.raises(ValidationError, match="event not covered by this partition"):
        part.class_of(Event(h.space, 0))
    part = surprise_partition(h, eps)
    assert part == walk and walk == part and part == oracle
    part = surprise_partition(h, eps)
    assert part.undefined == oracle.undefined and part.classes == oracle.classes
    assert part == oracle
    assert hash(surprise_partition(h, eps)) == hash(walk) == hash(oracle)


def test_the_closed_form_matches_the_walk_at_every_grid_boundary():
    hierarchies = cases = 0
    for n in range(1, 5):
        for den in (2, 3):
            for h in grid_hierarchies(n, den):
                if not h.is_canonical:
                    continue
                hierarchies += 1
                for eps in boundary_thresholds(h):
                    assert_closed_form_matches(h, eps)
                    cases += 1
    assert hierarchies == 234 and cases == 1329


def test_the_closed_form_matches_the_walk_on_seeded_disjoint_hierarchies():
    rng = random.Random("partition-closed-form")
    uncovered = 0
    for i in range(300):
        h = random_canonical_os(rng, max_states=8)
        priors = list(h.priors)
        rng.shuffle(priors)
        if i % 3 == 0 and len(priors) > 1:
            priors = rng.sample(priors, rng.randint(1, len(priors) - 1))
        h = OSRepresentation(h.space, priors)
        uncovered += not h.covers_space
        masses = sorted(trace_masses(h))
        for eps in (Fraction(0), rng.choice(masses), rng.choice(masses) + NUDGE):
            if eps < 1:
                assert_closed_form_matches(h, eps)
    assert uncovered > 50


def test_the_cap_is_checked_before_any_trace_is_listed(monkeypatch):
    """A canonical hierarchy one state over the cap raises TooManyStates
    before any prior's light traces are listed; at the cap it runs."""
    rng = random.Random("partition-cap")
    h = random_canonical_os(rng, max_states=5, min_states=5)
    monkeypatch.setenv(MAX_STATES_ENV, "4")

    def unread(prior, floor):
        raise AssertionError("a trace was read before the cap")

    monkeypatch.setattr(ordered_surprises, "light_traces", unread)
    with pytest.raises(TooManyStates, match="over 5 states exceeds the cap of 4"):
        surprise_partition(h, Fraction(1, 4))
    monkeypatch.undo()
    monkeypatch.setenv(MAX_STATES_ENV, "5")
    part = surprise_partition(h, Fraction(1, 4))
    assert sum(part.sizes) + len(part.undefined) == 31


def test_sizes_and_repr_list_no_mask(monkeypatch):
    """The counts come from the traces alone: on a disjoint hierarchy,
    ``sizes`` and ``repr`` list no class, and ``undefined`` lists only its
    own.  No reading leaves anything on a prior: no masses and no kept
    updates."""
    rng = random.Random("partition-no-list")
    listed = []
    real = ordered_surprises._listed

    def counted(*args):
        listed.append(args[-1])
        return real(*args)

    monkeypatch.setattr(ordered_surprises, "_listed", counted)
    for _ in range(40):
        h = random_canonical_os(rng, max_states=8)
        part = surprise_partition(h, Fraction(1, 4))
        sizes, text = part.sizes, repr(part)
        assert listed == []
        assert sum(sizes) + len(part.undefined) == 2 ** len(h.space) - 1
        assert text.endswith(f"undefined={len(part.undefined)})")
        assert listed == [len(h.priors)]
        assert len(part.classes) == len(h.priors) and listed == [len(h.priors), 0]
        assert all(prior._mass is None and prior._traces is None for prior in h.priors)
        listed.clear()
