"""Thresholds exactly on a trace's mass, against a Fraction oracle.

Every threshold test in the package compares a numerator with a prior's
integer floor.  The oracle here compares Fractions: prior j clears eps on
an event when the sum of its masses there, as a Fraction, exceeds eps.
The inputs put eps exactly on a mass the floor must leave on the reject
side, and a rational just above and just below it: every grid prior at
|S| <= 4 on the 1/2 and 1/3 grids (55 priors), each with every mass of
one of its proper traces (the empty one's 0 included), and that mass
plus and minus 1/1009, inside [0, 1).  Each prior comes second to and
first before the uniform prior, so a hierarchy and a two-prior
representation read two floors of two denominators.  The thresholded
construction runs at the same thresholds on each prior followed by the
uniform prior on the states it leaves, against a Fraction construction.
"""

from fractions import Fraction

from beliefkit import (
    AmbiguousArgmax,
    Belief,
    Event,
    HTRepresentation,
    OSRepresentation,
    SelectionBranch,
    StateSpace,
    eps_os_construction,
    ht_rule,
    ht_select,
    surprise_partition,
)
from beliefkit.core import lex_submasks
from beliefkit.ordered_surprises import min_order
from helpers import fraction_eps_os_construction, fraction_ht_select, grid_beliefs

NUDGE = Fraction(1, 1009)


def mass(prior: Belief, e: Event) -> Fraction:
    return sum((prior.mass_of(label) for label in e.members), Fraction(0))


def oracle_order(priors, e: Event, eps: Fraction):
    return next((j for j, prior in enumerate(priors) if mass(prior, e) > eps), None)


def boundary_thresholds():
    """(prior, eps) pairs: a grid prior, eps on one of its trace masses or beside it."""
    for n in range(1, 5):
        space = StateSpace(tuple(f"s{i}" for i in range(n)))
        for den in (2, 3):
            for prior in grid_beliefs(space.full_event, den):
                support = prior.support_mask
                masses = {
                    mass(prior, Event(space, q)) for q in lex_submasks(support) if q != support
                }
                for m in sorted(masses):
                    for eps in (m - NUDGE, m, m + NUDGE):
                        if 0 <= eps < 1:
                            yield prior, eps


def boundary_cases():
    """(priors, eps) pairs: a grid prior and the uniform prior, eps on a trace mass or beside it."""
    for prior, eps in boundary_thresholds():
        yield (prior, Belief.uniform_on(prior.space.full_event)), eps


def test_every_threshold_on_a_trace_mass_decides_as_the_fraction_oracle():
    cases = bayesian = rejected = exact = ties = 0
    for (prior, uniform), eps in boundary_cases():
        space = prior.space
        events = [Event(space, mask) for mask in space.canonical_masks()]
        for priors in ((prior, uniform), (uniform, prior)):
            hierarchy = OSRepresentation(space, priors)
            part = surprise_partition(hierarchy, eps)
            for e in events:
                want = oracle_order(priors, e, eps)
                assert min_order(priors, e.mask, eps) == want, (priors, eps, e)
                assert part.class_of(e) == want, (priors, eps, e)
        ht = HTRepresentation(space, (prior, uniform), (Fraction(2, 3), Fraction(1, 3)), eps)
        selected, first_tie = {}, None
        for e in events:
            top_keeps, _, tied = fraction_ht_select(ht, e)
            exact += mass(prior, e) == eps
            try:
                trace, belief = ht_select(ht, e)
            except AmbiguousArgmax as err:
                assert not top_keeps and len(tied) > 1 and err.tied == tied
                first_tie = first_tie or (e, tied)
                continue
            assert (trace.branch is SelectionBranch.BAYESIAN) == top_keeps, (prior, eps, e)
            assert (trace.chosen,) == tied
            selected[e] = belief
            bayesian += top_keeps
            rejected += not top_keeps
        try:
            rule = ht_rule(ht)
        except AmbiguousArgmax as err:
            assert first_tie is not None and (err.event, err.tied) == first_tie
            ties += 1
        else:
            assert first_tie is None
            assert {e: rule[e] for e in rule.events()} == selected
        cases += 1
    # 290 (prior, eps) pairs; 385 events sit exactly on the threshold, 30 representations tie
    assert cases == 290 and exact == 385 and ties == 30
    assert bayesian > 1500 and rejected > 1000


def test_the_thresholded_construction_on_a_trace_mass_matches_the_fraction_oracle():
    """``eps_os_construction`` on the hierarchy of a grid prior and the
    uniform prior on the states it leaves (the prior alone when it leaves
    none), at each threshold above, field by field against
    ``helpers.fraction_eps_os_construction``, which classes every event by
    its Fraction masses."""
    cases = two_classes = raised = 0
    for prior, eps in boundary_thresholds():
        space = prior.space
        rest = Event(space, space.full_event.mask ^ prior.support_mask)
        h = OSRepresentation(space, (prior, Belief.uniform_on(rest)) if rest else (prior,))
        got = eps_os_construction(h, eps)
        want, pairs = fraction_eps_os_construction(h, eps)
        assert got.ht.priors == want.ht.priors, (prior, eps)
        assert got.ht.rho == want.ht.rho, (prior, eps)
        assert got.ht.eps == want.ht.eps, (prior, eps)
        assert (got.eps, got.class_of, got.bounds) == (want.eps, want.class_of, want.bounds)
        assert got.cross_max == want.cross_max, (prior, eps)
        assert got.edges == pairs, (prior, eps)
        assert got == want
        cases += 1
        two_classes += len(h.priors) == 2
        raised += got.cross_max > eps
    # 290 (prior, eps) pairs, 257 of them two classes; 8 raise the threshold above eps
    assert (cases, two_classes, raised) == (290, 257, 8)
