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
representation read two floors of two denominators.
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
    ht_rule,
    ht_select,
    surprise_partition,
)
from beliefkit.core import lex_submasks
from beliefkit.ordered_surprises import min_order
from helpers import fraction_ht_select, grid_beliefs

NUDGE = Fraction(1, 1009)


def mass(prior: Belief, e: Event) -> Fraction:
    return sum((prior.mass_of(label) for label in e.members), Fraction(0))


def oracle_order(priors, e: Event, eps: Fraction):
    return next((j for j, prior in enumerate(priors) if mass(prior, e) > eps), None)


def boundary_cases():
    """(priors, eps) pairs: a grid prior and the uniform prior, eps on a trace mass or beside it."""
    for n in range(1, 5):
        space = StateSpace(tuple(f"s{i}" for i in range(n)))
        uniform = Belief.uniform_on(space.full_event)
        for den in (2, 3):
            for prior in grid_beliefs(space.full_event, den):
                support = prior.support_mask
                masses = {
                    mass(prior, Event(space, q)) for q in lex_submasks(support) if q != support
                }
                for m in sorted(masses):
                    for eps in (m - NUDGE, m, m + NUDGE):
                        if 0 <= eps < 1:
                            yield (prior, uniform), eps


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
