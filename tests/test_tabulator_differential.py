"""The shared select-then-Bayes tabulator against per-event updates.

``bayesian_rule``, ``os_rule`` and ``ht_rule`` all tabulate through
``rules.tabulate_rule``, which caches one Bayes update per
(prior, event & support).  Each rule must equal the per-event update it
stands for on every event: ``bayes_update``, ``os_update`` and
``ht_select``, on inputs beyond the canonical disjoint-support corpus.
``ht_rule`` and ``ht_select`` share one selection routine, so their
comparison here checks the tabulation only; ``test_ht_differential.py``
checks the selection against an independent Fraction oracle.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefkit import (
    AmbiguousArgmax,
    Belief,
    Event,
    HTRepresentation,
    IncompleteCoverage,
    OSRepresentation,
    PreferenceFamily,
    StateSpace,
    TooManyStates,
    UtilityFunction,
    bayes_update,
    bayesian_rule,
    ht_rule,
    ht_select,
    os_rule,
    os_update,
    ordered_surprises,
    preferences,
)


def belief_from(space: StateSpace, weights) -> Belief:
    total = sum(weights)
    return Belief(space, {s: Fraction(w, total) for s, w in zip(space.states, weights) if w})


@st.composite
def weight_rows(draw, n: int, rows: int, top: int):
    """``rows`` lists of n weights in [0, top], none all zero."""
    return [
        draw(st.lists(st.integers(0, top), min_size=n, max_size=n).filter(any))
        for _ in range(rows)
    ]


@st.composite
def overlapping_hierarchies(draw):
    """Covering hierarchies whose first two supports share a state."""
    n = draw(st.integers(2, 6))
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    rows = draw(weight_rows(n, draw(st.integers(2, 4)), 3))
    first = next(i for i, w in enumerate(rows[0]) if w)
    rows[1][first] = rows[1][first] or 1
    for i in range(n):
        if not any(row[i] for row in rows):
            rows[draw(st.integers(0, len(rows) - 1))][i] = 1
    return OSRepresentation(space, [belief_from(space, row) for row in rows])


@st.composite
def ht_representations(draw):
    """Covering priors, small top-heavy weights (ties are common), eps in [0, 1)."""
    n = draw(st.integers(1, 5))
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    rows = draw(weight_rows(n, draw(st.integers(1, 4)), 2))
    for i in range(n):
        if not any(row[i] for row in rows):
            rows[-1][i] = 1
    raw = draw(st.lists(st.integers(1, 3), min_size=len(rows) - 1, max_size=len(rows) - 1))
    raw = [max(raw, default=0) + draw(st.integers(1, 2)), *raw]
    rho = [Fraction(r, sum(raw)) for r in raw]
    eps = Fraction(draw(st.integers(0, 3)), 4)
    return HTRepresentation(space, [belief_from(space, row) for row in rows], rho, eps)


@settings(max_examples=150, deadline=None)
@given(overlapping_hierarchies())
def test_os_rule_is_os_update_on_overlapping_hierarchies(hier):
    assert not hier.is_canonical and hier.covers_space
    rule = os_rule(hier)
    assert len(rule) == (1 << len(hier.space)) - 1
    for e in hier.space.events():
        assert rule[e] == os_update(hier, e)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: weight_rows(n, 1, 3)))
def test_bayesian_rule_is_bayes_update_on_the_feasible_events(rows):
    space = StateSpace(tuple(f"s{i}" for i in range(len(rows[0]))))
    prior = belief_from(space, rows[0])
    rule = bayesian_rule(prior)
    feasible = [e for e in space.events() if e.mask & prior.support_mask]
    assert sorted(rule.events(), key=lambda e: e.sort_key) == feasible
    assert len(rule) == len(feasible)
    for e in feasible:
        assert rule[e] == bayes_update(prior, e)


@settings(max_examples=200, deadline=None)
@given(ht_representations())
def test_ht_rule_is_ht_select_or_the_first_tie(ht):
    first_tie = None
    expected = {}
    for e in ht.space.events():
        try:
            expected[e] = ht_select(ht, e)[1]
        except AmbiguousArgmax:
            first_tie = e
            break
    if first_tie is None:
        rule = ht_rule(ht)
        assert len(rule) == len(expected)
        for e, belief in expected.items():
            assert rule[e] == belief
    else:
        with pytest.raises(AmbiguousArgmax) as tie:
            ht_rule(ht)
        assert tie.value.event == first_tie


def test_os_rule_checks_the_state_cap_before_coverage(monkeypatch):
    def uncovered(n):
        space = StateSpace(tuple(f"s{i}" for i in range(n)))
        return OSRepresentation(space, (Belief.point(space, "s0"),))

    monkeypatch.setenv("BELIEFKIT_MAX_STATES", "4")
    with pytest.raises(TooManyStates):
        os_rule(uncovered(5))
    with pytest.raises(IncompleteCoverage) as gap:
        os_rule(uncovered(4))
    assert str(gap.value) == "hierarchy does not cover the space; update undefined on some events"


def test_family_computes_one_surprise_order_per_event(monkeypatch):
    space = StateSpace(("a", "b", "c"))
    hier = OSRepresentation(space, (Belief.point(space, "a"), belief_from(space, (0, 1, 2))))
    events = list(space.events())
    expected = [os_update(hier, e) for e in events]
    calls = []
    real = ordered_surprises.surprise_order

    def counting(os, e):
        calls.append(e.mask)
        return real(os, e)

    monkeypatch.setattr(preferences, "surprise_order", counting)
    monkeypatch.setattr(ordered_surprises, "surprise_order", counting)
    xy = UtilityFunction({"x": 0, "y": 1})
    fam = PreferenceFamily(hier, (xy, xy.affine(2, 1)))
    for _ in range(2):
        for e, belief in zip(events, expected):
            assert fam.belief_given(e) == belief
            assert fam.utility_given(e) is fam.utilities[real(hier, e)]
    assert calls == [e.mask for e in events]


def test_tabulating_builds_one_event_per_domain_event(monkeypatch):
    """Each domain event is built once and is also the event Bayes-updated on."""
    space = StateSpace(tuple(f"s{i}" for i in range(6)))
    hier = OSRepresentation(space, (belief_from(space, (1, 2, 3, 4, 5, 6)),))
    expected = [os_update(hier, e) for e in space.events()]
    calls = []
    real = Event.__init__

    def counting(self, space, mask):
        calls.append(mask)
        real(self, space, mask)

    monkeypatch.setattr(Event, "__init__", counting)
    rule = os_rule(hier)
    assert len(calls) == 2**6 - 1
    monkeypatch.undo()
    assert [rule[e] for e in space.events()] == expected
