"""The shared select-then-Bayes tabulator against per-event updates.

``bayesian_rule``, ``os_rule`` and ``ht_rule`` all tabulate through
``rules.tabulate_rule``, which builds each posterior from its prefix's in
one walk of the prefix tree.  Each rule must equal the per-event update it
stands for on every event: ``bayes_update``, ``os_update`` and
``ht_select``, on inputs beyond the canonical disjoint-support corpus,
and on the many-prior representations ``eps_os_construction`` builds.
``ht_rule`` and ``ht_select`` share one selection routine, so their
comparison here checks the tabulation only; ``test_ht_differential.py``
checks the selection against an independent Fraction oracle.
"""

import random
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
    SelectionBranch,
    core,
    eps_os_construction,
    ht_rule,
    ht_select,
    hypothesis_testing,
    os_rule,
    os_update,
    ordered_surprises,
    preferences,
    rules,
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
    assert sorted(rule.events(), key=lambda e: e.indices) == feasible
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
        return OSRepresentation(space, (Belief(space, {"s0": 1}),))

    monkeypatch.setenv("BELIEFKIT_MAX_STATES", "4")
    with pytest.raises(TooManyStates):
        os_rule(uncovered(5))
    with pytest.raises(IncompleteCoverage) as gap:
        os_rule(uncovered(4))
    assert str(gap.value) == "hierarchy does not cover the space; update undefined on some events"


def test_family_computes_one_surprise_order_per_event(monkeypatch):
    space = StateSpace(("a", "b", "c"))
    hier = OSRepresentation(space, (Belief(space, {"a": 1}), belief_from(space, (0, 1, 2))))
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


def test_tabulating_builds_no_event_and_no_bayes_update(monkeypatch):
    """The walk keys the table by mask and extends each posterior from its prefix's."""
    space = StateSpace(tuple(f"s{i}" for i in range(6)))
    hier = OSRepresentation(space, (belief_from(space, (1, 2, 3, 4, 5, 6)),))
    expected = [os_update(hier, e) for e in space.events()]
    events, updates = [], []
    real_init, real_update = Event.__init__, core.bayes_update

    def counting_init(self, space, mask):
        events.append(mask)
        real_init(self, space, mask)

    def counting_update(mu, e):
        updates.append(e.mask)
        return real_update(mu, e)

    monkeypatch.setattr(Event, "__init__", counting_init)
    for module in (core, rules, ordered_surprises, hypothesis_testing):
        monkeypatch.setattr(module, "bayes_update", counting_update)
    rule = os_rule(hier)
    assert events == [] and updates == []
    monkeypatch.undo()
    assert [rule[e] for e in space.events()] == expected


def constructed_representations(seed: int = 20261018):
    """Thresholded constructions over |S| = 3-7: one prior, or two to four."""
    rng = random.Random(seed)
    for n in range(3, 8):
        for parts in (1, 1, rng.randint(2, min(n, 4))):
            space = StateSpace(tuple(f"s{i}" for i in range(n)))
            order = rng.sample(range(n), n)
            cuts = [n * k // parts for k in range(1, parts)]
            priors = []
            for lo, hi in zip([0, *cuts], [*cuts, n]):
                weights = [0] * n
                for i in order[lo:hi]:
                    weights[i] = rng.randint(1, 9)
                priors.append(belief_from(space, weights))
            for eps in (Fraction(1, 8), Fraction(1, 4)):
                yield eps_os_construction(OSRepresentation(space, priors), eps).ht


def test_ht_rule_on_constructions_is_ht_select():
    """Up to 127 priors, so the argmax runs on the scores carried down from each prefix."""
    argmax = most = 0
    for ht in constructed_representations():
        rule = ht_rule(ht)
        assert len(rule) == (1 << len(ht.space)) - 1
        for e in ht.space.events():
            trace, belief = ht_select(ht, e)
            argmax += trace.branch is SelectionBranch.ARGMAX
            assert rule[e] == belief
        most = max(most, len(ht.priors))
    assert most > 100 and argmax > 100


def test_ht_rule_names_the_first_tie_reached_through_argmax_prefixes():
    """{a} and {a,b} pick priors 1 and 3 by argmax; {a,b,c} ties 1, 2 and 3."""
    space = StateSpace(("a", "b", "c", "d"))
    priors = [
        belief_from(space, (0, 0, 0, 1)),
        belief_from(space, (1, 0, 1, 0)),
        belief_from(space, (1, 1, 2, 0)),
        belief_from(space, (0, 1, 0, 0)),
    ]
    ht = HTRepresentation(space, priors, [Fraction(2, 5), *[Fraction(1, 5)] * 3])
    assert [ht_select(ht, space.event(*e))[0].chosen for e in ("a", ("a", "b"))] == [1, 3]
    for tabulate in (ht_rule, lambda ht: ht_select(ht, space.event("a", "b", "c"))):
        with pytest.raises(AmbiguousArgmax) as tie:
            tabulate(ht)
        assert tie.value.event == space.event("a", "b", "c")
        assert tie.value.tied == (1, 2, 3)


def test_the_walk_is_bayes_update_for_any_choice_and_any_skip():
    """Choices that skip a prefix, or leave its prior, still give the plain update."""
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 6)
        space = StateSpace(tuple(f"s{i}" for i in range(n)))
        rows = [[rng.randint(0, 2) for _ in range(n)] for _ in range(3)]
        priors = [belief_from(space, row) for row in rows if any(row)]
        if not priors:
            continue
        choice = {}
        for mask in space.canonical_masks():
            meeting = [k for k, prior in enumerate(priors) if prior.support_mask & mask]
            choice[mask] = rng.choice(meeting) if meeting and rng.random() < 0.8 else None
        seen = []
        for mask, mass, belief in core.posterior_walk(priors, (1 << n) - 1, lambda m, _: choice[m]):
            seen.append(mask)
            k = choice[mask]
            if k is None:
                assert (mass, belief) == (0, None)
            else:
                assert belief == bayes_update(priors[k], Event(space, mask))
                assert mass == priors[k].mask_num(mask)
        assert seen == list(space.canonical_masks())
