"""The shared trace tabulator against per-event updates.

``bayesian_rule``, ``conservative_rule``, ``os_rule`` and ``ht_rule``
all tabulate through ``rules.tabulate_traces``: one posterior per
(prior, trace), from the prior's kept map (``core.kept_traces``), fills
every event with that trace, and ``ht_rule`` walks the events its top
prior rejects for the argmax.  Each rule must equal the per-event update it stands for on
every event: ``bayes_update``, ``os_update`` and ``ht_select`` (and the
Fraction oracle of the foil), on inputs beyond the
canonical disjoint-support corpus, and on the many-prior representations
``eps_os_construction`` builds.
``ht_rule`` and ``ht_select`` share one selection routine, so their
comparison here checks the tabulation only; ``test_ht_differential.py``
checks the selection against an independent Fraction oracle.
"""

import gc
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
    UpdatingRule,
    UtilityFunction,
    bayes_update,
    bayesian_rule,
    conservative_rule,
    SelectionBranch,
    core,
    cps_to_os,
    eps_os_construction,
    ht_rule,
    ht_select,
    hypothesis_testing,
    os_rule,
    os_update,
    ordered_surprises,
    preferences,
    validate_cps,
)
from helpers import (
    canonical_form,
    fraction_conservative_rule,
    random_overlapping_os,
    rule_entries,
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
    """Tables are keyed by mask; each entry is a prior, or its kept update on a trace.

    Every prior a tabulator walks is walked first (``core.kept_traces``),
    and each holds only states no earlier prior holds, so ``os_rule`` and
    ``bayesian_rule`` build no belief: the entry on a support is the
    prior itself, and on any other trace the update the prior keeps.
    The HT representation reaches the argmax, where some (prior, trace)
    repeats: a winner's update is the prior itself on its whole support,
    and else is built once per trace and kept on it, so fewer beliefs are
    built than argmax events, and a second ``ht_rule`` builds none and
    holds the same objects.  The foil builds one ``Event``, its
    null block, and, as beliefs, the uniform belief on it, that belief's
    walk and one mix per distinct posterior.
    """

    def argmax_keys(ht):  # (prior, event & support) of each event ht_select takes to the argmax
        keys = []
        for e in ht.space.events():
            trace, _ = ht_select(ht, e)
            if trace.branch is SelectionBranch.ARGMAX:
                keys.append((trace.chosen, e.mask & ht.priors[trace.chosen].support_mask))
        return keys

    def proper(ht, keys):  # the distinct keys whose trace is not the prior's whole support
        return {(j, q) for j, q in keys if q != ht.priors[j].support_mask}

    space = StateSpace(tuple(f"s{i}" for i in range(6)))
    hier = OSRepresentation(space, (belief_from(space, (1, 2, 3, 4, 5, 6)),))
    prior = belief_from(space, (1, 0, 3, 0, 5, 6))
    null = 0b001010
    ht = hypothesis_testing.os_to_ht(canonical_hierarchy())  # priors no tabulator walked
    argmax = argmax_keys(ht)
    assert len(set(argmax)) < len(argmax) and proper(ht, argmax)  # a repeat, and a proper trace
    for belief in (*hier.priors, prior, ht.priors[0]):
        core.kept_traces(belief)
    cases = [
        (os_rule, hier, {e.mask: os_update(hier, e) for e in space.events()}),
        (
            bayesian_rule,
            prior,
            {e.mask: bayes_update(prior, e) for e in space.events() if e.mask & prior.support_mask},
        ),
        (ht_rule, ht, {e.mask: ht_select(ht, e)[1] for e in ht.space.events()}),
        (
            lambda prior: conservative_rule(prior, Fraction(2, 5)),
            prior,
            rule_entries(fraction_conservative_rule(prior, Fraction(2, 5))),
        ),
    ]
    events, updates, built = [], [], []
    real_init, real_update, real_belief = Event.__init__, core.bayes_update, Belief._init

    def counting_init(self, space, mask):
        events.append(mask)
        real_init(self, space, mask)

    def counting_update(mu, e):
        updates.append(e.mask)
        return real_update(mu, e)

    def counting_belief(self, *args):
        built.append(args[3])  # the support
        return real_belief(self, *args)

    monkeypatch.setattr(Event, "__init__", counting_init)
    for module in (core, ordered_surprises, hypothesis_testing):
        monkeypatch.setattr(module, "bayes_update", counting_update)
    monkeypatch.setattr(Belief, "_init", counting_belief)
    rules_built, counts = [], []
    for tabulate, arg, _ in cases:
        del events[:], updates[:], built[:]
        rules_built.append(tabulate(arg))
        counts.append((events[:], updates[:], built[:]))
    del built[:]
    again = ht_rule(ht)
    assert built == [] and all(again[e] is rules_built[2][e] for e in ht.space.events())
    assert counts[:2] == [([], [], [])] * 2
    ht_events, ht_updates, ht_built = counts[2]
    assert (ht_events, ht_updates) == ([], [])
    assert argmax and 0 < len(ht_built) == len(proper(ht, argmax)) < len(argmax)
    foil_events, foil_updates, foil_built = counts[3]
    mixes = len({id(belief) for belief in rule_entries(rules_built[3]).values()})
    assert (foil_events, foil_updates, foil_built[0]) == ([null], [], null)
    assert len(foil_built) == 1 + (2 ** null.bit_count() - 2) + mixes
    monkeypatch.undo()
    assert null == space.full_event.mask & ~prior.support_mask
    for rule, belief in zip(rules_built, (hier.priors[0], prior)):
        kept = core.kept_traces(belief)
        for e in rule.events():
            assert rule[e] is kept.get(e.mask & belief.support_mask, belief)
    for rule, (_, _, expected) in zip(rules_built, cases):
        assert rule_entries(rule) == expected


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


def test_kept_traces_are_bayes_update_on_every_submask_of_every_own():
    """A walk covers its prior's whole support; each own inside it is walked on its update.

    The kept map of the update on own holds every nonempty proper submask
    of own, in canonical order, and nothing on own itself, whose update is
    the update itself.  Numerators are ``lex_sums`` of the nonzero ones,
    own's own sum (the denominator) at index |own| - 1, after its proper
    prefixes.  Each map is read twice: the second read must return the
    same masks and the same objects.  The update on own is
    ``prior.restricted(own)``, whose walk gives the prior's updates on the
    submasks of own.
    """
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 7)
        space = StateSpace(tuple(f"s{i}" for i in range(n)))
        prior = belief_from(space, [rng.randint(0, 3) for _ in range(n - 1)] + [1])
        for own in core.lex_submasks(prior.support_mask)[1:]:
            update = prior.restricted(own)
            first = list(core.kept_traces(update).items())
            kept = core.kept_traces(update)
            masks = list(core.lex_submasks(own)[1:])
            assert list(kept) == [q for q in masks if q != own] == [q for q, _ in first]
            assert all(a is b for (_, a), b in zip(first, kept.values(), strict=True))
            assert update == bayes_update(prior, Event(space, own))
            assert update.restricted(own) is update
            nums = core.lex_sums([x for x in update.nums if x])
            k = own.bit_count() - 1
            assert masks[k] == own and nums.pop(k) == update.den
            for (q, posterior), num in zip(kept.items(), nums, strict=True):
                assert num == update.mask_num(q)
                assert posterior == bayes_update(prior, Event(space, q))
                assert posterior.support_mask == q and posterior is not update


def test_a_map_that_kept_updates_complete_is_in_canonical_order(monkeypatch):
    """``kept_update`` on every proper trace of a three-state support, in
    reverse canonical order, builds one belief per trace and nothing more:
    the map it completes reads in canonical order and holds the very
    updates kept, and ``validate_cps`` of the prior's table, certified
    against that map, is valid."""
    space = StateSpace(("a", "b", "c"))
    prior = belief_from(space, (1, 2, 4))
    traces = [q for q in core.lex_submasks(7)[1:] if q != 7]
    built = []
    real_init = Belief._init

    def counting_init(self, *args):
        built.append(args[3])
        return real_init(self, *args)

    monkeypatch.setattr(Belief, "_init", counting_init)
    kept = {}
    for q in reversed(traces):
        kept[q] = core.kept_update(prior, q)
        assert built == [*kept]
    walked = core.kept_traces(prior)
    monkeypatch.undo()
    assert built == traces[::-1]
    assert list(walked) == traces and all(walked[q] is kept[q] for q in traces)
    table = UpdatingRule(space, {e: bayes_update(prior, e) for e in space.events()})
    assert validate_cps(table).priors == (prior,)


def test_os_rule_fills_one_posterior_per_trace(monkeypatch):
    """Four priors on three states each at |S| = 12: 4095 events, 4 * 7 traces.

    The trace on a whole support is its prior, so 28 - 4 updates are built,
    and a second tabulation builds none: it returns the same objects.
    """
    space = StateSpace(tuple(f"s{i}" for i in range(12)))
    priors = [
        belief_from(space, [k + i % 3 + 1 if i // 3 == k else 0 for i in range(12)])
        for k in range(4)
    ]
    hier = OSRepresentation(space, priors)
    assert hier.is_canonical
    built = []
    real_init = Belief._init

    def counting_init(self, *args):
        built.append(args[3])
        return real_init(self, *args)

    monkeypatch.setattr(Belief, "_init", counting_init)
    rule = os_rule(hier)
    first = built[:]
    again = os_rule(hier)
    monkeypatch.undo()
    assert len(rule) == 4095
    entries = rule_entries(rule)
    assert len({id(belief) for belief in entries.values()}) == 28
    assert len(first) == 24 == len(built)
    assert all(rule[Event(space, prior.support_mask)] is prior for prior in priors)
    assert all(again[Event(space, mask)] is belief for mask, belief in entries.items())
    rng = random.Random(12)
    for mask in rng.sample(range(1, 4096), 200):
        e = Event(space, mask)
        assert rule[e] == os_update(hier, e)


def canonical_hierarchy(n: int = 6) -> OSRepresentation:
    """Three priors with disjoint supports covering |S| = n."""
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    return OSRepresentation(
        space,
        [belief_from(space, [i + 1 if i % 3 == k else 0 for i in range(n)]) for k in range(3)],
    )


def test_tabulators_share_the_hierarchys_own_priors():
    """The update on a whole support is the prior, so every tabulator reads h's objects."""
    hier = canonical_hierarchy()
    rule = os_rule(hier)
    recovered = cps_to_os(rule)
    assert all(a is b for a, b in zip(recovered.priors, hier.priors))
    assert hypothesis_testing.os_to_ht(recovered).priors[0] is hier.priors[0]
    for eps in (0, Fraction(1, 4), Fraction(1, 2)):
        assert eps_os_construction(hier, eps).ht.priors[0] is hier.priors[0]
    top, support = ht_rule(hypothesis_testing.os_to_ht(hier)), hier.priors[0].support_mask
    entries, top_entries = rule_entries(rule), rule_entries(top)
    accepted = [mask for mask in entries if mask & support]  # the top prior's block
    assert all(top_entries[mask] is entries[mask] for mask in accepted)


def test_an_overlapping_hierarchy_decomposes_on_the_objects_its_rule_holds(monkeypatch):
    """The peel reads each prior's update on the states no earlier prior holds, already walked.

    First |S| = 12 with prior 1 on every state behind prior 0 on six, whose
    update on the other six has 62 proper traces; then 30 seeded
    hierarchies at |S| <= 8 whose supports may overlap, most of which do.
    The tabulator walked each update it put in the table and kept the
    walk, so ``cps_to_os`` builds no belief, and each recovered prior is
    the table's own object at its peel event.
    """
    space = StateSpace(tuple(f"s{i}" for i in range(12)))
    top = belief_from(space, [i + 1 if i < 6 else 0 for i in range(12)])
    behind = belief_from(space, [i % 5 + 1 for i in range(12)])
    rng = random.Random(34)
    hierarchies = [OSRepresentation(space, (top, behind))]
    hierarchies += [random_overlapping_os(rng, max_states=8) for _ in range(30)]
    assert sum(not hier.is_canonical for hier in hierarchies) > 15
    built = []
    real_init = Belief._init

    def counting_init(self, *args):
        built.append(args[3])
        return real_init(self, *args)

    for hier in hierarchies:
        rule = os_rule(hier)
        monkeypatch.setattr(Belief, "_init", counting_init)
        recovered = cps_to_os(rule)
        monkeypatch.undo()
        assert built == []
        rest = (1 << len(hier.space)) - 1
        for prior in recovered.priors:
            assert rule[Event(hier.space, rest)] is prior
            rest &= ~prior.support_mask
        assert recovered == canonical_form(hier)


def test_a_second_tabulation_of_an_overlapping_hierarchy_builds_no_belief(monkeypatch):
    """|S| = 12, prior 1 on every state behind prior 0 on six: the first
    ``os_rule`` walks prior 0's 62 proper traces, then builds prior 1's
    update on the other six states and that update's 62, 125 beliefs;
    the prior keeps the update by its trace, so a second ``os_rule``
    builds none, where it used to build the update and its walk again
    (63), and holds the same update object."""
    space = StateSpace(tuple(f"s{i}" for i in range(12)))
    top = belief_from(space, [i + 1 if i < 6 else 0 for i in range(12)])
    behind = belief_from(space, [i % 5 + 1 for i in range(12)])
    hier = OSRepresentation(space, (top, behind))
    built = []
    real_init = Belief._init

    def counting_init(self, *args):
        built.append(args[3])
        return real_init(self, *args)

    monkeypatch.setattr(Belief, "_init", counting_init)
    first = os_rule(hier)
    counts = [len(built)]
    again = os_rule(hier)
    counts.append(len(built) - counts[0])
    monkeypatch.undo()
    assert counts == [125, 0]
    updates = [rule[Event(space, rest)] for rule in (first, again) for rest in (4095, 4032)]
    assert updates[2:] == [top, updates[1]] and updates[3] is updates[1]
    assert again == first and len(again) == 4095


def test_kept_trace_walks_leave_no_reference_cycle():
    """A tabulated hierarchy is freed by reference counts alone: no belief reaches itself.

    Three cases: a disjoint hierarchy through every tabulator; an
    overlapping one, where ``os_rule`` keeps a later prior's update on a
    proper part of its support and ``bayesian_rule`` then walks that prior,
    reusing the kept update; and an HT representation whose second prior
    straddles the top support, so ``ht_rule`` keeps that prior's updates
    on the rejected events it wins.
    """
    gc.collect()
    gc.disable()
    try:
        hier = canonical_hierarchy()
        rule = os_rule(hier)
        built = eps_os_construction(hier, Fraction(1, 4))
        tables = [ht_rule(built.ht), ht_rule(hypothesis_testing.os_to_ht(cps_to_os(rule)))]
        assert tables[1] == rule
        del hier, rule, built, tables
        assert gc.collect() == 0

        space = StateSpace(("a", "b", "c", "d"))
        first, second = belief_from(space, (1, 2, 0, 0)), belief_from(space, (0, 3, 1, 2))
        rule = os_rule(OSRepresentation(space, (first, second)))
        own = space.event("c", "d")
        assert rule[own] is not second and rule[own] is bayesian_rule(second)[own]
        del first, second, rule, own
        assert gc.collect() == 0

        space = StateSpace(("a", "b", "c"))
        priors = [belief_from(space, w) for w in ((1, 0, 0), (1, 3, 0), (0, 0, 1))]
        ht = HTRepresentation(space, priors, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
        rule = ht_rule(ht)
        b = space.event("b")
        assert rule[b] is priors[1]._traces[b.mask] and rule[b] is ht_rule(ht)[b]
        assert all(rule[e] == ht_select(ht, e)[1] for e in space.events())
        del space, priors, ht, rule, b
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_kept_walk_does_not_skip_the_state_cap(monkeypatch):
    hier = canonical_hierarchy()
    rule = os_rule(hier)
    construction = eps_os_construction(hier, Fraction(1, 4))
    ht = hypothesis_testing.os_to_ht(hier)
    assert ht_rule(ht) == rule and hier.priors[0].support_mask.bit_count() == 2
    built = []
    real_init = Belief._init

    def counting_init(self, *args):
        built.append(args[3])
        return real_init(self, *args)

    monkeypatch.setattr(Belief, "_init", counting_init)
    again = [os_rule(hier), bayesian_rule(hier.priors[0]), ht_rule(ht), ht_rule(construction.ht)]
    assert built == []  # every walk is kept
    assert again[0][Event(hier.space, 1)] is rule[Event(hier.space, 1)]
    monkeypatch.undo()
    monkeypatch.setenv("BELIEFKIT_MAX_STATES", "5")
    for tabulate in (
        lambda: os_rule(hier),
        lambda: bayesian_rule(hier.priors[0]),
        lambda: eps_os_construction(hier, Fraction(1, 4)),
        lambda: ht_rule(ht),
        lambda: ht_rule(construction.ht),
    ):
        with pytest.raises(TooManyStates):
            tabulate()


def test_os_rule_is_os_update_where_later_supports_overlap_earlier_ones():
    """|S| = 7-10, two or more later priors left with a proper part of their support."""
    rng = random.Random(28)
    tested = 0
    while tested < 12:
        hier = random_overlapping_os(rng, max_states=10)
        n = len(hier.space)
        rest, partial = (1 << n) - 1, 0
        for prior in hier.priors:
            own = rest & prior.support_mask
            partial += 0 < own != prior.support_mask
            rest &= ~own
        if n < 7 or partial < 2:
            continue
        tested += 1
        rule = os_rule(hier)
        assert len(rule) == (1 << n) - 1
        for e in hier.space.events():
            assert rule[e] == os_update(hier, e)


def test_bayesian_and_ht_rule_check_the_state_cap_before_any_work(monkeypatch):
    space = StateSpace(tuple(f"s{i}" for i in range(5)))
    prior = Belief(space, {"s0": Fraction(1, 3), "s1": Fraction(2, 3)})
    ht = hypothesis_testing.os_to_ht(
        OSRepresentation(space, (prior, belief_from(space, (0, 0, 1, 1, 1))))
    )
    monkeypatch.setenv("BELIEFKIT_MAX_STATES", "4")
    with pytest.raises(TooManyStates):
        bayesian_rule(prior)
    with pytest.raises(TooManyStates):
        ht_rule(ht)
    monkeypatch.setenv("BELIEFKIT_MAX_STATES", "5")
    assert len(bayesian_rule(prior)) == 24 and len(ht_rule(ht)) == 31
