"""validate_cps against the exhaustive triple scan, on rules of every kind.

The certificate-first validator must give the oracle's status, reason,
first witness and triple count on every rule: CPS tables induced by
canonical and by overlapping hierarchies, tables with entries nudged or
redrawn (including the entries the peel reads), fully random concentrated
tables, and the non-candidates ``conservative_rule`` and ``bayesian_rule``;
and, exhaustively, every complete rule on a small rational grid and the
rule of every small grid hierarchy.  Past the triple scan's reach, at
|S| = 6 .. 12, the status is checked against ``helpers.pair_validate``,
the scan of two-state pairs that the theorem in ``rules`` makes exact.

The certificate compares every event's entry with the update of its
trace, its meet with the support of its first prior, that the peeled
prior's kept map holds (``core.kept_traces``), or the prior itself on
its whole support: by identity where the table shares that posterior,
by value otherwise, one tuple comparison per peeled block.  So some
families aim at that comparison: many-prior tables of fresh beliefs,
where no entry is another's object; a wrong trace entry shared by
identity with all, or some, of the events that trace to it; and a wrong
entry on the first, a middle or the last event that meets two supports.
One test also replaces each entry in turn on blocks of more traces than
later sets and of fewer.  Every rule is also validated as a fresh copy, whose peeled
priors keep no walk, and must get the same answer, priors included.
A block that fails is compared again in slices, and only the slices
that differ are listed: one test changes entries at the ends of blocks
of up to 1023 entries and on both sides of the slice boundaries, one
counts the by-value comparisons a failing block costs, and one counts
the table reads, one per peeled block.

The witness search starts from the uncertified entries, so one family
makes many of them: every event of two or more states inside a later
support gets a wrong belief, and the first violation comes late in
canonical order.  Concentration is checked only on the entries the peel
reads and on the uncertified ones, so three families leak mass outside
one entry: a peeled event, a submask of a support, or such a submask
joined to later states.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from beliefkit import core, rules
from beliefkit import (
    AmbiguousArgmax,
    Belief,
    Event,
    HTRepresentation,
    OSRepresentation,
    StateSpace,
    UpdatingRule,
    bayesian_rule,
    conservative_rule,
    cps_to_os,
    ht_rule,
    is_concentrated,
    os_rule,
    os_to_ht,
    rules_equal,
    validate_cps,
)
from helpers import (
    canonical_form,
    exhaustive_validate_cps,
    grid_hierarchies,
    grid_rules,
    pair_validate,
    random_belief_on,
    random_canonical_os,
    random_overlapping_os,
)

RULES_PER_FAMILY = 100


def outcome(validation):
    return validation.status, validation.witness, validation.reason, validation.triples


def peel_masks(rule: UpdatingRule) -> list[int]:
    """The events the peel reads: the full space, then what each support leaves."""
    rest = (1 << len(rule.space)) - 1
    masks = []
    while rest:
        masks.append(rest)
        rest &= ~rule[Event(rule.space, rest)].support_mask
    return masks


def replace(rule: UpdatingRule, entries: dict[Event, Belief]) -> UpdatingRule:
    table = {event: rule[event] for event in rule.events()}
    table.update(entries)
    return UpdatingRule(rule.space, table)


def nudged(belief: Belief, event: Event) -> Belief:
    """Halfway between ``belief`` and the uniform belief on ``event``."""
    uniform = Belief.uniform_on(event)
    half = Fraction(1, 2)
    return Belief(
        event.space,
        {s: half * (a + b) for s, a, b in zip(event.space.states, belief.mass, uniform.mass)},
    )


def touched_events(rng: random.Random, rule: UpdatingRule) -> list[Event]:
    """One to three events, the first one read by the peel a third of the time."""
    events = list(rule.events())
    chosen = rng.sample(events, min(len(events), rng.randint(1, 3)))
    if rng.random() < 1 / 3:
        chosen[0] = Event(rule.space, rng.choice(peel_masks(rule)))
    return chosen


def random_space(rng: random.Random) -> StateSpace:
    n = rng.randint(1, 7)
    return StateSpace(tuple(f"s{i}" for i in range(n)))


def canonical(rng):
    return os_rule(random_canonical_os(rng, 7))


def overlapping(rng):
    return os_rule(random_overlapping_os(rng, 7))


def perturbed(rng):
    rule = os_rule(random_canonical_os(rng, 7))
    return replace(rule, {e: nudged(rule[e], e) for e in touched_events(rng, rule)})


def redrawn(rng):
    rule = os_rule(random_overlapping_os(rng, 7))
    return replace(rule, {e: random_belief_on(rng, e) for e in touched_events(rng, rule)})


def fully_random(rng):
    space = random_space(rng)
    return UpdatingRule(space, {e: random_belief_on(rng, e) for e in space.events()})


def several_priors(rng, max_states: int = 7) -> OSRepresentation:
    """A canonical hierarchy of two to four priors."""
    while True:
        hier = random_canonical_os(rng, max_states)
        if len(hier.priors) > 1:
            return hier


def fresh(rule: UpdatingRule) -> UpdatingRule:
    """The same table with every entry a belief of its own."""
    table = {e: Belief(e.space, dict(rule[e].items())) for e in rule.events()}
    return UpdatingRule(rule.space, table)


def traces(hier: OSRepresentation, k: int, q: int) -> list[int]:
    """The events other than ``q`` whose first prior is k and whose trace on k's support is q."""
    later = 0
    for prior in hier.priors[k + 1 :]:
        later |= prior.support_mask
    return [q | r for r in core.lex_submasks(later)[1:]]


def fresh_several(rng):
    rule = os_rule(several_priors(rng))
    if rng.random() < 0.5:
        rule = replace(rule, {e: nudged(rule[e], e) for e in touched_events(rng, rule)})
    return fresh(rule)


def wrong_trace(rng, share) -> UpdatingRule:
    """A wrong entry on a submask q of a support that some later support
    follows, put by identity on the events ``share`` picks of those tracing to q."""
    while True:
        hier = several_priors(rng)
        k = rng.randrange(len(hier.priors) - 1)
        q = rng.choice(core.lex_submasks(hier.priors[k].support_mask)[1:])
        rule = os_rule(hier)
        event = Event(rule.space, q)
        wrong = nudged(rule[event], event)
        if wrong != rule[event]:
            break
    shared = {Event(rule.space, e): wrong for e in share(rng, traces(hier, k, q))}
    return replace(rule, {event: wrong, **shared})


def wrong_trace_shared_by_all(rng):
    return wrong_trace(rng, lambda rng, events: events)


def wrong_trace_shared_by_some(rng):
    return wrong_trace(rng, lambda rng, events: rng.sample(events, rng.randint(0, len(events))))


def spanning(rng, pick) -> UpdatingRule:
    """A wrong entry on the event ``pick`` takes from those meeting two or
    more supports, in canonical order."""
    while True:
        hier = several_priors(rng)
        rule = os_rule(hier)
        supports = [prior.support_mask for prior in hier.priors]
        events = [e for e in rule.events() if sum(1 for s in supports if e.mask & s) > 1]
        event = pick(events)
        wrong = nudged(rule[event], event)
        if wrong == rule[event]:
            wrong = random_belief_on(rng, event)
        if wrong != rule[event]:
            return replace(rule, {event: wrong})


def spanning_first(rng):
    return spanning(rng, lambda events: events[0])


def spanning_middle(rng):
    return spanning(rng, lambda events: events[len(events) // 2])


def spanning_last(rng):
    return spanning(rng, lambda events: events[-1])


def point_mass_on_second(event: Event) -> Belief:
    return Belief(event.space, {event.members[1]: 1})


def many_wrong_in_a_later_support(rng):
    """Every event of two or more states inside a later support gets a
    wrong belief: a point mass on its second state, or a random one."""
    while True:
        hier = several_priors(rng, 8)
        support = rng.choice(hier.priors[1:]).support_mask
        if support.bit_count() > 1:
            break
    rule = os_rule(hier)
    point = rng.random() < 0.5
    wrong = {}
    for mask in core.lex_submasks(support):
        if mask.bit_count() > 1:
            event = Event(rule.space, mask)
            belief = point_mass_on_second(event) if point else random_belief_on(rng, event)
            # the update on two or more states of a support is never a point mass
            wrong[event] = point_mass_on_second(event) if belief == rule[event] else belief
    return replace(rule, wrong)


def leaking(rng, pick) -> UpdatingRule:
    """One entry, on the event ``pick`` takes, keeps mass on a state outside it."""
    hier = several_priors(rng)
    rule = os_rule(hier)
    event = Event(rule.space, pick(rng, hier, rule))
    outside = rng.choice([s for s in rule.space.states if s not in event.members])
    inside = random_belief_on(rng, event)
    masses = {s: m / 2 for s, m in inside.items() if m}
    leak = Belief(rule.space, {**masses, outside: Fraction(1, 2)})
    return replace(rule, {event: leak})


def leak_on_a_peeled_event(rng):
    return leaking(rng, lambda rng, hier, rule: rng.choice(peel_masks(rule)[1:]))


def leak_on_a_support_submask(rng):
    def pick(rng, hier, rule):
        return rng.choice(core.lex_submasks(rng.choice(hier.priors).support_mask)[1:])

    return leaking(rng, pick)


def leak_on_a_trace_extension(rng):
    def pick(rng, hier, rule):
        k = rng.randrange(len(hier.priors) - 1)
        q = rng.choice(core.lex_submasks(hier.priors[k].support_mask)[1:])
        full = (1 << len(rule.space)) - 1
        return rng.choice([e for e in traces(hier, k, q) if e != full] or [q])

    return leaking(rng, pick)


def conservative(rng):
    prior = random_canonical_os(rng, 7).priors[0]
    return conservative_rule(prior, Fraction(rng.randint(1, 4), 4))


def bayesian(rng):
    return bayesian_rule(random_overlapping_os(rng, 7).priors[0])


FAMILIES = (
    canonical,
    overlapping,
    perturbed,
    redrawn,
    fully_random,
    conservative,
    bayesian,
    fresh_several,
    wrong_trace_shared_by_all,
    wrong_trace_shared_by_some,
    spanning_first,
    spanning_middle,
    spanning_last,
    many_wrong_in_a_later_support,
    leak_on_a_peeled_event,
    leak_on_a_support_submask,
    leak_on_a_trace_extension,
)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
def test_validate_cps_matches_the_exhaustive_scan(family):
    rng = random.Random(f"cps-differential-{family.__name__}")
    statuses = set()
    for _ in range(RULES_PER_FAMILY):
        rule = family(rng)
        got = validate_cps(rule)
        assert outcome(got) == outcome(exhaustive_validate_cps(rule)), rule
        assert validate_cps(fresh(rule)) == got, rule
        statuses.add(got.status)
        if got:
            assert os_rule(OSRepresentation(rule.space, got.priors)) == rule
    expected = {
        "canonical": {"valid"},
        "overlapping": {"valid"},
        "conservative": {"not-candidate", "valid"},
        "bayesian": {"not-candidate", "valid"},
        "leak_on_a_peeled_event": {"not-candidate"},
        "leak_on_a_support_submask": {"not-candidate"},
        "leak_on_a_trace_extension": {"not-candidate"},
    }.get(family.__name__, {"valid", "violation"})
    assert statuses <= expected
    assert "violation" in statuses or "violation" not in expected


def test_validate_cps_matches_the_exhaustive_scan_on_every_grid_rule():
    """Every complete rule ``grid_rules`` makes: |S| <= 3 on the 1/2- and 1/3-grids.

    The domain is 969 rules: 811 concentrated ones (|S| = 3: 640 on the
    1/3-grid and 162 on the 1/2-grid; |S| = 2: 4 and 3; |S| = 1: one per
    grid), 39 of them CPSs, and 158 that leak mass outside one entry.
    ``priors`` is left out, because the oracle returns none.  A
    disagreement fails with the rule's table.
    """
    statuses = Counter()
    for rule in grid_rules():
        got = validate_cps(rule)
        assert outcome(got) == outcome(exhaustive_validate_cps(rule)), {
            event.members: rule[event] for event in rule.events()
        }
        assert pair_validate(rule) == got.status
        statuses[got.status] += 1
    assert statuses == {"valid": 39, "violation": 772, "not-candidate": 158}


def test_every_grid_hierarchy_is_certified_and_decomposes_to_its_canonical_form():
    """Every hierarchy ``grid_hierarchies`` makes: |S| <= 3 on the 1/2- and
    1/3-grids, and |S| = 4 on the 1/2-grid.

    The domain is 1015 hierarchies: 217 at |S| <= 3 (40 canonical, 177
    overlapping) and 798 at |S| = 4 (66 canonical, 732 overlapping).  Each
    one's rule is valid with all 4^n - 2^n triples, ``cps_to_os`` gives its
    canonical form, and a fresh copy of the rule gets the same validation.
    A disagreement fails with the hierarchy's priors.
    """
    kinds = Counter()
    for n, den in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
        for hier in grid_hierarchies(n, den):
            rule = os_rule(hier)
            got = validate_cps(rule)
            assert (got.status, got.triples) == ("valid", 4**n - 2**n), hier.priors
            assert cps_to_os(rule) == canonical_form(hier), hier.priors
            assert validate_cps(fresh(rule)) == got, hier.priors
            kinds[n == 4, hier.is_canonical] += 1
    assert kinds == {(False, True): 40, (False, False): 177, (True, True): 66, (True, False): 732}


def test_decompose_of_an_overlapping_hierarchy_is_its_canonical_form():
    rng = random.Random(20260816)
    for _ in range(40):
        hier = random_overlapping_os(rng, 7)
        assert cps_to_os(os_rule(hier)) == canonical_form(hier)


def test_induced_rules_are_certified_without_the_witness_search(monkeypatch):
    """Every entry of a hierarchy's own rule passes the certificate itself."""

    def no_search(*args):
        raise AssertionError("the certificate left an entry of an induced rule uncertified")

    monkeypatch.setattr(rules, "_first_break", no_search)
    rng = random.Random("cps-certificate")
    for make in (random_canonical_os, random_overlapping_os):
        for _ in range(60):
            rule = os_rule(make(rng, 7))
            assert validate_cps(rule).status == "valid"


def test_the_search_reads_only_pairs_holding_a_changed_entry(monkeypatch):
    """The certificate flags changed entries and the entries they make wrong,
    so the witness search never pairs two unchanged, consistent entries.

    The supports interleave, so {s0,s1,s2} and {s0,s1,s3}, whose meet with
    the first support is {s0,s1}, come before the violation that a changed
    {s0,s1} entry makes: a certificate that compared an event's entry with
    the entry on its meet would flag them, and the search would pair them
    with their unchanged subsets.  The full-space entry (read by the peel)
    changes the first prior on s4 only, the last state, so every entry it
    makes wrong comes after the full space in canonical order; the entry
    on {s2,s3} (also read by the peel) changes the second prior.
    """
    space = StateSpace(("s0", "s1", "s2", "s3", "s4"))
    first = Belief(space, {"s0": Fraction(1, 6), "s1": Fraction(2, 6), "s4": Fraction(3, 6)})
    second = Belief(space, {"s2": Fraction(1, 4), "s3": Fraction(3, 4)})
    rule = os_rule(OSRepresentation(space, (first, second)))
    changes = {
        ("s0", "s1"): {"s0": Fraction(1, 2), "s1": Fraction(1, 2)},
        ("s0", "s1", "s2", "s3", "s4"): {
            "s0": Fraction(1, 4),
            "s1": Fraction(2, 4),
            "s4": Fraction(1, 4),
        },
        ("s2", "s3"): {"s2": Fraction(1, 2), "s3": Fraction(1, 2)},
    }
    search = rules._first_break
    calls = []

    def recorded(given_e, given_f, f, gs):
        calls.append((given_e, given_f))
        return search(given_e, given_f, f, gs)

    monkeypatch.setattr(rules, "_first_break", recorded)
    statuses = []
    for members, masses in changes.items():
        changed = Belief(space, masses)
        broken = replace(rule, {space.event(*members): changed})
        calls.clear()
        got = validate_cps(broken)
        assert outcome(got) == outcome(exhaustive_validate_cps(broken))
        assert all(changed is given_e or changed is given_f for given_e, given_f in calls), members
        statuses.append(got.status)
    assert statuses == ["violation", "violation", "valid"]


def test_the_certificate_reads_numerators_once_per_peeled_prior(monkeypatch):
    """A single-prior rule at |S| = 12 is certified on the posteriors the
    prior keeps from ``os_rule``'s walk, without a per-event pass over an
    event's states: ``mask_indices`` and ``Belief.mask_num`` run at most
    once per peeled prior, not once per each of the 4095 events."""
    space = StateSpace(tuple(f"s{i}" for i in range(12)))
    prior = Belief(space, {s: Fraction(i + 1, 78) for i, s in enumerate(space.states)})
    rule = os_rule(OSRepresentation(space, (prior,)))
    counts = {"mask_indices": 0, "mask_num": 0}

    def counted(name, function):
        def wrapper(*args):
            counts[name] += 1
            return function(*args)

        return wrapper

    monkeypatch.setattr(core, "mask_indices", counted("mask_indices", core.mask_indices))
    monkeypatch.setattr(rules, "mask_indices", counted("mask_indices", rules.mask_indices))
    monkeypatch.setattr(Belief, "mask_num", counted("mask_num", Belief.mask_num))
    got = validate_cps(rule)
    assert got.priors == (prior,)
    assert counts["mask_indices"] <= len(got.priors)
    assert counts["mask_num"] <= len(got.priors)


def three_priors_at_nine() -> tuple[UpdatingRule, tuple[Belief, ...]]:
    """The OS rule of three priors on three states each at |S| = 9, and its priors."""
    space = StateSpace(tuple(f"s{i}" for i in range(9)))
    chunks = (("s0", "s4", "s7"), ("s1", "s2", "s8"), ("s3", "s5", "s6"))
    priors = tuple(
        Belief(space, {s: Fraction(i + 1, 6) for i, s in enumerate(chunk)}) for chunk in chunks
    )
    return os_rule(OSRepresentation(space, priors)), priors


def test_certifying_a_valid_rule_builds_no_belief_and_no_event(monkeypatch):
    """Three priors at |S| = 9: the certificate compares the entries the
    table holds, and no Bayes update or ``Event`` is made along the way."""
    rule, priors = three_priors_at_nine()
    built = []
    real = {"event": Event.__init__, "belief": Belief.__init__, "numerators": Belief._init}

    def counted(name):
        def wrapper(self, *args):
            built.append(name)
            return real[name](self, *args)

        return wrapper

    monkeypatch.setattr(Event, "__init__", counted("event"))
    monkeypatch.setattr(Belief, "__init__", counted("belief"))
    monkeypatch.setattr(Belief, "_init", counted("numerators"))
    got = validate_cps(rule)
    monkeypatch.undo()
    assert built == []
    assert got.status == "valid" and got.priors == priors


def test_the_certificate_compares_by_identity_and_reads_every_entry(monkeypatch):
    """Three priors at |S| = 9, 511 entries.  Where the table holds the
    kept posteriors, every entry is certified by identity and
    ``Belief.__eq__`` never runs; on a fresh copy it runs once per entry
    that is not a peeled prior, 2^9 - 1 - 3 times, so no entry goes unread."""
    rule, priors = three_priors_at_nine()
    copy = fresh(rule)
    calls = []
    real = Belief.__eq__

    def counted(self, other):
        calls.append(self)
        return real(self, other)

    monkeypatch.setattr(Belief, "__eq__", counted)
    kept = validate_cps(rule)
    assert calls == []
    copied = validate_cps(copy)
    assert len(calls) == 2**9 - 1 - 3
    monkeypatch.undo()
    assert kept.status == copied.status == "valid" and kept.priors == priors


@pytest.mark.parametrize("sizes", [(1, 2, 3), (3, 2, 1)])
def test_each_entry_is_certified_along_either_side_of_its_block(sizes):
    """|S| = 6, canonical supports of the given sizes over interleaved
    states.  Sizes (1, 2, 3) peel blocks of 1 x 32 and 3 x 8 traces by
    later sets, fewer traces than later sets, then 7 x 1; sizes (3, 2, 1)
    peel 7 x 8, then 3 x 2 and the tie 1 x 1.  Each block is read whole.
    Each event of two or more states gets, in turn, the uniform belief in
    place of its entry wherever that differs, on the table and on a fresh
    copy: the validator must give the exhaustive scan's answer."""
    space = StateSpace(tuple(f"s{i}" for i in range(6)))
    order, priors = ["s2", "s4", "s5", "s1", "s3", "s0"], []
    for size in sizes:
        chunk, order = order[:size], order[size:]
        total = size * (size + 1) // 2
        priors.append(Belief(space, {s: Fraction(i + 1, total) for i, s in enumerate(chunk)}))
    rule = os_rule(OSRepresentation(space, tuple(priors)))
    changed = 0
    for event in rule.events():
        uniform = Belief.uniform_on(event)
        if len(event) < 2 or rule[event] == uniform:
            continue
        broken = replace(rule, {event: uniform})
        expected = outcome(exhaustive_validate_cps(broken))
        assert outcome(validate_cps(broken)) == expected, event
        assert outcome(validate_cps(fresh(broken))) == expected, event
        changed += 1
    assert changed > 40


def test_a_fresh_table_builds_each_peeled_walk_once(monkeypatch):
    """Supports of 4, 3 and 2 states at |S| = 9, every entry a belief of
    its own, so no peeled prior keeps a walk: the first validation builds
    each peeled prior's updates on the proper nonempty submasks of its
    support, 2^|s_k| - 2 of them (14 + 6 + 2), and keeps them on the
    prior; a second validation of the same rule builds none."""
    space = StateSpace(tuple(f"s{i}" for i in range(9)))
    chunks = (("s0", "s4", "s7", "s8"), ("s1", "s2", "s6"), ("s3", "s5"))
    priors = tuple(
        Belief(space, {s: Fraction(i + 1, sum(range(len(chunk) + 1))) for i, s in enumerate(chunk)})
        for chunk in chunks
    )
    rule = fresh(os_rule(OSRepresentation(space, priors)))
    built = []
    real = Belief._init

    def counted(self, *args):
        built.append(self)
        return real(self, *args)

    monkeypatch.setattr(Belief, "_init", counted)
    first = validate_cps(rule)
    assert len(built) == sum(2 ** len(chunk) - 2 for chunk in chunks) == 22
    built.clear()
    second = validate_cps(rule)
    monkeypatch.undo()
    assert built == []
    assert first == second and first.status == "valid" and first.priors == priors


def test_is_concentrated_witnesses_the_canonically_first_failure():
    rng = random.Random("concentrated-witness")
    for _ in range(100):
        space = random_space(rng)
        events = list(space.events())
        rng.shuffle(events)
        table = {e: random_belief_on(rng, rng.choice([e, space.full_event])) for e in events}
        rule = UpdatingRule(space, table)
        failures = [e for e in space.events() if rule[e].support_mask & ~e.mask]
        check = is_concentrated(rule)
        assert bool(check) == (not failures)
        assert check.witness == (failures[0] if failures else None)


def test_the_triples_before_a_pair_have_a_closed_form():
    """``_ahead`` counts what an exhaustive scan enumerates before (E, F):
    3^|D| - 1 triples for each event D ahead of E, then 2^|F'| for each
    nonempty F' ahead of F among E's submasks."""
    for n in range(1, 7):
        before = 0
        for e in StateSpace(tuple(f"s{i}" for i in range(n))).canonical_masks():
            states = core.mask_indices(e)
            assert rules._ahead(states, 3, n) - rules._ahead(states, 1, n) == before
            subs = core.lex_submasks(e)
            for f in subs[1:]:
                inside = [j for j, i in enumerate(states) if f >> i & 1]
                expected = sum(1 << x.bit_count() for x in subs[1 : subs.index(f)])
                assert rules._ahead(inside, 2, len(states)) == expected
            before += 3 ** e.bit_count() - 1


def test_the_next_superset_follows_canonical_order():
    for a in range(1, 1 << 6):
        subs = core.lex_submasks(a)[1:]
        for f in subs:
            supersets = [e for e in subs if e & f == f]
            for e, after in zip(supersets, supersets[1:]):
                assert rules._next_superset(e, f, a) == after


def test_a_late_violation_costs_one_pair_test(monkeypatch):
    """|S| = 12, the first support three states: every event of two or
    more states past it holds a point mass on its second state, so the
    first violation comes after 7/8 of the events.  The search starts
    from the uncertified entries and tests only the witness's pair; a
    scan of every event before it made 73936 pair tests."""
    space = StateSpace(tuple(f"s{i}" for i in range(12)))
    first = Belief(space, {"s0": Fraction(1, 6), "s1": Fraction(2, 6), "s2": Fraction(3, 6)})
    second = Belief(space, {f"s{i}": Fraction(i - 2, 45) for i in range(3, 12)})
    rule = os_rule(OSRepresentation(space, (first, second)))
    late = {
        e: point_mass_on_second(e)
        for e in rule.events()
        if len(e) > 1 and e.mask & ~second.support_mask == 0
    }
    rule = replace(rule, late)
    search = rules._first_break
    calls = []

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(rules, "_first_break", counted)
    got = validate_cps(rule)
    assert outcome(got) == (
        "violation",
        rules.CpsWitness(
            g=space.event("s4"),
            f=space.event("s4", "s5"),
            e=space.event("s3", "s4", "s5"),
            lhs=Fraction(1),
            rhs=Fraction(0),
        ),
        None,
        16511520,
    )
    assert len(calls) == 1


def breaks_the_chain_rule(rule: UpdatingRule, witness) -> bool:
    """The witness is a nested triple whose two sides, in Fractions from the table, differ."""
    g, f, e = witness.g, witness.f, witness.e

    def mass(given: Event, event: Event) -> Fraction:
        return sum((rule[given].mass[i] for i in event.indices), Fraction(0))

    lhs, rhs = mass(e, g), mass(f, g) * mass(e, f)
    nested = g.mask & ~f.mask == 0 and f.mask & ~e.mask == 0 and f.mask != 0
    return nested and (lhs, rhs) == (witness.lhs, witness.rhs) and lhs != rhs


def pair_oracle_rules(rng: random.Random, n: int):
    """One table of each kind at |S| = n, by name."""
    hier = random_canonical_os(rng, n, n)
    overlap = random_overlapping_os(rng, n, n)
    rule = os_rule(overlap)
    yield "canonical", os_rule(hier)
    yield "overlapping", rule
    redrawn = {e: random_belief_on(rng, e) for e in touched_events(rng, rule)}
    yield "perturbed", replace(rule, redrawn)
    eps = rng.choice((Fraction(1, 8), Fraction(1, 4), Fraction(1, 3)))
    for source in (hier, overlap):
        raw = [rng.randint(1, 4) for _ in source.priors[1:]]
        raw = [max(raw, default=0) + 1, *raw]
        for rho in (os_to_ht(source).rho, [Fraction(w, sum(raw)) for w in raw]):
            try:
                yield "ht", ht_rule(HTRepresentation(source.space, source.priors, rho, eps))
            except AmbiguousArgmax:
                pass
    yield "conservative", conservative_rule(hier.priors[0], Fraction(rng.randint(1, 4), 4))
    yield "fresh", fresh(os_rule(hier))


def test_validate_cps_gives_the_two_state_scans_status_up_to_twelve_states():
    """``validate_cps`` against ``helpers.pair_validate`` at |S| = 6 .. 12, beyond the triple scan.

    Twice per |S|, with seeded hierarchies: the rules of a canonical and an
    overlapping one, the overlapping one's table with one to three entries
    redrawn, ``ht_rule`` of each hierarchy's priors at a threshold in
    {1/8, 1/4, 1/3} under ``os_to_ht``'s weights (a CPS) and under random
    top-heavy ones (skipped on a tie), ``conservative_rule`` of the
    canonical top prior, and the canonical rule rebuilt entry by entry:
    122 rules, 52 of them ``ht_rule`` tables.  Every status must match,
    and every witness must break the chain rule.
    """
    rng = random.Random("cps-pair-oracle")
    statuses = Counter()
    for n in [*range(6, 13)] * 2:
        for kind, rule in pair_oracle_rules(rng, n):
            got = validate_cps(rule)
            assert got.status == pair_validate(rule), (kind, n)
            if got.status == "violation":
                assert breaks_the_chain_rule(rule, got.witness), (kind, n)
            statuses[kind, got.status] += 1
    assert statuses["ht", "valid"] and statuses["ht", "violation"]
    assert statuses["perturbed", "violation"] and statuses["conservative", "not-candidate"]
    assert statuses["fresh", "valid"] == 14 and sum(statuses.values()) == 122


def weighted_prior(space: StateSpace, states) -> Belief:
    """Weights 1, 2, ... on ``states``, in order."""
    total = len(states) * (len(states) + 1) // 2
    return Belief(space, {s: Fraction(i + 1, total) for i, s in enumerate(states)})


def edge_positions(length: int) -> list[set[int]]:
    """Positions to change in a row of ``length`` entries, one set per case.

    The row's ends; both sides of the slice boundaries of ``rules._WIDTH``
    near them, in the middle and before the last, partial slice; and
    several positions at once: both ends, a pair across a boundary, a run
    over two boundaries, and one position in each slice.
    """
    w = rules._WIDTH
    mid, tail = length // 2, length - length % w
    ones = {0, 1, w - 1, w, w + 1, 2 * w - 1, 2 * w, mid - 1, mid, mid + 1}
    ones |= {tail - 1, tail, length - w - 1, length - w, length - 2, length - 1}
    several = [{0, length - 1}, {w - 1, w}, {1, mid, length - 2}, set(range(w - 2, 2 * w + 2))]
    several.append(set(range(0, length, w + 1)))
    return [{p} for p in sorted(ones) if p < length] + several


def wrong(rule: UpdatingRule, event: Event) -> Belief:
    """A belief other than the rule's on ``event``: uniform on it, or, on a single state,
    uniform on the whole space, which leaks."""
    return Belief.uniform_on(event if len(event) > 1 else rule.space.full_event)


def scanned(prior, rs, table) -> list[int]:
    """``_misses`` by a per-entry scan, in its order: r by r, the kept traces, then the support."""
    qs = [*core.kept_traces(prior).items(), (prior.support_mask, prior)]
    cells = [(q | r, x) for r in rs for q, x in qs]
    return [e for e, x in cells if table[e] is not x and table[e] != x]


def single_prior_row(n: int):
    """The rule of one prior, weights 1 .. n, and its one block in the order ``_misses``
    reads it: the events in canonical order, the whole space moved last."""
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    rule = os_rule(OSRepresentation(space, (weighted_prior(space, space.states),)))
    full = space.full_event.mask
    return rule, [[mask for mask in space.canonical_masks() if mask != full] + [full]]


def three_prior_block():
    """Three priors on 2, 3 and 3 of 8 interleaved states, and the first block in
    the order ``_misses`` reads it: r over the 64 sets of later states, and for each
    the events q | r of the kept traces {s3} and {s6}, then of the support."""
    space = StateSpace(tuple(f"s{i}" for i in range(8)))
    chunks = (("s3", "s6"), ("s0", "s4", "s7"), ("s1", "s2", "s5"))
    rule = os_rule(OSRepresentation(space, tuple(weighted_prior(space, c) for c in chunks)))
    first = space.event(*chunks[0]).mask
    rs = core.lex_submasks(space.full_event.mask & ~first)
    qs = [q for q in core.lex_submasks(first)[1:] if q != first] + [first]
    return rule, [[q | r for r in rs for q in qs]]


@pytest.mark.parametrize(
    "make", [*(lambda n=n: single_prior_row(n) for n in (8, 9, 10)), three_prior_block],
    ids=["one-prior-8", "one-prior-9", "one-prior-10", "three-priors-8"],
)
def test_misses_are_listed_at_the_edges_of_long_rows(make, monkeypatch):
    """Blocks of 255, 511 and 1023 entries (one prior at |S| = 8, 9, 10) and
    a first block of 192 (three priors at |S| = 8, 3 traces by 64 later
    sets, read r by r), each with entries changed at ``edge_positions``, as a table and as a fresh
    copy compared by value.  Every ``_misses`` call lists exactly the events
    a per-entry scan finds, in its order.  At |S| = 8 the validation is the
    exhaustive scan's; beyond it, its status is ``helpers.pair_validate``'s
    and its witness breaks the chain rule."""
    rule, rows = make()
    listing = rules._misses
    calls = []

    def recorded(prior, rs, table):
        misses = listing(prior, rs, table)
        calls.append((scanned(prior, rs, table), misses))
        return misses

    monkeypatch.setattr(rules, "_misses", recorded)
    statuses = Counter()
    for row in rows:
        for positions in edge_positions(len(row)):
            events = [Event(rule.space, row[p]) for p in positions]
            broken = replace(rule, {event: wrong(rule, event) for event in events})
            for table in (broken, fresh(broken)):
                calls.clear()
                got = validate_cps(table)
                assert calls and all(misses == expected for expected, misses in calls), positions
                assert any(misses for _, misses in calls), positions
                if len(rule.space) == 8:
                    assert outcome(got) == outcome(exhaustive_validate_cps(table)), positions
                else:
                    assert got.status == pair_validate(table), positions
                    if got.status == "violation":
                        assert breaks_the_chain_rule(table, got.witness), positions
                statuses[got.status] += 1
    assert statuses["violation"] and statuses["not-candidate"]


@pytest.mark.parametrize("position", [5, 250, 500])
def test_a_failing_row_compared_by_value_reads_each_entry_at_most_twice_over(
    position, monkeypatch
):
    """One prior at |S| = 9, weights 1 .. 9, with the entry on the event at
    ``position`` of 511 in canonical order made uniform, then copied entry
    by entry, so that no entry is its expected posterior and every
    comparison runs ``Belief.__eq__``.  The whole-row comparison stops at
    the changed entry and the listing compares each entry at most twice,
    so the call makes at most 2 (2^9 - 1) comparisons plus one slice of
    ``rules._WIDTH`` entries: a listing that compared the row once per
    level of a halving would make more."""
    rule, (row,) = single_prior_row(9)
    event = Event(rule.space, row[position])
    copy = fresh(replace(rule, {event: Belief.uniform_on(event)}))
    calls = []
    real = Belief.__eq__

    def counted(self, other):
        calls.append(self)
        return real(self, other)

    monkeypatch.setattr(Belief, "__eq__", counted)
    got = validate_cps(copy)
    monkeypatch.undo()
    assert got.status == "violation" and breaks_the_chain_rule(copy, got.witness)
    assert len(calls) <= 2 * (2**9 - 1) + rules._WIDTH


def test_each_peeled_block_is_read_from_the_table_in_one_call(monkeypatch):
    """Three priors on 3, 3 and 4 of 10 interleaved states, as a fresh table
    of 1023 entries.  ``validate_cps`` of it, and ``rules_equal`` of the
    hierarchy's listed rule and it, each read the table in 3 ``itemgetter``
    calls, one per peeled block of 7 x 128, 7 x 16 and 15 x 1 events, which
    together read every entry once; reading a block one trace or one set of
    later states at a time would make 15."""
    space = StateSpace(tuple(f"s{i}" for i in range(10)))
    chunks = (("s2", "s5", "s9"), ("s0", "s3", "s7"), ("s1", "s4", "s6", "s8"))
    hier = OSRepresentation(space, tuple(weighted_prior(space, c) for c in chunks))
    table = fresh(os_rule(hier))
    getter, reads = rules.itemgetter, []

    def counted(*keys):
        reads.append(len(keys))
        return getter(*keys)

    monkeypatch.setattr(rules, "itemgetter", counted)
    got = validate_cps(table)
    assert got.status == "valid" and got.priors == hier.priors
    assert reads == [7 * 128, 7 * 16, 15]
    reads.clear()
    assert rules_equal(os_rule(hier), table)
    assert reads == [7 * 128, 7 * 16, 15]
