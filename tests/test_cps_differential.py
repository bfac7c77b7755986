"""validate_cps against the exhaustive triple scan, on rules of every kind.

The certificate-first validator must give the oracle's status, reason,
first witness and triple count on every rule: CPS tables induced by
canonical and by overlapping hierarchies, tables with entries nudged or
redrawn (including the entries the peel reads), fully random concentrated
tables, and the non-candidates ``conservative_rule`` and ``bayesian_rule``.

The certificate tests each submask of a peeled support and then compares
every other event's entry with its trace's, the entry on its meet with the
support of its first prior.  So some families aim at that comparison:
many-prior tables of fresh beliefs, where no entry is another's object; a
wrong trace entry shared by identity with all, or some, of the events
that trace to it; and a wrong entry on the first, a middle or the last
event that meets two supports.

The witness search starts from the uncertified entries, so one family
makes many of them: every event of two or more states inside a later
support gets a wrong belief, and the first violation comes late in
canonical order.  Concentration is checked only on the entries the peel
reads and on the uncertified ones, so three families leak mass outside
one entry: a peeled event, a submask of a support, or such a submask
joined to later states.
"""

import random
from fractions import Fraction

import pytest

from beliefkit import core, rules
from beliefkit import (
    Belief,
    Event,
    OSRepresentation,
    StateSpace,
    UpdatingRule,
    bayesian_rule,
    conservative_rule,
    cps_to_os,
    is_concentrated,
    os_rule,
    validate_cps,
)
from helpers import (
    canonical_form,
    exhaustive_validate_cps,
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
    """A single-prior rule at |S| = 12 is certified without a per-event pass
    over an event's states: ``mask_indices`` and ``Belief.mask_num`` run at
    most once per peeled prior, not once per each of the 4095 events."""
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


def test_certifying_a_valid_rule_builds_no_belief_and_no_event(monkeypatch):
    """Three priors at |S| = 9: the certificate compares the entries the
    table holds, and no Bayes update or ``Event`` is made along the way."""
    space = StateSpace(tuple(f"s{i}" for i in range(9)))
    chunks = (("s0", "s4", "s7"), ("s1", "s2", "s8"), ("s3", "s5", "s6"))
    priors = tuple(
        Belief(space, {s: Fraction(i + 1, 6) for i, s in enumerate(chunk)}) for chunk in chunks
    )
    rule = os_rule(OSRepresentation(space, priors))
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
