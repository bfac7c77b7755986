"""Rules that hold their prior list, against tables of the same entries and ``os_update``.

``os_rule`` and ``bayesian_rule`` return a rule of blocks alone, one per
update of the ordered prior list it walked, and no exception.  A
per-entry read (``[]``, ``get``, ``in``) answers from the first block
whose support meets the event, and no reader adds an exception.  Every
reader (``len``, ``events``, ``==``, ``rules_equal``, ``is_complete``,
``is_concentrated``, ``validate_cps``, ``cps_to_os`` and the per-entry
read) must answer as it does on a table of the same entries built one
event at a time from ``os_update`` (``bayes_update`` for
``bayesian_rule``), and ``rules_equal``
must name the first event an event-by-event scan finds, against copies
with one entry changed, dropped or added.  Such a rule is the CPS its
list induces, so ``validate_cps``, ``cps_to_os``, ``is_concentrated``
and ``==`` between two of them answer from the lists alone: no
``Belief.__eq__`` call, no ``Belief`` or ``Event`` built.

The inputs are every ``grid_hierarchies`` hierarchy (1015 of them,
|S| <= 4), then seeded canonical and overlapping hierarchies at
|S| = 5-10; each is run under ``os_rule``, and each of its priors under
``bayesian_rule``, whose domain misses the events off its support.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest

from beliefkit import (
    Belief,
    CheckResult,
    Event,
    NotCps,
    OSRepresentation,
    StateSpace,
    UpdatingRule,
    bayes_update,
    bayesian_rule,
    cps_to_os,
    eps_os_construction,
    ht_rule,
    ht_select,
    is_complete,
    is_concentrated,
    os_rule,
    os_to_ht,
    os_update,
    rules,
    rules_equal,
    validate_cps,
)
from beliefkit.core import ZERO, kept_traces
from beliefkit.errors import OutsideDomain
from beliefkit.ordered_surprises import min_order
from helpers import canonical_form, grid_hierarchies, random_canonical_os, random_overlapping_os


def scanned_rules_equal(a: UpdatingRule, b: UpdatingRule) -> CheckResult:
    """Oracle for ``rules_equal`` on tables: the event-by-event scan."""
    for event in a.space.events():
        if a.get(event) != b.get(event):
            return CheckResult(False, event)
    return CheckResult(True)


def decomposed(rule: UpdatingRule):
    try:
        return cps_to_os(rule).priors
    except NotCps as err:
        return err.validation


def variants(table: UpdatingRule, rng: random.Random) -> list[UpdatingRule]:
    """Copies of ``table`` with one entry changed, one dropped, and one added off its domain."""
    space = table.space
    entries = {event: table[event] for event in table.events()}
    event = rng.choice(list(entries))
    copies = [{e: b for e, b in entries.items() if e != event}]
    for other in (Belief.uniform_on(space.full_event), Belief.uniform_on(event)):
        if other != entries[event]:  # at |S| = 1 every belief is the one point mass
            copies.append({**entries, event: other})
            break
    outside = [e for e in space.events() if e not in entries]
    if outside:
        added = rng.choice(outside)
        copies.append({**entries, added: Belief.uniform_on(added)})
    return [UpdatingRule(space, copy) for copy in copies]


def check_listed(rule: UpdatingRule, update, rng: random.Random) -> str:
    """Every reader of the list-backed ``rule`` against a table of ``update`` on its domain."""
    space = rule.space
    assert rule._blocks and not rule._exceptions, "a listed rule holds an exception"
    domain, outside = [], []
    for event in space.events():
        try:
            domain.append((event, update(event)))
        except Exception:  # no prior, or a null event: off the domain
            outside.append(event)
    table = UpdatingRule(space, dict(domain))
    got = validate_cps(rule)

    # the block readers
    assert len(rule) == len(table) == len(domain)
    assert rule.events() == table.events() == tuple(event for event, _ in domain)
    assert is_complete(rule) == is_complete(table) == (not outside)
    assert is_concentrated(rule) == is_concentrated(table) == CheckResult(True)
    assert rule == table and table == rule
    assert rules_equal(rule, table) == rules_equal(table, rule) == CheckResult(True)
    for copy in variants(table, rng):
        assert rule != copy and copy != rule
        assert rules_equal(rule, copy) == scanned_rules_equal(table, copy)
        assert rules_equal(copy, rule) == scanned_rules_equal(copy, table)
        assert not rules_equal(rule, copy)
    assert got == validate_cps(table)
    assert decomposed(rule) == decomposed(table)

    # the per-entry readers agree with the table
    for event, belief in domain:
        assert rule[event] == belief and rule.get(event) == belief and event in rule
    for event in outside:
        assert rule.get(event) is None and event not in rule
        with pytest.raises(OutsideDomain):
            rule[event]
    assert not rule._exceptions, "a reader added an exception"
    assert validate_cps(rule) == got and len(rule) == len(domain)
    return got.status


def seeded_hierarchies():
    rng = random.Random(20261019)
    for make in (random_canonical_os, random_overlapping_os):
        for _ in range(12):
            yield make(rng, max_states=10, min_states=5)


def test_every_grid_hierarchy_reads_alike_from_its_list_and_its_table():
    """1015 hierarchies at |S| <= 4, and the Bayesian rule of each distinct prior among them."""
    rng = random.Random("listed-grid")
    statuses = Counter()
    for n, den in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
        priors = {}
        for hier in grid_hierarchies(n, den):
            status = check_listed(os_rule(hier), lambda e: os_update(hier, e), rng)
            assert status == "valid"
            assert cps_to_os(os_rule(hier)) == canonical_form(hier)
            statuses["os"] += 1
            priors.update(dict.fromkeys(hier.priors))
        for prior in priors:
            status = check_listed(bayesian_rule(prior), lambda e: bayes_update(prior, e), rng)
            statuses[status] += 1
    assert statuses["os"] == 1015
    assert statuses["valid"] and statuses["not-candidate"]


@pytest.mark.parametrize("index", range(24))
def test_seeded_hierarchies_read_alike_from_their_list_and_their_table(index):
    """12 canonical and 12 overlapping hierarchies at |S| = 5-10."""
    hier = list(seeded_hierarchies())[index]
    rng = random.Random(index)
    assert check_listed(os_rule(hier), lambda e: os_update(hier, e), rng) == "valid"
    for prior in hier.priors:
        check_listed(bayesian_rule(prior), lambda e: bayes_update(prior, e), rng)


def test_the_seeded_hierarchies_span_the_sizes_and_kinds():
    hierarchies = list(seeded_hierarchies())
    assert {len(hier.space) for hier in hierarchies} >= {5, 10}
    assert sum(hier.is_canonical for hier in hierarchies) >= 12
    assert sum(not hier.is_canonical for hier in hierarchies) >= 6


def test_two_listed_rules_compare_by_their_lists():
    """Equal lists (a hierarchy and its canonical form) give equal rules;
    unequal ones name the first event an event-by-event scan finds."""
    rng = random.Random("listed-pairs")
    verdicts = Counter()
    for _ in range(60):
        a, b = (random_overlapping_os(rng, max_states=5, min_states=3) for _ in range(2))
        left, right = os_rule(a), os_rule(canonical_form(a))
        assert left == right and rules_equal(right, left) == CheckResult(True)
        assert not left._exceptions and not right._exceptions, "a compare added an exception"
        if len(a.space) != len(b.space):
            continue
        left, right = os_rule(a), os_rule(b)
        expected = scanned_rules_equal(
            *[UpdatingRule(a.space, {e: rule[e] for e in rule.events()}) for rule in (left, right)]
        )
        assert rules_equal(os_rule(a), os_rule(b)) == expected
        left, right = os_rule(a), os_rule(b)
        assert (left == right) == expected.ok == (right == left)
        assert not left._exceptions and not right._exceptions, "== added an exception"
        verdicts[expected.ok] += 1
    assert verdicts[False] > 10


def test_two_complete_tables_compare_by_their_dicts(monkeypatch):
    """A 1023-entry table of three priors at |S| = 10 against an equal copy and
    against copies with one entry changed (the first, a middle and the last
    event in canonical order): ``==`` and ``rules_equal`` list no submask,
    since two complete tables are compared as dicts and only a difference
    lists the table's own keys.  Each verdict is the event-by-event scan's."""
    space = StateSpace(tuple(f"s{i}" for i in range(10)))
    chunks = (("s0", "s4", "s7"), ("s1", "s2", "s5", "s8"), ("s3", "s6", "s9"))
    priors = [
        Belief(space, {s: Fraction(i + 1, len(c) * (len(c) + 1) // 2) for i, s in enumerate(c)})
        for c in chunks
    ]
    rule = os_rule(OSRepresentation(space, priors))
    entries = {event: rule[event] for event in rule.events()}
    table = UpdatingRule(space, entries)
    events = list(entries)
    copies = [UpdatingRule(space, dict(entries))]
    for event in (events[0], events[len(events) // 2], events[-1]):
        copies.append(UpdatingRule(space, {**entries, event: Belief.uniform_on(space.full_event)}))
    listed = []
    real = rules.lex_submasks

    def counted(mask):
        listed.append(mask)
        return real(mask)

    monkeypatch.setattr(rules, "lex_submasks", counted)
    verdicts = [(table == copy, copy == table, rules_equal(table, copy)) for copy in copies]
    monkeypatch.undo()
    assert listed == []
    for copy, (left, right, found) in zip(copies, verdicts):
        expected = scanned_rules_equal(table, copy)
        assert found == expected and left == right == expected.ok
    assert [found.witness for _, _, found in verdicts] == [None, events[0], events[511], events[-1]]


@pytest.fixture
def reads(monkeypatch):
    """Counts of ``Belief.__eq__`` calls and of the ``Belief``s and ``Event``s built."""
    counts = Counter()

    def counted(name, method):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Belief, "__eq__", counted("Belief.__eq__", Belief.__eq__))
    monkeypatch.setattr(Belief, "_init", counted("Belief", Belief._init))
    monkeypatch.setattr(Event, "__init__", counted("Event", Event.__init__))
    return counts


def check_answered_from_the_list(rule: UpdatingRule, twin: UpdatingRule, reads: Counter) -> None:
    """``validate_cps``, ``cps_to_os``, ``is_concentrated`` and ``rule == twin`` read no entry.

    ``twin`` is a second rule of the same list, so the lists hold the same
    updates and compare by identity.
    """
    n = len(rule.space)
    answers = {}
    for name, read in (
        ("validate_cps", lambda: validate_cps(rule)),
        ("cps_to_os", lambda: decomposed(rule)),
        ("is_concentrated", lambda: is_concentrated(rule)),
        ("==", lambda: rule == twin),
    ):
        reads.clear()
        answers[name] = read()
        assert not reads, f"{name} read entries: {dict(reads)}"
    assert not rule._exceptions and not twin._exceptions, "a reader added an exception"
    got = answers["validate_cps"]
    if got:
        assert got.triples == 4**n - 2**n
        updates = [update for _, update, _ in rule._blocks]
        assert all(a is b for a, b in zip(got.priors, updates, strict=True))
        assert answers["cps_to_os"] == got.priors
    else:
        assert got.reason == "not complete" and answers["cps_to_os"] == got
    assert answers["is_concentrated"] == CheckResult(True) and answers["=="] is True


def test_listed_rules_are_answered_from_their_lists(reads):
    """The grid hierarchies at |S| <= 4 and the 24 seeded ones at |S| = 5-10."""
    statuses = Counter()
    sizes = ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2))
    grids = chain.from_iterable(grid_hierarchies(n, den) for n, den in sizes)
    for hier in chain(grids, seeded_hierarchies()):
        check_answered_from_the_list(os_rule(hier), os_rule(hier), reads)
        for prior in hier.priors:
            rule = bayesian_rule(prior)
            check_answered_from_the_list(rule, bayesian_rule(prior), reads)
            statuses[validate_cps(rule).status] += 1
    assert statuses["valid"] and statuses["not-candidate"]


def test_ht_rule_builds_no_belief_on_walked_priors_nor_when_called_again(reads):
    """``ht_rule`` takes each winner's update from its prior's kept map.

    At threshold 0, ``os_to_ht`` of a canonical hierarchy whose priors
    ``os_rule`` walked; at 1/8 and 1/4, ``eps_os_construction``'s
    representation after ``bayesian_rule`` walked each of its priors.  Neither
    ``ht_rule`` builds a ``Belief``, and neither does a second ``ht_rule`` of
    a representation no tabulator walked, at either threshold.  Every entry
    is ``ht_select``'s.  The canonical grid hierarchies at |S| <= 3 and the
    seeded canonical ones at |S| = 5-10.
    """
    grids = chain.from_iterable(grid_hierarchies(n, 2) for n in (1, 2, 3))
    built = Counter()
    for hier in (h for h in chain(grids, seeded_hierarchies()) if h.is_canonical):
        os_rule(hier)
        walked = [os_to_ht(hier)]
        copies = [Belief(hier.space, dict(prior.items())) for prior in hier.priors]
        fresh = [os_to_ht(OSRepresentation(hier.space, copies))]
        for eps in (Fraction(1, 8), Fraction(1, 4)):
            walked.append(eps_os_construction(hier, eps).ht)
            for prior in walked[-1].priors:
                bayesian_rule(prior)
            fresh.append(eps_os_construction(hier, eps).ht)
        for ht in walked:
            reads.clear()
            rule = ht_rule(ht)
            built["walked"] += reads["Belief"]
            assert all(rule[e] == ht_select(ht, e)[1] for e in ht.space.events())
        for ht in fresh:
            first = ht_rule(ht)
            reads.clear()
            again = ht_rule(ht)
            built["again"] += reads["Belief"]
            assert all(again[e] is first[e] for e in ht.space.events())
    assert built["walked"] == built["again"] == 0


def test_a_listed_rule_reads_an_entry_from_its_first_block_meeting_it():
    """Each read is the posterior of the event's trace on the first support
    it meets, the very object that prior's kept walk holds, and adds no
    exception."""
    hier = random_canonical_os(random.Random(5), max_states=6, min_states=6)
    rule = os_rule(hier)
    assert len(rule) == 63 and not rule._exceptions
    for event in hier.space.events():
        order = min_order(hier.priors, event.mask, ZERO)
        prior = hier.priors[order]
        kept = kept_traces(prior).get(event.mask & prior.support_mask, prior)
        assert rule[event] is kept and rule.get(event) is kept and event in rule
        assert kept == os_update(hier, event)
    assert not rule._exceptions
    assert repr(rule) == "UpdatingRule(<63 events over 6 states>)"
    assert rule != "a rule" and rule != 3  # anything but a rule is unequal
