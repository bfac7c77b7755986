"""Rules that hold blocks and exceptions at once, against tables of the same entries.

``rules.tabulate_traces(space, priors, rest)`` holds the blocks of the
ordered ``priors`` and ``rest``'s (mask, belief) pairs as exceptions,
which are read first.  While the peel follows the blocks, ``validate_cps``
reads only the exceptions inside them; an exception at a block's peel
event (the states the blocks before it leave) moves the peel off the
blocks, and from there every region is read through the per-entry read.
Each rule here is checked against the table of its entries built one
event at a time from ``os_update`` and the overrides, which holds no
block: ``validate_cps`` against that table's, against the exhaustive
triple scan (``helpers.exhaustive_validate_cps``) and against
``helpers.pair_validate``; ``is_concentrated`` against a scan of every
entry; ``rules_equal`` and ``==`` against the event-by-event scan, with
the table, with the hierarchy's OS rule, and with the rule of the next
override kind on the same hierarchy.

The domain: every ``grid_hierarchies`` hierarchy at |S| <= 4 (1015 of
them, grids 1/2 and 1/3 up to |S| = 3 and 1/2 at |S| = 4), each under
six seeded override kinds: a different belief on a block's peel event,
an equal copy of the update there, a belief that leaks mass at an event
short of the space, a different concentrated belief on an event inside a
block, two of the changing kinds at once, and the top prior's block alone
with every event it misses an exception (the shape ``ht_rule`` returns),
one of them changed.
"""

import random
from collections import Counter

from beliefkit import (
    Belief,
    CheckResult,
    Event,
    UpdatingRule,
    is_complete,
    is_concentrated,
    os_rule,
    os_update,
    rules_equal,
    validate_cps,
)
from beliefkit.rules import tabulate_traces
from helpers import exhaustive_validate_cps, grid_beliefs, grid_hierarchies, pair_validate

SIZES = ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2))


def scanned_rules_equal(a: UpdatingRule, b: UpdatingRule) -> CheckResult:
    """Oracle for ``rules_equal``: the event-by-event scan."""
    for event in a.space.events():
        if a.get(event) != b.get(event):
            return CheckResult(False, event)
    return CheckResult(True)


def scanned_concentration(rule: UpdatingRule) -> CheckResult:
    """Oracle for ``is_concentrated``: every entry, in canonical order."""
    for event in rule.events():
        if rule[event].support_mask & ~event.mask:
            return CheckResult(False, event)
    return CheckResult(True)


def peel_events(hier) -> list[int]:
    """The events the blocks of ``hier`` open with: the full space, then what each support leaves."""
    rest, events = (1 << len(hier.space)) - 1, []
    for prior in hier.priors:
        if prior.support_mask & rest:
            events.append(rest)
            rest &= ~prior.support_mask
    return events


def other_belief(rng: random.Random, space, mask: int, den: int, current: Belief) -> Belief:
    """A belief concentrated on ``mask`` other than ``current``, or an equal copy when none is."""
    choices = [b for b in grid_beliefs(Event(space, mask), den) if b != current]
    if choices:
        return rng.choice(choices)
    return Belief(space, dict(current.items()))


def overrides(rng: random.Random, hier, den: int) -> dict[str, tuple[list, dict[int, Belief]]]:
    """Each override kind: the priors whose blocks the rule holds, and its exceptions."""
    space = hier.space
    full = (1 << len(space)) - 1
    priors = list(hier.priors)
    peels = peel_events(hier)
    inner = [mask for mask in space.canonical_masks() if mask not in peels]

    def update(mask: int) -> Belief:
        return os_update(hier, Event(space, mask))

    def peel() -> dict[int, Belief]:
        mask = rng.choice(peels)
        return {mask: other_belief(rng, space, mask, den, update(mask))}

    def copy() -> dict[int, Belief]:
        mask = rng.choice(peels)
        return {mask: Belief(space, dict(update(mask).items()))}

    def leak() -> dict[int, Belief]:
        mask = rng.choice([mask for mask in space.canonical_masks() if mask != full])
        return {mask: Belief.uniform_on(space.full_event)}

    def inside() -> dict[int, Belief]:
        mask = rng.choice(inner)
        return {mask: other_belief(rng, space, mask, den, update(mask))}

    makes = [peel, copy] + [leak] * (len(space) > 1) + [inside] * bool(inner)
    kinds = {make.__name__: (priors, make()) for make in makes}
    if inner:
        several = {}
        for make in rng.sample([make for make in makes if make is not copy], 2):
            several |= make()
        kinds["several"] = (priors, several)
    top = priors[0].support_mask
    missed = {mask: update(mask) for mask in space.canonical_masks() if not mask & top}
    if missed:
        changed = rng.choice(list(missed))
        missed[changed] = other_belief(rng, space, changed, den, missed[changed])
    kinds["top"] = (priors[:1], missed)
    return kinds


def outcome(validation):
    return validation.status, validation.witness, validation.reason, validation.triples


def check(rule: UpdatingRule, table: UpdatingRule, others: list[UpdatingRule]) -> str:
    """Every reader of ``rule`` against ``table``, which holds the same entries and no block."""
    space = rule.space
    assert len(rule) == len(table) == (1 << len(space)) - 1 and is_complete(rule)
    assert rule.events() == table.events()
    for event in space.events():
        assert rule[event] == table[event] and event in rule
    assert is_concentrated(rule) == is_concentrated(table) == scanned_concentration(table)
    got = validate_cps(rule)
    assert got == validate_cps(table)
    assert outcome(got) == outcome(exhaustive_validate_cps(table))
    assert got.status == pair_validate(table)
    for other in [table, *others]:
        expected = scanned_rules_equal(table, other)
        assert rules_equal(rule, other) == expected == rules_equal(other, rule)
        assert (rule == other) == expected.ok == (other == rule)
    return got.status


def test_rules_of_blocks_and_exceptions_read_as_tables_of_their_entries():
    rng = random.Random("blocks-and-exceptions")
    seen = Counter()
    for n, den in SIZES:
        for hier in grid_hierarchies(n, den):
            space = hier.space
            listed = os_rule(hier)
            kinds = overrides(rng, hier, den)
            rules = {}
            for kind, (priors, rest) in kinds.items():
                rule = tabulate_traces(space, priors, rest.items())
                for mask, belief in rest.items():
                    assert rule[Event(space, mask)] is belief
                entries = {e: rest.get(e.mask) or os_update(hier, e) for e in space.events()}
                rules[kind] = rule, UpdatingRule(space, entries)
            pairs = list(rules.items())
            for (kind, (rule, table)), (_, (other, _)) in zip(pairs, pairs[1:] + pairs[:1]):
                status = check(rule, table, [listed, other])
                seen[kind, status] += 1
                seen[status] += 1
    assert seen["valid"] and seen["violation"] and seen["not-candidate"]
    for kind in ("peel", "inside", "several", "top"):
        assert seen[kind, "violation"] > 50, kind
    assert seen["copy", "valid"] == 1015
    leaks = [seen["leak", status] for status in ("valid", "violation", "not-candidate")]
    assert leaks[2] == sum(leaks) > 0
