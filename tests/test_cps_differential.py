"""validate_cps against the exhaustive triple scan, on rules of every kind.

The certificate-first validator must give the oracle's status, reason,
first witness and triple count on every rule: CPS tables induced by
canonical and by overlapping hierarchies, tables with entries nudged or
redrawn (including the entries the peel reads), fully random concentrated
tables, and the non-candidates ``conservative_rule`` and ``bayesian_rule``.
"""

import random
from fractions import Fraction

import pytest

from beliefkit import rules
from beliefkit import (
    Belief,
    Event,
    OSRepresentation,
    StateSpace,
    UpdatingRule,
    bayesian_rule,
    canonicalize_os,
    conservative_rule,
    cps_to_os,
    is_concentrated,
    os_rule,
    validate_cps,
)
from helpers import (
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


def conservative(rng):
    prior = random_canonical_os(rng, 7).priors[0]
    return conservative_rule(prior, Fraction(rng.randint(1, 4), 4))


def bayesian(rng):
    return bayesian_rule(random_overlapping_os(rng, 7).priors[0])


FAMILIES = (canonical, overlapping, perturbed, redrawn, fully_random, conservative, bayesian)


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
    }.get(family.__name__, {"valid", "violation"})
    assert statuses <= expected
    assert "violation" in statuses or "violation" not in expected


def test_decompose_of_an_overlapping_hierarchy_is_its_canonical_form():
    rng = random.Random(20260816)
    for _ in range(40):
        hier = random_overlapping_os(rng, 7)
        assert cps_to_os(os_rule(hier)) == canonicalize_os(hier)


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
