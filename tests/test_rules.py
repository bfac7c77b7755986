"""Updating rules: completeness, concentration, chain rule, the sticky foil."""

import random
from fractions import Fraction

import pytest

from beliefkit import (
    BadDelta,
    Belief,
    BeliefkitError,
    CheckResult,
    EmptyEvent,
    OSRepresentation,
    SpaceMismatch,
    StateSpace,
    UpdatingRule,
    ValidationError,
    bayesian_rule,
    conservative_rule,
    is_complete,
    is_concentrated,
    os_rule,
    rules_equal,
    validate_cps,
)
from beliefkit import rules
from beliefkit.errors import OutsideDomain
from helpers import (
    coin_hierarchy,
    fraction_bayes_update,
    fraction_conservative_rule,
    random_belief_on,
)


@pytest.fixture
def half_half():
    space = StateSpace(("e", "h", "t"))
    return space, Belief(space, {"h": Fraction(1, 2), "t": Fraction(1, 2)})


def test_bayesian_rule_domain_is_positive_mass_events(half_half):
    space, prior = half_half
    rule = bayesian_rule(prior)
    masks = {e.mask for e in rule.events()}
    expected = {m for m in space.canonical_masks() if prior.mask_num(m) > 0}
    assert masks == expected
    assert not is_complete(rule)
    assert is_concentrated(rule)


def test_partial_bayesian_rule_is_not_a_cps_candidate(half_half):
    _, prior = half_half
    report = validate_cps(bayesian_rule(prior))
    assert report.status == "not-candidate"
    assert "complete" in report.reason


def test_full_support_bayesian_rule_is_a_valid_cps():
    space = StateSpace(("a", "b", "c"))
    prior = Belief(space, {"a": Fraction(1, 2), "b": Fraction(1, 3), "c": Fraction(1, 6)})
    report = validate_cps(bayesian_rule(prior))
    assert report.status == "valid"
    assert report


def test_triple_count_formula():
    for n in (1, 2, 3, 4, 6):
        space = StateSpace(tuple(f"s{i}" for i in range(n)))
        mu = Belief(space, {s: Fraction(1, n) for s in space.states})
        report = validate_cps(os_rule(OSRepresentation(space, (mu,))))
        assert report.status == "valid"
        assert report.triples == 4**n - 2**n


def test_chain_rule_equals_ratio_form():
    """P(G|E) = P(G|F) P(F|E) pins conditionals to mass ratios."""
    rule = os_rule(coin_hierarchy())
    space = rule.space
    e = space.event("h", "t", "e")
    f = space.event("h", "t")
    g = space.event("h")
    p_g_e = rule[e].prob(g)
    assert p_g_e == rule[f].prob(g) * rule[e].prob(f)
    assert p_g_e == Fraction(1, 2)


def test_conservative_rule_blends_prior_and_posterior(half_half):
    space, prior = half_half
    rule = conservative_rule(prior, Fraction(1, 2))
    given_ht = rule[space.event("h", "t")]
    assert given_ht.mass_of("h") == Fraction(1, 2)
    assert given_ht.mass_of("t") == Fraction(1, 2)
    given_h = rule[space.event("h")]
    assert given_h.mass_of("h") == Fraction(3, 4)
    assert given_h.mass_of("t") == Fraction(1, 4)


def test_conservative_rule_spreads_uniformly_on_null_events(half_half):
    space, prior = half_half
    rule = conservative_rule(prior, Fraction(1, 2))
    given_e = rule[space.event("e")]
    assert given_e.mass_of("e") == Fraction(1, 2)
    assert given_e.mass_of("h") == Fraction(1, 4)
    assert is_complete(rule)
    check = is_concentrated(rule)
    assert not check
    assert check.witness == space.event("e")


def test_conservative_delta_one_is_the_constant_prior(half_half):
    space, prior = half_half
    rule = conservative_rule(prior, 1)
    for event in space.events():
        assert rule[event] == prior


def test_conservative_delta_bounds(half_half):
    _, prior = half_half
    with pytest.raises(BadDelta):
        conservative_rule(prior, 0)
    with pytest.raises(BadDelta):
        conservative_rule(prior, Fraction(3, 2))


def test_conservative_delta_rejects_floats(half_half):
    _, prior = half_half
    with pytest.raises(ValidationError):
        conservative_rule(prior, 0.5)


def test_conservative_rule_matches_the_fraction_oracle_without_an_update(monkeypatch):
    """Every entry is mixed on integer numerators; no Bayes update is asked for."""
    calls = []
    real = rules.bayes_update

    def counting(mu, e):
        calls.append(e.mask)
        return real(mu, e)

    monkeypatch.setattr(rules, "bayes_update", counting)
    rng = random.Random(7)
    for n in (1, 3, 5, 6):
        space = StateSpace(tuple(f"s{i}" for i in range(n)))
        for prior in (random_belief_on(rng, space.full_event), Belief.uniform_on(space.full_event)):
            for delta in (Fraction(1, 3), Fraction(5, 7), Fraction(1), 1):
                rule = conservative_rule(prior, delta)
                want = fraction_conservative_rule(prior, Fraction(delta))
                assert rule == want
                assert [rule[e].support_mask for e in rule.events()] == [
                    want[e].support_mask for e in want.events()
                ]
    assert calls == []


def test_events_outside_the_domain_are_a_typed_key_error(half_half):
    space, prior = half_half
    rule = bayesian_rule(prior)
    null = space.event("e")
    for missing in (null, space.empty_event):
        with pytest.raises(OutsideDomain) as raised:
            rule[missing]
        assert isinstance(raised.value, KeyError)
        assert isinstance(raised.value, BeliefkitError)
        assert str(raised.value) == f"{missing!r} is outside the rule's domain"
    assert rule.get(null) is None


def test_an_event_over_another_space_is_outside_the_domain(half_half):
    space, prior = half_half
    rule = bayesian_rule(prior)
    stranger = StateSpace(("e", "h", "x")).event("h")
    with pytest.raises(OutsideDomain):
        rule[stranger]
    assert rule.get(stranger, "default") == "default"
    assert stranger not in rule


def test_an_event_over_an_equal_space_finds_its_entry(half_half):
    space, prior = half_half
    rule = bayesian_rule(prior)
    twin = StateSpace(space.states)
    assert twin is not space
    for event in rule.events():
        copy = twin.event_from(event.members)
        assert copy in rule
        assert rule[copy] == rule.get(copy) == rule[event]


def test_a_key_that_is_not_an_event_is_outside_the_domain(half_half):
    _, prior = half_half
    rule = bayesian_rule(prior)
    for key in (2, "h", None, [2], ("h",)):
        assert rule.get(key, "default") == "default"
        assert key not in rule
        with pytest.raises(OutsideDomain):
            rule[key]


def test_events_of_a_partial_table_come_in_canonical_order(half_half):
    space, prior = half_half
    keys = [space.event("t"), space.event("e", "t"), space.event("h"), space.event("e", "h", "t")]
    rule = UpdatingRule(space, {event: prior for event in keys})
    canonical = [event for event in space.events() if event in keys]
    assert list(rule.events()) == canonical
    assert [e.members for e in canonical] == [("e", "h", "t"), ("e", "t"), ("h",), ("t",)]


def test_a_hand_built_table_equals_the_tabulated_one():
    hier = coin_hierarchy()
    space = hier.space
    tabulated = os_rule(hier)
    table = {}
    for e in space.events():
        first = next(prior for prior in hier.priors if prior.support_mask & e.mask)
        table[e] = fraction_bayes_update(first, e)
    by_hand = UpdatingRule(space, table)
    assert by_hand == tabulated and tabulated == by_hand
    assert rules_equal(by_hand, tabulated)
    assert list(by_hand.events()) == list(tabulated.events()) == list(space.events())


def test_public_construction_checks_every_entry(half_half):
    """The tabulators skip the entry checks; ``UpdatingRule(...)`` keeps them."""
    space, prior = half_half
    other = StateSpace(("x", "y"))
    for table, error in (
        ({other.event("x"): prior}, SpaceMismatch),
        ({space.empty_event: prior}, EmptyEvent),
        ({space.event("h"): Belief(other, {"x": 1})}, SpaceMismatch),
    ):
        with pytest.raises(error):
            UpdatingRule(space, table)
    for rule in (bayesian_rule(prior), conservative_rule(prior, Fraction(1, 3))):
        assert UpdatingRule(space, {e: rule[e] for e in rule.events()}) == rule


def test_validate_cps_flags_conservative_as_not_candidate(half_half):
    _, prior = half_half
    report = validate_cps(conservative_rule(prior, Fraction(1, 2)))
    assert report.status == "not-candidate"
    assert not report
    assert "concentrated" in report.reason


def test_rules_equal_reflexive_and_witnessing():
    rule = os_rule(coin_hierarchy())
    assert rules_equal(rule, rule)
    space = rule.space
    table = {e: rule[e] for e in rule.events()}
    tweak = space.event("t")
    table[tweak] = Belief(space, {"t": 1})
    table[space.event("h")] = Belief(space, {"h": 1})
    other = UpdatingRule(space, table)
    check = rules_equal(rule, other)
    assert isinstance(check, CheckResult)
    assert bool(check)

    table[tweak] = Belief(space, {"h": 1})
    broken = UpdatingRule(space, table)
    check = rules_equal(rule, broken)
    assert not check
    assert check.witness == tweak


def scanned_rules_equal(a: UpdatingRule, b: UpdatingRule) -> CheckResult:
    """Oracle for ``rules_equal``: the event-by-event scan."""
    for event in a.space.events():
        if a.get(event) != b.get(event):
            return CheckResult(False, event)
    return CheckResult(True)


def test_rules_equal_matches_the_event_by_event_scan():
    """Equal tables of distinct beliefs, and tables that differ in an entry,
    lack one or hold one more, give the scan's verdict and first witness."""
    rng = random.Random("rules-equal")
    space = StateSpace(tuple(f"s{i}" for i in range(4)))
    verdicts = set()
    for _ in range(200):
        table = {e: random_belief_on(rng, e) for e in space.events() if rng.random() < 0.9}
        copied = {e: Belief(space, dict(belief.items())) for e, belief in table.items()}
        event = rng.choice(list(space.events()))
        change = rng.choice(("none", "entry", "drop", "add"))
        if change == "entry" or (change == "add" and event not in copied):
            copied[event] = random_belief_on(rng, event)
        elif change == "drop":
            copied.pop(event, None)
        a, b = UpdatingRule(space, table), UpdatingRule(space, copied)
        for first, second in ((a, b), (b, a)):
            got = rules_equal(first, second)
            assert got == scanned_rules_equal(first, second)
            verdicts.add(got.ok)
    assert verdicts == {True, False}
