"""Hierarchy conditioning, canonical form, the rule round trip, partitions."""

import random
from fractions import Fraction

import pytest

from beliefkit import (
    Belief,
    EmptyEvent,
    Event,
    IncompleteCoverage,
    NoPriorExceedsThreshold,
    NotCps,
    OSRepresentation,
    StateSpace,
    ValidationError,
    conservative_rule,
    cps_to_os,
    eps_os_update,
    os_rule,
    os_update,
    surprise_order,
    surprise_partition,
    validate_cps,
)
from helpers import (
    coin_hierarchy,
    grid_hierarchies,
    partition_oracle,
    random_canonical_os,
    random_overlapping_os,
)


@pytest.fixture
def coin():
    return coin_hierarchy()


def test_surprise_order_walks_the_hierarchy(coin):
    space = coin.space
    assert surprise_order(coin, space.full_event) == 0
    assert surprise_order(coin, space.event("h")) == 0
    assert surprise_order(coin, space.event("e", "el", "l1", "l2")) == 1
    assert surprise_order(coin, space.event("el", "l1", "l2")) == 1
    assert surprise_order(coin, space.event("l1", "l2")) == 2
    with pytest.raises(EmptyEvent):
        surprise_order(coin, Event(space, 0))


def test_os_update_conditions_the_selected_prior(coin):
    space = coin.space
    surprised = os_update(coin, space.event("el", "l1", "l2"))
    assert surprised == Belief(space, {"el": 1})
    late = os_update(coin, space.event("l1", "l2"))
    assert late.mass_of("l1") == Fraction(1, 2)


def test_monotone_surprise_depth(coin):
    """Shrinking an event never selects an earlier prior."""
    space = coin.space
    for e in space.events():
        order_e = surprise_order(coin, e)
        for f in space.events():
            if f <= e:
                assert surprise_order(coin, f) >= order_e


def test_incomplete_hierarchy_raises_on_uncovered_event():
    space = StateSpace(("a", "b"))
    hier = OSRepresentation(space, (Belief(space, {"a": 1}),))
    assert not hier.covers_space
    assert not OSRepresentation(space, (Belief(space, {"b": 1}),)).covers_space
    with pytest.raises(IncompleteCoverage):
        surprise_order(hier, space.event("b"))
    with pytest.raises(IncompleteCoverage):
        os_rule(hier)


def test_canonicalize_strips_repeated_mass():
    space = StateSpace(("a", "b", "c"))
    mu0 = Belief(space, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
    mu1 = Belief(space, {"b": Fraction(1, 2), "c": Fraction(1, 2)})
    raw = OSRepresentation(space, (mu0, mu1))
    assert not raw.is_canonical
    slim = cps_to_os(os_rule(raw))
    assert slim.is_canonical
    assert slim.priors[0] == mu0
    assert slim.priors[1] == Belief(space, {"c": 1})


def test_canonicalize_drops_fully_shadowed_priors():
    space = StateSpace(("a", "b"))
    mu0 = Belief(space, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
    mu1 = Belief(space, {"a": 1})
    slim = cps_to_os(os_rule(OSRepresentation(space, (mu0, mu1))))
    assert len(slim) == 1
    assert slim.covers_space


def test_canonicalization_preserves_the_induced_rule():
    """Brute force over small covering hierarchies with overlapping supports.

    A hierarchy that leaves states uncovered gets one more prior on them.
    """
    rng = random.Random(7)
    space = StateSpace(("a", "b", "c", "d"))
    for _ in range(40):
        priors = []
        for _k in range(rng.randint(1, 3)):
            weights = [rng.randint(0, 3) for _ in range(4)]
            if not any(weights):
                weights[rng.randrange(4)] = 1
            total = sum(weights)
            priors.append(
                Belief(
                    space,
                    {
                        s: Fraction(w, total)
                        for s, w in zip(space.states, weights)
                        if w
                    },
                )
            )
        missing = [s for s in space.states if not any(p.mass_of(s) for p in priors)]
        if missing:
            priors.append(Belief(space, {s: Fraction(1, len(missing)) for s in missing}))
        raw = OSRepresentation(space, priors)
        slim = cps_to_os(os_rule(raw))
        assert slim.is_canonical
        for e in space.events():
            assert os_update(raw, e) == os_update(slim, e)


def test_round_trip_coin_recovers_all_three_priors(coin):
    rule = os_rule(coin)
    assert validate_cps(rule).status == "valid"
    recovered = cps_to_os(rule)
    assert recovered == coin


def test_cps_to_os_rejects_non_cps():
    space = StateSpace(("e", "h", "t"))
    prior = Belief(space, {"h": Fraction(1, 2), "t": Fraction(1, 2)})
    with pytest.raises(NotCps) as exc:
        cps_to_os(conservative_rule(prior, Fraction(1, 2)))
    assert exc.value.validation is not None
    assert exc.value.validation.status == "not-candidate"


def test_round_trip_on_a_small_corpus():
    rng = random.Random(99)
    for _ in range(25):
        hier = random_canonical_os(rng, max_states=6)
        rule = os_rule(hier)
        assert cps_to_os(rule) == hier


def test_eps_update_skips_low_mass_priors(coin):
    space = coin.space
    ahead = space.event("el", "l1", "l2")
    eps = Fraction(1, 4)
    assert os_update(coin, ahead).mass_of("el") == 1
    deep = eps_os_update(coin, eps, ahead)
    assert deep.mass_of("l1") == Fraction(1, 2)
    with pytest.raises(NoPriorExceedsThreshold):
        eps_os_update(coin, eps, space.event("el"))
    with pytest.raises(ValidationError):
        eps_os_update(coin, Fraction(5, 4), ahead)


def test_eps_zero_matches_plain_update(coin):
    for e in coin.space.events():
        assert eps_os_update(coin, 0, e) == os_update(coin, e)


def test_partition_sizes_and_undefined_class(coin):
    part = surprise_partition(coin, Fraction(1, 4))
    assert [len(c) for c in part.classes] == [48, 8, 6]
    assert len(part.undefined) == 1
    assert part.undefined[0].members == ("el",)
    assert part.class_of(coin.space.event("el")) is None
    assert part.class_of(coin.space.event("h")) == 0
    assert part.class_of(coin.space.event("el", "l1")) == 2


def test_partition_at_zero_has_no_undefined_class(coin):
    part = surprise_partition(coin, 0)
    assert surprise_partition(coin) == part  # the default threshold is 0
    assert sum(len(c) for c in part.classes) == 63
    assert part.undefined == ()
    for k, events in enumerate(part.classes):
        for e in events:
            assert surprise_order(coin, e) == k


def test_partition_matches_the_public_constructor():
    rng = random.Random("partition-by-mask")
    for i in range(120):
        h = (random_canonical_os if i % 2 else random_overlapping_os)(rng)
        eps = rng.choice((Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)))
        part, want = surprise_partition(h, eps), partition_oracle(h, eps)
        assert part == want and hash(part) == hash(want)
        assert repr(part) == repr(want)
        assert part.classes == want.classes and part.undefined == want.undefined
        for e in h.space.events():
            assert part.class_of(e) == want.class_of(e)


def test_partition_builds_no_event(monkeypatch):
    """|S| = 8: the walk stores masks; Events wait for a caller to read them."""
    space = StateSpace(tuple(f"s{i}" for i in range(8)))
    chunks = ({"s0": 5, "s3": 2, "s6": 1}, {"s1": 3, "s4": 1}, {"s2": 1, "s5": 1, "s7": 6})
    priors = [
        Belief(space, {s: Fraction(w, sum(c.values())) for s, w in c.items()}) for c in chunks
    ]
    h = OSRepresentation(space, priors)
    eps = Fraction(1, 4)
    built = []
    real = Event.__init__

    def counted(self, *args):
        built.append(args)
        return real(self, *args)

    monkeypatch.setattr(Event, "__init__", counted)
    part = surprise_partition(h, eps)
    monkeypatch.undo()
    assert built == []
    assert sum(map(len, part.classes)) + len(part.undefined) == 255
    assert part == partition_oracle(h, eps)


def test_partition_sizes_count_each_class_without_an_event(monkeypatch):
    """The 1015 ``grid_hierarchies`` hierarchies at |S| <= 4 (grids 1/2 and 1/3
    up to |S| = 3, 1/2 at |S| = 4), each at eps 0, 1/4, 1/3 and 1/2:
    ``sizes`` is the length of each class, and reading it builds no Event,
    nor does reading ``undefined`` build a class's."""
    built = []
    real = Event.__init__

    def counted(self, *args):
        built.append(args)
        return real(self, *args)

    cases = 0
    for n, den in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
        for h in grid_hierarchies(n, den):
            for eps in (Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
                part = surprise_partition(h, eps)
                monkeypatch.setattr(Event, "__init__", counted)
                sizes, undefined = part.sizes, part.undefined
                monkeypatch.undo()
                assert len(built) == len(undefined)  # the undefined events' alone
                built.clear()
                assert sizes == tuple(len(events) for events in part.classes)
                assert sum(sizes) + len(part.undefined) == 2**n - 1
                cases += 1
    assert cases == 4 * 1015
