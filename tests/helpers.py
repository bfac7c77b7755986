"""Shared builders for the tests: a corpus generator and a few object shortcuts."""

import random
from fractions import Fraction

from beliefkit import (
    Act,
    Belief,
    CpsValidation,
    CpsWitness,
    Event,
    Lottery,
    OSRepresentation,
    StateSpace,
    UpdatingRule,
    UtilityFunction,
    is_complete,
    is_concentrated,
)
from beliefkit.core import lex_submasks


def random_canonical_os(rng: random.Random, max_states: int = 8) -> OSRepresentation:
    """Hierarchy with disjoint supports that jointly cover the space.

    States are shuffled and cut into consecutive chunks, one prior per
    chunk, so every representation is already canonical and every update
    is defined.  Integer weights keep failure output readable.
    """
    n = rng.randint(1, max_states)
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    labels = list(space.states)
    rng.shuffle(labels)
    parts = rng.randint(1, min(n, 4))
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    priors = []
    for lo, hi in zip([0] + cuts, cuts + [n]):
        chunk = labels[lo:hi]
        weights = [rng.randint(1, 9) for _ in chunk]
        total = sum(weights)
        priors.append(
            Belief(space, {s: Fraction(w, total) for s, w in zip(chunk, weights)})
        )
    return OSRepresentation(space, priors)


def random_overlapping_os(rng: random.Random, max_states: int = 7) -> OSRepresentation:
    """Hierarchy whose supports may overlap, jointly covering the space.

    Each prior gets a random nonempty support; states no support holds are
    then dealt out at random.  Later priors may be wholly explained by
    earlier ones, so ``canonicalize_os`` can drop them.
    """
    n = rng.randint(1, max_states)
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    supports = [
        {s for s in space.states if rng.random() < 0.5} for _ in range(rng.randint(1, 4))
    ]
    for s in space.states:
        if not any(s in support for support in supports):
            rng.choice(supports).add(s)
    priors = []
    for support in supports:
        chunk = sorted(support) or [rng.choice(space.states)]
        weights = [rng.randint(1, 9) for _ in chunk]
        total = sum(weights)
        priors.append(
            Belief(space, {s: Fraction(w, total) for s, w in zip(chunk, weights)})
        )
    return OSRepresentation(space, priors)


def random_belief_on(rng: random.Random, event: Event) -> Belief:
    """A random belief concentrated on ``event``, on a random nonempty subset."""
    members = [s for s in event.members if rng.random() < 0.7] or [rng.choice(event.members)]
    weights = [rng.randint(1, 5) for _ in members]
    total = sum(weights)
    return Belief(event.space, {s: Fraction(w, total) for s, w in zip(members, weights)})


def coin_hierarchy() -> OSRepresentation:
    """The six-state example used throughout: fair coin, then early ends."""
    space = StateSpace(("h", "t", "e", "el", "l1", "l2"))
    mu0 = Belief(space, {"h": Fraction(1, 2), "t": Fraction(1, 2)})
    mu1 = Belief(space, {"e": Fraction(7, 8), "el": Fraction(1, 8)})
    mu2 = Belief(space, {"l1": Fraction(1, 2), "l2": Fraction(1, 2)})
    return OSRepresentation(space, (mu0, mu1, mu2))


def money_utility(*amounts: Fraction | int) -> UtilityFunction:
    """Linear utility over dollar labels, one entry per amount."""
    return UtilityFunction({f"${a}": Fraction(a) for a in amounts})


def bet(space: StateSpace, win: str, high: Lottery, low: Lottery) -> Act:
    return Act(space, {s: (high if s == win else low) for s in space.states})


def fraction_seu(u: UtilityFunction, mu: Belief, f: Act) -> Fraction:
    """Oracle for ``seu_value``: sum of mass times sum of p * u(o), in Fractions.

    Reads the utility of every outcome on every state, zero-mass states
    included, so a missing outcome raises MissingUtility just as
    ``seu_value`` does.  Memoizes nothing.
    """
    total = Fraction(0)
    for mass, lottery in zip(mu.mass, f.assignment):
        value = sum((p * u.value(o) for o, p in lottery.entries), Fraction(0))
        total += mass * value
    return total


def exhaustive_validate_cps(rule: UpdatingRule) -> CpsValidation:
    """Oracle for ``validate_cps``: scan every nested triple G <= F <= E.

    Same verdicts, witnesses and triple counts as the certificate-first
    validator, computed the slow way: one table of integer numerators per
    distinct belief, indexed by event mask, and a 4^n - 2^n triple scan in
    canonical (E, F, G) order that stops at the first violation.
    """
    if not is_complete(rule):
        return CpsValidation.not_candidate("not complete")
    if not is_concentrated(rule):
        return CpsValidation.not_candidate("not concentrated")
    space = rule.space
    size = 1 << len(space)
    rows: dict[Belief, list[int]] = {}
    for event in rule.events():
        belief = rule[event]
        if belief not in rows:
            _, nums = belief._ints()
            row = [0] * size
            for mask in range(1, size):
                low = mask & -mask
                row[mask] = row[mask ^ low] + nums[low.bit_length() - 1]
            rows[belief] = row
    triples = 0
    for e_mask in space.canonical_masks():
        given_e = rule[Event(space, e_mask)]
        row_e = rows[given_e]
        for f_mask in lex_submasks(e_mask)[1:]:
            given_f = rule[Event(space, f_mask)]
            row_f = rows[given_f]
            den_f, _ = given_f._ints()
            n_fe = row_e[f_mask]
            for g_mask in lex_submasks(f_mask):
                triples += 1
                if row_e[g_mask] * den_f != row_f[g_mask] * n_fe:
                    den_e, _ = given_e._ints()
                    witness = CpsWitness(
                        g=Event(space, g_mask),
                        f=Event(space, f_mask),
                        e=Event(space, e_mask),
                        lhs=Fraction(row_e[g_mask], den_e),
                        rhs=Fraction(row_f[g_mask], den_f) * Fraction(n_fe, den_e),
                    )
                    return CpsValidation.violation(witness, triples)
    return CpsValidation.valid(triples, ())
