"""Belief-updating rules as finite tables, and the chain-rule validator.

An updating rule maps conditioning events to posterior beliefs.  A rule is a
conditional probability system (CPS) when it is complete (defined on every
nonempty event), concentrated (P(E|E) = 1), and satisfies the chain rule

    P(G|E) = P(G|F) * P(F|E)   for all G <= F <= E with F nonempty.

Every hierarchy of priors induces a CPS, and every CPS is induced by the
hierarchy peeled from it (Myerson 1986).  So ``validate_cps`` peels the rule
and certifies, in integers, that each entry is the peel's update: that
proves the chain rule on all 4^n - 2^n triples without enumerating them.
An update depends only on the event's trace on its prior's support, so
the certificate walks each peeled support's submasks in prefix-tree
preorder, one tuple extension and comparison each, sum_k 2^|s_k| in all;
every other event costs one lookup, its entry against its trace's.
Where an entry fails, it searches for the lexicographically first violating
triple under the canonical event order, the one an exhaustive scan would
report, which keeps every report deterministic.

``bayesian_rule`` here, ``os_rule`` and ``ht_rule`` share one tabulator,
``tabulate_rule``: each rule only picks a prior per event, given the prior
its prefix (the event less its top state) picked, and ``core.posterior_walk``
builds each posterior from its prefix's in the same preorder walk.  A rule
stores its table by event mask; ``Event``s are built only where a caller
asks for one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Sequence

from .core import (
    Belief,
    CheckResult,
    Event,
    StateSpace,
    as_fraction,
    bayes_update,
    lex_submasks,
    mask_indices,
    posterior_walk,
)
from .errors import BadDelta, EmptyEvent, OutsideDomain, SpaceMismatch


class UpdatingRule:
    """An immutable table from conditioning events to beliefs, stored by mask.

    Anything but an event over an equal state space is outside the domain.
    """

    __slots__ = ("space", "_table", "_events")

    def __init__(self, space: StateSpace, table: Mapping[Event, Belief]):
        checked: dict[int, Belief] = {}
        for event, belief in table.items():
            if event.space != space:
                raise SpaceMismatch("table key built over a different state space")
            if not event:
                raise EmptyEvent("the empty event cannot appear in a rule's domain")
            if belief.space != space:
                raise SpaceMismatch("table value built over a different state space")
            checked[event.mask] = belief
        self._init(space, checked)

    def _init(self, space: StateSpace, table: dict[int, Belief]) -> "UpdatingRule":
        # the one initializer: keys are nonempty masks over ``space``, values beliefs over it
        self.space = space
        self._table = table
        self._events: tuple[Event, ...] | None = None
        return self

    def events(self) -> tuple[Event, ...]:
        """Domain events in canonical order."""
        if self._events is None:
            masks = sorted(self._table, key=mask_indices)
            self._events = tuple([Event(self.space, mask) for mask in masks])
        return self._events

    def __getitem__(self, event: Event) -> Belief:
        belief = self.get(event)
        if belief is None:
            raise OutsideDomain(f"{event!r} is outside the rule's domain")
        return belief

    def get(self, event: Event, default=None):
        if isinstance(event, Event) and event.space == self.space:
            return self._table.get(event.mask, default)
        return default

    def __contains__(self, event: Event) -> bool:
        return self.get(event) is not None

    def __len__(self) -> int:
        return len(self._table)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UpdatingRule)
            and self.space == other.space
            and self._table == other._table
        )

    __hash__ = None  # left unhashable: a hash would walk the whole table

    def __repr__(self) -> str:
        return f"UpdatingRule(<{len(self._table)} events over {len(self.space)} states>)"


def is_complete(rule: UpdatingRule) -> bool:
    """True when the domain is every nonempty event of the space."""
    return len(rule) == (1 << len(rule.space)) - 1


def is_concentrated(rule: UpdatingRule) -> CheckResult:
    """Check P(E|E) = 1 on the whole domain; witness the first failure.

    The table is scanned in any order; only when some event fails is the
    canonically first failure picked out.
    """
    failed = [mask for mask, belief in rule._table.items() if belief.support_mask & ~mask]
    if failed:
        return CheckResult(False, Event(rule.space, min(failed, key=mask_indices)))
    return CheckResult(True)


def tabulate_rule(
    space: StateSpace, priors: Sequence[Belief], choose: Callable[[int, int], int | None]
) -> UpdatingRule:
    """Bayes-update prior ``choose(mask, j)`` on every event; None leaves it out.

    ``j`` is the prior chosen for the event's prefix, the event less its
    top state (len(priors) for a single state).  One walk of the prefix
    tree, ``posterior_walk``: each posterior extends its prefix's
    numerators, and only a (prior, event & support) seen for the first
    time under a prior other than the prefix's costs a pass over the
    states.  The table is keyed by mask; no ``Event`` is built.
    """
    walk = posterior_walk(priors, (1 << len(space)) - 1, choose)
    table = {mask: belief for mask, _, belief in walk if belief is not None}
    return object.__new__(UpdatingRule)._init(space, table)


def bayesian_rule(prior: Belief) -> UpdatingRule:
    """Bayes updating wherever it is defined: domain is the feasible events."""
    support = prior.support_mask
    return tabulate_rule(prior.space, (prior,), lambda mask, _: 0 if mask & support else None)


def conservative_rule(prior: Belief, delta: Fraction | int) -> UpdatingRule:
    """Sticky updating: keep ``delta`` of the prior, update the rest.

    On a feasible event the rest is the Bayes posterior; on a null event it
    is spread uniformly over the event.  Complete but not concentrated for
    delta < 1 on any non-certain event, which is exactly what makes it a
    useful non-CPS foil.
    """
    delta = as_fraction(delta)
    if not 0 < delta <= 1:
        raise BadDelta(f"delta must lie in (0, 1], got {delta}")
    space, nums, den, support = prior.space, prior.nums, prior.den, prior.support_mask
    # delta = keep / (keep + move)
    keep, move = delta.numerator, delta.denominator - delta.numerator

    def sticky(rest: list[int], where: int) -> Belief:
        # delta * prior + (1 - delta) * rest / sum(rest), rest nonzero on ``where``, in integers
        w = sum(rest)
        row = [keep * w * x + move * den * r for x, r in zip(nums, rest)]
        return object.__new__(Belief)._init(
            space, delta.denominator * den * w, row, support | (where if move else 0)
        )

    table: dict[int, Belief] = {}
    feasible: dict[int, Belief] = {}  # by event & support, all an entry depends on
    for mask in space.canonical_masks():
        inner = mask & support
        if not inner:
            table[mask] = sticky([mask >> i & 1 for i in range(len(nums))], mask)
        elif inner in feasible:
            table[mask] = feasible[inner]
        else:  # the rest is the Bayes posterior, nums on inner over their sum
            rest = [x if inner >> i & 1 else 0 for i, x in enumerate(nums)]
            table[mask] = feasible[inner] = sticky(rest, inner)
    return object.__new__(UpdatingRule)._init(space, table)


class CpsWitness(NamedTuple):
    """A nested triple where the chain rule fails: lhs = P(G|E), rhs = P(G|F)P(F|E)."""

    g: Event
    f: Event
    e: Event
    lhs: Fraction
    rhs: Fraction


class CpsValidation(NamedTuple):
    """Outcome of ``validate_cps``: valid (with the peeled priors), violation, or not a candidate."""

    status: str  # "valid" | "violation" | "not-candidate"
    witness: CpsWitness | None = None
    reason: str | None = None
    triples: int = 0
    priors: tuple[Belief, ...] = ()

    def __bool__(self) -> bool:
        return self.status == "valid"

    @classmethod
    def valid(cls, triples: int, priors: tuple[Belief, ...]) -> "CpsValidation":
        return cls("valid", triples=triples, priors=priors)

    @classmethod
    def violation(cls, witness: CpsWitness, triples: int) -> "CpsValidation":
        return cls("violation", witness=witness, triples=triples)

    @classmethod
    def not_candidate(cls, reason: str) -> "CpsValidation":
        return cls("not-candidate", reason=reason)


def validate_cps(rule: UpdatingRule) -> CpsValidation:
    """CPS check over all nested triples G <= F <= E, F nonempty.

    Returns not-candidate (naming the failed property) if the rule is not
    complete or not concentrated.  Otherwise peels the rule from the full
    space and certifies each event's belief as the Bayes update of the
    first peeled prior k meeting it, which is k's update on the trace
    q = E & s_k.  A walk over the submasks of each peeled support s_k
    builds each q's numerators from its prefix's and tests q's entry,
    sum_k 2^|s_k| tuple operations (2^n for one prior); each other event
    then only compares its entry with its trace's, or with the update on
    the trace where that entry fails.  All certified proves the rule is
    the one the peeled hierarchy induces, hence a CPS: valid, with the
    peeled priors, and ``triples`` counts all 4^n - 2^n triples as
    certified for n states.
    Otherwise the first violating triple in canonical (E, F, G) order,
    with the number of triples an exhaustive scan enumerates up to and
    including it.
    """
    if not is_complete(rule):
        return CpsValidation.not_candidate("not complete")
    if not is_concentrated(rule):
        return CpsValidation.not_candidate("not concentrated")

    space = rule.space
    n = len(space)
    table = rule._table
    masks = space.canonical_masks()  # raises TooManyStates past the power-set cap
    full = rest = (1 << n) - 1
    zeros = (0,) * n
    tails = [zeros] * n  # (its peeled prior's numerator of state i, 0, ..., 0), from i on
    priors: list[Belief] = []
    uncertified: list[int] = []
    # Peel, and certify E's entry as the update of the first peeled prior k
    # meeting E on its trace q = E & s_k, s_k k's support.  Each q is tested
    # once: its entry is kept / mass, kept k's numerators on q and mass
    # their sum.  Canonical order walks the prefix tree, so q's prefix (q
    # less its top state) is stack[d - 1], the latest submask of d - 1
    # states.  Every E = q | r, r a nonempty set of states past k, then
    # needs only its entry to equal q's, or q's update where q's entry fails.
    while rest:
        prior = table[rest]
        support = prior.support_mask
        for i in mask_indices(support):
            tails[i] = (prior.nums[i], *zeros[i + 1 :])
        priors.append(prior)
        rest &= ~support
        rs = lex_submasks(rest)[1:] if rest else ()
        stack = [(zeros, 0)] * (n + 1)
        for q in masks if support == full else lex_submasks(support)[1:]:
            top = q.bit_length() - 1
            depth = q.bit_count()
            kept, mass = stack[depth - 1]
            kept, mass = kept[:top] + tails[top], mass + tails[top][0]
            stack[depth] = kept, mass
            image = table[q]
            # kept / mass reduces to nums / den exactly when mass = c * den
            # and kept = c * nums
            c, r = divmod(mass, image.den)
            if r or kept != (image.nums if c == 1 else tuple([c * x for x in image.nums])):
                uncertified.append(q)
                image = bayes_update(prior, Event(space, q))
            if rs:
                uncertified += [
                    e for e in map(q.__or__, rs) if table[e] is not image and table[e] != image
                ]
    uncertified.sort(key=mask_indices)

    # Search: a pair of certified beliefs obeys the chain rule, since the
    # peel's rule does, and a pair breaks it exactly when a singleton does.
    pending = set(uncertified)
    before = 0  # triples an exhaustive scan enumerates before E
    for e in masks if uncertified else ():
        subs = lex_submasks(e)[1:] if e in pending else [f for f in uncertified if f & e == f]
        for f in subs:
            if _first_break(table[e], table[f], f, [1 << i for i in mask_indices(f)]) is not None:
                return _violation(space, table, e, f, before)
        before += 3 ** e.bit_count() - 1
    return CpsValidation.valid(4**n - 2**n, tuple(priors))


def _first_break(given_e: Belief, given_f: Belief, f: int, gs) -> int | None:
    """Index of the first G in ``gs`` with P(G|E) != P(G|F) P(F|E), or None."""
    den_f, f_num = given_f.den, given_e.mask_num(f)
    for position, g in enumerate(gs):
        if given_e.mask_num(g) * den_f != given_f.mask_num(g) * f_num:
            return position
    return None


def _violation(space: StateSpace, table: dict, e: int, f: int, before: int) -> CpsValidation:
    """The first violating triple of the failing pair (E, F), and its position."""
    subs = lex_submasks(e)
    before += sum(1 << earlier.bit_count() for earlier in subs[1 : subs.index(f)])
    given_e, given_f = table[e], table[f]
    gs = lex_submasks(f)
    position = _first_break(given_e, given_f, f, gs)  # not None: the pair fails
    g = gs[position]
    den_e, den_f = given_e.den, given_f.den
    witness = CpsWitness(
        g=Event(space, g),
        f=Event(space, f),
        e=Event(space, e),
        lhs=Fraction(given_e.mask_num(g), den_e),
        rhs=Fraction(given_f.mask_num(g), den_f) * Fraction(given_e.mask_num(f), den_e),
    )
    return CpsValidation.violation(witness, before + position + 1)


def rules_equal(a: UpdatingRule, b: UpdatingRule) -> CheckResult:
    """Compare two rules on every nonempty event; witness the first difference.

    Events are compared in canonical order, and an event missing from
    either table counts as a difference.
    """
    if a.space != b.space:
        raise SpaceMismatch("rules built over different state spaces")
    table_a, table_b = a._table, b._table
    if table_a == table_b:
        return CheckResult(True)
    # the tables differ, and every key is a nonempty mask of the space
    first = next(m for m in a.space.canonical_masks() if table_a.get(m) != table_b.get(m))
    return CheckResult(False, Event(a.space, first))
