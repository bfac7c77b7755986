"""Ordered fallback hierarchies of priors and their induced updating rules.

A hierarchy lists beliefs from least to most surprising.  Conditioning on an
event selects the first prior that assigns the event positive mass (or mass
above a threshold, for the thresholded variant) and Bayes-updates it.  The
induced rule is always a conditional probability system, and every CPS
arises this way; ``cps_to_os`` recovers a hierarchy from a valid rule by
peeling supports off the remaining states.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Sequence

from .core import Belief, Event, StateSpace, ZERO, as_threshold, bayes_update
from .errors import (
    EmptyEvent,
    IncompleteCoverage,
    NoPriorExceedsThreshold,
    NotCps,
    SpaceMismatch,
    ValidationError,
)
from .rules import UpdatingRule, tabulate_rule, validate_cps


class OSRepresentation:
    """An ordered, nonempty list of priors over one state space."""

    __slots__ = ("space", "priors", "_hash")

    def __init__(self, space: StateSpace, priors: Iterable[Belief]):
        priors = tuple(priors)
        if not priors:
            raise ValidationError("a hierarchy needs at least one prior")
        for prior in priors:
            if prior.space != space:
                raise SpaceMismatch("prior built over a different state space")
        self.space = space
        self.priors = priors
        self._hash = hash((space, priors))

    def __len__(self) -> int:
        return len(self.priors)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OSRepresentation)
            and self.space == other.space
            and self.priors == other.priors
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"OSRepresentation(<{len(self.priors)} priors over {len(self.space)} states>)"

    @property
    def covers_space(self) -> bool:
        """True when every state is in some prior's support."""
        mask = 0
        for prior in self.priors:
            mask |= prior.support_mask
        return mask == (1 << len(self.space)) - 1

    @property
    def is_canonical(self) -> bool:
        """True when supports are pairwise disjoint."""
        seen = 0
        for prior in self.priors:
            if prior.support_mask & seen:
                return False
            seen |= prior.support_mask
        return True


def min_order(priors: Sequence[Belief], mask: int, eps: Fraction) -> int | None:
    """Index of the first prior whose mass on ``mask`` exceeds ``eps``, or None.

    A prior's numerators are positive exactly on its support, so with eps = 0
    that is the first prior whose support meets ``mask``.  The threshold is
    not range-checked here; callers taking it from outside do.
    """
    for k, prior in enumerate(priors):
        if prior.mask_num(mask) * eps.denominator > eps.numerator * prior.den:
            return k
    return None


def surprise_order(os: OSRepresentation, e: Event) -> int:
    """Index of the first prior assigning ``e`` positive mass."""
    if e.space != os.space:
        raise SpaceMismatch("event built over a different state space")
    if not e:
        raise EmptyEvent("the empty event has no surprise order")
    order = min_order(os.priors, e.mask, ZERO)
    if order is None:
        raise IncompleteCoverage(
            f"no prior assigns positive mass to {{{','.join(e.members)}}}"
        )
    return order


def os_update(os: OSRepresentation, e: Event) -> Belief:
    """Bayes update of the first prior that finds ``e`` possible."""
    return bayes_update(os.priors[surprise_order(os, e)], e)


def os_rule(os: OSRepresentation) -> UpdatingRule:
    """Tabulate the induced rule on every nonempty event."""
    space = os.space
    space.canonical_masks()  # TooManyStates past the power-set cap comes first
    if not os.covers_space:
        raise IncompleteCoverage(
            "hierarchy does not cover the space; update undefined on some events"
        )
    priors = os.priors
    # the first prior meeting an event: its prefix's, or an earlier one holding its top state
    first = [min_order(priors, 1 << i, ZERO) for i in range(len(space))]
    return tabulate_rule(space, priors, lambda mask, j: min(j, first[mask.bit_length() - 1]))


def cps_to_os(rule: UpdatingRule) -> OSRepresentation:
    """Recover the canonical hierarchy from a valid CPS rule.

    The priors are the ones ``validate_cps`` peels from the rule: starting
    from the full space, each takes the rule's belief on the remaining
    states and removes its support.  Raises NotCps (carrying the validation
    outcome) when the rule fails ``validate_cps``.
    """
    validation = validate_cps(rule)
    if not validation:
        detail = validation.reason or "chain rule violated"
        raise NotCps(f"rule is not a conditional probability system: {detail}", validation)
    return OSRepresentation(rule.space, validation.priors)


def eps_surprise_order(os: OSRepresentation, eps: Fraction | int, e: Event) -> int:
    """Index of the first prior whose mass on ``e`` exceeds ``eps``."""
    eps = as_threshold(eps)
    if e.space != os.space:
        raise SpaceMismatch("event built over a different state space")
    if not e:
        raise EmptyEvent("cannot condition on the empty event")
    order = min_order(os.priors, e.mask, eps)
    if order is None:
        raise NoPriorExceedsThreshold(
            f"no prior mass on {{{','.join(e.members)}}} exceeds {eps}"
        )
    return order


def eps_os_update(os: OSRepresentation, eps: Fraction | int, e: Event) -> Belief:
    """Bayes update of the first prior whose mass on ``e`` exceeds ``eps``."""
    return bayes_update(os.priors[eps_surprise_order(os, eps, e)], e)


class SurprisePartition:
    """Events grouped by the hierarchy index that handles them.

    ``classes[k]`` holds the events whose first above-threshold prior is k,
    in canonical order.  ``undefined`` holds the events no prior clears.
    Stored by mask: one mask list per class with the undefined events' last.
    The Events are built on first read, the mask-to-class lookup on the first
    ``class_of``.
    """

    __slots__ = ("space", "eps", "_parts", "_lookup", "_events")

    def __init__(
        self,
        space: StateSpace,
        eps: Fraction,
        classes: tuple[tuple[Event, ...], ...],
        undefined: tuple[Event, ...],
    ):
        parts = [[event.mask for event in events] for events in (*classes, undefined)]
        self._init(space, eps, parts)._events = (classes, undefined)

    def _init(self, space: StateSpace, eps: Fraction, parts: list):
        # the one initializer: parts[k] lists class k's masks, parts[-1] the undefined ones
        self.space, self.eps, self._parts = space, eps, parts
        self._events: tuple | None = None
        self._lookup: dict[int, int | None] | None = None
        return self

    def _read(self) -> tuple:
        if self._events is None:
            space = self.space
            *classes, undefined = [tuple([Event(space, m) for m in part]) for part in self._parts]
            self._events = (tuple(classes), undefined)
        return self._events

    classes = property(lambda self: self._read()[0])
    undefined = property(lambda self: self._read()[1])

    def class_of(self, event: Event) -> int | None:
        """Class index for ``event``, or None when it is undefined."""
        if event.space != self.space:
            raise SpaceMismatch("event built over a different state space")
        if self._lookup is None:
            labels = [*range(len(self._parts) - 1), None]
            self._lookup = {m: label for label, part in zip(labels, self._parts) for m in part}
        try:
            return self._lookup[event.mask]
        except KeyError:
            raise ValidationError("event not covered by this partition") from None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SurprisePartition)
            and self.space == other.space
            and self.eps == other.eps
            and self._parts == other._parts
        )

    def __hash__(self) -> int:
        return hash((self.space, self.eps, tuple(map(tuple, self._parts))))

    def __repr__(self) -> str:
        *sizes, undefined = [str(len(part)) for part in self._parts]
        return f"SurprisePartition(eps={self.eps}, sizes=[{','.join(sizes)}], undefined={undefined})"


def surprise_partition(os: OSRepresentation, eps: Fraction | int = 0) -> SurprisePartition:
    """Partition all nonempty events by their first above-threshold prior.

    In canonical order, a preorder of the prefix tree, an event's per-prior
    numerators are its prefix's plus its top state's, and its order is at
    most its prefix's, since mass only grows from a prefix.
    """
    eps = as_threshold(eps)
    space, priors, count = os.space, os.priors, len(os.priors)
    scale, cuts = eps.denominator, [eps.numerator * prior.den for prior in priors]
    columns = list(zip(*[prior.nums for prior in priors]))  # state i: each prior's numerator
    sums = [(0,) * count] * (len(space) + 1)  # by depth: the latest event's numerators
    orders = [count] * (len(space) + 1)  # by depth: its order, count when undefined
    parts: list[list[int]] = [[] for _ in range(count + 1)]  # the last: undefined
    for mask in space.canonical_masks():
        depth = mask.bit_count()
        order = orders[depth - 1]
        if order:  # else prior 0 clears the prefix, hence this event and all below it
            row = sums[depth] = tuple(map(add, sums[depth - 1], columns[mask.bit_length() - 1]))
            for k in range(order):
                if row[k] * scale > cuts[k]:
                    order = k
                    break
        orders[depth] = order
        parts[order].append(mask)
    return object.__new__(SurprisePartition)._init(space, eps, parts)
