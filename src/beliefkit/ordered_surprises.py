"""Ordered fallback hierarchies of priors and their induced updating rules.

A hierarchy lists beliefs from least to most surprising.  Conditioning on an
event selects the first prior that assigns the event positive mass (or mass
above a threshold, for the thresholded variant) and Bayes-updates it.  The
induced rule is always a conditional probability system, and every CPS
arises this way; ``cps_to_os`` recovers a hierarchy from a valid rule by
peeling supports off the remaining states.

On pairwise-disjoint supports, the form ``cps_to_os`` returns (Myerson
1986), the surprise partition has a closed form.  Call a trace q of
prior j (a submask of its support s_j) light when its numerator is at
most the prior's floor for the threshold, and heavy otherwise; the empty
trace is light, and the whole support is heavy, as eps < 1.  Let L_j and
H_j count prior j's light and heavy traces, and U be the states outside
every support.  Then class k has

    prod_(j<k) L_j * H_k * 2^(n - sum_(j<=k) |s_j|)

events, and prod_j L_j * 2^|U| - 1 events are undefined.  Proof: E maps
one to one onto its traces (E & s_0, ..., E & s_(P-1), E & U), since the
supports are disjoint, and every tuple of such parts is an event.  Prior
j is zero off s_j, so its mass on E is its mass on E & s_j, and it
clears the threshold on E exactly when E & s_j is heavy.  So E is in
class k exactly when its traces on s_0 .. s_(k-1) are light and its
trace on s_k is heavy, the other parts being free, and undefined when
every trace is light; the empty event is the one undefined tuple that is
no event.  Each count is the length of a prior's light trace list, whose
walk meets at most |s_j| heavy traces per light one, so the sizes cost
O(sum_k |s_k| * 2^|s_k|) at worst and no pass over the 2^n events.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import repeat
from operator import add
from typing import Callable, Sequence

from . import rules
from .core import (
    Belief,
    Event,
    StateSpace,
    ZERO,
    as_threshold,
    bayes_update,
    mask_indices,
)
from .errors import (
    EmptyEvent,
    IncompleteCoverage,
    NoPriorExceedsThreshold,
    NotCps,
    SpaceMismatch,
    ValidationError,
)
from .representations import OSRepresentation


def min_order(priors: Sequence[Belief], mask: int, eps: Fraction) -> int | None:
    """Index of the first prior whose mass on ``mask`` exceeds ``eps``, or None.

    Prior j's mass exceeds eps exactly when its numerator on ``mask`` is
    above its floor ``eps.numerator * den_j // eps.denominator``, the
    largest numerator at or below eps.  A prior's numerators are positive
    exactly on its support, so with eps = 0 (floor 0) that is the first
    prior whose support meets ``mask``.  The threshold is not range-checked
    here; callers taking it from outside do.
    """
    for k, prior in enumerate(priors):
        if prior.mask_num(mask) > eps.numerator * prior.den // eps.denominator:
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


def os_rule(os: OSRepresentation) -> rules.UpdatingRule:
    """The induced rule on every nonempty event, holding the hierarchy's walked prior list."""
    if not os.covers_space:
        os.space.check_enumerable()  # the state cap comes before the coverage check
        raise IncompleteCoverage(
            "hierarchy does not cover the space; update undefined on some events"
        )
    return rules.tabulate_traces(os.space, os.priors)


def cps_to_os(rule: rules.UpdatingRule) -> OSRepresentation:
    """Recover the canonical hierarchy from a valid CPS rule.

    The priors are the ones ``validate_cps`` peels from the rule: starting
    from the full space, each takes the rule's belief on the remaining
    states and removes its support.  Raises NotCps (carrying the validation
    outcome) when the rule fails ``validate_cps``.
    """
    validation = rules.validate_cps(rule)
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
    The public constructor takes masks: ``parts[k]`` lists class k's, and
    the last list the undefined events'.  ``surprise_partition`` on
    disjoint supports gives the counts alone and a lister: the first class
    read lists every class from one walk, and the first ``undefined`` read
    that list alone.  Each list's Events are built on its
    first read, the mask-to-class lookup on the first ``class_of``.
    ``sizes[k]`` is ``len(classes[k])``, counted from the masks or given
    by the closed form.
    """

    __slots__ = ("space", "eps", "_counts", "_parts", "_lister", "_lookup", "_events")

    def __init__(self, space: StateSpace, eps: Fraction, parts: list[list[int]]):
        self._init(space, eps, [len(part) for part in parts], parts, None)

    def _init(
        self,
        space: StateSpace,
        eps: Fraction,
        counts: list[int],
        parts: list[list[int] | None],
        lister: Callable[[int], list[list[int] | None]] | None,
    ) -> "SurprisePartition":
        # the one initializer: ``parts[k]`` is None until ``lister(k)`` builds it
        self.space, self.eps, self._counts, self._parts, self._lister = (
            space, eps, counts, parts, lister
        )
        self._events: list[tuple[Event, ...] | None] = [None] * len(counts)
        self._lookup: dict[int, int | None] | None = None
        return self

    def _masks(self, k: int) -> list[int]:
        if self._parts[k] is None:
            built = self._lister(k)
            self._parts = [new if old is None else old for old, new in zip(self._parts, built)]
        return self._parts[k]

    def _read(self, k: int) -> tuple[Event, ...]:
        if self._events[k] is None:
            # from ``map``, so no list of the Events is held beside the tuple
            self._events[k] = tuple(map(Event, repeat(self.space), self._masks(k)))
        return self._events[k]

    def _all(self) -> list[list[int]]:
        return [*map(self._masks, range(len(self._counts)))]

    classes = property(lambda self: tuple(map(self._read, range(len(self._counts) - 1))))
    undefined = property(lambda self: self._read(len(self._counts) - 1))
    sizes = property(lambda self: tuple(self._counts[:-1]))

    def class_of(self, event: Event) -> int | None:
        """Class index for ``event``, or None when it is undefined."""
        if event.space != self.space:
            raise SpaceMismatch("event built over a different state space")
        if self._lookup is None:
            labels = [*range(len(self._counts) - 1), None]
            self._lookup = {m: label for label, part in zip(labels, self._all()) for m in part}
        try:
            return self._lookup[event.mask]
        except KeyError:
            raise ValidationError("event not covered by this partition") from None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SurprisePartition)
            and self.space == other.space
            and self.eps == other.eps
            and self._counts == other._counts
            and self._all() == other._all()
        )

    def __hash__(self) -> int:
        return hash((self.space, self.eps, tuple(map(tuple, self._all()))))

    def __repr__(self) -> str:
        *sizes, undefined = map(str, self._counts)
        return f"SurprisePartition(eps={self.eps}, sizes=[{','.join(sizes)}], undefined={undefined})"


def light_traces(prior: Belief, floor: int) -> tuple[list[int], list[int]]:
    """The submasks of ``prior``'s support of numerator at most ``floor``, and their numerators.

    Masks in canonical order, the empty one first, and beside them each
    one's numerator over ``den``.  This is the one place a prior's light
    set is decided.  Light traces are down-closed, so a preorder walk of
    the prefix tree that extends each light one by each later state of
    the support meets every one, and no more heavy ones than |s| per
    light one: no list of all 2^|s| traces is built.
    """
    nums, states = prior.nums, mask_indices(prior.support_mask)[::-1]
    masks, sums, stack = [], [], [(0, 0)]
    while stack:
        q, num = stack.pop()
        masks.append(q)
        sums.append(num)
        top = q.bit_length()
        for i in states:  # the later states, descending
            if i < top:
                break
            if (y := num + nums[i]) <= floor:
                stack.append((q | 1 << i, y))
    return masks, sums


def surprise_partition(os: OSRepresentation, eps: Fraction | int = 0) -> SurprisePartition:
    """Partition all nonempty events by their first above-threshold prior.

    Prior k clears the threshold where its numerator is above its floor
    ``eps.numerator * den_k // eps.denominator``, as in ``min_order``.
    On pairwise-disjoint supports the sizes are the closed form of the
    module docstring, counted from each prior's light traces, listed once
    and kept on the partition, with no pass over the events; each mask
    list is built on its first read (``_listed``).  Otherwise ``_walked``
    walks every event.
    """
    eps = as_threshold(eps)
    space, priors = os.space, os.priors
    space.check_enumerable()  # a partition lists every event
    floors = [eps.numerator * prior.den // eps.denominator for prior in priors]
    if not os.is_canonical:
        return SurprisePartition(space, eps, _walked(space, priors, floors))
    lights = [light_traces(prior, floor)[0] for prior, floor in zip(priors, floors)]
    counts = []
    ways, free = 1, len(space)  # events light on the supports so far; states outside them
    for prior, light in zip(priors, lights):
        size = prior.support_mask.bit_count()
        free -= size
        counts.append(ways * ((1 << size) - len(light)) << free)
        ways *= len(light)
    counts.append((ways << free) - 1)
    lister = partial(_listed, space, priors, floors, lights)
    return object.__new__(SurprisePartition)._init(space, eps, counts, [None] * len(counts), lister)


def _listed(
    space: StateSpace,
    priors: Sequence[Belief],
    floors: Sequence[int],
    lights: Sequence[list[int]],
    k: int,
) -> list[list[int] | None]:
    """The mask lists that a read of part k builds, None where it builds none.

    A class read takes every class from one ``_walked`` walk.  The
    undefined events (k the prior count) are those whose trace on each
    support is light (module docstring).  Light traces are down-closed,
    so the undefined events are too, and a preorder walk of the prefix
    tree that enters a child only when its trace on the support holding
    the added state is light lists them in canonical order; a state
    outside every support is always entered.
    """
    if k < len(priors):
        return _walked(space, priors, floors)
    n = len(space)
    held: list[tuple[int, set[int]] | None] = [None] * n  # state: its support, that one's light traces
    for prior, light in zip(priors, lights):
        entry = prior.support_mask, set(light)
        for i in mask_indices(prior.support_mask):
            held[i] = entry
    out, stack = [], [0]
    while stack:
        x = stack.pop()
        out.append(x)
        for t in range(n - 1, x.bit_length() - 1, -1):  # children, the first on top
            entry = held[t]
            if not entry or (x | 1 << t) & entry[0] in entry[1]:
                stack.append(x | 1 << t)
    return [None] * k + [out[1:]]


def _walked(space: StateSpace, priors: Sequence[Belief], floors: Sequence[int]) -> list[list[int]]:
    """Each class's masks and then the undefined events', by one walk over every event.

    In canonical order, a preorder of the prefix tree, an event's per-prior
    numerators are its prefix's plus its top state's, and its order is at
    most its prefix's, since mass only grows from a prefix.
    """
    count = len(priors)
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
                if row[k] > floors[k]:
                    order = k
                    break
        orders[depth] = order
        parts[order].append(mask)
    return parts
