"""Exact-arithmetic primitives: state spaces, events, beliefs, lotteries, acts.

Everything here is immutable and hashable, and every probability or utility
is exact: beliefs and utilities store reduced integer numerators over one
denominator and read them as ``fractions.Fraction``; lotteries store Fractions.
The constructors check signs and sums on integer numerators over the lcm of
the denominators.  No floats enter at any point, so equality is decidable
and all downstream checks (chain rule, argmax strictness, round trips) can
demand exact matches.

Events are bit subsets keyed to the declaration order of the state space.
The canonical order over events, used everywhere a "first witness" is
reported, is lexicographic on the sorted tuple of state indices: for states
(a, b, c) it runs {a}, {a,b}, {a,b,c}, {a,c}, {b}, {b,c}, {c}.

A prior keeps one map, by mask, from each nonempty proper submask q of its
support (a trace) to its Bayes update on q.  ``kept_update`` fills it one
entry at a time, and ``kept_traces`` walks the rest of it once, reusing
the entries already kept, so a tabulator, the certificate or a selection
reading the prior again builds no belief.  Every reader reads the map in
place, in canonical order, and takes the prior itself as the update on
the whole support, which the map does not hold.  ``lex_sums`` gives the
numerators of all the support's submasks in canonical order, the
support's own, den, after its |s| - 1 proper prefixes.
"""

from __future__ import annotations

import os
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    EmptyEvent,
    MissingUtility,
    NullConditioning,
    SpaceMismatch,
    TooManyStates,
    ValidationError,
)

ZERO = Fraction(0)

MAX_STATES_ENV = "BELIEFKIT_MAX_STATES"
DEFAULT_MAX_STATES = 20


def max_enumerable_states() -> int:
    """Cap on |S| for power-set enumerations, from BELIEFKIT_MAX_STATES."""
    raw = os.environ.get(MAX_STATES_ENV)
    if raw is None:
        return DEFAULT_MAX_STATES
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(f"{MAX_STATES_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValidationError(f"{MAX_STATES_ENV} must be positive, got {value}")
    return value


def as_fraction(value) -> Fraction:
    """Coerce int/Fraction to Fraction; reject floats and anything else."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise ValidationError(
        f"expected an exact rational (int or Fraction), got {type(value).__name__}"
    )


def as_threshold(value) -> Fraction:
    """Coerce a threshold like ``as_fraction`` and check it lies in [0, 1)."""
    eps = as_fraction(value)
    if not 0 <= eps < 1:
        raise ValidationError(f"threshold must lie in [0, 1), got {eps}")
    return eps


def lex_sums(values: Sequence[int]) -> list[int]:
    """The sum of ``values`` over each nonempty set of their positions, canonical order.

    With ``out`` the order over the later positions, the sets holding
    position i come first ({i}, then i joined to each of ``out``), then
    ``out``.
    """
    out: list[int] = []
    for x in reversed(values):
        out = [x, *map(x.__add__, out), *out]
    return out


def _lex_masks(indices: Sequence[int]) -> list[int]:
    # nonempty subsets of the given sorted indices, in canonical order: a
    # subset's mask is the sum of its bits
    return lex_sums([1 << i for i in indices])


def mask_indices(mask: int) -> list[int]:
    """State indices set in ``mask``, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def lex_submasks(mask: int) -> tuple[int, ...]:
    """All submasks of ``mask`` in canonical order, empty mask first."""
    return (0, *_lex_masks(mask_indices(mask)))


class StateSpace:
    """An ordered, finite set of state labels; the order is canonical."""

    __slots__ = ("states", "_index", "_hash", "_masks")

    def __init__(self, states: Iterable[str]):
        states = tuple(states)
        if not states:
            raise ValidationError("a state space needs at least one state")
        if any(not isinstance(s, str) or not s for s in states):
            raise ValidationError("state labels must be nonempty strings")
        if len(set(states)) != len(states):
            raise ValidationError("state labels must be distinct")
        self.states = states
        self._index = {s: i for i, s in enumerate(states)}
        self._hash = hash(states)
        self._masks: tuple[int, ...] | None = None

    def __len__(self) -> int:
        return len(self.states)

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, StateSpace) and self.states == other.states)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"StateSpace({list(self.states)!r})"

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValidationError(f"unknown state label {label!r}") from None

    def event(self, *labels: str) -> "Event":
        return self.event_from(labels)

    def event_from(self, labels: Iterable[str]) -> "Event":
        mask = 0
        for label in labels:
            mask |= 1 << self.index(label)
        return Event(self, mask)

    @property
    def full_event(self) -> "Event":
        return Event(self, (1 << len(self.states)) - 1)

    def check_enumerable(self) -> None:
        """Raise TooManyStates when |S| exceeds the power-set cap."""
        cap = max_enumerable_states()
        if len(self.states) > cap:
            raise TooManyStates(
                f"power-set enumeration over {len(self.states)} states exceeds the "
                f"cap of {cap} (set {MAX_STATES_ENV} to raise it)"
            )

    def canonical_masks(self) -> tuple[int, ...]:
        """Masks of every nonempty event, canonical order, built on first read.  Cap-checked."""
        if self._masks is None:
            self.check_enumerable()
            self._masks = tuple(_lex_masks(range(len(self.states))))
        return self._masks

    def events(self) -> Iterator["Event"]:
        """Every nonempty event in canonical order."""
        for mask in self.canonical_masks():
            yield Event(self, mask)


class Event:
    """A subset of a state space, stored as a bitmask over state indices."""

    __slots__ = ("space", "mask", "_hash")

    def __init__(self, space: StateSpace, mask: int):
        if not 0 <= mask < (1 << len(space.states)):
            raise ValidationError(f"event mask {mask} out of range for {space!r}")
        self.space = space
        self.mask = mask
        self._hash = hash((space._hash, mask))

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(mask_indices(self.mask))

    @property
    def members(self) -> tuple[str, ...]:
        states = self.space.states
        return tuple(states[i] for i in self.indices)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, label: str) -> bool:
        return bool(self.mask >> self.space.index(label) & 1)

    def _check(self, other: "Event") -> None:
        if self.space != other.space:
            raise SpaceMismatch("events belong to different state spaces")

    def __le__(self, other: "Event") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Event)
            and self.mask == other.mask
            and (self.space is other.space or self.space == other.space)
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "Event({%s})" % ",".join(self.members)


class Belief:
    """A probability distribution over a state space, exact and immutable.

    Stored as integers: state i has mass ``nums[i] / den``, reduced so that
    den > 0 and gcd(den, *nums) == 1, hence equal distributions store equal
    integers.  Equality and hashing use those integers and the space;
    ``mass`` reads them as Fractions, built on first read.  ``_traces``
    maps each nonempty proper submask of the support to the update on it,
    as far as ``kept_update`` and ``kept_traces`` have filled it, so every
    reader of the same prior shares those updates.  The update on the
    whole support is the belief itself and is not held there, so no
    belief refers back to itself.
    """

    __slots__ = ("space", "den", "nums", "support_mask", "_mass", "_traces")

    def __init__(self, space: StateSpace, masses: Mapping[str, Fraction | int]):
        values = []
        for label, raw in masses.items():
            value = as_fraction(raw)
            num = value.numerator
            if num < 0:
                raise ValidationError(f"negative mass {value} on state {label!r}")
            values.append((space.index(label), num, value.denominator))
        den = lcm(*[d for _, _, d in values])  # over it, the numerators come out reduced
        nums = [0] * len(space)
        support = 0
        for i, num, d in values:
            if num:
                nums[i] = num * (den // d)
                support |= 1 << i
        if sum(nums) != den:
            raise ValidationError(f"belief mass must sum to 1, got {Fraction(sum(nums), den)}")
        self._init(space, den, nums, support, 1)

    def _init(
        self, space: StateSpace, den: int, nums: Sequence[int], support: int, g: int = 0
    ) -> "Belief":
        # the one initializer: masses nums[i] / den, nonnegative, summing to
        # one, nonzero exactly on the bits of ``support``; ``g`` is
        # gcd(den, *nums) when the caller knows it, else 0
        g = g or gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [n // g for n in nums]
        self.space = space
        self.den = den
        self.nums = tuple(nums)
        self.support_mask = support
        self._mass: tuple[Fraction, ...] | None = None
        self._traces: dict[int, Belief] | None = None
        return self

    @classmethod
    def uniform_on(cls, event: Event) -> "Belief":
        if not event:
            raise EmptyEvent("cannot spread mass over the empty event")
        nums = [event.mask >> i & 1 for i in range(len(event.space))]
        return object.__new__(cls)._init(event.space, len(event), nums, event.mask, 1)

    @property
    def mass(self) -> tuple[Fraction, ...]:
        """Mass of each state, in state order, as Fractions built on first read."""
        if self._mass is None:
            den = self.den
            self._mass = tuple([Fraction(n, den) if n else ZERO for n in self.nums])
        return self._mass

    def mass_of(self, label: str) -> Fraction:
        return (self._mass or self.mass)[self.space.index(label)]

    def items(self) -> Iterator[tuple[str, Fraction]]:
        return zip(self.space.states, self.mass)

    def mask_num(self, mask: int) -> int:
        """Numerator of the mass on ``mask``, over ``den``."""
        nums = self.nums
        m = mask & self.support_mask
        num = 0
        while m:
            low = m & -m
            num += nums[low.bit_length() - 1]
            m ^= low
        return num

    def restricted(self, mask: int) -> "Belief":
        """Bayes update on ``mask``, the belief itself when the mask holds its support.

        NullConditioning when the mask misses the support.
        """
        support = mask & self.support_mask
        if support == self.support_mask:
            return self
        if not support:
            members = ",".join([self.space.states[i] for i in mask_indices(mask)])
            raise NullConditioning(f"event {{{members}}} has probability zero")
        kept = [n if support >> i & 1 else 0 for i, n in enumerate(self.nums)]
        return object.__new__(Belief)._init(self.space, sum(kept), kept, support)

    def mix(self, alpha: Fraction | int, other: "Belief") -> "Belief":
        """alpha * self + (1 - alpha) * other, exact, built on integer numerators."""
        alpha = as_fraction(alpha)
        if not 0 <= alpha <= 1:
            raise ValidationError(f"mixture weight must lie in [0, 1], got {alpha}")
        if self.space != other.space:
            raise SpaceMismatch("beliefs belong to different state spaces")
        # alpha = keep / (keep + move): masses over (keep + move) * den * w
        keep, move = alpha.numerator, alpha.denominator - alpha.numerator
        den, w = self.den, other.den
        row = [keep * w * x + move * den * y for x, y in zip(self.nums, other.nums)]
        support = (self.support_mask if keep else 0) | (other.support_mask if move else 0)
        return object.__new__(Belief)._init(self.space, alpha.denominator * den * w, row, support)

    def prob(self, event: Event) -> Fraction:
        if self.space != event.space:
            raise SpaceMismatch("belief and event belong to different state spaces")
        return Fraction(self.mask_num(event.mask), self.den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Belief)
            and self.nums == other.nums
            and self.den == other.den
            and (self.space is other.space or self.space == other.space)
        )

    def __hash__(self) -> int:
        return hash((self.space._hash, self.den, self.nums))

    def __repr__(self) -> str:
        inside = ", ".join(f"{s}: {v}" for s, v in self.items() if v)
        return f"Belief({inside})"


class Lottery:
    """A finite-support objective lottery over outcome labels.

    Zero-probability entries are dropped, so the stored support is exact.
    """

    __slots__ = ("entries",)

    def __init__(self, outcomes: Mapping[str, Fraction | int]):
        values = []
        for label in sorted(outcomes):
            value = as_fraction(outcomes[label])
            if value.numerator < 0:
                raise ValidationError(f"negative probability {value} on outcome {label!r}")
            values.append((label, value))
        den = lcm(*[value.denominator for _, value in values])
        num = sum([value.numerator * (den // value.denominator) for _, value in values])
        if num != den:
            raise ValidationError(f"lottery probabilities must sum to 1, got {Fraction(num, den)}")
        self.entries = tuple([(label, value) for label, value in values if value])

    def items(self) -> tuple[tuple[str, Fraction], ...]:
        return self.entries

    def __eq__(self, other) -> bool:
        return isinstance(other, Lottery) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        inside = ", ".join(f"{o}: {p}" for o, p in self.entries)
        return f"Lottery({inside})"


class Act:
    """A total assignment of one lottery to every state."""

    __slots__ = ("space", "assignment")

    def __init__(self, space: StateSpace, assignment: Mapping[str, Lottery]):
        lots: list[Lottery | None] = [None] * len(space)
        for label, lottery in assignment.items():
            if not isinstance(lottery, Lottery):
                raise ValidationError(f"state {label!r} must map to a Lottery")
            lots[space.index(label)] = lottery
        missing = [space.states[i] for i, lot in enumerate(lots) if lot is None]
        if missing:
            raise ValidationError(f"act must assign a lottery to every state; missing {missing}")
        self.space = space
        self.assignment = tuple(lots)  # type: ignore[arg-type]

    @classmethod
    def constant(cls, space: StateSpace, lottery: Lottery) -> "Act":
        return cls(space, {label: lottery for label in space.states})

    def lottery_at(self, label: str) -> Lottery:
        return self.assignment[self.space.index(label)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Act)
            and self.assignment == other.assignment
            and (self.space is other.space or self.space == other.space)
        )

    def __hash__(self) -> int:
        return hash((self.space._hash, self.assignment))

    def __repr__(self) -> str:
        return f"Act({dict(zip(self.space.states, self.assignment))!r})"


class UtilityFunction:
    """Integer utility numerators, possibly negative: o is worth ``nums[o] / den``, reduced."""

    __slots__ = ("items", "outcomes", "den", "nums")

    def __init__(self, table: Mapping[str, Fraction | int]):
        if not table:
            raise ValidationError("utility table must not be empty")
        self.items = tuple(sorted([(label, as_fraction(value)) for label, value in table.items()]))
        den = self.den = lcm(*[v.denominator for _, v in self.items])
        self.nums = {o: v.numerator * (den // v.denominator) for o, v in self.items}
        self.outcomes = tuple(self.nums)

    def value(self, outcome: str) -> Fraction:
        return Fraction(self.num(outcome), self.den)

    def num(self, outcome: str) -> int:
        try:
            return self.nums[outcome]
        except KeyError:
            raise MissingUtility(f"no utility assigned to outcome {outcome!r}") from None

    def expected(self, lottery: Lottery) -> Fraction:
        """Expected utility of ``lottery``, summed on integer numerators.

        A missing outcome raises MissingUtility.
        """
        d = lcm(*[p.denominator for _, p in lottery.entries])
        n = sum([p.numerator * (d // p.denominator) * self.num(o) for o, p in lottery.entries])
        return Fraction(n, d * self.den)

    def affine(self, alpha: Fraction | int, beta: Fraction | int) -> "UtilityFunction":
        alpha, beta = as_fraction(alpha), as_fraction(beta)
        return UtilityFunction({o: alpha * v + beta for o, v in self.items})

    def __eq__(self, other) -> bool:
        return isinstance(other, UtilityFunction) and self.items == other.items

    def __hash__(self) -> int:
        return hash(self.items)

    def __repr__(self) -> str:
        return f"UtilityFunction({dict(self.items)!r})"


class Preference(Enum):
    """Outcome of a binary comparison between two acts."""

    FIRST = "first"
    SECOND = "second"
    INDIFFERENT = "indifferent"


def compare_values(a: Fraction, b: Fraction) -> Preference:
    if a > b:
        return Preference.FIRST
    if b > a:
        return Preference.SECOND
    return Preference.INDIFFERENT


class CheckResult(NamedTuple):
    """Boolean verdict plus, when it fails, the first witness found."""

    ok: bool
    witness: object | None = None

    def __bool__(self) -> bool:
        return self.ok


def bayes_update(mu: Belief, e: Event) -> Belief:
    """Condition ``mu`` on ``e``: restrict and renormalize.

    Raises EmptyEvent on e = {} and NullConditioning when mu(e) = 0.  The
    posterior's masses are ``mu``'s numerators on ``e`` over their sum, so
    they sum to one by construction: the checks of ``Belief.__init__`` are
    skipped and no Fraction is built.
    """
    if mu.space != e.space:
        raise SpaceMismatch("belief and event belong to different state spaces")
    if not e:
        raise EmptyEvent("cannot condition on the empty event")
    return mu.restricted(e.mask)


def kept_traces(prior: Belief) -> dict[int, Belief]:
    """``prior``'s update on each nonempty proper submask q of its support, by q, canonical order.

    The update on the whole support is the prior itself, and is not held,
    so that no belief refers back to itself.  The first read walks every
    trace the map lacks, reusing the updates already kept there, and
    keeps the whole map on the prior, 2^|s| - 2 entries, so a later read
    builds no belief.
    """
    traces = prior._traces
    if traces is None or len(traces) != (1 << prior.support_mask.bit_count()) - 2:
        _walk(prior)
    return prior._traces


def kept_update(prior: Belief, mask: int) -> Belief:
    """``prior.restricted(mask)``, kept on the prior by its trace, so a later call builds none.

    The update on a mask holding the whole support is the prior itself,
    and is not kept, so that no belief refers to itself.  The update that
    completes the map has the map walked, which builds nothing and puts
    it in canonical order.
    """
    trace = mask & prior.support_mask
    traces = prior._traces
    if traces is not None and trace in traces:
        return traces[trace]
    update = prior.restricted(mask)
    if update is not prior:
        if traces is None:
            traces = prior._traces = {}
        traces[trace] = update
        if len(traces) == (1 << prior.support_mask.bit_count()) - 2:
            _walk(prior)
    return update


def _walk(prior: Belief) -> None:
    # keep on ``prior`` its update on every nonempty proper submask of its
    # support, in canonical order, reusing those it keeps: in this preorder
    # on the prefix tree each q extends its prefix's (numerators, sum,
    # gcd), on a stack by depth, by one state's
    space, nums, support = prior.space, prior.nums, prior.support_mask
    kept = prior._traces or {}
    full = support == (1 << len(nums)) - 1
    zeros = (0,) * len(nums)
    tails = {i: (x, *zeros[i + 1 :]) for i, x in enumerate(nums) if x}
    stack = [(zeros, 0, 0)] * (support.bit_count() + 1)
    traces: dict[int, Belief] = {}
    for q in space.canonical_masks() if full else _lex_masks(mask_indices(support)):
        top = q.bit_length() - 1
        depth = q.bit_count()
        row, mass, g = stack[depth - 1]
        x = nums[top]
        row, mass, g = stack[depth] = row[:top] + tails[top], mass + x, gcd(g, x)
        if q != support:
            traces[q] = kept.get(q) or object.__new__(Belief)._init(space, mass, row, q, g)
    prior._traces = traces


def compose_act(f: Act, e: Event, g: Act) -> Act:
    """The act equal to ``f`` on ``e`` and to ``g`` elsewhere."""
    if f.space != g.space:
        raise SpaceMismatch("acts belong to different state spaces")
    if f.space != e.space:
        raise SpaceMismatch("event belongs to a different state space")
    mask = e.mask
    return Act(
        f.space,
        {
            label: (f.assignment[i] if mask >> i & 1 else g.assignment[i])
            for i, label in enumerate(f.space.states)
        },
    )


def seu_value(u: UtilityFunction, mu: Belief, f: Act) -> Fraction:
    """Subjective expected utility of ``f`` under belief ``mu``.

    The utility table must cover every outcome the act can produce,
    including outcomes on zero-probability states: every state's expected
    utility is computed, by ``UtilityFunction.expected``, on every call.
    The sum is taken on integer numerators: the belief's over its common
    denominator, each expected utility's over the lcm of the
    expected-utility denominators on the support, then one Fraction.
    """
    if mu.space != f.space:
        raise SpaceMismatch("belief and act belong to different state spaces")
    den, nums = mu.den, mu.nums
    terms = []
    for num, lottery in zip(nums, f.assignment):
        value = u.expected(lottery)
        if num:
            terms.append((num, value.numerator, value.denominator))
    common = lcm(*[d for _, _, d in terms])
    return Fraction(sum([num * n * (common // d) for num, n, d in terms]), den * common)
