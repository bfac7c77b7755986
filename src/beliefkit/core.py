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
"""

from __future__ import annotations

import os
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

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


def _lex_masks(indices: Sequence[int]) -> list[int]:
    # nonempty subsets of the given sorted indices, in canonical order: with
    # ``out`` the order over the later indices, the subsets holding ``bit``
    # come first ({bit}, then bit joined to each of ``out``), then ``out``
    out: list[int] = []
    for i in reversed(indices):
        bit = 1 << i
        out = [bit, *[bit | m for m in out], *out]
    return out


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

    @property
    def empty_event(self) -> "Event":
        return Event(self, 0)

    def canonical_masks(self) -> tuple[int, ...]:
        """Masks of every nonempty event, canonical order.  Cap-checked."""
        if self._masks is None:
            cap = max_enumerable_states()
            if len(self.states) > cap:
                raise TooManyStates(
                    f"power-set enumeration over {len(self.states)} states exceeds the "
                    f"cap of {cap} (set {MAX_STATES_ENV} to raise it)"
                )
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

    def __iter__(self) -> Iterator[str]:
        return iter(self.members)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, label: str) -> bool:
        return bool(self.mask >> self.space.index(label) & 1)

    def _check(self, other: "Event") -> None:
        if self.space != other.space:
            raise SpaceMismatch("events belong to different state spaces")

    def __and__(self, other: "Event") -> "Event":
        self._check(other)
        return Event(self.space, self.mask & other.mask)

    def __or__(self, other: "Event") -> "Event":
        self._check(other)
        return Event(self.space, self.mask | other.mask)

    def __sub__(self, other: "Event") -> "Event":
        self._check(other)
        return Event(self.space, self.mask & ~other.mask)

    def __le__(self, other: "Event") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def issubset(self, other: "Event") -> bool:
        return self <= other

    def complement(self) -> "Event":
        return Event(self.space, ~self.mask & ((1 << len(self.space)) - 1))

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
    ``mass`` reads them as Fractions, built on first read.
    """

    __slots__ = ("space", "den", "nums", "support_mask", "_mass")

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

    @property
    def support(self) -> Event:
        return Event(self.space, self.support_mask)

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
    Expected utilities are memoized per lottery, keyed by the utility.
    """

    __slots__ = ("entries", "_hash", "_expected")

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
        self._hash = hash(self.entries)
        self._expected: dict[UtilityFunction, Fraction] | None = None

    def probability(self, label: str) -> Fraction:
        for key, value in self.entries:
            if key == label:
                return value
        return ZERO

    def items(self) -> tuple[tuple[str, Fraction], ...]:
        return self.entries

    def mix(self, alpha: Fraction | int, other: "Lottery") -> "Lottery":
        """alpha * self + (1 - alpha) * other, exact."""
        alpha = as_fraction(alpha)
        if not 0 <= alpha <= 1:
            raise ValidationError(f"mixture weight must lie in [0, 1], got {alpha}")
        merged: dict[str, Fraction] = {}
        for label, value in self.entries:
            merged[label] = merged.get(label, ZERO) + alpha * value
        for label, value in other.entries:
            merged[label] = merged.get(label, ZERO) + (1 - alpha) * value
        return Lottery(merged)

    def __eq__(self, other) -> bool:
        return isinstance(other, Lottery) and self.entries == other.entries

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inside = ", ".join(f"{o}: {p}" for o, p in self.entries)
        return f"Lottery({inside})"


class Act:
    """A total assignment of one lottery to every state."""

    __slots__ = ("space", "assignment", "_hash")

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
        self._hash = hash((space._hash, self.assignment))

    @classmethod
    def constant(cls, space: StateSpace, lottery: Lottery) -> "Act":
        return cls(space, {label: lottery for label in space.states})

    def lottery_at(self, label: str) -> Lottery:
        return self.assignment[self.space.index(label)]

    def mix(self, alpha: Fraction | int, other: "Act") -> "Act":
        """Statewise lottery mixture of two acts."""
        if self.space != other.space:
            raise SpaceMismatch("acts belong to different state spaces")
        return Act(
            self.space,
            {
                label: self.assignment[i].mix(alpha, other.assignment[i])
                for i, label in enumerate(self.space.states)
            },
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Act)
            and self.assignment == other.assignment
            and (self.space is other.space or self.space == other.space)
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Act({dict(zip(self.space.states, self.assignment))!r})"


class UtilityFunction:
    """Integer utility numerators, possibly negative: o is worth ``nums[o] / den``, reduced."""

    __slots__ = ("items", "outcomes", "den", "nums", "_hash")

    def __init__(self, table: Mapping[str, Fraction | int]):
        if not table:
            raise ValidationError("utility table must not be empty")
        self.items = tuple(sorted([(label, as_fraction(value)) for label, value in table.items()]))
        den = self.den = lcm(*[v.denominator for _, v in self.items])
        self.nums = {o: v.numerator * (den // v.denominator) for o, v in self.items}
        self.outcomes = tuple(self.nums)
        self._hash = hash(self.items)

    def value(self, outcome: str) -> Fraction:
        return Fraction(self.num(outcome), self.den)

    def num(self, outcome: str) -> int:
        try:
            return self.nums[outcome]
        except KeyError:
            raise MissingUtility(f"no utility assigned to outcome {outcome!r}") from None

    def expected(self, lottery: Lottery) -> Fraction:
        """Expected utility of ``lottery``, summed on integer numerators and memoized.

        The memo sits on the lottery, keyed by this utility, so a family's utilities
        hit it by identity; a missing outcome raises MissingUtility on every call.
        """
        memo = lottery._expected
        if memo is None:
            memo = lottery._expected = {}
        value = memo.get(self)
        if value is None:
            d = lcm(*[p.denominator for _, p in lottery.entries])
            n = sum([p.numerator * (d // p.denominator) * self.num(o) for o, p in lottery.entries])
            value = memo[self] = Fraction(n, d * self.den)
        return value

    def affine(self, alpha: Fraction | int, beta: Fraction | int) -> "UtilityFunction":
        alpha, beta = as_fraction(alpha), as_fraction(beta)
        return UtilityFunction({o: alpha * v + beta for o, v in self.items})

    def __eq__(self, other) -> bool:
        return isinstance(other, UtilityFunction) and self.items == other.items

    def __hash__(self) -> int:
        return self._hash

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
    support = e.mask & mu.support_mask
    if not support:
        raise NullConditioning(f"event {{{','.join(e.members)}}} has probability zero")
    kept = [n if support >> i & 1 else 0 for i, n in enumerate(mu.nums)]
    return object.__new__(Belief)._init(mu.space, sum(kept), kept, support)


def posterior_walk(
    priors: Sequence[Belief], domain: int, choose: Callable[[int, int], int | None]
) -> Iterator[tuple[int, int, Belief | None]]:
    """(mask, mass, posterior) for each nonempty submask of ``domain``, canonical order.

    The posterior is the Bayes update of prior k = choose(mask, j) on the
    mask and ``mass`` k's numerator there, with j the prior chosen for the
    prefix, the mask less its top state (len(priors) at the root).  choose
    must pick a prior meeting the mask, or None to skip it: (mask, 0, None).

    Canonical order is preorder on the prefix tree, so a stack by depth
    holds the prefix's (prior, kept numerators, their sum, their gcd,
    posterior).  On the prefix's prior, the top state's numerator extends
    the prefix's; a zero one gives its posterior back.  A cache by
    (k, mask & support) is read on another prior, and on extensions when
    k's support misses a ``domain`` state below its top, the only way they
    can meet a key twice.  Only a miss on another prior costs a pass over
    the states.  No ``Event`` is built.
    """
    space = priors[0].space
    n = len(space)
    masks = space.canonical_masks() if domain == (1 << n) - 1 else lex_submasks(domain)[1:]
    zeros = (0,) * n
    root = (len(priors), zeros, 0, 0, None)
    stack = [root] * (n + 1)
    plans: list = [None] * len(priors)
    for mask in masks:
        top = mask.bit_length() - 1
        depth = mask.bit_count()
        prefix = stack[depth - 1]
        k = choose(mask, prefix[0])
        if k is None:
            entry = root
        else:
            if plans[k] is None:
                nums, support = priors[k].nums, priors[k].support_mask
                below = domain & ~support & ((1 << support.bit_length()) - 1)
                tails = [(x, *zeros[i + 1 :]) for i, x in enumerate(nums)]
                plans[k] = nums, support, tails, bool(below), {}
            nums, support, tails, shared, cache = plans[k]
            same = k == prefix[0]
            num = nums[top]
            if same and not num:
                entry = prefix
            else:
                meet = mask & support
                cached = shared or not same
                entry = cache.get(meet) if cached else None
                if entry is None:
                    _, kept, mass, g, _ = prefix
                    if same or depth == 1:  # the empty prefix keeps no numerators
                        kept, mass, g = kept[:top] + tails[top], mass + num, gcd(g, num)
                    else:
                        kept = tuple([x if meet >> i & 1 else 0 for i, x in enumerate(nums)])
                        mass, g = sum(kept), gcd(*kept)
                    posterior = object.__new__(Belief)._init(space, mass, kept, meet, g)
                    entry = (k, kept, mass, g, posterior)
                    if cached:
                        cache[meet] = entry
        stack[depth] = entry
        yield mask, entry[2], entry[4]


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
    utility is read, from the memo ``UtilityFunction.expected`` keeps on
    each lottery.  The sum is taken on integer numerators: the belief's
    over its common denominator, each expected utility's over the lcm of
    the expected-utility denominators on the support, then one Fraction.
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
