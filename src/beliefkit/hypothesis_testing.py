"""Likelihood-test selection among weighted priors, and two constructions.

A representation here is a prior list, a strictly top-heavy second-order
weight over it, and a threshold in [0, 1).  Conditioning Bayes-updates the
top prior when its mass on the event clears the threshold; otherwise the
prior maximizing mass-times-weight is selected, and the argmax must be
strict.

A representation stores its weights like a belief's masses: reduced integer
numerators w_j over one total, read as Fractions (``rho``) on first read.
The threshold test is one integer cross-multiplication on the top prior.
``ht_select`` takes the argmax from the Fraction scores its trace reports.
For its argmax, an ``ht_rule`` call builds one integer column per state,
on the first event that reaches the argmax: column i lists
nums_j[i] * w_j * (L // den_j) for every prior j, with L the lcm of the
priors' denominators, so every score is the true one times L * total.  An
event's scores are the sum of its states' columns, taken for all priors at
once, and a tie is a maximum that occurs more than once.  ``ht_rule`` adds
one column per event to the scores of the event's prefix, carried down its
walk of the events.  A rule that is Bayesian on every event never builds
the columns.

``os_to_ht`` turns any ordered hierarchy that covers the space into such a
representation whose rule is identical; supports may overlap.  Weight k+1
is weight k times m_k / 2, m_k being prior k's least positive mass.  An
event that first becomes feasible at order k misses the supports of priors
0..k-1, which score 0 on it, and meets prior k's support, so its score
there is at least rho_k * m_k = 2 * rho_(k+1).  Every deeper prior j
scores at most rho_j <= rho_(k+1), so order k wins strictly.

``eps_os_to_ht`` covers the thresholded variant.  Its prior list is the set
of distinct conditional beliefs the thresholded update can ever produce.
Weights are assigned inside a descending chain of disjoint open intervals,
one interval per surprise class, spaced by midpoint bisection of the gap
above the returned threshold; within a class, beliefs are spaced evenly in
prefix-tree postorder of their supports, which puts each belief before
every belief certain of its representing events (a smaller support).  The
returned threshold is the largest conditional mass that must fall on the
reject side (never below the input threshold); for an input threshold of
zero it is exactly 0.

The construction runs on integers too.  A class-k conditional's support is
the submask of support k it was conditioned on (a row), so dominance is the
support-subset test, and the order is prefix-tree postorder of the
support's submasks, kept to the rows.  One walk over the submasks of each
support, ``core.posterior_walk``, gives every submask's numerator, each
its prefix's plus one state's, and the conditional belief on it.  Every
mass compared is a ratio of two such numerators, and every comparison is
an integer cross-multiplication.  Two quantities have closed forms.  A
class's gap limit is (den - m) / den with m the least numerator of a state
x whose removal leaves a row (0 when there is none): the full support
attains it, O(n) per class.  The cross-class maximum is the largest
num(q) / lightest(q) over the submasks q below the threshold, lightest(q)
being the least numerator of a row holding q; one pass in descending mask
order reads it off q's one-state extensions, O(2^|s| * |s|) per class.
The interval chain is integers over one denominator (the threshold's, 4
per class and each gap limit's), so every halving divides exactly, and the
weights are integer numerators over the lcm of the reduced bounds'
denominators times the lcm of (class size + 1), so the even spacing
divides exactly.  They go to the representation as integers; Fractions
are built only for ``cross_max`` and ``bounds``.  So the construction is
the per-support walk plus closed forms.  The dominance pairs, ``edges``,
are O(3^n) and listed only when read, by walking the submasks of each row.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Iterable, NamedTuple, Sequence

from .core import (
    Belief,
    Event,
    StateSpace,
    ZERO,
    as_fraction,
    as_threshold,
    bayes_update,
    lex_submasks,
    mask_indices,
    posterior_walk,
)
from .errors import (
    AmbiguousArgmax,
    EmptyEvent,
    IncompleteCoverage,
    SpaceMismatch,
    ValidationError,
)
from .ordered_surprises import OSRepresentation
from .rules import UpdatingRule, tabulate_rule


class SelectionBranch(Enum):
    BAYESIAN = "bayesian"
    ARGMAX = "argmax"


class SelectionTrace(NamedTuple):
    """How a conditioning event was resolved: branch, all scores, winner."""

    event: Event
    branch: SelectionBranch
    scores: tuple[Fraction, ...]
    chosen: int


class HTRepresentation:
    """Priors with positive weights (top one strictly maximal) and a threshold.

    Weight j is ``weights[j] / total``, reduced so that total > 0 and
    gcd(total, *weights) == 1; ``rho`` reads the weights as Fractions,
    built on first read.
    """

    __slots__ = ("space", "priors", "weights", "total", "eps", "_rho")

    def __init__(
        self,
        space: StateSpace,
        priors: Iterable[Belief],
        rho: Iterable[Fraction | int],
        eps: Fraction | int = 0,
    ):
        priors = tuple(priors)
        rho = tuple(as_fraction(r) for r in rho)
        common = lcm(*[r.denominator for r in rho])  # weights as integers over it
        scaled = [r.numerator * (common // r.denominator) for r in rho]
        self._init(space, priors, scaled, common, as_fraction(eps))

    def _init(
        self, space: StateSpace, priors: tuple, weights: Sequence[int], total: int, eps: Fraction
    ) -> "HTRepresentation":
        # the one initializer: weights[j] / total with total > 0, eps a Fraction
        if not priors:
            raise ValidationError("a representation needs at least one prior")
        for prior in priors:
            if prior.space is not space and prior.space != space:
                raise SpaceMismatch("prior built over a different state space")
        if len(weights) != len(priors):
            raise ValidationError("need exactly one weight per prior")
        if any(w <= 0 for w in weights):
            raise ValidationError("weights must be strictly positive")
        if sum(weights) != total:
            raise ValidationError(f"weights must sum to 1, got {Fraction(sum(weights), total)}")
        if any(w >= weights[0] for w in weights[1:]):
            raise ValidationError("the first prior's weight must be strictly maximal")
        as_threshold(eps)  # the range after the weight checks; the type came first
        union = 0
        for prior in priors:
            union |= prior.support_mask
        if union != (1 << len(space)) - 1:
            raise ValidationError("prior supports must jointly cover the space")
        g = gcd(total, *weights)
        self.space = space
        self.priors = priors
        self.weights = tuple([w // g for w in weights])
        self.total = total // g
        self.eps = eps
        self._rho: tuple[Fraction, ...] | None = None
        return self

    @property
    def rho(self) -> tuple[Fraction, ...]:
        """Each prior's weight as a Fraction, built on first read."""
        if self._rho is None:
            total = self.total
            self._rho = tuple([Fraction(w, total) for w in self.weights])
        return self._rho

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HTRepresentation)
            and self.space == other.space
            and self.priors == other.priors
            and self.weights == other.weights
            and self.total == other.total
            and self.eps == other.eps
        )

    def __hash__(self) -> int:
        return hash((self.space, self.priors, self.weights, self.total, self.eps))

    def __repr__(self) -> str:
        return (
            f"HTRepresentation(<{len(self.priors)} priors over "
            f"{len(self.space)} states, eps={self.eps}>)"
        )


def _columns(ht: HTRepresentation) -> list[tuple[int, ...]]:
    """Column i: every prior's score on {i}, over one common denominator.

    rho_j * mass_j({i}) = nums_j[i] * w_j / (den_j * total).  Over
    L = lcm(den_j) the entry for prior j is nums_j[i] * w_j * (L // den_j),
    every score times the one positive constant L * total, and an event's
    scores are column sums.
    """
    common = lcm(*[prior.den for prior in ht.priors])
    factors = [w * (common // prior.den) for prior, w in zip(ht.priors, ht.weights)]
    rows = [[num * f for num in prior.nums] for prior, f in zip(ht.priors, factors)]
    return list(zip(*rows))


def _argmax(ht: HTRepresentation, mask: int, scores: Sequence[int | Fraction]) -> int:
    """Index of the strict maximum of an argmax event's scores."""
    # best > 0: ``_init`` makes every weight positive and the supports cover
    # the space, so some prior puts positive mass on the nonempty event
    best = max(scores)
    if scores.count(best) > 1:
        tied = [j for j, score in enumerate(scores) if score == best]
        raise AmbiguousArgmax(
            f"priors {tied} tie for the maximal score",
            event=Event(ht.space, mask),
            tied=tuple(tied),
        )
    return scores.index(best)


def ht_select(ht: HTRepresentation, e: Event) -> tuple[SelectionTrace, Belief]:
    """Resolve one event: full score trace plus the resulting belief."""
    if e.space != ht.space:
        raise SpaceMismatch("event built over a different state space")
    if not e:
        raise EmptyEvent("cannot condition on the empty event")
    scores = tuple(
        Fraction(prior.mask_num(e.mask) * w, prior.den * ht.total)
        for prior, w in zip(ht.priors, ht.weights)
    )
    eps, top = ht.eps, ht.priors[0]
    if top.mask_num(e.mask) * eps.denominator > eps.numerator * top.den:
        branch, chosen = SelectionBranch.BAYESIAN, 0
    else:
        branch, chosen = SelectionBranch.ARGMAX, _argmax(ht, e.mask, scores)
    trace = SelectionTrace(event=e, branch=branch, scores=scores, chosen=chosen)
    return trace, bayes_update(ht.priors[chosen], e)


def ht_rule(ht: HTRepresentation) -> UpdatingRule:
    """Tabulate the induced rule on every nonempty event.

    Propagates AmbiguousArgmax (with the offending event) if any event has
    a tied argmax, since the rule is undefined there.  The top prior's
    numerator and the scores are kept by event size and extended from the
    prefix's; an event the top prior rejects has a rejected prefix (mass
    only grows from a prefix), whose scores are then current.
    """
    eps, top, depths = ht.eps, ht.priors[0], len(ht.space) + 1
    nums, scale, cut = top.nums, eps.denominator, eps.numerator * top.den
    masses = [0] * depths
    scores: list = [(0,) * len(ht.priors)] * depths
    columns = None  # built on the first argmax event

    def choose(mask: int, _: int) -> int:
        nonlocal columns
        state = mask.bit_length() - 1
        depth = mask.bit_count()
        mass = masses[depth] = masses[depth - 1] + nums[state]
        if mass * scale > cut:
            return 0
        columns = columns or _columns(ht)
        row = scores[depth] = list(map(add, scores[depth - 1], columns[state]))
        return _argmax(ht, mask, row)

    return tabulate_rule(ht.space, ht.priors, choose)


def os_to_ht(os: OSRepresentation) -> HTRepresentation:
    """Weight construction matching an ordered hierarchy exactly.

    v(0) = 1 and v(k) = v(k-1) * m_(k-1) / 2, normalized, with m_j the least
    positive mass of prior j.  Threshold 0.  The hierarchy must cover the
    space; its supports may overlap.  An event first feasible at order k
    misses the supports of priors 0..k-1, which score 0 on it, and has mass
    at least m_k under prior k, so it scores at least v(k) * m_k there.
    Every deeper order j scores at most v(j) <= v(k+1) = v(k) * m_k / 2.
    So selection and the hierarchy's first-feasible choice coincide on
    every event.
    """
    if not os.covers_space:
        raise IncompleteCoverage("hierarchy supports must jointly cover the space")
    weights = [1]  # v(0), ..., v(k) times 2^k * den_0 * ... * den_(k-1)
    for prior in os.priors[:-1]:
        least = min(n for n in prior.nums if n)
        weights = [w * 2 * prior.den for w in weights] + [weights[-1] * least]
    return object.__new__(HTRepresentation)._init(
        os.space, os.priors, weights, sum(weights), ZERO
    )


class EpsOsConstruction(NamedTuple):
    """Thresholded construction with its bookkeeping exposed for inspection.

    ``class_of[i]`` is the surprise class of constructed prior i; ``bounds``
    holds the (upper, lower) open interval per class (same normalization as
    the weights); ``cross_max`` is the largest mass a conditional belief puts
    on an event of a deeper class (0 for one class), which the returned
    threshold must not fall below.  The dominance pairs, ``edges``, are not
    stored: the weights need only the postorder, so they are listed on read.
    """

    ht: HTRepresentation
    eps: Fraction
    class_of: tuple[int, ...]
    bounds: tuple[tuple[Fraction, Fraction], ...]
    cross_max: Fraction

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Dominance pairs (winner, loser) by prior index, listed on each read.

        Within a class, b_i dominates b_j when s_j is a proper subset of s_i.
        Winners come in canonical order of their supports, and so do each
        winner's losers.  Walking the submasks of every row is O(3^n).
        """
        classes: dict[int, dict[int, int]] = {}  # class -> support -> prior index
        for i, (k, prior) in enumerate(zip(self.class_of, self.ht.priors)):
            classes.setdefault(k, {})[prior.support_mask] = i
        edges: list[tuple[int, int]] = []
        for index in classes.values():  # the largest row is the class's support
            row = [mask for mask in lex_submasks(max(index)) if mask in index]
            position = {mask: j for j, mask in enumerate(row)}
            for s_i in row:
                losers = []
                sub = (s_i - 1) & s_i
                while sub:  # proper nonempty submasks of s_i: 2^|s_i| steps, 3^n per row
                    j = position.get(sub)
                    if j is not None:
                        losers.append(j)
                    sub = (sub - 1) & s_i
                edges += [(index[s_i], index[row[j]]) for j in sorted(losers)]
        return tuple(edges)


def eps_os_construction(os: OSRepresentation, eps: Fraction | int) -> EpsOsConstruction:
    eps = as_threshold(eps)
    if not os.is_canonical:
        raise ValidationError("hierarchy priors must have pairwise disjoint supports")
    if not os.covers_space:
        raise IncompleteCoverage("hierarchy supports must jointly cover the space")
    space = os.space
    priors = os.priors
    space.canonical_masks()  # raises TooManyStates past the power-set cap

    # Supports are disjoint and cover the space, so an event splits into one
    # submask per support, and its class is the first prior whose submask
    # clears the threshold.  Every part may be empty (mass 0, below it) and
    # every support clears it (mass 1 > eps), so class k's conditionals are
    # BU(prior_k, t) for each submask t of support k above the threshold
    # (the rows), and the parts class-k events leave in a shallower support
    # j are exactly the submasks of support j at or below it.
    #
    # Within-class dominance: b_i dominates b_j when b_j is certain of b_i's
    # support, i.e. s_j is a subset of s_i.  Otherwise b_j's mass on s_i is
    # num(s_i & s_j) / num(s_j) < 1, and the gap limit is the largest such.
    # Rows are up-closed, so row s_j's largest such mass drops its lightest
    # droppable state x (support - {x} is a row); the support holds every
    # droppable state and has the most mass, so it attains the maximum.
    #
    # Within a class a dominating belief comes first: s_j a proper subset of
    # s_i puts row i before row j.  Prefix-tree postorder does that, and a
    # topological sort taking the canonically first ready row also gives it.
    ed = eps.denominator
    last = len(priors) - 1
    sizes: list[int] = []  # class k: number of conditional beliefs
    gaps: list[tuple[int, int]] = []  # class k: gap limit as (numerator, denominator)
    flat_priors: list[Belief] = []
    class_of: list[int] = []
    top = (0, 1)  # cross-class maximum as (numerator, denominator)
    for k, prior in enumerate(priors):
        den, nums = prior.den, prior.nums
        support = prior.support_mask
        cut = eps.numerator * den
        table = {0: 0}  # numerator of every submask of the support, canonical order
        updates: dict[int, Belief] = {}  # conditional support (row) -> its belief
        below: list[int] = []  # nonempty submasks at or below the threshold
        for mask, num, posterior in posterior_walk((prior,), support, lambda mask, _: 0):
            table[mask] = num
            if num * ed > cut:
                updates[mask] = posterior
            else:
                below.append(mask)
        states = mask_indices(support)
        bits = [1 << x for x in states]
        droppable = [nums[x] for x in states if table[support ^ 1 << x] * ed > cut]
        gaps.append((den - min(droppable), den) if droppable else (0, 1))
        sizes.append(len(updates))
        post: list[int] = []  # submasks of the support, prefix-tree postorder
        for bit in reversed(bits):
            post = [*[bit | m for m in post], bit, *post]
        flat_priors += [updates[mask] for mask in post if mask in updates]
        class_of += [k] * len(updates)
        if k < last:
            # Cross-class pressure: a class-k belief on row s_b puts
            # num(q) / num(s_b) on a deeper event whose part q in support k
            # lies in s_b, so the maximum takes each q over its lightest row.
            # ``below`` is down-closed: descending masks meet each q's
            # one-state extensions first.
            lightest = {mask: table[mask] for mask in updates}
            for q in sorted(below, reverse=True):
                light = lightest[q] = min([lightest[q | bit] for bit in bits if not q & bit])
                if table[q] * top[1] > top[0] * light:
                    top = (table[q], light)
    cross_max = Fraction(*top)
    threshold = max(cross_max, eps)

    # Interval chain: all values live strictly above the threshold; each
    # class's lower bound also clears upper * (largest non-certain mass),
    # so dominated-but-uncertain beliefs can never outscore the class.
    # Values are integers over one denominator holding the threshold's, one
    # factor 4 per class (two halvings) and every gap limit's, so each step
    # divides exactly: by induction upper_k and floor are multiples of
    # 4^(P-k) times every gap_den_j, j >= k.  No bound reaches floor:
    # floor < common, as eps < 1 (``as_threshold``) and cross_max < 1 (each
    # q in ``below`` misses states of positive mass in every row holding
    # it); and gap_num < gap_den gives max(floor, upper * gap) < upper, so
    # floor < lower_k < upper_k and floor < upper_(k+1).
    common = threshold.denominator * 4 ** len(priors)
    for _, gap_den in gaps:
        common *= gap_den
    floor = threshold.numerator * (common // threshold.denominator)
    chain: list[tuple[int, int]] = []
    upper = common
    for gap_num, gap_den in gaps:
        lower = (max(floor, upper * gap_num // gap_den) + upper) // 2
        chain.append((upper, lower))
        upper = (floor + lower) // 2

    # Weights spaced evenly inside each interval, as integer numerators over
    # one denominator that clears every bound and every (class size + 1).
    scale = lcm(*[common // gcd(v, common) for pair in chain for v in pair])
    scale *= lcm(*[size + 1 for size in sizes])
    ends = [tuple([v * scale // common for v in pair]) for pair in chain]
    raw: list[int] = []
    for (hi, lo), size in zip(ends, sizes):
        step = (hi - lo) // (size + 1)
        raw += [hi - step * pos for pos in range(1, size + 1)]

    total = sum(raw)
    scaled_bounds = tuple((Fraction(hi, total), Fraction(lo, total)) for hi, lo in ends)
    ht = object.__new__(HTRepresentation)._init(
        space, tuple(flat_priors), raw, total, threshold
    )
    return EpsOsConstruction(
        ht=ht,
        eps=eps,
        class_of=tuple(class_of),
        bounds=scaled_bounds,
        cross_max=cross_max,
    )


def eps_os_to_ht(os: OSRepresentation, eps: Fraction | int) -> HTRepresentation:
    """Representation agreeing with the thresholded update wherever defined."""
    return eps_os_construction(os, eps).ht
