"""Likelihood-test selection among weighted priors, and two constructions.

A representation here is a prior list, a strictly top-heavy second-order
weight over it, and a threshold in [0, 1).  Conditioning Bayes-updates the
top prior when its mass on the event clears the threshold; otherwise the
prior maximizing mass-times-weight is selected, and the argmax must be
strict.

A representation (``representations.HTRepresentation``) stores its weights
like a belief's masses: reduced integer numerators w_j over one total,
read as Fractions (``rho``) on first read.
The threshold test is ``ordered_surprises.min_order`` on the top prior: its
numerator on the event against its floor, the largest numerator at or
below the threshold.
``ht_select`` takes the argmax from the Fraction scores its trace reports.
``ht_rule`` scores in integers: prior j's score on a mask is its numerator
there times w_j * (L // den_j), L the lcm of the priors' denominators, so
every score is the true one times L * total.  An event the top prior
rejects is q | r: q a light trace (a submask of the top support s of top
mass at most the threshold, only the empty one at 0), r a submask of the
rest t.  The light traces are ``ordered_surprises.light_traces`` of the
top, listed in canonical order by a walk that meets no more heavy
traces than |s| per light one.  A prior inside s scores by q alone and one inside t by r alone,
so each side keeps its best score, tie flag and winner's update once per
q or per r, and the event takes the larger side's (a prior meeting both,
none when supports are disjoint, is scored per event).  A winner's update
is read from, or kept on, its prior's map by trace (``core.kept_update``),
so it is built at most once per (prior, trace), and not at all on a
prior a tabulator already walked.  These events are
the exceptions to the top prior's block, listed a row at a time from the
two sides at C speed: one column per q and per r, not per event.  A rule
that is Bayesian on every event is the block alone.

On pairwise-disjoint supports ``ht_rule`` first asks whether the rule is
an OS rule, in O(P log P + P * n) integer steps (Ortoleva 2012: OS is a
special case of hypothesis testing).  Put the top prior first and the
others by decreasing weight, and let m_k be prior k's least positive
mass.  If rho_k * m_k > rho_j for every k before j in that order (for the
top only when m_0 is at or below the threshold), the rule is the OS rule
of that order.  Proof: an event E meets the supports disjointly, and a
prior scores 0 on an event it misses.  If E meets the top support with
top mass above the threshold, the top is Bayes-updated, as in the OS
rule.  Otherwise let k be the first prior of the order that meets E.  It
scores at least rho_k * m_k, and every later prior j scores at most
rho_j < rho_k * m_k, so k wins strictly and E's entry is k's update, the
OS entry.  The top's own bound is needed only for events of top mass in
(0, threshold], which exist iff m_0 is at or below the threshold.
Weights fall along the order, so the consecutive pairs imply the rest;
two equal non-top weights fail, as that would need m_k > 1, so a tie
always takes the table path.  The rule is then the order's blocks, with
no exception and no walk over the submasks of the rest.

``os_to_ht`` turns any ordered hierarchy that covers the space into such a
representation whose rule is identical; supports may overlap.  Weight k+1
is weight k times m_k / 2, m_k being prior k's least positive mass.  An
event that first becomes feasible at order k misses the supports of priors
0..k-1, which score 0 on it, and meets prior k's support, so its score
there is at least rho_k * m_k = 2 * rho_(k+1).  Every deeper prior j
scores at most rho_j <= rho_(k+1), so order k wins strictly.

``eps_os_construction`` covers the thresholded variant: its ``ht`` is the
representation.  Its prior list is the set of distinct conditional beliefs
the thresholded update can ever produce.  Weights are assigned inside a
descending chain of disjoint open intervals, one interval per surprise
class, spaced by midpoint bisection of the gap above the returned
threshold; within a class, beliefs are spaced evenly in prefix-tree
postorder of their supports, which puts each belief before every belief
certain of its representing events (a smaller support).  The returned
threshold is the largest conditional mass that must fall on the reject
side (never below the input threshold); for an input threshold of zero it
is exactly 0.

The construction runs on integers too.  A class-k conditional's support is
the submask of support k it was conditioned on (a row), so dominance is the
support-subset test, and the order is prefix-tree postorder of the
support's submasks, kept to the rows.  The other submasks are the light
traces, at or below the prior's floor, which
``ordered_surprises.light_traces`` lists with their numerators, as it
does for ``surprise_partition`` and ``ht_rule``.  The prior's kept map
(``core.kept_traces``), read in place, gives the conditional belief on
every proper submask of its support, and an entry is a row exactly when
it is not light; the support is a row, the prior itself.  Every mass
compared is a ratio of two numerators, by integer cross-multiplication.
Two quantities have closed forms.  A class's gap limit is (den - m) / den
with m the least positive numerator (``core.least_num``).  The full
support attains it when the lightest state is droppable (its removal
leaves a row).  A state whose
removal leaves at most the threshold is heavier than every droppable
state, so when the lightest is not droppable none is; then the limit is
at most the threshold and never beats the interval chain's bottom.  The
cross-class maximum is the largest num(q) / lightest(q) over the light
traces q, lightest(q) being the least numerator of a row holding q.  One
pass over the light traces in descending mask order reads it off q's
one-state extensions: a light one's lightest, already read, or a row's
own numerator, since rows are up-closed.  That is O(|s|) per light
trace, at most O(2^|s| * |s|) per class.
The interval chain is integers over one denominator (the threshold's, 4
per class and each gap limit's), so every halving divides exactly, and the
weights are integer numerators over the lcm of the reduced bounds'
denominators times the lcm of (class size + 1), so the even spacing
divides exactly.  They go to the representation as integers
(``HTRepresentation.from_weights``, as in ``os_to_ht``); Fractions are
built only for ``cross_max`` and ``bounds``.  So the construction is
the per-support walk plus closed forms.  The dominance pairs, ``edges``,
are O(3^n) and listed only when read, by walking the submasks of each row.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import chain, compress, repeat
from math import gcd, lcm
from operator import add, getitem
from typing import Iterator, NamedTuple, Sequence

from . import ordered_surprises, rules
from .core import (
    Belief,
    Event,
    ZERO,
    as_threshold,
    bayes_update,
    kept_traces,
    kept_update,
    least_num,
    lex_submasks,
    mask_indices,
)
from .errors import (
    AmbiguousArgmax,
    EmptyEvent,
    IncompleteCoverage,
    SpaceMismatch,
    ValidationError,
)
from .representations import HTRepresentation, OSRepresentation


class SelectionBranch(Enum):
    BAYESIAN = "bayesian"
    ARGMAX = "argmax"


class SelectionTrace(NamedTuple):
    """How a conditioning event was resolved: branch, all scores, winner."""

    event: Event
    branch: SelectionBranch
    scores: tuple[Fraction, ...]
    chosen: int


def _argmax(ht: HTRepresentation, mask: int, scores: Sequence[int | Fraction]) -> int:
    """Index of the strict maximum of an argmax event's scores."""
    # best > 0: a representation's weights are positive and its supports
    # cover the space, so some prior puts positive mass on the nonempty event
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
    if ordered_surprises.min_order(ht.priors[:1], e.mask, ht.eps) == 0:
        branch, chosen = SelectionBranch.BAYESIAN, 0
    else:
        branch, chosen = SelectionBranch.ARGMAX, _argmax(ht, e.mask, scores)
    trace = SelectionTrace(event=e, branch=branch, scores=scores, chosen=chosen)
    return trace, bayes_update(ht.priors[chosen], e)


def ht_rule(ht: HTRepresentation) -> rules.UpdatingRule:
    """Tabulate the induced rule on every nonempty event.

    Propagates AmbiguousArgmax (with the canonically first tied event and
    every tied prior) if any event has a tied argmax, since the rule is
    undefined there.  When ``_weight_order`` finds the order whose OS rule
    this is (disjoint supports, each weight below the one before it times
    that prior's least mass), the rule is that order's blocks alone, and
    no event is scored.  Otherwise it is the top prior's block, with the
    events that prior rejects as exceptions, and no 2^n table;
    ``_rejected`` scores each side of the top support once.
    """
    order = _weight_order(ht)
    if order is not None:
        return rules.tabulate_traces(ht.space, [ht.priors[j] for j in order])
    return rules.tabulate_traces(ht.space, ht.priors[:1], chain.from_iterable(_rejected(ht)))


def _weight_order(ht: HTRepresentation) -> list[int] | None:
    """The top prior's index, then the others' by decreasing weight, if the rule is their OS rule.

    None unless the supports are pairwise disjoint and w_k * m_k > w_j * den_k
    for each prior k and the next one j in the order, m_k / den_k being
    k's least positive mass; the top's pair counts only when m_0 is at or
    below the threshold.  Weights decrease along the order, so the
    consecutive pairs bound every later prior.
    """
    priors, weights, eps = ht.priors, ht.weights, ht.eps
    union = 0
    for prior in priors:
        if union & prior.support_mask:
            return None
        union |= prior.support_mask
    order = [0, *sorted(range(1, len(priors)), key=weights.__getitem__, reverse=True)]
    pairs = zip(order, order[1:])
    top = priors[0]
    if least_num(top) > eps.numerator * top.den // eps.denominator:
        next(pairs, None)  # every event meeting the top support clears the threshold
    for k, j in pairs:
        prior = priors[k]
        if weights[k] * least_num(prior) <= weights[j] * prior.den:
            return None
    return order


def _rejected(ht: HTRepresentation) -> Iterator[Iterator[tuple[int, Belief]]]:
    """(mask, selected update) for each event q | r the top prior rejects, a row at a time.

    Each mask of the shorter side (``_side``) yields a row over the longer
    one.  A tie is an equal pair of side maxima or a tie inside the larger
    side.  Rows come lazily, after the top prior's block, and the
    canonically first tied event raises after the last.
    """
    priors, eps = ht.priors, ht.eps
    top = priors[0]
    s = top.support_mask
    t = (1 << len(ht.space)) - 1 ^ s
    light, _ = ordered_surprises.light_traces(top, eps.numerator * top.den // eps.denominator)
    if not t and len(light) == 1:
        return
    common = lcm(*[prior.den for prior in priors])
    factors = [w * (common // prior.den) for prior, w in zip(priors, ht.weights)]
    rs = lex_submasks(t)
    short, long = _side(ht, light, factors, t), _side(ht, rs, factors, s)
    if len(light) > len(rs):
        short, long = long, short
    both = [j for j, p in enumerate(priors) if p.support_mask & s and p.support_mask & t]
    ties: list[int] = []
    for x, a, ta, pa in zip(*short):
        ys, bs, tbs, pbs = long if x else (long[0][1:], long[1][1:], long[2][1:], long[3][1:])
        if both:  # bs, tbs, pbs: the best of the long side's priors and those meeting both
            bs, tbs, pbs = list(bs), list(tbs), list(pbs)
            for i, e in enumerate(map(x.__or__, ys)):
                scores = [priors[j].mask_num(e) * factors[j] for j in both]
                high = max(scores)
                if high > bs[i]:
                    bs[i], tbs[i] = high, scores.count(high) > 1
                    pbs[i] = kept_update(priors[both[scores.index(high)]], e)
                elif high == bs[i]:
                    tbs[i] = True
        if not x:  # y alone: as the supports cover, a long-side prior or one meeting both wins
            ties += compress(ys, tbs)
            yield zip(ys, pbs)
            continue
        if ta or a in bs or max(compress(bs, tbs), default=0) > a:
            ties += [x | y for y, b, tb in zip(ys, bs, tbs) if a == b or (tb if b > a else ta)]
        yield zip(map(x.__or__, ys), map(getitem, zip(repeat(pa), pbs), map(a.__lt__, bs)))
    if ties:
        first = min(ties, key=mask_indices)
        _argmax(ht, first, [prior.mask_num(first) * f for prior, f in zip(priors, factors)])


def _side(
    ht: HTRepresentation, masks: Sequence[int], factors: list[int], away: int
) -> tuple[Sequence[int], list[int], list[bool], list[Belief | None]]:
    """``masks`` and, on each, the best score of the priors missing ``away``, a tie, the update.

    Each mask follows its prefix (less its last state) in canonical order
    from 0, so its scores are the prefix's plus that state's column.  The
    winner's update is kept on it by trace (``core.kept_update``), so it is
    built at most once per (prior, trace) and none is built where the
    prior holds it already; a mask no prior meets gets score 0 and none.
    """
    size, priors = len(masks), ht.priors
    chosen = [] if size == 1 else [
        (prior.nums, f, prior) for prior, f in zip(priors, factors) if not prior.support_mask & away
    ]
    if not chosen:
        return masks, [0] * size, [False] * size, [None] * size
    states = mask_indices((1 << len(ht.space)) - 1 ^ away)
    columns = {i: [nums[i] * f for nums, f, _ in chosen] for i in states}
    rows = {0: [0] * len(chosen)}
    maxima, tied, posteriors = [0], [False], [None]
    for mask in masks[1:]:
        state = mask.bit_length() - 1
        row = rows[mask] = list(map(add, rows[mask ^ 1 << state], columns[state]))
        best = max(row)
        maxima.append(best)
        tied.append(row.count(best) > 1)
        posteriors.append(kept_update(chosen[row.index(best)][2], mask) if best else None)
    return masks, maxima, tied, posteriors


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
        weights = [w * 2 * prior.den for w in weights] + [weights[-1] * least_num(prior)]
    return HTRepresentation.from_weights(os.space, os.priors, weights, sum(weights), ZERO)


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
    space.check_enumerable()

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
    # The limit takes the least positive numerator m, droppable or not: a
    # state whose removal leaves at most eps is heavier than every droppable
    # state, so m is droppable whenever some state is.  When none is, the
    # limit (den - m) / den is at most eps, and it loses to the interval
    # chain's bottom, which is at least eps.
    #
    # Within a class a dominating belief comes first: s_j a proper subset of
    # s_i puts row i before row j.  Prefix-tree postorder does that, and a
    # topological sort taking the canonically first ready row also gives it.
    last = len(priors) - 1
    sizes: list[int] = []  # class k: number of conditional beliefs
    gaps: list[tuple[int, int]] = []  # class k: gap limit as (numerator, denominator)
    flat_priors: list[Belief] = []
    class_of: list[int] = []
    top = (0, 1)  # cross-class maximum as (numerator, denominator)
    for k, prior in enumerate(priors):
        den = prior.den
        support = prior.support_mask
        floor = eps.numerator * den // eps.denominator  # the largest numerator at or below eps
        # the submasks at or below eps, the empty one first
        masks, nums = ordered_surprises.light_traces(prior, floor)
        updates = dict(kept_traces(prior))  # conditional support (row) -> its belief
        for q in masks[1:]:  # a light trace is not a row
            del updates[q]
        updates[support] = prior
        states = [(1 << i, x) for i, x in enumerate(prior.nums) if x]  # (bit, numerator)
        gaps.append((den - least_num(prior), den))
        sizes.append(len(updates))
        post: list[int] = []  # submasks of the support, prefix-tree postorder
        for bit, _ in reversed(states):
            post = [*[bit | m for m in post], bit, *post]
        flat_priors += [updates[mask] for mask in post if mask in updates]
        class_of += [k] * len(updates)
        if k < last:
            # Cross-class pressure: a class-k belief on row s_b puts
            # num(q) / num(s_b) on a deeper event whose part q in support k
            # lies in s_b, so the maximum takes each light q over the
            # least numerator of a row holding it.  That row holds a
            # one-state extension q | {i} of q, and the least for q | {i}
            # is its own numerator when that is above the floor (a row;
            # rows are up-closed), else the least kept for it: light
            # traces are down-closed, and descending masks meet q | {i}
            # before q.
            least: dict[int, int] = {}  # light trace -> least numerator of a row holding it
            for q, num in sorted(zip(masks, nums), reverse=True):
                lightest = least[q] = min([
                    y if (y := num + x) > floor else least[q | bit]
                    for bit, x in states if not q & bit
                ])
                if num * top[1] > top[0] * lightest:
                    top = (num, lightest)
    cross_max = Fraction(*top)
    threshold = max(cross_max, eps)

    # Interval chain: all values live strictly above the threshold (the
    # chain's bottom); each class's lower bound also clears upper * (largest
    # non-certain mass), so dominated-but-uncertain beliefs can never
    # outscore the class.  Values are integers over one denominator holding
    # the threshold's, one factor 4 per class (two halvings) and every gap
    # limit's, so each step divides exactly: by induction upper_k and bottom
    # are multiples of 4^(P-k) times every gap_den_j, j >= k.  No bound
    # reaches bottom: bottom < common, as eps < 1 (``as_threshold``) and
    # cross_max < 1 (each light q misses states of positive mass in every
    # row holding it); and gap_num < gap_den gives
    # max(bottom, upper * gap) < upper, so bottom < lower_k < upper_k and
    # bottom < upper_(k+1).
    common = threshold.denominator * 4 ** len(priors)
    for _, gap_den in gaps:
        common *= gap_den
    bottom = threshold.numerator * (common // threshold.denominator)
    chain: list[tuple[int, int]] = []
    upper = common
    for gap_num, gap_den in gaps:
        lower = (max(bottom, upper * gap_num // gap_den) + upper) // 2
        chain.append((upper, lower))
        upper = (bottom + lower) // 2

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
    ht = HTRepresentation.from_weights(space, tuple(flat_priors), raw, total, threshold)
    return EpsOsConstruction(
        ht=ht,
        eps=eps,
        class_of=tuple(class_of),
        bounds=scaled_bounds,
        cross_max=cross_max,
    )
