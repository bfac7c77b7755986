"""Preference families over an ordered hierarchy, and axiom checks.

A family pairs the hierarchy with one utility per surprise order.  Ranking
given an event is expected utility under the event's conditional belief,
evaluated with the utility of the event's order.

The checks here verify axioms as properties of a representation, not on
raw choice data.  Dynamic consistency is checked by composing acts so they
agree off the subevent; consequentialism by composing pairs so they agree
on the event; surprise-independent risk attitude by fitting an affine map
from the base utility and verifying it pointwise.  Constant-act agreement
is decided by the same fit over every lottery on the shared outcomes: by
vNM uniqueness the orders rank all lotteries alike iff the fit holds with
a positive scale (or both utilities are constant there).  Every decision
runs on the integer numerators of beliefs and utilities; Fractions appear
only where a report shows them: fitted coefficients and witness lotteries.

Consequentialism and conditional consistency are decided exactly over
every act that maps each state to a mixture of the first two shared
outcomes x and y, at any rational probability.  Such an act is ranked by
b(s) * (u(y) - u(x)) per state, so each axiom reduces to an O(n) integer
test on those vectors and a pass is a proof on that domain.  Only a fail
looks at the deterministic act sample (the first two outcomes on a fixed
probability grid, plus single-state bets), so its first witness is the
one reported; where the sample holds none, a witness is built from the
vectors.  Conditional consistency ranks that sample on the same vectors,
so a fail costs one dot product per sampled act, whatever the family.

Checks take any family-shaped object with ``space``, ``belief_given`` and
``utility_given``; that is what lets tests feed distorted families through
the same code path and watch them fail.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .core import (
    Act,
    Belief,
    CheckResult,
    Event,
    Lottery,
    Preference,
    StateSpace,
    UtilityFunction,
    bayes_update,
    compare_values,
    compose_act,
    seu_value,
)
from .errors import (
    EmptyEvent,
    InfeasibleSubevent,
    DegenerateBase,
    SpaceMismatch,
    ValidationError,
)
from .ordered_surprises import OSRepresentation, surprise_order

GRID_PROBABILITIES = (
    Fraction(0),
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(3, 4),
    Fraction(1),
)


class PreferenceFamily:
    """An ordered hierarchy plus one non-constant utility per order."""

    __slots__ = ("os", "utilities", "_given", "_shared")

    def __init__(
        self,
        os: OSRepresentation,
        utilities: Mapping[int, UtilityFunction] | Sequence[UtilityFunction],
    ):
        if isinstance(utilities, Mapping):
            try:
                ordered = tuple(utilities[k] for k in range(len(os.priors)))
            except KeyError as missing:
                raise ValidationError(
                    f"no utility for surprise order {missing.args[0]}"
                ) from None
            if len(utilities) != len(os.priors):
                raise ValidationError("utilities keyed outside the hierarchy's orders")
        else:
            ordered = tuple(utilities)
            if len(ordered) != len(os.priors):
                raise ValidationError(
                    f"need one utility per order, got {len(ordered)} "
                    f"for {len(os.priors)} priors"
                )
        for k, u in enumerate(ordered):
            if len(set(u.nums.values())) < 2:
                raise ValidationError(f"utility for order {k} is constant")
        self.os = os
        self.utilities = ordered
        shared = set(ordered[0].outcomes).intersection(*[u.outcomes for u in ordered[1:]])
        self._shared = tuple(sorted(shared))
        # (order, belief) keyed by the event, whose equality includes the
        # space, so an event over another space meets the SpaceMismatch check
        self._given: dict[Event, tuple[int, Belief]] = {}

    @property
    def space(self) -> StateSpace:
        return self.os.space

    def _lookup(self, e: Event) -> tuple[int, Belief]:
        given = self._given.get(e)
        if given is None:
            order = surprise_order(self.os, e)
            given = self._given[e] = (order, bayes_update(self.os.priors[order], e))
        return given

    def belief_given(self, e: Event) -> Belief:
        return self._lookup(e)[1]

    def utility_given(self, e: Event) -> UtilityFunction:
        return self.utilities[self._lookup(e)[0]]

    def shared_outcomes(self) -> tuple[str, ...]:
        return self._shared

    def __repr__(self) -> str:
        return f"PreferenceFamily(<{len(self.utilities)} orders>)"


def os_prefer(fam, e: Event, f: Act, g: Act) -> Preference:
    """Rank two acts given an event, through the family's own belief map."""
    belief = fam.belief_given(e)
    u = fam.utility_given(e)
    return compare_values(seu_value(u, belief, f), seu_value(u, belief, g))


def lottery_grid(
    outcomes: Sequence[str],
    probabilities: Sequence[Fraction] = GRID_PROBABILITIES,
) -> tuple[Lottery, ...]:
    """Mixtures of the first two distinct outcomes along a probability grid."""
    x, y = _mixed_outcomes(outcomes)
    return tuple(Lottery({x: 1 - p, y: p}) for p in probabilities)


def _mixed_outcomes(outcomes: Sequence[str]) -> tuple[str, str]:
    """The first two distinct outcomes, x and y, that every sampled act mixes."""
    distinct = list(dict.fromkeys(outcomes))
    if len(distinct) < 2:
        raise ValidationError("need at least two distinct outcomes to build lotteries")
    return distinct[0], distinct[1]


def act_grid(space: StateSpace, outcomes: Sequence[str], max_bets: int = 6) -> tuple[Act, ...]:
    """Constant acts on a coarse lottery grid plus single-state bets."""
    lotteries = lottery_grid(outcomes, (Fraction(0), Fraction(1, 2), Fraction(1)))
    acts = [Act.constant(space, lot) for lot in lotteries]
    low, high = lotteries[0], lotteries[-1]
    for label in space.states[:max_bets]:
        acts.append(
            Act(space, {s: (high if s == label else low) for s in space.states})
        )
    return tuple(acts)


def default_act_pairs(
    space: StateSpace, outcomes: Sequence[str], limit: int = 60
) -> tuple[tuple[Act, Act], ...]:
    """Ordered distinct pairs from the act grid, truncated deterministically."""
    grid = act_grid(space, outcomes)
    pairs = []
    for f in grid:
        for g in grid:
            if f != g:
                pairs.append((f, g))
                if len(pairs) == limit:
                    return tuple(pairs)
    return tuple(pairs)


def default_act_triples(
    space: StateSpace, outcomes: Sequence[str], limit: int = 60
) -> tuple[tuple[Act, Act, Act], ...]:
    """(f, g, h) samples: distinct pair plus a constant-act padding."""
    grid = act_grid(space, outcomes)
    paddings = grid[:3]
    triples = []
    for f in grid:
        for g in grid:
            if f == g:
                continue
            for h in paddings:
                triples.append((f, g, h))
                if len(triples) == limit:
                    return tuple(triples)
    return tuple(triples)


def check_consequentialism(
    fam,
    e: Event,
    sample_pairs: Iterable[tuple[Act, Act]] | None = None,
) -> CheckResult:
    """Acts forced to agree on the event must rank indifferent given it.

    Each pair (f, g) is turned into f versus "f on e, g elsewhere".  The
    witness is (f, composed act, verdict) for the first strict ranking.

    Without ``sample_pairs`` the axiom is decided over every x/y-mixture
    act: it holds iff u_e(y) = u_e(x) or the belief given ``e`` puts no
    mass off ``e``.  A fail runs the default sample, whose first pair
    (constant x against x on ``e`` and the even mixture off it) already
    ranks strictly then.  An explicit sample keeps its sampled meaning.
    """
    if not e:
        raise EmptyEvent("cannot condition on the empty event")
    belief = u = None
    if sample_pairs is None:
        outcomes = fam.shared_outcomes()
        x, y = _mixed_outcomes(outcomes)
        if e.space != fam.space:
            raise SpaceMismatch("event belongs to a different state space")
        u = fam.utility_given(e)
        if u.num(x) == u.num(y) or not (belief := fam.belief_given(e)).support_mask & ~e.mask:
            return CheckResult(True)
        sample_pairs = default_act_pairs(fam.space, outcomes)
    for f, g in sample_pairs:
        if u is None:  # the family is asked once, and not for an empty sample
            belief, u = fam.belief_given(e), fam.utility_given(e)
        forced = compose_act(f, e, g)
        verdict = compare_values(seu_value(u, belief, f), seu_value(u, belief, forced))
        if verdict is not Preference.INDIFFERENT:
            return CheckResult(False, (f, forced, verdict))
    return CheckResult(True)


def check_conditional_consistency(
    fam,
    e: Event,
    a: Event,
    sample_triples: Iterable[tuple[Act, Act, Act]] | None = None,
) -> CheckResult:
    """Rankings through a feasible subevent agree with rankings on it.

    For every (f, g, h), "f on a, h elsewhere" versus the same for g under
    the ``e``-conditional must match f versus g under the ``a``-conditional.
    The witness is (f, g, h, verdict under e, verdict under a) for the
    first disagreement.

    Without ``sample_triples`` the axiom is decided over every x/y-mixture
    act.  With v_e(s) = b_e(s) * (u_e(y) - u_e(x)) on ``a`` and zero off it,
    and v_a(s) = b_a(s) * (u_a(y) - u_a(x)) on every state, it holds iff
    v_e = c * v_a for some c > 0, or both vanish.  A fail reports the
    default sample's first witness, ranked on those vectors, or else one
    built from them: a single-state bet where the signs of v_e and v_a
    differ, otherwise two bets that the ``e``-conditional ranks indifferent
    and the ``a``-conditional does not.  An explicit sample keeps its
    sampled meaning.

    Raises InfeasibleSubevent when ``a`` carries no mass given ``e``; the
    axiom says nothing there and silence would be misleading.
    """
    if a.space != e.space:
        raise SpaceMismatch("events built over different state spaces")
    if not a:
        raise EmptyEvent("the subevent is empty")
    if not a.issubset(e):
        raise ValidationError("the subevent must be contained in the conditioning event")
    belief = fam.belief_given(e)
    if not belief.mask_num(a.mask):
        raise InfeasibleSubevent(
            "{" + ",".join(a.members) + "} is null given {" + ",".join(e.members) + "}"
        )
    if sample_triples is not None:
        return _sampled_consistency(fam, e, a, sample_triples, belief)
    x, y = _mixed_outcomes(fam.shared_outcomes())
    v_e = _weighted_gains(belief, fam.utility_given(e), a.mask, x, y)
    v_a = _weighted_gains(fam.belief_given(a), fam.utility_given(a), -1, x, y)
    gap = _consistency_gap(v_e, v_a)
    if gap is None:
        return CheckResult(True)
    return _first_inconsistency(fam, x, y, v_e, v_a, gap)


def _sampled_consistency(fam, e: Event, a: Event, triples, belief: Belief) -> CheckResult:
    composed: dict[tuple[Act, Act], Act] = {}
    u_e = None
    for f, g, h in triples:
        if u_e is None:  # the family is asked once, and not for an empty sample
            u_e, b_a, u_a = fam.utility_given(e), fam.belief_given(a), fam.utility_given(a)
        for act in (f, g):
            if (act, h) not in composed:
                composed[act, h] = compose_act(act, a, h)
        left_f, left_g = composed[f, h], composed[g, h]
        under_e = compare_values(seu_value(u_e, belief, left_f), seu_value(u_e, belief, left_g))
        under_a = compare_values(seu_value(u_a, b_a, f), seu_value(u_a, b_a, g))
        if under_e is not under_a:
            return CheckResult(False, (f, g, h, under_e, under_a))
    return CheckResult(True)


def _weighted_gains(belief: Belief, u: UtilityFunction, mask: int, x: str, y: str) -> list[int]:
    """b(s) * (u(y) - u(x)) for s in ``mask`` (every s for -1), zero elsewhere.

    Integer numerators: the belief's and the utility's denominators are
    positive and shared by every entry, so they drop out of every sign and
    cross-multiplication taken on the vector.
    """
    gain = u.num(y) - u.num(x)
    return [num * gain if mask >> i & 1 else 0 for i, num in enumerate(belief.nums)]


def _sign(value: int) -> int:
    return (value > 0) - (value < 0)


def _consistency_gap(v_e: list[int], v_a: list[int]) -> dict[int, Fraction] | None:
    """None when v_e = c * v_a with c > 0 or both vanish; else a probability gap.

    The gap maps state indices to f's minus g's probability of y, in
    [-1, 1], for a witness pair (f, g) whose rankings disagree.  The first
    state where the signs differ (zero counting as a sign) gets a bet of
    its own.  With every sign equal, take the first state r with
    v_a(r) != 0 and the first s with v_e(r) * v_a(s) != v_e(s) * v_a(r);
    the gap (v_e(s), -v_e(r)) on (r, s) is orthogonal to v_e but not to v_a.
    """
    ref = None
    for s, (p, q) in enumerate(zip(v_e, v_a)):
        if _sign(p) != _sign(q):
            return {s: Fraction(1)}
        if q and ref is None:
            ref = s
    if ref is None:
        return None
    for s, (p, q) in enumerate(zip(v_e, v_a)):
        if v_e[ref] * q != p * v_a[ref]:
            scale = max(abs(p), abs(v_e[ref]))
            return {ref: Fraction(p, scale), s: Fraction(-v_e[ref], scale)}
    return None


def _first_inconsistency(
    fam, x: str, y: str, v_e: list[int], v_a: list[int], gap: dict[int, Fraction]
) -> CheckResult:
    """The default sample's first disagreement, else the pair built from ``gap``.

    Every act here maps each state to a mixture of x and y, and h cancels
    from "f on a, h elsewhere" versus "g on a, h elsewhere" since v_e is
    zero off the subevent.  So both verdicts are the signs of v_e and v_a dotted
    with f's and g's probabilities of y: the same verdicts ``os_prefer``
    gives, scaled by positive denominators, at one dot product per act
    instead of two conditional beliefs and four SEU values per triple.
    """
    scores: dict[Act, tuple[Fraction, Fraction]] = {}

    def score(act: Act) -> tuple[Fraction, Fraction]:
        known = scores.get(act)
        if known is None:
            p_y = [lottery.probability(y) for lottery in act.assignment]
            known = scores[act] = (
                sum([v * p for v, p in zip(v_e, p_y) if v]),
                sum([v * p for v, p in zip(v_a, p_y) if v]),
            )
        return known

    def ranked(f: Act, g: Act) -> tuple[Preference, Preference]:
        (e_f, a_f), (e_g, a_g) = score(f), score(g)
        return compare_values(e_f, e_g), compare_values(a_f, a_g)

    for f, g, h in default_act_triples(fam.space, fam.shared_outcomes()):
        under_e, under_a = ranked(f, g)
        if under_e is not under_a:
            return CheckResult(False, (f, g, h, under_e, under_a))
    space = fam.space

    def act(sign: int) -> Act:
        lotteries = {}
        for i, label in enumerate(space.states):
            p = max(sign * gap.get(i, 0), 0)
            lotteries[label] = Lottery({x: 1 - p, y: p})
        return Act(space, lotteries)

    f, g = act(1), act(-1)
    return CheckResult(False, (f, g, Act.constant(space, Lottery({x: 1})), *ranked(f, g)))


def default_event_pairs(os: OSRepresentation) -> tuple[tuple[Event, Event], ...]:
    """Feasible (event, subevent) pairs spanning every surprise order."""
    space = os.space
    pairs = [(space.full_event, Event(space, os.priors[0].support_mask))]
    for prior in os.priors:
        support = Event(space, prior.support_mask)
        first = Event(space, support.mask & -support.mask)
        pairs.append((support, first))
        if first != support:
            pairs.append((support, support))
    return tuple(pairs)


class RiskIndependenceReport(NamedTuple):
    """Whether every order's utility is a positive affine map of order 0's.

    ``coefficients[k]`` holds (scale, shift) with u_k = scale * u_0 + shift
    on the shared outcome table; populated only when the relation holds.
    On failure ``witness_order`` and ``witness_outcome`` locate the first
    point off the fitted line (or the first non-positive scale).
    """

    holds: bool
    coefficients: dict[int, tuple[Fraction, Fraction]] | None = None
    witness_order: int | None = None
    witness_outcome: str | None = None

    def __bool__(self) -> bool:
        return self.holds


def check_risk_independence(fam) -> RiskIndependenceReport:
    """Fit each utility against the base one and verify pointwise.

    The affine coefficients are pinned by the first two shared outcomes
    where the base utility differs; every remaining shared outcome must
    land on that line and the scale must be positive (``_affine_break``).
    Raises DegenerateBase when the base utility is constant on the shared
    table, since then no fit is determined.
    """
    outcomes = fam.shared_outcomes()
    base = fam.utilities[0]
    anchor = _anchor(base, outcomes)
    if anchor is None:
        raise DegenerateBase("base utility is constant on the shared outcome table")
    broken = _affine_break(fam.utilities, outcomes, anchor)
    if broken is not None:
        return RiskIndependenceReport(False, witness_order=broken[0], witness_outcome=broken[1])
    x, y = anchor
    b_x, b_y = base.num(x), base.num(y)
    coefficients = {
        k: (
            Fraction((u.num(x) - u.num(y)) * base.den, (b_x - b_y) * u.den),
            Fraction(u.num(y) * b_x - u.num(x) * b_y, (b_x - b_y) * u.den),
        )
        for k, u in enumerate(fam.utilities)
    }
    return RiskIndependenceReport(True, coefficients=coefficients)


def _anchor(u: UtilityFunction, outcomes: Sequence[str]) -> tuple[str, str] | None:
    """The first outcome and the first later one that ``u`` values differently."""
    for candidate in outcomes[1:]:
        if u.num(candidate) != u.num(outcomes[0]):
            return outcomes[0], candidate
    return None


def _affine_break(utilities: Sequence[UtilityFunction], outcomes, anchor) -> tuple[int, str] | None:
    """The first order that is no positive affine image of order 0, and where.

    On numerators b of u_0 and c of u_k and the anchor (x, y) of u_0, u_k is
    one iff (c_x - c_y)(b_x - b_y) > 0 (else the break is at y) and
    (c_o - c_x)(b_x - b_y) = (c_x - c_y)(b_o - b_x) for every o (else at the
    first o that fails).  Without an anchor u_0 is constant, and the first
    order that is not breaks at its own anchor's second outcome.
    """
    base = utilities[0]
    for k, u in enumerate(utilities[1:], start=1):
        if anchor is None:
            spread = _anchor(u, outcomes)
            if spread is not None:
                return k, spread[1]
            continue
        x, y = anchor
        b_x, c_x = base.num(x), u.num(x)
        b_gap, c_gap = b_x - base.num(y), c_x - u.num(y)
        if b_gap * c_gap <= 0:
            return k, y
        for o in outcomes:
            if (u.num(o) - c_x) * b_gap != c_gap * (base.num(o) - b_x):
                return k, o
    return None


def check_constant_act_agreement(fam, lotteries: Sequence[Lottery] | None = None) -> CheckResult:
    """Constant-act rankings must not depend on the surprise order.

    Compares every lottery pair under each order's utility against order
    0.  The witness is (lottery, lottery, order, verdict there, verdict at
    order 0) for the first flip.

    Without ``lotteries`` the axiom is decided over every lottery on the
    shared outcomes: by vNM uniqueness the orders agree there iff each u_k
    is a positive affine image of u_0, or both are constant
    (``_affine_break``), so a pass is a proof.  A fail reports the first
    flip of the default grid (mixtures of the first two shared outcomes),
    or else a pair built at the break: two degenerate lotteries, or the
    mixture of the lowest and highest of x, y, o that u_0 values like the
    middle one, against the middle one, which order k ranks strictly since
    the three points (u_0, u_k) are not collinear.  An explicit sample keeps
    its sampled meaning.
    """
    base = fam.utilities[0]
    built = ()
    if lotteries is None:
        outcomes = fam.shared_outcomes()
        _mixed_outcomes(outcomes)  # two distinct outcomes, as the grid needs
        anchor = _anchor(base, outcomes)
        broken = _affine_break(fam.utilities, outcomes, anchor)
        if broken is None:
            return CheckResult(True)
        lotteries = lottery_grid(outcomes)
        o = broken[1]
        x, y = anchor or (outcomes[0], o)
        if o == y:
            built = ((Lottery({x: 1}), Lottery({y: 1})),)
        else:
            lo, mid, hi = sorted((x, y, o), key=base.num)
            alpha = Fraction(base.num(mid) - base.num(lo), base.num(hi) - base.num(lo))
            built = ((Lottery({lo: 1 - alpha, hi: alpha}), Lottery({mid: 1})),)
    pairs = [(p, q) for i, p in enumerate(lotteries) for q in lotteries[i + 1 :]]
    # orders before the break agree with order 0 on every lottery, and the
    # built pair flips at the break, so its first flip is the break's order
    for p, q in [*pairs, *built]:
        bench = compare_values(base.expected(p), base.expected(q))
        for k, u in enumerate(fam.utilities[1:], start=1):
            verdict = compare_values(u.expected(p), u.expected(q))
            if verdict is not bench:
                return CheckResult(False, (p, q, k, verdict, bench))
    return CheckResult(True)
