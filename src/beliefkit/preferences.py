"""Preference families over an ordered hierarchy, and axiom checks.

A family pairs the hierarchy with one utility per surprise order.  Ranking
given an event is expected utility under the event's conditional belief,
evaluated with the utility of the event's order.

The checks here verify axioms as properties of a representation, not on
raw choice data.  Each decides its axiom on the integer numerators of
beliefs and utilities, so a pass is a proof on the check's domain, and a
fail builds one witness in closed form, ranked on integers too.
Fractions appear only where a report shows them: fitted coefficients and
witness lotteries, one lottery per distinct probability.

- Consequentialism, over every act on the shared outcomes: it holds iff
  the event's utility is constant on them or its belief puts no mass off
  the event.
- Conditional (dynamic) consistency, over every act on the shared
  outcomes: it holds iff both utilities are constant on them, or the
  belief given the event is on the subevent a positive multiple of the
  belief given the subevent and the event's utility a positive affine
  image of the subevent's.  An O(n) integer test on the vectors
  b(s) * (u(y) - u(x)), for the first two shared outcomes x and y,
  decides most of it.
- Surprise-independent risk attitude, by fitting an affine map from the
  base utility and verifying it pointwise.
- Constant-act agreement, by the same fit over every lottery on the
  shared outcomes: by vNM uniqueness the orders rank all lotteries alike
  iff the fit holds with a positive scale (or both utilities are constant
  there).

Checks take any family-shaped object with ``space``, ``belief_given`` and
``utility_given``; that is what lets tests feed distorted families through
the same code path and watch them fail.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice
from typing import NamedTuple, Sequence

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


class PreferenceFamily:
    """An ordered hierarchy plus one non-constant utility per order, in order."""

    __slots__ = ("os", "utilities", "_given", "_shared")

    def __init__(self, os: OSRepresentation, utilities: Sequence[UtilityFunction]):
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


def _mixed_outcomes(outcomes: Sequence[str]) -> tuple[str, str]:
    """The first two distinct outcomes, x and y, that a witness mixes."""
    distinct = list(dict.fromkeys(outcomes))
    if len(distinct) < 2:
        raise ValidationError("need at least two distinct outcomes to build lotteries")
    return distinct[0], distinct[1]


def _xy_acts(space: StateSpace, x: str, y: str, den: int, *rows: Sequence[int]) -> list[Act]:
    """Per row, the act giving y with probability ``row[i] / den`` at state i, and x otherwise.

    The acts share one lottery per distinct probability.
    """
    lots = {
        k: Lottery({x: Fraction(den - k, den), y: Fraction(k, den)}) for k in set().union(*rows)
    }
    return [Act(space, dict(zip(space.states, [lots[k] for k in row]))) for row in rows]


def check_consequentialism(fam, e: Event) -> CheckResult:
    """Acts forced to agree on the event must rank indifferent given it.

    Decided over every act on the shared outcomes: f and "f on e, g
    elsewhere" differ in value given ``e`` by the belief's mass off ``e``
    times utility differences, so the axiom holds iff u_e is constant on
    the shared outcomes or the belief given ``e`` puts no mass off ``e``.
    A fail reports (f, "f on e, g elsewhere", verdict) for f constant at
    the first shared outcome x and g constant at the even mixture of x and
    the first shared outcome o that u_e values apart from x (y whenever
    u_e(y) != u_e(x)): SECOND when u_e(o) > u_e(x), else FIRST.
    """
    if not e:
        raise EmptyEvent("cannot condition on the empty event")
    outcomes = fam.shared_outcomes()
    x = _mixed_outcomes(outcomes)[0]
    space = fam.space
    if e.space != space:
        raise SpaceMismatch("event belongs to a different state space")
    u = fam.utility_given(e)
    u_x = u.num(x)
    for o in outcomes:
        if u.num(o) != u_x:
            break
    else:
        return CheckResult(True)
    if not fam.belief_given(e).support_mask & ~e.mask:
        return CheckResult(True)
    off_e = tuple([0 if e.mask >> i & 1 else 1 for i in range(len(space))])
    verdict = Preference.SECOND if u.num(o) > u_x else Preference.FIRST
    return CheckResult(False, (*_xy_acts(space, x, o, 2, (0,) * len(space), off_e), verdict))


def check_conditional_consistency(fam, e: Event, a: Event) -> CheckResult:
    """Rankings through a feasible subevent agree with rankings on it.

    For every (f, g, h), "f on a, h elsewhere" versus the same for g under
    the ``e``-conditional must match f versus g under the ``a``-conditional.
    The witness is (f, g, h, verdict under e, verdict under a) for the
    first disagreement.

    Decided over every act on the shared outcomes.  With x the first, "f
    on a" ranks under ``e`` by the matrix b_e(s) * (u_e(o) - u_e(x)) over s
    in ``a`` (zero off it) and f under ``a`` by b_a(s) * (u_a(o) - u_a(x)),
    so by vNM uniqueness the axiom holds iff one matrix is a positive
    multiple of the other or both vanish.  Both are outer products, so it
    holds iff both utilities are constant on the shared outcomes, or b_e
    on ``a`` is a positive multiple of b_a and u_e a positive affine image
    of u_a (``_affine_break``).

    The column of y, the second shared outcome, is tested first, on
    v_e(s) = b_e(s) * (u_e(y) - u_e(x)) and v_a(s) = b_a(s) * (u_a(y) -
    u_a(x)).  Its fail reports, with h constant at x, the first disagreeing
    pair of x/y mixtures among the act grid's first 20 ordered distinct
    pairs (``_act_grid``), else a pair built from the vectors: a bet where
    the signs of v_e and v_a differ, otherwise two bets that the
    ``e``-conditional ranks indifferent and the ``a``-conditional does
    not.  Past it, a u_e off the affine image reports the constant acts on
    the lotteries ``_flip_pair`` builds at the break, h constant at x; and
    where both utilities tie x and y, the column of the first outcome u_a
    values apart from x is tested in the same way.

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
    space, outcomes = fam.space, fam.shared_outcomes()
    x, y = _mixed_outcomes(outcomes)
    u_e = fam.utility_given(e)
    v_e = _weighted_gains(belief, u_e, a.mask, x, y)
    b_a, u_a = fam.belief_given(a), fam.utility_given(a)
    failed = _column_break(space, x, y, v_e, _weighted_gains(b_a, u_a, -1, x, y))
    if failed is not None:
        return failed
    if u_e is not u_a:
        anchor = _anchor(u_a, outcomes)
        broken = _affine_break((u_a, u_e), outcomes, anchor)
        if broken is not None:
            p, q = _flip_pair(u_a, *(anchor or (outcomes[0], broken[1])), broken[1])
            acts = [Act.constant(space, lot) for lot in (p, q, Lottery({x: 1}))]
            verdicts = [compare_values(u.expected(p), u.expected(q)) for u in (u_e, u_a)]
            return CheckResult(False, (*acts, *verdicts))
    if any(v_e):  # v_e = c * v_a with c > 0 ties b_e on a to b_a
        return CheckResult(True)
    o = next((o for o in outcomes if u_a.num(o) != u_a.num(x)), None)
    if o is None:  # u_a, so u_e, is constant on the shared outcomes
        return CheckResult(True)
    v_e = _weighted_gains(belief, u_e, a.mask, x, o)
    failed = _column_break(space, x, o, v_e, _weighted_gains(b_a, u_a, -1, x, o))
    return CheckResult(True) if failed is None else failed


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


def _column_break(
    space: StateSpace, x: str, y: str, v_e: list[int], v_a: list[int]
) -> CheckResult | None:
    """None when v_e = c * v_a with c > 0 or both vanish; else a fail on x/y mixtures.

    The fail's witness pair (f, g) is the first disagreeing pair of the
    grid's first 20, else a pair built from a gap: f's minus g's
    probability of y, state by state, numerators over ``scale``.  The
    first state where the signs differ (zero counting as a sign) gets a
    bet of its own.  With every sign equal, take the first state r with
    v_a(r) != 0 and the first s with v_e(r) * v_a(s) != v_e(s) * v_a(r);
    the gap (v_e(s), -v_e(r)) on (r, s) is orthogonal to v_e but not to
    v_a.
    """
    ref = None
    for s, (p, q) in enumerate(zip(v_e, v_a)):
        if _sign(p) != _sign(q):
            return _first_inconsistency(space, x, y, v_e, v_a, {s: 1}, 1)
        if q and ref is None:
            ref = s
    if ref is None:
        return None
    for s, (p, q) in enumerate(zip(v_e, v_a)):
        if v_e[ref] * q != p * v_a[ref]:
            gap = {ref: p, s: -v_e[ref]}
            return _first_inconsistency(space, x, y, v_e, v_a, gap, max(abs(p), abs(v_e[ref])))
    return None


def _act_grid(n: int) -> list[tuple[int, ...]]:
    """Each grid act's probability of y, doubled, state by state, over ``n`` states.

    Constant x, the even mixture of x and y, constant y, then a bet on y
    at each of the first six states.
    """
    grid = [(p,) * n for p in (0, 1, 2)]
    return grid + [tuple(2 * (i == s) for i in range(n)) for s in range(min(n, 6))]


def _first_inconsistency(
    space: StateSpace,
    x: str,
    y: str,
    v_e: list[int],
    v_a: list[int],
    gap: dict[int, int],
    scale: int,
) -> CheckResult:
    """The first disagreeing pair of the grid's first 20, else the one built from ``gap``.

    Every act here maps each state to a mixture of x and y, and h cancels
    from "f on a, h elsewhere" versus "g on a, h elsewhere" since v_e is
    zero off the subevent.  So both verdicts are the signs of v_e and v_a
    dotted with f's and g's probabilities of y: the verdicts ``os_prefer``
    gives, scaled by positive denominators.  Each pair is ranked on its
    own integers: the grid's doubled probabilities, the built pair's
    numerators over ``scale``.
    """
    n = len(space)

    def ranked(p_y: tuple[int, ...]) -> tuple[tuple[int, ...], int, int]:
        return p_y, _dot(v_e, p_y), _dot(v_a, p_y)

    grid = [ranked(p_y) for p_y in _act_grid(n)]
    pairs = ((2, f, g) for f in grid for g in grid if f[0] != g[0])
    built = [ranked(tuple([max(sign * gap.get(i, 0), 0) for i in range(n)])) for sign in (1, -1)]
    for den, (f, e_f, a_f), (g, e_g, a_g) in chain(islice(pairs, 20), [(scale, *built)]):
        under_e, under_a = compare_values(e_f, e_g), compare_values(a_f, a_g)
        if under_e is not under_a:
            break  # the built pair, last, always disagrees
    return CheckResult(False, (*_xy_acts(space, x, y, den, f, g, (0,) * n), under_e, under_a))


def _dot(v: list[int], p_y: Sequence[int]) -> int:
    return sum([w * p for w, p in zip(v, p_y) if w])


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


def _flip_pair(base: UtilityFunction, first: str, second: str, o: str) -> tuple[Lottery, Lottery]:
    """Two lotteries ``base`` ranks unlike any utility that breaks at ``o`` (``_affine_break``).

    With (first, second) the anchor of ``base``, or the first shared outcome
    and ``o`` where ``base`` has none: two degenerate lotteries when ``o``
    is ``second``; otherwise the mixture of the lowest and highest of the
    three outcomes that ``base`` values like the middle one, against the
    middle one, which the breaking utility ranks strictly since the three
    points are not collinear.
    """
    if o == second:
        return Lottery({first: 1}), Lottery({second: 1})
    lo, mid, hi = sorted((first, second, o), key=base.num)
    alpha = Fraction(base.num(mid) - base.num(lo), base.num(hi) - base.num(lo))
    return Lottery({lo: 1 - alpha, hi: alpha}), Lottery({mid: 1})


def check_constant_act_agreement(fam) -> CheckResult:
    """Constant-act rankings must not depend on the surprise order.

    Decided over every lottery on the shared outcomes: by vNM uniqueness
    the orders agree there iff each u_k is a positive affine image of u_0,
    or both are constant (``_affine_break``), so a pass is a proof.  A fail
    reports (lottery, lottery, order, verdict there, verdict at order 0)
    for the first flip among two pairs.  First x against 3/4 x + 1/4 y, for
    the first two shared outcomes x and y: each order ranks every pair of
    x/y mixtures alike, so this pair flips at the first order that flips
    any.  Else a pair built at the break: two degenerate lotteries, or the
    mixture of the lowest and highest of the anchor's two outcomes and the
    break's outcome o that u_0 values like the middle one, against the
    middle one, which order k ranks strictly since the three points
    (u_0, u_k) are not collinear.
    """
    base = fam.utilities[0]
    outcomes = fam.shared_outcomes()
    x, y = _mixed_outcomes(outcomes)
    anchor = _anchor(base, outcomes)
    broken = _affine_break(fam.utilities, outcomes, anchor)
    if broken is None:
        return CheckResult(True)
    p, q = Lottery({x: 1}), Lottery({x: Fraction(3, 4), y: Fraction(1, 4)})
    bench = compare_values(base.expected(p), base.expected(q))
    for k, u in enumerate(fam.utilities[1:], start=1):
        verdict = compare_values(u.expected(p), u.expected(q))
        if verdict is not bench:
            return CheckResult(False, (p, q, k, verdict, bench))
    # orders before the break agree with order 0 on every lottery, and the
    # built pair flips at the break, so its first flip is the break's order
    k, o = broken
    p, q = _flip_pair(base, *(anchor or (outcomes[0], o)), o)
    verdicts = [compare_values(u.expected(p), u.expected(q)) for u in (fam.utilities[k], base)]
    return CheckResult(False, (p, q, k, *verdicts))
