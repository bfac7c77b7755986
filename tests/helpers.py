"""Shared builders for the tests: a corpus generator and a few object shortcuts."""

import itertools
import math
import random
from fractions import Fraction

from beliefkit import (
    Act,
    Belief,
    CheckResult,
    CpsValidation,
    CpsWitness,
    Event,
    Lottery,
    OSRepresentation,
    Preference,
    RiskIndependenceReport,
    StateSpace,
    UpdatingRule,
    UtilityFunction,
    compose_act,
    is_complete,
    is_concentrated,
)
from beliefkit.core import ZERO, as_fraction, lex_submasks
from beliefkit.errors import (
    BeliefkitError,
    DegenerateBase,
    EmptyEvent,
    IncompleteCoverage,
    InfeasibleSubevent,
    NullConditioning,
    SpaceMismatch,
    ValidationError,
)
from beliefkit.hypothesis_testing import EpsOsConstruction, HTRepresentation
from beliefkit.ordered_surprises import min_order


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
    earlier ones, so the canonical form (``canonical_form``) can drop them.
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


def canonical_form(os: OSRepresentation) -> OSRepresentation:
    """Oracle for ``cps_to_os(os_rule(os))`` on a hierarchy covering the space.

    Each prior keeps only the states no earlier prior holds, renormalized in
    Fractions, and a prior left with none is dropped.  The induced rule is
    unchanged: an event first feasible at a prior misses every earlier
    support.
    """
    seen: set[str] = set()
    priors = []
    for prior in os.priors:
        fresh = {s: m for s, m in prior.items() if m and s not in seen}
        if fresh:
            total = sum(fresh.values())
            priors.append(Belief(os.space, {s: m / total for s, m in fresh.items()}))
            seen |= set(fresh)
    return OSRepresentation(os.space, priors)


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


def count_fractions(monkeypatch) -> list:
    """Record every Fraction built until ``monkeypatch.undo()``."""
    built = []
    real = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    return built


def fraction_compare(a: Fraction, b: Fraction) -> Preference:
    return Preference.FIRST if a > b else Preference.SECOND if b > a else Preference.INDIFFERENT


def fraction_ranking(u: UtilityFunction, p: Lottery, q: Lottery) -> Preference:
    """Rank two lotteries by expected utility, summed in Fractions."""
    a, b = (sum((prob * u.value(o) for o, prob in lot.entries), Fraction(0)) for lot in (p, q))
    return fraction_compare(a, b)


def _fraction_anchor(u: UtilityFunction, outcomes) -> tuple[str, str] | None:
    for candidate in outcomes[1:]:
        if u.value(candidate) != u.value(outcomes[0]):
            return outcomes[0], candidate
    return None


def fraction_risk_independence(fam) -> RiskIndependenceReport:
    """Oracle for ``check_risk_independence``: the affine fit in Fractions.

    The scale and shift come from the anchor (the first two shared outcomes
    order 0 values differently); then the scale's sign and every shared
    outcome are checked against them, order by order.
    """
    outcomes = fam.shared_outcomes()
    base = fam.utilities[0]
    anchor = _fraction_anchor(base, outcomes)
    if anchor is None:
        raise DegenerateBase("base utility is constant on the shared outcome table")
    x, y = anchor
    coefficients = {0: (Fraction(1), Fraction(0))}
    for k, u in enumerate(fam.utilities[1:], start=1):
        scale = (u.value(x) - u.value(y)) / (base.value(x) - base.value(y))
        shift = u.value(x) - scale * base.value(x)
        if scale <= 0:
            return RiskIndependenceReport(False, witness_order=k, witness_outcome=y)
        for o in outcomes:
            if u.value(o) != scale * base.value(o) + shift:
                return RiskIndependenceReport(False, witness_order=k, witness_outcome=o)
        coefficients[k] = (scale, shift)
    return RiskIndependenceReport(True, coefficients=coefficients)


def fraction_affine_break(utilities, outcomes) -> tuple[Lottery, Lottery, int] | None:
    """The first order ranking some lottery pair unlike order 0, with that pair.

    The Fraction fit of ``fraction_risk_independence``.  Where u_0 is
    constant, or the scale is not positive, the pair is two degenerate
    lotteries; otherwise, for the first outcome o off the line through the
    anchor (x, y), it is the mixture of the lowest and highest of x, y, o
    that u_0 values like the middle one, against the middle one.
    """
    base = utilities[0]
    anchor = _fraction_anchor(base, outcomes)
    for k, u in enumerate(utilities[1:], start=1):
        if anchor is None:
            spread = _fraction_anchor(u, outcomes)
            if spread is not None:
                return Lottery({spread[0]: 1}), Lottery({spread[1]: 1}), k
            continue
        x, y = anchor
        scale = (u.value(x) - u.value(y)) / (base.value(x) - base.value(y))
        if scale <= 0:
            return Lottery({x: 1}), Lottery({y: 1}), k
        shift = u.value(x) - scale * base.value(x)
        for o in outcomes:
            if u.value(o) != scale * base.value(o) + shift:
                lo, mid, hi = sorted((x, y, o), key=base.value)
                alpha = (base.value(mid) - base.value(lo)) / (base.value(hi) - base.value(lo))
                return Lottery({lo: 1 - alpha, hi: alpha}), Lottery({mid: 1}), k
    return None


def fraction_constant_act_agreement(fam) -> CheckResult:
    """Oracle for ``check_constant_act_agreement``, in Fractions.

    Passes when ``fraction_affine_break`` finds no break; otherwise reports
    the first flip on the five-point ``lottery_grid``, else the built pair.
    """
    outcomes = fam.shared_outcomes()
    mixed_outcomes(outcomes)  # two distinct outcomes, as the grid needs
    built = fraction_affine_break(fam.utilities, outcomes)
    if built is None:
        return CheckResult(True)
    base = fam.utilities[0]
    lotteries = lottery_grid(outcomes)
    for i, p in enumerate(lotteries):
        for q in lotteries[i + 1 :]:
            bench = fraction_ranking(base, p, q)
            for k, u in enumerate(fam.utilities[1:], start=1):
                verdict = fraction_ranking(u, p, q)
                if verdict is not bench:
                    return CheckResult(False, (p, q, k, verdict, bench))
    p, q, k = built
    return CheckResult(
        False, (p, q, k, fraction_ranking(fam.utilities[k], p, q), fraction_ranking(base, p, q))
    )


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
            nums = belief.nums
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
            den_f = given_f.den
            n_fe = row_e[f_mask]
            for g_mask in lex_submasks(f_mask):
                triples += 1
                if row_e[g_mask] * den_f != row_f[g_mask] * n_fe:
                    den_e = given_e.den
                    witness = CpsWitness(
                        g=Event(space, g_mask),
                        f=Event(space, f_mask),
                        e=Event(space, e_mask),
                        lhs=Fraction(row_e[g_mask], den_e),
                        rhs=Fraction(row_f[g_mask], den_f) * Fraction(n_fe, den_e),
                    )
                    return CpsValidation.violation(witness, triples)
    return CpsValidation.valid(triples, ())


def fraction_belief(space: StateSpace, masses) -> Belief:
    """Oracle for ``Belief(space, masses)``: the check and sum in Fractions.

    Each mass is coerced, checked for sign and placed by label in turn;
    then the Fraction sum must be one, and the numerators are taken over
    the lcm of the denominators and reduced by their gcd in ``_init``.
    """
    vec = [ZERO] * len(space)
    for label, raw in masses.items():
        value = as_fraction(raw)
        if value < 0:
            raise ValidationError(f"negative mass {value} on state {label!r}")
        vec[space.index(label)] = value
    total = sum(vec)
    if total != 1:
        raise ValidationError(f"belief mass must sum to 1, got {total}")
    support = sum(1 << i for i, value in enumerate(vec) if value)
    den = math.lcm(*[value.denominator for value in vec])
    nums = [v.numerator * (den // v.denominator) for v in vec]
    return object.__new__(Belief)._init(space, den, nums, support)


def fraction_lottery(outcomes) -> Lottery:
    """Oracle for ``Lottery(outcomes)``: Fraction checks and sum, zero entries dropped."""
    cleaned = []
    total = ZERO
    for label in sorted(outcomes):
        value = as_fraction(outcomes[label])
        if value < 0:
            raise ValidationError(f"negative probability {value} on outcome {label!r}")
        total += value
        if value:
            cleaned.append((label, value))
    if total != 1:
        raise ValidationError(f"lottery probabilities must sum to 1, got {total}")
    lottery = object.__new__(Lottery)
    lottery.entries = tuple(cleaned)
    lottery._hash = hash(lottery.entries)
    lottery._expected = None
    return lottery


def fraction_conservative_rule(prior: Belief, delta) -> UpdatingRule:
    """Oracle for ``conservative_rule``: one Fraction Bayes update per event.

    Every entry is delta * prior + (1 - delta) * rest in Fractions, built
    through ``fraction_belief``; the rest is ``fraction_bayes_update`` on
    a feasible event and the uniform belief on a null one.
    """
    space = prior.space
    table = {}
    for event in space.events():
        if prior.prob(event):
            rest = fraction_bayes_update(prior, event)
            spread = {s: rest.mass_of(s) for s in space.states}
        else:
            spread = {s: Fraction(int(s in event), len(event)) for s in space.states}
        masses = {s: delta * prior.mass_of(s) + (1 - delta) * spread[s] for s in space.states}
        table[event] = fraction_belief(space, {s: m for s, m in masses.items() if m})
    return UpdatingRule(space, table)


def fraction_bayes_update(mu: Belief, e: Event) -> Belief:
    """Oracle for ``bayes_update``: Fraction masses through ``Belief(...)``."""
    if mu.space != e.space:
        raise SpaceMismatch("belief and event belong to different state spaces")
    if not e:
        raise EmptyEvent("cannot condition on the empty event")
    total = mu.prob(e)
    if total == 0:
        raise NullConditioning(f"event {{{','.join(e.members)}}} has probability zero")
    masses = {
        label: mu.mass[e.space.index(label)] / total
        for label in e.members
        if mu.mass[e.space.index(label)]
    }
    return Belief(mu.space, masses)


class CycleDetected(BeliefkitError):
    """The dominance relation among conditional beliefs is cyclic.

    Dominance is the proper-subset relation on supports, which has no
    cycle, so ``eps_os_construction`` never raises this; only the oracle
    below, which keeps its own topological sort, checks for one.
    """


class SeparationFailed(BeliefkitError):
    """The oracle's lowest interval does not clear the threshold.

    ``eps_os_construction`` proves its chain never collapses; the oracle
    below, which keeps its own Fraction chain, still checks.
    """


def fraction_eps_os_construction(
    os: OSRepresentation, eps
) -> tuple[EpsOsConstruction, tuple[tuple[int, int], ...]]:
    """Oracle for ``eps_os_construction``: the construction in Fractions.

    Scans every event for its class, builds each class's distinct
    conditional beliefs, runs the dominance and cross-class loops on
    Fraction masses, and orders each class by re-sorting its ready list
    after every topological step.  Returns the record and, apart from it,
    the dominance pairs by prior index, which the record lists on read.
    """
    eps = as_fraction(eps)
    if not 0 <= eps < 1:
        raise ValidationError(f"threshold must lie in [0, 1), got {eps}")
    if not os.is_canonical:
        raise ValidationError("hierarchy priors must have pairwise disjoint supports")
    if not os.covers_space:
        raise IncompleteCoverage("hierarchy supports must jointly cover the space")
    space = os.space
    priors = os.priors

    # Distinct conditional beliefs per class.  A class-k event E yields
    # BU(prior_k, E), which depends only on E intersected with the support,
    # so the intersection mask identifies the belief.
    seen_masks: list[dict[int, None]] = [dict() for _ in priors]
    class_events: list[list[int]] = [[] for _ in priors]
    for mask in space.canonical_masks():
        order = min_order(priors, mask, eps)
        if order is None:
            continue
        inner = mask & priors[order].support_mask
        seen_masks[order].setdefault(inner)
        class_events[order].append(mask)

    conditionals: list[list[Belief]] = []
    for k, prior in enumerate(priors):
        row = []
        for inner in sorted(seen_masks[k], key=lambda m: Event(space, m).indices):
            row.append(fraction_bayes_update(prior, Event(space, inner)))
        conditionals.append(row)

    # Within-class dominance: b dominates b' when b' is certain of b's own
    # representing event (its support).  The mass b' puts on any event that
    # represents b equals the mass on the intersection of supports, so the
    # choice of representative does not matter.
    per_class_edges: list[list[tuple[int, int]]] = []
    gap_limits: list[Fraction] = []  # largest dominated-side mass below one
    for k, row in enumerate(conditionals):
        edges: list[tuple[int, int]] = []
        limit = ZERO
        for i, b in enumerate(row):
            for j, other in enumerate(row):
                if i == j:
                    continue
                value = Fraction(other.mask_num(b.support_mask), other.den)
                if value == 1:
                    edges.append((i, j))
                elif value > limit:
                    limit = value
        per_class_edges.append(edges)
        gap_limits.append(limit)

    # Cross-class pressure on the threshold: mass a shallower conditional
    # belief puts on a deeper class's event must stay in the reject region.
    cross_max = ZERO
    for k in range(1, len(priors)):
        for j in range(k):
            for belief in conditionals[j]:
                for mask in class_events[k]:
                    value = Fraction(belief.mask_num(mask), belief.den)
                    if value > cross_max:
                        cross_max = value
    threshold = max(cross_max, eps)

    # Topological order per class (deterministic: canonical support key).
    ordered: list[list[int]] = []
    for k, row in enumerate(conditionals):
        incoming = [0] * len(row)
        outgoing: list[list[int]] = [[] for _ in row]
        for winner, loser in per_class_edges[k]:
            incoming[loser] += 1
            outgoing[winner].append(loser)
        ready = sorted(
            (i for i in range(len(row)) if incoming[i] == 0),
            key=lambda i: Event(space, row[i].support_mask).indices,
        )
        order: list[int] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            changed = False
            for nxt in outgoing[node]:
                incoming[nxt] -= 1
                if incoming[nxt] == 0:
                    changed = True
            if changed:
                ready = sorted(
                    (i for i in range(len(row)) if incoming[i] == 0 and i not in order),
                    key=lambda i: Event(space, row[i].support_mask).indices,
                )
        if len(order) != len(row):
            raise CycleDetected("dominance relation among conditional beliefs is cyclic")
        ordered.append(order)

    # Interval chain: all values live strictly above the threshold; each
    # class's lower bound also clears upper * (largest non-certain mass),
    # so dominated-but-uncertain beliefs can never outscore the class.
    bounds: list[tuple[Fraction, Fraction]] = []
    upper = Fraction(1)
    for k in range(len(priors)):
        floor = max(threshold, upper * gap_limits[k])
        lower = (floor + upper) / 2
        bounds.append((upper, lower))
        upper = (threshold + lower) / 2
    if bounds[-1][1] <= threshold * bounds[0][0]:
        raise SeparationFailed(f"interval chain collapsed onto the threshold {threshold}")

    raw: list[Fraction] = []
    flat_priors: list[Belief] = []
    class_of: list[int] = []
    global_index: list[dict[int, int]] = [dict() for _ in priors]
    for k, order in enumerate(ordered):
        hi, lo = bounds[k]
        step = (hi - lo) / (len(order) + 1)
        for pos, local in enumerate(order):
            global_index[k][local] = len(flat_priors)
            flat_priors.append(conditionals[k][local])
            class_of.append(k)
            raw.append(hi - step * (pos + 1))

    total = sum(raw)
    rho = tuple(value / total for value in raw)
    scaled_bounds = tuple((hi / total, lo / total) for hi, lo in bounds)
    edges = tuple(
        (global_index[k][winner], global_index[k][loser])
        for k in range(len(priors))
        for winner, loser in per_class_edges[k]
    )
    ht = HTRepresentation(space, flat_priors, rho, threshold)
    built = EpsOsConstruction(
        ht=ht,
        eps=eps,
        class_of=tuple(class_of),
        bounds=scaled_bounds,
        cross_max=cross_max,
    )
    return built, edges


def fraction_ht_select(ht: HTRepresentation, e: Event):
    """Oracle for HT selection: (bayesian?, scores, tied indices).

    Masses are Fraction sums of ``mass`` over the event's states.  The top
    prior is kept when its mass on the event exceeds the threshold; then
    ``tied`` is (0,) and ``scores`` is None.  Otherwise ``scores`` holds
    mass_j(E) * rho_j for every prior and ``tied`` every index at the
    maximal score: the chosen prior when it is alone, a tie otherwise.
    """

    def mass(prior: Belief) -> Fraction:
        return sum((prior.mass[i] for i in e.indices), Fraction(0))

    if mass(ht.priors[0]) > ht.eps:
        return True, None, (0,)
    scores = tuple(mass(prior) * weight for prior, weight in zip(ht.priors, ht.rho))
    best = max(scores)
    return False, scores, tuple(j for j, score in enumerate(scores) if score == best)


def _xy_act(space: StateSpace, x: str, y: str, probabilities) -> Act:
    return Act(
        space,
        {label: Lottery({x: 1 - p, y: p}) for label, p in zip(space.states, probabilities)},
    )


# ---------------------------------------------------------------------------
# the deterministic samples the axiom checks once ran, kept as oracles: a
# check's built witness must be the sample's first witness where it has one

GRID_PROBABILITIES = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))


def mixed_outcomes(outcomes) -> tuple[str, str]:
    """The first two distinct outcomes, x and y, that every sampled act mixes."""
    distinct = list(dict.fromkeys(outcomes))
    if len(distinct) < 2:
        raise ValidationError("need at least two distinct outcomes to build lotteries")
    return distinct[0], distinct[1]


def lottery_grid(outcomes, probabilities=GRID_PROBABILITIES) -> tuple[Lottery, ...]:
    """Mixtures of the first two distinct outcomes along a probability grid."""
    x, y = mixed_outcomes(outcomes)
    return tuple(Lottery({x: 1 - p, y: p}) for p in probabilities)


def act_grid(space: StateSpace, outcomes) -> tuple[Act, ...]:
    """Constant acts on a coarse lottery grid plus bets on the first six states."""
    lotteries = lottery_grid(outcomes, (Fraction(0), Fraction(1, 2), Fraction(1)))
    acts = [Act.constant(space, lot) for lot in lotteries]
    low, high = lotteries[0], lotteries[-1]
    acts += [bet(space, label, high, low) for label in space.states[:6]]
    return tuple(acts)


def default_act_pairs(space: StateSpace, outcomes) -> tuple[tuple[Act, Act], ...]:
    """The first 60 ordered distinct pairs from the act grid."""
    grid = act_grid(space, outcomes)
    return tuple(itertools.islice(((f, g) for f in grid for g in grid if f != g), 60))


def default_act_triples(space: StateSpace, outcomes) -> tuple[tuple[Act, Act, Act], ...]:
    """The first 60 (f, g, h): a distinct pair of the act grid, padded by a constant act."""
    grid = act_grid(space, outcomes)
    triples = ((f, g, h) for f in grid for g in grid if f != g for h in grid[:3])
    return tuple(itertools.islice(triples, 60))


def sampled_consequentialism(fam, e: Event, pairs) -> CheckResult:
    """Each (f, g) as f against "f on e, g elsewhere", ranked through ``fraction_seu``.

    The witness is (f, composed act, verdict) for the first strict ranking.
    """
    belief, u = fam.belief_given(e), fam.utility_given(e)
    for f, g in pairs:
        forced = compose_act(f, e, g)
        verdict = fraction_compare(fraction_seu(u, belief, f), fraction_seu(u, belief, forced))
        if verdict is not Preference.INDIFFERENT:
            return CheckResult(False, (f, forced, verdict))
    return CheckResult(True)


def sampled_consistency(fam, e: Event, a: Event, triples) -> CheckResult:
    """Each (f, g, h): "f on a, h elsewhere" against the same for g given e,
    and f against g given a, ranked through ``fraction_seu``.

    The witness is (f, g, h, verdict under e, verdict under a) for the
    first disagreement.
    """
    b_e, u_e = fam.belief_given(e), fam.utility_given(e)
    b_a, u_a = fam.belief_given(a), fam.utility_given(a)
    for f, g, h in triples:
        under_e = fraction_compare(
            fraction_seu(u_e, b_e, compose_act(f, a, h)),
            fraction_seu(u_e, b_e, compose_act(g, a, h)),
        )
        under_a = fraction_compare(fraction_seu(u_a, b_a, f), fraction_seu(u_a, b_a, g))
        if under_e is not under_a:
            return CheckResult(False, (f, g, h, under_e, under_a))
    return CheckResult(True)


def oracle_consequentialism(fam, e: Event) -> CheckResult:
    """Oracle for ``check_consequentialism``, in Fractions, at any |S|.

    The check's errors in its order; a pass where u_e is constant on the
    shared outcomes; else the sampled check on the default pairs that mix
    the first shared outcome x with the first one o that u_e values apart
    from x, which fails exactly when the belief given ``e`` leaks mass.
    """
    if not e:
        raise EmptyEvent("cannot condition on the empty event")
    outcomes = fam.shared_outcomes()
    x = mixed_outcomes(outcomes)[0]
    if e.space != fam.space:
        raise SpaceMismatch("event belongs to a different state space")
    u = fam.utility_given(e)
    o = next((o for o in outcomes if u.value(o) != u.value(x)), None)
    if o is None:
        return CheckResult(True)
    return sampled_consequentialism(fam, e, default_act_pairs(fam.space, (x, o)))


def oracle_conditional_consistency(fam, e: Event, a: Event) -> CheckResult:
    """Oracle for ``check_conditional_consistency``, in Fractions, at any |S|.

    The check's errors in its order; then ``oracle_column`` on x and y, the
    first two shared outcomes.  Past it, where u_e is not u_a and
    ``fraction_affine_break`` finds a pair of lotteries u_e ranks unlike
    u_a, the sampled check on those lotteries as constant acts, padded by
    constant x; a pass where u_e(x) != u_e(y); else ``oracle_column`` on x
    and the first shared outcome o that u_a values apart from x, if any.
    """
    if a.space != e.space:
        raise SpaceMismatch("events built over different state spaces")
    if not a:
        raise EmptyEvent("the subevent is empty")
    if not a.issubset(e):
        raise ValidationError("the subevent must be contained in the conditioning event")
    if fam.belief_given(e).prob(a) == 0:
        raise InfeasibleSubevent(
            "{" + ",".join(a.members) + "} is null given {" + ",".join(e.members) + "}"
        )
    space = fam.space
    outcomes = fam.shared_outcomes()
    x, y = mixed_outcomes(outcomes)
    failed = oracle_column(fam, e, a, x, y)
    if failed is not None:
        return failed
    u_e, u_a = fam.utility_given(e), fam.utility_given(a)
    padding = Act.constant(space, Lottery({x: 1}))
    if u_e is not u_a:
        built = fraction_affine_break([u_a, u_e], outcomes)
        if built is not None:
            f, g = (Act.constant(space, lottery) for lottery in built[:2])
            return sampled_consistency(fam, e, a, [(f, g, padding)])
    if u_e.value(x) != u_e.value(y):
        return CheckResult(True)
    o = next((o for o in outcomes if u_a.value(o) != u_a.value(x)), None)
    failed = None if o is None else oracle_column(fam, e, a, x, o)
    return CheckResult(True) if failed is None else failed


def oracle_column(fam, e: Event, a: Event, x: str, y: str) -> CheckResult | None:
    """None where the Fraction vectors of ``weighted_gains`` on x and y
    satisfy v_e = c * v_a with c > 0 or both vanish; else the first
    witness of ``sampled_consistency`` on the default triples of x/y
    mixtures, else the pair built from the vectors: a bet on the first
    state where their signs differ, or else the gap (v_e(s), -v_e(r))
    scaled into [-1, 1], with r the first state where v_a is nonzero and s
    the first where v_e(r) * v_a(s) != v_e(s) * v_a(r).
    """
    space = fam.space
    v_e, v_a = weighted_gains(fam, e, x, y, within=a), weighted_gains(fam, a, x, y)
    r = next((s for s, q in enumerate(v_a) if q), None)
    if r is None:
        if not any(v_e):
            return None
    elif v_e[r] / v_a[r] > 0 and v_e == [v_e[r] / v_a[r] * q for q in v_a]:
        return None
    sampled = sampled_consistency(fam, e, a, default_act_triples(space, (x, y)))
    if not sampled:
        return sampled
    signs = [((p > 0) - (p < 0), (q > 0) - (q < 0)) for p, q in zip(v_e, v_a)]
    differ = next((s for s, (p, q) in enumerate(signs) if p != q), None)
    if differ is not None:
        gap = {differ: Fraction(1)}
    else:
        s = next(s for s in range(len(space)) if v_e[r] * v_a[s] != v_e[s] * v_a[r])
        scale = max(abs(v_e[s]), abs(v_e[r]))
        gap = {r: v_e[s] / scale, s: -v_e[r] / scale}
    f, g = (
        _xy_act(space, x, y, [max(sign * gap.get(i, 0), 0) for i in range(len(space))])
        for sign in (1, -1)
    )
    h = Act.constant(space, Lottery({x: 1}))
    return sampled_consistency(fam, e, a, [(f, g, h)])


def mixture_grid(*vectors) -> tuple[Fraction, ...]:
    """0, 1, and each ratio v(s) / v(t) of nonzero entries, and its inverse, in [0, 1].

    The ratios are taken in absolute value within each vector.  A grid
    without them can miss a failure: on {0, 1/2, 1} alone the vectors
    (1, 11/10) and (1, 6/5) agree in sign on every act.
    """
    grid = {Fraction(0), Fraction(1)}
    for v in vectors:
        nonzero = [abs(value) for value in v if value]
        for p in nonzero:
            for q in nonzero:
                if p <= q:
                    grid.add(p / q)
    return tuple(sorted(grid))


def weighted_gains(fam, e: Event, x: str, y: str, within: Event | None = None) -> list[Fraction]:
    """b_e(s) * (u_e(y) - u_e(x)) in Fractions, zero off ``within`` when given."""
    u = fam.utility_given(e)
    gap = u.value(y) - u.value(x)
    return [
        mass * gap if within is None or s in within else Fraction(0)
        for s, mass in zip(fam.space.states, fam.belief_given(e).mass)
    ]


def brute_consequentialism(fam, e: Event) -> bool:
    """Oracle for ``check_consequentialism``, in Fractions, |S| <= 4.

    Ranks every pure-outcome act over the shared outcomes through
    ``fraction_seu``: f against "f on e, g elsewhere" is indifferent for
    every pair exactly when acts that agree on ``e`` share one value.
    Mixtures need no look: an act's value is linear in its lotteries.
    """
    space = fam.space
    u, belief = fam.utility_given(e), fam.belief_given(e)
    values: dict[tuple, set] = {}
    for outcomes in itertools.product(fam.shared_outcomes(), repeat=len(space)):
        f = Act(space, {s: Lottery({o: 1}) for s, o in zip(space.states, outcomes)})
        on_e = tuple(o for s, o in zip(space.states, outcomes) if s in e)
        values.setdefault(on_e, set()).add(fraction_seu(u, belief, f))
    return all(len(seen) == 1 for seen in values.values())


def ranked_alike(fam, e: Event, a: Event, acts, h: Act) -> bool:
    """Whether "f on a, h elsewhere" under ``e`` and f under ``a`` order ``acts`` alike.

    Ranked through ``fraction_seu``: acts of equal value under ``a`` must
    share one value under ``e``, and the values must rise together.
    """
    u_e, b_e = fam.utility_given(e), fam.belief_given(e)
    u_a, b_a = fam.utility_given(a), fam.belief_given(a)
    under_e: dict[Fraction, set] = {}
    for f in acts:
        under_e.setdefault(fraction_seu(u_a, b_a, f), set()).add(
            fraction_seu(u_e, b_e, compose_act(f, a, h))
        )
    if any(len(seen) > 1 for seen in under_e.values()):
        return False
    rising = [next(iter(under_e[key])) for key in sorted(under_e)]
    return all(lo < hi for lo, hi in zip(rising, rising[1:]))


def brute_conditional_consistency(fam, e: Event, a: Event) -> bool:
    """Oracle for ``check_conditional_consistency``, in Fractions, |S| <= 4.

    Ranks with ``ranked_alike`` every constant act on a mixture of two
    shared outcomes at 0, 1 or a ratio of two gaps of u_e or of u_a
    (``mixture_grid``), and, for each pair (o, p) of shared outcomes and h
    constant at o and at p, every act that maps each state to a mixture of
    o and p on the ``mixture_grid`` of their weighted gains.  The constant
    acts see a utility that is no positive affine image of the other, and
    the o/p acts a belief on ``a`` that is no positive multiple of the
    other wherever u_a values o and p apart, so all agree exactly when
    the axiom holds over every act.  Shared outcomes that either utility
    leaves out are skipped.
    """
    space = fam.space
    utilities = (fam.utility_given(e), fam.utility_given(a))
    shared = dict.fromkeys(fam.shared_outcomes())
    outcomes = [o for o in shared if all(o in u.nums for u in utilities)]
    pairs = list(itertools.combinations(outcomes, 2))
    gaps = [[u.value(o) - u.value(p) for o in outcomes for p in outcomes] for u in utilities]
    lotteries = [Lottery({o: 1 - q, p: q}) for o, p in pairs for q in mixture_grid(*gaps)]
    padding = Act.constant(space, Lottery({outcomes[0]: 1}))
    if not ranked_alike(fam, e, a, [Act.constant(space, lot) for lot in lotteries], padding):
        return False
    for o, p in pairs:
        grid = mixture_grid(weighted_gains(fam, e, o, p, within=a), weighted_gains(fam, a, o, p))
        acts = [_xy_act(space, o, p, row) for row in itertools.product(grid, repeat=len(space))]
        for outcome in (o, p):
            if not ranked_alike(fam, e, a, acts, Act.constant(space, Lottery({outcome: 1}))):
                return False
    return True
