"""Updating rules as a prior list plus the entries that depart from it, and the CPS validator.

An updating rule maps conditioning events to posterior beliefs.  A rule is a
conditional probability system (CPS) when it is complete (defined on every
nonempty event), concentrated (P(E|E) = 1), and satisfies the chain rule

    P(G|E) = P(G|F) * P(F|E)   for all G <= F <= E with F nonempty.

Every hierarchy of priors induces a CPS, and every CPS is induced by the
hierarchy peeled from it (Myerson 1986).  So ``validate_cps`` peels the rule
and certifies, in integers, that each entry is the peel's update: that
proves the chain rule on all 4^n - 2^n triples without enumerating them.
An update depends only on the event's trace on its prior's support, so
the certificate tests each entry against the update the prior keeps for
its trace (``core.kept_traces``), or the prior itself on its whole
support: by identity where the rule holds that posterior, as a rule
tabulated on the same prior does, and by integer equality elsewhere.
Peel k's entries are the events q | r, q in its traces Q_k and r in the
sets R_k of later states, all |Q_k| |R_k| of them listed, read and
compared in one C-level table read and one tuple comparison, so the
Python steps grow with the number of peels alone.  A block that fails
is compared again in slices of 16 entries at C speed, and only a slice
that differs is listed in Python.
All later work grows with n and the set U of uncertified entries, not
with 2^n: concentration is checked on the peeled entries and on U alone,
and where an entry fails, a heap search from U finds the first violating
triple under the canonical event order, the one an exhaustive scan would
report, and places it in that scan in closed form.

Two states witness any violation: a complete, concentrated rule is a CPS
iff the chain rule holds at every E, two-state F = {a, c} inside it and
G = {a}, O(n^2 2^n) tests.  Let the rule fail at (E, F).  Then
P(F|E) > 0, else both sides vanish, so p = b_E(.|F) and q = b_F differ.
Take c with q(c) > 0, and a with p(a) > 0 if p(c) = 0, else with
p(a) / p(c) != q(a) / q(c), as p != q.  Both give {a, c} positive mass,
so the chain rule at (E, {a, c}) and at (F, {a, c}) would make b_{a,c}
both p and q restricted to {a, c}, which differ.  So one pair breaks, and
at G = {a}: its tests at {a} and {c} sum to the one at {a, c}, which
concentration passes.

Every rule has one shape: the blocks of an ordered prior list, built by
``tabulate_traces`` as the OS rule of the list (see ``UpdatingRule``), and
exceptions, entries by mask that are read first.  ``os_rule`` and
``bayesian_rule`` are blocks alone, ``UpdatingRule(space, mapping)`` and
``conservative_rule`` exceptions alone, and ``ht_rule`` its top prior's
block plus the events that prior rejects.  A block's entries are the CPS
its list induces: each is an update on a trace inside its event, so
concentrated, and the entry on the states before update k is update k.
So ``is_concentrated`` reads only the exceptions, and ``validate_cps``
only those on the blocks its peel follows; the regions past them (all of
a table, an ``ht`` rule's events outside the top support) get the full
certificate, so U and every witness are those of the table of the same
entries.  A block reads its entries in place from its update's kept map
(``core.kept_traces``), so a later tabulation on the same prior builds
no belief, and the entry on the whole support is the update itself.
Entries are stored by mask; ``Event``s are built only where a caller
asks for one.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain, compress, count, filterfalse, product, starmap
from operator import itemgetter, ne, or_
from typing import Iterable, Mapping, NamedTuple

from .core import (
    Belief,
    CheckResult,
    Event,
    StateSpace,
    as_fraction,
    kept_traces,
    kept_update,
    lex_submasks,
    mask_indices,
)
from .errors import BadDelta, EmptyEvent, OutsideDomain, SpaceMismatch


class UpdatingRule:
    """An immutable rule from conditioning events to beliefs: a prior list's blocks, and exceptions.

    ``_blocks`` holds (support, update, traces) per update of the list, in
    order, ``traces`` being the update's own kept map (``core.kept_traces``)
    from each nonempty proper submask q of the support to the update's
    posterior on q, read in place; the update itself is the posterior on
    the whole support.  That posterior is the entry on every q | r, r among
    the states the update leaves unheld.  ``_exceptions`` holds entries by
    mask.  A read (``[]``, ``get``, ``in``) takes the exception on the
    event, else its trace's posterior on the first support it meets.  The
    domain is counted once, when the rule is built.  Anything but an event
    over an equal state space is outside the domain.
    """

    __slots__ = ("space", "_blocks", "_exceptions", "_size")

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
        self._init(space, (), checked)

    def _init(self, space: StateSpace, blocks: tuple, exceptions: dict) -> "UpdatingRule":
        # the one initializer: blocks on disjoint supports, and exceptions keyed by
        # nonempty masks over ``space`` with beliefs over it; the domain is every
        # event meeting a block, and each exception past them
        held = sum([support for support, _, _ in blocks])
        n = len(space)
        self.space = space
        self._blocks = blocks
        self._exceptions = exceptions
        past = len(list(filterfalse(held.__and__, exceptions)))
        self._size = (1 << n) - (1 << n - held.bit_count()) + past
        return self

    def _entry(self, mask: int) -> Belief | None:
        """The belief on ``mask``: its exception, else from the first block meeting it, else None."""
        belief = self._exceptions.get(mask)
        if belief is None:
            for support, update, traces in self._blocks:
                if mask & support:
                    return traces.get(mask & support, update)
        return belief

    def events(self) -> tuple[Event, ...]:
        """Domain events in canonical order."""
        masks = self.space.canonical_masks()
        if len(self) < len(masks):  # some event is outside the domain
            masks = compress(masks, map(self._entry, masks))
        return tuple([Event(self.space, mask) for mask in masks])

    def __getitem__(self, event: Event) -> Belief:
        belief = self.get(event)
        if belief is None:
            raise OutsideDomain(f"{event!r} is outside the rule's domain")
        return belief

    def get(self, event: Event, default=None):
        if isinstance(event, Event) and (event.space is self.space or event.space == self.space):
            belief = self._entry(event.mask)
            if belief is not None:
                return belief
        return default

    def __contains__(self, event: Event) -> bool:
        return self.get(event) is not None

    def __len__(self) -> int:
        return self._size

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UpdatingRule)
            and self.space == other.space
            and not _differences(self, other)
        )

    __hash__ = None  # left unhashable: a hash would walk the whole domain

    def __repr__(self) -> str:
        return f"UpdatingRule(<{len(self)} events over {len(self.space)} states>)"


def _region(rule: UpdatingRule, mask: int) -> dict[int, Belief | None]:
    """The rule's entry on every nonempty submask of ``mask``, None off its domain, by mask."""
    masks = lex_submasks(mask)[1:]
    return dict(zip(masks, map(rule._entry, masks)))


def is_complete(rule: UpdatingRule) -> bool:
    """True when the domain is every nonempty event of the space."""
    return len(rule) == (1 << len(rule.space)) - 1


def is_concentrated(rule: UpdatingRule) -> CheckResult:
    """Check P(E|E) = 1 on the whole domain; witness the first failure.

    A block's entry on q | r is its update on the trace q, whose support
    is q, so only the exceptions are read, in any order, and only when
    some event fails is the canonically first failure picked out.
    """
    failed = [mask for mask, belief in rule._exceptions.items() if belief.support_mask & ~mask]
    if failed:
        return CheckResult(False, Event(rule.space, min(failed, key=mask_indices)))
    return CheckResult(True)


def tabulate_traces(
    space: StateSpace,
    priors: Iterable[Belief],
    rest: Iterable[tuple[int, Belief]] = (),
) -> UpdatingRule:
    """The OS rule of the ordered ``priors``, with ``rest``'s (mask, belief) pairs as exceptions.

    A prior holding states no earlier prior holds is updated on the states
    still unheld, which is the prior itself when supports are disjoint,
    and kept on the prior otherwise (``core.kept_update``).  That update's
    kept map is filled or read now (``core.kept_traces``), and the block
    reads it in place, so reading the rule builds no belief.
    Its posterior on q is the entry on every q | r: q a nonempty submask
    of its support, r a submask of the states it leaves unheld.  ``rest``
    is read after the blocks are built, and overrides them.
    """
    space.check_enumerable()
    blocks = []
    unheld = (1 << len(space)) - 1
    for prior in priors:
        if not prior.support_mask & unheld:
            continue
        update = kept_update(prior, unheld)
        unheld ^= update.support_mask
        blocks.append((update.support_mask, update, kept_traces(update)))
    return object.__new__(UpdatingRule)._init(space, tuple(blocks), dict(rest))


def bayesian_rule(prior: Belief) -> UpdatingRule:
    """Bayes updating wherever it is defined: domain is the feasible events."""
    return tabulate_traces(prior.space, [prior])


def conservative_rule(prior: Belief, delta: Fraction | int) -> UpdatingRule:
    """Sticky updating: keep ``delta`` of the prior, update the rest.

    The rest is the OS rule of the hierarchy (prior, uniform on the null
    states): the Bayes posterior on a feasible event, the uniform belief
    over a null one.  Each trace's posterior is mixed once, and the mix is
    the entry on every event of the trace's block, all held as exceptions.
    Complete but not concentrated for delta < 1 on any non-certain event,
    which is exactly what makes it a useful non-CPS foil.
    """
    delta = as_fraction(delta)
    if not 0 < delta <= 1:
        raise BadDelta(f"delta must lie in (0, 1], got {delta}")
    space = prior.space
    null = (1 << len(space)) - 1 & ~prior.support_mask
    priors = [prior, Belief.uniform_on(Event(space, null))] if null else [prior]
    mixed: dict[int, Belief] = {}
    unheld = (1 << len(space)) - 1
    for support, update, traces in tabulate_traces(space, priors)._blocks:
        unheld ^= support
        rs = lex_submasks(unheld)
        for q, posterior in [*traces.items(), (support, update)]:
            mixed.update(dict.fromkeys(map(q.__or__, rs), prior.mix(delta, posterior)))
    return object.__new__(UpdatingRule)._init(space, (), mixed)


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
    complete or not concentrated.  The rule is peeled from the full space,
    and each event's belief is certified as the Bayes update of the first
    peeled prior k meeting it, which is k's update on the trace
    q = E & s_k: the posterior the prior's kept map holds for q
    (``core.kept_traces``), or the prior itself when q = s_k.  While
    each peeled prior is the update of the rule's next block, that block
    holds exactly those posteriors, so only the exceptions on it are read:
    one pass per such block over the exceptions no earlier one holds, and
    one list comparison.  A rule of blocks alone thus makes one lookup per
    block.  Past the blocks (from the full space when the rule has none)
    the peel reads every entry, through the blocks still ahead if an
    exception turned it off them.  A peeled prior that a tabulator walked
    already keeps its posteriors, and any other builds the 2^|s_k| - 2 its
    map lacks once and keeps them, so a second call on the same rule
    builds no belief.  The events q | r of peel k, q in the traces Q_k
    and r in the sets R_k of later states, are certified by ``_misses``
    in one table read and one tuple comparison at C speed, a constant
    number of Python steps per peel.  A failing peel compares its
    entries in slices of ``_WIDTH`` at C speed and lists only the slices
    that differ, so the uncertified entries U take O(|U| ``_WIDTH``) more
    Python steps, and each entry is compared at most twice more.  All
    certified proves the rule is the one the peeled hierarchy induces,
    hence a CPS: valid, with the peeled priors, and ``triples`` counts
    all 4^n - 2^n triples as certified for n states.  Concentration is
    checked only where it can fail: on each peeled entry, and on U.
    Otherwise the first violating triple in canonical (E, F, G) order,
    with the number of triples an exhaustive scan enumerates up to and
    including it: O(|U| n) heap steps, plus the pair tests of each
    uncertified E met before it, and a closed-form count.
    """
    if not is_complete(rule):
        return CpsValidation.not_candidate("not complete")

    space = rule.space
    n = len(space)
    space.check_enumerable()
    blocks, exceptions = rule._blocks, rule._exceptions
    rest = (1 << n) - 1
    priors: list[Belief] = []
    peels: list[int] = []  # A_k, the states s_0 ... s_{k-1} leave
    uncertified: list[int] = []
    # The peel follows the blocks while each peeled prior is the next
    # block's update: that block then holds the very posteriors the
    # certificate expects, so only the exceptions on it are read.
    pending = exceptions  # those on no block followed so far
    for support, update, traces in blocks:
        if exceptions.get(rest, update) is not update:
            break
        if pending:
            here = [mask for mask in pending if mask & support]
            pending = [mask for mask in pending if not mask & support]
            expected = [traces.get(mask & support, update) for mask in here]
            uncertified += _unequal(here, map(exceptions.__getitem__, here), expected)
        priors.append(update)
        peels.append(rest)
        rest ^= support
    # Past them, peel, and certify E's entry as the update of the first
    # peeled prior k meeting E on its trace q = E & s_k: E = q | r, r past
    # k, must hold, or equal, k's kept posterior on q (k itself on s_k).
    # Where blocks lie ahead, their entries are read through them.
    table = exceptions if len(priors) == len(blocks) else _region(rule, rest)
    while rest:
        prior = table[rest]
        support = prior.support_mask
        if support & ~rest:
            return CpsValidation.not_candidate("not concentrated")
        priors.append(prior)
        peels.append(rest)
        rest &= ~support
        uncertified += _misses(prior, lex_submasks(rest), table)
    if not uncertified:
        return CpsValidation.valid(4**n - 2**n, tuple(priors))
    read = rule._entry
    if any(read(f).support_mask & ~f for f in uncertified):
        return CpsValidation.not_candidate("not concentrated")

    # Search, in canonical (E, F) order.  Certified entries are updates,
    # hence concentrated, and a pair of them obeys the chain rule.  A
    # certified E with first prior k holds mu_k | E, so (E, F) breaks it iff
    # F is uncertified and meets s_k (else P(F|E) = 0): F breaks its
    # certified supersets inside A_k, the first at or after A_k & [0, max F].
    # One heap keyed (E, F): each uncertified E, with F = 0 so that it
    # comes first at E, tests its pairs (a pair breaks iff a singleton
    # does); each F's walk stands at its next superset and moves on past
    # tested uncertified E.  A_k is certified, so every walk ends.
    from heapq import heapify, heappop, heappush  # loaded only on this path

    pending = set(uncertified)
    heap = [(mask_indices(e), [], e, 0, 0) for e in uncertified]
    for f in uncertified:
        a = [a for a in peels if f & a == f][-1]  # A_k, k the first prior meeting F
        e = a & (1 << f.bit_length()) - 1
        heap.append((mask_indices(e), mask_indices(f), e, f, a))
    heapify(heap)
    while True:
        _, f_key, e, f, a = heappop(heap)
        if not f:
            given = read(e)
            for f in lex_submasks(e)[1:]:
                if _first_break(given, read(f), f, [1 << i for i in mask_indices(f)]) is not None:
                    return _violation(space, read, e, f)
        elif e in pending:
            e = _next_superset(e, f, a)
            heappush(heap, (mask_indices(e), f_key, e, f, a))
        else:
            return _violation(space, read, e, f)


def _next_superset(e: int, f: int, a: int) -> int:
    """The superset of ``f`` inside ``a`` after ``e``, one too, in canonical order.

    That is e's first child in the prefix tree, or else the next sibling of
    the first state e drops, climbing, that is not in f, filled to f's top.
    """
    past = a >> e.bit_length() << e.bit_length()
    if past:
        return e | past & -past
    while True:
        top = 1 << e.bit_length() - 1
        e ^= top
        later = a & -(top << 1)
        if later and not top & f:
            return e | later & -later | later & (1 << f.bit_length()) - 1


def _ahead(xs: list[int], c: int, n: int) -> int:
    """Sum of c^|D| over the nonempty D of n states before X = ``xs`` in canonical order.

    They are X's proper prefixes, c + ... + c^(|X| - 1), which is
    (c^|X| - c) / (c - 1) for c > 1, and each prefix x_1 .. x_j joined to
    a y in (x_j, x_{j+1}) and any later states: a geometric series in y,
    c^j ((1 + c)^(n - 1 - x_j) - (1 + c)^(n - x_{j+1})) with x_0 = -1.
    Each power is carried from one term to the next.
    """
    base = 1 + c
    total, power, high = 0, 1, base**n  # c^j and (1 + c)^(n - 1 - x_j), x_0 = -1
    for x in xs:
        low = base ** (n - x)
        total += power * (high - low)
        power, high = power * c, low // base
    prefixes = (power - c) // (c - 1) if c != 1 else len(xs) - 1
    return total + prefixes


def _first_break(given_e: Belief, given_f: Belief, f: int, gs) -> int | None:
    """Index of the first G in ``gs`` with P(G|E) != P(G|F) P(F|E), or None."""
    den_f, f_num = given_f.den, given_e.mask_num(f)
    for position, g in enumerate(gs):
        if given_e.mask_num(g) * den_f != given_f.mask_num(g) * f_num:
            return position
    return None


def _violation(space: StateSpace, read, e: int, f: int) -> CpsValidation:
    """The first violating triple of the failing pair (E, F), ``read`` giving entries by mask.

    F's prefixes come first among its submasks, and the per-state terms
    of the test sum to zero over F, so the first G to break is a prefix.
    """
    given_e, given_f = read(e), read(f)
    gs = list(accumulate([1 << i for i in mask_indices(f)]))
    position = _first_break(given_e, given_f, f, gs)  # not None: the pair fails
    g = gs[position]
    states = mask_indices(e)
    inside = [j for j, i in enumerate(states) if f >> i & 1]
    n = len(space)
    # 3^|D| - 1 triples for each D before E, 2^|F'| for each F' before F in E
    before = _ahead(states, 3, n) - _ahead(states, 1, n) + _ahead(inside, 2, len(states))
    den_e, den_f = given_e.den, given_f.den
    witness = CpsWitness(
        g=Event(space, g),
        f=Event(space, f),
        e=Event(space, e),
        lhs=Fraction(given_e.mask_num(g), den_e),
        rhs=Fraction(given_f.mask_num(g) * given_e.mask_num(f), den_f * den_e),
    )
    return CpsValidation.violation(witness, before + position + 2)


def _misses(prior: Belief, rs, table: dict) -> list[int]:
    """The events q | r of ``prior``'s block, r in ``rs``, whose entry is not q's update.

    q runs over the nonempty submasks of the support: its kept traces
    (``core.kept_traces``), whose updates the prior's map holds, and then
    the support, whose update is the prior.  The block's keys are listed,
    r by r, at C speed (its traces' own keys when ``rs`` is (0,)), read
    from ``table``, which holds every event of the block, in one C call,
    and compared with the expected updates in one tuple comparison,
    identity first.  Only a block that fails lists its misses, through
    ``_differing``: O(``_WIDTH``) Python steps per miss, and at most two
    more comparisons per entry.
    """
    traces = kept_traces(prior)
    qs = (*traces, prior.support_mask)
    keys = qs if rs == (0,) else tuple(starmap(or_, product(rs, qs)))
    # ``itemgetter`` of one key would read a bare entry
    held = itemgetter(*keys)(table) if len(keys) > 1 else (table[keys[0]],)
    expected = (*traces.values(), prior) * len(rs)
    return [] if held == expected else [keys[i] for i in _differing(held, expected)]


def _unequal(masks: list[int], held: Iterable, expected: Iterable) -> list[int]:
    """The masks whose entry in ``held`` neither is nor equals the one in ``expected``, in order."""
    held, expected = list(held), list(expected)
    return [] if held == expected else [masks[i] for i in _differing(held, expected)]


_WIDTH = 16  # entries per slice in which a failing block is compared at C speed


def _differing(held, expected) -> list[int]:
    """Positions where ``held`` differs from ``expected``, sequences of one length that differ.

    An entry differs unless it is, or equals, its expected one.  Both are
    cut into slices of ``_WIDTH`` entries, which are compared pairwise in
    one pass at C speed, and only a slice that differs is listed entry by
    entry, so m differences take O(m ``_WIDTH``) Python steps however
    long the sequences.  A slice comparison stops at its first difference,
    so each entry is compared at most twice here; with the whole
    comparison that found them differing, one difference in n entries
    costs at most 2n + ``_WIDTH`` comparisons.
    """
    tail = len(held) - len(held) % _WIDTH  # a last slice short of _WIDTH, compared alone
    slices = map(ne, zip(*[iter(held)] * _WIDTH), zip(*[iter(expected)] * _WIDTH))
    starts = compress(count(0, _WIDTH), slices)
    if held[tail:] != expected[tail:]:
        starts = chain(starts, [tail])
    return [
        i
        for lo in starts
        for i, h, x in zip(count(lo), held[lo : lo + _WIDTH], expected[lo : lo + _WIDTH])
        if h is not x and h != x
    ]


def _differences(a: UpdatingRule, b: UpdatingRule) -> list[int]:
    """Every event on which ``a`` and ``b`` differ, an event outside a domain read as None.

    Let ``a`` be the rule holding more blocks.  On the blocks both rules
    open with (equal updates) their entries agree but for the exceptions.
    Past those, b's entries are its exceptions when b is complete and has
    no more blocks, and else each is read once through b's blocks; a's
    blocks are read against them a block at a time at C speed, a's own
    exceptions aside, and the events past a's blocks on both sides.  When
    neither rule holds a block, those events are every event, so both
    rules are their exceptions: the two dicts are compared at C speed, and
    only when they differ are the table's own keys listed.  The
    exceptions on the blocks read so far, a's and those b holds on the
    shared blocks, are compared one by one.  An event may be listed twice.
    """
    if len(b._blocks) > len(a._blocks):
        a, b = b, a
    full = rest = (1 << len(a.space)) - 1
    shared = 0
    for (s, ours, _), (_, theirs, _) in zip(a._blocks, b._blocks):
        if ours is not theirs and ours != theirs:
            break
        rest ^= s
        shared += 1
    common = full ^ rest
    # b's entries past the shared blocks: its exceptions, when they hold them all
    table = b._exceptions if len(b._blocks) == shared and is_complete(b) else _region(b, rest)
    mine = a._exceptions
    differs: list[int] = []
    for support, update, _ in a._blocks[shared:]:
        rest ^= support
        misses = _misses(update, lex_submasks(rest), table)
        differs += filterfalse(mine.__contains__, misses)
    held = full ^ rest
    # with no block held both rules are their exceptions, and the table's keys every event
    masks = lex_submasks(rest)[1:] if held else [*table] if mine != table else []
    differs += _unequal(masks, map(mine.get, masks), map(table.__getitem__, masks))
    excepted = [*filter(held.__and__, mine), *filter(common.__and__, b._exceptions)] if held else []
    return differs + _unequal(excepted, map(a._entry, excepted), map(b._entry, excepted))


def rules_equal(a: UpdatingRule, b: UpdatingRule) -> CheckResult:
    """Compare two rules on every nonempty event; witness the first difference.

    An event missing from either rule counts as a difference, and the
    first difference is the canonically least.  Two rules of equal blocks
    compare their exceptions alone; past the blocks they share, the rule
    holding more is read a block at a time against the other
    (``_differences``).
    """
    if a.space != b.space:
        raise SpaceMismatch("rules built over different state spaces")
    differs = _differences(a, b)
    if not differs:
        return CheckResult(True)
    return CheckResult(False, Event(a.space, min(differs, key=mask_indices)))
