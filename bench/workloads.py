"""Seeded inputs, timed operations and oracles for the four workloads.

Every workload produces its inputs in rounds.  A round has a fixed
composition (sizes, prior counts, valid and violating cases); the seed
only picks the states, weights, cuts and perturbed entries inside each
slot.  Runs therefore always time the same mix, which keeps medians and
tails comparable between seeds and between commits.

``round`` yields a round's inputs one at a time and builds each when it
is asked for, so the benchmark holds one input at a time.  Each input is
a fresh object: ``Belief`` and ``StateSpace`` memoise per object, so
re-running an input would time cache hits that users never get.

An operation returns its result or raises; ``check`` then compares the
outcome with an oracle outside the operation's latency and returns
``(ok, text)``, where ``text`` is the canonical rendering fed to the
run's digest.  Every item carries ``expect``: ``"valid"`` when the checked
property holds, ``"violation"`` when the operation ends at a witness.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import beliefkit as bk
from beliefkit import Belief, Event, OSRepresentation, StateSpace, UpdatingRule

EPS_LEVELS = (Fraction(0), Fraction(1, 8), Fraction(1, 4))


@dataclass
class Item:
    expect: str
    data: object


# ---------------------------------------------------------------------------
# shared generators


def canonical_os(rng, n: int, parts: int, balanced: bool = False) -> OSRepresentation:
    """Hierarchy with disjoint supports covering the space.

    The same draw as ``tests/helpers.random_canonical_os``, except that the
    size and the number of priors are passed in, so rounds can be
    stratified.  ``balanced`` cuts the shuffled states into near-equal
    chunks instead of at random points.
    """
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    labels = list(space.states)
    rng.shuffle(labels)
    if balanced:
        cuts = [n * k // parts for k in range(1, parts)]
    else:
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


def corpus_strata(max_states: int = 8) -> list[tuple[int, int]]:
    """(|S|, priors) slots in the proportions of the acceptance corpus.

    The corpus draws |S| uniformly from 1..8 and the prior count uniformly
    from 1..min(|S|, 4); twelve slots per size reproduce that exactly.
    |S| = 1 is left out: its operations are trivially short, and as an
    eighth of the mix they would put every median on the boundary
    between two sizes instead of inside one.
    """
    return [
        (n, parts)
        for n in range(2, max_states + 1)
        for parts in range(1, min(n, 4) + 1)
        for _ in range(12 // min(n, 4))
    ]


def mask_mass(belief: Belief, mask: int) -> Fraction:
    return sum((m for i, m in enumerate(belief.mass) if mask >> i & 1), Fraction(0))


def perturb(rule: UpdatingRule, rng, band: tuple[float, float]) -> UpdatingRule | None:
    """Replace one entry by the uniform belief on its event, breaking the chain rule.

    The entry's event E must strictly contain two states {a, b} whose own
    conditional is not (1/2, 1/2); then P({a}|E) = 1/|E| differs from
    P({a}|{a,b}) P({a,b}|E), so the result is never a CPS.  ``band`` limits
    E to a slice of the canonical order, which fixes roughly how far the
    scan runs before it meets a witness.  None when no event qualifies.
    """
    space = rule.space
    n = len(space)
    half = Fraction(1, 2)
    skewed = [
        (1 << a) | (1 << b)
        for a in range(n)
        for b in range(a + 1, n)
        if rule[Event(space, (1 << a) | (1 << b))].mass[a] != half
    ]
    events = rule.events()
    lo, hi = int(band[0] * len(events)), int(band[1] * len(events))
    candidates = [
        e for e in events[lo:hi] if any(p & e.mask == p != e.mask for p in skewed)
    ]
    if not candidates:
        return None
    target = rng.choice(candidates)
    table = {e: rule[e] for e in events}
    table[target] = Belief.uniform_on(target)
    return UpdatingRule(space, table)


def belief_text(belief: Belief) -> str:
    return ",".join(f"{s}:{m}" for s, m in belief.items() if m)


def event_text(event: Event) -> str:
    return ",".join(event.members)


def rule_text(rule: UpdatingRule) -> str:
    return ";".join(f"{e.mask}={belief_text(rule[e])}" for e in rule.events())


def check_witness(rule: UpdatingRule, error) -> tuple[bool, str]:
    """Oracle for a rule expected to fail: NotCps with a genuine witness.

    lhs = P(G|E) and rhs = P(G|F) P(F|E) are recomputed from the table with
    Fractions, and must match the report and differ from each other.
    """
    if not isinstance(error, bk.NotCps) or error.validation is None:
        return False, f"expected NotCps, got {error!r}"
    v = error.validation
    w = v.witness
    if v.status != "violation" or w is None:
        return False, f"expected a violation, got {v.status}"
    lhs = mask_mass(rule[w.e], w.g.mask)
    rhs = mask_mass(rule[w.f], w.g.mask) * mask_mass(rule[w.e], w.f.mask)
    nested = w.g.mask & ~w.f.mask == 0 and w.f.mask & ~w.e.mask == 0 and w.f.mask
    ok = bool(nested) and lhs == w.lhs and rhs == w.rhs and lhs != rhs
    text = (
        f"violation {v.triples} e={event_text(w.e)} f={event_text(w.f)} "
        f"g={event_text(w.g)} lhs={w.lhs} rhs={w.rhs}"
    )
    return ok, text


# ---------------------------------------------------------------------------
# corpus: the traffic of acceptance criteria 3-6, plus perturbed tables


class Corpus:
    """Hierarchies drawn like the acceptance corpus, |S| <= 8, <= 4 priors.

    A valid op is the pipeline of criteria 3-6.  About one item in five
    is a two-prior table with one entry made uniform, five per size from
    4 to 8 states; its op is ``cps_to_os``, which must raise NotCps at a
    witness.  Supports are cut into near-equal chunks: with random cuts
    the cost of the heaviest slots (weight constructions grow with the
    square of a class's size) swings with the seed, and the tail with it.
    """

    name = "corpus"
    round_s = 4.0

    def __init__(self, tiny: bool):
        self.max_states = 4 if tiny else 8

    def _foil(self, rng, n: int) -> UpdatingRule:
        while True:
            h = canonical_os(rng, n, 2, balanced=True)
            rule = perturb(bk.os_rule(h), rng, (0.4, 0.6))
            if rule is not None:
                return rule

    def round(self, rng):
        slots = [("valid", n, parts) for n, parts in corpus_strata(self.max_states)]
        slots += [("violation", n, 2) for n in range(4, self.max_states + 1) for _ in range(5)]
        rng.shuffle(slots)
        for expect, n, parts in slots:
            if expect == "valid":
                yield Item("valid", canonical_os(rng, n, parts, balanced=True))
            else:
                yield Item("violation", self._foil(rng, n))

    def warmup(self, rng) -> list[Item]:
        items = [
            Item("valid", canonical_os(rng, n, min(n, 2), balanced=True))
            for n in range(2, self.max_states + 1)
        ]
        return items + [Item("violation", self._foil(rng, self.max_states))]

    def run(self, item: Item):
        if item.expect == "violation":
            return bk.cps_to_os(item.data)
        h = item.data
        rule = bk.os_rule(h)
        validation = bk.validate_cps(rule)
        recovered = bk.cps_to_os(rule)
        ht = bk.os_to_ht(recovered)
        ht_table = bk.ht_rule(ht)
        same = bk.rules_equal(ht_table, rule)
        per_eps = []
        for eps in EPS_LEVELS:
            built = bk.eps_os_construction(h, eps)
            per_eps.append((built, bk.ht_rule(built.ht), bk.surprise_partition(h, eps)))
        return rule, validation, recovered, ht, ht_table, same, per_eps

    def check(self, item: Item, result, error) -> tuple[bool, str]:
        if item.expect == "violation":
            return check_witness(item.data, error)
        if error is not None:
            return False, f"raised {error!r}"
        h = item.data
        rule, validation, recovered, ht, ht_table, same, per_eps = result
        n = len(h.space)
        ok = (
            validation.status == "valid"
            and validation.triples == 4**n - 2**n
            and recovered == h
            and ht_table == rule
            and bool(same)
        )
        parts = [
            f"valid {validation.triples}",
            "/".join(belief_text(p) for p in recovered.priors),
            ",".join(map(str, ht.rho)),
            rule_text(rule),
        ]
        for eps, (built, table, partition) in zip(EPS_LEVELS, per_eps):
            ok = ok and (eps != 0 or built.ht.eps == 0)
            ok = ok and all(winner < loser for winner, loser in built.edges)
            for e in h.space.events():
                try:
                    expected = bk.eps_os_update(h, eps, e)
                except bk.NoPriorExceedsThreshold:
                    expected = None
                if expected is None:
                    ok = ok and partition.class_of(e) is None
                else:
                    ok = ok and partition.class_of(e) is not None and table[e] == expected
            parts.append(
                f"eps={eps} t={built.ht.eps} x={built.cross_max} c={built.class_of} "
                f"d={built.edges} rho={','.join(map(str, built.ht.rho))} "
                f"k={[len(c) for c in partition.classes]} u={len(partition.undefined)}"
            )
            parts.append(rule_text(table))
        return ok, " | ".join(parts)


# ---------------------------------------------------------------------------
# axioms: the traffic of acceptance criterion 9


class Skewed:
    """A family whose conditionals blend the top prior back in.

    The same distortion as ``SkewedFamily`` in ``tests/test_preferences.py``:
    half the ex-ante mass stays put, so conditionals leak outside their
    event and the axiom checks must find a witness.
    """

    def __init__(self, fam: bk.PreferenceFamily):
        self._fam = fam
        self.os = fam.os

    @property
    def space(self):
        return self._fam.space

    def belief_given(self, e: Event) -> Belief:
        honest = self._fam.belief_given(e)
        prior = self._fam.os.priors[0]
        half = Fraction(1, 2)
        blended = {s: half * prior.mass_of(s) + half * honest.mass_of(s) for s in self.space.states}
        return Belief(self.space, {s: m for s, m in blended.items() if m})

    def utility_given(self, e: Event):
        return self._fam.utility_given(e)

    def shared_outcomes(self):
        return self._fam.shared_outcomes()


def affine_family(rng, h: OSRepresentation) -> bk.PreferenceFamily:
    """One utility per order, each a positive affine image of one base."""
    base = {"x": Fraction(0), "y": Fraction(1), "z": Fraction(rng.randint(2, 5))}
    utilities = []
    for k in range(len(h.priors)):
        scale = Fraction(1) if k == 0 else Fraction(rng.randint(1, 6), rng.randint(1, 3))
        shift = Fraction(0) if k == 0 else Fraction(rng.randint(-4, 4))
        utilities.append(bk.UtilityFunction({o: scale * v + shift for o, v in base.items()}))
    return bk.PreferenceFamily(h, utilities)


def seu(u, belief: Belief, act) -> Fraction:
    total = Fraction(0)
    for mass, lottery in zip(belief.mass, act.assignment):
        if mass:
            total += mass * sum((p * u.value(o) for o, p in lottery.items()), Fraction(0))
    return total


def verdict(fam, e: Event, f, g) -> bk.Preference:
    belief, u = fam.belief_given(e), fam.utility_given(e)
    a, b = seu(u, belief, f), seu(u, belief, g)
    return bk.Preference.FIRST if a > b else bk.Preference.SECOND if b > a else bk.Preference.INDIFFERENT


def act_text(act) -> str:
    return ";".join("+".join(f"{o}:{p}" for o, p in lot.items()) for lot in act.assignment)


class Axioms:
    """One family per corpus-style hierarchy; one in five distorted.

    An op runs the four checks over ``default_event_pairs`` and stops at
    the first witness.  Honest families pass everything.  The distorted
    ones take one slot of every (|S|, priors) pair with 4 to 8 states and
    two or more priors, since two priors guarantee a witness; they sit at
    every fifth position.
    """

    name = "axioms"
    round_s = 4.8

    def __init__(self, tiny: bool):
        self.max_states = 4 if tiny else 8

    def _items(self, rng, honest, distorted):
        rng.shuffle(honest)
        rng.shuffle(distorted)
        position = 0
        while honest or distorted:
            take_distorted = distorted and (position % 5 == 4 or not honest)
            n, parts = (distorted if take_distorted else honest).pop()
            fam = affine_family(rng, canonical_os(rng, n, parts))
            yield Item("violation", Skewed(fam)) if take_distorted else Item("valid", fam)
            position += 1

    def round(self, rng):
        honest = corpus_strata(self.max_states)
        distorted = [
            (n, parts) for n in range(4, self.max_states + 1) for parts in range(2, 5)
        ]
        for slot in distorted:
            honest.remove(slot)
        return self._items(rng, honest, distorted)

    def warmup(self, rng) -> list[Item]:
        return list(self._items(rng, [(n, 2) for n in range(2, 6)], [(self.max_states, 2)]))

    def run(self, item: Item):
        fam = item.data
        verdicts = []
        for e, a in bk.default_event_pairs(fam.os):
            result = bk.check_consequentialism(fam, e)
            verdicts.append(("consequentialism", e, a, result))
            if not result:
                return verdicts
            result = bk.check_conditional_consistency(fam, e, a)
            verdicts.append(("conditional_consistency", e, a, result))
            if not result:
                return verdicts
        result = bk.check_risk_independence(fam)
        verdicts.append(("risk_independence", None, None, result))
        if not result:
            return verdicts
        verdicts.append(("constant_act_agreement", None, None, bk.check_constant_act_agreement(fam)))
        return verdicts

    def check(self, item: Item, result, error) -> tuple[bool, str]:
        if error is not None:
            return False, f"raised {error!r}"
        fam = item.data
        passed = [bool(r) for _, _, _, r in result]
        if item.expect == "valid":
            ok = all(passed) and len(result) == 2 * len(bk.default_event_pairs(fam.os)) + 2
            fits = result[-2][3].coefficients or {}
            return ok, "pass " + ";".join(f"{k}={a},{b}" for k, (a, b) in sorted(fits.items()))
        name, e, a, last = result[-1]
        ok = all(passed[:-1]) and not passed[-1]
        text = f"{name} {len(result)}"
        if ok and name == "consequentialism":
            f, forced, said = last.witness
            ok = said is not bk.Preference.INDIFFERENT and verdict(fam, e, f, forced) is said
            text += f" {said.value} {act_text(f)} {act_text(forced)}"
        elif ok and name == "conditional_consistency":
            f, g, h, under_e, under_a = last.witness
            left_f, left_g = bk.compose_act(f, a, h), bk.compose_act(g, a, h)
            ok = (
                under_e is not under_a
                and verdict(fam, e, left_f, left_g) is under_e
                and verdict(fam, a, f, g) is under_a
            )
            text += f" {under_e.value} {under_a.value} {act_text(f)} {act_text(g)} {act_text(h)}"
        else:
            ok = False
        return ok, text


# ---------------------------------------------------------------------------
# wide: decompose at |S| = 10..12


class Wide:
    """Valid and violating rules at |S| in {10, 11, 12}, one ``cps_to_os`` each.

    Valid rules are ``os_rule`` tables of a single prior (every event gets
    its own posterior, 2^n - 1 subset rows) and of three priors on
    near-equal chunks.  Violating rules are such tables with one entry,
    taken from the middle tenth of the canonical order, made uniform.

    The mix is set so that each median and the tail fall inside a block
    of alike cases, never in the gap between two blocks: four single-prior
    valid rules at |S| = 10 hold the valid median, ten single-prior
    violating ones the violation median, the overall median and the tail,
    and three-prior rules at 10, 11 and 12 the ends.  Valid and violating
    cases alternate, so both meet the same host conditions.  Single
    priors stop at |S| = 10: at 11 and 12 one decompose takes 1.7 s and
    over 5 s, which three passes per run cannot afford.
    """

    name = "wide"
    round_s = 6.4
    band = (0.45, 0.55)

    def __init__(self, tiny: bool):
        if tiny:
            valid = ((5, 1),) * 2 + ((5, 3), (6, 3), (7, 3))
            violating = ((5, 1),) * 3 + ((6, 3), (7, 3))
        else:
            valid = ((10, 1),) * 4 + ((10, 3),) * 3 + ((11, 3), (12, 3))
            violating = ((10, 1),) * 10 + ((10, 3),) * 4 + ((11, 3), (12, 3))
        self.cases = []
        for pair in zip_longest(valid, violating):
            for case, expect in zip(pair, ("valid", "violation")):
                if case is not None:
                    self.cases.append((*case, expect))

    def _item(self, rng, n: int, parts: int, expect: str) -> Item:
        while True:
            h = canonical_os(rng, n, parts, balanced=True)
            rule = bk.os_rule(h)
            if expect == "valid":
                return Item("valid", (h, rule))
            broken = perturb(rule, rng, self.band)
            if broken is not None:
                return Item("violation", (h, broken))

    def round(self, rng):
        for n, parts, expect in self.cases:
            yield self._item(rng, n, parts, expect)

    def warmup(self, rng) -> list[Item]:
        n = self.cases[0][0]
        return [self._item(rng, n, 3, "valid"), self._item(rng, n, 1, "violation")]

    def run(self, item: Item):
        return bk.cps_to_os(item.data[1])

    def check(self, item: Item, result, error) -> tuple[bool, str]:
        h, rule = item.data
        if item.expect == "violation":
            return check_witness(rule, error)
        if error is not None:
            return False, f"raised {error!r}"
        ok = result == h and bk.os_rule(result) == rule
        return ok, "valid " + "/".join(belief_text(p) for p in result.priors)


# ---------------------------------------------------------------------------
# cli: one fresh interpreter per call

# The same runner as acceptance criterion 10 (the module has no __main__
# block, so ``python -m beliefkit.cli`` would print nothing), plus a
# report of the child's peak resident memory, read from VmHWM when the
# call is done.  The child's ru_maxrss would not do: Linux carries the
# parent's peak into a forked child, and the benchmark process is the
# larger of the two.
RUNNER = """\
import os, sys
from beliefkit.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
with open(os.environ["BENCH_PEAK_KIB"], "w") as out:
    out.write(peak)
sys.exit(code)
"""

FIXTURE_CALLS = (
    (("validate-cps", "coin"), 0),
    (("validate-cps", "ht_counterexample"), 1),
    (("decompose", "coin"), 0),
    (("update", "coin", "--os", "--event", "el,l1,l2"), 0),
    (("eps-update", "coin", "--eps", "1/4", "--event", "el,l1,l2"), 0),
    (("os-to-ht", "coin"), 0),
    (("eps-os-to-ht", "coin", "--eps", "1/4"), 0),
    (("ht-select", "ht_counterexample", "--event", "e,el,l1,l2"), 0),
    (("lps-compare", "lps_demo", "--acts", "f_v1,g", "--event", "e,el"), 0),
    (("check-axioms", "lps_demo"), 0),
    (("conservative", "conservative", "--delta", "1/2"), 1),
    (("partition", "coin", "--eps", "1/4"), 0),
)


def scenario_doc(rng, n: int, parts: int) -> tuple[dict, str, list[str]]:
    """A scenario with every block, its event argument and its utility names.

    The ``ht`` weights follow the ``os_to_ht`` construction, so selection
    never ties; each order's utility is an affine image of the base one,
    so check-axioms passes.
    """
    h = canonical_os(rng, n, parts)
    space = h.space.states
    names = [f"mu{k}" for k in range(parts)]
    weights = [Fraction(1)]
    for prior in h.priors[:-1]:
        weights.append(weights[-1] * min(m for m in prior.mass if m) / 2)
    total = sum(weights)
    utilities = {
        "base": {"$0": "0", "$1": "1", "$2": "2"},
        "scaled": {"$0": "1", "$1": "4", "$2": "7"},
    }
    pay = ("$0", "$1", "$2")
    acts = {
        name: {s: {rng.choice(pay): "1"} for s in space} for name in ("f", "g")
    }
    anchor = rng.choice(h.priors).support_mask
    extra = sum(1 << i for i in range(n) if rng.random() < 0.3)
    event = [space[i] for i in range(n) if (anchor | extra) >> i & 1]
    doc = {
        "space": list(space),
        "beliefs": {
            name: {s: str(m) for s, m in prior.items() if m} for name, prior in zip(names, h.priors)
        },
        "os": names,
        "ht": {"priors": names, "rho": [str(w / total) for w in weights], "eps": "0"},
        "lps": names,
        "utilities": utilities,
        "acts": acts,
    }
    return doc, ",".join(event), ["base"] + ["scaled"] * (parts - 1)


def scenario_calls(path: str, event: str, per_order: list[str]) -> list[tuple[tuple[str, ...], int]]:
    return [
        (("validate-cps", path, "--os"), 0),
        (("decompose", path, "--os"), 0),
        (("update", path, "--event", event), 0),
        (("eps-update", path, "--eps", "1/4", "--event", event), 0),
        (("os-to-ht", path), 0),
        (("eps-os-to-ht", path, "--eps", "1/4"), 0),
        (("ht-select", path, "--event", event), 0),
        (("lps-compare", path, "--acts", "f,g", "--utility", "base", "--event", event), 0),
        (("check-axioms", path, "--utilities", ",".join(per_order)), 0),
        (("conservative", path, "--delta", "1/2", "--prior", "mu0"), 1),
        (("partition", path, "--eps", "1/4"), 0),
    ]


class Cli:
    """Criterion 10's calls on the fixtures, plus the same subcommands on
    scenario files written from the seed, each in both formats.

    One child interpreter at a time.  Every pass of a run repeats the same
    calls on the same files, so each call's stdout is compared across
    repeats.
    """

    name = "cli"
    round_s = 6.0

    def __init__(self, tiny: bool, root: Path, work: Path):
        self.root = root
        self.work = work
        # (|S|, priors) per generated scenario file
        self.slots = ((3, 2),) if tiny else ((7, 3),)
        self.peak_file = work / "child_peak_kib.txt"
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            PYTHONHASHSEED="0",
            BENCH_PEAK_KIB=str(self.peak_file),
        )
        self.peak_kib = 0
        self.tracer = None  # set by the traced run: calls go through cli_child.py

    def _write(self, rng, tag: str) -> list[tuple[tuple[str, ...], int]]:
        self.work.mkdir(parents=True, exist_ok=True)
        calls = []
        for n, parts in self.slots:
            doc, event, per_order = scenario_doc(rng, n, parts)
            text = json.dumps(doc, indent=2) + "\n"
            # named by content: every pass of a run rewrites the same files
            path = self.work / f"{tag}-{hashlib.sha256(text.encode()).hexdigest()[:12]}.json"
            path.write_text(text)
            calls += scenario_calls(str(path.relative_to(self.root)), event, per_order)
        return calls

    def _items(self, calls) -> list[Item]:
        return [
            Item("valid" if code == 0 else "violation", (argv + ("--format", fmt), code))
            for argv, code in calls
            for fmt in ("text", "json")
        ]

    def round(self, rng):
        yield from self._items(list(FIXTURE_CALLS) + self._write(rng, "scenario"))

    def warmup(self, rng) -> list[Item]:
        return self._items(self._write(rng, "warmup")[:1])

    def run(self, item: Item):
        argv = item.data[0]
        spans = self.work / "child_spans.json"
        if self.tracer is None:
            prefix = [sys.executable, "-c", RUNNER]
        else:
            prefix = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(spans)]
        self.peak_file.unlink(missing_ok=True)
        proc = subprocess.run(
            [*prefix, *argv], stdin=subprocess.DEVNULL, capture_output=True, env=self.env, cwd=self.root
        )
        if self.tracer is None and self.peak_file.exists():
            self.peak_kib = max(self.peak_kib, int(self.peak_file.read_text()))
        if self.tracer is not None:
            self.tracer.absorb(json.loads(spans.read_text()))
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, item: Item, result, error) -> tuple[bool, str]:
        argv, expected = item.data
        if error is not None:
            return False, f"raised {error!r}"
        code, out, stderr = result
        ok = code == expected and stderr == b""
        return ok, f"$ {' '.join(argv)}\n{code}\n{out.decode(errors='replace')}"
