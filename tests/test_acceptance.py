"""The acceptance battery: one test per shipped claim, all exact.

Each test is numbered and independent; the conftest summary hook prints a
PASS/FAIL line per criterion at the end of a run.  Everything here is
zero-tolerance: values are compared as Fractions or as whole byte strings,
never with approximations.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from beliefkit import (
    Belief,
    NoPriorExceedsThreshold,
    Preference,
    PreferenceFamily,
    UtilityFunction,
    check_conditional_consistency,
    check_consequentialism,
    check_risk_independence,
    conservative_rule,
    cps_to_os,
    default_event_pairs,
    eps_os_construction,
    eps_os_update,
    ht_rule,
    ht_select,
    is_complete,
    is_concentrated,
    load_scenario,
    lps_compare,
    os_prefer,
    os_rule,
    os_to_ht,
    os_update,
    rules_equal,
    surprise_partition,
    validate_cps,
)
from beliefkit.cli import main
from helpers import coin_hierarchy
from test_preferences import SkewedFamily, two_level_family


def test_criterion_01_coin_update_is_exact_and_fast(capsys):
    started = time.perf_counter()
    code = main(["update", "coin", "--os", "--event", "el,l1,l2"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 0
    assert out == "order\t1\nbelief\tel:1\n"
    assert elapsed < 1.0

    coin = coin_hierarchy()
    event = coin.space.event("el", "l1", "l2")
    assert os_update(coin, event) == Belief(coin.space, {"el": 1})


def test_criterion_02_skewed_weights_reproduce_the_counterexample():
    scenario = load_scenario("ht_counterexample")
    ht = scenario.ht
    assert ht.rho == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    assert ht.eps == 0
    space = scenario.space

    trace_a, _ = ht_select(ht, space.event("el", "l1", "l2"))
    assert trace_a.chosen == 2
    assert trace_a.scores[1] == Fraction(1, 24)
    assert trace_a.scores[2] == Fraction(1, 6)
    assert trace_a.scores[1] < trace_a.scores[2]

    trace_e, _ = ht_select(ht, space.event("e", "el", "l1", "l2"))
    assert trace_e.chosen == 1
    assert trace_e.scores[1] == Fraction(1, 3)
    assert trace_e.scores[2] == Fraction(1, 6)
    assert trace_e.scores[1] > trace_e.scores[2]

    rule = ht_rule(ht)
    report = validate_cps(rule)
    assert report.status == "violation"
    w = report.witness
    assert w.lhs == Fraction(1, 8)
    assert w.rhs == 0
    assert rule[w.f].prob(w.g) == 0
    assert rule[w.e].prob(w.f) == Fraction(1, 8)
    assert w.lhs != rule[w.f].prob(w.g) * rule[w.e].prob(w.f)


def test_criterion_03_corpus_rules_are_all_valid_cps(corpus):
    assert len(corpus) == 500
    assert all(len(hier.space) <= 8 for hier in corpus)
    started = time.perf_counter()
    for hier in corpus:
        report = validate_cps(os_rule(hier))
        assert report.status == "valid"
        assert report.triples == 4 ** len(hier.space) - 2 ** len(hier.space)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0


def test_criterion_04_round_trip_is_table_exact(corpus):
    for hier in corpus:
        rule = os_rule(hier)
        recovered = cps_to_os(rule)
        assert recovered == hier
        assert rules_equal(os_rule(recovered), rule)

    coin = coin_hierarchy()
    assert cps_to_os(os_rule(coin)) == coin


def test_criterion_05_weight_construction(corpus):
    coin = coin_hierarchy()
    ht = os_to_ht(coin)
    assert ht.rho == (Fraction(64, 81), Fraction(16, 81), Fraction(1, 81))
    check = rules_equal(os_rule(coin), ht_rule(ht))
    assert check
    assert len(tuple(coin.space.events())) == 63

    for hier in corpus:
        assert rules_equal(os_rule(hier), ht_rule(os_to_ht(hier)))


@pytest.mark.parametrize("eps", [Fraction(0), Fraction(1, 8), Fraction(1, 4)])
def test_criterion_06_thresholded_construction_agrees(corpus, eps):
    for hier in corpus:
        built = eps_os_construction(hier, eps)
        if eps == 0:
            assert built.ht.eps == 0
        for winner, loser in built.edges:
            assert winner < loser

        rule = ht_rule(built.ht)
        part = surprise_partition(hier, eps)
        for events in part.classes:
            for e in events:
                assert rule[e] == eps_os_update(hier, eps, e)
        for e in part.undefined:
            with pytest.raises(NoPriorExceedsThreshold):
                eps_os_update(hier, eps, e)


def test_criterion_07_stake_dependent_resolution(capsys):
    scenario = load_scenario("lps_demo")
    lps, hier, u = scenario.lps, scenario.os, scenario.utilities["money"]
    f_v1, f_v2, g = (scenario.acts[k] for k in ("f_v1", "f_v2", "g"))

    assert lps_compare(lps, u, f_v2, g) is Preference.FIRST
    assert lps_compare(lps, u, f_v1, g) is Preference.SECOND

    fam = PreferenceFamily(hier, tuple(u for _ in hier.priors))
    space = scenario.space
    early = space.event("e", "el")
    assert os_prefer(fam, space.full_event, f_v1, g) is Preference.INDIFFERENT
    assert os_prefer(fam, early, f_v1, g) is Preference.SECOND

    code = main(
        ["lps-compare", "lps_demo", "--acts", "f_v1,g", "--event", "e,el"]
    )
    out = capsys.readouterr().out
    assert code == 0
    rows = [tuple(line.split("\t")) for line in out.splitlines()]
    assert ("os_ex_ante", "indifferent") in rows
    assert ("os_conditional", "second") in rows
    assert ("os_resolves", "true") in rows
    assert ("clps_resolves", "false") in rows


def test_criterion_08_conservative_foil():
    scenario = load_scenario("conservative")
    prior = scenario.beliefs["mu0"]
    space = scenario.space

    rule = conservative_rule(prior, Fraction(1, 2))
    assert is_complete(rule)
    concentrated = is_concentrated(rule)
    assert not concentrated
    assert concentrated.witness == space.event("e")
    assert rule[space.event("e")].mass_of("e") == Fraction(1, 2)

    sticky = conservative_rule(prior, 1)
    for event in space.events():
        assert sticky[event] == prior


def test_criterion_09_axiom_suite(corpus):
    u = UtilityFunction({"x": 0, "y": 1})
    for hier in corpus:
        fam = PreferenceFamily(hier, tuple(u for _ in hier.priors))
        for e, a in default_event_pairs(hier):
            assert check_consequentialism(fam, e)
            assert check_conditional_consistency(fam, e, a)

    coin = coin_hierarchy()
    skewed = SkewedFamily(PreferenceFamily(coin, (u, u, u)))
    space = coin.space
    broke_cons = check_consequentialism(skewed, space.event("e", "el"))
    assert not broke_cons
    assert broke_cons.witness is not None
    broke_cc = check_conditional_consistency(
        skewed, space.event("h", "t"), space.event("h")
    )
    assert not broke_cc
    assert broke_cc.witness is not None

    base = UtilityFunction({"p": 0, "q": 1, "r": 2})
    fitted = check_risk_independence(two_level_family(base, base.affine(2, 3)))
    assert fitted
    assert fitted.coefficients[1] == (Fraction(2), Fraction(3))
    quadratic = check_risk_independence(
        two_level_family(base, UtilityFunction({"p": 0, "q": 1, "r": 4}))
    )
    assert not quadratic
    assert quadratic.witness_outcome == "r"


REPORT_COMMANDS = (
    ("validate-cps", "coin"),
    ("validate-cps", "ht_counterexample"),
    ("decompose", "coin"),
    ("update", "coin", "--os", "--event", "el,l1,l2"),
    ("eps-update", "coin", "--eps", "1/4", "--event", "el,l1,l2"),
    ("os-to-ht", "coin"),
    ("eps-os-to-ht", "coin", "--eps", "1/4"),
    ("ht-select", "ht_counterexample", "--event", "e,el,l1,l2"),
    ("lps-compare", "lps_demo", "--acts", "f_v1,g", "--event", "e,el"),
    ("check-axioms", "lps_demo"),
    ("conservative", "conservative", "--delta", "1/2"),
    ("partition", "coin", "--eps", "1/4"),
)


def run_report(hash_seed: str) -> bytes:
    """One full CLI pass over every subcommand, both formats, as bytes."""
    runner = (
        "import sys\n"
        "from beliefkit.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    chunks = []
    for argv in REPORT_COMMANDS:
        for fmt in ("text", "json"):
            proc = subprocess.run(
                [sys.executable, "-c", runner, *argv, "--format", fmt],
                capture_output=True,
                env=env,
            )
            chunks.append(
                b"$ %s [%s]\n%d\n%s%s"
                % (
                    " ".join(argv).encode(),
                    fmt.encode(),
                    proc.returncode,
                    proc.stdout,
                    proc.stderr,
                )
            )
    return b"\n".join(chunks)


def test_criterion_10_reports_are_byte_identical():
    first = run_report("0")
    second = run_report("20260816")
    assert first == second
