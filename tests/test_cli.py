"""End-to-end CLI behavior: rows, exit codes, errors, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import beliefkit
from beliefkit import load_scenario
from beliefkit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(out: str):
    return [tuple(line.split("\t")) for line in out.splitlines()]


def test_update_selects_the_second_prior(capsys):
    code, out, err = run_cli(capsys, "update", "coin", "--os", "--event", "el,l1,l2")
    assert code == 0
    assert err == ""
    assert rows_of(out) == [("order", "1"), ("belief", "el:1")]


def test_update_flag_is_optional_when_only_os_present(capsys):
    code, out, _ = run_cli(capsys, "update", "coin", "--event", "l2")
    assert code == 0
    assert ("order", "2") in rows_of(out)


def test_update_rejects_unknown_state(capsys):
    code, out, err = run_cli(capsys, "update", "coin", "--event", "zz")
    assert code == 2
    assert out == ""
    assert err.startswith("error\tValidationError\t")


def test_validate_cps_on_the_hierarchy(capsys):
    code, out, _ = run_cli(capsys, "validate-cps", "coin")
    assert code == 0
    rows = rows_of(out)
    assert ("status", "valid") in rows
    assert ("triples", "4032") in rows


def test_validate_cps_reports_the_first_violation(capsys):
    code, out, _ = run_cli(capsys, "validate-cps", "ht_counterexample")
    assert code == 1
    rows = rows_of(out)
    assert ("status", "violation") in rows
    assert ("e", "e,el,l1") in rows
    assert ("f", "el,l1") in rows
    assert ("g", "el") in rows
    assert ("lhs", "1/8") in rows
    assert ("rhs", "0") in rows
    assert ("g_given_f", "0") in rows
    assert ("f_given_e", "1/8") in rows


def test_validate_cps_json_payload(capsys):
    code, out, _ = run_cli(capsys, "validate-cps", "ht_counterexample", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "violation"
    assert payload["witness"]["lhs"] == "1/8"
    assert payload["witness"]["rhs"] == "0"
    assert payload["witness"]["e"] == ["e", "el", "l1"]


def test_decompose_recovers_the_priors(capsys):
    code, out, _ = run_cli(capsys, "decompose", "coin")
    assert code == 0
    rows = rows_of(out)
    assert ("priors", "3") in rows
    assert ("prior", "0", "h:1/2,t:1/2") in rows
    assert ("prior", "1", "e:7/8,el:1/8") in rows
    assert ("prior", "2", "l1:1/2,l2:1/2") in rows


def test_decompose_refuses_non_cps_with_report(capsys):
    code, out, _ = run_cli(capsys, "decompose", "ht_counterexample")
    assert code == 1
    # the same chain-rule witness validate-cps prints
    _, validated, _ = run_cli(capsys, "validate-cps", "ht_counterexample")
    assert out == validated
    assert ("lhs", "1/8") in rows_of(out)


def test_decompose_needs_a_rule_block(capsys):
    code, _, err = run_cli(capsys, "decompose", "conservative")
    assert code == 2
    assert "neither" in err


def test_ht_select_traces_scores(capsys):
    code, out, _ = run_cli(capsys, "ht-select", "ht_counterexample", "--event", "el,l1,l2")
    assert code == 0
    rows = rows_of(out)
    assert ("branch", "argmax") in rows
    assert ("chosen", "2") in rows
    assert ("score", "0", "0") in rows
    assert ("score", "1", "1/24") in rows
    assert ("score", "2", "1/6") in rows
    assert ("belief", "l1:1/2,l2:1/2") in rows


def test_os_to_ht_prints_the_weights(capsys):
    code, out, _ = run_cli(capsys, "os-to-ht", "coin")
    assert code == 0
    rows = rows_of(out)
    assert ("priors", "3") in rows
    assert ("eps", "0") in rows
    assert ("rho", "64/81,16/81,1/81") in rows


def test_eps_os_to_ht_prints_the_construction(capsys):
    code, out, _ = run_cli(capsys, "eps-os-to-ht", "coin", "--eps", "1/4")
    assert code == 0
    rows = rows_of(out)
    assert ("priors", "8") in rows
    assert ("threshold", "1/4") in rows
    assert ("cross_max", "1/8") in rows
    assert ("prior", "0", "0", "48/235", "h:1/2,t:1/2") in rows
    classes = [row[2] for row in rows if row[0] == "prior"]
    assert classes == ["0", "0", "0", "1", "1", "2", "2", "2"]


def test_eps_update_thresholded(capsys):
    code, out, _ = run_cli(
        capsys, "eps-update", "coin", "--eps", "1/4", "--event", "el,l1,l2"
    )
    assert code == 0
    rows = rows_of(out)
    assert ("order", "2") in rows
    assert ("belief", "l1:1/2,l2:1/2") in rows


def test_eps_update_undefined_event_is_a_typed_error(capsys):
    code, out, err = run_cli(capsys, "eps-update", "coin", "--eps", "1/4", "--event", "el")
    assert code == 2
    assert err.startswith("error\tNoPriorExceedsThreshold\t")


def test_eps_update_rejects_decimals(capsys):
    code, _, err = run_cli(capsys, "eps-update", "coin", "--eps", "0.25", "--event", "el")
    assert code == 2
    assert err.startswith("error\tParseError\t--eps")


def test_lps_compare_low_stakes(capsys):
    code, out, _ = run_cli(capsys, "lps-compare", "lps_demo", "--acts", "f_v1,g")
    assert code == 0
    rows = rows_of(out)
    assert ("value", "f_v1", "1,0,0") in rows
    assert ("value", "g", "1,1/2,0") in rows
    assert ("verdict", "second") in rows
    assert ("prefers", "g") in rows


def test_lps_compare_high_stakes(capsys):
    code, out, _ = run_cli(capsys, "lps-compare", "lps_demo", "--acts", "f_v2,g")
    assert code == 0
    rows = rows_of(out)
    assert ("verdict", "first") in rows
    assert ("prefers", "f_v2") in rows


def test_lps_compare_with_event_adds_the_demo(capsys):
    code, out, _ = run_cli(
        capsys, "lps-compare", "lps_demo", "--acts", "f_v1,g", "--event", "e,el"
    )
    assert code == 0
    rows = rows_of(out)
    assert ("os_ex_ante", "indifferent") in rows
    assert ("os_conditional", "second") in rows
    assert ("lps_ex_ante", "second") in rows
    assert ("clps_conditional", "second") in rows
    assert ("os_resolves", "true") in rows
    assert ("clps_resolves", "false") in rows
    assert ("clps_agrees", "true") in rows


def test_check_axioms_passes_on_the_demo_family(capsys):
    code, out, _ = run_cli(capsys, "check-axioms", "lps_demo")
    assert code == 0
    rows = rows_of(out)
    assert ("consequentialism", "pass") in rows
    assert ("conditional_consistency", "pass") in rows
    assert ("risk_independence", "pass") in rows
    assert ("coefficient", "0", "1", "0") in rows
    assert ("constant_act_agreement", "pass") in rows


def test_check_axioms_with_event_and_subevent(capsys):
    code, out, _ = run_cli(
        capsys, "check-axioms", "lps_demo", "--event", "e,el", "--subevent", "e"
    )
    assert code == 0
    assert ("conditional_consistency", "pass") in rows_of(out)


@pytest.mark.parametrize(
    ("named", "labelled"),
    [
        (("update", "coin", "--event", "A"), ("update", "coin", "--event", "el,l1,l2")),
        (
            ("eps-update", "coin", "--eps", "1/4", "--event", "E"),
            ("eps-update", "coin", "--eps", "1/4", "--event", "e,el,l1,l2"),
        ),
        (
            ("ht-select", "ht_counterexample", "--event", "E"),
            ("ht-select", "ht_counterexample", "--event", "e,el,l1,l2"),
        ),
        (
            ("lps-compare", "lps_demo", "--acts", "f_v1,g", "--event", "E"),
            ("lps-compare", "lps_demo", "--acts", "f_v1,g", "--event", "e,el"),
        ),
        (
            ("check-axioms", "lps_demo", "--event", "e,el,l1", "--subevent", "E"),
            ("check-axioms", "lps_demo", "--event", "e,el,l1", "--subevent", "e,el"),
        ),
    ],
    ids=["update", "eps-update", "ht-select", "lps-compare", "check-axioms-subevent"],
)
def test_an_events_name_reads_as_its_states(capsys, named, labelled):
    got = run_cli(capsys, *named)
    assert got[0] == 0 and got == run_cli(capsys, *labelled)


F_V1 = "h=$1:1;t=$1:1;e=$0:1;el=$0:1;l1=$0:1;l2=$0:1"
G = "h=$1:1;t=$1:1;e=$1/2:1;el=$1/2:1;l1=$0:1;l2=$0:1"
F_V2 = "h=$2:1;t=$2:1;e=$0:1;el=$0:1;l1=$0:1;l2=$0:1"


def test_check_axioms_prints_each_behavioural_fail_with_its_witness(capsys, monkeypatch):
    # no os block breaks either check at its named pair, so both fail stubbed
    from beliefkit import preferences
    from beliefkit.core import CheckResult, Preference

    acts = load_scenario("lps_demo").acts
    f, g, h = acts["f_v1"], acts["g"], acts["f_v2"]
    monkeypatch.setattr(
        preferences,
        "check_consequentialism",
        lambda fam, e: CheckResult(False, (f, g, Preference.FIRST)),
    )
    monkeypatch.setattr(
        preferences,
        "check_conditional_consistency",
        lambda fam, e, a: CheckResult(
            False, (f, g, h, Preference.FIRST, Preference.SECOND)
        ),
    )
    code, out, err = run_cli(capsys, "check-axioms", "lps_demo")
    assert (code, err) == (1, "")
    assert rows_of(out)[:4] == [
        ("consequentialism", "fail"),
        ("consequentialism_witness", "first", F_V1, G),
        ("conditional_consistency", "fail"),
        ("conditional_consistency_witness", "first", "second", F_V1, G, F_V2),
    ]

    code, out, err = run_cli(capsys, "check-axioms", "lps_demo", "--format", "json")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert (payload["consequentialism"], payload["conditional_consistency"]) == (False, False)
    assert payload["consequentialism_witness"] == {
        "verdict": "first",
        "f": F_V1,
        "composed": G,
    }
    assert payload["conditional_consistency_witness"] == {
        "under_event": "first",
        "under_subevent": "second",
        "f": F_V1,
        "g": G,
        "h": F_V2,
    }


def test_validate_cps_names_the_reason_a_rule_is_no_candidate(capsys, monkeypatch):
    # an os block always tabulates a concentrated rule, so swap in the foil
    from beliefkit import ordered_surprises
    from beliefkit.rules import conservative_rule

    monkeypatch.setattr(
        ordered_surprises, "os_rule", lambda os: conservative_rule(os.priors[0], Fraction(1, 2))
    )
    # {h} is the first event whose sticky belief keeps mass outside it
    for command in ("validate-cps", "decompose"):
        code, out, err = run_cli(capsys, command, "coin")
        assert (code, err) == (1, "")
        assert rows_of(out) == [
            ("status", "not-candidate"),
            ("reason", "not concentrated"),
            ("witness", "h"),
            ("witness_mass", "3/4"),
        ]

        code, out, err = run_cli(capsys, command, "coin", "--format", "json")
        assert (code, err) == (1, "")
        assert json.loads(out) == {
            "status": "not-candidate",
            "reason": "not concentrated",
            "witness": "h",
            "witness_mass": "3/4",
        }


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--event", ""), "cannot condition on the empty event"),
        (("--event", ","), "cannot condition on the empty event"),
        (("--subevent", ""), "the subevent is empty"),
        (("--event", "e,el", "--subevent", ""), "the subevent is empty"),
    ],
    ids=["event-blank", "event-comma", "subevent-blank", "nested-subevent-blank"],
)
def test_check_axioms_empty_event_is_a_typed_error(capsys, flags, message):
    code, out, err = run_cli(capsys, "check-axioms", "lps_demo", *flags)
    assert code == 2
    assert out == ""
    assert err == f"error\tEmptyEvent\t{message}\n"


def test_conservative_report_and_exit_code(capsys):
    code, out, _ = run_cli(capsys, "conservative", "conservative", "--delta", "1/2")
    assert code == 1
    rows = rows_of(out)
    assert ("complete", "true") in rows
    assert ("concentrated", "false") in rows
    assert ("witness", "e") in rows
    assert ("witness_mass", "1/2") in rows


def test_conservative_single_event_lookup(capsys):
    code, out, _ = run_cli(
        capsys, "conservative", "conservative", "--delta", "1", "--event", "e"
    )
    assert code == 0
    assert rows_of(out) == [("belief", "h:1/2,t:1/2")]


def test_conservative_rejects_bad_delta(capsys):
    code, _, err = run_cli(capsys, "conservative", "conservative", "--delta", "0")
    assert code == 2
    assert err.startswith("error\tBadDelta\t")


def test_an_empty_choice_names_what_the_scenario_lacks(capsys, tmp_path):
    code, out, err = run_cli(capsys, "check-axioms", "coin")
    assert (code, out) == (2, "")
    assert err == "error\tValidationError\tscenario defines no utilities\n"

    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"space": ["a", "b"], "beliefs": {}}), encoding="utf-8")
    code, out, err = run_cli(capsys, "conservative", str(bare), "--delta", "1/2")
    assert (code, out) == (2, "")
    assert err == "error\tValidationError\tscenario defines no beliefs\n"

    code, out, err = run_cli(capsys, "conservative", "coin", "--delta", "1/2")
    assert (code, out) == (2, "")
    assert err == (
        "error\tValidationError\tscenario has 3 beliefs; "
        "pass --prior with one of: mu0, mu1, mu2\n"
    )


def test_partition_default_and_thresholded(capsys):
    code, out, _ = run_cli(capsys, "partition", "coin")
    assert code == 0
    rows = rows_of(out)
    assert ("class", "0", "48") in rows
    assert ("class", "1", "12") in rows
    assert ("class", "2", "3") in rows
    assert ("undefined", "0") in rows

    code, out, _ = run_cli(capsys, "partition", "coin", "--eps", "1/4")
    assert code == 0
    rows = rows_of(out)
    assert ("class", "1", "8") in rows
    assert ("class", "2", "6") in rows
    assert ("undefined", "1") in rows
    assert ("undefined_event", "el") in rows


def test_unknown_scenario_lists_fixtures(capsys):
    code, out, err = run_cli(capsys, "validate-cps", "nosuch")
    assert code == 2
    assert out == ""
    assert err.startswith("error\tParseError\t")
    assert "coin" in err and "lps_demo" in err


def raises_a_bug(scenario, args):
    raise RuntimeError("simulated bug")


def returns_a_bad_report(scenario, args):
    from beliefkit import cli

    report = cli._Report()
    report.rows += [("ok", "true"), ("mass", 1)]
    report.payload["mass"] = Fraction(1, 2)
    return 0, report


@pytest.mark.parametrize(
    "handler, fmt, message",
    [
        (raises_a_bug, "text", "RuntimeError: simulated bug"),
        (
            returns_a_bad_report,
            "text",
            "TypeError: sequence item 1: expected str instance, int found",
        ),
        (
            returns_a_bad_report,
            "json",
            "TypeError: Object of type Fraction is not JSON serializable",
        ),
    ],
    ids=["handler", "text-render", "json-render"],
)
def test_an_internal_error_exits_3_with_one_line(capsys, monkeypatch, handler, fmt, message):
    from beliefkit import cli

    monkeypatch.setitem(cli.HANDLERS, "validate-cps", handler)
    code, out, err = run_cli(capsys, "validate-cps", "coin", "--format", fmt)
    assert code == 3
    assert out == ""
    assert err == f"error\tInternalError\t{message}\n"
    assert "Traceback" not in err


HUGE = "1" * 5000


@pytest.mark.parametrize(
    "text",
    [
        '{"space": ["a"], "beliefs": {"mu": {"a": "%s/%s"}}}' % (HUGE, HUGE),
        '{"space": ["a"], "beliefs": {"mu": {"a": %s}}}' % HUGE,
        '{"space": ["a"], "events": %s%s}' % ("[" * 100_000, "]" * 100_000),
        '{"space": ["a"], "beliefs": %s1%s}' % ('{"x":' * 100_000, "}" * 100_000),
    ],
    ids=["long-rational", "long-raw-number", "deep-array", "deep-object"],
)
def test_unparseable_documents_are_parse_errors(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "validate-cps", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error\tParseError\t")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("kind", ["directory", "not-utf8", "long-name", "long-fixture-name"])
def test_unreadable_scenario_files_are_parse_errors(capsys, tmp_path, kind):
    if kind == "directory":
        ref = str(tmp_path)
    elif kind == "not-utf8":
        ref = str(tmp_path / "latin1.json")
        Path(ref).write_bytes('{"space": ["caf\u00e9"]}'.encode("latin-1"))
    elif kind == "long-name":
        ref = str(tmp_path / ("x" * 300))
    else:  # no such file; only the fixture name, with ".json" added, is too long
        ref = "x" * 253
    code, out, err = run_cli(capsys, "validate-cps", ref)
    assert code == 2
    assert out == ""
    assert err.startswith("error\tParseError\t") and ref in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_long_threshold_flag_is_a_parse_error(capsys):
    code, out, err = run_cli(capsys, "eps-update", "coin", "--eps", f"1/{HUGE}", "--event", "el")
    assert code == 2
    assert out == ""
    assert err.startswith("error\tParseError\t--eps: ")


@pytest.mark.parametrize(
    "spelling",
    ["1/\u0660", "\u0661/\u0662", "1/2\n"],
    ids=["arabic-zero", "arabic-half", "newline"],
)
def test_malformed_digits_are_parse_errors(capsys, tmp_path, spelling):
    """Only ASCII digits, matched whole: as a flag and as a scenario mass."""
    code, out, err = run_cli(capsys, "partition", "coin", "--eps", spelling)
    assert (code, out) == (2, "")
    assert err.startswith("error\tParseError\t--eps: ") and err.count("\n") == 1
    path = tmp_path / "digits.json"
    path.write_text(
        json.dumps({"space": ["a"], "beliefs": {"mu": {"a": spelling}}}), encoding="utf-8"
    )
    code, out, err = run_cli(capsys, "conservative", str(path), "--delta", "1/2")
    assert (code, out) == (2, "")
    assert err.startswith("error\tParseError\tbeliefs.mu.a: ") and err.count("\n") == 1


def test_rule_flag_required_when_both_blocks_present(capsys, tmp_path):
    scenario = load_scenario("ht_counterexample")
    data = json.loads(scenario.render())
    data["os"] = ["mu0", "mu1", "mu2"]
    both = tmp_path / "both.json"
    both.write_text(json.dumps(data), encoding="utf-8")

    code, _, err = run_cli(capsys, "validate-cps", str(both))
    assert code == 2
    assert "--os or --ht" in err

    code, out, _ = run_cli(capsys, "validate-cps", str(both), "--os")
    assert code == 0
    assert ("status", "valid") in rows_of(out)

    code, out, _ = run_cli(capsys, "validate-cps", str(both), "--ht")
    assert code == 1
    assert ("status", "violation") in rows_of(out)


def test_subprocess_error_goes_to_stderr_only():
    runner = (
        "import sys\n"
        "from beliefkit.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", runner, "update", "coin", "--event", "zz"],
        capture_output=True,
        env=dict(os.environ, PYTHONHASHSEED="random"),
    )
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error\tValidationError\t")


def test_child_interpreters_import_this_checkout():
    runner = (
        "import sys\n"
        "from beliefkit.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", runner, "validate-cps", "coin"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert ("status", "valid") in rows_of(proc.stdout)
    where = subprocess.run(
        [sys.executable, "-c", "import beliefkit; print(beliefkit.__file__)"],
        capture_output=True,
        text=True,
    )
    checkout = Path(__file__).resolve().parents[1] / "src" / "beliefkit" / "__init__.py"
    assert Path(where.stdout.strip()).resolve() == checkout
    assert Path(beliefkit.__file__).resolve() == checkout


def test_module_entry_point_matches_main(capsys):
    code, out, err = run_cli(capsys, "validate-cps", "coin")
    proc = subprocess.run(
        [sys.executable, "-m", "beliefkit.cli", "validate-cps", "coin"],
        capture_output=True,
        text=True,
    )
    assert code == 0
    assert proc.returncode == 0
    assert proc.stdout == out
    assert proc.stderr == err
