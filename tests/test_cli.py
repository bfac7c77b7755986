"""End-to-end CLI behavior: rows, exit codes, errors, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import chain, combinations, product
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


class ClosedStdout:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd: int):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self) -> int:
        return self.fd


def test_a_closed_stdout_keeps_the_verdict_and_a_silent_stderr(capsys, monkeypatch, tmp_path):
    with open(tmp_path / "stdout", "w") as target:
        monkeypatch.setattr(sys, "stdout", ClosedStdout(target.fileno()))
        code = main(["validate-cps", "ht_counterexample"])
        monkeypatch.undo()
    assert code == 1
    assert capsys.readouterr().err == ""


def test_a_child_whose_stdout_reader_left_exits_with_its_verdict():
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the child writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "beliefkit.cli", "validate-cps", "ht_counterexample"],
            stdout=write,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == b""


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


PEAK_RUNNER = """\
import sys
from beliefkit.cli import main
code = main(sys.argv[2:])
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
with open(sys.argv[1], "w") as out:
    out.write(peak)
sys.exit(code)
"""


def chunked_scenario(sizes=(7, 7, 6), eps: str | None = None, spread: bool = False):
    """Priors on consecutive chunks of ``sum(sizes)`` states (rotated by the
    first size), as a scenario document, and the report rows of
    ``validate-cps`` and ``decompose`` on its hierarchy.  With ``eps``, an
    ``ht`` block on the same priors with ``os_to_ht`` weights (each the last
    times half its prior's least mass) and that threshold; with ``spread``,
    the block also holds a uniform prior over every state, weighted the
    same way after the last, which overlaps every support and wins no
    event."""
    n = sum(sizes)
    states = [f"s{i}" for i in range(n)]
    order = states[sizes[0]:] + states[: sizes[0]]
    chunks = [order[sum(sizes[:k]) : sum(sizes[: k + 1])] for k in range(len(sizes))]
    beliefs = {
        f"mu{k}": {s: Fraction(i + 1, len(chunk) * (len(chunk) + 1) // 2) for i, s in enumerate(chunk)}
        for k, chunk in enumerate(chunks)
    }
    hierarchy = list(beliefs)
    if spread:
        beliefs["spread"] = dict.fromkeys(states, Fraction(1, n))
    doc = {
        "space": states,
        "beliefs": {name: {s: str(m) for s, m in masses.items()} for name, masses in beliefs.items()},
        "os": hierarchy,
    }
    if eps is not None:
        weights = [Fraction(1)]
        for masses in list(beliefs.values())[:-1]:
            weights.append(weights[-1] * min(masses.values()) / 2)
        rho = [str(w / sum(weights)) for w in weights]
        doc["ht"] = {"priors": list(beliefs), "rho": rho, "eps": eps}
    priors = [
        ",".join(f"{s}:{beliefs[name][s]}" for s in states if s in beliefs[name]) for name in hierarchy
    ]
    expected = {
        "validate-cps": [("status", "valid"), ("triples", str(4**n - 2**n))],
        "decompose": [("priors", str(len(sizes)))] + [("prior", str(k), row) for k, row in enumerate(priors)],
    }
    return doc, expected


def run_under_64_mib(
    tmp_path, doc: dict, expected: dict, *flags: str, env: dict | None = None
) -> None:
    """Each call in a fresh interpreter, with ``env`` added to its environment:
    exit 0, no stderr, exactly the expected rows, and a peak (VmHWM) under
    64 MiB."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    peak_file = tmp_path / "peak_kib"
    for command, rows in expected.items():
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RUNNER, str(peak_file), command, str(path), *flags],
            capture_output=True,
            text=True,
            env={**os.environ, **(env or {})},
        )
        assert (proc.returncode, proc.stderr) == (0, ""), (command, flags)
        assert rows_of(proc.stdout) == rows, (command, flags)
        assert int(peak_file.read_text()) < 64 * 1024, (command, flags)


def partition_rows(doc: dict, eps: Fraction) -> list[tuple[str, ...]]:
    """The ``partition`` report of a hierarchy on disjoint supports that
    cover the space, in Fractions: a prior's light traces are the subsets of
    its support of mass at most eps, class k counts the events light on
    the supports before k and not on k's, and the undefined events are the
    products of every prior's light traces, but the empty one, sorted by
    their state indices."""
    states = doc["space"]
    index = {s: i for i, s in enumerate(states)}
    rows, lights = [("eps", str(eps))], []
    ways, free = 1, len(states)
    for name in doc["os"]:
        masses = {s: Fraction(m) for s, m in doc["beliefs"][name].items()}
        support = sorted(masses, key=index.__getitem__)
        light = [
            q
            for size in range(len(support) + 1)
            for q in combinations(support, size)
            if sum(masses[s] for s in q) <= eps
        ]
        free -= len(support)
        size = ways * (2 ** len(support) - len(light)) * 2**free
        rows.append(("class", str(len(lights)), str(size)))
        ways *= len(light)
        lights.append(light)
    events = sorted(
        (sorted(chain(*parts), key=index.__getitem__) for parts in product(*lights)),
        key=lambda event: [index[s] for s in event],
    )[1:]
    return rows + [("undefined", str(len(events)))] + [("undefined_event", ",".join(e)) for e in events]


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_a_twenty_state_os_block_validates_and_decomposes_under_64_mib(tmp_path):
    """Three priors on 7, 7 and 6 of 20 states: each call runs in a fresh
    interpreter, prints the full report, and peaks under 64 MiB, since
    the rule holds its prior list and neither check fills a 2^20 table."""
    run_under_64_mib(tmp_path, *chunked_scenario(), "--os")


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("eps", ["0", "1/8"])
def test_a_twenty_state_partition_prints_its_full_report_under_64_mib(tmp_path, eps):
    """``partition`` on the same three priors on 7, 7 and 6 of 20 states:
    the supports are disjoint, so the class sizes come from each prior's
    light and heavy traces and only the undefined events are listed (none
    at eps = 0, 74 at eps = 1/8), with no pass over the 2^20 events.  The
    call runs in a fresh interpreter, prints the full report, and peaks
    under 64 MiB."""
    doc, _ = chunked_scenario()
    expected = {"partition": partition_rows(doc, Fraction(eps))}
    assert [row[2] for row in expected["partition"][1:4]] == (
        ["1040384", "8128", "63"] if eps == "0" else ["1007616", "39360", "1525"]
    )
    run_under_64_mib(tmp_path, doc, expected, "--eps", eps)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("eps", ["0", "1/8"])
def test_a_twenty_state_ht_block_validates_and_decomposes_under_64_mib(tmp_path, eps):
    """The same priors as an ``ht`` block with ``os_to_ht`` weights.  Their
    supports are disjoint and each weight is below the one before times
    that prior's least mass (at eps = 1/8 the top's least mass, 1/28, is
    below the threshold, and its bound holds too), so the rule is the OS
    rule of the weight order: the three priors' blocks, with no rejected
    event listed and no 2^20 table.  It is valid, decomposes into its
    three priors, and each call peaks under 64 MiB."""
    run_under_64_mib(tmp_path, *chunked_scenario(eps=eps), "--ht")


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("eps", ["0", "1/8"])
def test_a_twenty_state_ht_block_with_an_overlapping_prior_takes_the_table_path_under_64_mib(
    tmp_path, eps
):
    """The same block plus a uniform prior over all 20 states, weighted
    below the rest, so no weight order applies: the rule is the top
    prior's block plus the events it rejects, 8191 at eps = 0 and 40959 at
    eps = 1/8, the uniform prior scored on each since it meets both sides
    of the top support.  It wins none of them, so the report is the
    hierarchy's: valid, and decomposed into its three priors, each call
    under 64 MiB."""
    run_under_64_mib(tmp_path, *chunked_scenario(eps=eps, spread=True), "--ht")


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_a_twenty_four_state_ht_block_is_answered_from_its_weight_order_under_64_mib(tmp_path):
    """Four priors on 6 states each of 24, ``os_to_ht`` weights, with the
    state cap raised to 64 in the child's environment only.  The table
    path would list the 2^18 events inside the other 18 states; the weight
    order answers from the four blocks, so ``validate-cps --ht`` and
    ``decompose --ht`` print their full reports under 64 MiB."""
    doc, expected = chunked_scenario((6, 6, 6, 6), eps="0")
    run_under_64_mib(tmp_path, doc, expected, "--ht", env={"BELIEFKIT_MAX_STATES": "64"})
