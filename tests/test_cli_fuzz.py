"""Fuzzed argv through ``cli.main``, in process: every call ends in exit 0, 1 or 2.

Each subcommand runs on each bundled fixture with event, threshold and
delta strings drawn from the fixtures' labels, separators, unknown labels
and malformed rationals.  Exit 1 must only mean a failed check and 2 an
unusable input; an exception escaping ``main`` is a crash.  The scenario
documents are fuzzed too: each fixture's JSON with keys dropped or
renamed, values retyped, bad rationals, unknown labels, duplicated
entries and truncated text.
"""

import contextlib
import copy
import io
import json
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefkit import load_scenario
from beliefkit.cli import main

FIXTURES = {name: load_scenario(name) for name in ("coin", "conservative", "ht_counterexample", "lps_demo")}
COMMANDS = (
    "validate-cps",
    "decompose",
    "update",
    "eps-update",
    "os-to-ht",
    "eps-os-to-ht",
    "ht-select",
    "lps-compare",
    "check-axioms",
    "conservative",
    "partition",
)

rational_text = st.one_of(
    st.sampled_from(["0", "1", "1/2", "1/4", "3/2", "-1", "-1/2", "1/0", "0.5", "abc", "", "2",
                     "1/\u0660", "\u0661/\u0662", "1/2\n"]),
    st.fractions(min_value=-2, max_value=2, max_denominator=12).map(str),
)
# thresholds and deltas: in range half the time, so later stages get reached
unit_text = st.one_of(st.sampled_from(["0", "1/4", "1/2", "1"]), rational_text)


def event_text(labels):
    return st.one_of(
        st.sampled_from([",", "", ",,", "zz", "H"]),
        st.lists(st.sampled_from(labels + ["zz", ""]), min_size=1, max_size=4).map(",".join),
    )


def name_text(names, count=1):
    """``count`` comma-joined names, known to the fixture or not."""
    pick = st.sampled_from(sorted(names) + ["zz", ""])
    return st.lists(pick, min_size=count, max_size=count).map(",".join)


@st.composite
def argvs(draw, command, fixture=None):
    if fixture is None:
        fixture = draw(st.sampled_from(sorted(FIXTURES)))
    scenario = FIXTURES[fixture]
    labels = list(scenario.space.states)
    events = event_text(labels)
    flags = {  # each subcommand's flags: (name, values, required)
        "update": (("event", events, True),),
        "eps-update": (("event", events, True), ("eps", unit_text, True)),
        "eps-os-to-ht": (("eps", unit_text, True),),
        "ht-select": (("event", events, True),),
        "lps-compare": (
            ("acts", name_text(scenario.acts, 2), True),
            ("utility", name_text(scenario.utilities), False),
            ("event", events, False),
        ),
        "check-axioms": (
            ("event", events, False),
            ("subevent", events, False),
            ("utilities", name_text(scenario.utilities), False),
        ),
        "conservative": (
            ("delta", unit_text, True),
            ("prior", name_text(scenario.beliefs), False),
            ("event", events, False),
        ),
        "partition": (("eps", unit_text, False),),
    }
    argv = [command, fixture, f"--format={draw(st.sampled_from(['text', 'json']))}"]
    if command in ("validate-cps", "decompose"):
        choice = draw(st.sampled_from([None, "--os", "--ht"]))
        if choice:
            argv.append(choice)
    for name, values, required in flags.get(command, ()):
        if required or draw(st.booleans()):
            argv.append(f"--{name}={draw(values)}")
    return argv


def run_main(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse rejects the command line
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_argv_exits_0_1_or_2(command, data):
    code, out, err = run_main(data.draw(argvs(command)))
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith(("error\t", "usage:"))


FIXTURE_DOCS = {
    name: json.loads((resources.files("beliefkit") / "fixtures" / f"{name}.json").read_text())
    for name in FIXTURES
}
RETYPED = (3, 0.5, None, True, [], {}, "x")
BAD_RATIONALS = (
    "1/0", "0.5", "-1", "abc", "", "3/2", "1e3", "7/-8", " 1", "9" * 5000,
    "1/\u0660", "\u0661/\u0662", "1/2\n",
)


def nodes(value, path=()):
    """Every (path, value) in a JSON document, the root first."""
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from nodes(child, (*path, key))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from nodes(child, (*path, i))


def mutate(doc, path, kind, replacement):
    """Apply one mutation at ``path``, below the root."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if kind == "drop":
        del parent[key]
    elif kind in ("retype", "rational"):
        parent[key] = replacement
    elif kind == "label":  # an unknown state, belief or outcome name
        if isinstance(parent, dict):
            parent["zz"] = parent.pop(key)
        else:
            parent[key] = "zz"
    elif isinstance(parent, list):  # duplicate: a state, name or weight twice
        parent.insert(key, copy.deepcopy(parent[key]))


@st.composite
def scenario_texts(draw, fixture):
    doc = copy.deepcopy(FIXTURE_DOCS[fixture])
    for _ in range(draw(st.integers(1, 2))):
        paths = list(nodes(doc))[1:]  # a depth first, so whole blocks drop as often as leaves
        if not paths:
            break
        depth = draw(st.sampled_from(sorted({len(path) for path in paths})))
        path = draw(st.sampled_from([path for path in paths if len(path) == depth]))
        kind = draw(st.sampled_from(("drop", "retype", "rational", "label", "duplicate")))
        pool = BAD_RATIONALS if kind == "rational" else RETYPED
        mutate(doc, path, kind, draw(st.sampled_from(pool)))
    text = json.dumps(doc, indent=2)
    if draw(st.integers(0, 9)) == 7:  # 0 and 9 are drawn too often to mean "rarely"
        text = text[: draw(st.integers(0, len(text)))]
    return text


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.json"


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_scenario_documents_exit_0_1_or_2(scenario_file, command, data):
    fixture = data.draw(st.sampled_from(sorted(FIXTURES)))
    scenario_file.write_text(data.draw(scenario_texts(fixture)), encoding="utf-8")
    argv = data.draw(argvs(command, fixture))
    argv[1] = str(scenario_file)
    code, out, err = run_main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 2:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error\t")


def test_an_empty_conservative_event_is_a_typed_error():
    for spelling in ("", ","):
        code, out, err = run_main(
            ["conservative", "conservative", "--delta", "1/2", f"--event={spelling}"]
        )
        assert (code, out) == (2, "")
        assert err == "error\tOutsideDomain\tEvent({}) is outside the rule's domain\n"
