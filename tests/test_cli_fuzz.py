"""Fuzzed argv through ``cli.main``, in process: every call ends in exit 0, 1 or 2.

Each subcommand runs on each bundled fixture with event, threshold and
delta strings drawn from the fixtures' labels, separators, unknown labels
and malformed rationals.  Exit 1 must only mean a failed check and 2 an
unusable input; an exception escaping ``main`` is a crash.
"""

import contextlib
import io

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
    st.sampled_from(["0", "1", "1/2", "1/4", "3/2", "-1", "-1/2", "1/0", "0.5", "abc", "", "2"]),
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
def argvs(draw, command):
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


def test_an_empty_conservative_event_is_a_typed_error():
    for spelling in ("", ","):
        code, out, err = run_main(
            ["conservative", "conservative", "--delta", "1/2", f"--event={spelling}"]
        )
        assert (code, out) == (2, "")
        assert err == "error\tOutsideDomain\tEvent({}) is outside the rule's domain\n"
