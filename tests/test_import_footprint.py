"""A CLI call imports only the modules its subcommand reaches.

Each case runs a fresh interpreter: import ``beliefkit.cli``, list the
executed modules, call ``main`` once, list them again.  The package
registers every submodule in ``sys.modules`` up front, each with
``LazyLoader``'s own module type until its first attribute access runs it,
so a module counts as executed once its type is the plain module type.  A
module-level import added to ``cli``, ``scenario`` or the package
``__init__`` shows up here as a failure, not as a slower start for every
call.
"""

import json
import subprocess
import sys

import pytest

CHILD = """\
import contextlib, io, json, sys, types

def executed():
    # type() reads no attribute, so it does not run a lazy module
    return sorted(name for name, module in sys.modules.items() if type(module) is types.ModuleType)

from beliefkit.cli import main
registered, imported = sorted(sys.modules), executed()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"registered": registered, "imported": imported, "called": executed(), "code": code}))
"""

MODULES = (
    "cli", "core", "errors", "hypothesis_testing", "lps", "ordered_surprises",
    "preferences", "rules", "scenario",
)
AT_IMPORT = {"beliefkit", "beliefkit.cli", "beliefkit.core", "beliefkit.errors", "beliefkit.scenario"}

CALLS = {  # argv -> the beliefkit modules the call adds to those loaded at import
    ("validate-cps", "coin"): {"ordered_surprises", "rules"},
    ("conservative", "conservative", "--delta", "1/2"): {"rules"},
    ("check-axioms", "lps_demo"): {"ordered_surprises", "rules", "preferences", "lps"},
    ("ht-select", "ht_counterexample", "--event", "e,el,l1,l2"): {
        "ordered_surprises",
        "rules",
        "hypothesis_testing",
    },
}


def footprint(argv) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def footprints():
    return {argv: footprint(argv) for argv in CALLS}


def ours(modules) -> set[str]:
    return {m for m in modules if m == "beliefkit" or m.startswith("beliefkit.")}


@pytest.mark.parametrize("argv", list(CALLS), ids=lambda argv: argv[0])
def test_a_call_loads_only_what_its_subcommand_reaches(footprints, argv):
    seen = footprints[argv]
    assert seen["code"] in (0, 1)
    assert ours(seen["imported"]) == AT_IMPORT
    added = ours(seen["called"]) - ours(seen["imported"])
    assert added == {f"beliefkit.{name}" for name in CALLS[argv]}


def test_every_module_is_registered_at_import(footprints):
    # bench/tracing.py finds the modules it traces in sys.modules
    for seen in footprints.values():
        assert ours(seen["registered"]) == {"beliefkit"} | {f"beliefkit.{m}" for m in MODULES}


def test_no_call_imports_dataclasses_or_inspect(footprints):
    for seen in footprints.values():
        assert not {"dataclasses", "inspect"} & set(seen["called"])


def test_only_check_axioms_loads_preferences(footprints):
    loads = {argv[0] for argv, seen in footprints.items() if "beliefkit.preferences" in seen["called"]}
    assert loads == {"check-axioms"}
