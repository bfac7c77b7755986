"""A CLI call imports only the modules its subcommand reaches.

Each case runs a fresh interpreter: import ``beliefkit.cli``, list the
executed modules, call ``main`` once, list them again.  The package
registers every submodule in ``sys.modules`` up front, each with
``LazyLoader``'s own module type until its first attribute access runs it,
so a module counts as executed once its type is the plain module type.  A
module-level import added to ``cli``, ``scenario`` or the package
``__init__`` shows up here as a failure, not as a slower start for every
call, and so does a library module that imports a sibling's names where
binding the sibling lazily (``from . import rules``) would do.  A
scenario's blocks are built from ``representations`` alone, so a scenario
with every block runs no module for a block the subcommand does not read.
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
    "preferences", "representations", "rules", "scenario",
)
AT_IMPORT = {"beliefkit", "beliefkit.cli", "beliefkit.core", "beliefkit.errors", "beliefkit.scenario"}

WRITTEN = "written"  # stands for the file ``footprints`` writes from EVERY_BLOCK
EVERY_BLOCK = {
    "space": ["a", "b", "c"],
    "beliefs": {"mu0": {"a": "1/2", "b": "1/2"}, "mu1": {"c": "1"}},
    "os": ["mu0", "mu1"],
    "ht": {"priors": ["mu0", "mu1"], "rho": ["2/3", "1/3"], "eps": "0"},
    "lps": ["mu0", "mu1"],
    "utilities": {"base": {"$0": "0", "$1": "1"}},
    "acts": {"f": {s: {"$1": "1"} for s in "abc"}, "g": {s: {"$0": "1"} for s in "abc"}},
}

CALLS = {  # argv -> the beliefkit modules the call adds to those loaded at import
    ("validate-cps", "coin"): {"representations", "ordered_surprises", "rules"},
    ("update", "coin", "--event", "el,l1,l2"): {"representations", "ordered_surprises"},
    ("partition", "coin"): {"representations", "ordered_surprises"},
    ("os-to-ht", "coin"): {"representations", "hypothesis_testing"},
    ("conservative", "conservative", "--delta", "1/2"): {"rules"},
    ("check-axioms", "lps_demo"): {"representations", "ordered_surprises", "preferences"},
    ("ht-select", "ht_counterexample", "--event", "e,el,l1,l2"): {
        "representations",
        "ordered_surprises",
        "hypothesis_testing",
    },
    # neither runs hypothesis_testing or lps for the blocks it does not read
    ("update", WRITTEN, "--event", "a"): {"representations", "ordered_surprises"},
    ("conservative", WRITTEN, "--delta", "1/2", "--prior", "mu0"): {"representations", "rules"},
}


def footprint(argv) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def footprints(tmp_path_factory):
    written = tmp_path_factory.mktemp("footprint") / "every_block.json"
    written.write_text(json.dumps(EVERY_BLOCK), encoding="utf-8")
    return {
        argv: footprint([str(written) if arg == WRITTEN else arg for arg in argv])
        for argv in CALLS
    }


def ours(modules) -> set[str]:
    return {m for m in modules if m == "beliefkit" or m.startswith("beliefkit.")}


@pytest.mark.parametrize("argv", list(CALLS), ids=lambda argv: "-".join(argv[:2]))
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
