"""The benchmark's names and calls still work in beliefkit.

``bench/tracing.py`` lists in ``TRACED`` the public functions it wraps,
module by module, and rebinds each name where a module holds it.  A name
that is renamed or moved away would drop its layer from every traced run,
so each must resolve to a callable of its module.  ``bench/workloads.py``
lists in ``FIXTURE_CALLS`` the ``beliefkit`` calls of the ``cli`` workload
with the exit code each must give, and the workload counts any other code,
or any stderr, as a failed op; so each call must still give its code.
Both lists are read from the files' source, without importing or changing
anything under ``bench/``.
"""

import ast
import importlib
from pathlib import Path

import pytest

from beliefkit.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_literal(file: str, name: str):
    """The literal value that ``bench/<file>`` assigns to ``name`` at top level."""
    path = BENCH / file
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} assigns no {name}")


def traced_names() -> list[str]:
    """Each entry of ``TRACED`` as "module.name", in its order."""
    traced = bench_literal("tracing.py", "TRACED")
    return [f"{module}.{name}" for module, names in traced.items() for name in names]


@pytest.mark.parametrize("traced", traced_names())
def test_each_traced_name_is_a_callable_of_its_module(traced):
    module, name = traced.split(".")
    assert callable(getattr(importlib.import_module(f"beliefkit.{module}"), name, None))


@pytest.mark.parametrize(
    ("argv", "code"),
    bench_literal("workloads.py", "FIXTURE_CALLS"),
    ids=lambda value: " ".join(value) if isinstance(value, tuple) else str(value),
)
def test_each_cli_workload_call_gives_its_exit_code(capsys, argv, code):
    assert main(list(argv)) == code
    assert capsys.readouterr().err == ""
