"""The benchmark's tracer finds each traced layer by name in beliefkit.

``bench/tracing.py`` lists in ``TRACED`` the public functions it wraps,
module by module, and rebinds each name where a module holds it.  A name
that is renamed or moved away would drop its layer from every traced run,
so each must resolve to a callable of its module.  The list is read from
the file's source, without importing or changing anything under ``bench/``.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_names() -> list[str]:
    """Each entry of ``TRACED`` as "module.name", in its order."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
            traced = ast.literal_eval(node.value)
            return [f"{module}.{name}" for module, names in traced.items() for name in names]
    raise AssertionError(f"{TRACING} assigns no TRACED")


@pytest.mark.parametrize("traced", traced_names())
def test_each_traced_name_is_a_callable_of_its_module(traced):
    module, name = traced.split(".")
    assert callable(getattr(importlib.import_module(f"beliefkit.{module}"), name, None))
