"""No module of the package imports another module's private names.

A name with a leading underscore is internal to the module defining it;
a module that needs it should use (or add) a public function instead.
The tests are exempt: their oracles reach into helpers on purpose.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "beliefkit"


def private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "beliefkit":
            continue
        found += [
            f"{path.name}:{node.lineno}: from {'.' * node.level}{module} import {alias.name}"
            for alias in node.names
            if alias.name.startswith("_")
        ]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert private_imports(path) == []


def test_the_rule_sees_private_imports(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from __future__ import annotations\n"
        "from .core import Belief, _lex_masks\n"
        "from beliefkit.rules import _first_break\n"
        "from . import _private\n",
        encoding="utf-8",
    )
    assert private_imports(bad) == [
        "bad.py:2: from .core import _lex_masks",
        "bad.py:3: from beliefkit.rules import _first_break",
        "bad.py:4: from . import _private",
    ]
