"""No module of the package uses another module's private names.

A name with a leading underscore is internal to the module defining it;
a module that needs it should use (or add) a public function instead.
That covers imports (``from .core import _name``), at module level or
inside a function body such as a CLI handler, and attribute access
(``obj._name`` where only another module defines ``_name``).  The tests
are exempt: their oracles reach into helpers on purpose.  A second lint
keeps every import in the package read by its module, a third every
name a package function assigns read in that function, and a fourth
every invariant of the package off a bare ``assert``, which ``python -O``
strips: a broken invariant must raise a typed error.  A fifth makes every
class that defines ``__eq__`` state its ``__hash__``, since Python
otherwise makes it unhashable without a word.  A sixth keeps every
module-level private function, class or assignment, and every private
method and ``__slots__`` entry of a class, read somewhere in the package
outside its own definition, so dead internal code cannot linger.
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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_definitions(tree: ast.AST) -> set[str]:
    """Private names a module defines: defs, classes, assigned names, self._x = ..."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
        ):
            names.add(node.attr)
    return {name for name in names if _is_private(name)}


def private_attribute_uses(paths: list[Path]) -> list[str]:
    """``obj._name`` uses where ``_name`` is defined only in other modules."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    defined = {path: private_definitions(tree) for path, tree in trees.items()}
    found = []
    for path, tree in trees.items():
        elsewhere = set().union(*(names for other, names in defined.items() if other != path))
        found += [
            (path.name, node.lineno, node.col_offset, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in elsewhere
            and node.attr not in defined[path]
        ]
    return [f"{name}:{line}: .{attr}" for name, line, _, attr in sorted(found)]


def test_no_private_cross_module_attributes():
    assert private_attribute_uses(sorted(SRC.glob("*.py"))) == []


def test_the_rule_sees_private_attributes(tmp_path):
    (tmp_path / "core.py").write_text(
        "_CAP = 20\n"
        "def _lex(mask):\n"
        "    return mask\n"
        "class Belief:\n"
        "    def __init__(self):\n"
        "        self._den = 1\n"
        "        self._hash = 0\n"
        "    def _numerators(self):\n"
        "        return self._den\n",
        encoding="utf-8",
    )
    (tmp_path / "rules.py").write_text(
        "from . import core\n"
        "class Rule:\n"
        "    def __init__(self):\n"
        "        self._hash = 1\n"
        "def use(belief, rule):\n"
        "    den = belief._numerators()\n"
        "    belief._den = den\n"
        "    return core._lex(core._CAP), rule._hash, belief.__class__, belief._unknown\n",
        encoding="utf-8",
    )
    assert private_attribute_uses(sorted(tmp_path.glob("*.py"))) == [
        "rules.py:6: ._numerators",
        "rules.py:7: ._den",
        "rules.py:8: ._lex",
        "rules.py:8: ._CAP",
    ]


def test_the_rule_sees_private_imports(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from __future__ import annotations\n"
        "from .core import Belief, _lex_masks\n"
        "from beliefkit.rules import _first_break\n"
        "from . import _private\n"
        "def handler(args):\n"
        "    from .rules import validate_cps, _peel\n"
        "    return validate_cps, _peel\n",
        encoding="utf-8",
    )
    assert private_imports(bad) == [
        "bad.py:2: from .core import _lex_masks",
        "bad.py:3: from beliefkit.rules import _first_break",
        "bad.py:4: from . import _private",
        "bad.py:6: from .rules import _peel",
    ]


def unused_imports(path: Path) -> list[str]:
    """Names a module imports (anywhere in it) but never reads.

    A read is any ``Name`` node in a load context, which includes the base
    of an attribute access and the annotations that ``from __future__
    import annotations`` leaves unevaluated; ``__future__`` imports are
    compiler directives, not names.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [
                (node.lineno, (alias.asname or alias.name).split(".")[0])
                for alias in node.names
            ]
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{path.name}:{line}: {name}" for line, name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_rule_sees_unused_imports(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from heapq import heappop, heappush\n"
        "from .errors import CycleDetected, EmptyEvent as Empty\n"
        "from .core import Belief\n"
        "def order(ready: list[Belief]):\n"
        "    from .rules import validate_cps\n"
        "    heappush(ready, 0)\n"
        "    return os.sep\n",
        encoding="utf-8",
    )
    assert unused_imports(bad) == [
        "bad.py:3: heappop",
        "bad.py:4: CycleDetected",
        "bad.py:4: Empty",
        "bad.py:7: validate_cps",
    ]


def unused_locals(path: Path) -> list[str]:
    """Names a function assigns but never reads; ``_`` names are exempt.

    A function is scanned with the functions nested in it, so a name that
    a closure reads counts as read there; a name a function declares
    ``nonlocal`` or ``global`` belongs to another scope.  An augmented
    assignment (``n += 1``) stores without a read.
    """
    found = set()
    for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored: dict[str, int] = {}
        read: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
        found |= {
            (line, name)
            for name, line in stored.items()
            if name not in read and not name.startswith("_")
        }
    return [f"{path.name}:{line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(path) == []


def test_the_rule_sees_unused_locals(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "WIDTH = 3\n"
        "def build(space, masks):\n"
        "    width = len(space)\n"
        "    count = 0\n"
        "    seen = []\n"
        "    head, tail = masks[0], masks[1:]\n"
        "    for _, mask in enumerate(tail):\n"
        "        count += 1\n"
        "        seen.append(mask)\n"
        "    def inner():\n"
        "        nonlocal total\n"
        "        total = len(seen)\n"
        "        kept = total\n"
        "    total = 0\n"
        "    inner()\n"
        "    return [m for m in seen if (n := m)]\n",
        encoding="utf-8",
    )
    assert unused_locals(bad) == [
        "bad.py:3: width",
        "bad.py:4: count",
        "bad.py:6: head",
        "bad.py:13: kept",
        "bad.py:16: n",
    ]


def bare_asserts(path: Path) -> list[str]:
    """``assert`` statements anywhere in a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))
    return [f"{path.name}:{line}: assert" for line in lines]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_bare_asserts(path):
    assert bare_asserts(path) == []


def test_the_rule_sees_bare_asserts(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "assert WIDTH\n"
        "def peel(rule):\n"
        "    # assert in a comment is not a statement\n"
        "    message = 'assert in a string is not one either'\n"
        "    if rule:\n"
        "        assert rule.space, message\n"
        "    class Check:\n"
        "        def ok(self):\n"
        "            assert self.ok()\n"
        "    return Check\n",
        encoding="utf-8",
    )
    assert bare_asserts(bad) == ["bad.py:1: assert", "bad.py:6: assert", "bad.py:9: assert"]


def unstated_hashes(path: Path) -> list[str]:
    """Classes that define ``__eq__`` but neither define nor assign ``__hash__``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ClassDef):
            continue
        names = set()
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(item.name)
            elif isinstance(item, ast.Assign):
                names |= {t.id for t in item.targets if isinstance(t, ast.Name)}
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                names.add(item.target.id)
        if "__eq__" in names and "__hash__" not in names:
            found.append(f"{path.name}:{node.lineno}: {node.name}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_eq_states_its_hash(path):
    assert unstated_hashes(path) == []


def test_the_rule_sees_unstated_hashes(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "class Rule:\n"
        "    def __eq__(self, other):\n"
        "        return self is other\n"
        "class Frozen:\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
        "    def __hash__(self):\n"
        "        return 0\n"
        "class Table:\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
        "    __hash__ = None\n"
        "class Plain:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "def make():\n"
        "    class Inner:\n"
        "        def __eq__(self, other):\n"
        "            return False\n"
        "        def method(self):\n"
        "            __hash__ = None\n"
        "    return Inner\n",
        encoding="utf-8",
    )
    assert unstated_hashes(bad) == ["bad.py:1: Rule", "bad.py:17: Inner"]


def class_members(tree: ast.AST) -> list[tuple[ast.stmt, list[str]]]:
    """Each class's private methods and ``__slots__`` entries, by defining statement."""
    members = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_private(stmt.name):
                members.append((stmt, [stmt.name]))
            elif isinstance(stmt, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__slots__" for target in stmt.targets
            ):
                entries = [
                    node.value
                    for node in ast.walk(stmt.value)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)
                ]
                members.append((stmt, entries))
    return members


def dead_private_definitions(paths: list[Path]) -> list[str]:
    """Private definitions nothing reads, module-level and in classes.

    Module level: private defs, classes and assigned names.  In a class:
    private methods and every ``__slots__`` entry.  A read is an attribute
    access of the name in any of ``paths`` (or, for a module-level name, a
    ``Name`` load), outside the definition's own statement, so a function
    that only calls itself is still dead.
    """
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    reads = [
        (node, node.id if isinstance(node, ast.Name) else node.attr, isinstance(node, ast.Name))
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]
    found = []
    for path, tree in trees.items():
        defined = []
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [
                    node.id
                    for target in targets
                    for node in ast.walk(target)
                    if isinstance(node, ast.Name)
                ]
            else:
                continue
            defined.append((stmt, [name for name in names if _is_private(name)], False))
        defined += [(stmt, names, True) for stmt, names in class_members(tree)]
        for stmt, names, member in defined:
            inside = {id(node) for node in ast.walk(stmt)}
            found += [
                (path.name, stmt.lineno, name)
                for name in names
                if not any(
                    read == name and id(node) not in inside and not (member and bare)
                    for node, read, bare in reads
                )
            ]
    return [f"{file}:{line}: {name}" for file, line, name in sorted(found, key=lambda f: f[:2])]


def test_no_dead_private_definitions():
    assert dead_private_definitions(sorted(SRC.glob("*.py"))) == []


def test_the_rule_sees_dead_private_definitions(tmp_path):
    (tmp_path / "core.py").write_text(
        "_CAP = 20\n"
        "_UNUSED: int = 3\n"
        "_SEEN, (PUBLIC, _LOST) = 1, (2, 3)\n"
        "def _lex(mask):\n"
        "    return mask\n"
        "def _walk(mask):\n"
        "    return _walk(mask - 1) if mask else _CAP\n"
        "class _Peeled:\n"
        "    pass\n"
        "def public():\n"
        "    den = 3\n"
        "    return _SEEN + den\n"
        "class Belief:\n"
        "    __slots__ = ('den', '_mass', '_hash')\n"
        "    def __init__(self):\n"
        "        self.den, self._mass, self._hash = 1, None, 0\n"
        "    def _init(self):\n"
        "        return self._init()\n"
        "    def _read(self):\n"
        "        return self._mass\n"
        "    def _unused(self):\n"
        "        pass\n"
        "    def __hash__(self):\n"
        "        return self._hash\n",
        encoding="utf-8",
    )
    (tmp_path / "rules.py").write_text(
        "from . import core\n"
        "def _sampled(rule):\n"
        "    return core._lex(rule), rule._read()\n",
        encoding="utf-8",
    )
    assert dead_private_definitions(sorted(tmp_path.glob("*.py"))) == [
        "core.py:2: _UNUSED",
        "core.py:3: _LOST",
        "core.py:6: _walk",
        "core.py:8: _Peeled",
        "core.py:14: den",
        "core.py:17: _init",
        "core.py:21: _unused",
        "rules.py:2: _sampled",
    ]
