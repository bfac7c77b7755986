"""Mutation testing of one package module with the standard library alone.

    python tests/mutants.py [--module rules] [--functions NAME,...]
        [--tests PATH ...] [--timeout SECONDS] [--scratch DIR] [--list]

The script parses ``src/beliefkit/<module>.py`` and makes one edit per
site inside the named functions (default: every function and method of
the module; a function's nested functions count as its own):

- a comparison flipped: ``<``/``<=``, ``>``/``>=``, ``==``/``!=``,
  ``is``/``is not``, ``in``/``not in``;
- a binary or augmented operator swapped: ``&``/``|``, ``+``/``-``,
  ``<<``/``>>``, ``*``/``//``;
- ``and``/``or`` swapped;
- the test of an ``if``, ``while`` or conditional expression negated;
- an integer constant plus one, and minus one.

Annotations are skipped.  Each mutant is written into a copy of the
checkout under ``--scratch`` (never into ``src/``), and the named tests
run there with ``pytest -x`` under a per-mutant timeout.  A mutant is
killed when the run fails, and survives when it passes; a kill that
came only from the timeout is reported as such, since a hang is not a
failing assertion.  The run prints the score, every survivor and every
timeout kill.  ``ALLOWED`` lists the survivors read one by one and
found equivalent to the original: each is reported, with its reason,
apart from the others, and does not count against the score.  A
``--functions`` name that the module does not define exits 2, naming
it.  Without ``--tests`` a run takes the module's own list in
``DEFAULT_TESTS``, and a module that has none exits 2.  The script is
not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# module -> the tests a run over it takes when ``--tests`` is not given
DEFAULT_TESTS = {
    "rules": (
        "tests/test_prior_list_rules.py",
        "tests/test_rules.py",
        "tests/test_cps_differential.py",
        "tests/test_tabulator_differential.py",
        "tests/test_mixed_rules.py",
    ),
    "hypothesis_testing": (
        "tests/test_hypothesis_testing.py",
        "tests/test_ht_differential.py",
        "tests/test_eps_differential.py",
    ),
}

UNREAD = "sets the A_k slot of an F = 0 heap entry, which the search never reads"
ORIENT = (
    "which side of the top support is the shorter sets only the orientation of the rows: "
    "either way every entry and every tie is found, and the events with q = 0 enter in "
    "canonical order"
)
DIFF_ORIENT = (
    "which of the two rules has its blocks read against the other's entries is a choice of "
    "sides only: differences are symmetric, and the events past those blocks are read on both sides"
)
ROW_TEST = (
    "the test only decides whether the exact tie list of a row runs; a tied b equal to a "
    "is already caught by `a in bs`, so the mutant at most runs it on a row with no tie"
)

REWALK = (
    "reads a complete kept map as incomplete, so every read walks it again: the walk reuses "
    "every entry, so it builds no belief and returns the same updates in the same order, "
    "only at the cost of the walk"
)
NOT_FULL = (
    "never takes the space's cached canonical masks for a whole-space support: `_lex_masks` "
    "lists the same masks in the same order, at the cost of a `lex_sums` pass"
)

KEYS_BY_OR = (
    "lists a last peel's keys with `or_` too, r being 0 alone: q | 0 is q, so the keys are the "
    "map's own and the support, in the same order, at the cost of the `product` pass"
)
SCALED = (
    "scales every interval end by one factor, a multiple of the needed one, so every weight and "
    "the total grow alike and the reduced weights and the bounds' Fractions are the same"
)
DEPTH_SLOT = (
    "one more slot by depth, which no event reads: an event of depth d writes slot d and "
    "reads slot d - 1, and d is at most |S|"
)

FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
SWAPS = {
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift, ast.Mult: ast.FloorDiv,
    ast.FloorDiv: ast.Mult,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in", ast.BitAnd: "&",
    ast.BitOr: "|", ast.Add: "+", ast.Sub: "-", ast.LShift: "<<", ast.RShift: ">>",
    ast.Mult: "*", ast.FloorDiv: "//", ast.And: "and", ast.Or: "or",
}

# (function, mutated statement) -> why the mutant is equivalent to the original
ALLOWED = {
    ("validate_cps", "heap = [(mask_indices(e), [], e, 0, 1) for e in uncertified]"): UNREAD,
    ("validate_cps", "heap = [(mask_indices(e), [], e, 0, -1) for e in uncertified]"): UNREAD,
    ("_rejected", "if not t and len(light) == 0:"): (
        "skips a shortcut: with no light trace and no state outside the top support, the "
        "rows below are one empty row"
    ),
    ("_rejected", "if not len(light) > len(rs):"): ORIENT,
    ("_rejected", "if len(light) >= len(rs):"): ORIENT,
    ("_rejected", "if ta or a in bs or max(compress(bs, tbs), default=0) >= a:"): ROW_TEST,
    ("_rejected", "if ta or a in bs or max(compress(bs, tbs), default=1) > a:"): ROW_TEST,
    ("_rejected", "if ta or a in bs or max(compress(bs, tbs), default=-1) > a:"): ROW_TEST,
    (
        "_rejected",
        "ties += [x | y for y, b, tb in zip(ys, bs, tbs) if a == b or (tb if b >= a else ta)]",
    ): "b == a is already a tie by the first test",
    (
        "_side",
        "chosen = [] if size == 0 else [(prior.nums, f, prior) for prior, f in zip(priors, factors) "
        "if not prior.support_mask & away]",
    ): "a side of one mask, the empty one, scores 0 with or without its priors",
    ("events", "if len(self) <= len(masks):"): (
        "filters a complete domain by its own reads, which keeps every mask"
    ),
    ("_differences", "if not len(b._blocks) > len(a._blocks):"): DIFF_ORIENT,
    ("_differences", "if len(b._blocks) >= len(a._blocks):"): DIFF_ORIENT,
    (
        "kept_traces",
        "if traces is None or len(traces) != (1 << prior.support_mask.bit_count()) + 2:",
    ): REWALK,
    (
        "kept_traces",
        "if traces is None or len(traces) != (1 >> prior.support_mask.bit_count()) - 2:",
    ): REWALK,
    (
        "kept_traces",
        "if traces is None or len(traces) != (2 << prior.support_mask.bit_count()) - 2:",
    ): REWALK,
    (
        "kept_traces",
        "if traces is None or len(traces) != (0 << prior.support_mask.bit_count()) - 2:",
    ): REWALK,
    (
        "kept_traces",
        "if traces is None or len(traces) != (1 << prior.support_mask.bit_count()) - 1:",
    ): REWALK,
    ("_walk", "full = support == (1 << len(nums)) + 1"): NOT_FULL,
    ("_walk", "full = support == (1 >> len(nums)) - 1"): NOT_FULL,
    ("_walk", "full = support == (2 << len(nums)) - 1"): NOT_FULL,
    ("_walk", "full = support == (0 << len(nums)) - 1"): NOT_FULL,
    ("_walk", "full = support == (1 << len(nums)) - 0"): NOT_FULL,
    ("_walk", "stack = [(zeros, 0, 0)] * (support.bit_count() + 2)"): (
        "one more stack slot, which no prefix reads: a trace of depth d reads slot d - 1 < |s|"
    ),
    ("_region", "masks = lex_submasks(mask)[0:]"): (
        "keeps the empty mask's None entry, which no reader asks for: the certificate reads "
        "nonempty events only, and a compare of two rules without blocks finds None on both sides"
    ),
    ("_misses", "keys = qs if rs == (1,) else tuple(starmap(or_, product(rs, qs)))"): KEYS_BY_OR,
    ("_misses", "keys = qs if rs == (-1,) else tuple(starmap(or_, product(rs, qs)))"): KEYS_BY_OR,
    ("_misses", "held = itemgetter(*keys)(table) if len(keys) > 1 else (table[keys[-1]],)"): (
        "a block of one key: its last key is its first"
    ),
    ("surprise_partition", "sums = [(0,) * count] * (len(space) + 2)"): DEPTH_SLOT,
    ("surprise_partition", "orders = [count] * (len(space) + 2)"): DEPTH_SLOT,
    ("ht_select", "if min_order(ht.priors[:2], e.mask, ht.eps) == 0:"): (
        "min_order returns 0 exactly when the first prior clears eps, whatever priors follow it"
    ),
    ("eps_os_construction", "top = (0, 2)"): (
        "0/2 is 0: the first test, num(q) * 2 > 0, holds exactly where num(q) * 1 > 0 does, "
        "and Fraction(0, 2) is 0"
    ),
    ("eps_os_construction", "if num * top[1] >= top[0] * light:"): (
        "an equal ratio replaces the maximum, so Fraction(*top) is the same value"
    ),
    (
        "eps_os_construction",
        "scale = lcm(*[common * gcd(v, common) for pair in chain for v in pair])",
    ): SCALED,
    (
        "eps_os_construction",
        "ends = [tuple([v * scale * common for v in pair]) for pair in chain]",
    ): SCALED,
    ("validate_cps", "for f in lex_submasks(e)[2:]:"): (
        "skips the singleton F = {a}, the least state of E, in an uncertified E's pair "
        "tests: P({a}|E) = P({a}|{a}) P({a}|E) once the entry on {a} is concentrated, "
        "which the search's concentration check has made sure of"
    ),
}


def annotation_ids(tree: ast.AST) -> set[int]:
    """Ids of every node inside an annotation, which no mutant edits."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]:
                if arg is not None:
                    roots.append(arg.annotation)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(sub) for root in roots if root is not None for sub in ast.walk(root)}


def targets(tree: ast.Module, names: set[str] | None) -> list[ast.FunctionDef]:
    """Top-level functions and class methods, those in ``names`` when given."""
    found = []
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for member in members:
            if isinstance(member, ast.FunctionDef) and (names is None or member.name in names):
                found.append(member)
    return found


def sites(function: ast.FunctionDef, skip: set[int]):
    """(node, edit name, edit) for each mutation site."""
    for node in ast.walk(function):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                new = FLIPS.get(type(op))
                if new is not None:
                    yield node, f"{SYMBOLS[type(op)]} -> {SYMBOLS[new]}", ("ops", i, new)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            new = SWAPS.get(type(node.op))
            if new is not None:
                yield node, f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[new]}", ("op", None, new)
        elif isinstance(node, ast.BoolOp):
            new = ast.Or if isinstance(node.op, ast.And) else ast.And
            yield node, f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[new]}", ("op", None, new)
        elif isinstance(node, (ast.If, ast.While, ast.IfExp)):
            yield node, "negate test", ("negate", None, None)
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for step in (1, -1):
                yield node, f"{node.value} -> {node.value + step}", ("add", step, None)


def mutate(node: ast.AST, edit) -> object:
    """Apply ``edit`` to ``node``; return what ``restore`` needs to undo it."""
    kind, index, new = edit
    if kind == "ops":
        old, node.ops[index] = node.ops[index], new()
    elif kind == "op":
        old, node.op = node.op, new()
    elif kind == "negate":
        old, node.test = node.test, ast.UnaryOp(op=ast.Not(), operand=node.test)
    else:
        old, node.value = node.value, node.value + index
    return old


def restore(node: ast.AST, edit, old) -> None:
    kind, index, _ = edit
    if kind == "ops":
        node.ops[index] = old
    elif kind == "op":
        node.op = old
    elif kind == "negate":
        node.test = old
    else:
        node.value = old


def mutants(source: str, names: set[str] | None, build: bool = True):
    """(function, line, edit, mutated statement, mutant source) per site, in source order.

    The mutated statement is the first line of the innermost statement
    holding the site, as edited: it names the mutant in reports and in
    ``ALLOWED``.  With ``build`` false the mutant source is None, which is
    all that listing the mutants needs.
    """
    tree = ast.parse(source)
    skip = annotation_ids(tree)
    parents = {id(child): node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    plan = []
    for function in targets(tree, names):
        for node, edit_name, edit in sites(function, skip):
            statement = node
            while not isinstance(statement, ast.stmt):
                statement = parents[id(statement)]
            plan.append((node.lineno, node.col_offset, function.name, node, statement, edit_name, edit))
    plan.sort(key=lambda site: site[:2])
    for line, _, function_name, node, statement, edit_name, edit in plan:
        old = mutate(node, edit)
        shown = ast.unparse(statement).split("\n")[0]
        code = ast.unparse(tree) if build else None
        restore(node, edit, old)
        yield function_name, line, edit_name, shown, code


def run_tests(work: Path, tests: list[str], timeout: float) -> str:
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(
            command, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode == 0:
        return "survived"
    if proc.returncode == 5:
        raise SystemExit("no tests ran: check --tests")
    return "killed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--module", default="rules")
    parser.add_argument("--functions", help="comma-separated; default every function")
    parser.add_argument("--tests", nargs="+", help="default the module's list in DEFAULT_TESTS")
    parser.add_argument("--timeout", type=float, default=60.0)
    parser.add_argument("--scratch", type=Path, help="where the copy goes; default a temp dir")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)

    relative = Path("src") / "beliefkit" / f"{args.module}.py"
    source = (ROOT / relative).read_text(encoding="utf-8")
    names = set(args.functions.split(",")) if args.functions else None
    missing = sorted(names - {f.name for f in targets(ast.parse(source), names)}) if names else []
    if missing:
        print(f"{relative} defines no function {', '.join(missing)}", file=sys.stderr)
        return 2
    tests = args.tests or DEFAULT_TESTS.get(args.module, ())
    if not (tests or args.list):
        print(f"no default tests for module {args.module}: name them with --tests", file=sys.stderr)
        return 2
    plan = list(mutants(source, names, build=not args.list))
    if args.list:
        for function, line, edit, shown, _ in plan:
            print(f"{function}:{line}\t{edit}\t{shown}")
        print(f"{len(plan)} mutants")
        return 0

    scratch = args.scratch or Path(tempfile.mkdtemp(prefix="mutants-"))
    work = scratch / "checkout"
    if work.exists():
        shutil.rmtree(work)
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis", ".perfbench")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, work / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
    target = work / relative

    target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
    if run_tests(work, tests, args.timeout) != "survived":
        raise SystemExit("the tests fail on the unmutated module: fix that first")

    outcomes = []
    start = time.perf_counter()
    for count, (function, line, edit, shown, code) in enumerate(plan, 1):
        target.write_text(code, encoding="utf-8")
        outcome = run_tests(work, tests, args.timeout)
        outcomes.append((function, line, edit, shown, outcome))
        print(f"[{count}/{len(plan)}] {outcome:8} {function}:{line} {edit}: {shown}", flush=True)
    target.write_text(source, encoding="utf-8")

    killed = [o for o in outcomes if o[4] == "killed"]
    timeouts = [o for o in outcomes if o[4] == "timeout"]
    survivors = [o for o in outcomes if o[4] == "survived"]
    allowed = [o for o in survivors if (o[0], o[3]) in ALLOWED]
    alive = [o for o in survivors if (o[0], o[3]) not in ALLOWED]
    scored = len(outcomes) - len(allowed)
    print(f"\nmodule {args.module}: {len(outcomes)} mutants in {time.perf_counter() - start:.0f} s")
    print(f"score {len(killed) + len(timeouts)}/{scored} killed, {len(timeouts)} of them by timeout")
    for title, group in (("timeout kills", timeouts), ("survivors", alive)):
        print(f"{title}: {len(group)}")
        for function, line, edit, shown, _ in group:
            print(f"  {function}:{line} {edit}: {shown}")
    print(f"allowlisted equivalents: {len(allowed)}")
    for function, line, edit, shown, _ in allowed:
        print(f"  {function}:{line} {edit}: {shown}\n    {ALLOWED[function, shown]}")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())
