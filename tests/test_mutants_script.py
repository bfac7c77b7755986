"""``tests/mutants.py``: its allowlist, and its check of ``--functions``.

Every ``ALLOWED`` key must name a mutant the script still makes: a
function some module of the package defines, and a statement among that
function's listed mutants.  A key that a rewrite left behind excuses
nothing, and would hide that its reason was never read again.  A
``--functions`` list naming a function the module lacks would mutate
nothing for it, so the script exits 2 and names it.  Each module's
default test list names a package module and test files that exist, and
a run over a module with no list and no ``--tests`` exits 2.
"""

import mutants

PACKAGE = mutants.ROOT / "src" / "beliefkit"


def test_every_allowlisted_mutant_is_one_the_script_makes():
    names = {function for function, _ in mutants.ALLOWED}
    made = set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        made |= {(f, shown) for f, _, _, shown, _ in mutants.mutants(source, names, build=False)}
    assert sorted(set(mutants.ALLOWED) - made) == []


def test_functions_the_module_lacks_exit_2(capsys):
    argv = ["--module", "rules", "--functions", "validate_cps,_nowhere,_columns", "--list"]
    assert mutants.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "defines no function _columns, _nowhere" in captured.err
    assert mutants.main(["--module", "rules", "--functions", "validate_cps", "--list"]) == 0


def test_every_default_test_list_names_a_module_and_files_that_exist():
    assert sorted(mutants.DEFAULT_TESTS) == ["hypothesis_testing", "rules"]
    for module, tests in mutants.DEFAULT_TESTS.items():
        assert (PACKAGE / f"{module}.py").is_file()
        assert tests and len(set(tests)) == len(tests)
        missing = [test for test in tests if not (mutants.ROOT / test).is_file()]
        assert missing == [], module


def test_a_module_without_default_tests_exits_2(capsys):
    assert mutants.main(["--module", "core", "--functions", "lex_sums"]) == 2
    assert "no default tests for module core" in capsys.readouterr().err
    assert mutants.main(["--module", "core", "--functions", "lex_sums", "--list"]) == 0
