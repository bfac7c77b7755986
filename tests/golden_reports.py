"""The golden report corpus: every case's exit code, stdout and stderr.

Each case is one ``beliefkit`` argv, run in process through ``cli.main``
from ``tests/golden`` (so scenario paths stay relative), in both formats.
Its expected output lives in ``tests/golden/reports/<slug>.<format>``.
The cases are criterion 10's twelve commands plus small scenarios under
``tests/golden/scenarios`` that reach reports the fixtures do not: a
``check-axioms`` fail, the one-state ``conservative`` report, an
``eps-update`` with no prior above the threshold, an ``ht-select`` tie and
a ``decompose`` of a rule that is not a CPS; and the report shapes the
twelve commands miss: one ``conservative`` conditional, an ``lps-compare``
without the demo, a ``partition`` at threshold 0 and an ``ht-select`` on
the Bayesian branch; an ``--event`` that names a scenario ``events``
entry; both weight constructions on a hierarchy whose supports
overlap, which ``os-to-ht`` accepts and ``eps-os-to-ht`` rejects; and
the parse errors of a state label with a comma, which ``--event`` could
not read back, and of one with a tab, which would split a report row.

``tests/test_golden_reports.py`` compares the files byte for byte.  After
a deliberate report change, rewrite them with

    PYTHONPATH=src python tests/golden_reports.py

and list every file that changed in CHANGES.md.
"""

import contextlib
import io
import os
from pathlib import Path

from test_acceptance import REPORT_COMMANDS

GOLDEN = Path(__file__).resolve().parent / "golden"
REPORTS = GOLDEN / "reports"
FORMATS = ("text", "json")

CASES = REPORT_COMMANDS + (
    ("check-axioms", "scenarios/lps_bent.json", "--utilities", "money,bent,money"),
    ("conservative", "scenarios/one_state.json", "--delta", "1/2"),
    ("eps-update", "coin", "--eps", "1/2", "--event", "h,el"),
    ("ht-select", "scenarios/ht_tie.json", "--event", "b,c"),
    ("decompose", "ht_counterexample"),
    ("conservative", "conservative", "--delta", "1/2", "--event", "e"),
    ("lps-compare", "lps_demo", "--acts", "f_v1,g"),
    ("partition", "coin"),
    ("ht-select", "ht_counterexample", "--event", "h,e"),
    ("conservative", "scenarios/bad_belief.json", "--delta", "1/2"),
    ("check-axioms", "scenarios/bad_utility.json"),
    ("lps-compare", "scenarios/bad_act.json", "--acts", "f,g"),
    ("ht-select", "scenarios/bad_ht_rho.json", "--event", "a"),
    ("ht-select", "scenarios/bad_ht_priors.json", "--event", "a"),
    ("update", "scenarios/bad_os.json", "--event", "a"),
    ("lps-compare", "scenarios/bad_lps.json", "--acts", "f,g"),
    ("lps-compare", "lps_demo", "--acts", "f_v1,zz"),
    ("check-axioms", "lps_demo", "--utilities", "zz"),
    ("conservative", "conservative", "--delta", "1/2", "--prior", "zz"),
    ("update", "coin", "--event", "A"),
    ("ht-select", "ht_counterexample", "--event", "A"),
    ("lps-compare", "lps_demo", "--acts", "f_v1,g", "--event", "E"),
    ("check-axioms", "lps_demo", "--event", "E"),
    ("os-to-ht", "scenarios/overlap.json"),
    ("eps-os-to-ht", "scenarios/overlap.json", "--eps", "1/4"),
    ("update", "scenarios/bad_comma_label.json", "--event", "a,b"),
    ("decompose", "scenarios/bad_tab_label.json"),
)


def slug(argv: tuple[str, ...]) -> str:
    """A file name for the case: its words joined, path and flag marks dropped."""
    words = [Path(word).stem if word.endswith(".json") else word.lstrip("-") for word in argv]
    return "_".join(words).replace("/", "-").replace(",", "+")


def run_case(argv: tuple[str, ...], fmt: str) -> str:
    """The case's report as one text: its argv, exit code, stdout and stderr."""
    from beliefkit.cli import main

    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--format", fmt])
    finally:
        os.chdir(here)
    return (
        f"$ beliefkit {' '.join(argv)} --format {fmt}\n"
        f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    )


def report_path(argv: tuple[str, ...], fmt: str) -> Path:
    return REPORTS / f"{slug(argv)}.{fmt}"


def rewrite() -> None:
    REPORTS.mkdir(exist_ok=True)
    for stale in REPORTS.iterdir():
        stale.unlink()
    for argv in CASES:
        for fmt in FORMATS:
            report_path(argv, fmt).write_bytes(run_case(argv, fmt).encode())


if __name__ == "__main__":
    rewrite()
