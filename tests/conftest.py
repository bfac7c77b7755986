import os
import random
from pathlib import Path

import pytest

from helpers import random_canonical_os

# Child interpreters (criterion 10, the CLI subprocess tests) import
# beliefkit from this checkout's src, whatever PYTHONPATH the suite got.
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)

CORPUS_SEED = 20260816
CORPUS_SIZE = 500


@pytest.fixture(scope="session")
def corpus():
    """The shared battery of 500 canonical hierarchies, |S| <= 8."""
    rng = random.Random(CORPUS_SEED)
    return tuple(random_canonical_os(rng) for _ in range(CORPUS_SIZE))


_criteria: dict[int, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    marker = "test_acceptance.py::test_criterion_"
    if marker not in report.nodeid:
        return
    tail = report.nodeid.split(marker, 1)[1]
    number = int(tail.split("_", 1)[0])
    if _criteria.get(number) != "failed":
        _criteria[number] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _criteria:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_criteria):
        outcome = _criteria[number]
        word = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"criterion {number:2d}: {word}")
