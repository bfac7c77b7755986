"""Every golden report is reproduced byte for byte (see ``golden_reports``)."""

import pytest

from golden_reports import CASES, FORMATS, REPORTS, report_path, run_case, slug

PAIRS = [(argv, fmt) for argv in CASES for fmt in FORMATS]


@pytest.mark.parametrize(("argv", "fmt"), PAIRS, ids=[f"{slug(a)}.{f}" for a, f in PAIRS])
def test_report_matches_its_golden_file(argv, fmt):
    assert run_case(argv, fmt).encode() == report_path(argv, fmt).read_bytes()


def test_every_golden_file_belongs_to_a_case():
    names = {report_path(argv, fmt).name for argv, fmt in PAIRS}
    assert len(names) == len(PAIRS)
    assert {path.name for path in REPORTS.iterdir()} == names
