"""Smoke run of the benchmark: ``python3 bench/smoke.py``.

Runs every workload at tiny sizes, untraced and traced, and fails (exit 1)
unless each run prints every metric named in BENCHMARK.json with its unit,
no operation fails, and the digest repeats across runs of one seed.  It
also checks that the benchmark refuses to run without ``src/beliefkit``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7


def run(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    """One tiny run; returns its digest lines."""
    proc = run(
        "bench/run.py", "--workload", workload, "--seed", str(SEED),
        "--seconds", "1", "--trace", str(trace), "--tiny",
    )
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {proc.stderr}"
    assert result["attempted"] >= 1, where
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units, f"{where}: metrics {sorted(got)} != {sorted(units)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{where}: {name}"
    report = "\n".join(lines[:-1])
    for name, unit in units.items():
        assert re.search(rf"^{re.escape(name)}\s+\S+\s+{re.escape(unit)}(\s|$)", report, re.M), (
            f"{where}: no '{name} ... {unit}' line"
        )
    ratio = re.search(r"^failed_ops_ratio\s+(\S+)\s+ratio\b", report, re.M)
    assert ratio and float(ratio.group(1)) == 0, f"{where}: failed_ops_ratio"
    if trace:
        assert "tracing overhead:" in report, f"{where}: no tracing overhead"
    return re.findall(r"digest (sha256:\w+) over (\d+) ops", report)


def check_refuses_without_source() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run("bench/run.py", "--workload", "corpus", "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0, "ran without src/beliefkit"
    assert '"metrics"' not in proc.stdout, "printed a result without src/beliefkit"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = check_run(workload, 0, spec)
        traced = check_run(workload, 1, spec)
        # the traced run alternates an untraced and a traced copy of the same inputs
        assert len(untraced) == 1 and traced == untraced * 2, f"{workload}: digests differ"
        print(f"ok  {workload:<7} {untraced[0][0][:23]}... over {untraced[0][1]} ops")
    check_refuses_without_source()
    print("ok  refuses to run without src/beliefkit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
