"""Every workload in one command: ``python3 bench/all.py [--seed N] [--trace 1]``.

Runs corpus, axioms, wide and cli in turn, each in its own process
through ``bench/run.py`` with the ``run_seconds`` of BENCHMARK.json, and
prints each report.  Exits 1 if any run fails or reports a wrong output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [
                sys.executable, str(BENCH / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
                "--trace", str(args.trace),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"{workload}: FAILED (exit {proc.returncode})")
            status = 1
        print()
    return status


if __name__ == "__main__":
    sys.exit(main())
