"""beliefkit benchmark: one closed-loop workload per run.

    python3 bench/run.py --workload {corpus,axioms,wide,cli} --seed N \
        --seconds S --trace {0,1} [--tiny]

Run from anywhere inside a checkout that has ``src/beliefkit``; the
package is imported from that tree, never from an installed copy.  One
caller sends one operation at a time and waits for its result.  The
process pins itself, and so the ``cli`` children, to one CPU.

A run makes three passes.  Each pass warms up on inputs drawn apart from
the timed ones, then times whole rounds of inputs,
``round(S / 3 / nominal round time)`` of them, so every run of a workload
times the same mix and the same number of operations.  Each input is
built from ``--seed`` just before its operation, outside its latency, so
only one input is live at a time; the passes build identical inputs as
fresh objects.  Every timing is taken at reference speed (``probe.py``),
and an operation's latency is the median of its three passes.  Every
operation's outcome is checked against an oracle outside its latency,
and all passes must render it identically.

``--trace 1`` makes one pass instead, over two identical sets of inputs
in alternation: the first set untraced, the second traced, so both meet
the same host conditions and their difference is the tracing overhead.
Per-layer times come from the spans, in wall-clock time.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines above
it are the human-readable report.  ``--tiny`` shrinks every workload for
the smoke run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from probe import REFERENCE_MS, Probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
PASSES = 3
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "valid_p50_ms": "ms",
    "violation_p50_ms": "ms",
    "peak_rss_mib": "MiB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "axioms", "wide", "cli"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="smoke-run sizes")
    return parser.parse_args(argv)


def git_commit(root: Path) -> str:
    try:
        top, head = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.split()
    except (OSError, subprocess.CalledProcessError, ValueError):
        return "unknown"
    return head if Path(top).resolve() == root else "unknown"


def make_workload(name: str, tiny: bool):
    import workloads

    if name == "cli":
        return workloads.Cli(tiny, ROOT, WORK)
    return {"corpus": workloads.Corpus, "axioms": workloads.Axioms, "wide": workloads.Wide}[name](tiny)


def rounds_for(workload, seconds: int, tiny: bool) -> int:
    if tiny:
        return 1
    return max(1, round(seconds / PASSES / workload.round_s))


def inputs(workload, seed: int, rounds: int):
    """The timed inputs of one pass, each built when it is asked for."""
    rng = random.Random(seed)
    for _ in range(rounds):
        yield from workload.round(rng)


def untraced(items):
    return ((item, False) for item in items)


def alternate(plain, traced):
    """Twin inputs in pairs, the traced one first in every other pair.

    Whichever twin runs second finds memory the first just freed, so a
    fixed order would favour one side.
    """
    for k, item in enumerate(plain):
        pair = [(item, False), (next(traced), True)]
        yield from (pair if k % 2 == 0 else reversed(pair))


def measure(workload, items, probe: Probe, tracer=None) -> dict:
    """Run every ``(item, traced)`` pair once, in order.

    Returns per-op latencies at reference speed, the set-up time spent
    building the items, and each op's class, rendering digest and verdict.
    """
    ops: list[tuple[float, float]] = []
    builds: list[tuple[float, float]] = []
    expects, texts, failed, traced_ops = [], [], [], []
    probe.sample(3)
    items = iter(items)
    while True:
        start = perf_counter()
        try:
            item, traced = next(items)
        except StopIteration:
            break
        end = perf_counter()
        builds.append((start, end))
        probe.pay(end - start)
        if traced:
            tracer.install()
            tracer.begin(len(ops))
            workload.tracer = tracer
        start = perf_counter()
        try:
            result, error = workload.run(item), None
        except Exception as err:  # an unexpected one is counted as failed by check
            result, error = None, err
        end = perf_counter()
        if traced:
            workload.tracer = None
            tracer.end()
            tracer.uninstall()
        ops.append((start, end))
        try:
            ok, text = workload.check(item, result, error)
        except Exception as err:
            ok, text = False, f"oracle raised {err!r}"
        if not ok:
            print(f"FAILED op {len(expects)} ({item.expect}): {text[:300]}", file=sys.stderr)
        expects.append(item.expect)
        texts.append(hashlib.sha256(text.encode()).digest())
        failed.append(not ok)
        traced_ops.append(traced)
        del item, result, error
        probe.pay(end - start)
    probe.sample(3)
    return {
        "latencies": [probe.scaled_ms(*op) for op in ops],
        "raw": [(end - start) * 1e3 for start, end in ops],
        "build_ms": sum(probe.scaled_ms(*span) for span in builds),
        "expects": expects,
        "texts": texts,
        "failed": failed,
        "traced": traced_ops,
    }


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond); with too few samples for
    that, the maximum with none beyond it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def ops_per_s(latencies: list[float]) -> float:
    return len(latencies) / (sum(latencies) / 1e3)


def pass_set_up_ms(workload, seed: int, probe: Probe) -> float:
    """Warm up on inputs drawn apart from the timed ones; its set-up share.

    The share is the time to build and run the warm-up inputs; the time
    to build the timed inputs is added from the pass itself.
    """
    start = perf_counter()
    items = workload.warmup(random.Random(f"warmup:{seed}"))
    built = perf_counter()
    warm = measure(workload, untraced(items), probe)
    return probe.scaled_ms(start, built) + sum(warm["latencies"])


def end_to_end(args, workload, rounds: int, probe: Probe, import_ms: float):
    setup_ms, passes = [], []
    for _ in range(PASSES):
        gc.collect()
        warm_ms = pass_set_up_ms(workload, args.seed, probe)
        gc.collect()
        run = measure(workload, untraced(inputs(workload, args.seed, rounds)), probe)
        setup_ms.append(warm_ms + run["build_ms"])
        passes.append(run)

    # An op's latency is the median of its passes; every pass must render
    # every op identically, or the later pass counts as failed.
    first = passes[0]
    n = len(first["latencies"])
    lat = [statistics.median(run["latencies"][i] for run in passes) for i in range(n)]
    raw = [statistics.median(run["raw"][i] for run in passes) for i in range(n)]
    failed = sum(
        run["failed"][i] or run["texts"][i] != first["texts"][i] for run in passes for i in range(n)
    )
    by_class = {
        kind: [x for x, e in zip(lat, first["expects"]) if e == kind] for kind in ("valid", "violation")
    }
    tail_ms, tail_pct, beyond = tail(lat)
    if args.workload == "cli":
        peak_kib = workload.peak_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": (import_ms + min(setup_ms)) / 1e3,
        "ops_per_s": ops_per_s(lat),
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": tail_ms,
        "valid_p50_ms": statistics.median(by_class["valid"]),
        "violation_p50_ms": statistics.median(by_class["violation"]),
        "peak_rss_mib": peak_kib / 1024,
    }
    notes = {
        "setup_s": f"import {import_ms / 1e3:.4f} s + least of {PASSES} set-ups",
        "ops_per_s": (
            f"{n} ops x {PASSES} passes; wall clock {ops_per_s(raw):.4f}, "
            f"op p50 {statistics.median(raw):.4f} ms"
        ),
        "op_tail_ms": f"p{tail_pct:.2f}: {beyond} of {n} samples beyond it",
        "valid_p50_ms": f"{len(by_class['valid'])} ops whose checked property holds",
        "violation_p50_ms": f"{len(by_class['violation'])} ops that end at a witness",
        "peak_rss_mib": "largest child" if args.workload == "cli" else "this process",
    }
    for key, unit in END_TO_END.items():
        print(f"{key:<18} {values[key]:>14.4f} {unit:<4} {notes.get(key, '')}")
    print(f"{'failed_ops_ratio':<18} {failed / (PASSES * n):>14.4f} {'ratio':<4} {failed}/{PASSES * n}")
    print(f"digest sha256:{hashlib.sha256(b''.join(first['texts'])).hexdigest()} over {n} ops")
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}
    return metrics, PASSES * n, failed


def per_layer(args, workload, rounds: int, probe: Probe):
    from tracing import LAYER_METRICS, Tracer, layer_metrics

    tracer = Tracer()
    gc.collect()
    pass_set_up_ms(workload, args.seed, probe)
    gc.collect()
    run = measure(
        workload,
        alternate(inputs(workload, args.seed, rounds), inputs(workload, args.seed, rounds)),
        probe,
        tracer,
    )
    halves = {}
    for traced in (False, True):
        keep = [i for i, t in enumerate(run["traced"]) if t == traced]
        halves[traced] = {key: [run[key][i] for i in keep] for key in ("latencies", "texts", "failed")}
    plain, traced = halves[False], halves[True]
    n = len(plain["latencies"])
    failed = sum(plain["failed"]) + sum(
        bad or text != ref for bad, text, ref in zip(traced["failed"], traced["texts"], plain["texts"])
    )
    layers = layer_metrics(tracer.spans, n)
    layers["trace.untraced_ops_per_s"] = ops_per_s(plain["latencies"])
    layers["trace.traced_ops_per_s"] = ops_per_s(traced["latencies"])
    layers["trace.overhead_ops_per_s"] = layers["trace.traced_ops_per_s"] - layers["trace.untraced_ops_per_s"]
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(spans_path)
    print(f"{'failed_ops_ratio':<18} {failed / (2 * n):>14.4f} {'ratio':<4} {failed}/{2 * n}")
    for name, half in (("", plain), ("traced ", traced)):
        print(f"{name}digest sha256:{hashlib.sha256(b''.join(half['texts'])).hexdigest()} over {n} ops")
    print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    for key, unit in LAYER_METRICS.items():
        print(f"{key:<52} {layers[key]:>16.4f} {unit}")
    share = 100 * layers["trace.overhead_ops_per_s"] / layers["trace.untraced_ops_per_s"]
    print(f"tracing overhead: {share:+.1f}% of untraced ops_per_s, traced and untraced ops alternating")
    metrics = {key: {"value": layers[key], "unit": unit} for key, unit in LAYER_METRICS.items()}
    return metrics, 2 * n, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "beliefkit" / "__init__.py").is_file():
        print(f"error: no src/beliefkit under {ROOT}; run from a beliefkit checkout", file=sys.stderr)
        return 2
    os.environ.pop("BELIEFKIT_MAX_STATES", None)
    sys.path.insert(0, str(ROOT / "src"))
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})

    probe = Probe()
    probe.sample(5)
    started = perf_counter()
    import beliefkit

    imported = perf_counter()
    probe.sample(5)
    import_ms = probe.scaled_ms(started, imported)
    if Path(beliefkit.__file__).resolve().parent != ROOT / "src" / "beliefkit":
        print(f"error: imported beliefkit from {beliefkit.__file__}", file=sys.stderr)
        return 2

    workload = make_workload(args.workload, args.tiny)
    rounds = rounds_for(workload, args.seconds, args.tiny)
    print(
        f"workload {args.workload}  seed {args.seed}  python {platform.python_version()}  "
        f"nproc {len(cpus)} (pinned to cpu {min(cpus)})  commit {git_commit(ROOT)}  "
        f"BELIEFKIT_MAX_STATES unset"
    )
    if args.trace:
        metrics, attempted, failed = per_layer(args, workload, rounds, probe)
    else:
        metrics, attempted, failed = end_to_end(args, workload, rounds, probe, import_ms)
    print(
        f"timings at reference speed: {len(probe.ms)} probes, median {probe.median_ms():.4f} ms, "
        f"reference {REFERENCE_MS} ms"
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
