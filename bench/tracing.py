"""Spans around calls into beliefkit's public functions, and per-layer numbers.

``Tracer.install`` rebinds each traced public name in every beliefkit
module that holds it, so calls between modules (``cps_to_os`` calling
``validate_cps``, ``os_rule`` calling ``bayes_update``, the checks calling
``os_prefer``) are traced too.  Nothing in ``src/`` changes; ``uninstall``
puts the originals back.

A span is ``(op, id, parent, name, start_ns, end_ns, count)``.  Spans stay
in memory and are written out once, at the end of the run.  ``count`` is
the work counter taken from the call's result where one exists (triples
scanned, events tabulated, priors built, witness found).
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

TRACED = {
    "core": ("bayes_update", "seu_value"),
    "rules": ("validate_cps", "rules_equal"),
    "ordered_surprises": ("os_rule", "cps_to_os", "surprise_partition"),
    "hypothesis_testing": ("os_to_ht", "ht_rule", "eps_os_construction"),
    "preferences": (
        "os_prefer",
        "check_consequentialism",
        "check_conditional_consistency",
        "check_risk_independence",
        "check_constant_act_agreement",
    ),
    "lps": ("lps_compare",),
    "scenario": ("load_scenario",),
}

CHECKS = tuple(f"preferences.{name}" for name in TRACED["preferences"][1:])

COUNTERS = {
    "rules.validate_cps": lambda r: r.triples,
    "ordered_surprises.os_rule": len,
    "hypothesis_testing.ht_rule": len,
    "hypothesis_testing.eps_os_construction": lambda built: len(built.ht.priors),
    **{name: (lambda r: 0 if r else 1) for name in CHECKS},
}

# name -> unit; the order of the traced run's report
LAYER_METRICS = {
    "rules.validate_cps.self_ms": "ms/op",
    "rules.validate_cps.triples": "triples/op",
    "ordered_surprises.cps_to_os.self_ms": "ms/op",
    "ordered_surprises.os_rule.self_ms": "ms/op",
    "ordered_surprises.os_rule.bayes_per_event": "ratio",
    "hypothesis_testing.ht_rule.self_ms": "ms/op",
    "hypothesis_testing.ht_rule.bayes_per_event": "ratio",
    "hypothesis_testing.os_to_ht.self_ms": "ms/op",
    "hypothesis_testing.eps_os_construction.self_ms": "ms/op",
    "hypothesis_testing.eps_os_construction.priors": "priors/call",
    "ordered_surprises.surprise_partition.self_ms": "ms/op",
    "rules.rules_equal.self_ms": "ms/op",
    "core.bayes_update.calls": "calls/op",
    "core.bayes_update.self_ms": "ms/op",
    "core.seu_value.calls": "calls/op",
    "core.seu_value.self_ms": "ms/op",
    "preferences.os_prefer.calls": "calls/op",
    "preferences.check_consequentialism.self_ms": "ms/op",
    "preferences.check_conditional_consistency.self_ms": "ms/op",
    "preferences.check_risk_independence.self_ms": "ms/op",
    "preferences.check_constant_act_agreement.self_ms": "ms/op",
    "preferences.witness_ratio": "ratio",
    "cli.import_ms": "ms/op",
    "scenario.load_scenario.self_ms": "ms/op",
    "cli.handler.self_ms": "ms/op",
    "cli.render_ms": "ms/op",
    "lps.lps_compare.self_ms": "ms/op",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_ops_per_s": "1/s",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self.enabled = False
        self._stack: list[int] = []
        self._next = 0
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, op: int) -> None:
        self.op = op
        self.enabled = True

    def end(self) -> None:
        self.enabled = False

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            count = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    count = counter(result)
                return result
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.spans.append((self.op, sid, parent, name, start, end, count))

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name))

    def install(self) -> None:
        """Rebind every traced name in every loaded beliefkit module."""
        modules = [m for key, m in sys.modules.items() if key == "beliefkit" or key.startswith("beliefkit.")]
        for short, names in TRACED.items():
            origin = sys.modules[f"beliefkit.{short}"]
            for attr in names:
                original = getattr(origin, attr)
                for module in modules:
                    if getattr(module, attr, None) is original:
                        self.patch(module, attr, f"{short}.{attr}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def absorb(self, child_spans: list) -> None:
        """Adopt a child process's spans under the current op, with fresh ids."""
        base = self._next
        for sid, parent, name, start, end, count in child_spans:
            self.spans.append(
                (self.op, base + sid, -1 if parent < 0 else base + parent, name, start, end, count)
            )
            self._next = max(self._next, base + sid + 1)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")


def layer_metrics(spans: list[tuple], ops: int) -> dict[str, float]:
    """Per-op self time and counters by span name.

    Self time is a span's duration minus the durations of its direct
    children.  ``bayes_per_event`` counts the ``bayes_update`` spans directly
    under a tabulator per event it tabulated.
    """
    child_ns: dict[int, int] = defaultdict(int)
    child_bayes: dict[int, int] = defaultdict(int)
    for _, sid, parent, name, start, end, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
            if name == "core.bayes_update":
                child_bayes[parent] += 1
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    bayes_under: Counter = Counter()
    for _, sid, _, name, start, end, count in spans:
        self_ns[name] += end - start - child_ns[sid]
        calls[name] += 1
        counts[name] += count or 0
        bayes_under[name] += child_bayes[sid]

    def per_op_ms(name: str) -> float:
        return self_ns[name] / 1e6 / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {}
    for key in LAYER_METRICS:
        name, _, field = key.rpartition(".")
        if field == "self_ms":
            metrics[key] = per_op_ms(name)
        elif field == "calls":
            metrics[key] = calls[name] / ops
        elif field == "triples":
            metrics[key] = counts[name] / ops
        elif field == "bayes_per_event":
            metrics[key] = ratio(bayes_under[name], counts[name])
        elif field == "priors":
            metrics[key] = ratio(counts[name], calls[name])
    metrics["preferences.witness_ratio"] = ratio(
        sum(counts[c] for c in CHECKS), sum(calls[c] for c in CHECKS)
    )
    metrics["cli.import_ms"] = per_op_ms("cli.import")
    metrics["cli.render_ms"] = per_op_ms("cli.render")
    return metrics
