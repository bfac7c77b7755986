"""Command-line front end.

Every command loads one scenario (a file path or a bundled fixture name),
runs one pipeline, and prints a deterministic report: tab-separated
key/value rows by default, one JSON document with ``--format json``.
Rationals always render as integers or "p/q", never as decimals.

Each handler returns ``(code, report)``.  The ``_Report`` holds both
formats, and each field is put into it once: ``put`` sets the JSON value
and appends its text row.  Only a few shapes have extra rows, such as a
count followed by indexed rows; these are built from the same JSON value.

Exit codes: 0 when the computation succeeds and any checked property
holds, 1 when a check fails and a witness is reported, 2 for unusable
input (parse, validation, or a typed operation error, echoed to stderr as
``error<TAB>TypeName<TAB>message``), 3 for an internal error (any other
exception, echoed as ``error<TAB>InternalError<TAB>Type: message``).

Each handler imports the modules it uses, so a call loads only what its
subcommand reaches: the package is not imported whole at start-up.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from .errors import BeliefkitError, NotCps, ValidationError
from .scenario import Scenario, format_rational, load_scenario, parse_rational

if TYPE_CHECKING:
    from .core import Act, Belief, Event, Lottery


def _text(value) -> str:
    """The text cell of a JSON value."""
    if isinstance(value, (list, tuple)):
        return ",".join(value)
    if isinstance(value, dict):
        return ",".join(f"{k}:{v}" for k, v in value.items())
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


class _Report:
    """A report's JSON payload and its text rows."""

    def __init__(self) -> None:
        self.rows: list[tuple[str, ...]] = []
        self.payload: dict = {}

    def put(self, key: str, value, *cells: str) -> None:
        """Set ``payload[key]`` and append the row ``key, *cells`` (default: its text)."""
        self.payload[key] = value
        self.rows.append((key, *(cells or (_text(value),))))


def _belief(belief: Belief) -> dict[str, str]:
    return {label: format_rational(mass) for label, mass in belief.items() if mass}


def _lottery_text(lottery: Lottery) -> str:
    return "+".join(f"{o}:{format_rational(p)}" for o, p in lottery.items())


def _act_text(act: Act) -> str:
    return ";".join(
        f"{label}={_lottery_text(act.lottery_at(label))}" for label in act.space.states
    )


def _parse_event(scenario: Scenario, text: str) -> Event:
    """The scenario's event named ``text``, else the comma-separated state labels."""
    if text in scenario.events:
        return scenario.events[text]
    return scenario.space.event_from(label for label in text.split(",") if label)


def _require(scenario: Scenario, block: str):
    value = getattr(scenario, block)
    if value is None:
        raise ValidationError(f"scenario has no {block} block")
    return value


def _pick_rule(scenario: Scenario, args):
    """Rule under test: the os block, the ht block, or the explicit flag."""
    if args.os:
        block = "os"
    elif args.ht:
        block = "ht"
    elif scenario.os is not None and scenario.ht is not None:
        raise ValidationError("scenario defines both os and ht; pass --os or --ht")
    elif scenario.os is not None:
        block = "os"
    elif scenario.ht is not None:
        block = "ht"
    else:
        raise ValidationError("scenario defines neither an os nor an ht block")
    value = _require(scenario, block)
    if block == "os":
        from .ordered_surprises import os_rule

        return os_rule(value)
    from .hypothesis_testing import ht_rule

    return ht_rule(value)


def _named(mapping: dict, name: str, kind: str):
    """The entry ``name`` of ``mapping``, a scenario's acts, utilities or beliefs."""
    if name not in mapping:
        raise ValidationError(f"unknown {kind} {name!r}")
    return mapping[name]


def _sole(mapping: dict, kind: str, flag: str) -> str:
    if len(mapping) == 1:
        return next(iter(mapping))
    if not mapping:
        raise ValidationError(f"scenario defines no {kind}")
    raise ValidationError(
        f"scenario has {len(mapping)} {kind}; pass {flag} with one of: "
        + ", ".join(sorted(mapping))
    )


def _put_leak(report: _Report, rule, event: Event) -> None:
    """The first event whose belief keeps mass outside it, and the mass it keeps inside."""
    report.put("witness", _text(event.members))
    report.put("witness_mass", format_rational(rule[event].prob(event)))


def _validation_report(rule, validation) -> _Report:
    """The chain-rule verdict on ``rule``, with the witness of a violation or a leak."""
    report = _Report()
    report.put("status", validation.status)
    if validation.reason is not None:
        report.put("reason", validation.reason)
    if validation.reason == "not concentrated":
        from .rules import is_concentrated

        _put_leak(report, rule, is_concentrated(rule).witness)
    if validation.status == "valid":
        report.put("triples", validation.triples)
    elif validation.status == "violation":
        w = validation.witness
        witness = {
            "e": w.e.members,
            "f": w.f.members,
            "g": w.g.members,
            "lhs": format_rational(w.lhs),
            "rhs": format_rational(w.rhs),
            "g_given_f": format_rational(rule[w.f].prob(w.g)),
            "f_given_e": format_rational(rule[w.e].prob(w.f)),
        }
        report.payload["witness"] = witness
        report.rows += [(key, _text(value)) for key, value in witness.items()]
    return report


def cmd_validate_cps(scenario: Scenario, args):
    from .rules import validate_cps

    rule = _pick_rule(scenario, args)
    validation = validate_cps(rule)
    return (0 if validation else 1), _validation_report(rule, validation)


def cmd_decompose(scenario: Scenario, args):
    from .ordered_surprises import cps_to_os

    rule = _pick_rule(scenario, args)
    try:
        os = cps_to_os(rule)
    except NotCps as err:
        return 1, _validation_report(rule, err.validation)
    report = _Report()
    priors = [_belief(prior) for prior in os.priors]
    report.put("priors", priors, str(len(priors)))
    report.rows += [("prior", str(k), _text(prior)) for k, prior in enumerate(priors)]
    return 0, report


def cmd_update(scenario: Scenario, args):
    from .core import bayes_update
    from .ordered_surprises import surprise_order

    os = _require(scenario, "os")
    e = _parse_event(scenario, args.event)
    order = surprise_order(os, e)
    report = _Report()
    report.put("order", order)
    report.put("belief", _belief(bayes_update(os.priors[order], e)))
    return 0, report


def cmd_eps_update(scenario: Scenario, args):
    from .core import bayes_update
    from .ordered_surprises import eps_surprise_order

    os = _require(scenario, "os")
    eps = parse_rational(args.eps, "--eps")
    e = _parse_event(scenario, args.event)
    order = eps_surprise_order(os, eps, e)
    report = _Report()
    report.put("eps", format_rational(eps))
    report.put("order", order)
    report.put("belief", _belief(bayes_update(os.priors[order], e)))
    return 0, report


def cmd_os_to_ht(scenario: Scenario, args):
    from .hypothesis_testing import os_to_ht

    ht = os_to_ht(_require(scenario, "os"))
    report = _Report()
    report.put("priors", len(ht.priors))
    report.put("eps", format_rational(ht.eps))
    report.put("rho", [format_rational(r) for r in ht.rho])
    return 0, report


def cmd_eps_os_to_ht(scenario: Scenario, args):
    from .hypothesis_testing import eps_os_construction

    os = _require(scenario, "os")
    eps = parse_rational(args.eps, "--eps")
    built = eps_os_construction(os, eps)
    ht = built.ht
    priors = [
        {
            "class": built.class_of[i],
            "rho": format_rational(ht.rho[i]),
            "belief": _belief(prior),
        }
        for i, prior in enumerate(ht.priors)
    ]
    report = _Report()
    report.put("priors", priors, str(len(priors)))
    report.put("threshold", format_rational(ht.eps))
    report.put("cross_max", format_rational(built.cross_max))
    report.rows += [
        ("prior", str(i), *map(_text, prior.values())) for i, prior in enumerate(priors)
    ]
    return 0, report


def cmd_ht_select(scenario: Scenario, args):
    from .hypothesis_testing import ht_select

    ht = _require(scenario, "ht")
    e = _parse_event(scenario, args.event)
    trace, belief = ht_select(ht, e)
    report = _Report()
    report.put("branch", trace.branch.value)
    report.put("chosen", trace.chosen)
    scores = [format_rational(s) for s in trace.scores]
    report.payload["scores"] = scores
    report.rows += [("score", str(j), score) for j, score in enumerate(scores)]
    report.put("belief", _belief(belief))
    return 0, report


def cmd_lps_compare(scenario: Scenario, args):
    from .lps import indifference_resolution_demo, lps_compare, lps_value

    lps = _require(scenario, "lps")
    names = [n for n in args.acts.split(",") if n]
    if len(names) != 2:
        raise ValidationError("--acts takes exactly two comma-separated act names")
    f, g = [_named(scenario.acts, name, "act") for name in names]
    utility_name = args.utility or _sole(scenario.utilities, "utilities", "--utility")
    u = _named(scenario.utilities, utility_name, "utility")

    values = [[format_rational(c) for c in lps_value(lps, u, act).components] for act in (f, g)]
    verdict = lps_compare(lps, u, f, g).value
    prefers = {"first": names[0], "second": names[1], "indifferent": "neither"}
    report = _Report()
    report.put("acts", names)
    report.payload["values"] = dict(zip(names, values))
    report.rows += [("value", name, _text(value)) for name, value in zip(names, values)]
    report.put("verdict", verdict)
    report.put("prefers", prefers[verdict])
    if args.event is not None:
        os = _require(scenario, "os")
        e = _parse_event(scenario, args.event)
        demo = indifference_resolution_demo(os, lps, u, f, g, e)
        flags = {
            "os_ex_ante": demo.os_ex_ante.value,
            "os_conditional": demo.os_conditional.value,
            "lps_ex_ante": demo.lps_ex_ante.value,
            "clps_conditional": demo.clps_conditional.value,
            "os_resolves": _text(demo.os_resolves),
            "clps_resolves": _text(demo.clps_resolves),
            "clps_agrees": _text(demo.clps_agrees),
        }
        report.payload["demo"] = flags
        report.rows += flags.items()
    return 0, report


def cmd_check_axioms(scenario: Scenario, args):
    from .preferences import (
        PreferenceFamily,
        check_conditional_consistency,
        check_consequentialism,
        check_constant_act_agreement,
        check_risk_independence,
    )

    os = _require(scenario, "os")
    if args.utilities:
        names = [n for n in args.utilities.split(",") if n]
    else:
        names = [_sole(scenario.utilities, "utilities", "--utilities")]
    if len(names) == 1:
        names = names * len(os.priors)
    if len(names) != len(os.priors):
        raise ValidationError(
            f"--utilities needs 1 or {len(os.priors)} names, got {len(names)}"
        )
    fam = PreferenceFamily(os, [_named(scenario.utilities, name, "utility") for name in names])

    if args.event is None:
        e = scenario.space.full_event
    else:
        e = _parse_event(scenario, args.event)
    a = e if args.subevent is None else _parse_event(scenario, args.subevent)

    report = _Report()
    cons = check_consequentialism(fam, e)
    report.put("consequentialism", bool(cons), "pass" if cons else "fail")
    if not cons:
        f, forced, verdict = cons.witness
        witness = {"verdict": verdict.value, "f": _act_text(f), "composed": _act_text(forced)}
        report.put("consequentialism_witness", witness, *witness.values())

    cc = check_conditional_consistency(fam, e, a)
    report.put("conditional_consistency", bool(cc), "pass" if cc else "fail")
    if not cc:
        f, g, h, under_e, under_a = cc.witness
        witness = {
            "under_event": under_e.value,
            "under_subevent": under_a.value,
            "f": _act_text(f),
            "g": _act_text(g),
            "h": _act_text(h),
        }
        report.put("conditional_consistency_witness", witness, *witness.values())

    ri = check_risk_independence(fam)
    report.put("risk_independence", ri.holds, "pass" if ri.holds else "fail")
    if ri.holds:
        coefficients = {
            str(k): [format_rational(c) for c in ri.coefficients[k]]
            for k in sorted(ri.coefficients)
        }
        report.payload["coefficients"] = coefficients
        report.rows += [("coefficient", k, *pair) for k, pair in coefficients.items()]
    else:
        witness = {"order": ri.witness_order, "outcome": ri.witness_outcome}
        report.put("risk_independence_witness", witness, *map(_text, witness.values()))

    agreement = check_constant_act_agreement(fam)
    report.put("constant_act_agreement", bool(agreement), "pass" if agreement else "fail")
    if not agreement:
        p, q, k, under_k, under_0 = agreement.witness
        witness = {
            "order": k,
            "p": _lottery_text(p),
            "q": _lottery_text(q),
            "under_order": under_k.value,
            "under_order_0": under_0.value,
        }
        report.put("constant_act_agreement_witness", witness, *map(_text, witness.values()))

    return (0 if cons and cc and ri.holds and agreement else 1), report


def cmd_conservative(scenario: Scenario, args):
    from .rules import conservative_rule, is_complete, is_concentrated

    name = args.prior or _sole(scenario.beliefs, "beliefs", "--prior")
    prior = _named(scenario.beliefs, name, "belief")
    rule = conservative_rule(prior, parse_rational(args.delta, "--delta"))
    report = _Report()
    if args.event is not None:
        report.put("belief", _belief(rule[_parse_event(scenario, args.event)]))
        return 0, report
    report.put("complete", is_complete(rule))
    concentrated = is_concentrated(rule)
    report.put("concentrated", bool(concentrated))
    if not concentrated:
        _put_leak(report, rule, concentrated.witness)
    return (0 if concentrated else 1), report


def cmd_partition(scenario: Scenario, args):
    from .ordered_surprises import surprise_partition

    os = _require(scenario, "os")
    eps = parse_rational(args.eps, "--eps")
    part = surprise_partition(os, eps)
    report = _Report()
    report.put("eps", format_rational(eps))
    classes = [len(events) for events in part.classes]
    report.payload["classes"] = classes
    report.rows += [("class", str(k), str(n)) for k, n in enumerate(classes)]
    undefined = [_text(event.members) for event in part.undefined]
    report.put("undefined", undefined, str(len(undefined)))
    report.rows += [("undefined_event", event) for event in undefined]
    return 0, report


HANDLERS = {
    "validate-cps": cmd_validate_cps,
    "decompose": cmd_decompose,
    "update": cmd_update,
    "eps-update": cmd_eps_update,
    "os-to-ht": cmd_os_to_ht,
    "eps-os-to-ht": cmd_eps_os_to_ht,
    "ht-select": cmd_ht_select,
    "lps-compare": cmd_lps_compare,
    "check-axioms": cmd_check_axioms,
    "conservative": cmd_conservative,
    "partition": cmd_partition,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "scenario", help="scenario file path or bundled fixture name"
    )
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )

    parser = argparse.ArgumentParser(
        prog="beliefkit",
        description="belief updating rules over finite state spaces, exactly",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def rule_flags(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--os", action="store_true", help="use the os block")
        group.add_argument("--ht", action="store_true", help="use the ht block")

    p = sub.add_parser("validate-cps", parents=[common], help="chain-rule check")
    rule_flags(p)
    p = sub.add_parser("decompose", parents=[common], help="peel a rule into a hierarchy")
    rule_flags(p)

    p = sub.add_parser("update", parents=[common], help="condition the hierarchy")
    p.add_argument("--os", action="store_true", help="use the os block (default)")
    p.add_argument("--event", required=True, help="event name or comma-separated state labels")

    p = sub.add_parser("eps-update", parents=[common], help="thresholded conditioning")
    p.add_argument("--event", required=True)
    p.add_argument("--eps", required=True, help='threshold, e.g. "1/4"')

    sub.add_parser("os-to-ht", parents=[common], help="weight construction, threshold 0")

    p = sub.add_parser(
        "eps-os-to-ht", parents=[common], help="thresholded weight construction"
    )
    p.add_argument("--eps", required=True)

    p = sub.add_parser("ht-select", parents=[common], help="score one event")
    p.add_argument("--event", required=True)

    p = sub.add_parser("lps-compare", parents=[common], help="lexicographic ranking")
    p.add_argument("--acts", required=True, help="two act names, comma-separated")
    p.add_argument("--utility", help="utility name (default: the only one)")
    p.add_argument("--event", help="also run the conditional side-by-side report")

    p = sub.add_parser("check-axioms", parents=[common], help="axiom checks on a family")
    p.add_argument("--event", help="conditioning event (default: all states)")
    p.add_argument("--subevent", help="nested subevent (default: the event)")
    p.add_argument("--utilities", help="utility names per order, or one for all")

    p = sub.add_parser("conservative", parents=[common], help="sticky-updating foil")
    p.add_argument("--delta", required=True, help='stickiness in (0,1], e.g. "1/2"')
    p.add_argument("--prior", help="belief name (default: the only one)")
    p.add_argument("--event", help="print one conditional instead of the rule report")

    p = sub.add_parser("partition", parents=[common], help="events by surprise class")
    p.add_argument("--eps", default="0")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        code, report = HANDLERS[args.command](scenario, args)
        if args.format == "json":
            lines = [json.dumps(report.payload, indent=2)]
        else:
            lines = ["\t".join(row) for row in report.rows]
    except BeliefkitError as err:
        print(f"error\t{type(err).__name__}\t{err}", file=sys.stderr)
        return 2
    except Exception as err:  # a bug, never a verdict: exit 1 stays "check failed"
        print(f"error\tInternalError\t{type(err).__name__}: {err}", file=sys.stderr)
        return 3
    for line in lines:
        print(line)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
