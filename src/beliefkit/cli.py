"""Command-line front end.

Every command loads one scenario (a file path or a bundled fixture name),
runs one pipeline, and prints a deterministic report: tab-separated
key/value rows by default, one JSON document with ``--format json``.
Rationals always render as integers or "p/q", never as decimals.

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
    from .core import Act, Belief, Event, Lottery, StateSpace


def _belief_text(belief: Belief) -> str:
    return ",".join(
        f"{label}:{format_rational(mass)}" for label, mass in belief.items() if mass
    )


def _belief_json(belief: Belief) -> dict[str, str]:
    return {label: format_rational(mass) for label, mass in belief.items() if mass}


def _event_text(event: Event) -> str:
    return ",".join(event.members)


def _lottery_text(lottery: Lottery) -> str:
    return "+".join(f"{o}:{format_rational(p)}" for o, p in lottery.items())


def _act_text(act: Act) -> str:
    return ";".join(
        f"{label}={_lottery_text(act.lottery_at(label))}" for label in act.space.states
    )


def _parse_event(space: StateSpace, text: str) -> Event:
    return space.event_from(label for label in text.split(",") if label)


def _require(scenario: Scenario, block: str):
    value = getattr(scenario, block)
    if value is None:
        raise ValidationError(f"scenario has no {block} block")
    return value


def _pick_rule(scenario: Scenario, args):
    """Rule under test: the os block, the ht block, or the explicit flag."""
    if getattr(args, "os", False):
        block = "os"
    elif getattr(args, "ht", False):
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


def _sole(mapping: dict, kind: str, flag: str) -> str:
    if len(mapping) == 1:
        return next(iter(mapping))
    if not mapping:
        raise ValidationError(f"scenario defines no {kind}")
    raise ValidationError(
        f"scenario has {len(mapping)} {kind}; pass {flag} with one of: "
        + ", ".join(sorted(mapping))
    )


def _validation_report(validation):
    rows = [("status", validation.status)]
    payload: dict = {"status": validation.status}
    if validation.reason is not None:
        rows.append(("reason", validation.reason))
        payload["reason"] = validation.reason
    if validation.status == "valid":
        rows.append(("triples", str(validation.triples)))
        payload["triples"] = validation.triples
    return rows, payload


def cmd_validate_cps(scenario: Scenario, args):
    from .rules import validate_cps

    rule = _pick_rule(scenario, args)
    validation = validate_cps(rule)
    rows, payload = _validation_report(validation)
    if validation.status == "violation":
        w = validation.witness
        given_f = rule[w.f].prob(w.g)
        given_e = rule[w.e].prob(w.f)
        rows += [
            ("e", _event_text(w.e)),
            ("f", _event_text(w.f)),
            ("g", _event_text(w.g)),
            ("lhs", format_rational(w.lhs)),
            ("rhs", format_rational(w.rhs)),
            ("g_given_f", format_rational(given_f)),
            ("f_given_e", format_rational(given_e)),
        ]
        payload["witness"] = {
            "e": w.e.members,
            "f": w.f.members,
            "g": w.g.members,
            "lhs": format_rational(w.lhs),
            "rhs": format_rational(w.rhs),
            "g_given_f": format_rational(given_f),
            "f_given_e": format_rational(given_e),
        }
    return (0 if validation else 1), rows, payload


def cmd_decompose(scenario: Scenario, args):
    from .ordered_surprises import cps_to_os

    rule = _pick_rule(scenario, args)
    try:
        os = cps_to_os(rule)
    except NotCps as err:
        if err.validation is None:
            raise
        rows, payload = _validation_report(err.validation)
        return 1, rows, payload
    rows = [("priors", str(len(os.priors)))]
    for k, prior in enumerate(os.priors):
        rows.append(("prior", str(k), _belief_text(prior)))
    payload = {"priors": [_belief_json(p) for p in os.priors]}
    return 0, rows, payload


def cmd_update(scenario: Scenario, args):
    from .core import bayes_update
    from .ordered_surprises import surprise_order

    os = _require(scenario, "os")
    e = _parse_event(scenario.space, args.event)
    order = surprise_order(os, e)
    belief = bayes_update(os.priors[order], e)
    rows = [("order", str(order)), ("belief", _belief_text(belief))]
    return 0, rows, {"order": order, "belief": _belief_json(belief)}


def cmd_eps_update(scenario: Scenario, args):
    from .core import bayes_update
    from .ordered_surprises import eps_surprise_order

    os = _require(scenario, "os")
    eps = parse_rational(args.eps, "--eps")
    e = _parse_event(scenario.space, args.event)
    order = eps_surprise_order(os, eps, e)
    belief = bayes_update(os.priors[order], e)
    rows = [
        ("eps", format_rational(eps)),
        ("order", str(order)),
        ("belief", _belief_text(belief)),
    ]
    return 0, rows, {
        "eps": format_rational(eps),
        "order": order,
        "belief": _belief_json(belief),
    }


def cmd_os_to_ht(scenario: Scenario, args):
    from .hypothesis_testing import os_to_ht

    ht = os_to_ht(_require(scenario, "os"))
    rho = [format_rational(r) for r in ht.rho]
    rows = [
        ("priors", str(len(ht.priors))),
        ("eps", format_rational(ht.eps)),
        ("rho", ",".join(rho)),
    ]
    return 0, rows, {"priors": len(ht.priors), "eps": format_rational(ht.eps), "rho": rho}


def cmd_eps_os_to_ht(scenario: Scenario, args):
    from .hypothesis_testing import eps_os_construction

    os = _require(scenario, "os")
    eps = parse_rational(args.eps, "--eps")
    built = eps_os_construction(os, eps)
    ht = built.ht
    rows = [
        ("priors", str(len(ht.priors))),
        ("threshold", format_rational(ht.eps)),
        ("cross_max", format_rational(built.cross_max)),
    ]
    priors_json = []
    for i, prior in enumerate(ht.priors):
        rows.append(
            (
                "prior",
                str(i),
                str(built.class_of[i]),
                format_rational(ht.rho[i]),
                _belief_text(prior),
            )
        )
        priors_json.append(
            {
                "class": built.class_of[i],
                "rho": format_rational(ht.rho[i]),
                "belief": _belief_json(prior),
            }
        )
    payload = {
        "priors": priors_json,
        "threshold": format_rational(ht.eps),
        "cross_max": format_rational(built.cross_max),
    }
    return 0, rows, payload


def cmd_ht_select(scenario: Scenario, args):
    from .hypothesis_testing import ht_select

    ht = _require(scenario, "ht")
    e = _parse_event(scenario.space, args.event)
    trace, belief = ht_select(ht, e)
    rows = [("branch", trace.branch.value), ("chosen", str(trace.chosen))]
    for j, score in enumerate(trace.scores):
        rows.append(("score", str(j), format_rational(score)))
    rows.append(("belief", _belief_text(belief)))
    payload = {
        "branch": trace.branch.value,
        "chosen": trace.chosen,
        "scores": [format_rational(s) for s in trace.scores],
        "belief": _belief_json(belief),
    }
    return 0, rows, payload


def cmd_lps_compare(scenario: Scenario, args):
    from .lps import indifference_resolution_demo, lps_compare, lps_value

    lps = _require(scenario, "lps")
    names = [n for n in args.acts.split(",") if n]
    if len(names) != 2:
        raise ValidationError("--acts takes exactly two comma-separated act names")
    for name in names:
        if name not in scenario.acts:
            raise ValidationError(f"unknown act {name!r}")
    f, g = scenario.acts[names[0]], scenario.acts[names[1]]
    utility_name = args.utility or _sole(scenario.utilities, "utilities", "--utility")
    if utility_name not in scenario.utilities:
        raise ValidationError(f"unknown utility {utility_name!r}")
    u = scenario.utilities[utility_name]

    value_f = lps_value(lps, u, f)
    value_g = lps_value(lps, u, g)
    verdict = lps_compare(lps, u, f, g)
    prefers = {"first": names[0], "second": names[1], "indifferent": "neither"}
    rows = [
        ("acts", ",".join(names)),
        ("value", names[0], ",".join(format_rational(c) for c in value_f.components)),
        ("value", names[1], ",".join(format_rational(c) for c in value_g.components)),
        ("verdict", verdict.value),
        ("prefers", prefers[verdict.value]),
    ]
    payload: dict = {
        "acts": names,
        "values": {
            names[0]: [format_rational(c) for c in value_f.components],
            names[1]: [format_rational(c) for c in value_g.components],
        },
        "verdict": verdict.value,
        "prefers": prefers[verdict.value],
    }
    if args.event is not None:
        os = _require(scenario, "os")
        e = _parse_event(scenario.space, args.event)
        report = indifference_resolution_demo(os, lps, u, f, g, e)
        flags = [
            ("os_ex_ante", report.os_ex_ante.value),
            ("os_conditional", report.os_conditional.value),
            ("lps_ex_ante", report.lps_ex_ante.value),
            ("clps_conditional", report.clps_conditional.value),
            ("os_resolves", str(report.os_resolves).lower()),
            ("clps_resolves", str(report.clps_resolves).lower()),
            ("clps_agrees", str(report.clps_agrees).lower()),
        ]
        rows += flags
        payload["demo"] = dict(flags)
    return 0, rows, payload


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
    tables = []
    for name in names:
        if name not in scenario.utilities:
            raise ValidationError(f"unknown utility {name!r}")
        tables.append(scenario.utilities[name])
    fam = PreferenceFamily(os, tables)

    if args.event is None:
        e = scenario.space.full_event
    else:
        e = _parse_event(scenario.space, args.event)
    a = e if args.subevent is None else _parse_event(scenario.space, args.subevent)

    rows: list[tuple[str, ...]] = []
    payload: dict = {}
    failed = False

    cons = check_consequentialism(fam, e)
    rows.append(("consequentialism", "pass" if cons else "fail"))
    payload["consequentialism"] = bool(cons)
    if not cons:
        failed = True
        f, forced, verdict = cons.witness
        rows.append(("consequentialism_witness", verdict.value, _act_text(f), _act_text(forced)))
        payload["consequentialism_witness"] = {
            "verdict": verdict.value,
            "f": _act_text(f),
            "composed": _act_text(forced),
        }

    cc = check_conditional_consistency(fam, e, a)
    rows.append(("conditional_consistency", "pass" if cc else "fail"))
    payload["conditional_consistency"] = bool(cc)
    if not cc:
        failed = True
        f, g, h, under_e, under_a = cc.witness
        rows.append(
            (
                "conditional_consistency_witness",
                under_e.value,
                under_a.value,
                _act_text(f),
                _act_text(g),
                _act_text(h),
            )
        )
        payload["conditional_consistency_witness"] = {
            "under_event": under_e.value,
            "under_subevent": under_a.value,
            "f": _act_text(f),
            "g": _act_text(g),
            "h": _act_text(h),
        }

    ri = check_risk_independence(fam)
    rows.append(("risk_independence", "pass" if ri.holds else "fail"))
    payload["risk_independence"] = ri.holds
    if ri.holds:
        coefficients = {}
        for k in sorted(ri.coefficients):
            alpha, beta = ri.coefficients[k]
            rows.append(
                ("coefficient", str(k), format_rational(alpha), format_rational(beta))
            )
            coefficients[str(k)] = [format_rational(alpha), format_rational(beta)]
        payload["coefficients"] = coefficients
    else:
        failed = True
        rows.append(
            ("risk_independence_witness", str(ri.witness_order), str(ri.witness_outcome))
        )
        payload["risk_independence_witness"] = {
            "order": ri.witness_order,
            "outcome": ri.witness_outcome,
        }

    agreement = check_constant_act_agreement(fam)
    rows.append(("constant_act_agreement", "pass" if agreement else "fail"))
    payload["constant_act_agreement"] = bool(agreement)
    if not agreement:
        failed = True

    return (1 if failed else 0), rows, payload


def cmd_conservative(scenario: Scenario, args):
    from .rules import conservative_rule, is_complete, is_concentrated

    name = args.prior or _sole(scenario.beliefs, "beliefs", "--prior")
    if name not in scenario.beliefs:
        raise ValidationError(f"unknown belief {name!r}")
    delta = parse_rational(args.delta, "--delta")
    rule = conservative_rule(scenario.beliefs[name], delta)
    if args.event is not None:
        belief = rule[_parse_event(scenario.space, args.event)]
        rows = [("belief", _belief_text(belief))]
        return 0, rows, {"belief": _belief_json(belief)}
    complete = is_complete(rule)
    concentrated = is_concentrated(rule)
    rows = [
        ("complete", str(complete).lower()),
        ("concentrated", str(bool(concentrated)).lower()),
    ]
    payload: dict = {"complete": complete, "concentrated": bool(concentrated)}
    if not concentrated:
        witness = concentrated.witness
        inside = rule[witness].prob(witness)
        rows.append(("witness", _event_text(witness)))
        rows.append(("witness_mass", format_rational(inside)))
        payload["witness"] = _event_text(witness)
        payload["witness_mass"] = format_rational(inside)
        return 1, rows, payload
    return 0, rows, payload


def cmd_partition(scenario: Scenario, args):
    from .ordered_surprises import surprise_partition

    os = _require(scenario, "os")
    eps = parse_rational(args.eps, "--eps")
    part = surprise_partition(os, eps)
    rows = [("eps", format_rational(eps))]
    payload: dict = {"eps": format_rational(eps), "classes": [], "undefined": []}
    for k, events in enumerate(part.classes):
        rows.append(("class", str(k), str(len(events))))
        payload["classes"].append(len(events))
    rows.append(("undefined", str(len(part.undefined))))
    for event in part.undefined:
        rows.append(("undefined_event", _event_text(event)))
        payload["undefined"].append(_event_text(event))
    return 0, rows, payload


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
    p.add_argument("--event", required=True, help="comma-separated state labels")

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
        code, rows, payload = HANDLERS[args.command](scenario, args)
        if args.format == "json":
            lines = [json.dumps(payload, indent=2)]
        else:
            lines = ["\t".join(row) for row in rows]
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
