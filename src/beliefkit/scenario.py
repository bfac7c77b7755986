"""Scenario files: a strict JSON schema binding names to domain objects.

Every number is a rational written as a string of ASCII digits, "7/8"
or "3"; raw JSON numbers are rejected so nothing ever passes through a
float.  Parsing is strict about keys (unknown or duplicate keys fail
with the offending path), and ``render`` writes the canonical form back
out, byte-identical for files that are already canonical.

Top-level keys, all optional except ``space``:

    space      array of state labels, declaration order is significant
    beliefs    name -> {state: rational}
    os         array of belief names, outermost first
    ht         {"priors": [belief names], "rho": [rationals], "eps": rational}
    lps        array of belief names, level 0 first
    utilities  name -> {outcome: rational}
    acts       name -> {state: {outcome: rational}}
    events     name -> array of state labels
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from .core import Act, Belief, Event, Lottery, StateSpace, UtilityFunction
from .errors import ParseError

if TYPE_CHECKING:  # each block's module is imported where the block is parsed
    from .hypothesis_testing import HTRepresentation
    from .lps import LPSRepresentation
    from .ordered_surprises import OSRepresentation

_TOP_KEYS = ("space", "beliefs", "os", "ht", "lps", "utilities", "acts", "events")
_HT_KEYS = ("priors", "rho", "eps")
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")  # ASCII digits only, matched whole


def parse_rational(value, path: str = "value") -> Fraction:
    if not isinstance(value, str):
        raise ParseError(f'{path}: rationals are strings like "7/8", got {value!r}')
    if not _RATIONAL.fullmatch(value):
        raise ParseError(f"{path}: not an integer or p/q rational: {value!r}")
    if "/" in value and value.split("/")[1].lstrip("0") == "":
        raise ParseError(f"{path}: zero denominator in {value!r}")
    try:
        return Fraction(value)
    except ValueError:  # an integer past the interpreter's digit limit
        raise ParseError(f"{path}: {_too_long()}") from None


def _too_long() -> str:
    return f"an integer has more than {sys.get_int_max_str_digits()} digits"


def format_rational(value: Fraction) -> str:
    return str(value)


class Scenario:
    """Parsed scenario with both resolved objects and the declared names.

    The mappings default to fresh empty dicts; scenarios compare equal
    when every field does.
    """

    def __init__(
        self,
        space: StateSpace,
        beliefs: dict[str, Belief] | None = None,
        os: OSRepresentation | None = None,
        os_names: tuple[str, ...] | None = None,
        ht: HTRepresentation | None = None,
        ht_prior_names: tuple[str, ...] | None = None,
        lps: LPSRepresentation | None = None,
        lps_names: tuple[str, ...] | None = None,
        utilities: dict[str, UtilityFunction] | None = None,
        acts: dict[str, Act] | None = None,
        events: dict[str, Event] | None = None,
    ):
        self.space = space
        self.beliefs = {} if beliefs is None else beliefs
        self.os, self.os_names = os, os_names
        self.ht, self.ht_prior_names = ht, ht_prior_names
        self.lps, self.lps_names = lps, lps_names
        self.utilities = {} if utilities is None else utilities
        self.acts = {} if acts is None else acts
        self.events = {} if events is None else events

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and vars(self) == vars(other)

    __hash__ = None  # mutable: its fields are plain attributes and dicts

    def render(self) -> str:
        return render(self)


def _reject_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ParseError(f"duplicate key {key!r}")
        seen[key] = value
    return seen


def _expect_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _expect_array(value, path: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{path}: expected an array, got {type(value).__name__}")
    return value


def _expect_strings(value, path: str) -> list[str]:
    items = _expect_array(value, path)
    for i, item in enumerate(items):
        if not isinstance(item, str):
            raise ParseError(f"{path}[{i}]: expected a string, got {item!r}")
    return items


def _rationals(table, path: str) -> dict[str, Fraction]:
    """An object of rationals, each located by ``path.<key>``."""
    items = _expect_object(table, path).items()
    return {key: parse_rational(value, f"{path}.{key}") for key, value in items}


def _named_beliefs(value, beliefs: dict[str, Belief], path: str):
    """The validated names and the beliefs they name."""
    names = tuple(_expect_strings(value, path))
    for i, name in enumerate(names):
        if name not in beliefs:
            raise ParseError(f"{path}[{i}]: unknown belief name {name!r}")
    return names, [beliefs[name] for name in names]


def parse_scenario(text: str) -> Scenario:
    try:
        raw = json.loads(text, object_pairs_hook=_reject_duplicates)
    except json.JSONDecodeError as bad:
        raise ParseError(f"line {bad.lineno}, column {bad.colno}: {bad.msg}") from None
    except ValueError:  # a raw JSON number past the interpreter's digit limit
        raise ParseError(f"document: {_too_long()}") from None
    except RecursionError:
        raise ParseError("document: nested too deeply to parse") from None
    doc = _expect_object(raw, "document")
    for key in doc:
        if key not in _TOP_KEYS:
            raise ParseError(f"unknown key {key!r} (expected one of {', '.join(_TOP_KEYS)})")
    if "space" not in doc:
        raise ParseError('missing required key "space"')

    space = StateSpace(_expect_strings(doc["space"], "space"))
    scenario = Scenario(space)

    for name, table in _expect_object(doc.get("beliefs", {}), "beliefs").items():
        scenario.beliefs[name] = Belief(space, _rationals(table, f"beliefs.{name}"))

    if "os" in doc:
        from .ordered_surprises import OSRepresentation

        scenario.os_names, priors = _named_beliefs(doc["os"], scenario.beliefs, "os")
        scenario.os = OSRepresentation(space, priors)

    if "ht" in doc:
        from .hypothesis_testing import HTRepresentation

        block = _expect_object(doc["ht"], "ht")
        for key in block:
            if key not in _HT_KEYS:
                raise ParseError(f"ht: unknown key {key!r}")
        for key in _HT_KEYS:
            if key not in block:
                raise ParseError(f"ht: missing key {key!r}")
        scenario.ht_prior_names, priors = _named_beliefs(
            block["priors"], scenario.beliefs, "ht.priors"
        )
        rho = [
            parse_rational(r, f"ht.rho[{i}]")
            for i, r in enumerate(_expect_array(block["rho"], "ht.rho"))
        ]
        eps = parse_rational(block["eps"], "ht.eps")
        scenario.ht = HTRepresentation(space, priors, rho, eps)

    if "lps" in doc:
        from .lps import LPSRepresentation

        scenario.lps_names, levels = _named_beliefs(doc["lps"], scenario.beliefs, "lps")
        scenario.lps = LPSRepresentation(space, levels)

    for name, table in _expect_object(doc.get("utilities", {}), "utilities").items():
        scenario.utilities[name] = UtilityFunction(_rationals(table, f"utilities.{name}"))

    for name, table in _expect_object(doc.get("acts", {}), "acts").items():
        lots = _expect_object(table, f"acts.{name}").items()
        assignment = {s: Lottery(_rationals(lot, f"acts.{name}.{s}")) for s, lot in lots}
        scenario.acts[name] = Act(space, assignment)

    for name, labels in _expect_object(doc.get("events", {}), "events").items():
        if name in space.states:
            raise ParseError(f"events.{name}: an event name must not be a state label")
        scenario.events[name] = space.event_from(
            _expect_strings(labels, f"events.{name}")
        )

    return scenario


def render(scenario: Scenario) -> str:
    """Canonical serialization: space order for states, sorted outcomes."""
    space = scenario.space
    doc: dict = {"space": list(space.states)}
    if scenario.beliefs:
        doc["beliefs"] = {
            name: {state: format_rational(mass) for state, mass in belief.items() if mass}
            for name, belief in scenario.beliefs.items()
        }
    if scenario.os_names is not None:
        doc["os"] = list(scenario.os_names)
    if scenario.ht is not None:
        doc["ht"] = {
            "priors": list(scenario.ht_prior_names),
            "rho": [format_rational(r) for r in scenario.ht.rho],
            "eps": format_rational(scenario.ht.eps),
        }
    if scenario.lps_names is not None:
        doc["lps"] = list(scenario.lps_names)
    if scenario.utilities:
        doc["utilities"] = {
            name: {
                outcome: format_rational(u.value(outcome))
                for outcome in sorted(u.outcomes)
            }
            for name, u in scenario.utilities.items()
        }
    if scenario.acts:
        doc["acts"] = {
            name: {
                state: {
                    outcome: format_rational(p)
                    for outcome, p in sorted(act.lottery_at(state).items())
                }
                for state in space.states
            }
            for name, act in scenario.acts.items()
        }
    if scenario.events:
        doc["events"] = {
            name: [s for s in space.states if s in event]
            for name, event in scenario.events.items()
        }
    return json.dumps(doc, indent=2) + "\n"


def fixture_names() -> tuple[str, ...]:
    root = resources.files(__package__) / "fixtures"
    return tuple(sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json")))


def load_scenario(ref: str | Path) -> Scenario:
    """Load from a filesystem path, or by bundled fixture name.

    A path that cannot be looked up or read as UTF-8 text is a ParseError.
    """
    path = Path(ref)
    try:
        if path.exists():
            text = path.read_text(encoding="utf-8")
        elif path.suffix == ".json":
            raise ParseError(f"no such scenario file: {ref}")
        else:
            candidate = resources.files(__package__) / "fixtures" / f"{ref}.json"
            if not candidate.is_file():
                raise ParseError(
                    f"unknown scenario {str(ref)!r}; "
                    f"bundled fixtures: {', '.join(fixture_names())}"
                )
            text = candidate.read_text(encoding="utf-8")
    except OSError as bad:
        raise ParseError(f"cannot read scenario file {ref}: {bad.strerror or bad}") from None
    except UnicodeDecodeError as bad:
        raise ParseError(f"scenario file {ref} is not UTF-8 text: {bad.reason}") from None
    return parse_scenario(text)
