"""Scenario files: strict parsing, canonical rendering, fixture resolution."""

import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from beliefkit import (
    ParseError,
    fixture_names,
    format_rational,
    load_scenario,
    parse_rational,
    parse_scenario,
)


def test_parse_rational_accepts_integers_and_ratios():
    assert parse_rational("7/8", "x") == Fraction(7, 8)
    assert parse_rational("-3", "x") == Fraction(-3)
    assert parse_rational("0", "x") == 0


@pytest.mark.parametrize(
    "bad", ["0.25", "1/0", "7 / 8", "", "one", "1/\u0660", "\u0661/\u0662", "1/2\n"]
)
def test_parse_rational_rejects_everything_else(bad):
    with pytest.raises(ParseError):
        parse_rational(bad, "x")


def test_parse_rational_rejects_raw_numbers():
    with pytest.raises(ParseError) as exc:
        parse_rational(0.25, "beliefs.mu0.h")
    assert "beliefs.mu0.h" in str(exc.value)
    assert "strings" in str(exc.value)


def test_format_rational_round_trips():
    for text in ("7/8", "0", "-3", "1175/256"):
        assert format_rational(parse_rational(text, "x")) == text


def test_bundled_fixture_names():
    assert fixture_names() == ("coin", "conservative", "ht_counterexample", "lps_demo")


@pytest.mark.parametrize("name", ["coin", "conservative", "ht_counterexample", "lps_demo"])
def test_fixture_render_round_trip(name):
    scenario = load_scenario(name)
    text = scenario.render()
    assert parse_scenario(text).render() == text


SCENARIO_FILES = [
    *(resources.files("beliefkit") / "fixtures" / f"{name}.json" for name in fixture_names()),
    *sorted((Path(__file__).resolve().parent / "golden" / "scenarios").glob("*.json")),
]


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_scenario_file_renders_to_itself_or_is_unusable(path):
    """Bundled fixtures and golden scenarios are canonical; the ``bad_*`` ones do not parse."""
    text = path.read_text(encoding="utf-8")
    if path.name.startswith("bad_"):
        with pytest.raises(ParseError):
            parse_scenario(text)
    else:
        assert parse_scenario(text).render().encode() == path.read_bytes()


def test_coin_fixture_content():
    scenario = load_scenario("coin")
    assert scenario.space.states == ("h", "t", "e", "el", "l1", "l2")
    assert scenario.os is not None
    assert len(scenario.os) == 3
    assert scenario.os.priors[0].mass_of("h") == Fraction(1, 2)
    assert scenario.events["A"].members == ("el", "l1", "l2")
    assert scenario.ht is None


def test_an_event_name_that_is_a_state_label_is_rejected():
    """``--event`` reads a whole text as an event name before it splits
    labels, so a name equal to a label would shadow that label."""
    text = '{"space": ["a", "b"], "events": {"E": ["a", "b"], "b": ["a"]}}'
    with pytest.raises(ParseError, match="^events.b: an event name must not be a state label$"):
        parse_scenario(text)


def test_load_scenario_from_a_path(tmp_path):
    target = tmp_path / "tiny.json"
    target.write_text(load_scenario("coin").render(), encoding="utf-8")
    from_path = load_scenario(str(target))
    assert from_path.space == load_scenario("coin").space


def test_load_scenario_missing_json_path_is_an_error(tmp_path):
    with pytest.raises(ParseError) as exc:
        load_scenario(str(tmp_path / "gone.json"))
    assert "no such scenario file" in str(exc.value)


def test_load_scenario_unknown_name_lists_fixtures():
    with pytest.raises(ParseError) as exc:
        load_scenario("nosuch")
    message = str(exc.value)
    assert "nosuch" in message
    for name in fixture_names():
        assert name in message


def test_duplicate_keys_rejected():
    text = '{"space": ["a"], "beliefs": {"m": {"a": "1"}, "m": {"a": "1"}}}'
    with pytest.raises(ParseError) as exc:
        parse_scenario(text)
    assert "duplicate" in str(exc.value)


def test_unknown_top_level_key_rejected():
    with pytest.raises(ParseError) as exc:
        parse_scenario('{"space": ["a"], "extra": 1}')
    assert "unknown key" in str(exc.value)


def test_missing_space_rejected():
    with pytest.raises(ParseError) as exc:
        parse_scenario('{"beliefs": {}}')
    assert "space" in str(exc.value)


def test_unknown_belief_name_in_os_block():
    text = json.dumps(
        {
            "space": ["a"],
            "beliefs": {"m": {"a": "1"}},
            "os": ["m", "ghost"],
        }
    )
    with pytest.raises(ParseError) as exc:
        parse_scenario(text)
    assert "os[1]" in str(exc.value)
    assert "ghost" in str(exc.value)


def test_bad_mass_is_located_by_path():
    text = json.dumps(
        {
            "space": ["a", "b"],
            "beliefs": {"m": {"a": "1/2", "b": "0.5"}},
        }
    )
    with pytest.raises(ParseError) as exc:
        parse_scenario(text)
    assert "beliefs.m.b" in str(exc.value)


def test_json_syntax_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_scenario('{"space": ["a",]}')
    assert "line 1" in str(exc.value)


def test_render_is_canonical_and_newline_terminated():
    scenario = load_scenario("lps_demo")
    text = scenario.render()
    assert text.endswith("\n")
    data = json.loads(text)
    assert list(data)[0] == "space"
    again = parse_scenario(text).render()
    assert again == text


def test_render_omits_zero_masses():
    text = json.dumps(
        {
            "space": ["a", "b"],
            "beliefs": {"m": {"a": "1", "b": "0"}},
        }
    )
    rendered = parse_scenario(text).render()
    data = json.loads(rendered)
    assert data["beliefs"]["m"] == {"a": "1"}


def test_ht_block_requires_its_keys():
    base = {
        "space": ["a"],
        "beliefs": {"m": {"a": "1"}},
    }
    broken = dict(base, ht={"priors": ["m"], "rho": ["1"]})
    with pytest.raises(ParseError) as exc:
        parse_scenario(json.dumps(broken))
    assert "ht" in str(exc.value)
    stray = dict(base, ht={"priors": ["m"], "rho": ["1"], "eps": "0", "zzz": 1})
    with pytest.raises(ParseError) as exc:
        parse_scenario(json.dumps(stray))
    assert "zzz" in str(exc.value)
