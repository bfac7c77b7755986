"""Lexicographic belief lists and their conditional, partial counterpart.

An act's value is a tuple of one expected utility per level, and tuples
compare in order: later levels only break earlier ties.
Conditioning drops the levels that give the event zero mass and updates
the survivors, which leaves the conditional undefined when every level is
null.  That partiality is the point of contrast with hierarchy updating,
which this module demonstrates side by side.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import ordered_surprises
from .core import (
    Act,
    Belief,
    Event,
    Preference,
    UtilityFunction,
    bayes_update,
    compare_values,
    seu_value,
)
from .errors import AllLevelsNull, EmptyEvent, SpaceMismatch, ValidationError
from .representations import LPSRepresentation, OSRepresentation


def lps_value(lps: LPSRepresentation, u: UtilityFunction, f: Act) -> tuple[Fraction, ...]:
    """Level-by-level expected utility of the act, one entry per level."""
    return tuple([seu_value(u, level, f) for level in lps.levels])


def lps_compare(lps: LPSRepresentation, u: UtilityFunction, f: Act, g: Act) -> Preference:
    """Lexicographic ranking; indifference only when every level ties.

    Both values have one entry per level, and tuples of equal length
    compare lexicographically: the first differing level decides.
    """
    return compare_values(lps_value(lps, u, f), lps_value(lps, u, g))


def clps_condition(lps: LPSRepresentation, e: Event) -> LPSRepresentation:
    """Drop levels null on the event, update the rest in their original order.

    Raises AllLevelsNull when no level survives: the conditional system is
    undefined there, which is exactly the incompleteness this type admits.
    """
    if e.space != lps.space:
        raise SpaceMismatch("event built over a different state space")
    if not e:
        raise EmptyEvent("cannot condition on the empty event")
    survivors = [
        bayes_update(level, e) for level in lps.levels if level.support_mask & e.mask
    ]
    if not survivors:
        raise AllLevelsNull(
            "every level assigns zero mass to {" + ",".join(e.members) + "}"
        )
    return LPSRepresentation(lps.space, survivors)


class ResolutionReport(NamedTuple):
    """Side-by-side verdicts for one act pair, ex ante and conditional.

    ``os_resolves`` records an ex-ante hierarchy indifference turned strict
    by conditioning; ``clps_resolves`` is the same notion on the
    lexicographic side; ``clps_agrees`` records whether the lexicographic
    conditional verdict matches its own ex-ante one.
    """

    os_ex_ante: Preference
    os_conditional: Preference
    lps_ex_ante: Preference
    clps_conditional: Preference
    os_resolves: bool
    clps_resolves: bool
    clps_agrees: bool


def indifference_resolution_demo(
    os_family,
    lps: LPSRepresentation,
    u: UtilityFunction,
    f: Act,
    g: Act,
    e: Event,
) -> ResolutionReport:
    """Compare the hierarchy and lexicographic verdicts around one event.

    ``os_family`` may be an OSRepresentation or anything carrying one under
    an ``os`` attribute.  A shared utility is used on both sides.
    Propagates AllLevelsNull when the lexicographic conditional is
    undefined on ``e``.
    """
    os = getattr(os_family, "os", os_family)
    if not isinstance(os, OSRepresentation):
        raise ValidationError("os_family does not carry an ordered hierarchy")
    full = os.space.full_event

    def verdict(belief: Belief) -> Preference:
        return compare_values(seu_value(u, belief, f), seu_value(u, belief, g))

    os_ex_ante = verdict(ordered_surprises.os_update(os, full))
    os_conditional = verdict(ordered_surprises.os_update(os, e))
    lps_ex_ante = lps_compare(lps, u, f, g)
    clps_conditional = lps_compare(clps_condition(lps, e), u, f, g)
    return ResolutionReport(
        os_ex_ante=os_ex_ante,
        os_conditional=os_conditional,
        lps_ex_ante=lps_ex_ante,
        clps_conditional=clps_conditional,
        os_resolves=(
            os_ex_ante is Preference.INDIFFERENT
            and os_conditional is not Preference.INDIFFERENT
        ),
        clps_resolves=(
            lps_ex_ante is Preference.INDIFFERENT
            and clps_conditional is not Preference.INDIFFERENT
        ),
        clps_agrees=lps_ex_ante is clps_conditional,
    )
