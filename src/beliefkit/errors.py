"""Typed errors shared across the package.

Every failure mode a caller can hit has its own class so that tests and
the CLI can match on the name instead of parsing messages.
"""

from __future__ import annotations


class BeliefkitError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(BeliefkitError):
    """A constructor or operation received data violating a type invariant."""


class ParseError(BeliefkitError):
    """Scenario text is malformed (bad JSON, unknown key, bad rational)."""


class SpaceMismatch(BeliefkitError):
    """Two objects built over different state spaces were combined."""


class TooManyStates(BeliefkitError):
    """A power-set enumeration was requested over more states than the cap."""


class EmptyEvent(BeliefkitError):
    """Conditioning on the empty event is undefined."""


class NullConditioning(BeliefkitError):
    """Bayes update on an event of probability zero."""


class MissingUtility(BeliefkitError):
    """An act produced an outcome the utility table does not cover."""


class BadDelta(BeliefkitError):
    """Conservative-rule weight outside (0, 1]."""


class IncompleteCoverage(BeliefkitError):
    """No prior in the hierarchy assigns positive mass to the event."""


class NoPriorExceedsThreshold(BeliefkitError):
    """No prior mass clears the surprise threshold; the update is undefined."""


class NotCps(BeliefkitError):
    """A rule failed conditional-probability-system validation."""

    def __init__(self, message: str, validation=None):
        super().__init__(message)
        self.validation = validation


class AmbiguousArgmax(BeliefkitError):
    """Two or more priors tie for the maximal selection score."""

    def __init__(self, message: str, event=None, tied=()):
        super().__init__(message)
        self.event = event
        self.tied = tuple(tied)


class AllZeroScores(BeliefkitError):
    """Every selection score is zero, so no prior can be chosen."""


class SeparationFailed(BeliefkitError):
    """The thresholded construction's lowest interval does not clear the threshold."""


class AllLevelsNull(BeliefkitError):
    """Every lexicographic level assigns zero mass to the conditioning event."""


class DegenerateBase(BeliefkitError):
    """The base utility is constant on the shared outcomes, so no affine fit exists."""


class InfeasibleSubevent(BeliefkitError):
    """The sub-event has zero mass under the conditioning belief."""


class OutsideDomain(BeliefkitError, KeyError):
    """An updating rule was asked for an event outside its domain.

    Also a KeyError, so callers that index a rule like a mapping keep
    working.  The message prints unquoted, as for every other error here.
    """

    def __str__(self) -> str:
        return Exception.__str__(self)
