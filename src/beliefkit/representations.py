"""The three belief-system representations, apart from the rules they induce.

An ``OSRepresentation`` is an ordered hierarchy of priors (Myerson 1986),
an ``HTRepresentation`` a weighted prior list with a threshold (Ortoleva
2012), and an ``LPSRepresentation`` a lexicographic list of levels
(Blume-Brandenburger-Dekel 1991).  Each checks its own shape when built;
what each one does lives in ``ordered_surprises``, ``hypothesis_testing``
and ``lps``.  A scenario builds its blocks from here, so parsing a
scenario runs none of those modules.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .core import Belief, StateSpace, as_fraction, as_threshold
from .errors import SpaceMismatch, ValidationError


class OSRepresentation:
    """An ordered, nonempty list of priors over one state space."""

    __slots__ = ("space", "priors")

    def __init__(self, space: StateSpace, priors: Iterable[Belief]):
        priors = tuple(priors)
        if not priors:
            raise ValidationError("a hierarchy needs at least one prior")
        for prior in priors:
            if prior.space != space:
                raise SpaceMismatch("prior built over a different state space")
        self.space = space
        self.priors = priors

    def __len__(self) -> int:
        return len(self.priors)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OSRepresentation)
            and self.space == other.space
            and self.priors == other.priors
        )

    def __hash__(self) -> int:
        return hash((self.space, self.priors))

    def __repr__(self) -> str:
        return f"OSRepresentation(<{len(self.priors)} priors over {len(self.space)} states>)"

    @property
    def covers_space(self) -> bool:
        """True when every state is in some prior's support."""
        mask = 0
        for prior in self.priors:
            mask |= prior.support_mask
        return mask == (1 << len(self.space)) - 1

    @property
    def is_canonical(self) -> bool:
        """True when supports are pairwise disjoint."""
        seen = 0
        for prior in self.priors:
            if prior.support_mask & seen:
                return False
            seen |= prior.support_mask
        return True


class HTRepresentation:
    """Priors with positive weights (top one strictly maximal) and a threshold.

    Weight j is ``weights[j] / total``, reduced so that total > 0 and
    gcd(total, *weights) == 1; ``rho`` reads the weights as Fractions,
    built on first read.
    """

    __slots__ = ("space", "priors", "weights", "total", "eps", "_rho")

    def __init__(
        self,
        space: StateSpace,
        priors: Iterable[Belief],
        rho: Iterable[Fraction | int],
        eps: Fraction | int = 0,
    ):
        priors = tuple(priors)
        rho = tuple(as_fraction(r) for r in rho)
        common = lcm(*[r.denominator for r in rho])  # weights as integers over it
        scaled = [r.numerator * (common // r.denominator) for r in rho]
        self._init(space, priors, scaled, common, as_fraction(eps))

    @classmethod
    def from_weights(
        cls,
        space: StateSpace,
        priors: tuple[Belief, ...],
        weights: Sequence[int],
        total: int,
        eps: Fraction,
    ) -> HTRepresentation:
        """The representation of weights ``weights[j] / total``, given as integers.

        The checks are the constructor's; no Fraction is built.
        """
        return object.__new__(cls)._init(space, priors, weights, total, eps)

    def _init(
        self, space: StateSpace, priors: tuple, weights: Sequence[int], total: int, eps: Fraction
    ) -> HTRepresentation:
        # the one initializer: weights[j] / total with total > 0, eps a Fraction;
        # the weight checks are C-level passes, and a loop reads the priors' slots fastest
        if not priors:
            raise ValidationError("a representation needs at least one prior")
        if [prior.space for prior in priors].count(space) != len(priors):
            raise SpaceMismatch("prior built over a different state space")
        if len(weights) != len(priors):
            raise ValidationError("need exactly one weight per prior")
        if min(weights) <= 0:
            raise ValidationError("weights must be strictly positive")
        if sum(weights) != total:
            raise ValidationError(f"weights must sum to 1, got {Fraction(sum(weights), total)}")
        if max(weights[1:], default=0) >= weights[0]:
            raise ValidationError("the first prior's weight must be strictly maximal")
        as_threshold(eps)  # the range after the weight checks; the type came first
        union = 0
        for prior in priors:
            union |= prior.support_mask
        if union != (1 << len(space)) - 1:
            raise ValidationError("prior supports must jointly cover the space")
        g = gcd(total, *weights)
        self.space = space
        self.priors = priors
        self.weights = tuple(weights) if g == 1 else tuple([w // g for w in weights])
        self.total = total // g
        self.eps = eps
        self._rho: tuple[Fraction, ...] | None = None
        return self

    @property
    def rho(self) -> tuple[Fraction, ...]:
        """Each prior's weight as a Fraction, built on first read."""
        if self._rho is None:
            total = self.total
            self._rho = tuple([Fraction(w, total) for w in self.weights])
        return self._rho

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HTRepresentation)
            and self.space == other.space
            and self.priors == other.priors
            and self.weights == other.weights
            and self.total == other.total
            and self.eps == other.eps
        )

    def __hash__(self) -> int:
        return hash((self.space, self.priors, self.weights, self.total, self.eps))

    def __repr__(self) -> str:
        return (
            f"HTRepresentation(<{len(self.priors)} priors over "
            f"{len(self.space)} states, eps={self.eps}>)"
        )


class LPSRepresentation:
    """Ordered belief levels; overlap and partial coverage are both allowed."""

    __slots__ = ("space", "levels")

    def __init__(self, space: StateSpace, levels: Iterable[Belief]):
        levels = tuple(levels)
        if not levels:
            raise ValidationError("need at least one level")
        for level in levels:
            if level.space != space:
                raise SpaceMismatch("level built over a different state space")
        self.space = space
        self.levels = levels

    def __len__(self) -> int:
        return len(self.levels)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LPSRepresentation)
            and self.space == other.space
            and self.levels == other.levels
        )

    def __hash__(self) -> int:
        return hash((self.space, self.levels))

    def __repr__(self) -> str:
        return f"LPSRepresentation(<{len(self.levels)} levels over {len(self.space)} states>)"
