"""Observables and their expectations along the viscous flow and in the limit.

Two families matter: multiplication by a bounded function, which keeps
seeing the full state in the limit, and finite-rank (compact)
observables, which lose sight of the mass swallowed by the wall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, require_real
from .grid import BoundedFunction, Grid, Pairing, WaveFunction, density, require_unit, weighted_mass
from .limit_dynamics import LimitState


@dataclass(frozen=True)
class FiniteRankObservable:
    """Real combination sum_k c_k P_k of rank-one projections.

    Directions must be unit vectors; they need not be orthogonal.  Each
    is paired once, here, for every state the observable meets.
    """

    coeffs: tuple[float, ...]
    directions: tuple[WaveFunction, ...]
    pairings: tuple[Pairing, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.coeffs) != len(self.directions):
            raise ValidationError("one coefficient per direction required")
        if len(self.coeffs) == 0:
            raise ValidationError("finite-rank observable needs at least one term")
        for c in self.coeffs:
            require_real("coefficient", c)
            if not math.isfinite(c):
                raise ValidationError(f"coefficients must be finite reals, got {c!r}")
        for d in self.directions:
            self.grid.require_same(d, "directions")
            require_unit(d, "each direction")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        object.__setattr__(self, "pairings", tuple(Pairing(d) for d in self.directions))

    @property
    def grid(self) -> Grid:
        return self.directions[0].grid


Observable = BoundedFunction | FiniteRankObservable


def expectation(u: WaveFunction, obs: Observable) -> float | complex:
    """Quadratic form <u, A u> of an observable on a state; a
    BoundedFunction acts by multiplication."""
    if not isinstance(obs, (BoundedFunction, FiniteRankObservable)):
        raise ValidationError(f"unsupported observable type {type(obs).__name__}")
    obs.grid.require_same(u, "observable and state")
    if isinstance(obs, BoundedFunction):
        return weighted_mass(obs, density(u))
    total = 0.0
    for c, p in zip(obs.coeffs, obs.pairings):
        total += c * abs(p(u.values)) ** 2
    return total


def comp_expectation_limit(state: LimitState, obs: FiniteRankObservable) -> float:
    """Limiting expectation of a compact observable in a limit state.

    Only the transported branch contributes; the singular weight is
    invisible to any finite-rank observable.  Multiplication
    observables must go through mult_expectation_limit instead, since
    their limit keeps both branches.
    """
    if not isinstance(obs, FiniteRankObservable):
        raise ValidationError(
            "comp_expectation_limit handles finite-rank observables only"
        )
    obs.grid.require_same(state.phi, "observable and state")
    if state.shift_profile is None:
        return 0.0
    val = expectation(state.shift_profile, obs)
    return state.alpha * float(np.real(val))
