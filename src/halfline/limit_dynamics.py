"""Limit dynamics after the viscosity is gone: branches, states, stopping.

Everything here describes the b > 0 inflow regime, where transport
drains mass through the wall.  The strong limit is the contraction
V(t) u = u(x + b t); what the contraction loses is recovered either by
a second explicit branch (the reflected wave, up to a phase that never
converges) or, at the level of states on compact observables, by a
singular component that no compact observable can see.

Both pictures read one ``LimitState`` per (phi, b, t), which
``kraus_apply`` and ``comp_state_evolve`` return after one unit check:
V(t) phi and its mass are built with it, W(t) phi and the normalized
profile on first use, and the limit expectations read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError, check_params
from .grid import (
    BoundedFunction,
    Grid,
    WaveFunction,
    _adopt,
    _scaled,
    density,
    indicator_project,
    mass,
    reflect_sample,
    require_unit,
    shift_sample,
    weighted_mass,
)

# Below this surviving mass the transported branch has no direction
# left to normalize and the state is treated as wholly singular.
ALPHA_FLOOR = 1e-12

# Cumulative-mass threshold defining the numerical support edge.
MASS_FLOOR = 1e-12


def shift_V(phi: WaveFunction, b: float, t: float) -> WaveFunction:
    """Transport branch: (V(t) u)(x) = u(x + b t), a contraction."""
    check_params(b=b, t=t, inflow=True)
    return shift_sample(phi, b * t)


def reflect_W(phi: WaveFunction, b: float, t: float) -> WaveFunction:
    """Reflected branch: (W(t) u)(x) = u(b t - x), supported on [0, b t]
    with no projection: every node past the cut reads a position below 0."""
    check_params(b=b, t=t, inflow=True)
    return reflect_sample(phi, b * t)


@dataclass(frozen=True)
class LimitState:
    """The limit channel at time t on one unit vector phi: both Kraus
    branches and the state on compact observables.  The singular weight
    is exactly 1 - alpha; below ALPHA_FLOOR there is no transported
    direction left and the profile is None."""

    phi: WaveFunction
    cut: float
    shift_branch: WaveFunction
    p_shift: float

    @property
    def alpha(self) -> float:
        """The surviving mass of the transported branch, at most 1."""
        return min(self.p_shift, 1.0)

    @property
    def singular_weight(self) -> float:
        return 1.0 - self.alpha

    @cached_property
    def reflect_branch(self) -> WaveFunction:
        return reflect_sample(self.phi, self.cut)

    @cached_property
    def p_reflect(self) -> float:
        return mass(self.reflect_branch)

    @property
    def completeness_defect(self) -> float:
        """|p_shift + p_reflect - 1|: W(t) phi copies what V(t) phi dropped."""
        return abs(self.p_shift + self.p_reflect - 1.0)

    @cached_property
    def shift_profile(self) -> WaveFunction | None:
        if self.alpha <= ALPHA_FLOOR:
            return None
        return _adopt(self.phi.grid, _scaled(self.shift_branch.values, math.sqrt(self.alpha)))


def _limit_state(phi: WaveFunction, b: float, t: float) -> LimitState:
    """The limit state of a vector already known to be a unit one."""
    v = shift_V(phi, b, t)
    return LimitState(phi=phi, cut=b * t, shift_branch=v, p_shift=mass(v))


def kraus_apply(phi: WaveFunction, b: float, t: float) -> LimitState:
    """Apply the limit channel to a unit vector, whose branch masses then sum to one."""
    require_unit(phi, "kraus_apply")
    return _limit_state(phi, b, t)


def comp_state_evolve(phi: WaveFunction, b: float, t: float) -> LimitState:
    """Evolve a unit vector to its limiting state on compact observables."""
    require_unit(phi, "comp_state_evolve")
    return _limit_state(phi, b, t)


def mult_expectation_limit(state: LimitState, f: BoundedFunction) -> float | complex:
    """Limit of multiplication-observable expectations in a limit state.

    Both branches contribute their own density; the phase riding on
    the reflected wave cancels against its conjugate, so the limit
    sees plain densities and no interference term.
    """
    f.grid.require_same(state.phi, "observable and state")
    return weighted_mass(f, density(state.shift_branch) + density(state.reflect_branch))


def destruction_time(phi: WaveFunction, b: float) -> float:
    """First time the transported state starts losing mass.

    Numerically: the first node where the cumulative mass of phi
    exceeds MASS_FLOOR, divided by b.
    """
    check_params(b=b, inflow=True)
    # h * cumsum of a density never decreases: one search finds the node.
    i = np.searchsorted(phi.grid.h * np.cumsum(density(phi)), MASS_FLOOR, "right")
    if i == phi.grid.N:
        raise ValidationError("state carries no mass above MASS_FLOOR")
    t_star = float(phi.grid.x[i]) / b
    if not math.isfinite(t_star):
        raise ValidationError(f"destruction time x/b overflows at x={phi.grid.x[i]:g}, b={b!r}")
    return t_star


@dataclass(frozen=True)
class WoldProjectors:
    """Orthogonal split of the half line at the moving cut b t.

    The upper band [b t, L] is the range of the adjoint shift at time
    t; the lower band [0, b t] is what the channel has already filled.
    Both bands are closed, so a node sitting exactly on the cut
    belongs to both projections.
    """

    grid: Grid
    cut: float

    def upper(self, u: WaveFunction) -> WaveFunction:
        return self._band(u, self.cut, self.grid.L)

    def lower(self, u: WaveFunction) -> WaveFunction:
        return self._band(u, 0.0, self.cut)

    def _band(self, u: WaveFunction, a: float, b: float) -> WaveFunction:
        self.grid.require_same(u, "projectors and state")
        return indicator_project(u, a, b)


def wold_projectors(grid: Grid, b: float, t: float) -> WoldProjectors:
    check_params(b=b, t=t, inflow=True)
    if b * t >= grid.L:
        raise ValidationError(f"cut b t = {b * t:g} reaches the far wall at L={grid.L:g}")
    return WoldProjectors(grid=grid, cut=b * t)


def comp_semigroup_check(phi: WaveFunction, b: float, t: float, tau: float) -> float:
    """Defect of the state flow composition property.

    Evolves to t, restarts from the normalized transported profile for
    another tau, and compares the surviving mass with the direct
    evolution to t + tau.  Zero by definition when either leg is
    empty.  The branch maps themselves do not compose (reapplying the
    reflected branch is a projection, not a longer reflection); the
    composition law holds only at the level of states, which is what
    this measures.
    """
    check_params(b=b, t=t, inflow=True)
    check_params(t=tau)
    require_unit(phi, "comp_state_evolve")
    if t == 0.0 or tau == 0.0:
        return 0.0
    # Only the first leg's profile is read; the others need their alpha alone.
    direct = _limit_state(phi, b, t + tau).alpha
    first = _limit_state(phi, b, t)
    if first.shift_profile is None:
        return abs(direct)
    second = _limit_state(first.shift_profile, b, tau).alpha
    return abs(first.alpha * second - direct)
