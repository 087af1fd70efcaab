"""Limit dynamics after the viscosity is gone: branches, states, stopping.

Everything here describes the b > 0 inflow regime, where transport
drains mass through the wall.  The strong limit is the contraction
V(t) u = u(x + b t); what the contraction loses is recovered either by
a second explicit branch (the reflected wave, up to a phase that never
converges) or, at the level of states on compact observables, by a
singular component that no compact observable can see.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_params
from .grid import (
    BoundedFunction,
    Grid,
    WaveFunction,
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
class KrausBranchState:
    """Both branches of the limit channel applied to one unit vector."""

    shift_branch: WaveFunction
    reflect_branch: WaveFunction
    p_shift: float
    p_reflect: float
    completeness_defect: float


def kraus_apply(phi: WaveFunction, b: float, t: float) -> KrausBranchState:
    """Apply both branches and account for the mass split.

    The two branch masses must sum to one: the reflected branch is an
    exact isometric copy of whatever the transport branch dropped.
    Requires unit input, since the mass bookkeeping is meaningless
    otherwise.
    """
    require_unit(phi, "kraus_apply")
    v = shift_V(phi, b, t)
    w = reflect_W(phi, b, t)
    pv = mass(v)
    pw = mass(w)
    return KrausBranchState(
        shift_branch=v,
        reflect_branch=w,
        p_shift=pv,
        p_reflect=pw,
        completeness_defect=abs(pv + pw - 1.0),
    )


def mult_expectation_limit(
    phi: WaveFunction, f: BoundedFunction, b: float, t: float
) -> float | complex:
    """Limit of multiplication-observable expectations at time t.

    Both branches contribute their own density; the phase riding on
    the reflected wave cancels against its conjugate, so the limit
    sees plain densities and no interference term.
    """
    if phi.grid != f.grid:
        raise ValidationError("observable and state live on different grids")
    return weighted_mass(f, density(shift_V(phi, b, t)) + density(reflect_W(phi, b, t)))


@dataclass(frozen=True)
class CompAlgebraState:
    """State on compact observables: a weighted pure part plus a
    singular remainder.

    The singular weight is exactly 1 - alpha by construction.  Below
    ALPHA_FLOOR there is no transported direction left and the profile
    is None.
    """

    alpha: float
    singular_weight: float
    shift_profile: WaveFunction | None


def comp_state_evolve(phi: WaveFunction, b: float, t: float) -> CompAlgebraState:
    """Evolve a unit vector to its limiting state on compact observables."""
    require_unit(phi, "comp_state_evolve")
    return _comp_state(phi, b, t)


def _alpha(v: WaveFunction) -> float:
    """The surviving mass of a transported unit vector v, at most 1."""
    return min(mass(v), 1.0)


def _comp_state(phi: WaveFunction, b: float, t: float) -> CompAlgebraState:
    """``comp_state_evolve`` on a vector already known to be a unit one."""
    v = shift_V(phi, b, t)
    alpha = _alpha(v)
    if alpha <= ALPHA_FLOOR:
        profile = None
    else:
        # v is this call's own fresh state: it becomes the profile,
        # normalized in place.
        _scaled(v.values, math.sqrt(alpha), out=v.values)
        profile = v
    return CompAlgebraState(alpha=alpha, singular_weight=1.0 - alpha, shift_profile=profile)


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
    return float(phi.grid.x[i]) / b


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
        if u.grid != self.grid:
            raise ValidationError("projectors and state live on different grids")
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
    direct = _alpha(shift_V(phi, b, t + tau))
    first = _comp_state(phi, b, t)
    if first.shift_profile is None:
        return abs(direct)
    second = _alpha(shift_V(first.shift_profile, b, tau))
    return abs(first.alpha * second - direct)
