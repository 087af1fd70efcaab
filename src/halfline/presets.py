"""Built-in unit-norm initial profiles, all vanishing at the wall.

Every preset is normalized in closed form, so its exact L2 norm is 1
and the grid norm differs only by the midpoint quadrature error.  The
reference resolution below is the one convergence studies report at.
"""

from __future__ import annotations

import math
import re
from typing import Callable

import numpy as np

from .errors import ResolutionError, ValidationError
from .grid import UNIT_TOL, Grid, WaveFunction, _adopt, norm

REFERENCE_L = 40.0
REFERENCE_N = 2 ** 16

# Normalizes x exp(-x^2) on the half line: the squared integral is
# sqrt(pi/2)/8, so the amplitude is sqrt(8)/(pi/2)^(1/4).
XEXP_AMPLITUDE = math.sqrt(8.0) / (math.pi / 2.0) ** 0.25

PRESET_NAMES = ("xexp", "bump12", "bump23", "sine-mode-<k>")

_SINE_RE = re.compile(r"sine-mode-([0-9]+)")


def _xexp(x: np.ndarray) -> np.ndarray:
    # exp(-y^2) is 0 in float64 once |y| > 27.3, so clipping y at 30 moves
    # no value and keeps y^2 finite on any interval.
    y = np.clip(np.asarray(x, dtype=np.float64), -30.0, 30.0)
    return XEXP_AMPLITUDE * y * np.exp(-y * y)


def _arch(lo: float) -> Callable[[np.ndarray], np.ndarray]:
    # Single half-sine arch on [lo, lo+1].  Unit L2 norm, Lipschitz,
    # identically zero outside the arch, so its numerical support has
    # a sharp lower edge at lo.
    amp = math.sqrt(2.0)

    def f(x: np.ndarray) -> np.ndarray:
        y = np.asarray(x, dtype=np.float64)
        vals = amp * np.sin(np.pi * (y - lo))
        return np.where((y >= lo) & (y <= lo + 1.0), vals, 0.0)

    return f


def preset_function(name: str, L: float | None = None) -> Callable[[np.ndarray], np.ndarray]:
    """Closed-form profile for a preset name.

    Sine modes depend on the interval length, so they require L.  The
    returned callable accepts scalar or array arguments.
    """
    if name == "xexp":
        return _xexp
    if name == "bump12":
        return _arch(1.0)
    if name == "bump23":
        return _arch(2.0)
    m = isinstance(name, str) and _SINE_RE.fullmatch(name)
    if m:
        k = int(m.group(1))
        if k < 1:
            raise ValidationError(f"sine mode number must be >= 1, got {k}")
        if L is None:
            raise ValidationError("sine modes need the interval length L")
        amp = math.sqrt(2.0 / L)
        w = k * math.pi / L
        if not math.isfinite(w):
            raise ValidationError(f"sine mode {k} has wavenumber k*pi/L = {w} on L={L!r}")
        return lambda x: amp * np.sin(w * np.asarray(x, dtype=np.float64))
    raise ValidationError(
        f"unknown preset {name!r}, expected one of {', '.join(PRESET_NAMES)}"
    )


def get_preset(name: str, grid: Grid) -> WaveFunction:
    """Sample a preset on a grid after checking it is representable there:
    it vanishes at the wall and its grid norm is its exact norm 1 to
    within UNIT_TOL, the tolerance every unit vector on a grid meets."""
    f = preset_function(name, L=grid.L)
    m = _SINE_RE.fullmatch(name)
    if m and int(m.group(1)) > grid.N // 4:
        raise ValidationError(
            f"sine mode {m.group(1)} needs more than {grid.N} cells on this grid"
        )
    vals = np.asarray(f(grid.x), dtype=np.complex128)
    peak = float(np.max(np.abs(vals)))
    trace = float(np.abs(f(np.float64(0.0))))
    if peak > 0.0 and trace > 1e-8 * peak:
        raise ValidationError(f"preset {name!r} does not vanish at the wall")
    u = _adopt(grid, vals)
    n = norm(u)
    if abs(n - 1.0) > UNIT_TOL:
        raise ResolutionError(
            f"preset {name!r} has grid norm {n:.3e} on L={grid.L:g}, N={grid.N}: "
            f"the grid does not resolve it (|norm - 1| = {abs(n - 1.0):.1e} > {UNIT_TOL:g})"
        )
    return u
