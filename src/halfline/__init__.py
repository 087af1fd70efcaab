"""Viscous transport on the half line, its limit dynamics, and the
instruments that exhibit where convergence holds and where it fails.

Names not re-exported here import from their submodule: ``halfline.grid``,
``.presets``, ``.evolvers``, ``.limit_dynamics``, ``.observables``, ``.harness``."""

from .errors import ResolutionError, ResolutionWarning, ValidationError
from .grid import WaveFunction, boundary_value, make_grid, norm
from .presets import get_preset, preset_function
from .evolvers import EvolutionParams, asymptotic_evolve, kernel_evolve, spectral_evolve
from .limit_dynamics import (
    comp_semigroup_check,
    comp_state_evolve,
    destruction_time,
    kraus_apply,
    reflect_W,
    wold_projectors,
)
from .harness import SweepConfig, emit_report, run_claim

__version__ = "0.1.0"
