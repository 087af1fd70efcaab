"""Viscous transport on the half line, its limit dynamics, and the
instruments that exhibit where convergence holds and where it fails."""

from .errors import ResolutionError, ResolutionWarning, ValidationError
from .grid import (
    BoundedFunction,
    Grid,
    WaveFunction,
    boundary_defect,
    boundary_value,
    indicator_project,
    inner,
    is_boundary_compatible,
    make_grid,
    norm,
    reflect_sample,
    sample_at,
    shift_sample,
)
from .presets import PRESET_NAMES, REFERENCE_L, REFERENCE_N, get_preset, preset_function
from .evolvers import (
    EvolutionParams,
    GROUP_TOL,
    KERNEL_NORM_TOL,
    PPW_MIN,
    ResolutionReport,
    UNITARITY_RTOL,
    asymptotic_evolve,
    kernel_evolve,
    limit_group_V,
    remainder_norm,
    resolution_report,
    spectral_evolve,
)
from .limit_dynamics import (
    ALPHA_FLOOR,
    CompAlgebraState,
    KrausBranchState,
    MASS_FLOOR,
    WoldProjectors,
    comp_semigroup_check,
    comp_state_evolve,
    destruction_time,
    kraus_apply,
    mult_expectation_limit,
    reflect_W,
    shift_V,
    wold_projectors,
)
from .observables import (
    FiniteRankObservable,
    MultiplicationObservable,
    comp_expectation_limit,
    expectation,
)
from .harness import (
    CLAIMS,
    Check,
    ConvergenceRecord,
    SweepConfig,
    attach_ratios,
    claim_checks,
    divergence_probe,
    emit_report,
    evaluate_checks,
    run_claim,
    standard_observables,
    sweep_expectations,
    sweep_prop2,
    sweep_theorem1,
    sweep_weak_decay,
)

__version__ = "0.1.0"
