"""Convergence sweeps over viscosity ladders, with deterministic reports.

Each sweep fixes a grid, a preset, and a drift, then walks a strictly
decreasing viscosity ladder.  Its body yields (t, epsilon, metric,
value) rows; one driver, ``_sweep``, builds the grid, the preset and
the walk, runs every gate before the body starts, and makes each row a
ConvergenceRecord.  Reports are a flat CSV (one row per record) plus a
JSON verdict file; both are byte-identical across reruns of the same
configuration.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass
from functools import partial, wraps
from pathlib import Path

import numpy as np

from .errors import ValidationError, check_params
from .evolvers import limit_group_V, spectral_ladder, two_wave
from .grid import (
    BoundedFunction,
    Grid,
    Pairing,
    WaveFunction,
    _adopt,
    _scaled,
    indicator_project,
    inner,
    make_grid,
    mass,
    norm,
    plane_wave,
    reflect_sample,
    shift_sample,
)
from .limit_dynamics import LimitState, comp_state_evolve, mult_expectation_limit
from .observables import FiniteRankObservable, comp_expectation_limit, expectation
from .presets import get_preset

# Mass allowed within reach of the far wall over the whole sweep.
TAIL_GATE = 1e-10

# The divergence probe needs a visible absorbed branch to act on.
PROBE_MIN_ABSORBED = 0.05

# Defect directions closer than this to the span of earlier ones are
# dropped rather than normalized into noise.
GS_DROP_TOL = 1e-6

PROBE_RUNGS = 4

# The fixed test vector of the prop2 weak residual.
PROP2_PSI = "xexp"

# The test vector of weak sweeps when none is named.
WEAK_G = "bump12"

CSV_HEADER = "preset,b,t,epsilon,metric,value,ratio"


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: a grid, a preset, a drift, times, and a viscosity ladder."""

    preset: str
    L: float
    N: int
    b: float
    times: tuple[float, ...]
    eps: tuple[float, ...]

    def __post_init__(self) -> None:
        for t in self.times:
            check_params(t=t)
            if t == 0:
                raise ValidationError(f"sweep times must be positive, got {t!r}")
        for e in self.eps:
            check_params(epsilon=e)
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "eps", tuple(float(e) for e in self.eps))
        check_params(b=self.b)
        if len(self.times) == 0:
            raise ValidationError("at least one time is required")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValidationError(f"times must be strictly increasing, got {self.times}")
        if len(self.eps) == 0:
            raise ValidationError("the viscosity ladder must be nonempty")
        if any(b >= a for a, b in zip(self.eps, self.eps[1:])):
            raise ValidationError(
                f"the viscosity ladder must be strictly decreasing, got {self.eps}"
            )


@dataclass
class ConvergenceRecord:
    """One measured scalar at one ladder rung."""

    preset: str
    b: float
    t: float
    epsilon: float
    metric: str
    value: float


def require_inside(phi: WaveFunction, b: float, horizon: float) -> None:
    """Refuse a horizon at which transport at speed |b| carries mass of
    phi across the far wall, where the truncation to [0, L] shows."""
    check_params(b=b, t=horizon)
    reach = phi.grid.L - abs(b) * horizon
    if reach <= 0:
        raise ValidationError(
            f"horizon {horizon:g} sweeps past the far wall at L={phi.grid.L:g}"
        )
    tail = mass(indicator_project(phi, reach, phi.grid.L))
    if tail > TAIL_GATE:
        raise ValidationError(
            f"preset carries mass {tail:.3e} within reach of the far wall"
        )


def _sweep(body):
    """A sweep from its body, a generator of (t, epsilon, metric, value)
    rows given the grid, the preset phi and the walk over cfg.eps x
    cfg.times as keywords.  The walk's gates, one per rung, then the
    far-wall check run before the body starts, so they refuse first."""

    @wraps(body)
    def sweep(cfg, *args, **kwargs):
        grid = make_grid(cfg.L, cfg.N)
        phi = get_preset(cfg.preset, grid)
        walk = spectral_ladder(phi, cfg.eps, cfg.b, cfg.times)
        require_inside(phi, cfg.b, cfg.times[-1])
        rows = body(cfg, *args, grid=grid, phi=phi, walk=walk, **kwargs)
        return [ConvergenceRecord(cfg.preset, cfg.b, *row) for row in rows]

    # The body's signature less its keywords, as callers see the sweep.
    sig = inspect.signature(body)
    sweep.__signature__ = sig.replace(return_annotation="list[ConvergenceRecord]", parameters=[
        p for p in sig.parameters.values() if p.kind != p.KEYWORD_ONLY])
    return sweep


@_sweep
def sweep_theorem1(cfg: SweepConfig, *, grid, phi, walk):
    """Distance between the viscous flow and the two-wave form, per rung.

    Emits one record per (epsilon, t) and a per-epsilon supremum row
    over the configured times.  Supremum rows carry the largest
    configured time in their t column so every metric keeps a single
    ratio chain.
    """
    # The transported and reflected parts depend on t alone, not on the rung.
    parts = {t: (shift_sample(phi, cfg.b * t), reflect_sample(phi, cfg.b * t))
             for t in cfg.times}
    worst = 0.0
    for e, t, u in walk:
        if t == cfg.times[0]:
            # The reflected wave's phase depends on the rung alone.
            phase = plane_wave(grid, cfg.b / e, np.empty(grid.N, dtype=np.complex128))
        moved, mirrored = parts[t]
        d = two_wave(moved.values, phase, mirrored.values, out=np.empty_like(phase))
        # The remainder goes into d: the walk's state is read, never written.
        r = norm(_adopt(grid, np.subtract(u.values, d, out=d)))
        del u  # free this state before the ladder builds the next
        worst = max(worst, r)
        yield t, e, "remainder", r
        if t == cfg.times[-1]:
            yield t, e, "sup_remainder", worst
            worst = 0.0


@_sweep
def sweep_weak_decay(cfg: SweepConfig, g_name: str = WEAK_G, *, grid, phi, walk):
    """Weak-convergence residual against a fixed test vector.

    Measures |<g, u_eps(t) - V(t) phi>|, which must vanish even though
    the strong distance stalls for b > 0.
    """
    g = Pairing(get_preset(g_name, grid))
    # V(t) phi depends on t alone, not on the rung.  g reads the defect
    # only on its nodes [0, end), so the defect is formed there alone.
    v = {t: limit_group_V(phi, cfg.b, t).values[:g.end] for t in cfg.times}
    for e, t, u in walk:
        yield t, e, f"weak[{g_name}]", abs(g(u.values[:g.end] - v[t]))


def standard_observables(grid: Grid, kinds: tuple[str, ...], cut: float) -> dict[str, object]:
    """The stock observables sweeps report on.

    indicator: multiplication by the indicator of [0, cut]; sweeps place
               the cut at the transported front b t
    sigmoid:   multiplication by a smooth step centered at x = 2
    projector: rank-one projection onto the bump12 direction
    """
    out: dict[str, object] = {}
    for kind in kinds:
        if kind == "indicator":
            out[kind] = BoundedFunction(grid, np.where(grid.x <= cut, 1.0, 0.0))
        elif kind == "sigmoid":
            vals = 1.0 / (1.0 + np.exp(-4.0 * (grid.x - 2.0)))
            out[kind] = BoundedFunction(grid, vals)
        elif kind == "projector":
            d = get_preset("bump12", grid)
            unit = _adopt(grid, _scaled(d.values, norm(d)))
            out[kind] = FiniteRankObservable(coeffs=(1.0,), directions=(unit,))
        else:
            raise ValidationError(f"unknown observable kind {kind!r}")
    return out


def _limit_values(state: LimitState, observables: dict[str, object]) -> dict[str, float]:
    """The limit expectation of each observable in one limit state."""
    return {kind: float(np.real(mult_expectation_limit(state, a)))
            if isinstance(a, BoundedFunction) else comp_expectation_limit(state, a)
            for kind, a in observables.items()}


def _transported(phi: WaveFunction, b: float, t: float) -> tuple[WaveFunction, float]:
    """V(t) phi and its lost mass 1 - alpha, from a limit state dropped here."""
    state = comp_state_evolve(phi, b, t)
    return state.shift_branch, state.singular_weight


@_sweep
def sweep_expectations(cfg: SweepConfig, kinds: tuple[str, ...] = (
        "indicator", "sigmoid", "projector"), *, grid, phi, walk):
    """Gap between viscous expectations and their limit values, per rung.

    Multiplication observables are compared with the two-branch limit,
    finite-rank ones with the transported-branch limit alone.
    """
    obs_by_t, limits = {}, {}
    for t in cfg.times:
        state = comp_state_evolve(phi, cfg.b, t)  # before the observables: it refuses b <= 0
        obs_by_t[t] = standard_observables(grid, kinds, cut=cfg.b * t)  # the band tracks b t
        limits[t] = _limit_values(state, obs_by_t[t])
    del state  # no limit state lives through the walk
    for e, t, u in walk:
        for kind, a in obs_by_t[t].items():
            val = float(np.real(expectation(u, a)))
            yield t, e, f"gap[{kind}]", abs(val - limits[t][kind])


@_sweep
def sweep_prop2(cfg: SweepConfig, *, grid, phi, walk):
    """Strong and weak residuals against pure transport, both drift signs.

    For b < 0 the strong residual itself must vanish.  For b > 0 it
    stalls at the absorbed mass: the sweep then also records the weak
    residual against the fixed test vector PROP2_PSI, which does
    vanish, and the stall defect |residual^2 - (1 - alpha)|, which
    exposes exactly where the strong limit fails.
    """
    psi = Pairing(get_preset(PROP2_PSI, grid))
    # V(t) phi and, for b > 0, the absorbed mass depend on t alone, not on the rung.
    transport = {t: _transported(phi, cfg.b, t) if cfg.b > 0
                 else (limit_group_V(phi, cfg.b, t), None) for t in cfg.times}
    for e, t, u in walk:
        v, lost = transport[t]
        diff = _adopt(grid, u.values - v.values)
        gap_sq = mass(diff)
        yield t, e, "strong_gap", math.sqrt(gap_sq)
        if cfg.b > 0:
            yield t, e, f"weak_gap[{PROP2_PSI}]", abs(psi(diff.values))
            yield t, e, "stall_defect", abs(gap_sq - lost)


@_sweep
def divergence_probe(cfg: SweepConfig, *, grid, phi, walk):
    """A single compact observable whose expectation has not settled on
    the ladder it is built from.

    Takes the defect against pure transport on PROBE_RUNGS viscosities
    halving from cfg.eps[0], orthonormalizes the defect directions, and
    forms the alternating-sign sum of their rank-one projections.
    Expectations of that one observable then oscillate between rungs
    by at least half the absorbed mass instead of settling.  Below its
    own ladder the probe does settle, as every fixed compact observable
    does: the limit on compact observables holds observable by
    observable, not uniformly over them.

    Also records each defect's squared norm, which must sit near the
    absorbed mass 1 - alpha if the two-wave picture is right.
    """
    # The walk over cfg.eps is dropped unread, once it has gated the
    # rungs as for every other claim; the probe walks its own ladder.
    t = cfg.times[-1]
    ladder = tuple(cfg.eps[0] * 0.5 ** j for j in range(PROBE_RUNGS))
    v, lost = _transported(phi, cfg.b, t)  # refuses b <= 0
    if lost < PROBE_MIN_ABSORBED:
        raise ValidationError(
            f"absorbed mass {lost:.3e} at t={t:g} is below {PROBE_MIN_ABSORBED}, "
            "nothing for the probe to act on"
        )

    states = [u for _, _, u in spectral_ladder(phi, ladder, cfg.b, (t,))]

    gaps_sq: list[float] = []
    directions: list[WaveFunction] = []
    coeffs: list[float] = []
    for j, u in enumerate(states):
        # Gram-Schmidt in place on the defect's quotient by its norm; no
        # defect outlives its turn, so the probe's pairings take their room.
        res = _adopt(grid, u.values - v.values)
        m = mass(res)
        gaps_sq.append(m)
        _scaled(res.values, math.sqrt(m), out=res.values)
        for q in directions:
            res.values -= inner(q, res) * q.values
        n = norm(res)
        if n < GS_DROP_TOL:
            continue
        _scaled(res.values, n, out=res.values)
        directions.append(res)
        coeffs.append(1.0 if j % 2 == 0 else -1.0)
    probe = FiniteRankObservable(coeffs=tuple(coeffs), directions=tuple(directions))

    values = [float(np.real(expectation(u, probe))) for u in states]
    for e, m, val in zip(ladder, gaps_sq, values):
        yield t, e, "probe_gap_sq", m
        yield t, e, "probe_expectation", val
    yield t, ladder[0], "probe_one_minus_alpha", lost
    yield t, ladder[0], "probe_peak_to_peak", max(values) - min(values)


@dataclass(frozen=True)
class Check:
    """One verdict rule evaluated over matching metric groups."""

    kind: str
    metric: str
    bound: float | None = None


def _gap_checks(kind: str) -> tuple[Check, ...]:
    return (Check("decreasing", f"gap[{kind}]"), Check("final_le", f"gap[{kind}]", 0.02))


def _prop2_checks(b: float) -> tuple[Check, ...]:
    if b < 0:
        return (Check("decreasing", "strong_gap"), Check("final_le", "strong_gap", 0.05))
    return (
        Check("decreasing", f"weak_gap[{PROP2_PSI}]"),
        Check("final_le", f"weak_gap[{PROP2_PSI}]", 0.02),
        Check("final_le", "stall_defect", 0.05),
    )


# claim -> (sweep(cfg, g_name), checks(b, g_name)).  The sweeps are looked
# up by name when called, so a rebound module attribute is what runs.
_CLAIMS = {
    "thm1": (lambda cfg, g: sweep_theorem1(cfg),
             lambda b, g: (Check("decreasing", "sup_remainder"),
                           Check("halved", "sup_remainder", 0.5))),
    "weak": (lambda cfg, g: sweep_weak_decay(cfg, g_name=g),
             lambda b, g: (Check("decreasing", f"weak[{g}]"),)),
    "thm3": (lambda cfg, g: sweep_expectations(cfg, kinds=("projector",)),
             lambda b, g: _gap_checks("projector")),
    "thm5": (lambda cfg, g: sweep_expectations(cfg, kinds=("indicator", "sigmoid")),
             lambda b, g: _gap_checks("indicator") + _gap_checks("sigmoid")),
    "prop2": (lambda cfg, g: sweep_prop2(cfg), lambda b, g: _prop2_checks(b)),
    "thm2": (lambda cfg, g: divergence_probe(cfg),
             lambda b, g: (Check("probe_contrast", "probe_expectation", 0.5),
                           Check("within", "probe_gap_sq", 0.05))),
}

CLAIMS = tuple(_CLAIMS)


def _claim(claim: str):
    if not isinstance(claim, str) or claim not in _CLAIMS:
        raise ValidationError(f"unknown claim {claim!r}, expected one of {CLAIMS}")
    return _CLAIMS[claim]


def claim_checks(claim: str, b: float = 1.0) -> tuple[Check, ...]:
    """Default verdict rules for each claim keyword."""
    return _claim(claim)[1](b, WEAK_G)


def run_claim(claim: str, cfg: SweepConfig, g_name: str | None = None) -> tuple[
    list[ConvergenceRecord], tuple[Check, ...]
]:
    """Run the sweep behind a claim keyword with its default checks;
    only weak sweeps take a test vector g_name, WEAK_G when it is None."""
    sweep, checks = _claim(claim)
    if g_name is None:
        g_name = WEAK_G
    elif claim != "weak":
        raise ValidationError(
            f"--g names the test vector of weak sweeps; claim {claim!r} takes none"
        )
    return sweep(cfg, g_name), checks(cfg.b, g_name)


def _per_group(passes, records: list[ConvergenceRecord], c: Check) -> list[dict]:
    """One detail row per (preset, b, t) group of the check's metric, judged
    by passes(the group's values in ladder order, the check's bound)."""
    groups: dict[tuple, list[float]] = {}
    for r in records:
        if r.metric == c.metric:
            groups.setdefault((r.preset, r.b, r.t), []).append(r.value)
    return [{"preset": p, "b": b, "t": t, "n": len(v), "first": v[0], "last": v[-1],
             "pass": passes(v, c.bound)} for (p, b, t), v in sorted(groups.items())]


def _singleton(records: list[ConvergenceRecord], metric: str) -> float:
    vals = [r.value for r in records if r.metric == metric]
    if len(vals) != 1:
        raise ValidationError(f"expected exactly one {metric!r} record, got {len(vals)}")
    return vals[0]


def _probe_contrast(records: list[ConvergenceRecord], c: Check) -> list[dict]:
    lost = _singleton(records, "probe_one_minus_alpha")
    ptp = _singleton(records, "probe_peak_to_peak")
    target = c.bound * lost
    return [{"peak_to_peak": ptp, "target": target, "pass": ptp >= target}]


def _within(records: list[ConvergenceRecord], c: Check) -> list[dict]:
    lost = _singleton(records, "probe_one_minus_alpha")
    # by (preset, b, t) group; the sort is stable, so each group keeps ladder order
    rows = sorted((r for r in records if r.metric == c.metric), key=lambda r: (r.preset, r.b, r.t))
    return [{"epsilon": r.epsilon, "value": r.value, "pass": abs(r.value - lost) <= c.bound}
            for r in rows]


# Every check kind: kind -> its detail rows given the records and the check.
_RULES = {
    "decreasing": partial(_per_group, lambda v, bound: len(v) >= 2 and all(
        y < x for x, y in zip(v, v[1:]))),
    "final_le": partial(_per_group, lambda v, bound: v[-1] <= bound),
    "halved": partial(_per_group, lambda v, bound: len(v) >= 2 and v[-1] <= bound * v[0]),
    "probe_contrast": _probe_contrast,
    "within": _within,
}


def evaluate_checks(
    records: list[ConvergenceRecord], checks: tuple[Check, ...]
) -> dict:
    """Evaluate verdict rules over a record set.

    A check passes when it has detail rows and every row passes.
    """
    results = []
    for c in checks:
        if c.kind not in _RULES:
            raise ValidationError(f"unknown check kind {c.kind!r}")
        detail = _RULES[c.kind](records, c)
        results.append(
            {
                "name": f"{c.kind}:{c.metric}",
                "kind": c.kind,
                "metric": c.metric,
                "bound": c.bound,
                "pass": bool(detail) and all(d["pass"] for d in detail),
                "detail": detail,
            }
        )
    return {
        "n_records": len(records),
        "checks": results,
        "all_pass": bool(all(r["pass"] for r in results)),
    }


def emit_report(
    records: list[ConvergenceRecord],
    csv_path: str | Path,
    json_path: str | Path,
    checks: tuple[Check, ...],
) -> dict:
    """Write the CSV and the JSON verdicts and return the verdicts.

    Output is deterministic: fixed 17-significant-digit scientific
    format, fixed row order, explicit newlines.  The ratio column is each
    value over the last one of its (preset, b, t, metric) group, empty on
    a group's first row and after a zero.
    """
    last: dict[tuple, float] = {}
    lines = [CSV_HEADER]
    for r in records:
        key = (r.preset, r.b, r.t, r.metric)
        prev, last[key] = last.get(key), r.value
        ratio = "" if prev in (None, 0.0) else f"{r.value / prev:.16e}"
        lines.append(
            f"{r.preset},{r.b:.16e},{r.t:.16e},{r.epsilon:.16e},"
            f"{r.metric},{r.value:.16e},{ratio}"
        )
    Path(csv_path).write_text("\n".join(lines) + "\n", encoding="ascii")
    verdicts = evaluate_checks(records, checks)
    Path(json_path).write_text(
        json.dumps(verdicts, indent=2, sort_keys=True) + "\n", encoding="ascii"
    )
    return verdicts
