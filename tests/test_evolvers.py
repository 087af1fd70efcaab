import math
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import halfline.evolvers as evolvers
from halfline import (
    EvolutionParams,
    ResolutionError,
    ResolutionWarning,
    ValidationError,
    WaveFunction,
    asymptotic_evolve,
    get_preset,
    kernel_evolve,
    make_grid,
    norm,
    spectral_evolve,
)
from halfline.evolvers import (
    KERNEL_NORM_TOL,
    PPW_MIN,
    _kernel_sum_fft,
    limit_group_V,
    phase_resolution,
    remainder_norm,
    spectral_ladder,
)
from halfline.grid import shift_sample
from halfline.harness import SweepConfig, sweep_theorem1

# The spectral route keeps the norm and the group law to roundoff.
UNITARITY_RTOL = 1e-10
GROUP_TOL = 1e-9


def _kernel_sum_direct(x, phi, eps, b, t, h):
    """The quadrature of ``_kernel_sum_fft`` with every phase evaluated
    literally, row by row: its small-N oracle.  Costs two exp(N) per
    output node."""
    n = x.shape[0]
    a = 1.0 / (4.0 * eps * t)
    pref = np.exp(-0.25j * np.pi) / math.sqrt(4.0 * math.pi * eps * t) * h
    out = np.empty(n, dtype=np.complex128)
    for i in range(n):
        p1 = a * (x[i] - x + b * t) ** 2
        p2 = a * (x[i] + x - b * t) ** 2 + b * x[i] / eps
        out[i] = pref * (np.exp(1j * p1) @ phi - np.exp(1j * p2) @ phi)
    return out


@pytest.fixture(scope="module")
def small():
    g = make_grid(10.0, 2 ** 10)
    return g, get_preset("xexp", g)


@pytest.fixture(scope="module")
def medium():
    g = make_grid(20.0, 2 ** 12)
    return g, get_preset("xexp", g)


@pytest.mark.parametrize(
    "eps,b,t",
    [(0.0, 1.0, 1.0), (-0.1, 1.0, 1.0), (0.1, 0.0, 1.0), (0.1, 1.0, -0.5),
     (math.nan, 1.0, 1.0), (0.1, math.inf, 1.0)],
)
def test_params_validation(eps, b, t):
    with pytest.raises(ValidationError):
        EvolutionParams(epsilon=eps, b=b, t=t)


@pytest.mark.parametrize("bad", ["0.1", 0.1 + 0j, True])
@pytest.mark.parametrize("field", ["epsilon", "b", "t"])
def test_params_refuse_non_real(field, bad):
    args = {"epsilon": 0.1, "b": 1.0, "t": 1.0, field: bad}
    with pytest.raises(ValidationError, match="real number"):
        EvolutionParams(**args)


def test_resolution_report_admissibility():
    g = make_grid(40.0, 2 ** 16)
    lam, ppw = phase_resolution(g, 0.05, 1.0)
    assert lam == pytest.approx(2.0 * math.pi * 0.05)
    assert ppw >= 2 * PPW_MIN
    assert ppw > 500
    _, coarse = phase_resolution(make_grid(40.0, 2 ** 14), 1e-6, 1.0)
    assert coarse < 2 * PPW_MIN


def test_spectral_refuses_underresolved():
    g = make_grid(40.0, 2 ** 14)
    phi = get_preset("xexp", g)
    with pytest.raises(ResolutionError):
        spectral_evolve(phi, EvolutionParams(1e-6, 1.0, 1.0))


def test_spectral_runs_where_the_squared_wavenumber_overflows():
    # At L = 2e-154, (pi / L)^2 overflows, but the phases eps t (k pi / L)^2
    # are moderate and pass the top-mode gate: the walk must not form
    # the square on its own.
    g = make_grid(2e-154, 2 ** 10)
    eps, b, t = 1e-170, 1e-20, 1e-137
    k = math.pi / g.L
    phi = WaveFunction(g, np.exp(0.5j * b / eps * g.x) * np.sin(k * g.x) * math.sqrt(2.0 / g.L))
    out = spectral_evolve(phi, EvolutionParams(eps, b, t))
    phase = b * b * t / (4.0 * eps) - eps * t * k * k
    peak = np.max(np.abs(phi.values))
    np.testing.assert_allclose(out.values / peak, np.exp(1j * phase) * phi.values / peak,
                               rtol=0, atol=1e-12)


def test_spectral_t0_identity(small):
    g, phi = small
    before = phi.values.tobytes()
    out = spectral_evolve(phi, EvolutionParams(0.3, 1.0, 0.0))
    assert np.array_equal(out.values, phi.values)
    # a copy, not the input's own array
    assert not np.shares_memory(out.values, phi.values)
    out.values *= 2.0
    assert phi.values.tobytes() == before


def test_spectral_t0_keeps_the_gates(small):
    g, phi = small
    with pytest.raises(ResolutionError):
        spectral_evolve(phi, EvolutionParams(1e-9, 1.0, 0.0))
    loose = WaveFunction(g, np.ones(g.N) / math.sqrt(g.L))
    with pytest.raises(ValidationError, match="wall"):
        spectral_evolve(loose, EvolutionParams(0.3, 1.0, 0.0))


def test_spectral_unitary(small):
    g, phi = small
    for eps, t in ((0.3, 0.7), (0.1, 1.5), (0.05, 3.0)):
        u = spectral_evolve(phi, EvolutionParams(eps, 1.0, t))
        assert abs(norm(u) - 1.0) <= UNITARITY_RTOL


def test_spectral_negative_drift_unitary(small):
    g, phi = small
    u = spectral_evolve(phi, EvolutionParams(0.3, -1.0, 0.7))
    assert abs(norm(u) - 1.0) <= UNITARITY_RTOL


@pytest.mark.parametrize("b", [1.0, -1.0, 2.5])
def test_spectral_gauged_eigenmode(b):
    # A sine mode carried by the gauge e^(i b x / 2 eps) only picks up
    # the phase of its free eigenvalue eps (k pi / L)^2 and the drift
    # phase b^2 t / 4 eps.
    g = make_grid(10.0, 2 ** 10)
    eps, t = 0.4, 0.9
    mode = get_preset("sine-mode-3", g)
    phi = WaveFunction(g, np.exp(0.5j * b / eps * g.x) * mode.values)
    out = spectral_evolve(phi, EvolutionParams(eps, b, t))
    phase = b * b * t / (4.0 * eps) - eps * (3.0 * math.pi / g.L) ** 2 * t
    np.testing.assert_allclose(out.values, np.exp(1j * phase) * phi.values, atol=1e-12)


def _dst_evolve(x, L, vals, eps, b, t):
    """The same step through scipy's midpoint sine transform: DST-II,
    the multiplier on modes k = 1..N, and its inverse."""
    k = np.arange(1, x.shape[0] + 1) * (math.pi / L)
    v = np.exp(-0.5j * b / eps * x) * vals
    w = scipy.fft.idst(scipy.fft.dst(v, type=2) * np.exp(-1j * eps * t * k * k), type=2)
    return np.exp(1j * (b * b * t / (4.0 * eps) + 0.5 * b / eps * x)) * w


@pytest.mark.parametrize("n", [8, 16, 64, 4096])
@pytest.mark.parametrize("b", [1.0, -1.0])
def test_spectral_matches_scipy_dst(n, b):
    # Random data, zero on the three nodes the wall gate extrapolates
    # from, so every sine mode up to the Nyquist one k = N is present.
    # h is fixed, so the top mode turns by the same phase, about 95 rad,
    # at every N; the phase's own rounding stays far below the tolerance.
    g = make_grid(n / 8, n)
    rng = np.random.default_rng(n)
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    vals[:3] = 0.0
    phi = WaveFunction(g, vals)
    eps, t = 0.5, 0.3
    out = spectral_evolve(phi, EvolutionParams(eps, b, t))
    np.testing.assert_allclose(
        out.values, _dst_evolve(g.x, g.L, vals, eps, b, t), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("b", [1.0, -1.0])
@pytest.mark.parametrize("top", [False, True])
def test_spectral_carries_lowest_and_nyquist_mode(monkeypatch, b, top):
    # k = N samples to (-1)^j, which the FFT reordering has to carry
    # through W_0.  It does not vanish at the wall, so the wall gate is
    # switched off: the transform itself is under test here.
    monkeypatch.setattr(evolvers, "_require_pinned", lambda phi, engine: None)
    g = make_grid(8.0, 64)
    eps, t = 0.4, 0.9
    k = g.N if top else 1
    phi = WaveFunction(g, np.exp(0.5j * b / eps * g.x) * np.sin(k * math.pi / g.L * g.x))
    out = spectral_evolve(phi, EvolutionParams(eps, b, t))
    phase = b * b * t / (4.0 * eps) - eps * (k * math.pi / g.L) ** 2 * t
    np.testing.assert_allclose(out.values, np.exp(1j * phase) * phi.values, rtol=0, atol=1e-12)


# eps halves while t doubles, so the viscous times eps t repeat: 9 pairs,
# 5 distinct products, and still one multiplier per pair.
LADDER_EPS = (0.4, 0.2, 0.1)
LADDER_TIMES = (0.25, 0.5, 1.0)


@pytest.mark.parametrize("b", [1.0, -1.0])
def test_spectral_ladder_equals_single_steps(small, b):
    g, phi = small
    ladder = list(spectral_ladder(phi, LADDER_EPS, b, LADDER_TIMES))
    assert [(e, t) for e, t, _ in ladder] == [
        (e, t) for e in LADDER_EPS for t in LADDER_TIMES
    ]
    for e, t, u in ladder:
        assert np.array_equal(u.values, spectral_evolve(phi, EvolutionParams(e, b, t)).values)


def _count_calls(monkeypatch, owner, names):
    calls = dict.fromkeys(names, 0)

    def counted(name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(owner, name, counted(name))
    return calls


def test_rungs_run_one_forward_fft_per_rung(monkeypatch, small):
    g, phi = small
    ffts = _count_calls(monkeypatch, evolvers.np.fft, ("fft", "ifft"))
    chirps = _count_calls(monkeypatch, evolvers, ("_chirp",))
    states = list(spectral_ladder(phi, LADDER_EPS, 1.0, LADDER_TIMES))
    assert len(states) == 9
    assert ffts == {"fft": 3, "ifft": 9}
    assert chirps == {"_chirp": 9}  # one per pair, even where eps*t repeats


def test_spectral_ladder_refuses_bad_times(monkeypatch, small):
    # A bad time or an unresolved rung anywhere on the grid is refused
    # before the first transform.
    g, phi = small
    ffts = _count_calls(monkeypatch, evolvers.np.fft, ("fft", "ifft"))
    for b in (1.0, -1.0):
        with pytest.raises(ValidationError):
            list(spectral_ladder(phi, LADDER_EPS, b, (0.25, 0.5, -1.0)))
        with pytest.raises(ResolutionError):
            list(spectral_ladder(phi, (0.4, 0.2, 1e-6), b, LADDER_TIMES))
    assert ffts == {"fft": 0, "ifft": 0}


def _n_point_exps(monkeypatch, n):
    """A list that counts every complex np.exp with n values."""
    seen = []
    exp = np.exp

    def counted(*args, **kwargs):
        out = exp(*args, **kwargs)
        if np.iscomplexobj(out) and np.size(out) == n:
            seen.append(out.shape)
        return out

    monkeypatch.setattr(np, "exp", counted)
    return seen


def test_ladder_runs_no_n_point_exponential(monkeypatch, small, medium):
    # Every linear phase is a plane_wave and every free-flow multiplier a
    # chirp, each built from small tables.  The twiddle is cached per N
    # beforehand.
    g, phi = small
    evolvers._twiddle(g.N)
    seen = _n_point_exps(monkeypatch, g.N)
    assert len(list(spectral_ladder(phi, LADDER_EPS, 1.0, LADDER_TIMES))) == 9
    asymptotic_evolve(phi, EvolutionParams(0.3, 1.0, 0.5))
    assert seen == []

    g, phi = medium
    evolvers._twiddle(g.N)
    seen = _n_point_exps(monkeypatch, g.N)
    cfg = SweepConfig(preset="xexp", L=g.L, N=g.N, b=1.0, times=(0.5, 1.0), eps=(0.3, 0.15))
    sweep_theorem1(cfg)
    assert seen == []


_WIDE = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps


@pytest.mark.skipif(not _WIDE, reason="long double is no wider than double here")
@pytest.mark.parametrize("s", [1e-4, 0.1, 3.7])
def test_chirp_matches_extended_precision(s):
    # Against e^(-i theta j^2) in long double, the chirp's error stays
    # within 1.25 theta N^2 u plus a few ulp.  From N = 2^12 on, where
    # theta N^2 u outgrows the ulp, it is no worse than the N-point np.exp
    # it replaced, which reaches up to 1.8 theta N^2 u.
    u = np.finfo(np.float64).eps
    L = 40.0
    pi = np.longdouble("3.14159265358979323846264338327950288")
    for bits in range(3, 18):
        n = 1 << bits
        g = make_grid(L, n)
        chirp = evolvers._chirp(g, s, np.empty(n, dtype=np.complex128))
        j = np.arange(n)
        direct = np.exp(-1j * s * (j * (math.pi / L)) ** 2)
        phase = np.longdouble(s) * (pi / np.longdouble(L)) ** 2 * j.astype(np.longdouble) ** 2
        ref = np.cos(phase) - np.clongdouble(1j) * np.sin(phase)
        err = float(np.max(np.abs(chirp.astype(np.clongdouble) - ref)))
        err_direct = float(np.max(np.abs(direct.astype(np.clongdouble) - ref)))
        scale = s * (math.pi / L) ** 2 * n * n * u
        assert err <= 1.25 * scale + 4 * u, (n, err, scale)
        if bits >= 12:
            assert err <= err_direct, (n, err, err_direct)


def test_chirp_allocates_no_n_point_array():
    # The chirp writes into the caller's array; its tables hold about
    # N^(2/3) values each, so no N-point temporary (16 N bytes) is made.
    n = 2 ** 16
    g = make_grid(40.0, n)
    out = np.empty(n, dtype=np.complex128)
    tracemalloc.start()
    try:
        evolvers._chirp(g, 0.1, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * n


def test_twiddle_cached_read_only():
    tw = evolvers._twiddle(64)
    assert evolvers._twiddle(64) is tw
    assert not tw.flags.writeable


_SECOND_WALK_FAULTS = """
import resource
import halfline as H
from halfline.evolvers import spectral_ladder
g = H.make_grid(40.0, 2 ** 16)
phi = H.get_preset("xexp", g)
def walk():
    for _ in spectral_ladder(phi, (0.4, 0.2, 0.1, 0.05), 1.0, (0.5, 1.0, 2.0)):
        pass
walk()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
walk()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

# The limit maps never walk: only the grid primes this process's heap.
_LIMIT_MAP_FAULTS = """
import resource
import halfline as H
g = H.make_grid(40.0, 2 ** 16)
phi = H.get_preset("bump12", g)
def pair():
    H.kraus_apply(phi, 1.0, 1.5)
    H.comp_state_evolve(phi, 1.0, 1.5)
pair()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    pair()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

_ON_GLIBC = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc",
    reason="the heap priming where a grid is built rests on glibc's malloc threshold rule")


def _minor_faults(snippet: str) -> int:
    """Minor page faults that snippet prints, run in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", snippet], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=120,
    )
    return int(out.stdout)


@_ON_GLIBC
def test_second_reference_walk_stays_resident():
    # Without the priming a second 4 x 3 walk on the reference grid takes
    # about 7,000 minor faults: its arrays and FFT scratch went back to
    # the kernel after the first walk.
    assert _minor_faults(_SECOND_WALK_FAULTS) < 500


@_ON_GLIBC
def test_repeated_limit_maps_stay_resident():
    # Without the priming ten kraus_apply + comp_state_evolve pairs on the
    # reference grid take about 9,500 minor faults: each shift's result and
    # blend temporary went back to the kernel after the call before.
    assert _minor_faults(_LIMIT_MAP_FAULTS) < 500


def test_spectral_group_law(small):
    g, phi = small
    p_full = EvolutionParams(0.3, 1.0, 0.7)
    direct = spectral_evolve(phi, p_full)
    two_step = spectral_evolve(
        spectral_evolve(phi, EvolutionParams(0.3, 1.0, 0.3)),
        EvolutionParams(0.3, 1.0, 0.4),
    )
    assert norm(WaveFunction(g, two_step.values - direct.values)) <= GROUP_TOL


def test_spectral_refuses_loose_boundary(small):
    g, _ = small
    gauss = WaveFunction(g, np.exp(-g.x ** 2).astype(complex))
    with pytest.raises(ValidationError):
        spectral_evolve(gauss, EvolutionParams(0.3, 1.0, 0.5))


def test_kernel_fft_sum_matches_direct_phases(small):
    g, phi = small
    args = (phi.values, 0.3, 1.0, 0.5)
    fast = _kernel_sum_fft(g, *args)
    direct = _kernel_sum_direct(g.x, *args, g.h)
    np.testing.assert_allclose(fast, direct, atol=1e-12)


@pytest.mark.parametrize("n", [8, 64, 512])
@pytest.mark.parametrize("b", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("reach", [0.3, 0.7, 1.4])
def test_kernel_fft_index_maps(n, b, reach):
    # b t below L/2, between L/2 and L, and beyond L: the image argument
    # x_i + x_j - b t changes sign at different places in the Hankel
    # band, and the circulant wraps from both ends.
    g = make_grid(10.0, n)
    t = reach * g.L / b
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    args = (v, 0.2, b, t)
    np.testing.assert_allclose(
        _kernel_sum_fft(g, *args), _kernel_sum_direct(g.x, *args, g.h), atol=1e-12
    )


def test_kernel_agrees_with_spectral(small):
    g, phi = small
    p = EvolutionParams(0.3, 1.0, 0.5)
    uk = kernel_evolve(phi, p)
    us = spectral_evolve(phi, p)
    gap = norm(WaveFunction(g, uk.values - us.values))
    assert gap <= 1e-3
    assert abs(norm(uk) - 1.0) <= KERNEL_NORM_TOL


def test_kernel_refusals(small):
    g, phi = small
    with pytest.raises(ValidationError):
        kernel_evolve(phi, EvolutionParams(0.3, 1.0, 0.0))
    with pytest.raises(ValidationError):
        kernel_evolve(phi, EvolutionParams(0.3, -1.0, 0.5))
    with pytest.raises(ResolutionError):
        kernel_evolve(phi, EvolutionParams(1e-6, 1.0, 0.5))
    gauss = WaveFunction(g, np.exp(-g.x ** 2).astype(complex))
    with pytest.raises(ValidationError):
        kernel_evolve(gauss, EvolutionParams(0.3, 1.0, 0.5))


def test_kernel_chirp_gate(small):
    # The gauge phase is resolved here, but at such a short horizon the
    # kernel chirp is not; only the kernel route must refuse.
    g, phi = small
    p = EvolutionParams(0.03, 1.0, 0.05)
    assert phase_resolution(g, p.epsilon, p.b)[1] >= 2 * PPW_MIN
    with pytest.raises(ResolutionError):
        kernel_evolve(phi, p)
    spectral_evolve(phi, p)


def test_asymptotic_t0_identity(small):
    g, phi = small
    out = asymptotic_evolve(phi, EvolutionParams(0.3, 1.0, 0.0))
    np.testing.assert_allclose(out.values, phi.values, atol=1e-14)


def test_asymptotic_negative_drift_is_pure_shift(small):
    # At b < 0 no phase is formed: even an eps whose b / eps overflows
    # returns the shift, with no warning.
    g, phi = small
    for eps in (0.3, 1e-320):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = asymptotic_evolve(phi, EvolutionParams(eps, -1.0, 0.7))
        assert np.array_equal(out.values, shift_sample(phi, -0.7).values)


def test_asymptotic_warns_when_underresolved(small):
    g, phi = small
    with pytest.warns(ResolutionWarning):
        asymptotic_evolve(phi, EvolutionParams(1e-6, 1.0, 0.5))


def test_remainder_shrinks_with_viscosity(small):
    g, phi = small
    r_coarse = remainder_norm(phi, EvolutionParams(0.3, 1.0, 0.5))
    r_fine = remainder_norm(phi, EvolutionParams(0.15, 1.0, 0.5))
    assert r_coarse == pytest.approx(0.5725204074492337, rel=1e-9)
    assert r_fine == pytest.approx(0.264797841097291, rel=1e-9)
    assert r_fine < r_coarse


def test_limit_group_contraction_and_isometry(medium):
    g, phi = medium
    drop = limit_group_V(phi, 1.0, 0.8)
    assert norm(drop) ** 2 == pytest.approx(0.4645428964146263, rel=1e-12)
    assert norm(drop) <= 1.0 + 1e-9
    keep = limit_group_V(phi, -1.0, 0.7)
    assert abs(norm(keep) - 1.0) <= 1e-4
    with pytest.raises(ValidationError):
        limit_group_V(phi, 0.0, 0.5)


def test_evolved_state_is_deterministic(small):
    g, phi = small
    p = EvolutionParams(0.3, 1.0, 0.5)
    assert np.array_equal(
        spectral_evolve(phi, p).values, spectral_evolve(phi, p).values
    )
    assert np.array_equal(
        kernel_evolve(phi, p).values, kernel_evolve(phi, p).values
    )
