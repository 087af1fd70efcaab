import math
import threading
import time

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


def test_spectral_t0_identity(small):
    g, phi = small
    out = spectral_evolve(phi, EvolutionParams(0.3, 1.0, 0.0))
    assert np.array_equal(out.values, phi.values)


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
# 5 distinct products.
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
    multipliers = _count_calls(monkeypatch, evolvers, ("_free_flow",))
    states = list(spectral_ladder(phi, LADDER_EPS, 1.0, LADDER_TIMES))
    assert len(states) == 9
    assert ffts == {"fft": 3, "ifft": 9}
    assert multipliers == {"_free_flow": 5}


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


def _inline(fn, *args):
    """The worker's seam run on the caller's thread: the serial walk."""
    job = evolvers._Job(fn, args)
    job.run()
    return job


def _within(seconds, fn):
    """fn() on a helper thread, failing the test if it has not returned
    after ``seconds``; returns its result or raises its error."""
    box = {}

    def call():
        try:
            box["value"] = fn()
        except BaseException as e:
            box["error"] = e

    th = threading.Thread(target=call, daemon=True)
    th.start()
    th.join(seconds)
    assert not th.is_alive(), f"still running after {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


@pytest.mark.parametrize("b", [1.0, -1.0])
def test_worker_bytes_equal_inline_walk(monkeypatch, small, b):
    g, phi = small
    threaded = [(e, t, u.values.tobytes())
                for e, t, u in spectral_ladder(phi, LADDER_EPS, b, LADDER_TIMES)]
    monkeypatch.setattr(evolvers, "_submit", _inline)
    jobs = _count_calls(monkeypatch, evolvers, ("_submit",))
    inline = [(e, t, u.values.tobytes())
              for e, t, u in spectral_ladder(phi, LADDER_EPS, b, LADDER_TIMES)]
    assert jobs == {"_submit": 7}  # 5 multipliers, the gauges of rungs 2 and 3
    assert inline == threaded


# _free_flow fails on the worker; _phase fails first in the caller's own
# first gauge, with the first multiplier in flight.
@pytest.mark.parametrize("name", ["_free_flow", "_phase"])
def test_worker_error_reaches_caller(monkeypatch, small, name):
    g, phi = small

    def broken(*args):
        raise FloatingPointError(f"{name} failed")

    monkeypatch.setattr(evolvers, name, broken)
    with pytest.raises(FloatingPointError, match=name):
        _within(30, lambda: list(spectral_ladder(phi, LADDER_EPS, 1.0, LADDER_TIMES)))
    monkeypatch.undo()
    # The worker survives the error and serves the next ladder.
    assert len(_within(30, lambda: list(spectral_ladder(phi, LADDER_EPS, 1.0, LADDER_TIMES)))) == 9


def test_closed_ladder_leaves_no_job_running(monkeypatch, small):
    g, phi = small
    free_flow, submit = evolvers._free_flow, evolvers._submit
    jobs = []

    def slow(*args):
        time.sleep(0.05)
        return free_flow(*args)

    def recorded(*args):
        jobs.append(submit(*args))
        return jobs[-1]

    monkeypatch.setattr(evolvers, "_free_flow", slow)
    monkeypatch.setattr(evolvers, "_submit", recorded)
    walk = spectral_ladder(phi, LADDER_EPS, 1.0, LADDER_TIMES)
    next(walk)
    walk.close()
    assert len(jobs) == 2
    assert all(job.done.is_set() for job in jobs)


def test_ladders_share_one_worker(small):
    g, phi = small
    list(spectral_ladder(phi, (0.4,), 1.0, (0.5,)))
    before = threading.active_count()
    for _ in range(50):
        list(spectral_ladder(phi, LADDER_EPS, 1.0, LADDER_TIMES))
    assert threading.active_count() == before
    assert [th.name for th in threading.enumerate()].count("halfline-exp") == 1


def test_caller_thread_builds_states_and_runs_ffts(monkeypatch, small):
    g, phi = small
    threads = {"WaveFunction": set(), "fft": set(), "ifft": set(), "_free_flow": set()}

    def on_thread(name, fn):
        def wrapper(*args, **kwargs):
            threads[name].add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(WaveFunction, "__init__", on_thread("WaveFunction", WaveFunction.__init__))
    for name in ("fft", "ifft"):
        monkeypatch.setattr(evolvers.np.fft, name, on_thread(name, getattr(evolvers.np.fft, name)))
    monkeypatch.setattr(evolvers, "_free_flow", on_thread("_free_flow", evolvers._free_flow))
    list(spectral_ladder(phi, LADDER_EPS, -1.0, LADDER_TIMES))
    caller = {threading.get_ident()}
    assert threads["WaveFunction"] == threads["fft"] == threads["ifft"] == caller
    assert threads["_free_flow"] and not threads["_free_flow"] & caller


def test_twiddle_cached_read_only():
    tw = evolvers._twiddle(64)
    assert evolvers._twiddle(64) is tw
    assert not tw.flags.writeable


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
    args = (g.x, phi.values, 0.3, 1.0, 0.5, g.h)
    fast = _kernel_sum_fft(*args)
    direct = _kernel_sum_direct(*args)
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
    args = (g.x, v, 0.2, b, t, g.h)
    np.testing.assert_allclose(
        _kernel_sum_fft(*args), _kernel_sum_direct(*args), atol=1e-12
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
    g, phi = small
    p = EvolutionParams(0.3, -1.0, 0.7)
    out = asymptotic_evolve(phi, p)
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
