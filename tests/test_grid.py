import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halfline import ValidationError, WaveFunction, boundary_value, make_grid, norm
from halfline.grid import (
    BoundedFunction,
    Pairing,
    boundary_defect,
    density,
    indicator_project,
    inner,
    mass,
    plane_wave,
    reflect_sample,
    sample_at,
    shift_sample,
)
import halfline.grid as grid_module


def test_grid_primes_the_heap_only_with_a_larger_block():
    # A priming block no larger than an earlier one raises no threshold;
    # it would come from the heap, which numpy marks for huge pages.
    make_grid(40.0, 2 ** 16)
    tracemalloc.start()
    try:
        make_grid(40.0, 2 ** 16)
        make_grid(20.0, 2 ** 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 16  # x alone takes 8 N bytes; the block 256 N


@pytest.mark.parametrize("L,N", [(40.0, 8), (10.0, 1024), (20.0, 64)])
def test_make_grid_basic(L, N):
    g = make_grid(L, N)
    assert g.h == L / N
    assert g.x.shape == (N,)
    np.testing.assert_allclose(g.x[0], g.h / 2)
    np.testing.assert_allclose(g.x[-1], L - g.h / 2)


@pytest.mark.parametrize("L,N", [(40.0, 7), (40.0, 12), (40.0, 4), (0.0, 16), (-3.0, 16), (math.inf, 16),
                                 (5e-324, 64)])
def test_make_grid_rejects(L, N):
    with pytest.raises(ValidationError):
        make_grid(L, N)


@pytest.mark.parametrize("L", [True, "40", 40 + 0j])
def test_make_grid_refuses_non_real_length(L):
    with pytest.raises(ValidationError, match="L must be a real number"):
        make_grid(L, 8)


def test_make_grid_accepts_numpy_length():
    g = make_grid(np.float32(40), 64)
    assert g.L == 40.0 and type(g.L) is float


def test_wavefunction_shape_and_finite():
    g = make_grid(10.0, 16)
    with pytest.raises(ValidationError):
        WaveFunction(g, np.zeros(15))
    bad = np.zeros(16)
    bad[3] = np.nan
    with pytest.raises(ValidationError):
        WaveFunction(g, bad)


@pytest.mark.parametrize(
    "vals,match",
    [(np.ones(15), "does not match grid"), (np.full(16, np.inf), "must be finite")],
)
def test_bounded_function_refuses_bad_samples(vals, match):
    g = make_grid(10.0, 16)
    with pytest.raises(ValidationError, match=match):
        BoundedFunction(g, vals)


@pytest.mark.parametrize(
    "op,name",
    [
        (lambda u: shift_sample(u, "1"), "shift"),
        (lambda u: reflect_sample(u, "1"), "reflection offset"),
        (lambda u: indicator_project(u, "0", 2.0), "band endpoint a"),
        (lambda u: indicator_project(u, 0.0, True), "band endpoint b"),
    ],
)
def test_sampling_refuses_non_real_offsets(op, name):
    g = make_grid(10.0, 64)
    with pytest.raises(ValidationError, match=f"{name} must be a real number"):
        op(WaveFunction(g, np.ones(64)))


def _random_wave(g, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=g.N) + 1j * rng.normal(size=g.N)
    return WaveFunction(g, v)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 31), seed2=st.integers(0, 2 ** 31))
def test_inner_hermitian_and_positive(seed, seed2):
    g = make_grid(10.0, 64)
    u = _random_wave(g, seed)
    v = _random_wave(g, seed2)
    assert inner(u, v) == pytest.approx(np.conj(inner(v, u)), abs=1e-12)
    assert np.real(inner(u, u)) >= 0.0
    assert abs(np.imag(inner(u, u))) < 1e-12


def _bits(z):
    return np.array([z], dtype=np.complex128).view(np.uint64).tolist()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 31), lo=st.integers(0, 2 ** 15), width=st.integers(0, 2 ** 15))
@example(seed=1, lo=0, width=0)  # empty
@example(seed=2, lo=0, width=2 ** 15)  # full
@example(seed=3, lo=8000, width=400)  # across one 8,192-node block boundary
@example(seed=4, lo=20000, width=12768)  # mid-grid to the last node
def test_pairing_matches_inner_bit_for_bit(seed, lo, width):
    # The sum over [0, end) drops exact zeros from inner's sum and keeps
    # its start at node 0, so the bits match wherever the support lies.
    g = make_grid(40.0, 2 ** 15)
    hi = min(lo + width, g.N)
    rng = np.random.default_rng(seed)
    f = np.zeros(g.N, dtype=np.complex128)
    f[lo:hi] = rng.normal(size=hi - lo) + 1j * rng.normal(size=hi - lo)
    fixed = WaveFunction(g, f)
    v = _random_wave(g, seed + 1)
    p = Pairing(fixed)
    assert p.end == (hi if hi > lo else 0)
    assert _bits(p(v.values)) == _bits(inner(fixed, v))
    assert _bits(p(v.values[:p.end])) == _bits(inner(fixed, v))


def test_inner_rejects_mixed_grids():
    u = WaveFunction(make_grid(10.0, 64), np.ones(64))
    v = WaveFunction(make_grid(20.0, 64), np.ones(64))
    with pytest.raises(ValidationError):
        inner(u, v)


def test_inner_matches_closed_form_for_sine_modes():
    # Midpoint quadrature integrates products of low sine modes exactly.
    g = make_grid(10.0, 64)
    amp = math.sqrt(2.0 / g.L)
    for j in range(1, 5):
        for k in range(1, 5):
            u = WaveFunction(g, amp * np.sin(j * np.pi * g.x / g.L))
            v = WaveFunction(g, amp * np.sin(k * np.pi * g.x / g.L))
            want = 1.0 if j == k else 0.0
            assert inner(u, v) == pytest.approx(want, abs=1e-13)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 31), k=st.integers(0, 40))
def test_shift_by_whole_cells_is_exact(seed, k):
    g = make_grid(10.0, 64)
    u = _random_wave(g, seed)
    moved = shift_sample(u, k * g.h)
    kept = 64 - k
    np.testing.assert_allclose(moved.values[:kept], u.values[k:], rtol=0, atol=1e-12)
    assert np.all(moved.values[kept:] == 0.0)


def test_shift_zero_is_identity_bitwise():
    g = make_grid(10.0, 64)
    u = _random_wave(g, 7)
    before = u.values.tobytes()
    s = shift_sample(u, 0.0)
    assert np.array_equal(s.values, u.values)
    # a copy, not the input's own array
    assert not np.shares_memory(s.values, u.values)
    s.values *= 2.0
    assert u.values.tobytes() == before


def test_reflect_about_L_reverses_nodes():
    g = make_grid(10.0, 64)
    u = _random_wave(g, 11)
    r = reflect_sample(u, g.L)
    np.testing.assert_allclose(r.values, u.values[::-1], rtol=0, atol=1e-12)


def test_sample_outside_domain_is_zero():
    g = make_grid(10.0, 64)
    u = WaveFunction(g, np.ones(64))
    out = sample_at(u, np.array([-1e-9, -5.0, 10.0 + 1e-9, 37.0]))
    assert np.all(out == 0.0)


def test_sample_extrapolates_on_boundary_half_cells():
    # A linear profile must be reproduced exactly everywhere in [0, L],
    # including below the first midpoint, where zero-filling would
    # break reflected data.
    g = make_grid(10.0, 64)
    u = WaveFunction(g, 2.0 * g.x + 1.0)
    pos = np.array([0.0, g.h / 4, g.h / 2, g.L - g.h / 4, g.L])
    np.testing.assert_allclose(sample_at(u, pos), 2.0 * pos + 1.0, rtol=1e-12)


def _smooth_wave(g, seed):
    # A few low sine modes with random complex weights.  The two-slice
    # blend and sample_at round a node's grid coordinate differently, by
    # up to about N * 2.2e-16 cells.  Neighbours of smooth data differ by
    # O(h), so at any N the samples differ by roundoff of the peak; on
    # white noise they can differ by N * 2.2e-16 of it.
    rng = np.random.default_rng(seed)
    c = rng.normal(size=6) + 1j * rng.normal(size=6)
    k = np.arange(1, 7)[:, None]
    return WaveFunction(g, c @ np.sin(k * np.pi * g.x / g.L))


def _dirty_heap(n):
    """Allocate and free a few nonzero N-point arrays, so that a node a
    sampler leaves unwritten in its np.empty result reads as garbage,
    not as a lucky zero."""
    for _ in range(4):
        np.full(n, 3.0 - 7.0j)


def _assert_general_rule(u, s):
    """shift_sample(u, s) and reflect_sample(u, s) against sample_at, which
    is exactly zero outside [0, L], each on a dirtied heap."""
    g = u.grid
    peak = np.max(np.abs(u.values))
    for sampler, pos in ((shift_sample, g.x + s), (reflect_sample, s - g.x)):
        _dirty_heap(g.N)
        got, want = sampler(u, s).values, sample_at(u, pos)
        assert np.max(np.abs(got - want)) <= 1e-13 * peak
        assert np.array_equal(got == 0.0, want == 0.0)


@settings(max_examples=80, deadline=None)
@given(N=st.sampled_from([8, 1024]), seed=st.integers(0, 2 ** 31), frac=st.floats(-1.5, 2.5))
def test_shift_and_reflect_follow_the_general_rule(N, seed, frac):
    g = make_grid(10.0, N)
    _assert_general_rule(_smooth_wave(g, seed), frac * g.L)


@pytest.mark.parametrize("N", [8, 64])
@pytest.mark.parametrize(
    "offset",
    [
        lambda g: 3 * g.h, lambda g: -5 * g.h, lambda g: (g.N - 1) * g.h,
        lambda g: -(g.N - 1) * g.h, lambda g: 2.5 * g.h, lambda g: -0.5 * g.h,
        lambda g: (g.N - 0.5) * g.h, lambda g: g.L, lambda g: -g.L, lambda g: 2 * g.L,
        # one node lands just past either end of [0, L]
        lambda g: np.nextafter(g.L - g.h / 2, np.inf),
        lambda g: np.nextafter(g.h / 2 - g.L, -np.inf),
        lambda g: np.nextafter(g.h / 2, -np.inf),
        lambda g: np.nextafter(2 * g.L - g.h / 2, np.inf),
        # no node inside [0, L]: the blend is empty
        lambda g: 3 * g.L, lambda g: -3 * g.L,
        # |s| just under and just over L
        lambda g: np.nextafter(g.L, 0.0), lambda g: np.nextafter(g.L, np.inf),
        lambda g: -np.nextafter(g.L, 0.0), lambda g: -np.nextafter(g.L, np.inf),
        # grid coordinate just under, at and past 4N, where the early return starts
        lambda g: (4 * g.N - 0.5) * g.h, lambda g: -(4 * g.N - 0.5) * g.h,
        lambda g: (4 * g.N + 0.5) * g.h, lambda g: -(4 * g.N - 1.5) * g.h,
        lambda g: 4 * g.L, lambda g: -4 * g.L,
    ],
)
def test_shift_and_reflect_at_cell_and_domain_edges(N, offset):
    g = make_grid(10.0, N)
    _assert_general_rule(_random_wave(g, N), float(offset(g)))


@pytest.mark.parametrize("s", [0.3, -0.3])
def test_linear_profile_survives_shift_and_reflection_on_half_cells(s):
    # Every node stays in [0, L] and one lands on a half cell: the upper
    # one for s = 0.3 h, the lower one for s = -0.3 h.
    g = make_grid(10.0, 64)
    u = WaveFunction(g, 2.0 * g.x + 1.0)
    for got, pos in ((shift_sample(u, s * g.h).values, g.x + s * g.h),
                     (reflect_sample(u, g.L + s * g.h).values, g.L + s * g.h - g.x)):
        assert np.sum((pos < g.x[0]) | (pos > g.x[-1])) == 1
        np.testing.assert_allclose(got, 2.0 * pos + 1.0, rtol=1e-12)


def test_shift_and_reflect_send_at_most_two_nodes_to_sample_at(monkeypatch):
    g = make_grid(40.0, 2 ** 16)
    u = _smooth_wave(g, 1)
    sizes = []

    def counted(v, pos):
        sizes.append(np.size(pos))
        return sample_at(v, pos)

    monkeypatch.setattr(grid_module, "sample_at", counted)
    shift_sample(u, 1.0 + 0.3 * g.h)
    reflect_sample(u, g.L - 0.3 * g.h)
    assert sizes and sum(sizes) <= 4 and max(sizes) <= 2


@pytest.mark.parametrize(
    "a,b",
    [(-5.0, 15.0), (-5.0, 3.0), (3.0, 15.0), (-10.0, -1.0), (11.0, 15.0),
     (2.0, 2.0), (0.0, 10.0), (4.01, 4.02)],
)
def test_indicator_project_leaves_no_node_unwritten(a, b):
    g = make_grid(10.0, 64)
    u = _random_wave(g, 7)
    _dirty_heap(g.N)
    got = indicator_project(u, a, b).values
    inside = (g.x >= a) & (g.x <= b)
    assert np.all(got[~inside] == 0j)
    assert np.array_equal(got[inside], u.values[inside])


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2 ** 31),
    lo=st.floats(-1.0, 11.0),
    width=st.floats(0.0, 12.0),
)
def test_indicator_project_is_projection(seed, lo, width):
    g = make_grid(10.0, 64)
    u = _random_wave(g, seed)
    p = indicator_project(u, lo, lo + width)
    again = indicator_project(p, lo, lo + width)
    assert np.array_equal(p.values, again.values)
    v = _random_wave(g, seed ^ 0x5A5A)
    pv = indicator_project(v, lo, lo + width)
    assert inner(p, v) == pytest.approx(inner(u, pv), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 31), m=st.integers(0, 62))
def test_indicator_partition_for_off_node_cut(seed, m):
    g = make_grid(10.0, 64)
    u = _random_wave(g, seed)
    cut = g.x[m] + 0.37 * g.h
    low = indicator_project(u, 0.0, cut)
    high = indicator_project(u, cut, g.L)
    assert np.array_equal(low.values + high.values, u.values)


def test_indicator_rejects_reversed_band():
    g = make_grid(10.0, 64)
    u = WaveFunction(g, np.ones(64))
    with pytest.raises(ValidationError):
        indicator_project(u, 3.0, 2.0)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(-3.0, 3.0),
    b=st.floats(-3.0, 3.0),
    c=st.floats(-3.0, 3.0),
)
def test_boundary_value_exact_for_quadratics(a, b, c):
    g = make_grid(10.0, 64)
    u = WaveFunction(g, a + b * g.x + c * g.x ** 2)
    assert boundary_value(u) == pytest.approx(a, abs=1e-10)


def test_boundary_defect_flags_nonvanishing_data():
    g = make_grid(40.0, 2 ** 12)
    gauss = WaveFunction(g, np.exp(-g.x ** 2))
    assert boundary_defect(gauss) > 0.5
    pinned = WaveFunction(g, np.sin(np.pi * g.x / g.L))
    assert boundary_defect(pinned) <= 1e-8
    zero = WaveFunction(g, np.zeros(g.N))
    assert boundary_defect(zero) == 0.0


def test_norm_matches_inner():
    g = make_grid(10.0, 64)
    u = _random_wave(g, 3)
    assert norm(u) == pytest.approx(math.sqrt(np.real(inner(u, u))), rel=1e-14)


def test_reductions_match_reference_sums():
    # The package sums without BLAS; the reference is numpy's BLAS dot,
    # which sums in another order, hence the tolerance.
    g = make_grid(10.0, 1024)
    u, v = _random_wave(g, 5), _random_wave(g, 6)
    np.testing.assert_allclose(density(u), np.abs(u.values) ** 2, rtol=1e-14)
    assert mass(u) == pytest.approx(g.h * np.vdot(u.values, u.values).real, rel=1e-13)
    assert norm(u) == math.sqrt(mass(u))
    assert inner(u, v) == pytest.approx(g.h * np.vdot(u.values, v.values), rel=1e-13)


# |k| L from 0 to 4e5, both signs: the two tables against one exponential per node.
@pytest.mark.parametrize("L,N", [(40.0, 65536), (20.0, 4096), (1.0, 8), (3.7, 16)])
@pytest.mark.parametrize("kL", [0.0, 1e-3, 1.0, 3.3, 1e2, 1e4, 4e5])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_plane_wave_matches_pointwise_exp(L, N, kL, sign):
    # Each method rounds its argument k x twice (2u |k x| each), plus a
    # few ulp in the exponentials and the product.
    g = make_grid(L, N)
    k = sign * kL / L
    out = np.empty(N, dtype=np.complex128)
    assert plane_wave(g, k, out) is out
    err = np.max(np.abs(out - np.exp(1j * k * g.x)))
    assert err <= 1e-15 + 5e-16 * abs(k) * L


@pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan, 1e307])
def test_plane_wave_refuses_a_phase_it_cannot_compute(k):
    # 1e307 is finite, but k x overflows at the far end of [0, 40].
    g = make_grid(40.0, 1024)
    with pytest.raises(ValidationError, match="k="):
        plane_wave(g, k, np.empty(g.N, dtype=np.complex128))
