"""Who owns a state's array.

``WaveFunction(grid, values)`` keeps a checked private copy of what it is
given.  The package's own results adopt the array they have just built,
checked the same way but not copied, so no result may share memory with
an input: the copies stay wherever a result would otherwise alias its
input (a shift by zero, an evolution to t = 0, the limit maps at
t = 0).  ``indicator_project`` is one slice of the sorted nodes, and
``reflect_W`` leaves out the band projection that the reflection makes
a no-op; both must keep the bytes of the mask forms they replace.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import halfline.grid as grid_module
from halfline import (
    ValidationError,
    WaveFunction,
    comp_semigroup_check,
    comp_state_evolve,
    get_preset,
    kraus_apply,
    make_grid,
    reflect_W,
    wold_projectors,
)
from halfline.grid import indicator_project, reflect_sample


def _random_wave(g, seed):
    rng = np.random.default_rng(seed)
    return WaveFunction(g, rng.normal(size=g.N) + 1j * rng.normal(size=g.N))


def _bits(v):
    """The bytes of v, so that 0.0 and -0.0 differ."""
    return np.ascontiguousarray(v).view(np.uint64)


def _position(data, g, lo, hi):
    """A node, a cell edge, one ulp either side of a node, an end of
    [lo, hi], or any point of it."""
    kind = data.draw(st.sampled_from(("node", "edge", "below", "above", "end", "free")))
    first, last = math.ceil(lo / g.h), math.floor(hi / g.h) - 1
    if kind == "free":
        return data.draw(st.floats(lo, hi))
    if kind == "end" or first > last:
        return data.draw(st.sampled_from((lo, hi)))
    m = data.draw(st.integers(first, last))
    node = (m + 0.5) * g.h
    pos = {"node": node, "edge": m * g.h, "below": float(np.nextafter(node, -np.inf)),
           "above": float(np.nextafter(node, np.inf))}[kind]
    return min(max(pos, lo), hi)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_constructor_copies_what_it_is_given(dtype):
    g = make_grid(10.0, 64)
    arr = np.linspace(1.0, 2.0, g.N).astype(dtype)
    u = WaveFunction(g, arr)
    before = u.values.copy()
    arr[:] = 7.0
    assert np.array_equal(u.values, before)
    assert not np.shares_memory(u.values, arr)


def test_adopted_array_is_checked_not_copied():
    g = make_grid(10.0, 64)
    v = np.ones(g.N, dtype=np.complex128)
    assert grid_module._adopt(g, v).values is v
    for j, bad in ((3, math.nan), (5, complex(1.0, math.inf))):
        w = v.copy()
        w[j] = bad
        with pytest.raises(ValidationError, match="finite"):
            grid_module._adopt(g, w)
    with pytest.raises(ValidationError, match="shape"):
        grid_module._adopt(g, v[:32].copy())


@pytest.fixture(scope="module")
def bump():
    g = make_grid(20.0, 2 ** 12)
    return g, get_preset("bump12", g)


def test_limit_maps_at_t0_leave_the_input_alone(bump):
    g, phi = bump
    before = phi.values.tobytes()
    ks = kraus_apply(phi, 1.0, 0.0)
    st0 = comp_state_evolve(phi, 1.0, 0.0)
    assert comp_semigroup_check(phi, 1.0, 0.0, 0.5) == 0.0
    assert phi.values.tobytes() == before
    assert ks.shift_branch.values.tobytes() == before
    assert st0.shift_profile is not None
    for u in (ks.shift_branch, ks.reflect_branch, st0.shift_profile):
        assert not np.shares_memory(u.values, phi.values)
    assert not np.shares_memory(ks.shift_branch.values, ks.reflect_branch.values)


@settings(max_examples=100, deadline=None)
@given(N=st.sampled_from([8, 64, 1024]), L=st.sampled_from([1.0, 3.3, 40.0]),
       seed=st.integers(0, 2 ** 31), data=st.data())
def test_indicator_slice_is_the_mask(N, L, seed, data):
    g = make_grid(L, N)
    u = _random_wave(g, seed)
    a = _position(data, g, -g.h, L + g.h)
    b = _position(data, g, a, L + g.h)
    mask = np.where((g.x >= a) & (g.x <= b), u.values, 0.0 + 0.0j)
    assert np.array_equal(_bits(indicator_project(u, a, b).values), _bits(mask))


@settings(max_examples=100, deadline=None)
@given(N=st.sampled_from([8, 64, 1024, 65536]), L=st.sampled_from([1.0, 3.3, 40.0]),
       b=st.sampled_from([1.0, 2.0, 0.7]), seed=st.integers(0, 2 ** 31), data=st.data())
def test_reflect_W_needs_no_band_projection(N, L, b, seed, data):
    g = make_grid(L, N)
    u = _random_wave(g, seed)
    t = _position(data, g, 0.0, L) / b
    cut = b * t
    projected = indicator_project(reflect_sample(u, cut), 0.0, cut)
    assert np.array_equal(_bits(reflect_W(u, b, t).values), _bits(projected.values))


@pytest.mark.parametrize("m", [0, 17, 1023])
def test_node_on_the_cut_is_in_both_wold_bands(m):
    g = make_grid(10.0, 2 ** 10)
    u = _random_wave(g, m)
    wp = wold_projectors(g, 1.0, float(g.x[m]))
    up, low = wp.upper(u).values, wp.lower(u).values
    assert up[m] == low[m] == u.values[m]
    assert np.all(up[:m] == 0.0) and np.all(low[m + 1:] == 0.0)
    assert np.array_equal(up[m + 1:], u.values[m + 1:])
    assert np.array_equal(low[:m], u.values[:m])
