import math

import numpy as np
import pytest
from scipy.integrate import quad

from halfline import ResolutionError, ValidationError, make_grid, norm
from halfline.presets import (
    PRESET_NAMES,
    REFERENCE_L,
    REFERENCE_N,
    XEXP_AMPLITUDE,
    get_preset,
    preset_function,
)


def test_xexp_amplitude_against_quadrature():
    # Independent check of the closed-form normalization.
    f = preset_function("xexp")
    val, err = quad(lambda y: f(y) ** 2, 0.0, np.inf)
    assert err < 1e-7
    assert val == pytest.approx(1.0, abs=1e-12)
    assert XEXP_AMPLITUDE == pytest.approx(2.5264751109842587, rel=1e-15)


@pytest.mark.parametrize("name", ["bump12", "bump23"])
def test_arch_presets_normalized_and_supported(name):
    lo = 1.0 if name == "bump12" else 2.0
    f = preset_function(name)
    val, err = quad(lambda y: f(y) ** 2, lo, lo + 1.0)
    assert val == pytest.approx(1.0, abs=1e-12)
    g = make_grid(20.0, 2 ** 12)
    u = get_preset(name, g)
    outside = (g.x < lo) | (g.x > lo + 1.0)
    assert np.all(u.values[outside] == 0.0)
    assert np.max(np.abs(u.values)) == pytest.approx(math.sqrt(2.0), abs=1e-4)


def test_grid_norms_on_reference_grid():
    g = make_grid(REFERENCE_L, REFERENCE_N)
    assert abs(norm(get_preset("xexp", g)) - 1.0) < 1e-10
    assert abs(norm(get_preset("bump12", g)) - 1.0) < 1e-9
    assert abs(norm(get_preset("bump23", g)) - 1.0) < 1e-9


@pytest.mark.parametrize("k", [1, 2, 7])
def test_sine_modes_exactly_unit(k):
    g = make_grid(10.0, 256)
    u = get_preset(f"sine-mode-{k}", g)
    assert norm(u) == pytest.approx(1.0, abs=1e-13)


def test_sine_mode_needs_resolution():
    g = make_grid(10.0, 64)
    get_preset("sine-mode-16", g)
    with pytest.raises(ValidationError):
        get_preset("sine-mode-17", g)


def test_sine_mode_needs_length():
    with pytest.raises(ValidationError):
        preset_function("sine-mode-2")
    with pytest.raises(ValidationError):
        preset_function("sine-mode-0", L=10.0)
    with pytest.raises(ValidationError, match=r"k\*pi/L = inf on L=1e-320$"):
        preset_function("sine-mode-1", L=1e-320)


def test_unknown_preset_rejected():
    g = make_grid(10.0, 64)
    with pytest.raises(ValidationError) as exc:
        get_preset("gauss", g)
    assert "unknown preset" in str(exc.value)
    assert "xexp" in str(PRESET_NAMES)
    for name in (5, ["xexp"], None, "sine-mode-\u0661", "sine-mode-1\n"):
        with pytest.raises(ValidationError, match="unknown preset"):
            get_preset(name, g)


def test_presets_vanish_at_wall():
    for name in ("xexp", "bump12", "bump23", "sine-mode-3"):
        f = preset_function(name, L=10.0)
        assert abs(float(f(np.float64(0.0)))) == 0.0


@pytest.mark.parametrize("name", ["xexp", "bump12", "bump23"])
def test_preset_refused_where_its_grid_norm_misses_one(name):
    # On cells 5 wide the samples miss the profile: norms 0.027, 0, 3.16.
    grid = make_grid(40.0, 8)
    with pytest.raises(ResolutionError, match="on L=40, N=8: the grid does not resolve"):
        get_preset(name, grid)


@pytest.mark.parametrize("name,n", [("bump12", 1024), ("bump23", 2048)])
def test_preset_refused_at_the_unit_tolerance(name, n):
    # The arches miss norm 1 by 1.5e-5 and 1.8e-6 here: too far for a unit
    # vector on this grid, though much closer than the N = 8 misses above.
    with pytest.raises(ResolutionError, match=rf"on L=40, N={n}: .*\|norm - 1\| = "):
        get_preset(name, make_grid(40.0, n))
