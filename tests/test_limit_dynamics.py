import math

import numpy as np
import pytest
from scipy.integrate import quad

from halfline import (
    ValidationError,
    WaveFunction,
    comp_semigroup_check,
    comp_state_evolve,
    destruction_time,
    get_preset,
    kraus_apply,
    make_grid,
    norm,
    reflect_W,
    wold_projectors,
)
import halfline.limit_dynamics as limit_dynamics
from halfline.grid import BoundedFunction, indicator_project, shift_sample
from halfline.limit_dynamics import (
    ALPHA_FLOOR,
    MASS_FLOOR,
    mult_expectation_limit,
    shift_V,
)
from halfline.presets import preset_function


@pytest.fixture(scope="module")
def medium():
    g = make_grid(20.0, 2 ** 12)
    return g, get_preset("xexp", g), get_preset("bump12", g)


def test_regime_validation(medium):
    g, xe, _ = medium
    for bad_b in (0.0, -1.0, math.nan):
        with pytest.raises(ValidationError):
            shift_V(xe, bad_b, 0.5)
    with pytest.raises(ValidationError):
        reflect_W(xe, 1.0, -0.1)
    with pytest.raises(ValidationError):
        destruction_time(xe, -2.0)


@pytest.mark.parametrize("b,t", [(0.0, 0.5), (-1.0, 0.5), (1.0, -0.1)])
@pytest.mark.parametrize("fn", [
    kraus_apply,
    comp_state_evolve,
    lambda phi, b, t: mult_expectation_limit(
        phi, BoundedFunction(phi.grid, np.ones(phi.grid.N)), b, t),
], ids=["kraus_apply", "comp_state_evolve", "mult_expectation_limit"])
def test_limit_maps_refuse_outside_the_inflow_regime(medium, fn, b, t):
    g, xe, _ = medium
    with pytest.raises(ValidationError):
        fn(xe, b, t)


def test_kraus_needs_unit_input(medium):
    g, xe, _ = medium
    scaled = WaveFunction(g, 1.1 * xe.values)
    with pytest.raises(ValidationError):
        kraus_apply(scaled, 1.0, 0.5)


def test_kraus_mass_split(medium):
    g, xe, _ = medium
    ks = kraus_apply(xe, 1.0, 0.8)
    assert ks.completeness_defect <= 1e-4
    assert ks.p_shift + ks.p_reflect == pytest.approx(1.0, abs=1e-4)
    assert ks.p_shift == pytest.approx(norm(ks.shift_branch) ** 2, rel=1e-12)
    # at t = 0 nothing is reflected yet
    ks0 = kraus_apply(xe, 1.0, 0.0)
    assert ks0.p_reflect == 0.0
    assert ks0.completeness_defect <= 1e-12


def test_reflected_branch_lives_in_the_swallowed_band(medium):
    g, xe, _ = medium
    w = reflect_W(xe, 1.0, 0.8)
    assert np.all(w.values[g.x > 0.8] == 0.0)
    assert norm(w) > 0.1


def test_double_reflection_is_band_projection_not_longer_reflection(medium):
    g, _, b12 = medium
    ww = reflect_W(reflect_W(b12, 1.0, 1.5), 1.0, 1.5)
    band = indicator_project(b12, 0.0, 1.5)
    further = reflect_W(b12, 1.0, 3.0)
    assert norm(WaveFunction(g, ww.values - band.values)) <= 1e-3
    assert norm(WaveFunction(g, ww.values - further.values)) > 0.1


def test_alpha_against_quadrature(medium):
    g, xe, _ = medium
    # oracle: mass of the profile beyond b t, by adaptive quadrature
    f = preset_function("xexp")
    oracle, err = quad(lambda y: f(y) ** 2, 0.8, np.inf)
    assert err < 1e-7
    assert oracle == pytest.approx(0.46454525437337346, rel=1e-12)
    st = comp_state_evolve(xe, 1.0, 0.8)
    assert st.alpha == pytest.approx(oracle, abs=1e-5)


def test_alpha_monotone_and_complementary(medium):
    g, xe, _ = medium
    alphas = [comp_state_evolve(xe, 1.0, t).alpha for t in (0.3, 0.8, 2.0)]
    assert alphas[0] > alphas[1] > alphas[2]
    for t in (0.0, 0.3, 0.8, 2.0):
        st = comp_state_evolve(xe, 1.0, t)
        assert st.alpha + st.singular_weight == 1.0
        assert 0.0 <= st.alpha <= 1.0


def test_state_goes_fully_singular_past_the_support(medium):
    g, xe, _ = medium
    st = comp_state_evolve(xe, 1.0, 45.0)
    assert st.alpha <= ALPHA_FLOOR
    assert st.shift_profile is None
    assert st.singular_weight == 1.0


def test_profile_is_normalized(medium):
    g, xe, _ = medium
    st = comp_state_evolve(xe, 1.0, 0.8)
    assert norm(st.shift_profile) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", ["bump12", "bump23", "xexp"])
@pytest.mark.parametrize("b,t", [(1.0, 0.5), (0.5, 1.7), (2.0, 0.6)])
def test_profile_is_the_shift_divided_by_sqrt_alpha(medium, name, b, t):
    # The profile is scaled by 1/sqrt(alpha) on the float view; numpy's
    # complex division by sqrt(alpha) + 0j must give the same numbers.
    g = medium[0]
    phi = get_preset(name, g)
    st = comp_state_evolve(phi, b, t)
    assert st.alpha > ALPHA_FLOOR
    want = shift_sample(phi, b * t).values / math.sqrt(st.alpha)
    assert np.array_equal(st.shift_profile.values, want)


def test_destruction_time_frozen_values(medium):
    g, xe, b12 = medium
    # bump12 support starts at 1: the first node past it trips the
    # mass floor, so T* sits within one cell of 1.
    t_star = destruction_time(b12, 1.0)
    assert t_star == 1.00341796875
    assert abs(t_star - 1.0) <= g.h
    # xexp has mass at the wall immediately
    assert destruction_time(xe, 1.0) == g.x[0]
    assert destruction_time(b12, 2.0) == pytest.approx(t_star / 2.0, rel=1e-12)
    zero = WaveFunction(g, np.zeros(g.N))
    with pytest.raises(ValidationError):
        destruction_time(zero, 1.0)
    assert MASS_FLOOR == 1e-12


def test_destruction_time_at_its_edges():
    # h = 1, and (1e-6)^2 is MASS_FLOOR exactly: a node carrying 1e-6
    # alone brings the cumulative mass to the floor, not above it.
    g = make_grid(64.0, 64)
    assert g.h == 1.0 and (1e-6) ** 2 == MASS_FLOOR
    last = np.zeros(g.N)
    last[-1] = 1e-3
    assert destruction_time(WaveFunction(g, last), 1.0) == g.x[-1]
    at_floor = np.zeros(g.N)
    at_floor[-1] = 1e-6
    with pytest.raises(ValidationError, match="^state carries no mass above MASS_FLOOR$"):
        destruction_time(WaveFunction(g, at_floor), 1.0)
    # The floor is reached at node 10 and crossed at node 23, or at node
    # 17 once that node carries even 1e-18 of mass.
    chosen = np.zeros(g.N, dtype=np.complex128)
    chosen[10] = 1e-6
    chosen[23] = 1e-6
    assert destruction_time(WaveFunction(g, chosen), 2.0) == g.x[23] / 2.0
    chosen[17] = 1e-9j
    assert destruction_time(WaveFunction(g, chosen), 2.0) == g.x[17] / 2.0
    with pytest.raises(ValidationError, match="^state carries no mass above MASS_FLOOR$"):
        destruction_time(WaveFunction(g, np.zeros(g.N)), 1.0)


def test_mult_expectation_limit_against_quadrature():
    g = make_grid(40.0, 2 ** 16)
    xe = get_preset("xexp", g)
    f = preset_function("xexp")
    # only the transported branch overlaps [1, 2] at t = 0.8
    oracle, _ = quad(lambda y: f(y + 0.8) ** 2, 1.0, 2.0)
    assert oracle == pytest.approx(0.004723197188457691, rel=1e-12)
    ind = BoundedFunction(g, np.where((g.x >= 1.0) & (g.x <= 2.0), 1.0, 0.0))
    val = mult_expectation_limit(xe, ind, 1.0, 0.8)
    assert isinstance(val, float)
    assert val == pytest.approx(oracle, abs=1e-4)


def test_mult_expectation_limit_sees_both_branches(medium):
    g, _, b12 = medium
    # by t = 2.5 the bump has fully crossed: everything sits in the
    # reflected branch, and total mass is still 1
    one = BoundedFunction(g, np.ones(g.N))
    val = mult_expectation_limit(b12, one, 1.0, 2.5)
    assert val == pytest.approx(1.0, abs=1e-4)
    v = shift_V(b12, 1.0, 2.5)
    assert norm(v) <= 1e-8


def test_mult_expectation_complex_multiplier(medium):
    g, xe, _ = medium
    f = BoundedFunction(g, (1.0 + 1.0j) * np.ones(g.N))
    val = mult_expectation_limit(xe, f, 1.0, 0.5)
    assert isinstance(val, complex)
    assert val.imag != 0.0


def test_mult_expectation_grid_mismatch(medium):
    g, xe, _ = medium
    other = make_grid(10.0, 2 ** 12)
    f = BoundedFunction(other, np.ones(other.N))
    with pytest.raises(ValidationError):
        mult_expectation_limit(xe, f, 1.0, 0.5)


def test_wold_projectors_split(medium):
    g, xe, _ = medium
    wp = wold_projectors(g, 1.0, 0.8)
    assert wp.cut == 0.8
    up = wp.upper(xe)
    low = wp.lower(xe)
    assert np.array_equal(up.values + low.values, xe.values)
    assert np.array_equal(wp.upper(up).values, up.values)
    assert np.all(low.values[g.x > 0.8] == 0.0)
    assert norm(up) ** 2 + norm(low) ** 2 == pytest.approx(norm(xe) ** 2, rel=1e-12)
    # a state on another grid is refused, not cut at this grid's L
    other = make_grid(40.0, 2 ** 13)
    for band in (wp.upper, wp.lower):
        with pytest.raises(ValidationError, match="different grids"):
            band(get_preset("xexp", other))


def test_wold_projectors_refuse_cut_at_far_wall():
    g = make_grid(40, 1024)
    for t in (45.0, 40.0):
        with pytest.raises(ValidationError, match="far wall"):
            wold_projectors(g, 1.0, t)


def test_comp_semigroup_defect_small(medium):
    g, xe, _ = medium
    d = comp_semigroup_check(xe, 1.0, 0.5, 0.7)
    assert d == pytest.approx(1.7055168194390902e-06, rel=1e-6)
    assert d <= 1e-4
    assert comp_semigroup_check(xe, 1.0, 0.5, 0.0) == 0.0
    assert comp_semigroup_check(xe, 1.0, 0.0, 0.7) == 0.0
    with pytest.raises(ValidationError):
        comp_semigroup_check(xe, 1.0, 0.5, -0.1)


@pytest.mark.parametrize("t,tau", [(0.5, 0.7), (0.0, 0.7), (0.5, 0.0)])
def test_comp_semigroup_needs_unit_input(medium, t, tau):
    g, xe, _ = medium
    scaled = WaveFunction(g, 1.1 * xe.values)
    with pytest.raises(ValidationError, match="comp_state_evolve needs a unit vector"):
        comp_semigroup_check(scaled, 1.0, t, tau)


def test_comp_semigroup_checks_its_input_once(medium, monkeypatch):
    g, xe, _ = medium
    seen = []
    monkeypatch.setattr(limit_dynamics, "require_unit", lambda u, who: seen.append(u))
    comp_semigroup_check(xe, 1.0, 0.5, 0.7)
    assert seen == [xe]


def test_comp_semigroup_handles_fully_singular_leg(medium):
    g, xe, _ = medium
    # first leg already past the support: both sides are empty
    assert comp_semigroup_check(xe, 1.0, 45.0, 1.0) <= 1e-12
