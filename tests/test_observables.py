import numpy as np
import pytest

from halfline import (
    ValidationError,
    WaveFunction,
    comp_state_evolve,
    get_preset,
    make_grid,
    norm,
)
from halfline.grid import BoundedFunction, indicator_project, inner
from halfline.observables import (
    FiniteRankObservable,
    comp_expectation_limit,
    expectation,
)


@pytest.fixture(scope="module")
def setup():
    g = make_grid(20.0, 2 ** 12)
    return g, get_preset("xexp", g)


def test_finite_rank_validation(setup):
    g, xe = setup
    with pytest.raises(ValidationError):
        FiniteRankObservable(coeffs=(1.0, 2.0), directions=(xe,))
    with pytest.raises(ValidationError):
        FiniteRankObservable(coeffs=(), directions=())
    stretched = WaveFunction(g, 1.5 * xe.values)
    with pytest.raises(ValidationError):
        FiniteRankObservable(coeffs=(1.0,), directions=(stretched,))
    other = get_preset("xexp", make_grid(10.0, 2 ** 12))
    with pytest.raises(ValidationError):
        FiniteRankObservable(coeffs=(1.0, 1.0), directions=(xe, other))
    with pytest.raises(ValidationError, match="coefficients must be finite"):
        FiniteRankObservable(coeffs=(float("nan"),), directions=(xe,))


@pytest.mark.parametrize("c", [True, "1", 1 + 0j])
def test_finite_rank_refuses_non_real_coefficient(setup, c):
    g, xe = setup
    with pytest.raises(ValidationError, match="coefficient must be a real number"):
        FiniteRankObservable(coeffs=(c,), directions=(xe,))


def test_mult_expectation_matches_band_mass(setup):
    g, xe = setup
    ind = BoundedFunction(g, np.where((g.x >= 0.5) & (g.x <= 1.5), 1.0, 0.0))
    val = expectation(xe, ind)
    assert isinstance(val, float)
    assert val == pytest.approx(norm(indicator_project(xe, 0.5, 1.5)) ** 2, rel=1e-12)


def test_mult_expectation_is_bounded_by_the_bound(setup):
    g, xe = setup
    f = BoundedFunction(g, np.sin(g.x))
    val = expectation(xe, f)
    assert abs(val) <= np.max(np.abs(f.values)) * norm(xe) ** 2 * (1.0 + 1e-12)


def test_finite_rank_expectation_manual(setup):
    g, xe = setup
    d1 = get_preset("bump12", g)
    d2 = get_preset("bump23", g)
    obs = FiniteRankObservable(coeffs=(2.0, -1.0), directions=(d1, d2))
    want = 2.0 * abs(inner(d1, xe)) ** 2 - abs(inner(d2, xe)) ** 2
    assert expectation(xe, obs) == pytest.approx(want, rel=1e-12)


def test_expectation_rejects_grid_mismatch(setup):
    g, xe = setup
    other = make_grid(10.0, 2 ** 12)
    f = BoundedFunction(other, np.ones(other.N))
    with pytest.raises(ValidationError):
        expectation(xe, f)
    with pytest.raises(ValidationError, match="unsupported observable type object"):
        expectation(xe, object())


def test_finite_rank_expectation_refuses_a_state_on_another_grid(setup):
    g, xe = setup
    obs = FiniteRankObservable(coeffs=(1.0,), directions=(xe,))
    for other in (make_grid(10.0, 2 ** 12), make_grid(20.0, 2 ** 11)):
        state = get_preset("xexp", other)
        with pytest.raises(ValidationError, match="different grids"):
            expectation(state, obs)
        # also where the state is wholly singular and has no profile to pair
        for t in (0.5, 45.0):
            with pytest.raises(ValidationError, match="different grids"):
                comp_expectation_limit(comp_state_evolve(state, 1.0, t), obs)


def test_comp_limit_picks_out_alpha(setup):
    g, xe = setup
    st = comp_state_evolve(xe, 1.0, 0.8)
    proj = FiniteRankObservable(coeffs=(1.0,), directions=(st.shift_profile,))
    val = comp_expectation_limit(st, proj)
    assert val == pytest.approx(st.alpha, abs=1e-12)


def test_comp_limit_vanishes_when_fully_singular(setup):
    g, xe = setup
    proj = FiniteRankObservable(coeffs=(1.0,), directions=(xe,))
    assert comp_expectation_limit(comp_state_evolve(xe, 1.0, 45.0), proj) == 0.0


def test_comp_limit_rejects_multiplication(setup):
    g, xe = setup
    f = BoundedFunction(g, np.ones(g.N))
    with pytest.raises(ValidationError):
        comp_expectation_limit(comp_state_evolve(xe, 1.0, 0.5), f)
