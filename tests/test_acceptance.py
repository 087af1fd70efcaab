"""Full-scale acceptance gate on the reference grid.

One test per shipped guarantee, run at the documented desk scale
(L = 40, N = 65536).  Each test asserts the published tolerance, so a
verbose run gives one pass or fail line per guarantee.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from halfline import (
    EvolutionParams,
    SweepConfig,
    WaveFunction,
    comp_semigroup_check,
    comp_state_evolve,
    destruction_time,
    emit_report,
    get_preset,
    kernel_evolve,
    kraus_apply,
    make_grid,
    norm,
    preset_function,
    reflect_W,
    run_claim,
    spectral_evolve,
)
from halfline.grid import boundary_defect, indicator_project
from halfline.harness import (
    attach_ratios,
    claim_checks,
    divergence_probe,
    evaluate_checks,
    sweep_expectations,
    sweep_prop2,
    sweep_theorem1,
)
from halfline.presets import REFERENCE_L, REFERENCE_N

CROSS_EPS = (0.2, 0.1, 0.05)


@pytest.fixture(scope="module")
def ref():
    g = make_grid(REFERENCE_L, REFERENCE_N)
    return g, get_preset("xexp", g), get_preset("bump12", g)


@pytest.fixture(scope="module")
def spectral_t1(ref):
    _, xe, _ = ref
    return {
        e: spectral_evolve(xe, EvolutionParams(epsilon=e, b=1.0, t=1.0))
        for e in CROSS_EPS
    }


def _column(records, metric, t):
    return [r.value for r in records if r.metric == metric and r.t == t]


def test_criterion_01_engine_cross_agreement(ref, spectral_t1):
    g, xe, _ = ref
    gaps = {}
    for e in CROSS_EPS:
        uk = kernel_evolve(xe, EvolutionParams(epsilon=e, b=1.0, t=1.0))
        us = spectral_t1[e]
        gaps[e] = norm(WaveFunction(g, uk.values - us.values))
        assert abs(norm(uk) - 1.0) <= 1e-3
    print(f"engine gaps: {gaps}")
    assert all(v <= 1e-3 for v in gaps.values())


def test_criterion_02_unitarity_and_boundary_trace(spectral_t1):
    for e, u in spectral_t1.items():
        assert abs(norm(u) - 1.0) <= 1e-9
        assert boundary_defect(u) <= 1e-4
        print(f"eps={e}: |norm-1|={abs(norm(u) - 1.0):.3e} "
              f"boundary={boundary_defect(u):.3e}")


def test_criterion_03_two_wave_remainder_decreases():
    cfg = SweepConfig(preset="xexp", L=REFERENCE_L, N=REFERENCE_N, b=1.0,
                      times=(0.5, 1.0, 2.0), eps=(0.2, 0.1, 0.05, 0.025))
    recs = sweep_theorem1(cfg)
    sup = [r.value for r in recs if r.metric == "sup_remainder"]
    print(f"sup remainder column: {sup}")
    assert all(y < x for x, y in zip(sup, sup[1:]))
    assert sup[-1] < 0.5 * sup[0]
    verdict = evaluate_checks(attach_ratios(recs), claim_checks("thm1"))
    assert verdict["all_pass"]


def test_criterion_04_branch_completeness(ref):
    _, xe, b12 = ref
    worst = 0.0
    for phi in (xe, b12):
        for b in (0.5, 1.0, 2.0):
            for t in (0.0, 0.5, 1.0, 2.0, 3.0):
                worst = max(worst, kraus_apply(phi, b, t).completeness_defect)
    print(f"worst completeness defect: {worst:.3e}")
    assert worst <= 1e-6
    assert worst == pytest.approx(8.822046702050557e-07, rel=1e-9)


def test_criterion_05_double_reflection_is_projection(ref):
    g, _, b12 = ref
    b, t = 1.0, 1.5
    ww = reflect_W(reflect_W(b12, b, t), b, t)
    band = indicator_project(b12, 0.0, b * t)
    d_proj = norm(WaveFunction(g, ww.values - band.values))
    w2 = reflect_W(b12, b, 2.0 * t)
    d_double = norm(WaveFunction(g, ww.values - w2.values))
    print(f"||WW - band||={d_proj:.3e}  ||WW - W(2t)||={d_double:.3e}")
    assert d_proj <= 1e-3
    assert d_proj == pytest.approx(1.457306927863277e-05, rel=1e-9)
    assert d_double > 0.1
    assert d_double == pytest.approx(0.7067612218721225, rel=1e-9)


def test_criterion_06_state_destruction_profile(ref):
    g, _, b12 = ref
    pf = preset_function("bump12")
    assert comp_state_evolve(b12, 1.0, 0.999).alpha >= 1.0 - 1e-6
    assert comp_state_evolve(b12, 1.0, 3.0).alpha == 0.0
    for t in (0.5, 1.2, 1.8):
        oracle, err = quad(lambda y: pf(y) ** 2, max(t, 1.0), 2.0)
        assert err < 1e-9
        got = comp_state_evolve(b12, 1.0, t).alpha
        print(f"t={t}: alpha={got:.9f} oracle={oracle:.9f}")
        assert got == pytest.approx(oracle, abs=1e-6)
    tstar = destruction_time(b12, 1.0)
    assert abs(tstar - 1.0) <= g.h
    assert tstar == 1.00006103515625


def test_criterion_07_expectation_gaps_close():
    cfg = SweepConfig(preset="xexp", L=REFERENCE_L, N=REFERENCE_N, b=1.0,
                      times=(1.5,), eps=(0.2, 0.1, 0.05, 0.025))
    recs = sweep_expectations(cfg)
    for kind in ("indicator", "sigmoid", "projector"):
        col = _column(recs, f"gap[{kind}]", 1.5)
        print(f"gap[{kind}]: {col}")
        assert all(y < x for x, y in zip(col, col[1:]))
        assert col[-1] <= 0.02
    verdict = evaluate_checks(
        attach_ratios(recs), claim_checks("thm5") + claim_checks("thm3")
    )
    assert verdict["all_pass"]


def test_criterion_08_strong_weak_dichotomy():
    times = (0.25, 0.5, 1.0)
    eps = (0.1, 0.05, 0.025, 0.0125, 0.00625)
    out = SweepConfig(preset="xexp", L=REFERENCE_L, N=REFERENCE_N, b=-1.0,
                      times=times, eps=eps)
    recs_out = sweep_prop2(out)
    v_out = evaluate_checks(attach_ratios(recs_out), claim_checks("prop2", b=-1.0))
    assert v_out["all_pass"]
    assert _column(recs_out, "strong_gap", 1.0)[-1] <= 0.05

    into = SweepConfig(preset="xexp", L=REFERENCE_L, N=REFERENCE_N, b=1.0,
                       times=times, eps=eps)
    recs_in = sweep_prop2(into)
    v_in = evaluate_checks(attach_ratios(recs_in), claim_checks("prop2", b=1.0))
    assert v_in["all_pass"]
    assert _column(recs_in, "weak_gap[xexp]", 1.0)[-1] <= 0.02
    # the strong residual itself stalls at the absorbed mass
    strong = _column(recs_in, "strong_gap", 1.0)
    print(f"inflow strong gap column: {strong}")
    assert strong[-1] > 0.5
    assert _column(recs_in, "stall_defect", 1.0)[-1] <= 0.05


def test_criterion_09_probe_oscillates_without_limit():
    cfg = SweepConfig(preset="xexp", L=REFERENCE_L, N=REFERENCE_N, b=1.0,
                      times=(1.5,), eps=(0.1,))
    recs = divergence_probe(cfg)
    exps = [r.value for r in recs if r.metric == "probe_expectation"]
    lost = [r.value for r in recs if r.metric == "probe_one_minus_alpha"][0]
    print(f"probe expectations: {exps}  absorbed={lost:.6f}")
    assert [v > 0 for v in exps] == [True, False, True, False]
    assert max(exps) - min(exps) >= 0.5 * lost
    # consecutive rungs never settle to within the stated tolerance
    assert min(abs(y - x) for x, y in zip(exps, exps[1:])) >= 0.1 * lost
    verdict = evaluate_checks(attach_ratios(recs), claim_checks("thm2"))
    assert verdict["all_pass"]


def test_criterion_10_state_evolution_composes(ref):
    _, xe, _ = ref
    d1 = comp_semigroup_check(xe, 1.0, 0.5, 0.7)
    d2 = comp_semigroup_check(xe, 1.0, 1.0, 1.0)
    print(f"composition defects: {d1:.3e} {d2:.3e}")
    assert d1 <= 1e-4
    assert d2 <= 1e-4
    assert d1 == pytest.approx(1.7699758048106418e-08, rel=1e-9)
    assert d2 == pytest.approx(1.6360603403726276e-09, rel=1e-9)
    assert comp_semigroup_check(xe, 1.0, 0.8, 0.0) == 0.0


def test_criterion_11_reports_are_deterministic(tmp_path, ref):
    _, xe, _ = ref
    cfg = SweepConfig(preset="xexp", L=REFERENCE_L, N=REFERENCE_N, b=1.0,
                      times=(0.5, 1.0, 2.0), eps=(0.2, 0.1, 0.05, 0.025))
    blobs = []
    for tag in ("a", "b"):
        records, checks = run_claim("thm1", cfg)
        csv = tmp_path / f"{tag}.csv"
        js = tmp_path / f"{tag}.json"
        emit_report(records, csv, js, checks)
        blobs.append((csv.read_bytes(), js.read_bytes()))
    assert blobs[0] == blobs[1]
    p = EvolutionParams(epsilon=0.1, b=1.0, t=1.0)
    assert np.array_equal(spectral_evolve(xe, p).values,
                          spectral_evolve(xe, p).values)
