import json
import weakref

import numpy as np
import pytest

import halfline.harness as harness
from halfline import (
    ResolutionError,
    SweepConfig,
    ValidationError,
    emit_report,
    make_grid,
    run_claim,
)
from halfline.harness import (
    CLAIMS,
    CSV_HEADER,
    Check,
    ConvergenceRecord,
    PROBE_RUNGS,
    WEAK_G,
    claim_checks,
    divergence_probe,
    evaluate_checks,
    standard_observables,
    sweep_expectations,
    sweep_prop2,
    sweep_theorem1,
    sweep_weak_decay,
)


def test_sweep_config_validation():
    ok = dict(preset="xexp", L=20.0, N=2 ** 12, b=1.0, times=(0.5, 1.0), eps=(0.3, 0.15))
    SweepConfig(**ok)
    with pytest.raises(ValidationError):
        SweepConfig(**{**ok, "times": ()})
    with pytest.raises(ValidationError):
        SweepConfig(**{**ok, "times": (1.0, 0.5)})
    with pytest.raises(ValidationError):
        SweepConfig(**{**ok, "times": (0.0, 1.0)})
    with pytest.raises(ValidationError):
        SweepConfig(**{**ok, "eps": (0.15, 0.3)})
    with pytest.raises(ValidationError):
        SweepConfig(**{**ok, "eps": (0.3, 0.3)})
    for bad_b in (0.0, "1", True):
        with pytest.raises(ValidationError):
            SweepConfig(**{**ok, "b": bad_b})
    for bad in ({"times": ("0.5",)}, {"times": ("a",)}, {"times": (0.5, True)},
                {"eps": (True,)}, {"eps": (0.3, "0.15")}):
        with pytest.raises(ValidationError, match="must be a real number"):
            SweepConfig(**{**ok, **bad})


def test_sweep_refuses_underresolved_rung():
    cfg = SweepConfig(preset="xexp", L=20.0, N=2 ** 10, b=1.0,
                      times=(0.5,), eps=(0.3, 1e-5))
    with pytest.raises(ResolutionError):
        sweep_theorem1(cfg)


@pytest.mark.parametrize("claim", CLAIMS)
def test_unresolved_rung_is_refused_before_the_far_wall(claim):
    # Unresolved at eps = 1e-5 and past the far wall at t = 5: the rung
    # gate comes first for every claim, thm2 included, whose own probe
    # ladder (0.5 down to 0.0625) is resolved.
    cfg = SweepConfig(preset="xexp", L=4.0, N=2 ** 10, b=1.0,
                      times=(5.0,), eps=(0.5, 1e-5))
    with pytest.raises(ResolutionError):
        run_claim(claim, cfg)


def test_sweeps_gate_each_rung_once(monkeypatch):
    import halfline.evolvers as evolvers
    import halfline.harness as harness

    gated = []
    real = evolvers.require_resolved
    gate = lambda grid, e, b, who: gated.append(e) or real(grid, e, b, who)  # noqa: E731
    monkeypatch.setattr(evolvers, "require_resolved", gate)
    monkeypatch.setattr(harness, "require_resolved", gate, raising=False)
    cfg = SweepConfig(preset="xexp", L=20.0, N=2 ** 12, b=1.0,
                      times=(0.5, 1.0), eps=(0.3, 0.15))
    for claim in ("thm1", "weak", "thm3", "thm5", "prop2"):
        gated.clear()
        run_claim(claim, cfg)
        assert gated == list(cfg.eps), claim


def test_sweep_refuses_tail_mass():
    # bump23 sits inside reach of the far wall on a short interval
    cfg = SweepConfig(preset="bump23", L=4.0, N=2 ** 10, b=1.0,
                      times=(2.0,), eps=(0.5,))
    with pytest.raises(ValidationError) as exc:
        sweep_theorem1(cfg)
    assert "mass" in str(exc.value)


def test_sweep_refuses_horizon_past_the_wall():
    cfg = SweepConfig(preset="xexp", L=4.0, N=2 ** 10, b=1.0,
                      times=(5.0,), eps=(0.5,))
    with pytest.raises(ValidationError):
        sweep_theorem1(cfg)


def test_sweep_theorem1_structure_and_values():
    cfg = SweepConfig(preset="xexp", L=20.0, N=2 ** 12, b=1.0,
                      times=(0.5, 1.0), eps=(0.3, 0.15))
    recs = sweep_theorem1(cfg)
    assert len(recs) == 2 * (2 + 1)
    per_t = [r for r in recs if r.metric == "remainder"]
    sups = [r for r in recs if r.metric == "sup_remainder"]
    assert [r.value for r in sups] == [
        max(r.value for r in per_t if r.epsilon == e) for e in (0.3, 0.15)
    ]
    # sup rows carry the largest configured time
    assert all(r.t == 1.0 for r in sups)
    assert sups[0].value == pytest.approx(0.751658857591088, rel=1e-9)
    assert sups[1].value == pytest.approx(0.4140388060391644, rel=1e-9)


def test_sweep_weak_decay_monotone():
    cfg = SweepConfig(preset="xexp", L=20.0, N=2 ** 12, b=1.0,
                      times=(1.5,), eps=(0.3, 0.15, 0.075))
    recs = sweep_weak_decay(cfg)
    vals = [r.value for r in recs]
    assert all(y < x for x, y in zip(vals, vals[1:]))
    assert recs[0].metric == "weak[bump12]"


def test_sweep_expectations_evolves_once_per_rung():
    cfg = SweepConfig(preset="xexp", L=20.0, N=2 ** 12, b=1.0,
                      times=(1.5,), eps=(0.3, 0.15))
    recs = sweep_expectations(cfg, kinds=("indicator", "projector"))
    metrics = {r.metric for r in recs}
    assert metrics == {"gap[indicator]", "gap[projector]"}
    assert len(recs) == 4
    with pytest.raises(ValidationError):
        sweep_expectations(SweepConfig(preset="xexp", L=20.0, N=2 ** 12, b=-1.0,
                                       times=(1.5,), eps=(0.3,)))


def test_standard_observables_unknown_kind():
    g = make_grid(20.0, 2 ** 10)
    with pytest.raises(ValidationError):
        standard_observables(g, ("sigmoid", "spline"), cut=1.0)


def test_sweep_prop2_metrics_by_sign():
    base = dict(preset="xexp", L=20.0, N=2 ** 12, times=(0.5,), eps=(0.3, 0.15))
    neg = sweep_prop2(SweepConfig(b=-1.0, **base))
    assert {r.metric for r in neg} == {"strong_gap"}
    pos = sweep_prop2(SweepConfig(b=1.0, **base))
    assert {r.metric for r in pos} == {"strong_gap", "weak_gap[xexp]", "stall_defect"}


def test_prop2_checks_read_the_sweep_test_vector(monkeypatch):
    # One constant names the weak residual's test vector for the sweep's
    # rows and for the checks that judge them.
    monkeypatch.setattr(harness, "PROP2_PSI", "bump12")
    cfg = SweepConfig(preset="xexp", L=20.0, N=2 ** 12, b=1.0, times=(0.5,), eps=(0.3, 0.15))
    records, checks = run_claim("prop2", cfg)
    metrics = {r.metric for r in records}
    assert metrics == {"strong_gap", "weak_gap[bump12]", "stall_defect"}
    assert {c.metric for c in checks} <= metrics


def test_divergence_probe_alternates():
    cfg = SweepConfig(preset="xexp", L=20.0, N=2 ** 12, b=1.0,
                      times=(1.5,), eps=(0.2,))
    recs = divergence_probe(cfg)
    exps = [r.value for r in recs if r.metric == "probe_expectation"]
    assert len(exps) == PROBE_RUNGS
    assert [v > 0 for v in exps] == [True, False, True, False]
    lost = [r.value for r in recs if r.metric == "probe_one_minus_alpha"][0]
    ptp = [r.value for r in recs if r.metric == "probe_peak_to_peak"][0]
    assert ptp == pytest.approx(max(exps) - min(exps), rel=1e-12)
    assert ptp >= 0.5 * lost
    gaps = [r.value for r in recs if r.metric == "probe_gap_sq"]
    assert all(abs(v - lost) <= 0.05 for v in gaps)
    verdict = evaluate_checks(recs, claim_checks("thm2"))
    assert verdict["all_pass"]


def _count_blends(monkeypatch) -> list[tuple[float, int]]:
    """Record the offset and step of every grid-wide blend: a shift
    V(t) phi has step 1, a reflection W(t) phi step -1."""
    import halfline.grid as grid

    calls = []
    real = grid._slice_blend
    monkeypatch.setattr(
        grid, "_slice_blend", lambda u, a, step: calls.append((a, step)) or real(u, a, step)
    )
    return calls


def test_sweeps_transport_once_per_time(monkeypatch):
    calls = _count_blends(monkeypatch)
    times = (0.5, 1.0)
    for sweep, b in ((sweep_weak_decay, 1.0), (sweep_prop2, 1.0), (sweep_prop2, -1.0)):
        calls.clear()
        sweep(SweepConfig(preset="xexp", L=20.0, N=2 ** 12, b=b,
                          times=times, eps=(0.3, 0.15)))
        assert calls == [(b * t, 1) for t in times]


@pytest.mark.parametrize("claim,times,blends", [
    ("thm5", (1.5,), [(1.5, 1), (1.5, -1)]),
    ("thm3", (1.5,), [(1.5, 1)]),
    ("prop2", (0.5, 1.0), [(0.5, 1), (1.0, 1)]),
    ("thm2", (1.5,), [(1.5, 1)]),
])
def test_claims_read_one_limit_state_per_time(monkeypatch, claim, times, blends):
    # Every limit value of a time comes from one state: one shift, and a
    # reflection only where a multiplication limit reads it.
    calls = _count_blends(monkeypatch)
    run_claim(claim, SweepConfig(preset="xexp", L=20.0, N=2 ** 12, b=1.0,
                                 times=times, eps=(0.2,)))
    assert calls == blends


def _watched_ladder(monkeypatch, check):
    """Rebind the sweeps' ladder so that check(u) runs on each state it yields."""
    real = harness.spectral_ladder

    def ladder(*args):
        walk = real(*args)  # the gates run here, as in the real call

        def watched():
            for e, t, u in walk:
                check(u)
                yield e, t, u
        return watched()

    monkeypatch.setattr(harness, "spectral_ladder", ladder)


@pytest.mark.parametrize("claim", CLAIMS)
def test_sweeps_leave_the_walks_states_alone(monkeypatch, claim):
    seen = []
    _watched_ladder(monkeypatch, lambda u: seen.append((u, u.values.tobytes())))
    run_claim(claim, SweepConfig(preset="xexp", L=20.0, N=2 ** 12, b=1.0,
                                 times=(0.5, 1.5), eps=(0.2, 0.1)))
    assert seen and all(u.values.tobytes() == kept for u, kept in seen)


@pytest.mark.parametrize("claim", ["thm3", "thm5", "prop2", "thm2"])
def test_no_limit_state_lives_through_the_walk(monkeypatch, claim):
    # A state still bound would keep its branches and profile alive next
    # to the walk's own arrays.
    states = []
    real = harness.comp_state_evolve

    def watched_state(*args):
        state = real(*args)
        states.append(weakref.ref(state))
        return state

    monkeypatch.setattr(harness, "comp_state_evolve", watched_state)

    def check(u):
        assert states and all(ref() is None for ref in states)

    _watched_ladder(monkeypatch, check)
    run_claim(claim, SweepConfig(preset="xexp", L=20.0, N=2 ** 12, b=1.0,
                                 times=(0.5, 1.5), eps=(0.2, 0.1)))


def test_divergence_probe_refusals():
    with pytest.raises(ValidationError):
        divergence_probe(SweepConfig(preset="xexp", L=20.0, N=2 ** 12, b=-1.0,
                                     times=(1.5,), eps=(0.2,)))
    # negligible absorbed mass this early
    with pytest.raises(ValidationError):
        divergence_probe(SweepConfig(preset="xexp", L=20.0, N=2 ** 12, b=1.0,
                                     times=(0.05,), eps=(0.2,)))
    # last rung of the halving ladder falls below resolution
    with pytest.raises(ResolutionError):
        divergence_probe(SweepConfig(preset="xexp", L=20.0, N=2 ** 10, b=1.0,
                                     times=(1.5,), eps=(0.1,)))


def test_evaluate_checks_kinds():
    recs = [
        ConvergenceRecord("p", 1.0, 1.0, 0.2, "m", 0.4),
        ConvergenceRecord("p", 1.0, 1.0, 0.1, "m", 0.1),
    ]
    v = evaluate_checks(recs, (Check("decreasing", "m"),
                               Check("final_le", "m", 0.2),
                               Check("halved", "m", 0.5)))
    assert all(c["pass"] for c in v["checks"])
    assert v["all_pass"]
    v2 = evaluate_checks(recs, (Check("final_le", "m", 0.05),))
    assert not v2["all_pass"]
    # single rung cannot demonstrate decrease
    v3 = evaluate_checks(recs[:1], (Check("decreasing", "m"),))
    assert not v3["all_pass"]
    # a check over a missing metric never passes
    v4 = evaluate_checks(recs, (Check("decreasing", "absent"),))
    assert not v4["all_pass"]
    with pytest.raises(ValidationError):
        evaluate_checks(recs, (Check("sideways", "m"),))


def test_evaluate_checks_probe_rules_failing():
    recs = [
        ConvergenceRecord("p", 1.0, 1.5, 0.2, "probe_gap_sq", 0.25),
        ConvergenceRecord("p", 1.0, 1.5, 0.2, "probe_expectation", 0.0625),
        ConvergenceRecord("p", 1.0, 1.5, 0.1, "probe_gap_sq", 0.5),
        ConvergenceRecord("p", 1.0, 1.5, 0.1, "probe_expectation", 0.0),
        ConvergenceRecord("p", 1.0, 1.5, 0.2, "probe_one_minus_alpha", 0.25),
        ConvergenceRecord("p", 1.0, 1.5, 0.2, "probe_peak_to_peak", 0.0625),
    ]
    v = evaluate_checks(recs, claim_checks("thm2"))
    assert v == {
        "n_records": 6,
        "all_pass": False,
        "checks": [
            {
                "name": "probe_contrast:probe_expectation",
                "kind": "probe_contrast",
                "metric": "probe_expectation",
                "bound": 0.5,
                "pass": False,
                "detail": [{"peak_to_peak": 0.0625, "target": 0.125, "pass": False}],
            },
            {
                "name": "within:probe_gap_sq",
                "kind": "within",
                "metric": "probe_gap_sq",
                "bound": 0.05,
                "pass": False,
                "detail": [
                    {"epsilon": 0.2, "value": 0.25, "pass": True},
                    {"epsilon": 0.1, "value": 0.5, "pass": False},
                ],
            },
        ],
    }
    json.dumps(v)


def test_claim_checks_table():
    assert {c.kind for c in claim_checks("thm1")} == {"decreasing", "halved"}
    assert any(c.metric == "strong_gap" for c in claim_checks("prop2", b=-1.0))
    assert any(c.metric == "stall_defect" for c in claim_checks("prop2", b=1.0))
    for claim in ("thm9", ["thm1"], 5):
        with pytest.raises(ValidationError, match="unknown claim"):
            claim_checks(claim)


def test_run_claim_dispatch():
    cfg = SweepConfig(preset="xexp", L=20.0, N=2 ** 12, b=1.0,
                      times=(1.5,), eps=(0.3, 0.15))
    recs, checks = run_claim("thm5", cfg)
    assert {r.metric for r in recs} == {"gap[indicator]", "gap[sigmoid]"}
    recs3, _ = run_claim("thm3", cfg)
    assert {r.metric for r in recs3} == {"gap[projector]"}
    recsw, checksw = run_claim("weak", cfg, g_name="bump23")
    assert {r.metric for r in recsw} == {"weak[bump23]"}
    assert checksw[0].metric == "weak[bump23]"
    # An unknown claim is refused first, then a test vector named for a
    # claim that has none.
    for claim in ("thm9", ["thm1"]):
        for g in (None, WEAK_G):
            with pytest.raises(ValidationError, match="unknown claim"):
                run_claim(claim, cfg, g_name=g)
    for claim in set(CLAIMS) - {"weak"}:
        with pytest.raises(ValidationError, match=f"claim '{claim}' takes none"):
            run_claim(claim, cfg, g_name=WEAK_G)


def test_run_claim_reaches_sweeps_by_module_attribute(monkeypatch):
    # Tracing and patching rebind these module attributes; the claim
    # table must look them up at call time, not hold the originals.
    import halfline.harness as harness

    reached = []
    names = ("sweep_theorem1", "sweep_weak_decay", "sweep_expectations",
             "sweep_prop2", "divergence_probe")
    for name in names:
        monkeypatch.setattr(
            harness, name, lambda *a, name=name, **k: reached.append(name) or []
        )
    cfg = SweepConfig(preset="xexp", L=20.0, N=2 ** 12, b=1.0,
                      times=(1.5,), eps=(0.3, 0.15))
    for claim in CLAIMS:
        recs, _ = run_claim(claim, cfg)
        assert recs == []
    assert reached == ["sweep_theorem1", "sweep_weak_decay", "sweep_expectations",
                       "sweep_expectations", "sweep_prop2", "divergence_probe"]


def test_emit_report_golden_csv(tmp_path):
    # Two interleaved t groups of m, and a group of z with a row after a zero.
    rows = [(0.5, 0.2, "m", 0.5), (1.0, 0.2, "m", 3.0), (1.0, 0.2, "z", 1.0),
            (0.5, 0.1, "m", 0.125), (1.0, 0.1, "m", 1.5), (1.0, 0.1, "z", 0.0),
            (1.0, 0.05, "z", 2.0)]
    recs = [ConvergenceRecord("xexp", 1.0, *row) for row in rows]
    csv = tmp_path / "r.csv"
    js = tmp_path / "r.json"
    verdicts = emit_report(recs, csv, js, (Check("decreasing", "m"),))
    text = csv.read_text()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == (
        "xexp,1.0000000000000000e+00,5.0000000000000000e-01,"
        "2.0000000000000001e-01,m,5.0000000000000000e-01,"
    )
    # Empty on a group's first row and after a zero, value / prev otherwise.
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == [
        "", "", "", "2.5000000000000000e-01", "5.0000000000000000e-01",
        "0.0000000000000000e+00", "",
    ]
    assert verdicts["all_pass"]
    parsed = json.loads(js.read_text())
    assert parsed["all_pass"] is True
    assert parsed["n_records"] == 7


@pytest.mark.parametrize("claim", CLAIMS)
def test_emit_report_deterministic(tmp_path, claim):
    cfg = SweepConfig(preset="xexp", L=20.0, N=2 ** 12, b=1.0,
                      times=(0.5,), eps=(0.3, 0.15))
    out = []
    for tag in ("a", "b"):
        recs, checks = run_claim(claim, cfg)
        csv = tmp_path / f"{tag}.csv"
        js = tmp_path / f"{tag}.json"
        emit_report(recs, csv, js, checks)
        out.append((csv.read_bytes(), js.read_bytes()))
    assert out[0] == out[1]
