"""The three workloads: claim sweeps, engine evolves, limit objects.

A workload is built from a seed, warmed up by `prepare`, then run in
whole rounds.  Each round times every operation on its own and checks
its outputs outside the timed region.  Calls go through attributes of
the `halfline` package looked up at call time, so the tracer's
rebinding sees them.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import halfline as H

import checks

REF_L, REF_N = 40.0, 2 ** 16

# kernel_evolve is an O(N^2) sum without numba, so the engine
# cross-check runs on a reduced grid.  h is 8x the reference h, and
# the chirp gate of the kernel needs eps * t >= 0.124 here.
REDUCED_L, REDUCED_N = 20.0, 2 ** 12


class Workload:
    name = ""

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.rng = random.Random(seed)
        self.out_dir = out_dir
        self.times: dict[str, list[float]] = defaultdict(list)
        self.failures: list[str] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def op(self, key: str, fn):
        """Run one timed operation; a raised error counts as failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as e:  # an operation that fails is counted, not fatal
            self.failed += 1
            self.errors.append(f"{key} raised {type(e).__name__}: {e}")
            return None
        self.times[key].append(time.perf_counter() - t0)
        return result

    def check(self, fails: list[str]) -> None:
        self.failures.extend(fails)

    def prepare(self) -> None:
        raise NotImplementedError

    def run_round(self) -> None:
        raise NotImplementedError

    def final_checks(self) -> None:
        pass

    def metrics(self) -> dict[str, float]:
        raise NotImplementedError


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else float("nan")


THM1 = {"b": 1.0, "times": (0.5, 1.0, 2.0), "eps": (0.2, 0.1, 0.05, 0.025)}
EXPECT = {"b": 1.0, "times": (1.5,), "eps": (0.2, 0.1, 0.05, 0.025)}
PROP2 = {"times": (0.25, 0.5, 1.0), "eps": (0.1, 0.05, 0.025, 0.0125, 0.00625)}

# (metric key, claim, config): the configs of the acceptance gate.
SWEEPS = (
    ("thm1", "thm1", THM1),
    ("weak", "weak", THM1),
    ("thm3", "thm3", EXPECT),
    ("thm5", "thm5", EXPECT),
    ("prop2_inflow", "prop2", dict(PROP2, b=1.0)),
    ("prop2_outflow", "prop2", dict(PROP2, b=-1.0)),
    ("thm2", "thm2", {"b": 1.0, "times": (1.5,), "eps": (0.1,)}),
)


class ClaimSweeps(Workload):
    """The seven acceptance sweeps through run_claim + emit_report, as
    `halfline sweep` runs them.  The configs are fixed; the seed is
    not used."""

    name = "claim-sweeps"

    def prepare(self) -> None:
        g = H.make_grid(REF_L, REF_N)
        phi = H.get_preset("xexp", g)
        H.spectral_evolve(phi, H.EvolutionParams(epsilon=0.2, b=1.0, t=0.5))
        self.first: dict[str, tuple[bytes, bytes]] = {}

    def run_round(self) -> None:
        for key, claim, cfg in SWEEPS:
            d = self.out_dir / key
            d.mkdir(parents=True, exist_ok=True)
            csv_path, json_path = d / f"{claim}.csv", d / f"{claim}.json"

            def sweep(claim=claim, cfg=cfg, csv_path=csv_path, json_path=json_path):
                sc = H.SweepConfig(preset="xexp", L=REF_L, N=REF_N, **cfg)
                records, chk = H.run_claim(claim, sc)
                return H.emit_report(records, csv_path, json_path, chk)

            verdicts = self.op(f"sweep_{key}_s", sweep)
            if verdicts is None:
                continue
            if not verdicts["all_pass"]:
                self.check([f"{key}: emit_report returned a failing verdict"])
            blob = (csv_path.read_bytes(), json_path.read_bytes())
            if key not in self.first:
                self.first[key] = blob
                self.check(checks.check_sweep(
                    claim, dict(cfg, L=REF_L, N=REF_N),
                    blob[0].decode("ascii"), blob[1].decode("ascii")))
            elif blob != self.first[key]:
                self.check([f"{key}: rerun wrote different bytes"])

    def metrics(self) -> dict[str, float]:
        return {f"sweep_{key}_s": _median(self.times[f"sweep_{key}_s"]) for key, _, _ in SWEEPS}


def both_readout(uk, us) -> dict:
    """What `halfline evolve --engine both` prints for two states."""
    gap = H.norm(H.WaveFunction(uk.grid, uk.values - us.values))
    return {"norm_kernel": H.norm(uk), "norm_spectral": H.norm(us),
            "cross_gap": gap, "boundary": abs(H.boundary_value(us))}


class EngineEvolves(Workload):
    """Single evolutions as `halfline evolve` runs them, with its readout.

    Per round the seed draws eps in [0.025, 0.2], |b| in [0.5, 1.5] and
    t in [0.5, 2] for spectral and asymptotic on the reference grid,
    both drift signs, and eps in [0.125, 0.2], t in [1, 1.25] at b = 1
    for `--engine both` on the reduced grid.  All draws are admissible
    and keep the gap under 4.5e-4.  Once per run a gauged sine mode,
    k in [1, 256], is evolved and compared with its exact phase.
    """

    name = "engine-evolves"

    def prepare(self) -> None:
        self.grid = H.make_grid(REF_L, REF_N)
        self.phi = H.get_preset("xexp", self.grid)
        self.grid_r = H.make_grid(REDUCED_L, REDUCED_N)
        self.phi_r = H.get_preset("xexp", self.grid_r)
        p = H.EvolutionParams(epsilon=0.1, b=1.0, t=1.0)
        H.spectral_evolve(self.phi, p)
        H.asymptotic_evolve(self.phi, p)
        self.closed_form = H.preset_function("xexp")
        r = self.rng
        self.sine_draw = (r.randint(1, 256), r.uniform(0.025, 0.2), r.uniform(0.5, 1.5), r.uniform(0.5, 2.0))

    def _readout(self, u) -> dict:
        return {"norm": H.norm(u), "boundary": abs(H.boundary_value(u)),
                "peak": float(np.max(np.abs(u.values)))}

    def single(self, engine: str, p):
        """`halfline evolve --engine spectral|asymptotic`: state and readout."""
        run = H.spectral_evolve if engine == "spectral" else H.asymptotic_evolve
        u = run(self.phi, p)
        return u, self._readout(u)

    def run_round(self) -> None:
        r = self.rng
        eps, b, t = r.uniform(0.025, 0.2), r.uniform(0.5, 1.5), r.uniform(0.5, 2.0)
        for sign in (1.0, -1.0):
            for engine in ("spectral", "asymptotic"):
                def call(engine=engine, sign=sign):
                    return self.single(engine, H.EvolutionParams(epsilon=eps, b=sign * b, t=t))
                out = self.op(f"evolve_{engine}_s", call)
                if out is None:
                    continue
                u, readout = out
                label = f"{engine} eps={eps} b={sign * b} t={t}"
                if engine == "spectral":
                    self.check(checks.check_spectral(readout, label))
                else:
                    self.check(checks.check_asymptotic(u.values, self.closed_form, REF_L, eps, sign * b, t))
        ke, kt = r.uniform(0.125, 0.2), r.uniform(1.0, 1.25)

        def both():
            p = H.EvolutionParams(epsilon=ke, b=1.0, t=kt)
            return both_readout(H.kernel_evolve(self.phi_r, p), H.spectral_evolve(self.phi_r, p))
        readout = self.op("evolve_both_s", both)
        if readout is not None:
            self.check(checks.check_both(readout, f"both eps={ke} t={kt}"))

    def final_checks(self) -> None:
        k, eps, b, t = self.sine_draw
        init = checks.sine_mode(REF_L, REF_N, k, eps, b)
        u = H.spectral_evolve(H.WaveFunction(self.grid, init), H.EvolutionParams(epsilon=eps, b=b, t=t))
        self.check(checks.check_sine_mode(u.values, init, REF_L, k, eps, b, t))

    def metrics(self) -> dict[str, float]:
        return {key: _median(self.times[key])
                for key in ("evolve_spectral_s", "evolve_asymptotic_s", "evolve_both_s")}


LIMIT_PRESETS = ("xexp", "bump12", "bump23")


class LimitObjects(Workload):
    """The `halfline limit` computations over a table of presets x drifts
    x times on the reference grid, plus a double reflection and the
    state composition check per entry.  No evolution at all.

    The seed jitters the drifts 0.5 and 2 and the times 0.4, 1.2 and
    2.2 by up to 3 %, and draws tau in [0.1, 1].  The nominal products
    b t sit away from the points where an arch or xexp loses its last
    mass, so the same entries take the short path for every seed.
    """

    name = "limit-objects"

    def prepare(self) -> None:
        r = self.rng
        self.grid = H.make_grid(REF_L, REF_N)
        self.presets = {n: H.get_preset(n, self.grid) for n in LIMIT_PRESETS}
        drifts = (0.5 * r.uniform(0.97, 1.03), 1.0, 2.0 * r.uniform(0.97, 1.03))
        times = tuple(t * r.uniform(0.97, 1.03) for t in (0.4, 1.2, 2.2))
        self.table = [(n, b, t, r.uniform(0.1, 1.0))
                      for n in LIMIT_PRESETS for b in drifts for t in times]
        H.kraus_apply(self.presets["xexp"], 1.0, 1.0)

    def entry(self, name: str, b: float, t: float, tau: float) -> dict:
        phi = self.presets[name]
        ks = H.kraus_apply(phi, b, t)
        st = H.comp_state_evolve(phi, b, t)
        wp = H.wold_projectors(self.grid, b, t)
        return {
            "p_shift": ks.p_shift, "p_reflect": ks.p_reflect,
            "completeness_defect": ks.completeness_defect,
            "alpha": st.alpha, "singular_weight": st.singular_weight,
            "destruction_time": H.destruction_time(phi, b),
            "wold_upper": H.norm(wp.upper(phi)) ** 2,
            "wold_lower": H.norm(wp.lower(phi)) ** 2,
            "double_reflection": H.reflect_W(H.reflect_W(phi, b, t), b, t),
            "composition_defect": H.comp_semigroup_check(phi, b, t, tau),
        }

    def run_round(self) -> None:
        h = self.grid.h
        for name, b, t, tau in self.table:
            out = self.op("limit_entry", lambda: self.entry(name, b, t, tau))
            if out is None:
                continue
            phi = self.presets[name].values
            band = np.where(self.grid.x <= b * t, phi, 0.0)
            diff = out.pop("double_reflection").values - band
            out["double_reflection_defect"] = float(np.sqrt(h * np.sum(np.abs(diff) ** 2)))
            self.check(checks.check_limit_entry(name, b, t, out, h))

    def metrics(self) -> dict[str, float]:
        ts = self.times["limit_entry"]
        return {"limit_evals_per_s": len(ts) / sum(ts) if ts else float("nan")}


WORKLOADS = {w.name: w for w in (ClaimSweeps, EngineEvolves, LimitObjects)}
