"""Acceptance gate: one test per release criterion, each printing a
PASS/REPORT line.  Criterion 7 is a dataset-dependent directional check
run on a synthetic stand-in fleet and reported without gating.
"""

import json
import math
import shutil

import numpy as np
import pytest

import cell_twin as ct
from cell_twin.cli import main as cli_main
from cell_twin.evaluation import CALIBRATION_LEVELS, calibration_curve
from cell_twin.model import _LN10, eol_cycles
from cell_twin.prognosis import EolDistribution
from cell_twin.synth import synth_fleet_csv
from conftest import normal, power_law_trace


def report(line):
    print(f"\n{line}")


class TestCriterion1UtilityConstants:
    def test_throughput_constants(self):
        u = ct.make_exp_utility(300, 1000, 200)
        assert u.sigma_coef == pytest.approx(1.0311, abs=5e-4)
        assert u.tau_coef == pytest.approx(4.6212, abs=5e-4)
        report(f"PASS 1a: Ah utility sigma={u.sigma_coef:.6f} tau={u.tau_coef:.6f}")

    def test_mtbc_constants(self):
        u = ct.make_exp_utility(0.21, 0.25, 0.015)
        assert u.sigma_coef == pytest.approx(1.0746, abs=5e-4)
        assert u.tau_coef == pytest.approx(1.2924e6, rel=1e-3)
        report(f"PASS 1b: MTBC utility sigma={u.sigma_coef:.6f} tau={u.tau_coef:.1f}")


class TestCriterion2BoundaryExactness:
    def test_case_study_and_random_triples(self):
        cases = [(300.0, 1000.0, 200.0), (0.21, 0.25, 0.015)]
        rng = np.random.default_rng(101)
        for _ in range(100):
            l = rng.uniform(-5, 5)
            cases.append((l, l + rng.uniform(0.1, 10), rng.uniform(0.05, 10)))
        for l, h, r in cases:
            u = ct.make_exp_utility(l, h, r)
            assert abs(u.value(l)) < 1e-9
            assert abs(u.value(h) - 1.0) < 1e-9
        report(f"PASS 2: phi(L)=0, phi(H)=1 to 1e-9 on {len(cases)} utilities")


class TestCriterion3AnalyticEol:
    def test_round_trip_and_median_eol(self):
        rng = np.random.default_rng(103)
        for _ in range(1000):
            a, b = 10 ** rng.uniform(-20, -3), rng.uniform(0.5, 8)
            t = rng.uniform(0.05, 0.95)
            k_star = eol_cycles(math.log(a), b, t)
            assert 1.0 - a * k_star ** b == pytest.approx(t, abs=1e-9)
        med_eol = eol_cycles(_LN10 * -15.77, 5.45, 0.5)
        assert med_eol == pytest.approx(689, abs=1)
        report(f"PASS 3: 1000 round trips exact; median-parameter EOL {med_eol:.2f}")


class TestCriterion4FilterConvergence:
    def test_projected_eol_within_10pct(self):
        true_eol = eol_cycles(_LN10 * -15.77, 5.45, 0.5)
        hits = 0
        for seed in range(50):
            trace = power_law_trace(-15.77, 5.45, n_cycles=500, noise_std=0.01, seed=7000 + seed)
            cfg = ct.FilterConfig(n_particles=1000, seed=seed)
            ens = ct.init(cfg)
            ct.assimilate(ens, trace, 500, cfg.noise)
            proj = ct.project(ens, 500, 0.5)
            med = EolDistribution(proj.per_particle_eol, proj.eol_weights).quantile(0.5)
            hits += abs(med - true_eol) / true_eol < 0.10
        assert hits >= 45
        report(f"PASS 4: projected EOL within 10% of truth in {hits}/50 seeded runs")


class TestCriterion5OfflineFit:
    def test_noise_free_exact(self):
        for la, b in [(-12.0, 4.0), (-15.77, 5.45), (-9.0, 2.5)]:
            n = int(eol_cycles(_LN10 * la, b, 0.5))
            fit_la, fit_b, _ = ct.calib.fit_power_law(power_law_trace(la, b, n_cycles=n))
            assert fit_la == pytest.approx(la, abs=1e-9)
            assert fit_b == pytest.approx(b, abs=1e-9)
        report("PASS 5a: noise-free fits exact to 1e-9")

    def test_noisy_within_band(self):
        hits = 0
        for seed in range(50):
            trace = power_law_trace(-15.77, 5.45, n_cycles=800, noise_std=0.01, seed=seed)
            _, b, _ = ct.calib.fit_power_law(trace)
            hits += abs(b - 5.45) <= 0.2
        assert hits == 50
        report(f"PASS 5b: b within +/-0.2 under 1% noise in {hits}/50 seeds")


class TestCriterion6RetirementBruteForce:
    def test_randomized_small_instances(self):
        from cell_twin.filtering import ParticleEnsemble

        rng = np.random.default_rng(107)
        for trial in range(20):
            n_meas = int(rng.integers(120, 200))
            ks = np.arange(1, n_meas + 1)
            q = 1.0 - rng.uniform(1e-3, 3e-3) * (ks - 1)
            trace = ct.NormalizedTrace(f"t{trial}", ks, q, 1.1)
            ens = ParticleEnsemble(
                log10_a=rng.uniform(-16.5, -15.0, 5),
                b=np.abs(rng.normal(5.45, 0.3, 5)),
                weights=np.full(5, 0.2),
                last_cycle=n_meas,
                rng=np.random.default_rng(trial),
            )
            ah_scale = float(np.sum(q) * 1.1)
            specs = [
                ct.AttributeSpec("ah", ct.make_exp_utility(0.5 * ah_scale, 2.0 * ah_scale, ah_scale), ct.utility.Attribute.TOTAL_AH, 0.5),
                ct.AttributeSpec("mtbc", ct.make_exp_utility(0.21, 0.25, 0.015), ct.utility.Attribute.MEAN_TIME_BETWEEN_CHARGES, 0.5),
            ]
            proj = ct.project(ens, n_meas, 0.5)
            cands, _ = ct.candidate_cycles(n_meas, proj, 0.5)
            if len(cands) > 50:  # keep instances small: shrink via floor
                continue
            decision = ct.optimize_retirement(
                trace, ens, specs, n_meas, trigger_threshold=float(q[-1]) + 1e-9, proj=proj
            )
            # independent exhaustive oracle, earliest-tie rule: measured q before n_meas, projected median from it on
            hybrid = np.concatenate([q[:n_meas - 1], proj.median_q])
            best_c, best_u = None, -np.inf
            for x in decision.candidates:
                ah = float(np.sum(hybrid[:x]) * 1.1)
                lam = 0.5 * specs[0].utility.value(ah) + 0.5 * specs[1].utility.value(hybrid[x - 1] / 4.0)
                if lam > best_u:
                    best_c, best_u = int(x), lam
            assert decision.optimal_cycle == best_c
            assert decision.optimal_utility == pytest.approx(best_u)
        report("PASS 6: optimizer matches exhaustive oracle on randomized instances")


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    root = tmp_path_factory.mktemp("fleet")
    csv_path = root / "fleet.csv"
    synth_fleet_csv(csv_path, n_train=30, n_test1=15, n_test2=15, seed=11)
    cfg = {
        "dataset": str(csv_path),
        "output_dir": str(root / "out"),
        "seed": 3,
        "filter": {"n_particles": 400},
        "schedule": {"stride": 200},
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["ingest", "--config", str(cfg_path)]) == 0
    assert cli_main(["calibrate", "--config", str(cfg_path)]) == 0
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 0
    assert cli_main(["evaluate", "--config", str(cfg_path)]) == 0
    return root / "out"


class TestCriterion7CaseStudyDirectional:
    """Dataset-dependent soft checks, run on a synthetic stand-in fleet
    (the source cycling dataset is not redistributable here); reported,
    not gated."""

    def test_7a_fleet_medians(self, fleet):
        fit = json.loads((fleet / "fleet_fit.json").read_text())
        da = fit["median_log10_a"] - (-15.77)
        db = fit["median_b"] - 5.45
        ok = abs(da) <= 0.5 and abs(db) <= 0.5
        report(
            f"REPORT 7a ({'ok' if ok else 'off'}): fleet medians log10_a={fit['median_log10_a']:.3f} "
            f"(target -15.77), b={fit['median_b']:.3f} (target 5.45)"
        )

    def test_7b_ah_percentiles(self, fleet):
        fit = json.loads((fleet / "fleet_fit.json").read_text())
        p5, p95 = fit["ah_percentiles"]["5"], fit["ah_percentiles"]["95"]
        ok = abs(p5 - 300) / 300 <= 0.15 and abs(p95 - 1000) / 1000 <= 0.15
        report(f"REPORT 7b ({'ok' if ok else 'off'}): train Ah p5={p5:.0f} (target 300), p95={p95:.0f} (target 1000)")

    def test_7c_long_lived_underestimated(self, fleet):
        neg, total = 0, 0
        for f in (fleet / "metrics").glob("rul_errors_*.csv"):
            rows = np.loadtxt(f, delimiter=",", skiprows=1, ndmin=2)
            first = rows[0]
            true_eol = first[0] + first[1]
            if true_eol > 2000:
                total += 1
                neg += first[3] < 0
        ok = total == 0 or neg / total > 0.5
        report(f"REPORT 7c ({'ok' if ok else 'off'}): first-prediction RUL error negative for {neg}/{total} cells with lifetime > 2000")

    def test_7d_saturated_ah_retires_earliest(self, fleet, tmp_path):
        # longest-lived test cell with the published bounds: Ah utility
        # saturates, optimum collapses to the current cycle
        traces = {}
        for p in (fleet / "cells").glob("*.json"):
            d = json.loads(p.read_text())
            if not d["cell_id"].startswith("train"):
                traces[d["cell_id"]] = ct.NormalizedTrace.from_json_dict(d)
        cell_id, trace = max(traces.items(), key=lambda kv: kv[1].cycles[-1])
        current = ct.trigger_cycle(trace, 0.95)
        fcfg = ct.FilterConfig(n_particles=400, seed=5)
        ens = ct.init(fcfg)
        ct.assimilate(ens, trace, current, fcfg.noise)
        decision = ct.optimize_retirement(trace, ens, ct.default_attribute_specs(), current)
        saturated = bool(np.all(decision.phi["total_ah"] > 1 - 1e-9))
        ok = (not saturated) or decision.optimal_cycle == current
        report(
            f"REPORT 7d ({'ok' if ok else 'off'}): cell {cell_id} Ah-saturated={saturated}, "
            f"optimal={decision.optimal_cycle}, current={current}"
        )


class TestCriterion8CalibrationOracle:
    def test_calibrated_fleet(self):
        rng = np.random.default_rng(109)
        n = 10000
        mus = rng.normal(700, 100, n)
        sigmas = rng.uniform(20, 80, n)
        dists = [normal(m, s) for m, s in zip(mus, sigmas)]
        obs = rng.normal(mus, sigmas)
        curve = calibration_curve(dists, obs)
        assert curve.levels.tolist() == list(CALIBRATION_LEVELS)
        assert np.all(np.abs(curve.observed - curve.levels) <= 0.02)
        assert curve.area_deviation < 0.03
        report(f"PASS 8a: calibrated oracle max gap {np.max(np.abs(curve.observed - curve.levels)):.4f}, area {curve.area_deviation:.4f}")

    def test_all_at_median(self):
        dists = [normal(0.0, 1.0)] * 100
        curve = calibration_curve(dists, [0.0] * 100)
        assert np.all(curve.observed == 1.0)
        report("PASS 8b: all-at-median fixture gives observed coverage 1 at every level")


class TestCriterion9Determinism:
    def test_pipeline_byte_identical_across_runs_and_workers(self, tmp_path):
        # a full simulate runs its cells on a fork pool, one process per usable CPU, and
        # `--cell` runs serially; a cell simulated alone must write the bytes it writes in a full run
        csv_path = tmp_path / "fleet.csv"
        synth_fleet_csv(csv_path, n_train=5, n_test1=2, n_test2=1, seed=13)

        def config(name):
            out = tmp_path / name
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(
                json.dumps(
                    {
                        "dataset": str(csv_path),
                        "output_dir": str(out),
                        "seed": 21,
                        "filter": {"n_particles": 120},
                        "schedule": {"stride": 200},
                    }
                )
            )
            return cfg_path, out

        def tree(root):
            return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

        def full_run(name):
            cfg_path, out = config(name)
            for cmd in ["ingest", "calibrate", "simulate", "evaluate"]:
                assert cli_main([cmd, "--config", str(cfg_path)]) == 0
            cell = sorted(json.loads((out / "manifest.json").read_text()))[-1]
            assert cli_main(["retire", "--config", str(cfg_path), "--cell", cell]) == 0
            return tree(out)

        a = full_run("a")
        b = full_run("b")
        assert a == b
        cfg_path, prepared = config("c")
        for cmd in ["ingest", "calibrate"]:
            assert cli_main([cmd, "--config", str(cfg_path)]) == 0
        cells = sorted(c for c, s in json.loads((prepared / "manifest.json").read_text()).items() if s != "train")
        for cell in cells:
            out = shutil.copytree(prepared, tmp_path / f"alone_{cell}")
            assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out), "--cell", cell]) == 0
            alone = tree(out / "sim")
            assert alone and alone == {k[len("sim/"):]: v for k, v in a.items() if k.startswith(f"sim/{cell}/")}
        report(
            f"PASS 9: {len(a)} output files byte-identical across reruns; "
            f"{len(cells)} test cells byte-identical simulated alone"
        )
