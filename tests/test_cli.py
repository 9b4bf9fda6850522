import json
from pathlib import Path

import pytest

from cell_twin.cli import main
from cell_twin.synth import synth_fleet_csv


def make_config(tmp_path, out_name="out", **overrides):
    data_csv = tmp_path / "fleet.csv"
    if not data_csv.exists():
        synth_fleet_csv(data_csv, n_train=6, n_test1=2, n_test2=2, seed=7)
    cfg = {
        "dataset": str(data_csv),
        "output_dir": str(tmp_path / out_name),
        "seed": 1,
        "filter": {"n_particles": 150},
        "thresholds": {"trigger": 0.95, "eol": 0.5, "retire_floor": 0.5},
        "schedule": {"stride": 150},
        "workers": 1,
    }
    cfg.update(overrides)
    path = tmp_path / f"config_{out_name}.json"
    path.write_text(json.dumps(cfg))
    return path, Path(cfg["output_dir"])


def run(cmd, cfg_path, *extra):
    return main([cmd, "--config", str(cfg_path), *extra])


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestIngest:
    def test_counts_and_outputs(self, tmp_path, capsys):
        cfg, out = make_config(tmp_path)
        assert run("ingest", cfg) == 0
        assert "ingested 10 cells" in capsys.readouterr().out
        assert len(list((out / "cells").glob("*.json"))) == 10
        cell = json.loads(next((out / "cells").glob("*.json")).read_text())
        assert set(cell) == {"cell_id", "q0_ah", "extrapolated_from", "cycles", "q"}
        assert cell["extrapolated_from"] is not None

    def test_no_extend(self, tmp_path):
        cfg, out = make_config(tmp_path, out_name="noext")
        assert run("ingest", cfg, "--no-extend") == 0
        for p in (out / "cells").glob("*.json"):
            assert json.loads(p.read_text())["extrapolated_from"] is None

    def test_missing_dataset_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dataset": str(tmp_path / "nope.csv")}))
        assert main(["ingest", "--config", str(path)]) == 2
        assert "nope.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "0"])
    def test_bad_capacity_data_error(self, tmp_path, capsys, bad):
        cfg, out = make_config(tmp_path)
        data = tmp_path / "fleet.csv"
        lines = data.read_text().splitlines()
        row = lines[5].split(",")
        row[3] = bad
        lines[5] = ",".join(row)
        data.write_text("\n".join(lines) + "\n")
        assert run("ingest", cfg) == 3
        assert "capacity must be finite and positive" in capsys.readouterr().err
        assert not (out / "cells").exists()

    def test_flat_tail_data_error(self, tmp_path, capsys):
        cfg, out = make_config(tmp_path)
        data = tmp_path / "fleet.csv"
        lines = data.read_text().splitlines()
        last_cell = lines[-1].split(",")[0]
        for i, line in enumerate(lines):
            row = line.split(",")
            if row[0] == last_cell:
                row[3] = repr(1.0 - 1e-6 * int(row[2]))
                lines[i] = ",".join(row)
        data.write_text("\n".join(lines) + "\n")
        assert run("ingest", cfg) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and last_cell in err[0] and "measured life" in err[0]
        assert not (out / "cells").exists()

    def test_bad_threshold_config_error(self, tmp_path):
        cfg, _ = make_config(tmp_path, out_name="badth", thresholds={"trigger": 1.5})
        assert run("ingest", cfg) == 2

    def test_non_integer_persist_config_error(self, tmp_path):
        cfg, _ = make_config(tmp_path, out_name="badpersist", trigger_persist=2.5)
        assert run("ingest", cfg) == 2


def nan_q(cell):
    cell["q"][3] = float("nan")
    return json.dumps(cell)


class TestCorruptedCellFile:
    @pytest.mark.parametrize(
        "corrupt",
        [
            nan_q,
            lambda cell: json.dumps(cell)[:200],
            lambda cell: json.dumps({k: v for k, v in cell.items() if k != "q"}),
            lambda cell: json.dumps({**cell, "q": cell["q"][:-1]}),
        ],
        ids=["nan_q", "truncated", "missing_q", "short_q"],
    )
    def test_data_error(self, tmp_path, capsys, corrupt):
        cfg, out = make_config(tmp_path)
        run("ingest", cfg)
        cell = sorted(json.loads((out / "manifest.json").read_text()))[-1]
        path = out / "cells" / f"{cell}.json"
        path.write_text(corrupt(json.loads(path.read_text())))
        capsys.readouterr()
        assert run("simulate", cfg, "--cell", cell) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:") and cell in err[0]
        assert not (out / "sim").exists()


class TestCalibrate:
    def test_writes_fleet_fit(self, tmp_path, capsys):
        cfg, out = make_config(tmp_path)
        run("ingest", cfg)
        assert run("calibrate", cfg) == 0
        fit = json.loads((out / "fleet_fit.json").read_text())
        assert "fleet medians" in capsys.readouterr().out
        assert len(fit["per_cell"]) == 6
        assert -17 < fit["median_log10_a"] < -14
        assert 4 < fit["median_b"] < 7

    def test_synthetic_truth_recovered(self, tmp_path):
        from cell_twin.synth import synth_trace
        import csv

        p = tmp_path / "three.csv"
        with open(p, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["cell_id", "split", "cycle", "discharge_capacity_ah", "nominal_capacity_ah"])
            for i, b in enumerate([5.0, 5.45, 6.0]):
                ks, caps = synth_trace(-15.77, b, rise_cycles=0, rise_depth=0.0)
                for k, c in zip(ks, caps):
                    w.writerow([f"c{i}", "train", int(k), repr(float(c)), "1.1"])
        cfg_path = tmp_path / "cfg3.json"
        cfg_path.write_text(json.dumps({"dataset": str(p), "output_dir": str(tmp_path / "o3")}))
        run("ingest", cfg_path)
        assert run("calibrate", cfg_path) == 0
        fit = json.loads((tmp_path / "o3" / "fleet_fit.json").read_text())
        assert fit["median_b"] == pytest.approx(5.45, abs=0.05)
        assert fit["median_log10_a"] == pytest.approx(-15.77, abs=0.3)

    def test_empty_train_split_fails(self, tmp_path):
        cfg, out = make_config(tmp_path, out_name="notrain")
        run("ingest", cfg)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest = {c: "test1" for c in manifest}
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert run("calibrate", cfg) == 3


class TestSimulate:
    def test_outputs_per_schedule(self, tmp_path):
        cfg, out = make_config(tmp_path)
        run("ingest", cfg)
        run("calibrate", cfg)
        cell = sorted(json.loads((out / "manifest.json").read_text()))[-1]
        assert run("simulate", cfg, "--cell", cell) == 0
        sim = out / "sim" / cell
        preds = json.loads((sim / "predictions.json").read_text())
        assert len(list(sim.glob("projection_*.csv"))) == len(preds)
        assert len(list(sim.glob("eol_*.csv"))) == len(preds)
        header = next(sim.glob("projection_*.csv")).read_text().splitlines()[0]
        assert header == "cycle,median_q,q05,q95"

    def test_unknown_cell(self, tmp_path):
        cfg, _ = make_config(tmp_path)
        run("ingest", cfg)
        assert run("simulate", cfg, "--cell", "nope") == 3

    def test_determinism_same_seed(self, tmp_path):
        cfg, out = make_config(tmp_path)
        run("ingest", cfg)
        run("calibrate", cfg)
        cell = sorted(json.loads((out / "manifest.json").read_text()))[-1]
        run("simulate", cfg, "--cell", cell)
        first = tree_bytes(out / "sim")
        run("simulate", cfg, "--cell", cell)
        assert tree_bytes(out / "sim") == first


class TestRetire:
    def test_decision_files(self, tmp_path, capsys):
        cfg, out = make_config(tmp_path)
        run("ingest", cfg)
        run("calibrate", cfg)
        cell = sorted(json.loads((out / "manifest.json").read_text()))[-1]
        assert run("retire", cfg, "--cell", cell) == 0
        dec = json.loads((out / "retire" / cell / "decision.json").read_text())
        curve = (out / "retire" / cell / "utility_curve.csv").read_text().splitlines()
        assert curve[0] == "cycle,utility,phi_total_ah,phi_mtbc,total_ah,mtbc"
        assert dec["current_cycle"] <= dec["optimal_cycle"]
        assert "optimal retirement cycle" in capsys.readouterr().out

    def test_not_triggered_exit(self, tmp_path):
        cfg, out = make_config(tmp_path)
        run("ingest", cfg)
        cell = sorted(json.loads((out / "manifest.json").read_text()))[-1]
        assert run("retire", cfg, "--cell", cell, "--current", "10") == 4


class TestEvaluate:
    def test_metrics_emitted(self, tmp_path, capsys):
        cfg, out = make_config(tmp_path)
        run("ingest", cfg)
        run("calibrate", cfg)
        assert run("simulate", cfg) == 0  # all four test cells
        assert run("evaluate", cfg) == 0
        assert "calibration over" in capsys.readouterr().out
        assert (out / "metrics" / "calibration.csv").exists()
        assert len(list((out / "metrics").glob("rul_errors_*.csv"))) == 4
        cal = (out / "metrics" / "calibration.csv").read_text().splitlines()
        assert cal[0] == "level,observed"

    def test_without_simulate_fails(self, tmp_path):
        cfg, _ = make_config(tmp_path)
        run("ingest", cfg)
        assert run("evaluate", cfg) == 3

    def test_single_cell_warns(self, tmp_path, capsys):
        cfg, out = make_config(tmp_path)
        run("ingest", cfg)
        run("calibrate", cfg)
        cell = sorted(json.loads((out / "manifest.json").read_text()))[-1]
        run("simulate", cfg, "--cell", cell)
        assert run("evaluate", cfg) == 0
        assert "single cell" in capsys.readouterr().out


class TestEndToEndDeterminism:
    def test_full_pipeline_byte_identical(self, tmp_path):
        trees = []
        for name, workers in [("run_a", 1), ("run_b", 4)]:
            cfg, out = make_config(tmp_path, out_name=name, workers=workers)
            for cmd in ["ingest", "calibrate", "simulate"]:
                assert run(cmd, cfg) == 0
            cell = sorted(json.loads((out / "manifest.json").read_text()))[-1]
            assert run("retire", cfg, "--cell", cell) == 0
            assert run("evaluate", cfg) == 0
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1]

    def test_seed_env_var_override(self, tmp_path, monkeypatch):
        cfg, out = make_config(tmp_path, out_name="env")
        run("ingest", cfg)
        cell = sorted(json.loads((out / "manifest.json").read_text()))[-1]
        monkeypatch.setenv("CELL_TWIN_SEED", "99")
        run("simulate", cfg, "--cell", cell)
        env_tree = tree_bytes(out / "sim")
        monkeypatch.delenv("CELL_TWIN_SEED")
        run("simulate", cfg, "--cell", cell, "--seed", "99")
        assert tree_bytes(out / "sim") == env_tree
