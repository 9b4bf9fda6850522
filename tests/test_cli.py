import contextlib
import io
import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cell_twin
from cell_twin import cli, filtering, prognosis
from cell_twin.cli import (
    RunConfig, cell_seed, decoded, load_config, load_traces, main, prediction_columns, with_fleet_fit, write_csv,
    write_dir,
)
from cell_twin.errors import CellTwinError, ConfigError, DataError
from cell_twin.prognosis import project
from cell_twin.synth import synth_fleet_csv
from conftest import rise_then_fade_trace
from test_retirement import reference_scan


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
    }
    cfg.update(overrides)
    path = tmp_path / f"config_{out_name}.json"
    path.write_text(json.dumps(cfg))
    return path, Path(cfg["output_dir"])


def run(cmd, cfg_path, *extra):
    return main([cmd, "--config", str(cfg_path), *extra])


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def sim_files(sim: Path) -> list[str]:
    """The file names simulate writes in `sim`, by the cycles of its `predictions.json`."""
    cycles = [p["at_cycle"] for p in json.loads((sim / "predictions.json").read_text())]
    per_cycle = [f"{kind}_{k:06d}.csv" for k in cycles for kind in ("eol", "projection")]
    return sorted(["ensemble.json", "predictions.json", *per_cycle])


class TestIngest:
    def test_counts_and_outputs(self, tmp_path, capsys):
        cfg, out = make_config(tmp_path)
        assert run("ingest", cfg) == 0
        assert "ingested 10 cells" in capsys.readouterr().out
        assert len(list((out / "cells").glob("*.json"))) == 10
        cell = json.loads(next((out / "cells").glob("*.json")).read_text())
        assert set(cell) == {"cell_id", "q0_ah", "extrapolated_from", "cycles", "q"}
        assert cell["extrapolated_from"] is not None

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

    def test_unknown_keys_named_sorted(self, tmp_path, capsys):
        cfg, _ = make_config(tmp_path, zeta=1, alpha=2)
        assert run("ingest", cfg) == 2
        assert capsys.readouterr().err == "config error: unknown config keys: alpha, zeta\n"

    def test_workers_key_still_accepted(self, tmp_path):
        cfg, out = make_config(tmp_path, workers=2)
        assert run("ingest", cfg) == 0
        assert len(list((out / "cells").glob("*.json"))) == 10


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

    @pytest.mark.parametrize("field", [1.5, None, "train_c001"])
    def test_cell_id_field_not_read(self, tmp_path, field):
        # a cell is named by its file, so a retyped or foreign cell_id field changes no trace
        cfg, out = make_config(tmp_path)
        run("ingest", cfg)
        path = out / "cells" / "train_c000.json"
        before = load_traces(load_config(cfg))
        path.write_text(json.dumps({**json.loads(path.read_text()), "cell_id": field}))
        after = load_traces(load_config(cfg))
        assert after["train_c000"][1].to_json_dict() == before["train_c000"][1].to_json_dict()
        assert run("calibrate", cfg) == 0


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
        from cell_twin.model import fade_q
        import csv

        p = tmp_path / "three.csv"
        ks = np.arange(1, 5001)
        with open(p, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["cell_id", "split", "cycle", "discharge_capacity_ah", "nominal_capacity_ah"])
            for i, b in enumerate([5.0, 5.45, 6.0]):
                q = fade_q(math.log(10.0) * -15.77, b, np.log(ks))  # noise- and rise-free, cut at q <= 0.8
                end = int(np.argmax(q <= 0.8)) + 1
                for k, c in zip(ks[:end], q[:end] * 1.1):
                    w.writerow([f"c{i}", "train", int(k), repr(float(c)), "1.1"])
        cfg_path = tmp_path / "cfg3.json"
        cfg_path.write_text(json.dumps({"dataset": str(p), "output_dir": str(tmp_path / "o3")}))
        run("ingest", cfg_path)
        assert run("calibrate", cfg_path) == 0
        fit = json.loads((tmp_path / "o3" / "fleet_fit.json").read_text())
        assert fit["median_b"] == pytest.approx(5.45, abs=0.05)
        assert fit["median_log10_a"] == pytest.approx(-15.77, abs=0.3)

    def test_non_fading_fit_listed_as_failed(self, tmp_path):
        cfg, out = make_config(tmp_path)
        bent = rise_then_fade_trace("train_bent")
        with open(tmp_path / "fleet.csv", "a") as f:
            f.writelines(f"train_bent,train,{k},{float(q) * 1.1!r},1.1\n" for k, q in zip(bent.cycles, bent.q))
        assert run("ingest", cfg) == 0
        assert run("calibrate", cfg) == 0
        fit = json.loads((out / "fleet_fit.json").read_text())
        assert fit["failed_cells"] == ["train_bent"]
        assert len(fit["per_cell"]) == 6

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

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 7.28 TiB", "error: Unable to allocate 7.28 TiB"), ("", "error: MemoryError"),
    ])
    def test_out_of_memory_exit_4(self, tmp_path, capsys, monkeypatch, message, line):
        cfg, out = make_config(tmp_path)
        assert run("ingest", cfg) == 0 and run("calibrate", cfg) == 0
        capsys.readouterr()

        def init(fcfg):
            raise MemoryError(message)

        monkeypatch.setattr(filtering, "init", init)
        assert run("simulate", cfg) == 4
        assert capsys.readouterr().err.splitlines() == [line]
        assert not (out / "sim").exists()

    def test_rerun_at_another_stride_keeps_only_its_files(self, tmp_path):
        cfg, out = make_config(tmp_path, schedule={"stride": 100})
        assert run("ingest", cfg) == 0 and run("calibrate", cfg) == 0 and run("simulate", cfg) == 0
        cfg, _ = make_config(tmp_path, schedule={"stride": 70})
        assert run("simulate", cfg) == 0
        for sim in (out / "sim").iterdir():
            assert sorted(p.name for p in sim.iterdir()) == sim_files(sim)

    def test_failing_cell_writes_nothing(self, tmp_path, capsys, monkeypatch):
        """A cell that fails at its second prediction leaves no `sim/<cell>/`; a cell simulated before
        keeps its directory."""
        cfg, out = make_config(tmp_path, schedule={"stride": 100})
        assert run("ingest", cfg) == 0 and run("calibrate", cfg) == 0
        done, cell = sorted(c for c, s in json.loads((out / "manifest.json").read_text()).items() if s != "train")[:2]
        assert run("simulate", cfg, "--cell", done) == 0
        kept = tree_bytes(out / "sim" / done)
        capsys.readouterr()
        calls = []

        def second_fails(*args, **kwargs):
            calls.append(kwargs["from_cycle"])
            if len(calls) == 2:
                raise CellTwinError("injected")
            return project(*args, **kwargs)

        monkeypatch.setattr(prognosis, "project", second_fails)
        assert main(["simulate", "--config", str(cfg), "--cell", cell]) == 4
        assert len(calls) == 2 and capsys.readouterr().err.splitlines() == ["error: injected"]
        assert not (out / "sim" / cell).exists()
        assert tree_bytes(out / "sim" / done) == kept

    def test_pool_sizes_1_and_2_write_the_same_bytes(self, tmp_path, capsys, monkeypatch):
        cfg, out = make_config(tmp_path)
        assert run("ingest", cfg) == 0 and run("calibrate", cfg) == 0
        runs = []
        for size in (1, 2):
            monkeypatch.setattr(cli, "usable_cpus", lambda: size)
            capsys.readouterr()
            assert run("simulate", cfg) == 0
            runs.append((capsys.readouterr(), tree_bytes(out / "sim")))
            shutil.rmtree(out / "sim")
        assert runs[0] == runs[1] and len(runs[0][1]) > 4

    def test_failure_result_equal_at_pool_sizes_1_and_2(self, tmp_path, capsys, monkeypatch):
        """Every cell is attempted and each one that succeeds is written; the command then exits
        with the code and message of the first failing cell in target order."""
        cfg, out = make_config(tmp_path)
        assert run("ingest", cfg) == 0 and run("calibrate", cfg) == 0
        targets = sorted(c for c, s in json.loads((out / "manifest.json").read_text()).items() if s != "train")
        simulate_cell = cli._simulate_cell

        def fails(cfg, cell_id, trace, schedule):
            if cell_id in targets[1:3]:
                raise (DataError if cell_id == targets[1] else CellTwinError)(f"{cell_id} injected")
            return simulate_cell(cfg, cell_id, trace, schedule)

        monkeypatch.setattr(cli, "_simulate_cell", fails)
        runs = []
        for size in (1, 2):
            monkeypatch.setattr(cli, "usable_cpus", lambda: size)
            capsys.readouterr()
            code = run("simulate", cfg)
            runs.append((code, capsys.readouterr(), tree_bytes(out / "sim")))
            shutil.rmtree(out / "sim")
        assert runs[0] == runs[1]
        code, captured, tree = runs[0]
        assert code == 3 and captured.err.splitlines() == [f"data error: {targets[1]} injected"]
        assert [line.split(":")[0] for line in captured.out.splitlines()] == [targets[0], targets[3]]
        assert sorted({Path(p).parts[0] for p in tree}) == [targets[0], targets[3]]

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method")
    def test_dead_worker_exit_4(self, tmp_path, capsys, monkeypatch):
        cfg, out = make_config(tmp_path)
        assert run("ingest", cfg) == 0 and run("calibrate", cfg) == 0
        parent = os.getpid()
        simulate_cell = cli._simulate_cell

        def dies(cfg, cell_id, trace, schedule):
            if os.getpid() != parent and cell_id == "test1_c001":  # never in the calling process
                os._exit(1)
            return simulate_cell(cfg, cell_id, trace, schedule)

        monkeypatch.setattr(cli, "_simulate_cell", dies)
        monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
        capsys.readouterr()
        assert run("simulate", cfg) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "Traceback" not in err[0]

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
        assert list(dec) == ["optimal_cycle", "optimal_utility", "current_cycle", "truncated_at_horizon"]
        curve = (out / "retire" / cell / "utility_curve.csv").read_text().splitlines()
        assert curve[0] == "cycle,utility,phi_total_ah,phi_mtbc,total_ah,mtbc"
        assert dec["current_cycle"] <= dec["optimal_cycle"]
        assert "optimal retirement cycle" in capsys.readouterr().out
        # the data rows are the scalar reference scan's columns, each float written as its repr
        loaded = with_fleet_fit(load_config(cfg))
        trace = load_traces(loaded)[cell][1]
        fcfg = replace(loaded.filter, seed=cell_seed(loaded.filter.seed, cell))
        ens = filtering.assimilate(filtering.init(fcfg), trace, dec["current_cycle"], fcfg.noise)
        proj = project(ens, dec["current_cycle"], eol_threshold=loaded.eol)
        (cycles, combined, phi, raw), best = reference_scan(
            trace, proj, loaded.utilities, dec["current_cycle"], loaded.retire_floor, 4.0  # retire scores MTBC at 4C
        )
        columns = [cycles, combined, *phi.values(), *raw.values()]
        assert curve[1:] == [",".join(map(repr, row)) for row in zip(*(c.tolist() for c in columns))]
        assert (dec["optimal_cycle"], dec["optimal_utility"]) == best

    def test_not_triggered_exit(self, tmp_path):
        cfg, out = make_config(tmp_path)
        run("ingest", cfg)
        run("calibrate", cfg)
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

    def test_rerun_removes_other_files(self, tmp_path):
        cfg, out = make_config(tmp_path)
        assert run("ingest", cfg) == 0 and run("calibrate", cfg) == 0 and run("simulate", cfg) == 0
        (out / "metrics").mkdir()
        (out / "metrics" / "rul_errors_ghost.csv").write_text("cycle,true_rul,pred_rul,err\n")
        assert run("evaluate", cfg) == 0
        assert not (out / "metrics" / "rul_errors_ghost.csv").exists()
        assert len(list((out / "metrics").iterdir())) == 5  # four test cells and calibration.csv

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
        for name in ["run_a", "run_b"]:
            cfg, out = make_config(tmp_path, out_name=name)
            for cmd in ["ingest", "calibrate", "simulate"]:
                assert run(cmd, cfg) == 0
            cell = sorted(json.loads((out / "manifest.json").read_text()))[-1]
            assert run("retire", cfg, "--cell", cell) == 0
            assert run("evaluate", cfg) == 0
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1]

    def test_config_seed_sets_outputs(self, tmp_path):
        trees = {}
        for name, seed in [("seed_1", 1), ("seed_99", 99), ("seed_99_again", 99)]:
            cfg, out = make_config(tmp_path, out_name=name, seed=seed)
            assert run("ingest", cfg) == 0 and run("calibrate", cfg) == 0
            assert run("simulate", cfg, "--cell", "test1_c000") == 0
            trees[name] = tree_bytes(out / "sim")
        assert trees["seed_1"] != trees["seed_99"]
        assert trees["seed_99"] == trees["seed_99_again"]

    def test_seed_flag_is_a_usage_error(self, tmp_path, capsys):
        cfg, _ = make_config(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            run("simulate", cfg, "--seed", "1")
        assert exit_.value.code == 2 and "--seed" in capsys.readouterr().err


def edit_rows(data: Path, cell_id: str, edit):
    """Rewrite the dataset rows of `cell_id` as `edit(rows)` returns them."""
    lines = data.read_text().splitlines()
    rows = [line for line in lines[1:] if line.startswith(cell_id + ",")]
    others = [line for line in lines[1:] if not line.startswith(cell_id + ",")]
    data.write_text("\n".join([lines[0], *others, *edit(rows)]) + "\n")


def scale_late_row(rows):
    row = rows[200].split(",")
    row[3] = repr(float(row[3]) * 1.3)
    return rows[:200] + [",".join(row)] + rows[201:]


def first_cycle(k: int):
    """A data edit that sets the cycle of a cell's first row to `k`."""
    def edit(rows):
        row = rows[0].split(",")
        row[2] = str(k)
        return [",".join(row), *rows[1:]]
    return edit


def rename_cell(new_id: str):
    """A data edit that renames a cell to `new_id`."""
    return lambda rows: [",".join([new_id, *row.split(",")[1:]]) for row in rows]


def rename_in_manifest(new_id: str):
    """An output edit that renames test1_c000 to `new_id` in manifest.json and cells/."""
    def edit(out: Path):
        manifest = json.loads((out / "manifest.json").read_text())
        manifest[new_id] = manifest.pop("test1_c000")
        (out / "manifest.json").write_text(json.dumps(manifest))
        (out / "cells" / "test1_c000.json").rename(out / "cells" / f"{new_id}.json")
    return edit


def cut_to(path: Path, n: int):
    path.write_text(path.read_text()[:n])


def truncate(pattern: str, at_line: bool = False):
    """An output edit that cuts the first file matching `pattern` to about half its length,
    at a line end if `at_line` (the rest still parses)."""
    def edit(out: Path):
        path = sorted(out.glob(pattern))[0]
        text = path.read_text()
        cut_to(path, text.rindex("\n", 0, len(text) // 2) + 1 if at_line else len(text) // 2)
    return edit


def edit_predictions(edit):
    """An output edit that rewrites test1_c000's list of predictions as `edit(predictions)`."""
    def apply(out: Path):
        path = out / "sim" / "test1_c000" / "predictions.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return apply


def set_prediction(key, value):
    """An output edit that sets `key` of test1_c000's first prediction to `value`."""
    return edit_predictions(lambda preds: [{**preds[0], key: value}, *preds[1:]])


def set_key(name, key, value):
    """An output edit that sets `key` of the JSON object in the output file `name` to `value`."""
    def edit(out: Path):
        path = out / name
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
    return edit


def negative_eol_weight(out: Path):
    path = sorted(out.glob("sim/test1_c000/eol_*.csv"))[0]
    path.write_text("eol_cycle,weight\n100.0,-0.5\n200.0,1.5\n")


SPEC = {"name": "total_ah", "l_u": 300.0, "h_u": 1000.0, "r": 200.0, "extractor": "total_ah"}


def delete(pattern: str):
    """An output edit that deletes the first file matching `pattern`."""
    return lambda out: sorted(out.glob(pattern))[0].unlink()


def set_cell_list(key, edit):
    """An output edit that sets the list `key` of cells/train_c000.json to `edit(list)`."""
    def apply(out: Path):
        path = out / "cells" / "train_c000.json"
        cell = json.loads(path.read_text())
        path.write_text(json.dumps({**cell, key: edit(cell[key])}))
    return apply


# every cell of make_config's fleet has q(1) in [0.978, 0.987], so this trigger starts its predictions at cycle 1
FROM_CYCLE_1 = {"thresholds": {"trigger": 0.99}}

# a 200-particle prior narrow in b, projected from cycle 1
NARROW_FROM_CYCLE_1 = {"filter": {"n_particles": 200, "init_spread_b": 0.05}, **FROM_CYCLE_1}


# (command, config overrides, dataset edit, edit of earlier outputs, exit code, stderr must name)
BAD_INPUTS = {
    "stride_0": ("simulate", {"schedule": {"stride": 0}}, None, None, 2, "schedule.stride"),
    # fixed settings, not config keys, each at its fixed value (window 100, 30-point tail to 0.5, first crossing,
    # 4C); `schedule.cycles` (predict at listed cycles) has no such value, so it takes a valid list
    "key_normalize_window": (
        "ingest", {"normalize_window": 100}, None, None, 2, "unknown config keys: normalize_window"
    ),
    "key_trigger_persist": ("ingest", {"trigger_persist": 1}, None, None, 2, "unknown config keys: trigger_persist"),
    "key_discharge_rate_c": (
        "ingest", {"discharge_rate_c": 4.0}, None, None, 2, "unknown config keys: discharge_rate_c"
    ),
    "key_extend_tail": ("ingest", {"extend": {"tail": 30}}, None, None, 2, "unknown config keys: extend"),
    "key_extend_floor": ("ingest", {"extend": {"floor": 0.5}}, None, None, 2, "unknown config keys: extend"),
    "key_schedule_cycles": (
        "ingest", {"schedule": {"cycles": [100, 200]}}, None, None, 2, "unknown config keys: schedule.cycles"
    ),
    # the prior centres are calibrate's fleet medians, read from fleet_fit.json as stored
    "key_init_b": ("simulate", {"filter": {"init_b": 5.45}}, None, None, 2, "unknown config keys: filter.init_b"),
    "key_init_log10_a": (
        "simulate", {"filter": {"init_log10_a": -15.77}}, None, None, 2, "unknown config keys: filter.init_log10_a"
    ),
    "fit_missing_simulate": ("simulate", {}, None, delete("fleet_fit.json"), 3, "fleet_fit.json: missing"),
    "fit_missing_retire": ("retire", {}, None, delete("fleet_fit.json"), 3, "fleet_fit.json: missing"),
    "fit_b_negative": ("simulate", {}, None, set_key("fleet_fit.json", "median_b", -5.0), 3, "fleet_fit.json"),
    "fit_median_b_true": ("simulate", {}, None, set_key("fleet_fit.json", "median_b", True), 3, "fleet_fit.json"),
    "fit_median_log10_a_str": (
        "simulate", {}, None, set_key("fleet_fit.json", "median_log10_a", "-15.5"), 3, "fleet_fit.json"
    ),
    "horizon_unbounded": (
        "simulate", {"filter": {"n_particles": 150}, **FROM_CYCLE_1},
        None, set_key("fleet_fit.json", "median_b", 0.3), 4, "cycle 1",
    ),
    "horizon_3e17": ("simulate", NARROW_FROM_CYCLE_1, None, set_key("fleet_fit.json", "median_b", 1.0), 4, "cycle 1"),
    "horizon_5e7": ("simulate", NARROW_FROM_CYCLE_1, None, set_key("fleet_fit.json", "median_b", 2.2), 4, "cycle 1"),
    "key_normalise_window": ("ingest", {"normalise_window": 0}, None, None, 2, "normalise_window"),
    "key_split_manifest": ("ingest", {"split_manifest": "splits.csv"}, None, None, 2, "split_manifest"),
    "key_thresholds_eoll": ("ingest", {"thresholds": {"eoll": 0.8}}, None, None, 2, "thresholds.eoll"),
    "key_schedule_strides": ("simulate", {"schedule": {"strides": 50}}, None, None, 2, "schedule.strides"),
    "key_extend_tails": ("ingest", {"extend": {"tails": 20}}, None, None, 2, "unknown config keys: extend"),
    "key_utility_risk": (
        "retire", {"utilities": [{**SPEC, "weight": 1.0, "risk": 5.0}]}, None, None, 2, "utilities[0].risk"
    ),
    "thresholds_list": ("ingest", {"thresholds": ["eol"]}, None, None, 2, "thresholds must be an object"),
    # ingest extends each trace down to q = 0.5 only, so no trace crosses a lower eol
    "eol_below_floor": ("ingest", {"thresholds": {"eol": 0.45}}, None, None, 2, "thresholds.eol 0.45 is below 0.5"),
    "trigger_below_floor": (
        "ingest", {"thresholds": {"trigger": 0.45}}, None, None, 2, "thresholds.trigger 0.45 is below 0.5"
    ),
    "filter_pairs": ("ingest", {"filter": [["n_particles", 100]]}, None, None, 2, "filter must be an object"),
    "utilities_object": ("ingest", {"utilities": {}}, None, None, 2, "utilities must be a list"),
    "cycles_object": ("ingest", {"schedule": {"cycles": {}}}, None, None, 2, "unknown config keys: schedule.cycles"),
    "sigma_meas_nan": ("ingest", {"filter": {"sigma_meas": float("nan")}}, None, None, 2, "filter.sigma_meas"),
    "sigma_b_inf": ("ingest", {"filter": {"sigma_b": float("inf")}}, None, None, 2, "filter.sigma_b"),
    "sigma_meas_true": ("ingest", {"filter": {"sigma_meas": True}}, None, None, 2, "filter.sigma_meas"),
    "resample_threshold_true": (
        "ingest", {"filter": {"resample_threshold": True}}, None, None, 2, "filter.resample_threshold"
    ),
    "filter_key_misspelt": (
        "ingest", {"filter": {"n_particle": 150}}, None, None, 2, "unknown config keys: filter.n_particle"
    ),
    "filter_seed": ("ingest", {"filter": {"seed": 3}}, None, None, 2, "unknown config keys: filter.seed"),
    "utility_l_u_true": ("ingest", {"utilities": [{**SPEC, "l_u": True, "weight": 1.0}]}, None, None, 2, "l_u"),
    "particles_float": ("simulate", {"filter": {"n_particles": 150.5}}, None, None, 2, "n_particles"),
    "particles_2e63": ("simulate", {"filter": {"n_particles": 2**63}}, None, None, 2, "filter.n_particles"),
    # one below: numpy cannot size an array of 2**63 - 1 float64 values either ("array is too big")
    "particles_2e63_less_1": ("simulate", {"filter": {"n_particles": 2**63 - 1}}, None, None, 2, "filter.n_particles"),
    "sigma_meas_int_10e400": (
        "simulate", {"filter": {"n_particles": 150, "sigma_meas": 10**400}}, None, None, 2, "filter.sigma_meas"
    ),
    "sigma_b_1e308": ("simulate", {"filter": {"n_particles": 150, "sigma_b": 1e308}}, None, None, 4, "vanished"),
    "sigma_log_a_1e308": (
        "simulate", {"filter": {"n_particles": 150, "sigma_log_a": 1e308}}, None, None, 4, "vanished"
    ),
    "cycles_float": (
        "simulate", {"schedule": {"cycles": [100.5, 200]}}, None, None, 2, "unknown config keys: schedule.cycles"
    ),
    "q_above_bound": ("ingest", {}, ("train_c000", scale_late_row), None, 3, "train_c000"),
    "cell_too_short": ("ingest", {}, ("train_c001", lambda rows: rows[:20]), None, 3, "train_c001"),
    "cycle_negative": ("ingest", {}, ("train_c000", first_cycle(-1)), None, 3, "train_c000"),
    "cycle_zero": ("ingest", {}, ("train_c000", first_cycle(0)), None, 3, "train_c000"),
    "cycle_int_10e23": ("ingest", {}, ("train_c000", first_cycle(10**23)), None, 3, "train_c000"),
    "fit_truncated": (
        "simulate", {}, None, lambda out: cut_to(out / "fleet_fit.json", 40), 3, "fleet_fit.json"
    ),
    "extrapolated_from_str": (
        "calibrate", {}, None, set_key("cells/train_c000.json", "extrapolated_from", "x"), 3, "train_c000.json"
    ),
    "extrapolated_from_float": (
        "calibrate", {}, None, set_key("cells/train_c000.json", "extrapolated_from", 1.5), 3, "train_c000.json"
    ),
    # a cells/<id>.json cycle must be a JSON integer: numpy would read 1.5 as 1 and a leading true as 1
    "cells_cycle_float": (
        "calibrate", {}, None, set_cell_list("cycles", lambda ks: [ks[0], 1.5, *ks[2:]]), 3, "train_c000.json"
    ),
    "cells_cycle_true": (
        "calibrate", {}, None, set_cell_list("cycles", lambda ks: [True, *ks[1:]]), 3, "train_c000.json"
    ),
    "cells_cycles_swapped": (
        "calibrate", {}, None, set_cell_list("cycles", lambda ks: [ks[0], ks[2], ks[1], *ks[3:]]), 3, "train_c000.json"
    ),
    # a q item must be a JSON number: numpy would read true as 1.0 and "0.95" as 0.95
    "cells_q_true": (
        "calibrate", {}, None, set_cell_list("q", lambda qs: [qs[0], True, *qs[2:]]), 3, "train_c000.json"
    ),
    "cells_q_str": (
        "calibrate", {}, None, set_cell_list("q", lambda qs: [qs[0], repr(qs[1]), *qs[2:]]), 3, "train_c000.json"
    ),
    "cells_q_int_10e400": (
        "calibrate", {}, None, set_cell_list("q", lambda qs: [qs[0], 10**400, *qs[2:]]), 3, "train_c000.json"
    ),
    "cells_q0_ah_true": ("calibrate", {}, None, set_key("cells/train_c000.json", "q0_ah", True), 3, "train_c000.json"),
    "weight_str": ("retire", {"utilities": [{**SPEC, "weight": "x"}]}, None, None, 2, "weight"),
    "weight_0": ("retire", {"utilities": [{**SPEC, "weight": 0}]}, None, None, 2, "weight"),
    "utility_r_tiny": ("ingest", {"utilities": [{**SPEC, "r": 0.1, "weight": 1.0}]}, None, None, 2, "l_u"),
    "utility_r_huge": ("simulate", {"utilities": [{**SPEC, "r": 1e20, "weight": 1.0}]}, None, None, 2, "l_u"),
    "utility_l_u_int_10e400": (
        "retire", {"utilities": [{**SPEC, "l_u": 10**400, "weight": 1.0}]}, None, None, 2, "l_u"
    ),
    "utility_l_u_nan": (
        "retire", {"utilities": [{**SPEC, "l_u": float("nan"), "weight": 1.0}]}, None, None, 2, "l_u"
    ),
    "utility_name_dup": (
        "retire", {"utilities": [{**SPEC, "weight": 1.0}, {**SPEC, "extractor": "mtbc", "weight": 1.0}]},
        None, None, 2, "utility names",
    ),
    "utility_name_cycle": (
        "retire", {"utilities": [{**SPEC, "name": "cycle", "weight": 1.0}]}, None, None, 2, "utility names"
    ),
    "utility_name_phi_clash": (
        "retire",
        {"utilities": [{**SPEC, "name": "a", "weight": 1.0}, {**SPEC, "name": "phi_a", "weight": 1.0}]},
        None, None, 2, "utility names",
    ),
    "utility_name_comma": (
        "retire", {"utilities": [{**SPEC, "name": "a,b", "weight": 1.0}]}, None, None, 2, "utility names"
    ),
    "utility_name_int": (
        "retire", {"utilities": [{**SPEC, "name": 5, "weight": 1.0}]}, None, None, 2, "utility names"
    ),
    "utility_r_ill_conditioned": (
        "retire", {"utilities": [{**SPEC, "l_u": 0.0, "h_u": 1.0, "r": 1e15, "weight": 1.0}]},
        None, None, 2, "l_u",
    ),
    "sim_dir_stale": ("evaluate", {}, None, lambda out: (out / "sim" / "ghost").mkdir(), 3, "ghost"),
    "predictions_truncated": (
        "evaluate", {}, None, truncate("sim/test1_c000/predictions.json"), 3, "predictions.json"
    ),
    "eol_truncated": ("evaluate", {}, None, truncate("sim/test1_c000/eol_*.csv", at_line=True), 3, "eol_"),
    "eol_negative_weight": ("evaluate", {}, None, negative_eol_weight, 3, "eol_"),
    "predictions_cycle_float": (
        "evaluate", {}, None, set_prediction("at_cycle", 369.5), 3, "predictions.json"
    ),
    "predictions_rul_str": ("evaluate", {}, None, set_prediction("rul_median", "x"), 3, "predictions.json"),
    # evaluate scores at_cycle[0] as the first prediction: the cycles follow the cells/ cycle rule
    "predictions_cycle_repeated": (
        "evaluate", {}, None, edit_predictions(lambda preds: [*preds, preds[0]]), 3, "predictions.json"
    ),
    "predictions_cycles_reversed": (
        "evaluate", {}, None, edit_predictions(lambda preds: preds[::-1]), 3, "predictions.json"
    ),
    "predictions_cycle_true": (
        "evaluate", {}, None, edit_predictions(lambda preds: [preds[0], {**preds[1], "at_cycle": True}, *preds[2:]]),
        3, "predictions.json",
    ),
    # simulate made the predictions at eol 0.5
    "evaluate_eol_differs": ("evaluate", {"thresholds": {"eol": 0.6}}, None, None, 3, "predictions.json"),
    "manifest_missing": ("calibrate", {}, None, delete("manifest.json"), 3, "manifest.json: missing"),
    "predictions_missing": (
        "evaluate", {}, None, delete("sim/test1_c000/predictions.json"), 3, "predictions.json: missing"
    ),
    "eol_missing": ("evaluate", {}, None, delete("sim/test1_c000/eol_*.csv"), 3, ".csv: missing"),
    # a cell id names cells/<id>.json, sim/<id>/ and retire/<id>/, so it must be one path component
    "cell_id_dotdot": ("ingest", {}, ("test1_c000", rename_cell("..")), None, 3, "'..'"),
    "cell_id_dot": ("ingest", {}, ("test1_c000", rename_cell(".")), None, 3, "'.'"),
    "cell_id_empty": ("ingest", {}, ("test1_c000", rename_cell("")), None, 3, "''"),
    "cell_id_up_path": ("ingest", {}, ("test1_c000", rename_cell("../x")), None, 3, "'../x'"),
    "cell_id_backslash": ("ingest", {}, ("test1_c000", rename_cell("a\\b")), None, 3, "'a\\\\b'"),
    "manifest_id_dotdot": ("simulate", {}, None, rename_in_manifest(".."), 3, "'..'"),
    "manifest_id_empty": ("retire", {}, None, rename_in_manifest(""), 3, "''"),
}


def test_cli_import_leaves_scipy_optimize_out():
    """Only calibrate's fit uses scipy, so no other command pays for importing it."""
    env = {**os.environ, "PYTHONPATH": str(Path(cell_twin.__file__).parent.parent)}
    code = "import sys, cell_twin.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


class TestBadInputExit:
    """Every bad config value or data file ends in exit 2, 3 or 4 with one message."""

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_exit_code_and_one_line(self, tmp_path, case):
        command, overrides, data_edit, out_edit, code, names = BAD_INPUTS[case]
        good, out = make_config(tmp_path)
        if command != "ingest":
            assert run("ingest", good) == 0 and run("calibrate", good) == 0
        if command == "evaluate":
            assert run("simulate", good) == 0
        if data_edit is not None:
            edit_rows(tmp_path / "fleet.csv", *data_edit)
        if out_edit is not None:
            out_edit(out)
        cfg, _ = make_config(tmp_path, out_name="out", **overrides)
        before = tree_bytes(tmp_path)
        argv = [command, "--config", str(cfg)] + (["--cell", "test1_c000"] if command == "retire" else [])
        env = {**os.environ, "PYTHONPATH": str(Path(cell_twin.__file__).parent.parent)}
        proc = subprocess.run(
            [sys.executable, "-m", "cell_twin.cli", *argv], env=env, capture_output=True, text=True, timeout=120
        )
        err = proc.stderr.splitlines()
        assert proc.returncode == code, proc.stderr
        assert len(err) == 1 and "Traceback" not in proc.stderr and names in err[0]
        assert err[0].startswith({2: "config error:", 3: "data error:", 4: "error:"}[code])
        if command == "ingest":
            assert not (out / "cells").exists()
        assert tree_bytes(tmp_path) == before  # a failed command writes nothing


@pytest.fixture(scope="module")
def small_fleet_rows(tmp_path_factory):
    """Header and rows of a four-cell synthetic fleet CSV."""
    path = tmp_path_factory.mktemp("fleet") / "fleet.csv"
    synth_fleet_csv(path, n_train=2, n_test1=1, n_test2=1, seed=7)
    header, *rows = path.read_text().splitlines()
    return header, rows


CSV_TAIL = 30  # the tail `dataset.extend_linear` fits when `ingest` runs it


@st.composite
def mutated_rows(draw, rows):
    """`rows` with one mutation: a row dropped or duplicated; one field set empty, NaN, infinite,
    negative, zero or to text; a split renamed; a capacity times 1.3; or a cell cut below CSV_TAIL rows."""
    i = draw(st.integers(0, len(rows) - 1))
    row = rows[i].split(",")
    kind = draw(st.sampled_from(["drop", "duplicate", "field", "split", "scale", "cut"]))
    if kind == "drop":
        return rows[:i] + rows[i + 1:]
    if kind == "duplicate":
        return rows[:i + 1] + rows[i:]
    if kind == "cut":
        keep = draw(st.integers(1, CSV_TAIL - 1))
        cell = [r for r in rows if r.startswith(row[0] + ",")]
        return [r for r in rows if not r.startswith(row[0] + ",")] + cell[:keep]
    if kind == "field":
        row[draw(st.integers(0, 4))] = draw(st.sampled_from(["", "nan", "inf", "-1", "0", "x"]))
    elif kind == "split":
        row[1] = draw(st.sampled_from([s for s in ("train", "test1", "test2", "validation") if s != row[1]]))
    else:
        row[3] = repr(float(row[3]) * 1.3)
    return rows[:i] + [",".join(row)] + rows[i + 1:]


class TestIngestCsvProperty:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_outputs_or_one_error_line(self, small_fleet_rows, tmp_path_factory, data):
        """One mutation of a valid fleet CSV ends `ingest` in exit 0, 2 or 3, and a `calibrate` after a
        successful `ingest` in exit 0 or 3; a non-zero exit prints one prefixed stderr line, and a failed
        `ingest` writes no `cells/`."""
        header, rows = small_fleet_rows
        root = tmp_path_factory.mktemp("ingest")
        (root / "fleet.csv").write_text("\n".join([header, *data.draw(mutated_rows(rows))]) + "\n")
        cfg = {"dataset": str(root / "fleet.csv"), "output_dir": str(root / "out")}
        (root / "config.json").write_text(json.dumps(cfg))
        for command, codes in (("ingest", (0, 2, 3)), ("calibrate", (0, 3))):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(root / "config.json")])
            assert code in codes, err.getvalue()
            if code:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith({2: "config error:", 3: "data error:"}[code])
                if command == "ingest":
                    assert not (root / "out" / "cells").exists()
                break


@pytest.fixture(scope="module")
def simulated_fleet(tmp_path_factory):
    """A six-cell fleet at 150 particles after ingest, calibrate and simulate; returns the config
    path and the output directory, which each example copies."""
    root = tmp_path_factory.mktemp("simulated")
    synth_fleet_csv(root / "fleet.csv", n_train=2, n_test1=2, n_test2=2, seed=7)
    cfg, out = make_config(root)
    with contextlib.redirect_stdout(io.StringIO()):
        assert all(run(command, cfg) == 0 for command in ("ingest", "calibrate", "simulate"))
    return cfg, out


# the earlier outputs a mutation picks from, as globs under the output directory
EARLIER_OUTPUTS = ["manifest.json", "fleet_fit.json", "cells/*.json", "sim/*/predictions.json", "sim/*/eol_*.csv"]
# one value of each JSON type a retyped leaf takes
RETYPED = ["x", 1.5, [1], None, True]


def retype_leaf(doc, data):
    """`doc` with one leaf, reached by one drawn key or index per level, set to a drawn RETYPED value."""
    holder = doc
    while True:
        key = data.draw(st.sampled_from(sorted(holder) if isinstance(holder, dict) else range(len(holder))))
        if not isinstance(holder[key], (dict, list)) or not holder[key]:
            holder[key] = data.draw(st.sampled_from(RETYPED), label="value")
            return doc
        holder = holder[key]


class TestEarlierOutputsProperty:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_outputs_or_one_error_line(self, simulated_fleet, tmp_path_factory, data):
        """One earlier output truncated, emptied or deleted, one leaf of a JSON output retyped, or an extra
        directory under `sim/`, ends `calibrate`, `simulate`, `evaluate` or `retire` in exit 0, 2, 3 or 4
        with no warning; a non-zero exit prints one prefixed stderr line; after `simulate` every untouched
        `sim/<cell>/` holds exactly its predictions' files."""
        cfg, prepared = simulated_fleet
        out = tmp_path_factory.mktemp("outputs") / "out"
        shutil.copytree(prepared, out)
        ids = sorted(json.loads((out / "manifest.json").read_text()))
        simulated = {p.name for p in (out / "sim").iterdir()}
        touched = None
        if data.draw(st.booleans(), label="extra sim directory"):
            touched = out / "sim" / data.draw(st.sampled_from(["ghost", *ids]))
            touched.mkdir(exist_ok=True)
        else:
            pattern = data.draw(st.sampled_from(EARLIER_OUTPUTS))
            path = data.draw(st.sampled_from(sorted(out.glob(pattern))), label="path")
            text = path.read_text()
            edits = ["truncate", "empty", "delete"] + (["retype"] if path.suffix == ".json" else [])
            edit = data.draw(st.sampled_from(edits))
            if edit == "delete":
                path.unlink()
            elif edit == "retype":
                path.write_text(json.dumps(retype_leaf(json.loads(text), data)))
            else:
                path.write_text(text[:data.draw(st.integers(1, len(text) - 1))] if edit == "truncate" else "")
            touched = path.parent if path.parent.parent.name == "sim" else None
        command = data.draw(st.sampled_from(["calibrate", "simulate", "evaluate", "retire"]))
        cell = ["--cell", data.draw(st.sampled_from(ids))] if command == "retire" else []
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", str(cfg), "--out", str(out), *cell])
        assert code in (0, 2, 3, 4) and not caught, (err.getvalue(), [str(w.message) for w in caught])
        if code:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith({2: "config error:", 3: "data error:", 4: "error:"}[code])
        if command == "simulate":
            for sim in (out / "sim").iterdir():
                if sim != touched or code == 0 and sim.name in simulated:
                    assert sorted(p.name for p in sim.iterdir()) == sim_files(sim)


# every key load_config reads, each set to a valid value; `dataset` is added per test
FULL_CONFIG = {
    "output_dir": "out",
    "seed": 1,
    "filter": {
        "n_particles": 150, "init_spread_log10_a": 0.5, "init_spread_b": 0.5,
        "resample_threshold": 0.5, "sigma_meas": 0.01, "sigma_log_a": 0.05, "sigma_b": 0.05,
    },
    "utilities": [{**SPEC, "weight": 1.0}],
    "thresholds": {"trigger": 0.95, "eol": 0.5, "retire_floor": 0.5},
    "schedule": {"stride": 150},
}
# another JSON type, NaN, +-inf, 0, a negative value, 1e308 or a bool
ODD_VALUES = ["x", None, [], {}, math.nan, math.inf, -math.inf, 0, -1.5, 1e308, True, False]


def nodes(node, path=()):
    """(path, value) of `node` and of every value inside it, depth first."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from nodes(value, (*path, key))


@st.composite
def edited_configs(draw, dataset: str):
    """(config, must_reject): FULL_CONFIG with one leaf retyped or removed, an unknown key added
    to an object, or a block swapped between object and list.  An unknown key, a swapped block and
    a NaN, infinite or bool leaf must be rejected."""
    cfg = json.loads(json.dumps({**FULL_CONFIG, "dataset": dataset}))
    everything = list(nodes(cfg))
    edit = draw(st.sampled_from(["retype", "remove", "add_key", "swap"]))
    if edit in ("retype", "remove"):
        path = draw(st.sampled_from([p for p, v in everything if not isinstance(v, (dict, list))]))
    else:
        kind = dict if edit == "add_key" else (dict, list)
        path = draw(st.sampled_from([p for p, v in everything if isinstance(v, kind) and (p or edit == "add_key")]))
    holder = cfg
    for key in path[:-1]:
        holder = holder[key]
    must_reject = edit in ("add_key", "swap")
    if edit == "retype":
        value = holder[path[-1]] = draw(st.sampled_from(ODD_VALUES))
        must_reject = isinstance(value, bool) or isinstance(value, float) and not math.isfinite(value)
    elif edit == "remove":
        del holder[path[-1]]
    elif edit == "add_key":
        (holder[path[-1]] if path else cfg)["zz_unknown"] = 1
    else:
        block = holder[path[-1]]
        holder[path[-1]] = [[k, v] for k, v in block.items()] if isinstance(block, dict) else dict(enumerate(block))
    return cfg, must_reject


@pytest.fixture(scope="module")
def empty_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "fleet.csv"
    path.touch()  # load_config checks only that the dataset exists
    return path


class TestLoadConfigProperty:
    def test_full_config_loads(self, empty_dataset):
        """The base every edit starts from is valid; else every example would end in a ConfigError and check nothing."""
        path = empty_dataset.parent / "full_config.json"
        path.write_text(json.dumps({**FULL_CONFIG, "dataset": str(empty_dataset)}))
        assert isinstance(load_config(path), RunConfig)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_run_config_or_config_error(self, empty_dataset, data):
        """One edit to a valid config gives a RunConfig or a ConfigError and nothing else; an accepted
        filter holds only finite numbers."""
        cfg, must_reject = data.draw(edited_configs(str(empty_dataset)))
        path = empty_dataset.parent / "config.json"
        path.write_text(json.dumps(cfg))
        try:
            loaded = load_config(path)
        except ConfigError:
            return
        assert isinstance(loaded, RunConfig) and not must_reject
        fields = {**asdict(loaded.filter), **asdict(loaded.filter.noise)}
        numbers = [v for k, v in fields.items() if k != "noise"]
        assert all(type(x) in (int, float) and math.isfinite(x) for x in numbers), loaded.filter


PREDICTION = {"at_cycle": 300, "rul_median": 250.5, "rul_quantiles": {"0.5": 250.5}, "eol_threshold": 0.5}


class TestPredictionColumns:
    def test_columns(self):
        at_cycle, rul_median = prediction_columns(json.dumps([PREDICTION, {**PREDICTION, "at_cycle": 400}]), 0.5)
        assert at_cycle.dtype.kind == "i" and at_cycle.tolist() == [300, 400]
        assert rul_median.dtype == np.float64 and rul_median.tolist() == [250.5, 250.5]

    def test_empty(self):
        at_cycle, rul_median = prediction_columns("[]", 0.5)
        assert len(at_cycle) == len(rul_median) == 0 and at_cycle.dtype.kind == "i"

    @pytest.mark.parametrize(
        "edit",
        [
            {"at_cycle": 369.5}, {"at_cycle": "12"}, {"at_cycle": None}, {"at_cycle": [300]}, {"at_cycle": True},
            {}, {"at_cycle": 200}, {"rul_median": "x"}, {"rul_median": None},
            {"rul_median": True}, {"rul_quantiles": None, "drop": "rul_quantiles"}, {"drop": "eol_threshold"},
            {"drop": "at_cycle"},
        ],
        ids=[
            "cycle_float", "cycle_str", "cycle_null", "cycle_list", "cycle_true", "cycle_repeated",
            "cycle_decreasing", "rul_str", "rul_null", "rul_true", "no_quantiles", "no_threshold",
            "no_cycle",
        ],
    )
    def test_mistyped_or_missing_is_data_error(self, tmp_path, edit):
        bad = {**PREDICTION, **edit}
        bad.pop(edit.get("drop"), None)
        bad.pop("drop", None)
        path = tmp_path / "predictions.json"
        path.write_text(json.dumps([PREDICTION, bad]))
        with pytest.raises(DataError, match="predictions.json"):
            decoded(path, lambda text: prediction_columns(text, 0.5))


def row_writer(header, rows) -> str:
    """The row writer `write_csv` replaced (one `isinstance` per value), kept as its reference."""
    def fmt(x):
        return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)
    return "\n".join([",".join(header), *(",".join(fmt(x) for x in row) for row in rows)]) + "\n"


# signed zeros, infinities, NaN, subnormals and values >= 1e16 (where repr switches to exponent form)
EDGE_FLOATS = [
    -0.0, 0.0, float("inf"), -float("inf"), float("nan"), 5e-324, -2.5e-310, 1e16, -3.0e300, 1.7976931348623157e308
]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())


class TestWriteCsv:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 50).flatmap(lambda n: st.tuples(
        hnp.arrays(np.float64, n, elements=FLOATS),
        hnp.arrays(np.int64, n),
        hnp.arrays(np.float64, n, elements=FLOATS),
    )))
    def test_bytes_equal_row_writer(self, tmp_path_factory, cols):
        x, k, y = cols
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(path, {"x": x, "cycle": k, "y": y.tolist()})  # a list of floats, as retire passes
        assert path.read_bytes() == row_writer(["x", "cycle", "y"], zip(x, k, y.tolist())).encode("utf-8")

    def test_unequal_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unequal lengths"):
            write_csv(tmp_path / "t.csv", {"a": np.zeros(3), "b": np.zeros(2)})
        assert not (tmp_path / "t.csv").exists()


class TestWriteDir:
    def test_replaces_directory_with_exactly_files(self, tmp_path):
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "stale.csv").write_text("x\n")
        write_dir(tmp_path, "d", {"a.json": "[]", "b.csv": {"k": np.arange(2)}})
        assert tree_bytes(tmp_path) == {"d/a.json": b"[]", "d/b.csv": b"k\n0\n1\n"}

    @pytest.mark.parametrize("name", ["", ".", "..", "../x", "a/b", "a\\b", "a\0b"])
    @pytest.mark.parametrize("as_file", [False, True])
    def test_name_that_is_not_one_component_deletes_nothing(self, tmp_path, name, as_file):
        parent = tmp_path / "out" / "sim"
        (parent / "c").mkdir(parents=True)
        (parent / "c" / "kept.json").write_text("{}")
        before = tree_bytes(tmp_path)
        with pytest.raises(DataError, match="cannot name a cell's file or directory"):
            write_dir(parent, "c", {name: "x"}) if as_file else write_dir(parent, name, {"f.json": "x"})
        assert tree_bytes(tmp_path) == before
