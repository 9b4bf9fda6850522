"""Batch command-line surface: ingest, calibrate, simulate, retire, evaluate.

All commands read a single JSON config, validate it fully before any
side effect, and write plot-ready CSV / JSON artifacts with atomic
renames.  Exit codes: 0 success, 2 config error, 3 data error, 4
runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import calib, dataset, evaluation, filtering, prognosis, retirement, utility
from .errors import CellTwinError, ConfigError, DataError
from .model import NoiseSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


@dataclass
class RunConfig:
    dataset: Path
    output_dir: Path
    split_manifest: Path | None = None
    seed: int = 0
    filter: filtering.FilterConfig = field(default_factory=filtering.FilterConfig)
    utilities: list[utility.AttributeSpec] = field(default_factory=utility.default_attribute_specs)
    trigger: float = 0.95
    eol: float = 0.5
    retire_floor: float = 0.5
    schedule_stride: int = 100
    schedule_cycles: list[int] | None = None
    normalize_window: int = 100
    extend_tail: int = 30
    extend_floor: float = 0.5
    trigger_persist: int = 1
    discharge_rate_c: float = 4.0
    workers: int = 1


def load_config(path, seed_override: int | None = None, out_override: str | None = None) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None

    try:
        fraw = dict(raw.get("filter", {}))
        sigmas = {k: fraw.pop(k) for k in ("sigma_meas", "sigma_log_a", "sigma_b") if k in fraw}
        fcfg = filtering.FilterConfig(noise=NoiseSpec(**sigmas), seed=raw.get("seed", 0), **fraw)
        specs = []
        for u in raw.get("utilities", []):
            specs.append(
                utility.AttributeSpec(
                    name=u["name"],
                    utility=utility.make_exp_utility(u["l_u"], u["h_u"], u["r"]),
                    extractor=utility.Attribute(u["extractor"]),
                    weight=u["weight"],
                )
            )
        if not specs:
            specs = utility.default_attribute_specs()
        th = raw.get("thresholds", {})
        sched = raw.get("schedule", {})
        cfg = RunConfig(
            dataset=Path(raw["dataset"]),
            output_dir=Path(out_override or raw.get("output_dir", "out")),
            split_manifest=Path(raw["split_manifest"]) if raw.get("split_manifest") else None,
            seed=raw.get("seed", 0),
            filter=fcfg,
            utilities=specs,
            trigger=th.get("trigger", 0.95),
            eol=th.get("eol", 0.5),
            retire_floor=th.get("retire_floor", 0.5),
            schedule_stride=sched.get("stride", 100),
            schedule_cycles=sched.get("cycles"),
            normalize_window=raw.get("normalize_window", 100),
            extend_tail=raw.get("extend", {}).get("tail", 30),
            extend_floor=raw.get("extend", {}).get("floor", 0.5),
            trigger_persist=raw.get("trigger_persist", 1),
            discharge_rate_c=raw.get("discharge_rate_c", 4.0),
            workers=raw.get("workers", 1),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"invalid config {path}: {e}") from None

    if seed_override is not None:
        cfg.seed = seed_override
        cfg.filter = replace(cfg.filter, seed=seed_override)
    for bad, name in [(cfg.trigger, "trigger"), (cfg.eol, "eol"), (cfg.retire_floor, "retire_floor")]:
        if not 0.0 < bad < 1.0:
            raise ConfigError(f"threshold {name} must be in (0, 1), got {bad}")
    if cfg.schedule_cycles is not None and np.any(np.diff(cfg.schedule_cycles) <= 0):
        raise ConfigError("schedule cycles must be strictly increasing")
    if not cfg.dataset.exists():
        raise ConfigError(f"dataset file not found: {cfg.dataset}")
    if cfg.split_manifest is not None and not cfg.split_manifest.exists():
        raise ConfigError(f"split manifest not found: {cfg.split_manifest}")
    return cfg


# --- deterministic output helpers ---

def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


def atomic_write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp_")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: Path, header: list[str], rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def cell_seed(base_seed: int, cell_id: str) -> int:
    digest = hashlib.sha256(cell_id.encode("utf-8")).digest()
    return (base_seed + int.from_bytes(digest[:8], "big")) % (2 ** 63)


# --- preprocessing shared by commands ---

def load_traces(cfg: RunConfig) -> dict[str, tuple[dataset.Split, dataset.NormalizedTrace]]:
    out = {}
    with open(cfg.output_dir / "manifest.json", encoding="utf-8") as f:
        manifest = json.load(f)
    for cell_id, split_name in sorted(manifest.items()):
        with open(cfg.output_dir / "cells" / f"{cell_id}.json", encoding="utf-8") as f:
            trace = dataset.NormalizedTrace.from_json_dict(json.load(f))
        out[cell_id] = (dataset.Split(split_name), trace)
    return out


def init_filter_config(cfg: RunConfig, seed: int) -> filtering.FilterConfig:
    fit_path = cfg.output_dir / "fleet_fit.json"
    if not fit_path.exists():
        return replace(cfg.filter, seed=seed)
    fit = calib.FleetFit.from_json(fit_path.read_text(encoding="utf-8"))
    return replace(cfg.filter, init_log10_a=fit.median_log10_a, init_b=fit.median_b, seed=seed)


def prediction_schedule(cfg: RunConfig, trace: dataset.NormalizedTrace) -> list[int]:
    if cfg.schedule_cycles is not None:
        return [k for k in cfg.schedule_cycles if k <= trace.cycles[-1]]
    start = dataset.trigger_cycle(trace, cfg.trigger, cfg.trigger_persist)
    if start is None:
        return []
    return list(range(start, int(trace.cycles[-1]) + 1, cfg.schedule_stride))


# --- commands ---

def cmd_ingest(cfg: RunConfig, extend: bool = True) -> int:
    manifest = dataset.load_split_manifest(cfg.split_manifest) if cfg.split_manifest else None
    cells = dataset.load_cells(cfg.dataset, manifest)
    counts = {}
    split_map = {}
    for cell in cells:
        trace = dataset.normalize(cell, cfg.normalize_window)
        if extend:
            trace = dataset.extend_linear(trace, cfg.extend_tail, cfg.extend_floor)
        atomic_write_text(
            cfg.output_dir / "cells" / f"{cell.cell_id}.json",
            json.dumps(trace.to_json_dict()),
        )
        split_map[cell.cell_id] = cell.split.value
        counts[cell.split.value] = counts.get(cell.split.value, 0) + 1
    atomic_write_text(cfg.output_dir / "manifest.json", json.dumps(split_map, sort_keys=True))
    total = sum(counts.values())
    print(f"ingested {total} cells: " + ", ".join(f"{s}={counts.get(s, 0)}" for s in ["train", "test1", "test2"]))
    return EXIT_OK


def cmd_calibrate(cfg: RunConfig) -> int:
    traces = load_traces(cfg)
    train = [t for s, t in traces.values() if s is dataset.Split.TRAIN]
    if not train:
        raise DataError("no training cells available")
    fit = calib.fleet_calibrate(train)
    atomic_write_text(cfg.output_dir / "fleet_fit.json", fit.to_json())
    print(f"fleet medians: log10_a={fit.median_log10_a:.4f} b={fit.median_b:.4f}")
    print("total-Ah percentiles: " + ", ".join(f"p{p}={v:.1f}" for p, v in sorted(fit.ah_percentiles.items())))
    return EXIT_OK


def _simulate_cell(cfg: RunConfig, cell_id: str, trace: dataset.NormalizedTrace) -> list[int]:
    schedule = prediction_schedule(cfg, trace)
    sim_dir = cfg.output_dir / "sim" / cell_id
    fcfg = init_filter_config(cfg, cell_seed(cfg.seed, cell_id))
    ens = filtering.init(fcfg)
    preds = []
    for k in schedule:
        filtering.assimilate(ens, trace, k, fcfg.noise)
        proj = prognosis.project(ens, from_cycle=k, eol_threshold=cfg.eol)
        write_csv(sim_dir / f"projection_{k:06d}.csv", ["cycle", "median_q", "q05", "q95"], proj.export_csv_rows())
        write_csv(
            sim_dir / f"eol_{k:06d}.csv",
            ["eol_cycle", "weight"],
            zip(proj.per_particle_eol, proj.eol_weights),
        )
        pred = prognosis.rul(proj, k)
        preds.append(
            {
                "at_cycle": pred.at_cycle,
                "rul_median": pred.rul_median,
                "rul_quantiles": {repr(lvl): v for lvl, v in sorted(pred.rul_quantiles.items())},
                "eol_threshold": pred.eol_threshold,
            }
        )
    atomic_write_text(sim_dir / "predictions.json", json.dumps(preds))
    atomic_write_text(sim_dir / "ensemble.json", ens.to_json())
    return schedule


def cmd_simulate(cfg: RunConfig, cell_id: str | None) -> int:
    traces = load_traces(cfg)
    if cell_id is not None:
        if cell_id not in traces:
            raise DataError(f"unknown cell id {cell_id!r}")
        targets = [cell_id]
    else:
        targets = sorted(c for c, (s, _) in traces.items() if s is not dataset.Split.TRAIN)
    # per-cell seeds are derived from (seed, cell_id), so results do not
    # depend on worker count or completion order
    def run(c):
        return c, _simulate_cell(cfg, c, traces[c][1])

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(run, targets))
    else:
        results = [run(c) for c in targets]
    for c, schedule in results:
        print(f"{c}: {len(schedule)} prediction cycles")
    return EXIT_OK


def cmd_retire(cfg: RunConfig, cell_id: str, current: int | None) -> int:
    traces = load_traces(cfg)
    if cell_id not in traces:
        raise DataError(f"unknown cell id {cell_id!r}")
    trace = traces[cell_id][1]
    if current is None:
        current = dataset.trigger_cycle(trace, cfg.trigger, cfg.trigger_persist)
        if current is None:
            raise retirement.NotTriggered(f"{cell_id}: capacity never reached trigger {cfg.trigger}")
    fcfg = init_filter_config(cfg, cell_seed(cfg.seed, cell_id))
    ens = filtering.init(fcfg)
    filtering.assimilate(ens, trace, current, fcfg.noise)
    decision = retirement.optimize_retirement(
        trace,
        ens,
        cfg.utilities,
        current,
        trigger_threshold=cfg.trigger,
        retire_floor=cfg.retire_floor,
        eol_threshold=cfg.eol,
        discharge_rate_c=cfg.discharge_rate_c,
    )
    ret_dir = cfg.output_dir / "retire" / cell_id
    names = [s.name for s in cfg.utilities]
    write_csv(
        ret_dir / "utility_curve.csv",
        ["cycle", "utility"] + [f"phi_{n}" for n in names] + names,
        (
            [p.cycle, p.combined] + [p.phi[n] for n in names] + [p.raw[n] for n in names]
            for p in decision.utility_curve
        ),
    )
    atomic_write_text(ret_dir / "decision.json", json.dumps(decision.summary_dict()))
    print(f"{cell_id}: optimal retirement cycle {decision.optimal_cycle} (utility {decision.optimal_utility:.4f})")
    return EXIT_OK


def cmd_evaluate(cfg: RunConfig) -> int:
    traces = load_traces(cfg)
    sim_root = cfg.output_dir / "sim"
    simulated = sorted(p.name for p in sim_root.iterdir() if p.is_dir()) if sim_root.exists() else []
    if not simulated:
        raise DataError("no simulate outputs found; run simulate first")

    dists = []
    observed_eols = []
    for cell_id in simulated:
        trace = traces[cell_id][1]
        with open(sim_root / cell_id / "predictions.json", encoding="utf-8") as f:
            preds = [
                prognosis.RulPrediction(
                    at_cycle=p["at_cycle"],
                    rul_median=p["rul_median"],
                    rul_quantiles={float(k): v for k, v in p["rul_quantiles"].items()},
                    eol_threshold=p["eol_threshold"],
                )
                for p in json.load(f)
            ]
        if not preds:
            continue
        series = evaluation.rul_errors(trace, preds, cfg.eol)
        write_csv(
            cfg.output_dir / "metrics" / f"rul_errors_{cell_id}.csv",
            ["cycle", "true_rul", "pred_rul", "err"],
            ([p.cycle, p.true_rul, p.predicted_rul_median, p.signed_error] for p in series.points),
        )
        first_k = preds[0].at_cycle
        eol_rows = np.loadtxt(sim_root / cell_id / f"eol_{first_k:06d}.csv", delimiter=",", skiprows=1)
        dists.append(prognosis.EolDistribution(eol_rows[:, 0], eol_rows[:, 1]))
        observed_eols.append(float(series.true_eol))

    if not dists:
        raise DataError("no cells with predictions to evaluate")
    if len(dists) == 1:
        print("warning: calibration curve computed from a single cell")
    curve = evaluation.calibration_curve(dists, observed_eols)
    write_csv(
        cfg.output_dir / "metrics" / "calibration.csv",
        ["level", "observed"],
        zip(curve.levels, curve.observed),
    )
    print(f"calibration over {curve.n_samples} cells: area deviation {curve.area_deviation:.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cell-twin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ["ingest", "calibrate", "simulate", "retire", "evaluate"]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        if name in ("simulate", "retire"):
            p.add_argument("--cell", default=None, required=(name == "retire"))
        if name == "retire":
            p.add_argument("--current", type=int, default=None)
        if name == "ingest":
            p.add_argument("--no-extend", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        seed = args.seed
        if seed is None and os.environ.get("CELL_TWIN_SEED"):
            seed = int(os.environ["CELL_TWIN_SEED"])
        cfg = load_config(args.config, seed_override=seed, out_override=args.out)
        if args.command == "ingest":
            return cmd_ingest(cfg, extend=not args.no_extend)
        if args.command == "calibrate":
            return cmd_calibrate(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.cell)
        if args.command == "retire":
            return cmd_retire(cfg, args.cell, args.current)
        return cmd_evaluate(cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (CellTwinError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
