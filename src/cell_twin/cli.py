"""Batch command-line surface: ingest, calibrate, simulate, retire, evaluate.

All commands read a single JSON config, validate it fully before any
side effect, and write plot-ready CSV / JSON artifacts with atomic
renames.  A command computes each output directory (`cells/`,
`sim/<cell>/`, `retire/<cell>/`, `metrics/`) as a value first, then
`write_dir` replaces the directory with exactly those files, so a failure
while computing leaves the last complete run's directory and a rerun keeps
no file of an earlier one.  `simulate` runs its cells on a fork process
pool, one worker per usable CPU, and attempts every cell before it reports
the first failing cell's error.  Exit codes: 0 success, 2 config error, 3
data error (a missing or corrupted earlier output among them), 4 runtime
error (a dead `simulate` worker among them).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import shutil
import sys
import tempfile
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import calib, dataset, evaluation, filtering, prognosis, retirement, utility
from .errors import CellTwinError, ConfigError, DataError
from .model import NoiseSpec, checked

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


@dataclass
class RunConfig:
    dataset: Path
    output_dir: Path
    filter: filtering.FilterConfig       # its seed is the run's base seed
    utilities: list[utility.AttributeSpec]
    trigger: float
    eol: float
    retire_floor: float
    schedule_stride: int


def _known(block, prefix: str, keys: set[str]) -> dict:
    """`block` if it is an object whose keys are all in `keys`; else ConfigError naming the others
    (as `prefix` + key), sorted."""
    if not isinstance(block, dict):
        raise ConfigError(f"{prefix.rstrip('.') or 'config'} must be an object, got {block!r}")
    unknown = sorted(set(block) - keys)
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(prefix + k for k in unknown))
    return block


def load_config(path, out_override: str | None = None) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None

    try:
        # `workers` is accepted and ignored: perfbench's FleetBatch still writes it
        _known(raw, "", {"dataset", "output_dir", "seed", "filter", "utilities", "thresholds", "schedule", "workers"})
        seed = checked("seed", raw.get("seed", 0), 0, integer=True)
        sigmas = {f.name for f in fields(NoiseSpec)}  # the filter block holds FilterConfig's fields and the sigmas
        # calibrate's fleet fit sets the prior centres: simulate and retire read them from fleet_fit.json
        fkeys = {f.name for f in fields(filtering.FilterConfig)} - {"noise", "seed", "init_log10_a", "init_b"}
        fraw = _known(raw.get("filter", {}), "filter.", fkeys | sigmas)
        noise = NoiseSpec(**{k: v for k, v in fraw.items() if k in sigmas})
        fcfg = filtering.FilterConfig(noise=noise, seed=seed, **{k: v for k, v in fraw.items() if k not in sigmas})
        th = _known(raw.get("thresholds", {}), "thresholds.", {"trigger", "eol", "retire_floor"})
        sched = _known(raw.get("schedule", {}), "schedule.", {"stride"})
        if not isinstance(raw.get("utilities", []), list):
            raise ConfigError(f"utilities must be a list, got {raw['utilities']!r}")
        specs = []
        for i, u in enumerate(raw.get("utilities", [])):
            _known(u, f"utilities[{i}].", {"name", "extractor", "l_u", "h_u", "r", "weight"})
            anchors = [checked(f"utilities.{k}", u[k], -math.inf) for k in ("l_u", "h_u", "r")]
            specs.append(
                utility.AttributeSpec(
                    name=u["name"],
                    utility=utility.make_exp_utility(*anchors),
                    extractor=utility.Attribute(u["extractor"]),
                    weight=checked("utilities.weight", u["weight"], 0),
                )
            )
        names = [spec.name for spec in specs]
        header = ["cycle", "utility", *(f"phi_{n}" for n in names), *names]  # utility_curve.csv's columns
        if not all(isinstance(n, str) and not set(n) & set(',"\r\n') for n in names) or len(set(header)) < len(header):
            raise ConfigError(f"utility names must be distinct strings without , \" or line breaks in header {header}")
        if not specs:
            specs = utility.default_attribute_specs()
        cfg = RunConfig(
            dataset=Path(raw["dataset"]),
            output_dir=Path(out_override or raw.get("output_dir", "out")),
            filter=fcfg,
            utilities=specs,
            trigger=checked("thresholds.trigger", th.get("trigger", 0.95), 0, 1),
            eol=checked("thresholds.eol", th.get("eol", 0.5), 0, 1),
            retire_floor=checked("thresholds.retire_floor", th.get("retire_floor", 0.5), 0, 1),
            schedule_stride=checked("schedule.stride", sched.get("stride", 100), 1, integer=True),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"invalid config {path}: {e}") from None

    if not cfg.dataset.exists():
        raise ConfigError(f"dataset file not found: {cfg.dataset}")
    return cfg


# --- deterministic output helpers ---

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


def write_csv(path: Path, columns: dict):
    """Write `columns` (name -> 1-D array, all one length) under a header of their names;
    float columns are formatted with `repr` (round-trip), any other column with `str`."""
    arrays = [np.asarray(col) for col in columns.values()]
    if len({len(a) for a in arrays}) > 1:
        raise ValueError(f"{path}: columns of unequal lengths {[len(a) for a in arrays]}")
    cells = [map(repr if a.dtype.kind == "f" else str, a.tolist()) for a in arrays]
    atomic_write_text(path, "\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n")


def write_dir(parent: Path, name: str, files: dict):
    """Replace `parent / name` with exactly `files`: file name -> text, or -> columns for `write_csv`.
    Every name must be one path component, so only that one directory is ever deleted."""
    for n in (name, *files):
        dataset.checked_name(n)
    directory = parent / name
    if directory.exists():
        shutil.rmtree(directory)
    for file_name, content in files.items():
        (atomic_write_text if isinstance(content, str) else write_csv)(directory / file_name, content)


def cell_seed(base_seed: int, cell_id: str) -> int:
    digest = hashlib.sha256(cell_id.encode("utf-8")).digest()
    return (base_seed + int.from_bytes(digest[:8], "big")) % (2 ** 63)


# --- preprocessing shared by commands ---

def decoded(path: Path, decode):
    """`decode(text of path)`; a file that is missing, does not decode or fails `decode`'s checks is a DataError."""
    try:
        return decode(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DataError(f"{path}: missing") from None
    # JSONDecodeError is a ValueError; numpy raises OverflowError for an integer beyond float range
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError, DataError) as e:
        raise DataError(f"{path}: corrupted ({type(e).__name__}: {e})") from None


def load_traces(cfg: RunConfig) -> dict[str, tuple[dataset.Split, dataset.NormalizedTrace]]:
    manifest = decoded(
        cfg.output_dir / "manifest.json",
        lambda text: {dataset.checked_name(c): dataset.Split(s) for c, s in sorted(json.loads(text).items())},
    )
    return {
        cell_id: (split, decoded(
            cfg.output_dir / "cells" / f"{cell_id}.json",
            # the file's name is the cell's id: its own cell_id field is not read
            lambda text: dataset.NormalizedTrace.from_json_dict({**json.loads(text), "cell_id": cell_id}),
        ))
        for cell_id, split in manifest.items()
    }


def with_fleet_fit(cfg: RunConfig) -> RunConfig:
    """`cfg` with the filter's initial cloud centred on calibrate's fleet medians, as `fleet_fit.json` stores them."""
    def centred(text: str) -> filtering.FilterConfig:  # FilterConfig's checks are the one rule for the medians
        fit = json.loads(text)
        return replace(cfg.filter, init_log10_a=fit["median_log10_a"], init_b=fit["median_b"])

    return replace(cfg, filter=decoded(cfg.output_dir / "fleet_fit.json", centred))


def prediction_schedule(cfg: RunConfig, trace: dataset.NormalizedTrace) -> list[int]:
    start = dataset.trigger_cycle(trace, cfg.trigger)
    if start is None:
        return []
    return list(range(start, int(trace.cycles[-1]) + 1, cfg.schedule_stride))


# --- commands ---

def cmd_ingest(cfg: RunConfig) -> int:
    cells = dataset.load_cells(cfg.dataset)
    traces = [dataset.extend_linear(dataset.normalize(cell)) for cell in cells]
    cell_files = {f"{c.cell_id}.json": json.dumps(t.to_json_dict()) for c, t in zip(cells, traces)}
    write_dir(cfg.output_dir, "cells", cell_files)
    split_map = {c.cell_id: c.split.value for c in cells}
    atomic_write_text(cfg.output_dir / "manifest.json", json.dumps(split_map, sort_keys=True))
    counts = ", ".join(f"{s.value}={sum(c.split is s for c in cells)}" for s in dataset.Split)
    print(f"ingested {len(cells)} cells: {counts}")
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


def _simulate_cell(cfg: RunConfig, cell_id: str, trace: dataset.NormalizedTrace, schedule: list[int]) -> dict:
    """The files of `sim/<cell_id>/` for predictions at `schedule`, as `write_dir` takes them."""
    fcfg = replace(cfg.filter, seed=cell_seed(cfg.filter.seed, cell_id))
    ens = filtering.init(fcfg)
    files = {}
    preds = []
    for k in schedule:
        filtering.assimilate(ens, trace, k, fcfg.noise)
        proj = prognosis.project(ens, from_cycle=k, eol_threshold=cfg.eol)
        band = {"cycle": proj.cycles, "median_q": proj.median_q, "q05": proj.q05, "q95": proj.q95}
        files[f"projection_{k:06d}.csv"] = band
        files[f"eol_{k:06d}.csv"] = {"eol_cycle": proj.per_particle_eol, "weight": proj.eol_weights}
        pred = prognosis.rul(proj, k)
        preds.append(
            {
                "at_cycle": pred.at_cycle,
                "rul_median": pred.rul_median,
                "rul_quantiles": {repr(lvl): v for lvl, v in sorted(pred.rul_quantiles.items())},
                "eol_threshold": cfg.eol,
            }
        )
    files["predictions.json"] = json.dumps(preds)
    files["ensemble.json"] = ens.to_json()
    return files


def _simulate_and_write(cfg: RunConfig, cell_id: str, trace: dataset.NormalizedTrace) -> int:
    """Write `sim/<cell_id>/`; the number of prediction cycles.  Module-level, so a pool worker can run it."""
    schedule = prediction_schedule(cfg, trace)
    write_dir(cfg.output_dir / "sim", cell_id, _simulate_cell(cfg, cell_id, trace, schedule))
    return len(schedule)


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def cmd_simulate(cfg: RunConfig, cell_id: str | None) -> int:
    traces = load_traces(cfg)
    if cell_id is not None:
        if cell_id not in traces:
            raise DataError(f"unknown cell id {cell_id!r}")
        targets = [cell_id]
    else:
        targets = sorted(c for c, (s, _) in traces.items() if s is not dataset.Split.TRAIN)
    cfg = with_fleet_fit(cfg)
    # per-cell seeds come from (seed, cell_id): a cell's outputs do not depend on the other cells, so
    # workers each simulate and write one cell; forked, they need not import numpy again
    jobs = [partial(_simulate_and_write, cfg, c, traces[c][1]) for c in targets]
    size = min(len(jobs), usable_cpus())
    fork = size > 1 and "fork" in multiprocessing.get_all_start_methods()
    with ProcessPoolExecutor(size, mp_context=multiprocessing.get_context("fork")) if fork else nullcontext() as pool:
        results = [pool.submit(job).result for job in jobs] if fork else jobs
        failures = []
        for c, result in zip(targets, results):  # every cell is attempted, whatever the pool size
            try:
                n = result()
            except Exception as e:
                failures.append(e)
            else:
                print(f"{c}: {n} prediction cycles")
    if failures:
        raise failures[0]
    return EXIT_OK


def cmd_retire(cfg: RunConfig, cell_id: str, current: int | None) -> int:
    traces = load_traces(cfg)
    if cell_id not in traces:
        raise DataError(f"unknown cell id {cell_id!r}")
    trace = traces[cell_id][1]
    if current is None:
        current = dataset.trigger_cycle(trace, cfg.trigger)
        if current is None:
            raise CellTwinError(f"{cell_id}: capacity never reached trigger {cfg.trigger}")
    cfg = with_fleet_fit(cfg)
    fcfg = replace(cfg.filter, seed=cell_seed(cfg.filter.seed, cell_id))
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
    )
    write_dir(cfg.output_dir / "retire", cell_id, {
        "utility_curve.csv": {
            "cycle": decision.candidates,
            "utility": decision.combined,
            **{f"phi_{n}": v for n, v in decision.phi.items()},
            **decision.raw,
        },
        "decision.json": json.dumps(decision.summary_dict()),
    })
    print(f"{cell_id}: optimal retirement cycle {decision.optimal_cycle} (utility {decision.optimal_utility:.4f})")
    return EXIT_OK


def eol_table(text: str) -> prognosis.EolDistribution:
    """An `eol_*.csv` written by simulate; a truncated one fails the weight sum (np.loadtxt would warn on no rows)."""
    rows = np.array([line.split(",") for line in text.splitlines()[1:]], dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 2 or not np.all(np.isfinite(rows)) or not filtering.valid_weights(rows[:, 1]):
        raise ValueError(f"expected finite (eol_cycle, weight) rows, weights >= 0 summing to 1; got {rows.shape}")
    return prognosis.EolDistribution(rows[:, 0], rows[:, 1])


def prediction_columns(text: str, eol: float) -> tuple[np.ndarray, np.ndarray]:
    """The integer `at_cycle` and numeric `rul_median` columns of a `predictions.json` written by
    simulate; each prediction must hold all four keys simulate writes, and be made at `eol`."""
    preds = [(p["at_cycle"], p["rul_median"], p["rul_quantiles"], p["eol_threshold"]) for p in json.loads(text)]
    if any(p[3] != eol for p in preds):
        raise ValueError(f"made at an eol_threshold other than thresholds.eol {eol} (stale simulate output?)")
    at_cycle, rul_median = np.array([p[0] for p in preds]), np.array([p[1] for p in preds])
    typed = at_cycle.dtype.kind == "i" and rul_median.dtype.kind in "if" and at_cycle.ndim == rul_median.ndim == 1
    if preds and not typed:
        raise ValueError(f"at_cycle must be integers and rul_median numbers, got {at_cycle.dtype}, {rul_median.dtype}")
    return at_cycle, rul_median.astype(float)


def cmd_evaluate(cfg: RunConfig) -> int:
    traces = load_traces(cfg)
    sim_root = cfg.output_dir / "sim"
    simulated = sorted(p.name for p in sim_root.iterdir() if p.is_dir()) if sim_root.exists() else []
    if not simulated:
        raise DataError("no simulate outputs found; run simulate first")

    metrics = {}
    dists = []
    observed_eols = []
    for cell_id in simulated:
        if cell_id not in traces:
            raise DataError(f"{sim_root / cell_id}: cell {cell_id!r} is not in manifest.json (stale simulate output?)")
        trace = traces[cell_id][1]
        at_cycle, rul_median = decoded(sim_root / cell_id / "predictions.json", lambda text: prediction_columns(text, cfg.eol))
        if not len(at_cycle):
            continue
        series = evaluation.rul_errors(trace, at_cycle, rul_median, cfg.eol)
        metrics[f"rul_errors_{cell_id}.csv"] = {
            "cycle": series.cycles,
            "true_rul": series.true_rul,
            "pred_rul": series.predicted_rul_median,
            "err": series.signed_error,
        }
        dists.append(decoded(sim_root / cell_id / f"eol_{at_cycle[0]:06d}.csv", eol_table))
        observed_eols.append(float(series.true_eol))

    if not dists:
        raise DataError("no cells with predictions to evaluate")
    if len(dists) == 1:
        print("warning: calibration curve computed from a single cell")
    curve = evaluation.calibration_curve(dists, observed_eols)
    metrics["calibration.csv"] = {"level": curve.levels, "observed": curve.observed}
    write_dir(cfg.output_dir, "metrics", metrics)
    print(f"calibration over {curve.n_samples} cells: area deviation {curve.area_deviation:.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cell-twin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ["ingest", "calibrate", "simulate", "retire", "evaluate"]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        if name in ("simulate", "retire"):
            p.add_argument("--cell", default=None, required=(name == "retire"))
        if name == "retire":
            p.add_argument("--current", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, out_override=args.out)
        if args.command == "ingest":
            return cmd_ingest(cfg)
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
    except (CellTwinError, OSError, MemoryError, BrokenExecutor) as e:  # BrokenExecutor: a simulate worker died
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
