"""cell-twin benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fleet_batch --seed 1 --seconds 25 --trace 0

or, for every workload:

    for w in fleet_batch online_mixed retire_sweep; do python3 perfbench/run.py --workload $w; done

With `--trace 0` the workload runs its closed loop for `--seconds`, at
least until its fixed core work is done, and is set up several times
before and after the loop (the median is `setup_s`); the end-to-end
metrics come from this run.
With `--trace 1` the core work runs once untraced and once with every
layer's public functions wrapped in spans; the per-layer metrics and the
tracing overhead come from comparing the two.  The last line of standard
output is the JSON result; the line before it is the run record (seed,
nproc, interpreter and library versions), also saved with the spans
under `.bench_work/`.

Workload names, metric names and units come from BENCHMARK.json at the
root; perfbench/METRICS.md gives each metric's rationale.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
LAYERS = ["dataset", "calib", "filtering", "prognosis", "retirement", "utility", "evaluation", "cli"]


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        sys.exit(f"perfbench: {path} not found; run from the root of a cell-twin checkout")
    return json.loads(path.read_text())


def import_package():
    """Import cell_twin from this checkout's source tree, and only from there."""
    init = SRC / "cell_twin" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} not found; run from the root of a cell-twin checkout")
    sys.path.insert(0, str(SRC))
    import cell_twin

    if Path(cell_twin.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported cell_twin from {cell_twin.__file__}, not {init}")
    return cell_twin


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_loop(w, seconds: float, max_ops: int | None = None) -> dict:
    """Closed loop: operations back to back until the time is up and the core is done.

    The peak memory is read when the core is done, so it covers the same
    work in every run, however far the run gets after it.
    """
    deadline = perf_counter() + seconds
    busy = 0.0
    units = 0
    latencies: list[float] = []
    i = 0
    core_rss_mb = 0.0
    while i < w.core_ops or (max_ops is None and perf_counter() < deadline):
        r = w.op(i)
        busy += r.seconds
        units += r.units
        latencies.extend(r.latencies)
        i += 1
        if i == w.core_ops:
            core_rss_mb = peak_rss_mb()
        if max_ops is not None and i >= max_ops:
            break
    return {"ops": i, "busy_s": busy, "units": units, "latencies": latencies, "core_rss_mb": core_rss_mb}


def timed_setups(w, sizes) -> list[float]:
    """At least `setup_reps` set-ups, repeated until `setup_seconds` have passed."""
    times: list[float] = []
    while len(times) < sizes.setup_reps or sum(times) < sizes.setup_seconds:
        t0 = perf_counter()
        w.setup()
        times.append(perf_counter() - t0)
    return times


def timed_run(cls, work: Path, args, sizes, nproc: int):
    """Set-ups before and after the loop, so their median spans the run's
    changes in host speed; the loop works on the state of the last one
    before it."""
    w = cls(work, args.seed, sizes, nproc)
    setup_times = timed_setups(w, sizes)
    loop = run_loop(w, args.seconds)
    w.finish()
    setup_times += timed_setups(w, sizes)
    lat_ms = np.array(loop["latencies"]) * 1e3
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": loop["core_rss_mb"],
        "throughput_per_s": loop["units"] / loop["busy_s"],
        "latency_p50_ms": float(np.percentile(lat_ms, 50)),
        "rul_medae_cycles": w.rul_abs_error(np.median),
    }
    info = {
        "ops": loop["ops"],
        "work_units": loop["units"],
        "unit": w.unit,
        "latency_samples": len(lat_ms),
        "latency_ms": {f"p{q}": float(np.percentile(lat_ms, q)) for q in (10, 50, 90, 95, 99, 100)},
        "accuracy_samples": len(w.abs_errors),
        "rul_mae_cycles": w.rul_abs_error(np.mean),
        "setup_times_s": setup_times,
        "run_peak_rss_mb": peak_rss_mb(),
        **w.info(),
    }
    return w, metrics, info


def trace_targets():
    """(owner, attribute, span name, counter) for every traced public function."""
    from cell_twin import calib, cli, dataset, evaluation, filtering, prognosis, retirement, utility

    def rows(rec, a, k, out):
        rec.count("dataset.rows_parsed", sum(len(c.cycles) for c in out))

    def fits(rec, a, k, out):
        rec.count("calib.cells_fit", len(out.per_cell))
        rec.count("calib.cells_failed", len(out.failed_cells))

    def snapshot(rec, a, k, out):
        rec.count("filtering.snapshot_bytes", len(out))

    def traj(rec, a, k, out):
        ens = a[0] if a else k["ens"]
        rec.count("prognosis.traj_entries", ens.n * (out.horizon_cycle - out.from_cycle + 1))

    def candidates(rec, a, k, out):
        rec.count("retirement.candidates_scanned", len(out.candidates))

    def written(rec, a, k, out):
        text = a[1] if len(a) > 1 else k["text"]
        rec.count("cli.bytes_written", len(text.encode("utf-8")))

    return [
        (dataset, "load_cells", "dataset.load_cells", rows),
        (dataset, "normalize", "dataset.normalize", None),
        (dataset, "extend_linear", "dataset.extend_linear", None),
        (calib, "fleet_calibrate", "calib.fleet_calibrate", fits),
        (filtering, "init", "filtering.init", None),
        (filtering, "assimilate", "filtering.assimilate", None),
        (filtering, "step", "filtering.step", None),
        (filtering, "systematic_resample", "filtering.systematic_resample", None),
        (filtering.ParticleEnsemble, "to_json", "filtering.snapshot_save", snapshot),
        (filtering.ParticleEnsemble, "from_json", "filtering.snapshot_load", None),
        (prognosis, "project", "prognosis.project", traj),
        (prognosis, "rul", "prognosis.rul", None),
        (retirement, "optimize_retirement", "retirement.optimize", candidates),
        (utility.ExpUtility, "value", "utility.value", None),
        (evaluation, "rul_errors", "evaluation.rul_errors", None),
        (evaluation, "calibration_curve", "evaluation.calibration_curve", None),
        (cli, "write_csv", "cli.write_csv", None),
        (cli, "atomic_write_text", "cli.atomic_write_text", written),
    ]


def layer_metrics(rec, red: dict, nproc: int) -> dict:
    by, cnt = red["by_name"], rec.counters()

    def calls(n):
        return by.get(n, {}).get("calls", 0)

    def incl(n):
        return by.get(n, {}).get("incl_s", 0.0)

    def self_s(n):
        return by.get(n, {}).get("self_s", 0.0)

    def per(total, count, scale=1.0):
        return total / count * scale if count else 0.0

    cols, dur, excl = red["cols"], red["dur"], red["self"]
    ids = {n: i for i, n in enumerate(rec.names)}
    names = cols["name"]
    parent = cols["parent"]
    has_parent = parent >= 0

    # simulate worker threads: busy while inside a top-level package call
    simulate = names == ids.get("cli.simulate", -1)
    under_simulate = np.zeros_like(simulate)
    under_simulate[has_parent] = simulate[parent[has_parent]]
    top = (~cols["main_thread"] & ~has_parent) | under_simulate
    sim_wall = float(dur[simulate].sum())

    update_requests = np.unique(cols["request"][names == ids.get("bench.update", -1)])
    in_update = np.isin(cols["request"], update_requests)
    prognosis_ids = [i for n, i in ids.items() if n.startswith("prognosis.")]

    steps = calls("filtering.step")
    m = {
        "dataset.load_cells_s": incl("dataset.load_cells"),
        "dataset.rows_parsed": cnt.get("dataset.rows_parsed", 0),
        "dataset.normalize_extend_s": incl("dataset.normalize") + incl("dataset.extend_linear"),
        "calib.fleet_calibrate_s": incl("calib.fleet_calibrate"),
        "calib.cells_fit": cnt.get("calib.cells_fit", 0),
        "calib.cells_failed": cnt.get("calib.cells_failed", 0),
        "filtering.step_calls": steps,
        "filtering.step_self_s": self_s("filtering.step"),
        "filtering.us_per_step": per(incl("filtering.step"), steps, 1e6),
        "filtering.resample_count": calls("filtering.systematic_resample"),
        "filtering.resample_ratio": per(calls("filtering.systematic_resample"), steps),
        "filtering.snapshot_save_s": incl("filtering.snapshot_save"),
        "filtering.snapshot_load_s": incl("filtering.snapshot_load"),
        "filtering.snapshot_bytes": cnt.get("filtering.snapshot_bytes", 0),
        "prognosis.project_calls": calls("prognosis.project"),
        "prognosis.project_self_s": self_s("prognosis.project"),
        "prognosis.rul_s": incl("prognosis.rul"),
        "prognosis.traj_entries": cnt.get("prognosis.traj_entries", 0),
        "prognosis.traj_bytes_computed": 8 * cnt.get("prognosis.traj_entries", 0),
        "retirement.optimize_calls": calls("retirement.optimize"),
        "retirement.candidates_scanned": cnt.get("retirement.candidates_scanned", 0),
        "retirement.us_per_candidate": per(
            incl("retirement.optimize"), cnt.get("retirement.candidates_scanned", 0), 1e6),
        "utility.value_calls": calls("utility.value"),
        "utility.value_self_s": self_s("utility.value"),
        "cli.write_csv_calls": calls("cli.write_csv"),
        "cli.write_csv_s": incl("cli.write_csv"),
        "cli.bytes_written": cnt.get("cli.bytes_written", 0),
        "cli.thread_busy_frac": per(float(dur[top].sum()), nproc * sim_wall),
        "evaluation.rul_errors_s": incl("evaluation.rul_errors"),
        "evaluation.calibration_curve_s": incl("evaluation.calibration_curve"),
        "prognosis.update_self_s": float(excl[in_update & np.isin(names, prognosis_ids)].sum()),
        "trace.spans": len(dur),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v["self_s"] for n, v in by.items() if n.startswith(layer + "."))
    return m


def traced_run(cls, work: Path, args, sizes, nproc: int):
    import tracing

    plain = cls(work / "plain", args.seed, sizes, nproc)
    plain.setup()
    plain_loop = run_loop(plain, 0.0, max_ops=plain.core_ops)
    plain.finish()

    cost_ns = tracing.span_cost_ns()
    rec = tracing.SpanRecorder()
    w = cls(work / "traced", args.seed, sizes, nproc, recorder=rec)
    with tracing.patched(rec, trace_targets()):
        w.setup()
        loop = run_loop(w, 0.0, max_ops=w.core_ops)
        w.finish()
    rec.save(work / "spans.npz")
    metrics = layer_metrics(rec, tracing.reduce_spans(rec, cost_ns), nproc)
    metrics["trace.overhead_s"] = loop["busy_s"] - plain_loop["busy_s"]
    metrics["trace.overhead_pct"] = 100.0 * metrics["trace.overhead_s"] / plain_loop["busy_s"]
    w.attempted += plain.attempted
    w.failed += plain.failed
    w.errors += plain.errors
    info = {
        "ops": loop["ops"],
        "untraced_busy_s": plain_loop["busy_s"],
        "traced_busy_s": loop["busy_s"],
        "span_cost_ns": {"inside": cost_ns[0], "outside": cost_ns[1]},
        "span_names": sorted(rec.names),
    }
    return w, metrics, info


def parse_args(spec: dict, argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="a few cells per workload (smoke test)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(spec, argv)
    import_package()
    import workloads

    import scipy

    sizes = workloads.TINY if args.tiny else workloads.FULL
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cls = workloads.WORKLOADS[args.workload]
    try:
        run = traced_run if args.trace else timed_run
        w, metrics, info = run(cls, run_dir, args, sizes, nproc)
    finally:
        for child in run_dir.iterdir():
            if child.is_dir():
                shutil.rmtree(child, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    bad = [n for n, v in metrics.items() if not math.isfinite(v)]
    if bad or set(metrics) != set(units):
        sys.exit(f"perfbench: metrics missing or not finite: {sorted(bad or set(units) ^ set(metrics))}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "attempted": w.attempted,
        "failed": w.failed,
        "errors": w.errors,
        **info,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    for name, value in metrics.items():
        print(f"{args.workload:13s} {name:32s} {value:16.6g} {units[name]}")
    print("record " + json.dumps({k: v for k, v in record.items() if k != "span_names"}))
    print(json.dumps({
        "correct": w.failed == 0,
        "attempted": w.attempted,
        "failed": w.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
