"""The three benchmark workloads, driven only through cell_twin's public API.

Each workload is a closed loop from one process: the next operation
starts when the previous one has returned.  A workload builds its inputs
from the seed in its constructor (never timed), rebuilds its state in
`setup()` (timed by the caller), and runs operation `i` of a
deterministic, unbounded sequence in `op(i)`.  The first `core_ops`
operations are the fixed work every run completes, whatever the speed;
the accuracy metric is computed over them only, so it does not depend on
how far a run got.  The package gets a fixed seed of its own; the run's
seed only changes the generated inputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.stats import norm

from cell_twin import calib, cli, dataset, filtering, prognosis, retirement, synth, utility
from cell_twin.errors import CellTwinError
from cell_twin.model import NoiseSpec

TRIGGER = 0.95
EOL = 0.5
STRIDE = 100
UPLOAD_CYCLES = 10
WINDOW_UPLOADS = 5         # uploads each online cell replays before restarting
QUERY_EVERY = 5            # one query in every block of five requests (4 updates : 1 query)
WEIGHT_TOL = 1e-9
UTILITY_TOL = 1e-12        # rounding slack on the [0, 1] utility range
# the package's own seed: the benchmark seed changes the inputs only
PACKAGE_SEED = 0
FLEET_LAYOUT_SEED = 20220826  # fixed pairing of fade-coefficient and exponent strata
SPLITS = (("train", 0.0), ("test1", -0.4), ("test2", -0.6))  # log10 a shift, as synth_fleet_csv


@dataclass(frozen=True)
class Sizes:
    setup_reps: int           # set-ups before the timed loop, and again after it,
    setup_seconds: float      # or more, until this much set-up time has passed
    fleet_cells_per_split: int
    fleet_shard_cells: int
    particles: int
    online_cells: int
    online_particles: int
    online_core_requests: int
    retire_cells_per_split: int
    retire_grid: int


FULL = Sizes(
    setup_reps=3,
    setup_seconds=2.0,
    fleet_cells_per_split=32,
    fleet_shard_cells=2,
    particles=1000,
    online_cells=96,
    online_particles=256,
    online_core_requests=1250,
    retire_cells_per_split=40,
    retire_grid=24,
)

# a few cells per workload, for the smoke test
TINY = Sizes(
    setup_reps=1,
    setup_seconds=0.0,
    fleet_cells_per_split=3,
    fleet_shard_cells=2,
    particles=200,
    online_cells=12,
    online_particles=64,
    online_core_requests=40,
    retire_cells_per_split=3,
    retire_grid=3,
)


def write_fleet_csv(path: Path, seed: int, cells_per_split: int) -> None:
    """Synthetic fleet in the ingestion schema, drawn with cell_twin.synth.

    Fade parameters are stratified draws from synth_fleet_csv's fleet
    distribution.  Cell i of a split sits in the i-th quantile stratum of
    log10 a and b is paired with a fixed permutation of its strata; the
    seed places each draw in the middle half of its stratum and makes the
    measurement noise.  Seeds then change the cells without changing the
    spread of lifetimes, which sets how much work a run is, and cell ids
    run from the longest-lived cell of a split to the shortest-lived.
    """
    rng = np.random.default_rng(seed)
    layout = np.random.default_rng(FLEET_LAYOUT_SEED)
    n = cells_per_split
    rows = []
    for split, shift in SPLITS:
        u_a = (np.arange(n) + 0.25 + 0.5 * rng.random(n)) / n
        u_b = (layout.permutation(n) + 0.25 + 0.5 * rng.random(n)) / n
        log10_a = norm.ppf(u_a, synth.FLEET_MEDIAN_LOG10_A + shift, 0.7)
        b = norm.ppf(u_b, synth.FLEET_MEDIAN_B, 0.2)
        for i in range(n):
            cycles, caps = synth.synth_trace(log10_a[i], b[i], nominal_ah=1.1, noise_std=0.003, rng=rng)
            cell_id = f"{split}_c{i:03d}"
            rows.extend([cell_id, split, int(k), repr(float(c)), "1.1"] for k, c in zip(cycles, caps))
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(dataset.CSV_COLUMNS)
        writer.writerows(rows)


def interleaved(items: list) -> list:
    """Items reordered so that every prefix samples the whole list evenly.

    Cells are generated from longest- to shortest-lived, so a run that
    stops part-way through a pass still does a representative mix.
    """
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    return [items[k] for k in sorted(range(len(items)), key=lambda k: (k * golden) % 1.0)]


def load_traces(path: Path) -> dict[str, tuple[dataset.Split, dataset.NormalizedTrace]]:
    """Load, normalize and extend every cell, as the ingest command does."""
    out = {}
    for cell in dataset.load_cells(path):
        trace = dataset.extend_linear(dataset.normalize(cell))
        out[cell.cell_id] = (cell.split, trace)
    return out


def true_eol(trace: dataset.NormalizedTrace) -> int:
    return dataset.trigger_cycle(trace, EOL)


def rul_ok(median: float, q05: float, q95: float) -> bool:
    return math.isfinite(median) and median >= 0 and q05 <= median <= q95


@dataclass
class OpResult:
    seconds: float            # wall time of the operation's timed part
    units: int                # work done: predictions, requests or decisions
    latencies: list[float]    # one entry per latency sample, in seconds


class Workload:
    name = ""
    unit = ""

    def __init__(self, work_dir: Path, seed: int, sizes: Sizes, nproc: int, recorder=None):
        self.work_dir = work_dir
        self.seed = seed
        self.sizes = sizes
        self.nproc = nproc
        self.recorder = recorder
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.abs_errors: list[float] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def request(self, i: int, span: str):
        """Tag the spans of operation i with its id and wrap them in `span`."""
        if self.recorder is None:
            return contextlib.nullcontext()
        self.recorder.request = i
        return self.recorder.span(span)

    @property
    def core_ops(self) -> int:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> OpResult:
        raise NotImplementedError

    def finish(self) -> None:
        """Work after the timed loop that the accuracy metric needs."""

    def info(self) -> dict:
        """Workload-specific facts for the run record."""
        return {}

    def rul_abs_error(self, stat) -> float:
        return float(stat(self.abs_errors)) if self.abs_errors else float("nan")


class FleetBatch(Workload):
    """ingest + calibrate, then `simulate` jobs on shards of the test cells, then `evaluate`.

    A shard is an output directory holding the calibrated fleet fit and a
    manifest with a few test cells, so one `simulate` job is a unit of the
    batch that can be timed alone.
    """

    name = "fleet_batch"
    unit = "predictions"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.root = self.work_dir / "fleet"
        self.root.mkdir(parents=True, exist_ok=True)
        self.csv = self.root / "fleet.csv"
        write_fleet_csv(self.csv, self.seed, self.sizes.fleet_cells_per_split)
        self.config = self.root / "config.json"
        self.config.write_text(json.dumps({
            "dataset": str(self.csv.resolve()),
            "output_dir": str((self.root / "out").resolve()),
            "seed": PACKAGE_SEED,
            "filter": {"n_particles": self.sizes.particles},
            "thresholds": {"trigger": TRIGGER, "eol": EOL, "retire_floor": EOL},
            "schedule": {"stride": STRIDE},
            "workers": self.nproc,
        }))
        self.base = self.root / "setup"
        self.shards: list[tuple[Path, list[str]]] = []
        self.expected: dict[str, int] = {}

    @property
    def core_ops(self) -> int:
        test_cells = (len(SPLITS) - 1) * self.sizes.fleet_cells_per_split
        return math.ceil(test_cells / self.sizes.fleet_shard_cells)

    def cli(self, i: int, *argv) -> int:
        with self.request(i, f"cli.{argv[0]}"), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([argv[0], "--config", str(self.config), *argv[1:]])
        return code

    def setup(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)
        for command in ("ingest", "calibrate"):
            self.attempted += 1
            if self.cli(-1, command, "--out", str(self.base)) != 0:
                self.fail(f"{command} exited non-zero")

    def build_shards(self) -> None:
        """Split the ingested test cells into shard directories (not timed)."""
        manifest = json.loads((self.base / "manifest.json").read_text())
        test_ids = sorted(c for c, s in manifest.items() if s != dataset.Split.TRAIN.value)
        for c in test_ids:
            trace = dataset.NormalizedTrace.from_json_dict(json.loads((self.base / "cells" / f"{c}.json").read_text()))
            start = dataset.trigger_cycle(trace, TRIGGER)
            self.expected[c] = 0 if start is None else len(range(start, int(trace.cycles[-1]) + 1, STRIDE))
        # shard j takes every n_shards-th test cell, so its cells have about the
        # same lifetime and keep the worker threads equally busy; the shards run
        # interleaved, since ids run from the longest- to the shortest-lived
        n_shards = math.ceil(len(test_ids) / self.sizes.fleet_shard_cells)
        for j in interleaved(list(range(n_shards))):
            ids = test_ids[j::n_shards]
            shard = self.root / "shards" / f"{j:03d}"
            shutil.rmtree(shard, ignore_errors=True)
            (shard / "cells").mkdir(parents=True)
            for c in ids:
                shutil.copyfile(self.base / "cells" / f"{c}.json", shard / "cells" / f"{c}.json")
            shutil.copyfile(self.base / "fleet_fit.json", shard / "fleet_fit.json")
            (shard / "manifest.json").write_text(json.dumps({c: manifest[c] for c in ids}))
            self.shards.append((shard, ids))

    def op(self, i: int) -> OpResult:
        if not self.shards:
            self.build_shards()
        shard, ids = self.shards[i % len(self.shards)]
        t0 = perf_counter()
        code = self.cli(i, "simulate", "--out", str(shard))
        seconds = perf_counter() - t0
        units = 0
        for c in ids:
            self.attempted += 1
            if code != 0:
                self.fail(f"simulate {shard.name} exited {code}")
                continue
            preds = json.loads((shard / "sim" / c / "predictions.json").read_text())
            units += len(preds)
            if len(preds) != self.expected[c]:
                self.fail(f"{c}: {len(preds)} predictions, schedule has {self.expected[c]}")
            elif not all(
                rul_ok(p["rul_median"], p["rul_quantiles"]["0.05"], p["rul_quantiles"]["0.95"]) for p in preds
            ):
                self.fail(f"{c}: RUL not finite, negative or outside its 5-95% band")
        return OpResult(seconds, units, [seconds])

    def finish(self) -> None:
        for shard, ids in self.shards:
            self.attempted += 1
            if self.cli(-2, "evaluate", "--out", str(shard)) != 0:
                self.fail(f"evaluate {shard.name} exited non-zero")
                continue
            for c in (c for c in ids if self.expected[c]):
                rows = np.loadtxt(shard / "metrics" / f"rul_errors_{c}.csv", delimiter=",", skiprows=1, ndmin=2)
                self.abs_errors.extend(np.abs(rows[:, 3]).tolist())


class OnlineMixed(Workload):
    """Stateless twin service: every request restores a cell's JSON snapshot.

    A fleet that puts cells into service at a steady rate and runs each to
    the end of its life holds cells of every age in equal measure, so each
    cell is enrolled at a stratified age spread over its whole measured
    life, from its first upload to the last window that still fits.  It
    then replays a window of WINDOW_UPLOADS uploads, restarting from its
    first snapshot when the window is used up.  The fleet thus always holds
    the same mix of young and old twins, and a request costs the same
    whether a run gets through two windows or twenty.

    Updates go to every twin in turn.  Queries go in turn to the twins
    whose whole window lies past their trigger cycle, because the package
    predicts RUL from the trigger on: `simulate` schedules its predictions
    from there, and `retire` decides there.
    """

    name = "online_mixed"
    unit = "requests"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.root = self.work_dir / "online"
        self.root.mkdir(parents=True, exist_ok=True)
        self.csv = self.root / "fleet.csv"
        write_fleet_csv(self.csv, self.seed, max(1, self.sizes.online_cells // len(SPLITS)))
        self.noise = NoiseSpec()
        self.rng = np.random.default_rng([self.seed, 1])
        self.query_slot = -1
        self.updates = 0
        self.queries = 0
        self.kind_ms: dict[str, list[float]] = {"update": [], "query": []}

    @property
    def core_ops(self) -> int:
        return self.sizes.online_core_requests

    def info(self) -> dict:
        return {
            "updates": self.updates,
            "queries": self.queries,
            "query_twins": len(self.query_ids),
            **{f"{kind}_ms": {f"p{q}": float(np.percentile(ms, q)) for q in (50, 95, 99)}
               for kind, ms in self.kind_ms.items() if ms},
        }

    def setup(self) -> None:
        with self.request(-1, "bench.setup"):
            self.traces = {c: t for c, (_, t) in load_traces(self.csv).items()}
            self.ids = sorted(self.traces)
            n = len(self.ids)
            jitter = np.random.default_rng([self.seed, 0]).random(n)
            age_strata = np.random.default_rng(FLEET_LAYOUT_SEED).permutation(n)
            self.first_snapshot, self.enrolled = {}, {}
            for j, c in enumerate(self.ids):
                trace = self.traces[c]
                last = int(trace.cycles[trace.measured_mask][-1])
                lo, hi = UPLOAD_CYCLES, last - WINDOW_UPLOADS * UPLOAD_CYCLES
                start = lo + int((age_strata[j] + 0.25 + 0.5 * jitter[j]) / n * max(hi - lo, 0))
                ens = filtering.init(filtering.FilterConfig(
                    n_particles=self.sizes.online_particles, seed=cli.cell_seed(PACKAGE_SEED, c)))
                filtering.assimilate(ens, trace, start, self.noise)
                self.first_snapshot[c] = ens.to_json()
                self.enrolled[c] = start
            self.store = dict(self.first_snapshot)
            self.cycle = dict(self.enrolled)
            self.true_eol = {c: true_eol(self.traces[c]) for c in self.ids}
            triggers = {c: dataset.trigger_cycle(self.traces[c], TRIGGER) for c in self.ids}
            self.query_ids = [c for c in self.ids if triggers[c] is not None and self.enrolled[c] >= triggers[c]]
            if not self.query_ids:
                raise CellTwinError("no online twin is enrolled past its trigger cycle")

    def op(self, i: int) -> OpResult:
        if i % QUERY_EVERY == 0:
            self.query_slot = i + int(self.rng.integers(QUERY_EVERY))
        if i == self.query_slot:
            return self.query(i, self.query_ids[self.queries % len(self.query_ids)])
        return self.update(i, self.ids[self.updates % len(self.ids)])

    def restored(self, c: str, last_cycle: int, weights: np.ndarray) -> bool:
        if last_cycle != self.cycle[c] or abs(float(np.sum(weights)) - 1.0) > WEIGHT_TOL:
            self.fail(f"{c}: snapshot restored at cycle {last_cycle} or with weights off 1")
            return False
        return True

    def update(self, i: int, c: str) -> OpResult:
        self.updates += 1
        if self.cycle[c] >= self.enrolled[c] + WINDOW_UPLOADS * UPLOAD_CYCLES:
            self.store[c], self.cycle[c] = self.first_snapshot[c], self.enrolled[c]
        upto = self.cycle[c] + UPLOAD_CYCLES
        self.attempted += 1
        try:
            with self.request(i, "bench.update"):
                t0 = perf_counter()
                ens = filtering.ParticleEnsemble.from_json(self.store[c])
                restored_cycle, restored_weights = ens.last_cycle, ens.weights
                filtering.assimilate(ens, self.traces[c], upto, self.noise)
                snapshot = ens.to_json()
                seconds = perf_counter() - t0
        except CellTwinError as e:
            self.fail(f"{c}: update raised {e!r}")
            return OpResult(0.0, 0, [])
        if self.restored(c, restored_cycle, restored_weights):
            if ens.last_cycle != upto:
                self.fail(f"{c}: update stopped at cycle {ens.last_cycle}, not {upto}")
        self.store[c], self.cycle[c] = snapshot, upto
        self.kind_ms["update"].append(seconds * 1e3)
        return OpResult(seconds, 1, [seconds])

    def query(self, i: int, c: str) -> OpResult:
        self.queries += 1
        self.attempted += 1
        try:
            with self.request(i, "bench.query"):
                t0 = perf_counter()
                ens = filtering.ParticleEnsemble.from_json(self.store[c])
                proj = prognosis.project(ens, ens.last_cycle, eol_threshold=EOL)
                pred = prognosis.rul(proj, ens.last_cycle)
                seconds = perf_counter() - t0
        except CellTwinError as e:
            self.fail(f"{c}: query raised {e!r}")
            return OpResult(0.0, 0, [])
        if self.restored(c, ens.last_cycle, ens.weights):
            if not rul_ok(pred.rul_median, pred.rul_quantiles[0.05], pred.rul_quantiles[0.95]):
                self.fail(f"{c}: RUL not finite, negative or outside its 5-95% band")
        if i < self.core_ops:
            self.abs_errors.append(abs(pred.rul_median - max(self.true_eol[c] - pred.at_cycle, 0)))
        self.kind_ms["query"].append(seconds * 1e3)
        return OpResult(seconds, 1, [seconds])


class RetireSweep(Workload):
    """Per triggered test cell: assimilate to the trigger, project once, then
    optimize_retirement for every utility spec of a seeded grid."""

    name = "retire_sweep"
    unit = "decisions"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.root = self.work_dir / "retire"
        self.root.mkdir(parents=True, exist_ok=True)
        self.csv = self.root / "fleet.csv"
        write_fleet_csv(self.csv, self.seed, self.sizes.retire_cells_per_split)
        self.noise = NoiseSpec()
        self.grid = self.spec_grid(np.random.default_rng([self.seed, 2]), self.sizes.retire_grid)

    @staticmethod
    def spec_grid(rng, n: int) -> list[list[utility.AttributeSpec]]:
        """Weights, risk tolerances and bounds perturbed around the case study."""
        grid = []
        for _ in range(n):
            w = float(rng.uniform(0.2, 0.8))
            specs = []
            for base, weight in zip(utility.default_attribute_specs(), (w, 1.0 - w)):
                u = base.utility
                specs.append(utility.AttributeSpec(
                    name=base.name,
                    utility=utility.make_exp_utility(
                        u.l_u * float(rng.uniform(0.95, 1.05)),
                        u.h_u * float(rng.uniform(0.95, 1.05)),
                        u.r * float(np.exp(rng.uniform(np.log(0.5), np.log(2.0)))),
                    ),
                    extractor=base.extractor,
                    weight=weight,
                ))
            grid.append(specs)
        return grid

    @property
    def core_ops(self) -> int:
        return (len(SPLITS) - 1) * self.sizes.retire_cells_per_split

    def setup(self) -> None:
        with self.request(-1, "bench.setup"):
            traces = load_traces(self.csv)
            train = [t for s, t in traces.values() if s is dataset.Split.TRAIN]
            self.fit = calib.fleet_calibrate(train)
        cells = sorted(c for c, (s, _) in traces.items() if s is not dataset.Split.TRAIN)
        self.cells = interleaved(cells)
        self.traces = {c: t for c, (_, t) in traces.items()}

    def op(self, i: int) -> OpResult:
        c = self.cells[i % len(self.cells)]
        trace = self.traces[c]
        current = dataset.trigger_cycle(trace, TRIGGER)
        self.attempted += 1
        latencies = []
        try:
            with self.request(i, "bench.track"):
                t0 = perf_counter()
                ens = filtering.init(filtering.FilterConfig(
                    n_particles=self.sizes.particles,
                    init_log10_a=self.fit.median_log10_a,
                    init_b=self.fit.median_b,
                    seed=cli.cell_seed(PACKAGE_SEED, c),
                ))
                filtering.assimilate(ens, trace, current, self.noise)
                proj = prognosis.project(ens, current, eol_threshold=EOL)
                pred = prognosis.rul(proj, current)
                seconds = perf_counter() - t0
        except CellTwinError as e:
            self.fail(f"{c}: tracking raised {e!r}")
            return OpResult(0.0, 0, [])
        if i < self.core_ops:
            self.abs_errors.append(abs(pred.rul_median - max(true_eol(trace) - current, 0)))
        units = 0
        for specs in self.grid:
            self.attempted += 1
            try:
                with self.request(i, "bench.decision"):
                    t0 = perf_counter()
                    d = retirement.optimize_retirement(
                        trace, ens, specs, current,
                        trigger_threshold=TRIGGER, retire_floor=EOL, eol_threshold=EOL, proj=proj,
                    )
                    dt = perf_counter() - t0
            except CellTwinError as e:
                self.fail(f"{c}: optimize_retirement raised {e!r}")
                continue
            seconds += dt
            latencies.append(dt)
            units += 1
            self.check_decision(c, d)
        return OpResult(seconds, units, latencies)

    def check_decision(self, c: str, d: retirement.RetirementDecision) -> None:
        combined = np.array([p.combined for p in d.utility_curve])
        phis = np.array([v for p in d.utility_curve for v in p.phi.values()])
        in_range = np.all((combined >= -UTILITY_TOL) & (combined <= 1 + UTILITY_TOL)) and np.all(
            (phis >= -UTILITY_TOL) & (phis <= 1 + UTILITY_TOL))
        if d.optimal_cycle not in d.candidates:
            self.fail(f"{c}: optimal cycle {d.optimal_cycle} is not a candidate")
        elif d.optimal_utility != combined.max():
            self.fail(f"{c}: optimal utility {d.optimal_utility} is not the curve maximum {combined.max()}")
        elif not in_range:
            self.fail(f"{c}: utility outside [0, 1]")


WORKLOADS = {w.name: w for w in (FleetBatch, OnlineMixed, RetireSweep)}
