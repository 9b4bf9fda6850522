"""Synthetic fleet generation for demos and testing.

Produces power-law fade trajectories with an early-life capacity rise
and measurement noise, written in the same CSV schema the ingestion
pipeline consumes.  Fleet parameter dispersion is centered on the
median fade parameters (log10 a = -15.77, b = 5.45).
"""

from __future__ import annotations

import csv

import numpy as np

from .model import _LN10, fade_q

FLEET_MEDIAN_LOG10_A = -15.77
FLEET_MEDIAN_B = 5.45


def synth_trace(
    log10_a: float,
    b: float,
    nominal_ah: float = 1.1,
    noise_std: float = 0.0,
    stop_q: float = 0.8,
    max_cycles: int = 5000,
    rise_cycles: int = 50,
    rise_depth: float = 0.01,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One cell's (cycles, capacity_ah), cycled until q drops to stop_q.

    The early-life rise ramps capacity up over `rise_cycles` cycles by
    `rise_depth`, mimicking LFP break-in.
    """
    k = np.arange(1, max_cycles + 1, dtype=float)
    q = fade_q(_LN10 * log10_a, b, np.log(k))
    if rise_cycles > 0:
        q = q + np.where(k < rise_cycles, -rise_depth * (1.0 - k / rise_cycles), 0.0)
    if noise_std > 0:
        if rng is None:
            raise ValueError("rng required when noise_std > 0")
        q = q + rng.normal(0.0, noise_std, size=len(k))
    crossed = np.flatnonzero(q <= stop_q)
    end = int(crossed[0]) + 1 if len(crossed) else max_cycles
    return np.arange(1, end + 1), q[:end] * nominal_ah


def synth_fleet_csv(
    path,
    n_train: int = 41,
    n_test1: int = 42,
    n_test2: int = 41,
    seed: int = 0,
    noise_std: float = 0.003,
    spread_log10_a: float = 0.7,
    spread_b: float = 0.2,
    nominal_ah: float = 1.1,
) -> list[str]:
    """Write a synthetic fleet CSV; returns the generated cell ids.

    Parameters are drawn so lifetimes disperse like a real fleet; test
    cells draw from a slightly longer-lived distribution (shifted
    log10 a) to mimic train/test distribution shift.
    """
    rng = np.random.default_rng(seed)
    cells = []
    rows = []
    groups = [("train", n_train, 0.0), ("test1", n_test1, -0.4), ("test2", n_test2, -0.6)]
    for split, count, shift in groups:
        for i in range(count):
            cell_id = f"{split}_c{i:03d}"
            log10_a = rng.normal(FLEET_MEDIAN_LOG10_A + shift, spread_log10_a)
            b = rng.normal(FLEET_MEDIAN_B, spread_b)
            b = abs(b) if b != 0 else FLEET_MEDIAN_B
            cycles, caps = synth_trace(
                log10_a, b, nominal_ah=nominal_ah, noise_std=noise_std, rng=rng
            )
            cells.append(cell_id)
            for k, c in zip(cycles, caps):
                rows.append([cell_id, split, int(k), repr(float(c)), repr(nominal_ah)])
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["cell_id", "split", "cycle", "discharge_capacity_ah", "nominal_capacity_ah"])
        writer.writerows(rows)
    return cells
