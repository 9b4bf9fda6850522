"""Synthetic fleet generation for demos and testing.

Produces power-law fade trajectories with an early-life capacity rise
and measurement noise, written in the same CSV schema the ingestion
pipeline consumes.  Fleet parameter dispersion is centered on the
median fade parameters (log10 a = -15.77, b = 5.45).
"""

from __future__ import annotations

import csv

import numpy as np

from .dataset import CSV_COLUMNS
from .model import _LN10, fade_q

FLEET_MEDIAN_LOG10_A = -15.77
FLEET_MEDIAN_B = 5.45


def synth_trace(
    log10_a: float,
    b: float,
    nominal_ah: float = 1.1,
    noise_std: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One cell's (cycles, capacity_ah) over cycles 1..5000, cut at the first q <= 0.8.

    An early-life rise ramps capacity up by 0.01 over the first 50 cycles,
    mimicking LFP break-in.
    """
    k = np.arange(1, 5001, dtype=float)
    q = fade_q(_LN10 * log10_a, b, np.log(k)) + np.where(k < 50, -0.01 * (1.0 - k / 50), 0.0)
    if noise_std > 0:
        if rng is None:
            raise ValueError("rng required when noise_std > 0")
        q = q + rng.normal(0.0, noise_std, size=len(k))
    crossed = np.flatnonzero(q <= 0.8)
    end = int(crossed[0]) + 1 if len(crossed) else len(k)
    return np.arange(1, end + 1), q[:end] * nominal_ah


def synth_fleet_csv(
    path,
    n_train: int = 41,
    n_test1: int = 42,
    n_test2: int = 41,
    seed: int = 0,
) -> list[str]:
    """Write a synthetic fleet CSV; returns the generated cell ids.

    Each cell draws log10 a ~ N(-15.77 + shift, 0.7) and b ~ N(5.45, 0.2),
    so lifetimes disperse like a real fleet; test cells shift log10 a by
    -0.4 (test1) or -0.6 (test2) to mimic train/test distribution shift.
    Capacities carry noise of std 0.003 on a 1.1 Ah cell.
    """
    rng = np.random.default_rng(seed)
    cells = []
    rows = []
    groups = [("train", n_train, 0.0), ("test1", n_test1, -0.4), ("test2", n_test2, -0.6)]
    for split, count, shift in groups:
        for i in range(count):
            cell_id = f"{split}_c{i:03d}"
            log10_a = rng.normal(FLEET_MEDIAN_LOG10_A + shift, 0.7)
            b = rng.normal(FLEET_MEDIAN_B, 0.2)
            b = abs(b) if b != 0 else FLEET_MEDIAN_B
            cycles, caps = synth_trace(log10_a, b, noise_std=0.003, rng=rng)
            cells.append(cell_id)
            for k, c in zip(cycles, caps):
                rows.append([cell_id, split, int(k), repr(float(c)), "1.1"])
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)
    return cells
