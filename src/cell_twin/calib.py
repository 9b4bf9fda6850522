"""Offline fleet calibration of the power-law fade model.

Per-cell fits start from the log-linearization ln(1 - q) = ln a + b ln k
(exact on noise-free data, no initialization needed) and are polished
against the q-space squared error.  Fleet medians seed the online
filter; total-Ah percentiles inform the throughput utility bounds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .dataset import NormalizedTrace
from .errors import DataError, InsufficientFade
from .model import fade_q

FADE_EPS = 1e-4       # points with q >= 1 - FADE_EPS carry no usable fade signal
MIN_FIT_POINTS = 10
AH_PERCENTILES = (5, 50, 95)


@dataclass(frozen=True)
class FleetFit:
    per_cell: dict[str, tuple[float, float, float]]  # cell_id -> (log10_a, b, rmse)
    median_log10_a: float
    median_b: float
    ah_percentiles: dict[int, float]                 # percentile -> Ah
    failed_cells: tuple[str, ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "median_log10_a": self.median_log10_a,
                "median_b": self.median_b,
                "ah_percentiles": {str(p): v for p, v in self.ah_percentiles.items()},
                "failed_cells": list(self.failed_cells),
                "per_cell": [
                    {"cell_id": c, "log10_a": la, "b": b, "rmse": r}
                    for c, (la, b, r) in sorted(self.per_cell.items())
                ],
            }
        )


def lower_percentile(values, p: float) -> float:
    """Lower empirical percentile: the ceil(p/100 * n)-th smallest value (p = 50 is the lower median)."""
    v = np.sort(np.asarray(values, dtype=float))
    return float(v[math.ceil(p / 100 * len(v)) - 1])


def fit_power_law(trace: NormalizedTrace) -> tuple[float, float, float]:
    """Fit (log10 a, b) to the measured portion of a trace.

    A variance-weighted log-linear OLS on ln(1 - q) = ln a + b ln k gives
    the deterministic, initialization-free starting point (exact on
    noise-free data).  A Levenberg-Marquardt polish then
    minimizes the q-space squared error: the log-space fit is badly
    biased by near-unity points whose noise rivals the fade signal, and
    the polish removes that bias while leaving exact fits untouched.
    Returns (log10 a, b, rmse), the RMSE of the reconstructed q over the
    qualifying points.  Extrapolated tail points are excluded.  A fit whose
    exponent is not positive, or whose a is not a positive float, is no fade
    curve and raises InsufficientFade.
    """
    mask = trace.measured_mask & (trace.q < 1.0 - FADE_EPS)
    if int(mask.sum()) < MIN_FIT_POINTS:
        raise InsufficientFade(
            f"{trace.cell_id}: only {int(mask.sum())} points below 1 - {FADE_EPS}"
        )
    k = trace.cycles[mask].astype(float)
    q = trace.q[mask]
    ln_k = np.log(k)
    y = np.log(1.0 - q)
    sw = 1.0 - q  # delta method: std of ln(1-q) scales as 1/(1-q)
    design = np.stack([ln_k, np.ones(len(k))], axis=1)
    b, ln_a = np.linalg.lstsq(design * sw[:, None], y * sw, rcond=None)[0]

    def resid(p):
        return fade_q(p[0], p[1], ln_k) - q

    ln_a, b = least_squares(resid, [ln_a, b], method="lm").x
    a = float(np.exp(ln_a))
    if not (b > 0 and 0.0 < a < math.inf):
        raise InsufficientFade(f"{trace.cell_id}: fit is not a fade curve (a={a!r}, b={float(b)!r})")
    q_hat = fade_q(ln_a, b, ln_k)
    rmse = float(np.sqrt(np.mean((q_hat - q) ** 2)))
    return math.log10(a), float(b), rmse


def total_measured_ah(trace: NormalizedTrace) -> float:
    """Total discharge throughput over the measured (non-extrapolated) life."""
    m = trace.measured_mask
    return float(np.sum(trace.q[m]) * trace.q0_ah)


def fleet_calibrate(train: list[NormalizedTrace]) -> FleetFit:
    """Fit every training cell and reduce to fleet medians and Ah percentiles."""
    per_cell = {}
    failed = []
    ahs = []
    for trace in train:
        try:
            per_cell[trace.cell_id] = fit_power_law(trace)
        except InsufficientFade:
            failed.append(trace.cell_id)
            continue
        ahs.append(total_measured_ah(trace))
    if not per_cell:
        raise DataError("no training cell produced a usable fit")
    las = [v[0] for v in per_cell.values()]
    bs = [v[1] for v in per_cell.values()]
    return FleetFit(
        per_cell=per_cell,
        median_log10_a=lower_percentile(las, 50),
        median_b=lower_percentile(bs, 50),
        ah_percentiles={p: lower_percentile(ahs, p) for p in AH_PERCENTILES},
        failed_cells=tuple(failed),
    )
