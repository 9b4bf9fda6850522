"""Prediction-quality metrics: RUL error series and reliability curves.

The reliability (calibration) curve checks whether central predictive
intervals cover observations at their nominal rate: for each confidence
level c, the fraction of observations inside the equal-tailed
c-probability interval is plotted against c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import NormalizedTrace, trigger_cycle
from .errors import LengthMismatch, NoTrueEol
from .prognosis import RulPrediction


@dataclass(frozen=True)
class RulErrorPoint:
    cycle: int
    true_rul: float
    predicted_rul_median: float
    signed_error: float


@dataclass(frozen=True)
class RulErrorSeries:
    cell_id: str
    points: list[RulErrorPoint]
    true_eol: int


@dataclass(frozen=True)
class CalibrationCurve:
    levels: np.ndarray
    observed: np.ndarray
    n_samples: int
    area_deviation: float


def rul_errors(
    trace: NormalizedTrace,
    predictions: list[RulPrediction],
    eol_threshold: float = 0.5,
) -> RulErrorSeries:
    """Signed RUL prediction errors against the trace's first threshold crossing."""
    true_eol = trigger_cycle(trace, eol_threshold)
    if true_eol is None:
        raise NoTrueEol(f"{trace.cell_id}: trace never crosses {eol_threshold}")
    points = []
    for pred in predictions:
        true_rul = max(true_eol - pred.at_cycle, 0)
        points.append(
            RulErrorPoint(
                cycle=pred.at_cycle,
                true_rul=float(true_rul),
                predicted_rul_median=pred.rul_median,
                signed_error=pred.rul_median - true_rul,
            )
        )
    return RulErrorSeries(cell_id=trace.cell_id, points=points, true_eol=true_eol)


def _quantiles_of(dist, levels: np.ndarray) -> np.ndarray:
    fn = getattr(dist, "quantile", None) or getattr(dist, "ppf", None)
    if fn is None:
        raise TypeError(f"{dist!r} exposes neither quantile() nor ppf()")
    return np.asarray(fn(levels), dtype=float)


def calibration_curve(
    predictive_dists: list,
    observations: list[float],
    levels=tuple(np.round(np.arange(0.1, 1.0, 0.1), 10)),
) -> CalibrationCurve:
    """Observed coverage of central predictive intervals vs nominal level.

    `predictive_dists` are per-observation distributions exposing
    quantile() (or scipy-style ppf()) that accepts a 1-D array of levels.
    """
    if len(predictive_dists) != len(observations):
        raise LengthMismatch(
            f"{len(predictive_dists)} distributions vs {len(observations)} observations"
        )
    levels = np.asarray(levels, dtype=float)
    if np.any((levels <= 0) | (levels >= 1)):
        raise ValueError("levels must lie in (0, 1)")
    obs = np.asarray(observations, dtype=float)[:, None]
    n = len(obs)
    ends = np.concatenate([(1.0 - levels) / 2.0, (1.0 + levels) / 2.0])
    q = np.array([_quantiles_of(dist, ends) for dist in predictive_dists]).reshape(n, 2, len(levels))
    observed = ((q[:, 0] <= obs) & (obs <= q[:, 1])).sum(axis=0) / n
    return CalibrationCurve(
        levels=levels,
        observed=observed,
        n_samples=n,
        area_deviation=float(np.mean(np.abs(observed - levels))),
    )
