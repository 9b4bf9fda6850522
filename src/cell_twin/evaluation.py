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

CALIBRATION_LEVELS = tuple(np.round(np.arange(0.1, 1.0, 0.1), 10))  # nominal levels 0.1, 0.2, ..., 0.9


@dataclass(frozen=True)
class RulErrorSeries:
    """One entry per prediction, in the order given."""
    cell_id: str
    cycles: np.ndarray                 # int, the cycle each prediction was made at
    true_rul: np.ndarray               # float, cycles from there to the true EOL (0 once past it)
    predicted_rul_median: np.ndarray
    signed_error: np.ndarray           # predicted minus true
    true_eol: int


@dataclass(frozen=True)
class CalibrationCurve:
    levels: np.ndarray
    observed: np.ndarray
    n_samples: int
    area_deviation: float


def rul_errors(trace: NormalizedTrace, at_cycles, rul_medians, eol_threshold: float = 0.5) -> RulErrorSeries:
    """Signed errors of the median RULs predicted at `at_cycles` against the trace's first threshold crossing."""
    if len(at_cycles) != len(rul_medians):
        raise LengthMismatch(f"{len(at_cycles)} prediction cycles vs {len(rul_medians)} RUL medians")
    true_eol = trigger_cycle(trace, eol_threshold)
    if true_eol is None:
        raise NoTrueEol(f"{trace.cell_id}: trace never crosses {eol_threshold}")
    cycles, rul_medians = np.asarray(at_cycles), np.asarray(rul_medians, dtype=float)
    true_rul = np.maximum(true_eol - cycles, 0).astype(float)
    return RulErrorSeries(trace.cell_id, cycles, true_rul, rul_medians, rul_medians - true_rul, true_eol)


def calibration_curve(predictive_dists: list, observations: list[float]) -> CalibrationCurve:
    """Observed coverage of central predictive intervals at each of CALIBRATION_LEVELS.

    `predictive_dists` are per-observation distributions whose quantile(),
    like `EolDistribution.quantile`, accepts a 1-D array of levels.
    """
    if len(predictive_dists) != len(observations):
        raise LengthMismatch(
            f"{len(predictive_dists)} distributions vs {len(observations)} observations"
        )
    levels = np.array(CALIBRATION_LEVELS)
    obs = np.asarray(observations, dtype=float)[:, None]
    n = len(obs)
    ends = np.concatenate([(1.0 - levels) / 2.0, (1.0 + levels) / 2.0])
    q = np.array([dist.quantile(ends) for dist in predictive_dists]).reshape(n, 2, len(levels))
    observed = ((q[:, 0] <= obs) & (obs <= q[:, 1])).sum(axis=0) / n
    return CalibrationCurve(
        levels=levels,
        observed=observed,
        n_samples=n,
        area_deviation=float(np.mean(np.abs(observed - levels))),
    )
