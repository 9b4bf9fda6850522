"""Capacity projection and end-of-life / RUL distributions.

Each particle's parameters are frozen and its deterministic power-law
trajectory rolled forward; the end of life per particle comes from the
analytic inversion of the fade model, so the empirical EOL distribution
is exact for the ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filtering import ParticleEnsemble
from .model import _LN10, eol_cycles, fade_q


@dataclass(frozen=True)
class CapacityProjection:
    from_cycle: int
    horizon_cycle: int
    median_q: np.ndarray                       # per cycle, floored at eol_threshold
    q05: np.ndarray                            # 5% band, floored likewise
    q95: np.ndarray                            # 95% band, floored likewise
    per_particle_eol: np.ndarray
    eol_weights: np.ndarray
    eol_threshold: float

    @property
    def cycles(self) -> np.ndarray:
        return np.arange(self.from_cycle, self.horizon_cycle + 1)


@dataclass(frozen=True)
class RulPrediction:
    at_cycle: int
    rul_median: float
    rul_quantiles: dict[float, float]
    eol_threshold: float


def _lower_index(cum: np.ndarray, level: float):
    """First row, per column of cumulative weights `cum` (last row 1), to reach `level`."""
    return np.minimum((cum < level).sum(axis=0), len(cum) - 1)


class EolDistribution:
    """Weighted empirical distribution over per-particle end-of-life cycles.

    Also serves RUL and any other per-particle value; weights sum to 1.
    """

    def __init__(self, eols: np.ndarray, weights: np.ndarray):
        order = np.argsort(eols, kind="stable")
        self.eols = np.asarray(eols, dtype=float)[order]
        self.weights = np.asarray(weights, dtype=float)[order]
        self.cum = np.cumsum(self.weights)
        self.cum[-1] = 1.0

    def cdf(self, x: float) -> float:
        """Right-continuous CDF: total weight of EOLs <= x."""
        idx = int(np.searchsorted(self.eols, x, side="right"))
        return 0.0 if idx == 0 else float(self.cum[idx - 1])

    def quantile(self, level: float) -> float:
        """Lower quantile: smallest EOL with cumulative weight >= level."""
        return float(self.eols[_lower_index(self.cum, level)])


def weighted_quantile(values: np.ndarray, weights: np.ndarray, level: float) -> float:
    """Lower weighted quantile: smallest value with cumulative weight >= level.

    `weights` must sum to 1 (see `EolDistribution`).
    """
    return EolDistribution(values, weights).quantile(level)


def project(
    ens: ParticleEnsemble,
    from_cycle: int,
    eol_threshold: float = 0.5,
) -> CapacityProjection:
    """Roll every particle forward deterministically and summarize.

    The 5/50/95% bands are per-cycle weighted lower quantiles, the rule of
    `EolDistribution.quantile`.  The horizon is capped at the weighted 99th
    percentile of the per-particle analytic EOLs to bound output size.
    """
    if from_cycle < ens.last_cycle:
        raise ValueError("cannot project from before the last assimilated cycle")
    ln_a = _LN10 * ens.log10_a
    eols = eol_cycles(ln_a, ens.b, eol_threshold)
    horizon = int(math.ceil(weighted_quantile(eols, ens.weights, 0.99)))
    horizon = max(horizon, from_cycle)

    cycles = np.arange(from_cycle, horizon + 1)
    # (n_particles, n_cycles) trajectory matrix, frozen parameters
    traj = fade_q(ln_a[:, None], ens.b[:, None], np.log(cycles))

    order = np.argsort(traj, axis=0, kind="stable")
    cum = ens.weights[order]
    np.cumsum(cum, axis=0, out=cum)  # in place: one particles x horizon buffer fewer
    cum[-1, :] = 1.0
    cols = np.arange(len(cycles))

    def band(level: float) -> np.ndarray:
        return np.maximum(traj[order[_lower_index(cum, level), cols], cols], eol_threshold)

    return CapacityProjection(
        from_cycle=from_cycle,
        horizon_cycle=horizon,
        median_q=band(0.5),
        q05=band(0.05),
        q95=band(0.95),
        per_particle_eol=eols,
        eol_weights=ens.weights.copy(),
        eol_threshold=eol_threshold,
    )


def eol_distribution(proj: CapacityProjection) -> EolDistribution:
    return EolDistribution(proj.per_particle_eol, proj.eol_weights)


def rul(proj: CapacityProjection, at_cycle: int) -> RulPrediction:
    """Remaining useful life distribution at `at_cycle`, clamped at zero, with its 5/95% levels."""
    dist = EolDistribution(np.maximum(proj.per_particle_eol - at_cycle, 0.0), proj.eol_weights)
    return RulPrediction(
        at_cycle=at_cycle,
        rul_median=dist.quantile(0.5),
        rul_quantiles={lvl: dist.quantile(lvl) for lvl in (0.05, 0.95)},
        eol_threshold=proj.eol_threshold,
    )
