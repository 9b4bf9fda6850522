"""Capacity projection and end-of-life / RUL distributions.

Each particle's parameters are frozen and its deterministic power-law
trajectory rolled forward; the end of life per particle comes from the
analytic inversion of the fade model, so the empirical EOL distribution
is exact for the ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CellTwinError
from .filtering import ParticleEnsemble
from .model import _LN10, eol_cycles, fade_q


BAND_BLOCK = 64  # columns per band block: band memory is particles x BAND_BLOCK, whatever the horizon
BAND_LEVELS = (0.05, 0.5, 0.95)
MAX_HORIZON_SPAN = 100_000  # cycles a projection may span; a 50-cycle twin's default prior spans about 8,200


@dataclass(frozen=True)
class CapacityProjection:
    from_cycle: int
    horizon_cycle: int
    per_particle_eol: np.ndarray
    eol_weights: np.ndarray
    eol_threshold: float
    ln_a: np.ndarray                           # own arrays: `step` changes the ensemble in place
    b: np.ndarray

    @property
    def cycles(self) -> np.ndarray:
        return np.arange(self.from_cycle, self.horizon_cycle + 1)

    @cached_property
    def bands(self) -> np.ndarray:
        """(3, horizon) 5/50/95% bands per cycle, floored at eol_threshold; built on first read."""
        return _bands(self)

    @property
    def q05(self) -> np.ndarray:
        return self.bands[0]

    @property
    def median_q(self) -> np.ndarray:
        return self.bands[1]

    @property
    def q95(self) -> np.ndarray:
        return self.bands[2]


@dataclass(frozen=True)
class RulPrediction:
    at_cycle: int
    rul_median: float
    rul_quantiles: dict[float, float]


def lower_quantiles(values: np.ndarray, weights: np.ndarray, levels) -> np.ndarray:
    """Weighted lower quantiles of the particles on axis 0 of 1-D or 2-D `values`.

    Per level in [0, 1] and column, the first value of a stable sort whose
    running sum of `weights` reaches the level; the last running sum counts
    as 1, so level 1 gives the largest value.  The result has the shape of
    `levels` followed by the columns of `values`: a float level on 1-D values
    gives a float.
    """
    order = np.argsort(values, axis=0, kind="stable")
    cum = weights[order]
    np.cumsum(cum, axis=0, out=cum)
    cum[-1] = 1.0
    levels = np.asarray(levels)
    first = (cum < levels.reshape(levels.shape + (1,) * cum.ndim)).sum(axis=levels.ndim)
    cols = (np.arange(values.shape[1]),) if values.ndim == 2 else ()
    return values[(order[(first, *cols)], *cols)]


@dataclass(frozen=True)
class EolDistribution:
    """Weighted empirical distribution over per-particle end-of-life cycles.

    Also serves RUL and any other per-particle value; weights sum to 1.
    """

    eols: np.ndarray
    weights: np.ndarray

    def quantile(self, level: float | np.ndarray) -> float | np.ndarray:
        """`lower_quantiles` at `level`, a float or a 1-D array of levels."""
        return lower_quantiles(self.eols, self.weights, level)


def _bands(proj: CapacityProjection) -> np.ndarray:
    """Per-cycle `lower_quantiles` at BAND_LEVELS of the frozen-parameter trajectories, BAND_BLOCK columns at a time.

    Each block is built with its particles in the order of its first column,
    so the stable per-column argsort works on nearly sorted data.  Particles
    tied in the first column keep their order, so identical particles (as
    after a resample) add their weights in the order a stable sort of each
    whole column would, and the bands are bitwise those of that sort.
    """
    ln_k = np.log(proj.cycles)
    out = np.empty((len(BAND_LEVELS), len(ln_k)))
    for start in range(0, len(ln_k), BAND_BLOCK):
        rows = np.argsort(fade_q(proj.ln_a, proj.b, ln_k[start]), kind="stable")
        traj = fade_q(proj.ln_a[rows, None], proj.b[rows, None], ln_k[start:start + BAND_BLOCK])
        out[:, start:start + BAND_BLOCK] = lower_quantiles(traj, proj.eol_weights[rows], BAND_LEVELS)
    return np.maximum(out, proj.eol_threshold, out=out)


def project(
    ens: ParticleEnsemble,
    from_cycle: int,
    eol_threshold: float = 0.5,
) -> CapacityProjection:
    """Freeze every particle's parameters and summarize its end of life.

    The horizon is capped at the weighted 99th percentile of the per-particle
    analytic EOLs to bound output size (CellTwinError if that lies more than
    MAX_HORIZON_SPAN cycles past `from_cycle`, or is not finite).
    The 5/50/95% bands (per-cycle `lower_quantiles`) are built only when read.
    """
    if from_cycle < ens.last_cycle:
        raise ValueError("cannot project from before the last assimilated cycle")
    ln_a = _LN10 * ens.log10_a
    eols = eol_cycles(ln_a, ens.b, eol_threshold)
    eol99 = lower_quantiles(eols, ens.weights, 0.99)
    if not eol99 - from_cycle <= MAX_HORIZON_SPAN:  # also rejects inf and NaN
        raise CellTwinError(f"cannot project from cycle {from_cycle}: the weighted 99th-percentile EOL {eol99} "
                            f"lies more than {MAX_HORIZON_SPAN} cycles ahead")
    horizon = int(math.ceil(eol99))
    return CapacityProjection(
        from_cycle=from_cycle,
        horizon_cycle=max(horizon, from_cycle),
        per_particle_eol=eols,
        eol_weights=ens.weights.copy(),
        eol_threshold=eol_threshold,
        ln_a=ln_a,
        b=ens.b.copy(),
    )


def rul(proj: CapacityProjection, at_cycle: int) -> RulPrediction:
    """Remaining useful life distribution at `at_cycle`, clamped at zero, with its 5/95% levels."""
    rul_cycles = np.maximum(proj.per_particle_eol - at_cycle, 0.0)
    quantiles = dict(zip(BAND_LEVELS, lower_quantiles(rul_cycles, proj.eol_weights, BAND_LEVELS).tolist()))
    return RulPrediction(at_cycle=at_cycle, rul_median=quantiles.pop(0.5), rul_quantiles=quantiles)
