import math

import numpy as np
import pytest
from scipy.special import ndtri

from cell_twin import NormalizedTrace
from cell_twin.evaluation import INTERVAL_LEVELS
from cell_twin.model import fade_q


def normal(mu, sigma):
    """A normal predictive distribution's quantiles at INTERVAL_LEVELS, as `calibration_curve` takes them.

    `ndtri(q) * sigma + mu` is what `scipy.stats.norm(mu, sigma).ppf` computes, without building a frozen
    distribution per call (tens of thousands per calibration-oracle test)."""
    return ndtri(INTERVAL_LEVELS) * sigma + mu


def power_law_trace(log10_a=-15.77, b=5.45, n_cycles=500, noise_std=0.0, seed=None, cell_id="syn"):
    """Noise-free (or noisy) trace generated straight from the fade model."""
    ks = np.arange(1, n_cycles + 1)
    qs = fade_q(math.log(10.0 ** log10_a), b, np.log(ks.astype(float)))
    if noise_std > 0:
        rng = np.random.default_rng(seed)
        qs = qs + rng.normal(0, noise_std, n_cycles)
    return NormalizedTrace(cell_id, ks, np.clip(qs, None, 1.14), 1.1)


def rise_then_fade_trace(cell_id="bent"):
    """A deep break-in rise (0.68 -> 1 over 86 cycles), flat, then a linear fade from cycle 187.

    The q-space fit of 1 - a*k**b to it ends at b <= 0: no fade curve.
    """
    ks = np.arange(1, 301)
    q = np.where(ks <= 86, 0.68 + (1.0 - 0.68) * (ks - 1) / 85, 1.0)
    q = np.where(ks >= 187, 1.0 - 9.15e-4 * (ks - 186), q)
    return NormalizedTrace(cell_id, ks, q, 1.1)


@pytest.fixture
def median_params():
    """(ln a, b) of the fleet-median fade curve, log10 a = -15.77 and b = 5.45."""
    return math.log(10.0 ** -15.77), 5.45
