"""Power-law capacity-fade model.

Normalized capacity after k cycles is modeled as q(k) = 1 - a * k**b.
The fade coefficient a lives at a scale around 1e-16, so all internal
arithmetic runs in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroFadeCoefficient

_LN10 = math.log(10.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class PowerLawParams:
    a: float  # fade coefficient, >= 0
    b: float  # fade exponent, > 0

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("fade coefficient must be non-negative")
        if self.b <= 0:
            raise ValueError("fade exponent must be positive")

    @property
    def log10_a(self) -> float:
        return math.log10(self.a)

    @classmethod
    def from_log10(cls, log10_a: float, b: float) -> "PowerLawParams":
        return cls(a=10.0 ** log10_a, b=b)


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement and process noise scales for the online filter."""

    sigma_meas: float = 0.01      # std of capacity measurement noise
    sigma_log_a: float = 0.05     # random-walk std on log10(a) per cycle
    sigma_b: float = 0.05         # random-walk std on b per cycle

    def __post_init__(self):
        if min(self.sigma_meas, self.sigma_log_a, self.sigma_b) <= 0:
            raise ValueError("all noise scales must be strictly positive")


def fade_q(ln_a, b, ln_k):
    """Normalized capacity 1 - exp(ln_a + b*ln_k); broadcasts over arrays.

    Every layer evaluates the fade curve through this kernel.  Callers pass
    ln a as they hold it (ln10 * log10 a, a fitted ln a, or log a); the
    kernel converts nothing, so each caller's rounding is its own.
    """
    return 1.0 - np.exp(ln_a + b * ln_k)


def eol_cycles(ln_a, b, threshold: float):
    """Real-valued cycle where the fade curve crosses `threshold`: ((1-t)/a)**(1/b)."""
    return np.exp((math.log(1.0 - threshold) - ln_a) / b)


def gaussian_log_lik(resid, sigma: float):
    """Log N(resid; 0, sigma**2); broadcasts over `resid`."""
    return -0.5 * (resid / sigma) ** 2 - math.log(sigma) - _LOG_SQRT_2PI


def capacity(params: PowerLawParams, k) -> float | np.ndarray:
    """Predicted normalized capacity 1 - a*k**b at cycle k (k >= 1).

    May go negative for large k; clamping is left to callers.
    """
    if params.a == 0.0:
        return np.ones_like(np.asarray(k, dtype=float)) if np.ndim(k) else 1.0
    result = fade_q(math.log(params.a), params.b, np.log(np.asarray(k, dtype=float)))
    return result if np.ndim(k) else float(result)


def analytic_eol(params: PowerLawParams, threshold: float) -> float:
    """Real-valued cycle where capacity crosses `threshold`: ((1-t)/a)**(1/b)."""
    if params.a == 0.0:
        raise ZeroFadeCoefficient("zero fade coefficient has no finite end of life")
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    return float(eol_cycles(math.log(params.a), params.b, threshold))


def log_likelihood(params: PowerLawParams, k: int, q_obs: float, sigma_meas: float) -> float:
    """Log Gaussian density of q_obs around the model prediction at cycle k."""
    if sigma_meas <= 0:
        raise ValueError("sigma_meas must be positive")
    return gaussian_log_lik(q_obs - capacity(params, k), sigma_meas)
