"""Power-law capacity-fade model.

Normalized capacity after k cycles is modeled as q(k) = 1 - a * k**b.
The fade coefficient a lives at a scale around 1e-16, so all internal
arithmetic runs in log space.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

_LN10 = math.log(10.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def checked(name: str, value, low, high=math.inf, integer: bool = False, closed: bool = False):
    """`value` if it is an integer in [`low`, `high`) (`integer`) or a float in (`low`, `high`), or in (`low`, `high`]
    if `closed`; never NaN, inf, a bool or an int beyond float range.  Else ValueError naming `name`."""
    ok = isinstance(value, int if integer else (int, float)) and not isinstance(value, bool)
    if not (ok and (low <= value < high if integer else abs(value) <= sys.float_info.max
                    and (low < value < high or closed and value == high))):
        what = f"an integer in [{low}, {high})" if integer else f"a float in ({low}, {high}{']' if closed else ')'}"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement and process noise scales for the online filter."""

    sigma_meas: float = 0.01      # std of capacity measurement noise
    sigma_log_a: float = 0.05     # random-walk std on log10(a) per cycle
    sigma_b: float = 0.05         # random-walk std on b per cycle

    def __post_init__(self):
        for name in ("sigma_meas", "sigma_log_a", "sigma_b"):
            checked(f"filter.{name}", getattr(self, name), 0)


def fade_q(ln_a, b, ln_k):
    """Normalized capacity 1 - exp(ln_a + b*ln_k); broadcasts over arrays.

    Every layer evaluates the fade curve through this kernel.  Callers pass
    ln a as they hold it (ln10 * log10 a, a fitted ln a, or log a); the
    kernel converts nothing, so each caller's rounding is its own.
    """
    return 1.0 - np.exp(ln_a + b * ln_k)


def eol_cycles(ln_a, b, threshold: float):
    """Real-valued cycle where the fade curve crosses `threshold`: ((1-t)/a)**(1/b); inf where that overflows."""
    with np.errstate(over="ignore"):
        return np.exp((math.log(1.0 - threshold) - ln_a) / b)


def gaussian_log_lik(resid, sigma: float):
    """Log N(resid; 0, sigma**2); broadcasts over `resid`."""
    return -0.5 * (resid / sigma) ** 2 - math.log(sigma) - _LOG_SQRT_2PI
