"""Exponential utilities and the multi-attribute combiner.

An exponential utility phi(v) = sigma - tau * exp(-v / r) is anchored so
phi(l_u) = 0 and phi(h_u) = 1; attribute values are clamped to
[l_u, h_u] so the combined utility stays in [0, 1].
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import CellTwinError, ConfigError

ANCHOR_TOL = 1e-9  # how far the anchored coefficients may miss phi(l_u) = 0 and phi(h_u) = 1


class Attribute(enum.Enum):
    TOTAL_AH = "total_ah"
    MEAN_TIME_BETWEEN_CHARGES = "mtbc"


@dataclass(frozen=True)
class ExpUtility:
    l_u: float           # attribute value mapped to utility 0
    h_u: float           # attribute value mapped to utility 1
    r: float             # risk tolerance, same units
    sigma_coef: float
    tau_coef: float

    def value(self, v) -> float | np.ndarray:
        return self._phi(np.clip(v, self.l_u, self.h_u))

    def _phi(self, v) -> np.ndarray:
        return self.sigma_coef - self.tau_coef * np.exp(-np.asarray(v, dtype=float) / self.r)


@dataclass(frozen=True)
class AttributeSpec:
    name: str
    utility: ExpUtility
    extractor: Attribute
    weight: float


def make_exp_utility(l_u: float, h_u: float, r: float) -> ExpUtility:
    """Build the anchored exponential utility for bounds (l_u, h_u) and risk r.

    ConfigError when the bounds or r are not finite, when a bound
    divided by r overflows (as `value` divides every value by r), when the
    coefficients, as `value` evaluates them, miss an anchor by more than
    ANCHOR_TOL (both anchors round to one exp value, or an exp overflows),
    or when sigma is so large that phi's rounding error, about
    |sigma| * eps, exceeds ANCHOR_TOL (r far above h_u - l_u).
    """
    if not all(map(math.isfinite, (l_u, h_u, r))):
        raise ConfigError(f"l_u {l_u}, h_u {h_u} and r {r} must be finite")
    if h_u <= l_u:
        raise ConfigError(f"h_u {h_u} must exceed l_u {l_u}")
    if r <= 0:
        raise ConfigError(f"risk tolerance must be positive, got {r}")
    if not math.isfinite(max(abs(l_u), abs(h_u)) / r):
        raise ConfigError(f"l_u {l_u}, h_u {h_u} and r {r}: a bound divided by r overflows")
    try:
        e_l = math.exp(-l_u / r)
        e_h = math.exp(-h_u / r)
        u = ExpUtility(l_u=l_u, h_u=h_u, r=r, sigma_coef=e_l / (e_l - e_h), tau_coef=1.0 / (e_l - e_h))
    except (OverflowError, ZeroDivisionError):
        u = None
    with np.errstate(over="ignore", invalid="ignore"):  # NaN or inf coefficients fail the comparisons
        if (u is None or abs(u.sigma_coef) * np.finfo(float).eps > ANCHOR_TOL
                or not (abs(u._phi(l_u)) <= ANCHOR_TOL and abs(u._phi(h_u) - 1.0) <= ANCHOR_TOL)):
            raise ConfigError(f"l_u {l_u}, h_u {h_u} and r {r} give no utility with phi(l_u) = 0, phi(h_u) = 1")
    return u


def combined_utility(specs: list[AttributeSpec], phis: list) -> float | np.ndarray:
    """Weighted sum of per-attribute utilities (equal weights = plain average).

    `phis` holds one utility `s.utility.value(v)`, or one array of candidate
    utilities, per spec; arrays give the combined utility per candidate.
    """
    if len(specs) != len(phis):
        raise CellTwinError(f"{len(specs)} specs vs {len(phis)} values")
    return sum(s.weight * phi for s, phi in zip(specs, phis))


def default_attribute_specs() -> list[AttributeSpec]:
    """The two case-study attributes with their published bounds."""
    return [
        AttributeSpec(
            name="total_ah",
            utility=make_exp_utility(300.0, 1000.0, 200.0),
            extractor=Attribute.TOTAL_AH,
            weight=0.5,
        ),
        AttributeSpec(
            name="mtbc",
            utility=make_exp_utility(0.21, 0.25, 0.015),
            extractor=Attribute.MEAN_TIME_BETWEEN_CHARGES,
            weight=0.5,
        ),
    ]
