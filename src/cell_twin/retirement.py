"""Retirement-cycle optimization over the projected capacity trajectory.

Scans only the candidate window, from the current cycle to the projected
median's floor crossing: total Ah is the cumulative sum of the measured q
before the current cycle followed by the filter's projected median over the
window, and MTBC is that median over the discharge rate.  Returns the
earliest arg-max of the combined utility.  The reading at the current cycle
is not used: it fired the trigger, so it is selected low, and a noise dip
there would move the optimum off it.  The scan is exhaustive by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import NormalizedTrace
from .errors import CellTwinError, DataError
from .filtering import ParticleEnsemble
from .prognosis import CapacityProjection, project
from .utility import Attribute, AttributeSpec, combined_utility

DISCHARGE_RATE_C = 4.0  # the fleet's discharge rate: MTBC = q / DISCHARGE_RATE_C hours, 0.25 h for a fresh cell


@dataclass(frozen=True)
class UtilityPoint:
    cycle: int
    combined: float
    phi: dict[str, float]     # per-attribute utility values
    raw: dict[str, float]     # per-attribute raw attribute values


@dataclass(frozen=True)
class RetirementDecision:
    current_cycle: int
    candidates: np.ndarray
    combined: np.ndarray               # combined utility per candidate
    phi: dict[str, np.ndarray]         # per spec name: utility per candidate
    raw: dict[str, np.ndarray]         # per spec name: raw attribute value per candidate
    optimal_cycle: int
    optimal_utility: float
    truncated_at_horizon: bool

    @cached_property
    def utility_curve(self) -> list[UtilityPoint]:
        """The columns as one point per candidate, built on first read, only for perfbench's `check_decision`;
        the benchmark change that moves that check onto the columns (ROADMAP item 1) deletes this and `UtilityPoint`."""
        names, phis, raws = list(self.phi), self.phi.values(), self.raw.values()
        rows = zip(self.candidates.tolist(), self.combined.tolist(),
                   zip(*(v.tolist() for v in phis)), zip(*(v.tolist() for v in raws)))
        return [UtilityPoint(x, lam, dict(zip(names, phi)), dict(zip(names, raw))) for x, lam, phi, raw in rows]


def candidate_cycles(current: int, proj: CapacityProjection, floor: float) -> tuple[np.ndarray, bool]:
    """Integer cycles from `current` to the projected-median crossing of `floor`.

    Returns (candidates, truncated): truncated is True when the median
    never reaches the floor inside the projection horizon.
    """
    if current < proj.from_cycle:
        raise ValueError("current cycle precedes the projection start")
    below = proj.median_q <= floor
    first = int(np.argmax(below))  # 0 when nothing is below
    truncated = not below[first]
    end = proj.horizon_cycle if truncated else proj.from_cycle + first
    if end < current:
        raise CellTwinError(f"projected median already at floor {floor} before cycle {current}")
    return np.arange(current, end + 1), truncated


def optimize_retirement(
    trace: NormalizedTrace,
    ens: ParticleEnsemble,
    specs: list[AttributeSpec],
    current: int,
    trigger_threshold: float = 0.95,
    retire_floor: float = 0.5,
    eol_threshold: float = 0.5,
    proj: CapacityProjection | None = None,
) -> RetirementDecision:
    """Exhaustively evaluate the combined utility over candidate retirement cycles."""
    if not specs:
        raise CellTwinError("no attribute specs to combine")
    idx = int(np.searchsorted(trace.cycles, current))
    if idx == len(trace.cycles) or trace.cycles[idx] != current:
        raise DataError(f"{trace.cell_id}: no measurement at cycle {current}")
    q_now = float(trace.q[idx])
    if q_now > trigger_threshold:
        raise CellTwinError(
            f"{trace.cell_id}: q at cycle {current} is {q_now:.4f} > trigger {trigger_threshold}"
        )
    if proj is None:
        proj = project(ens, from_cycle=current, eol_threshold=eol_threshold)
    candidates, truncated = candidate_cycles(current, proj, retire_floor)
    # cycles are strictly increasing integers >= 1, so cycle `current` at index current - 1 means 1..current
    if idx != current - 1:
        raise DataError(f"{trace.cell_id}: measured cycles must cover 1..{current} contiguously")
    start = current - proj.from_cycle
    q = proj.median_q[start:start + len(candidates)]
    # cumsum is sequential, so each sum is the one over the whole trajectory up to that candidate
    total_ah = np.cumsum(np.concatenate([trace.q[:current - 1], q]))[current - 1:] * trace.q0_ah

    raws = [
        total_ah if s.extractor is Attribute.TOTAL_AH
        else q / DISCHARGE_RATE_C  # mean time between charges, h
        for s in specs
    ]
    phis = [s.utility.value(v) for s, v in zip(specs, raws)]
    combined = combined_utility(specs, phis)
    best = int(np.argmax(combined))  # first maximum: the earliest cycle wins ties
    return RetirementDecision(
        current_cycle=current,
        candidates=candidates,
        combined=combined,
        phi={s.name: phi for s, phi in zip(specs, phis)},
        raw={s.name: v for s, v in zip(specs, raws)},
        optimal_cycle=int(candidates[best]),
        optimal_utility=float(combined[best]),
        truncated_at_horizon=truncated,
    )
