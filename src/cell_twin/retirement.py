"""Retirement-cycle optimization over the projected capacity trajectory.

Builds a hybrid trajectory (measured capacity before the current cycle,
the filter's projected median from it on), evaluates the combined utility
at every candidate retirement cycle, and returns the earliest arg-max.
The reading at the current cycle is not used: it fired the trigger, so it
is selected low, and a noise dip there would move the optimum off it.  The
candidate set is finite, so the scan is exhaustive by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import NormalizedTrace
from .errors import CellTwinError, DataError
from .filtering import ParticleEnsemble
from .prognosis import CapacityProjection, project
from .utility import Attribute, AttributeSpec, combined_utility, mtbc


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
    cycles = proj.cycles
    below = np.flatnonzero(proj.median_q <= floor)
    if len(below):
        end = int(cycles[below[0]])
        truncated = False
    else:
        end = proj.horizon_cycle
        truncated = True
    if end < current:
        raise CellTwinError(f"projected median already at floor {floor} before cycle {current}")
    return np.arange(current, end + 1), truncated


def _hybrid_trajectory(trace: NormalizedTrace, proj: CapacityProjection, current: int) -> np.ndarray:
    """q indexed by cycle (entry i is cycle i+1): measured before `current`, projected median from it on."""
    measured_cycles = trace.cycles[trace.cycles <= current]
    if len(measured_cycles) == 0 or measured_cycles[0] != 1 or not np.all(np.diff(measured_cycles) == 1):
        raise DataError(f"{trace.cell_id}: measured cycles must cover 1..{current} contiguously")
    q = np.empty(proj.horizon_cycle)
    q[:current - 1] = trace.q[:current - 1]
    q[current - 1:] = proj.median_q[current - proj.from_cycle:]
    return q


def optimize_retirement(
    trace: NormalizedTrace,
    ens: ParticleEnsemble,
    specs: list[AttributeSpec],
    current: int,
    trigger_threshold: float = 0.95,
    retire_floor: float = 0.5,
    eol_threshold: float = 0.5,
    discharge_rate_c: float = 4.0,
    proj: CapacityProjection | None = None,
) -> RetirementDecision:
    """Exhaustively evaluate the combined utility over candidate retirement cycles."""
    if not specs:
        raise CellTwinError("no attribute specs to combine")
    idx = np.flatnonzero(trace.cycles == current)
    if len(idx) == 0:
        raise DataError(f"{trace.cell_id}: no measurement at cycle {current}")
    q_now = float(trace.q[idx[0]])
    if q_now > trigger_threshold:
        raise CellTwinError(
            f"{trace.cell_id}: q at cycle {current} is {q_now:.4f} > trigger {trigger_threshold}"
        )
    if proj is None:
        proj = project(ens, from_cycle=current, eol_threshold=eol_threshold)
    candidates, truncated = candidate_cycles(current, proj, retire_floor)
    q = _hybrid_trajectory(trace, proj, current)
    cum_ah = np.cumsum(q) * trace.q0_ah

    raws = [
        cum_ah[candidates - 1] if s.extractor is Attribute.TOTAL_AH
        else mtbc(q[candidates - 1], discharge_rate_c)
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
