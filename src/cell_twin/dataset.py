"""Cycling-data ingestion and preprocessing.

Reads per-cycle discharge capacity summaries from CSV, normalizes each
cell against its early-life peak capacity, linearly extends the tail of
each trace down to a second-life capacity floor, and locates the
capacity threshold that gates the retirement optimization.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .model import checked

MAX_EXTENSION = 10  # x the last measured cycle; synthetic fleets need at most 0.4

CSV_COLUMNS = ["cell_id", "split", "cycle", "discharge_capacity_ah", "nominal_capacity_ah"]


def checked_name(name: str) -> str:
    """`name` if it names one file or directory inside its parent (a cell id names both); else DataError."""
    if name in ("", ".", "..") or not set(name).isdisjoint("/\\\0"):
        raise DataError(f"{name!r} cannot name a cell's file or directory: it is empty, '.' or '..', or holds /, \\ or NUL")
    return name


def checked_cycles(cell_id: str, cycles) -> np.ndarray:
    """`cycles` as an array if they are integers, strictly increasing and starting at >= 1; else DataError.
    numpy reads `true` in a list as 1, so a list (as JSON decodes one) is checked item by item."""
    arr = np.asarray(cycles)
    if arr.ndim != 1 or arr.dtype.kind != "i" or isinstance(cycles, list) and any(type(k) is not int for k in cycles):
        raise DataError(f"{cell_id}: cycles must be one list of integers")
    if np.any(np.diff(arr) <= 0):
        raise DataError(f"{cell_id}: cycles not strictly increasing")
    if len(arr) and arr[0] < 1:
        raise DataError(f"{cell_id}: cycle {arr[0]} < 1; cycles start at 1")
    return arr


class Split(enum.Enum):
    TRAIN = "train"
    PRIMARY_TEST = "test1"
    SECONDARY_TEST = "test2"


@dataclass(frozen=True)
class CellRecord:
    """One cell's per-cycle discharge-capacity history."""

    cell_id: str
    split: Split
    cycles: np.ndarray          # int, strictly increasing, starts at >= 1
    capacity_ah: np.ndarray     # float, finite and strictly positive, same length

    def __post_init__(self):
        checked_name(self.cell_id)
        caps = np.asarray(self.capacity_ah, dtype=float)
        if len(self.cycles) == 0 or len(self.cycles) != len(caps):
            raise ValueError(f"{self.cell_id}: cycles/capacity length mismatch or empty")
        cycles = checked_cycles(self.cell_id, self.cycles)
        if not np.all(np.isfinite(caps) & (caps > 0)):
            raise DataError(f"{self.cell_id}: capacity must be finite and positive")
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "capacity_ah", caps)


@dataclass(frozen=True)
class NormalizedTrace:
    """Dimensionless capacity trace q(k) = capacity / q0_ah."""

    cell_id: str
    cycles: np.ndarray
    q: np.ndarray
    q0_ah: float
    extrapolated_from: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "cycles", checked_cycles(self.cell_id, self.cycles))
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        if len(self.q) != len(self.cycles) or not np.all(np.isfinite(self.q)):
            raise DataError(f"{self.cell_id}: need one finite normalized capacity per cycle")
        checked(f"{self.cell_id}: q0_ah", self.q0_ah, 0)
        if np.max(self.q) > 1.15:
            raise DataError(f"{self.cell_id}: normalized capacity exceeds sanity bound 1.15")
        if self.extrapolated_from is not None:
            checked(f"{self.cell_id}: extrapolated_from", self.extrapolated_from, 1, integer=True)

    @property
    def measured_mask(self) -> np.ndarray:
        """Boolean mask of points that were measured (not synthetic)."""
        if self.extrapolated_from is None:
            return np.ones(len(self.cycles), dtype=bool)
        return self.cycles < self.extrapolated_from

    def to_json_dict(self) -> dict:
        return {
            "cell_id": self.cell_id,
            "q0_ah": self.q0_ah,
            "extrapolated_from": self.extrapolated_from,
            "cycles": self.cycles.tolist(),
            "q": self.q.tolist(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "NormalizedTrace":
        return cls(d["cell_id"], d["cycles"], d["q"], d["q0_ah"], d["extrapolated_from"])


def load_cells(path) -> list[CellRecord]:
    """Load per-cycle capacity rows, grouped into one record per cell.

    The CSV header must be CSV_COLUMNS, and every row of a cell must name
    the same split.  The nominal-capacity column is not read: `normalize`
    divides by the early-life peak.
    """
    split_names = {s.value for s in Split}
    rows_by_cell: dict[str, list[tuple[int, float]]] = {}
    split_by_cell: dict[str, str] = {}
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        header = [h.strip() for h in header]
        if header != CSV_COLUMNS:
            raise DataError(f"{path}: bad header {header!r}, expected {CSV_COLUMNS}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(CSV_COLUMNS):
                raise DataError(f"{path}:{lineno}: expected {len(CSV_COLUMNS)} columns, got {len(row)}")
            cell_id = row[0].strip()
            try:
                cycle = int(row[2])
                cap = float(row[3])
            except ValueError as e:
                raise DataError(f"{path}:{lineno}: non-numeric field ({e})") from None
            split_name = row[1].strip()
            if split_name not in split_names:
                raise DataError(f"{path}:{lineno}: unknown split {split_name!r}")
            prev = split_by_cell.setdefault(cell_id, split_name)
            if prev != split_name:
                raise DataError(f"{path}:{lineno}: cell {cell_id!r} has conflicting splits")
            rows_by_cell.setdefault(cell_id, []).append((cycle, cap))

    records = []
    for cell_id in sorted(rows_by_cell):
        rows = sorted(rows_by_cell[cell_id])
        cycles = [r[0] for r in rows]
        if len(set(cycles)) != len(cycles):
            dup = next(c for i, c in enumerate(cycles[1:], 1) if c == cycles[i - 1])
            raise DataError(f"cell {cell_id!r}: cycle {dup} appears more than once")
        records.append(
            CellRecord(
                cell_id=cell_id,
                split=Split(split_by_cell[cell_id]),
                cycles=np.array(cycles, dtype=int),
                capacity_ah=np.array([r[1] for r in rows], dtype=float),
            )
        )
    return records


def normalize(cell: CellRecord, window: int = 100) -> NormalizedTrace:
    """Normalize capacity by the peak over the first `window` points.

    LFP cells show an initial capacity rise, so the early-life peak
    rather than the cycle-1 value is used as the denominator.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    q0 = float(np.max(cell.capacity_ah[: min(window, len(cell.capacity_ah))]))
    return NormalizedTrace(
        cell_id=cell.cell_id,
        cycles=cell.cycles.copy(),
        q=cell.capacity_ah / q0,
        q0_ah=q0,
    )


def extend_linear(trace: NormalizedTrace, tail: int = 30, floor: float = 0.5) -> NormalizedTrace:
    """Extend a trace to `floor` on the OLS line through its last `tail` points.

    Appends one synthetic point per cycle on the fitted line, stopping at
    (and including, clamped to the floor) the first cycle whose line value
    drops to or below `floor`.  Raises DataError unless the line
    falls and reaches the floor within MAX_EXTENSION x the last cycle.
    """
    if len(trace.cycles) < tail:
        raise DataError(f"{trace.cell_id}: need >= {tail} points to extend")
    if trace.q[-1] <= floor:
        raise DataError(f"{trace.cell_id}: last q {trace.q[-1]:.4f} <= floor {floor}")
    ks = trace.cycles[-tail:].astype(float)
    qs = trace.q[-tail:]
    slope, intercept = np.polyfit(ks, qs, 1)
    if not slope < 0:
        raise DataError(f"{trace.cell_id}: tail slope {slope:.3e} >= 0")
    last = int(trace.cycles[-1])
    limit = floor + 1e-12  # tolerance so an exact-floor landing terminates
    # cycles to the crossing, capped, plus two for rounding; the line is
    # monotone in k also in floating point, so the first value <= limit ends it
    span = min(max((limit - intercept) / slope - last, 0.0), MAX_EXTENSION * last)
    new_cycles = np.arange(last + 1, last + int(np.ceil(span)) + 3)
    vals = intercept + slope * new_cycles
    reached = vals <= limit
    if not reached[-1]:
        msg = f"misses floor {floor} within {MAX_EXTENSION}x the measured life"
        raise DataError(f"{trace.cell_id}: tail slope {slope:.3e} {msg}")
    n = int(np.argmax(reached)) + 1
    return NormalizedTrace(
        cell_id=trace.cell_id,
        cycles=np.concatenate([trace.cycles, new_cycles[:n]]),
        q=np.concatenate([trace.q, np.maximum(vals[:n], floor)]),
        q0_ah=trace.q0_ah,
        extrapolated_from=last + 1,
    )


def trigger_cycle(trace: NormalizedTrace, threshold: float = 0.95) -> int | None:
    """First cycle where q <= threshold, or None if never crossed."""
    below = np.flatnonzero(trace.q <= threshold)
    return int(trace.cycles[below[0]]) if len(below) else None
