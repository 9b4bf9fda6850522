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
PEAK_WINDOW = 100   # `normalize` divides a cell by its peak over its first PEAK_WINDOW points
EXTEND_TAIL = 30    # `extend_linear` fits its line through a trace's last EXTEND_TAIL points
EXTEND_FLOOR = 0.5  # the q `extend_linear` extends a trace down to: no extended trace crosses a lower EOL threshold

CSV_COLUMNS = ["cell_id", "split", "cycle", "discharge_capacity_ah", "nominal_capacity_ah"]


def checked_name(name: str) -> str:
    """`name` if it names one file or directory inside its parent (a cell id names both); else DataError."""
    if name in ("", ".", "..") or not set(name).isdisjoint("/\\\0"):
        raise DataError(f"{name!r} cannot name a cell's file or directory: it is empty, '.' or '..', or holds /, \\ or NUL")
    return name


def typed_items(values, types: set) -> bool:
    """False for a list (as JSON decodes one) holding an item of a type not in `types`, which numpy would coerce
    (`true` to 1, "0.95" to 0.95); an array is left to its dtype check."""
    return not isinstance(values, list) or set(map(type, values)) <= types


def checked_cycles(cell_id: str, cycles) -> np.ndarray:
    """`cycles` as an integer array if they are integers, strictly increasing and starting at >= 1 (an empty list
    passes); else DataError naming the first cycle that does not increase.  The package's one rule for cycles."""
    arr = np.asarray(cycles) if len(cycles) else np.zeros(0, dtype=int)
    if arr.ndim != 1 or arr.dtype.kind != "i" or not typed_items(cycles, {int}):
        raise DataError(f"{cell_id}: cycles must be one list of integers")
    down = np.flatnonzero(np.diff(arr) <= 0)
    if len(down):
        raise DataError(f"{cell_id}: cycles not strictly increasing: cycle {arr[down[0] + 1]} after {arr[down[0]]}")
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
        q = np.asarray(self.q, dtype=float)
        if not 0 < len(q) == len(self.cycles) or not np.all(np.isfinite(q)) or not typed_items(self.q, {int, float}):
            raise DataError(f"{self.cell_id}: need cycles and one finite normalized capacity (a number) per cycle")
        object.__setattr__(self, "q", q)
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
    try:
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
    except (UnicodeDecodeError, csv.Error) as e:  # not UTF-8, or a field past csv's size limit
        raise DataError(f"{path}: {e}") from None

    records = []
    for cell_id in sorted(rows_by_cell):
        rows = sorted(rows_by_cell[cell_id])  # a repeated cycle stays next to itself: checked_cycles names it
        records.append(
            CellRecord(
                cell_id=cell_id,
                split=Split(split_by_cell[cell_id]),
                cycles=[r[0] for r in rows],
                capacity_ah=np.array([r[1] for r in rows], dtype=float),
            )
        )
    return records


def normalize(cell: CellRecord) -> NormalizedTrace:
    """Normalize capacity by the peak over the first PEAK_WINDOW points.

    LFP cells show an initial capacity rise, so the early-life peak
    rather than the cycle-1 value is used as the denominator.
    """
    q0 = float(np.max(cell.capacity_ah[:PEAK_WINDOW]))
    return NormalizedTrace(
        cell_id=cell.cell_id,
        cycles=cell.cycles.copy(),
        q=cell.capacity_ah / q0,
        q0_ah=q0,
    )


def extend_linear(trace: NormalizedTrace) -> NormalizedTrace:
    """Extend a trace to EXTEND_FLOOR on the OLS line through its last EXTEND_TAIL points.

    Appends one synthetic point per cycle on the fitted line, stopping at
    (and including, clamped to the floor) the first cycle whose line value
    drops to or below the floor.  Raises DataError unless the line
    falls and reaches the floor within MAX_EXTENSION x the last cycle.
    """
    if len(trace.cycles) < EXTEND_TAIL:
        raise DataError(f"{trace.cell_id}: need >= {EXTEND_TAIL} points to extend")
    if trace.q[-1] <= EXTEND_FLOOR:
        raise DataError(f"{trace.cell_id}: last q {trace.q[-1]:.4f} <= floor {EXTEND_FLOOR}")
    ks = trace.cycles[-EXTEND_TAIL:].astype(float)
    qs = trace.q[-EXTEND_TAIL:]
    slope, intercept = np.polyfit(ks, qs, 1)
    if not slope < 0:
        raise DataError(f"{trace.cell_id}: tail slope {slope:.3e} >= 0")
    last = int(trace.cycles[-1])
    limit = EXTEND_FLOOR + 1e-12  # tolerance so an exact-floor landing terminates
    # cycles to the crossing, capped, plus two for rounding; the line is
    # monotone in k also in floating point, so the first value <= limit ends it
    span = min(max((limit - intercept) / slope - last, 0.0), MAX_EXTENSION * last)
    new_cycles = np.arange(last + 1, last + int(np.ceil(span)) + 3)
    vals = intercept + slope * new_cycles
    reached = vals <= limit
    if not reached[-1]:
        msg = f"misses floor {EXTEND_FLOOR} within {MAX_EXTENSION}x the measured life"
        raise DataError(f"{trace.cell_id}: tail slope {slope:.3e} {msg}")
    n = int(np.argmax(reached)) + 1
    return NormalizedTrace(
        cell_id=trace.cell_id,
        cycles=np.concatenate([trace.cycles, new_cycles[:n]]),
        q=np.concatenate([trace.q, np.maximum(vals[:n], EXTEND_FLOOR)]),
        q0_ah=trace.q0_ah,
        extrapolated_from=last + 1,
    )


def trigger_cycle(trace: NormalizedTrace, threshold: float = 0.95) -> int | None:
    """First cycle where q <= threshold, or None if never crossed."""
    below = np.flatnonzero(trace.q <= threshold)
    return int(trace.cycles[below[0]]) if len(below) else None
