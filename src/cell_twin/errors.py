"""Exception hierarchy shared across the toolkit.

Grouped so the CLI can map classes to exit codes: ConfigError -> 2,
DataError -> 3, anything else under CellTwinError -> 4.
"""


class CellTwinError(Exception):
    pass


class ConfigError(CellTwinError):
    pass


class DataError(CellTwinError):
    pass


# --- dataset ingestion ---

class MalformedRow(DataError):
    pass


class DuplicateCycle(DataError):
    pass


class UnknownCell(DataError):
    pass


class NonMonotoneCycles(DataError):
    pass


class NonDecreasingTail(DataError):
    pass


class AlreadyBelowFloor(DataError):
    pass


# --- model / filter ---

class DegenerateWeights(CellTwinError):
    pass


class InvalidObservation(DataError):
    pass


class SnapshotError(DataError):
    pass


# --- utility / retirement ---

class DegenerateBounds(ConfigError):
    pass


class NonPositiveRisk(ConfigError):
    pass


class IncompleteTrajectory(DataError):
    pass


class LengthMismatch(CellTwinError):
    pass


class EmptyCandidateSet(CellTwinError):
    pass


class NotTriggered(CellTwinError):
    pass


# --- calibration / evaluation ---

class InsufficientFade(DataError):
    pass


class NoFitsSucceeded(DataError):
    pass


class NoTrueEol(DataError):
    pass
