"""Exception hierarchy shared across the toolkit.

One class per CLI exit code: ConfigError -> 2, DataError -> 3, anything
else under CellTwinError -> 4.  The message says what failed.
"""


class CellTwinError(Exception):
    pass


class ConfigError(CellTwinError):
    pass


class DataError(CellTwinError):
    pass


class InsufficientFade(DataError):
    """A training cell with no usable fade fit; `fleet_calibrate` skips it and lists it as failed."""
