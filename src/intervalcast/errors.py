"""Exception types shared across the package."""


class IntervalcastError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(IntervalcastError):
    """Invalid configuration value or combination."""


class DimensionError(IntervalcastError):
    """Array shapes incompatible with the requested operation."""


class NumericError(IntervalcastError):
    """A computation produced a non-finite value."""


class DataError(IntervalcastError):
    """Input data too short, malformed, or otherwise unusable."""


class SplitError(DataError):
    """A chronological split would leave one of the subsets empty."""


class ParseError(DataError):
    """A CSV cell could not be parsed as a number."""


class FormatError(DataError):
    """An input file violates its layout: a ragged or headerless CSV, a malformed checkpoint."""


class TrainingError(IntervalcastError):
    """Training diverged or could not proceed."""


class UnsupportedQueryError(IntervalcastError):
    """The queried interval cannot be served by the trained policy."""


class DegenerateConfidenceError(IntervalcastError):
    """No partition cell claims the input (all confidences at the floor)."""
