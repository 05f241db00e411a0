"""Exception hierarchy shared across the pipeline.

Each family carries the CLI exit code of all its subclasses in ``exit_code``:
ParameterError 1, DataError 2, NumericalError 3.
"""


class EconRankError(Exception):
    """Base class for every error raised by this package; raise one of its families."""

    exit_code: int


class ParameterError(EconRankError):
    """An argument, option, or configuration value is invalid."""

    exit_code = 1


class DataError(EconRankError):
    """Input data violates a structural requirement."""

    exit_code = 2


class DuplicateObservationError(DataError):
    """Two rows of one indicator map to the same (country, year) pair."""


class EmptyPanelError(DataError):
    """No country has complete coverage of the requested year range."""


class MissingObservationError(DataError):
    """Lookup of a (country, year) cell that does not exist."""


class AlignmentError(DataError):
    """Two per-country inputs do not line up row for row."""


class NumericalError(EconRankError):
    """A computation is mathematically undefined for the given inputs."""

    exit_code = 3


class DomainError(NumericalError):
    """Input lies outside the mathematical domain (e.g. log of a nonpositive value)."""


class DegenerateSampleError(NumericalError):
    """The sample carries no usable variation (all-zero deltas, zero variance)."""


class SingularDesignError(NumericalError):
    """A regression coordinate never varies, so the fit is undefined."""
