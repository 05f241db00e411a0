"""Exception hierarchy shared across the pipeline.

Each family carries its CLI exit code in ``exit_code``: ParameterError 1, DataError 2,
NumericalError 3. The message names the cause.
"""


class EconRankError(Exception):
    """Base class for every error raised by this package; raise one of its families."""

    exit_code: int


class ParameterError(EconRankError):
    """An argument, option, or configuration value is invalid."""

    exit_code = 1


class DataError(EconRankError):
    """Input data violates a structural requirement (a duplicate, a gap, a misaligned column)."""

    exit_code = 2


class NumericalError(EconRankError):
    """A computation is undefined for the given inputs (out of domain, degenerate, singular)."""

    exit_code = 3
