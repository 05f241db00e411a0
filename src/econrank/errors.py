"""Exception hierarchy shared across the pipeline, and the argument checks that raise it.

Each family carries its CLI exit code in ``exit_code``: ParameterError 1, DataError 2,
NumericalError 3. The message names the cause. Every public call takes its arguments through
the checks below, so it fails in a family, never with numpy's or Python's own error: a
ParameterError for a count, window, year, row index or number, or a path, panel, fit, ensemble
or config argument, of the wrong type or range; a DataError for a column or matrix that numpy
cannot read as numbers, or that has the wrong shape; a NumericalError for a non-finite cell.
"""

import math
import sys

import numpy as np


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


def _integer(name: str, value: object, low: float, high: float = math.inf) -> int:
    """``value``, called ``name``, checked to be an integer in [low, high]."""
    if type(value) is not int or not low <= value <= high:  # bool is not a count
        raise ParameterError(f"{name} must be an integer in [{low}, {high}], got {value!r}")
    return value


def _finite(name: str, value: object, bound: str = ">=") -> float:
    """``value`` as a float; a finite number ``bound`` 0, ``bound`` ">=", ">" or "" (any sign)."""
    # bool is not a number here; comparing before float() keeps huge integers from overflowing
    big = sys.float_info.max
    if (not isinstance(value, (int, float, np.integer, np.floating)) or type(value) is bool
            or not (0 if bound else -big) <= value <= big or bound == ">" and value == 0):
        raise ParameterError(f"{name} must be a finite number{bound and f' {bound} 0'}, "
                             f"got {value!r}")
    return float(value)


def _instance(cls: type | tuple[type, ...], **arguments: object) -> None:
    """Check that each keyword's value, the argument it names, is a ``cls``."""
    for name, value in arguments.items():
        if not isinstance(value, cls):
            kinds = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else [cls]))
            raise ParameterError(f"{name} must be {kinds}, got {type(value).__name__}")


def _column(name: str, values: object, dtype: type = float, ndim: int = 1) -> np.ndarray:
    """``values``, the ``name`` argument, as a numpy array of ``ndim`` dimensions, not a copy
    of one: float64, integers at ``dtype=int`` (int64 if empty, Python ints beyond int64) or
    Python strings at ``dtype=str``; a DataError names it when numpy cannot read it so."""
    try:  # numpy's message names the entry
        array = np.asarray(values, {int: None, str: object}.get(dtype, dtype))
        if dtype is int and array.dtype.kind not in "iu" and not isinstance(values, np.ndarray):
            array = np.asarray(values, object)  # numpy reads [2**63, 1] as float64
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{name}: {exc}") from None
    if array.ndim != ndim:
        raise DataError(f"{name} must be {ndim}-D, got shape {array.shape}")
    for value in array.flat if dtype is not float and array.dtype.kind not in "iu" else ():
        if not isinstance(value, dtype) or type(value) is bool:
            raise DataError(f"{name} must hold {dtype.__name__}s, got {type(value).__name__}")
    return array if array.size or dtype is not int else array.astype(np.int64)  # [] is float


def _finite_rows(what: str, columns: tuple, labels: tuple | None = None,
                 positive: bool = False) -> None:
    """Check that the float ``columns`` are row-aligned (else DataError) and name the first
    row, by label or else index, where one holds a non-finite value, or with ``positive`` one
    <= 0, in a NumericalError."""
    if len(shapes := [c.shape for c in columns]) > 1 and shapes[0] != shapes[1]:
        raise DataError(f"columns of shapes {shapes[0]} and {shapes[1]} are not row-aligned")
    bad = np.logical_or.reduce([~np.isfinite(c) | (c <= 0) & positive for c in columns])
    if bad.any():
        i, noun = int(bad.argmax()), "coordinates" if len(columns) > 1 else "values"
        raise NumericalError(f"{what} needs finite {'positive ' * positive}{noun}, got ("
                             f"{', '.join(repr(float(c[i])) for c in columns)}) at "
                             f"{str(i) if labels is None else labels[i]!r}")
