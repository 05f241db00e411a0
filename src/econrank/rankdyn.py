"""Rank dynamics: the rank matrix, windowed rank changes, double-exponential MLE.

``rank_matrix`` ranks every country in every year; rank 1 is the largest value.
Rank changes, differences of its columns, are pooled across overlapping (or strided)
windows into a single sample and fitted with the zero-centered double exponential
P(d) = decay/2 * exp(-decay*|d|), whose maximum-likelihood decay is n / sum|d|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError, ParameterError, _column, _finite, _instance, _integer
from .panel import BalancedPanel

_MAX_BINS = 2**16  # empirical_pdf's bins: at most max(2n, this), whatever the range


@dataclass(frozen=True, eq=False)
class RankChangeSample:
    """Pooled rank changes over every window of one length.

    ``deltas`` is a flat read-only int64 column, window-major with ``countries``
    in panel order inside each window; the fits take it as it is.
    """

    deltas: np.ndarray
    windows: tuple[tuple[int, int], ...]
    countries: tuple[str, ...]

    @property
    def n(self) -> int:
        return int(self.deltas.size)


@dataclass(frozen=True)
class LaplaceFit:
    """Closed-form MLE of the zero-centered double exponential.

    ``decay * mean_abs == 1`` by construction (n/S times S/n).
    """

    decay: float
    n: int
    mean_abs: float
    log_likelihood: float


def rank_matrix(panel: BalancedPanel) -> np.ndarray:
    """Read-only int64 ranks 1..N, row i for ``panel.countries[i]``, column j for ``years[j]``.

    Rank 1 is the largest value; among equal values the smaller code ranks first.
    """
    _instance(BalancedPanel, panel=panel)
    order = np.argsort(-panel.values, axis=0, kind="stable")  # rows ascend by code
    ranks = np.empty(order.shape, dtype=np.int64)
    rank_values = np.arange(1, panel.n_countries + 1, dtype=np.int64)[:, None]
    np.put_along_axis(ranks, order, rank_values, axis=0)
    ranks.flags.writeable = False
    return ranks


def rank_changes(
    panel: BalancedPanel, window: int, overlapping: bool = True
) -> RankChangeSample:
    """Pool per-country rank changes over every ``window``-year span.

    With ``overlapping`` every start year t with t+window in the panel
    contributes a window; otherwise start years advance in steps of
    ``window`` from the first year. Each window pairs rank column j with
    column j + window of ``rank_matrix(panel)``, read as two column slices.
    """
    _integer("window", window, 1)
    _instance(bool, overlapping=overlapping)
    ranks = rank_matrix(panel)
    if window >= len(panel.years):  # a slice stop of len(years) - window would wrap
        raise ParameterError(
            f"window of {window} years needs a span of at least {window + 1} years; "
            f"panel covers {panel.years[0]}-{panel.years[-1]}"
        )
    step = 1 if overlapping else window
    starts = slice(0, len(panel.years) - window, step)
    deltas = (ranks[:, window::step] - ranks[:, starts]).T.ravel()
    deltas.flags.writeable = False
    return RankChangeSample(
        deltas=deltas,
        windows=tuple((t, t + window) for t in panel.years[starts]),
        countries=panel.countries,
    )


def _as_delta_array(deltas: Sequence[int] | np.ndarray) -> np.ndarray:
    """``deltas`` as an int64 column, not a copy of one; DataError unless 1-D integer.

    Each |d| must be below 2**63 / max(n, 2), so sum|d| fits int64; rank changes are below N <= n.
    """
    arr = _column("deltas", deltas, int)
    lo, hi = int(arr.min(initial=0)), int(arr.max(initial=0))  # exact for uint64 and -2**63
    if max(-lo, hi) >= (limit := 2**63 // max(arr.size, 2)):
        raise ParameterError(f"rank change {hi if hi >= -lo else lo} is out of range: "
                             f"|d| must be below 2**63 / max(n, 2) = {limit} for n = {arr.size}")
    return arr.astype(np.int64, copy=False)


def fit_laplace_mle(deltas: Sequence[int] | np.ndarray) -> LaplaceFit:
    """Maximum-likelihood fit of P(d) = decay/2 * exp(-decay*|d|) to a delta column.

    decay = n / sum|d| and log-likelihood = n*ln(decay/2) - decay*sum|d|.
    The absolute sum is integer arithmetic, so the fit is independent of
    the order of the deltas. An int64 column is read in place.
    """
    deltas = _as_delta_array(deltas)
    n = int(deltas.size)
    if n < 2:
        raise NumericalError(f"need at least 2 rank changes, got {n}")
    total_abs = int(np.abs(deltas).sum())
    if total_abs == 0:
        raise NumericalError("all rank changes are zero; the MLE decay constant is infinite")
    decay = n / total_abs
    mean_abs = total_abs / n
    log_likelihood = n * math.log(decay / 2.0) - decay * total_abs
    return LaplaceFit(decay=decay, n=n, mean_abs=mean_abs, log_likelihood=log_likelihood)


def empirical_pdf(deltas: Sequence[int] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-width integer-bin density estimate of a delta column over its observed range.

    Returns the columns (bin centers, densities) over every integer bin from min to max,
    empty interior bins included. A density is count / n; they sum to 1 up to rounding.
    """
    deltas = _as_delta_array(deltas)
    if deltas.size == 0:
        raise ParameterError("cannot build a pdf from an empty sample")
    lo = int(deltas.min())
    if (bins := int(deltas.max()) - lo + 1) > max(2 * deltas.size, _MAX_BINS):
        raise ParameterError(f"a pdf of n = {deltas.size} rank changes needs {bins} bins, "
                             f"over max(2n, {_MAX_BINS})")
    counts = np.bincount(deltas - lo)  # a bin for every value up to the max
    return np.arange(lo, lo + counts.size), counts / deltas.size


def laplace_density(decay: float, delta: int | float) -> float:
    """Model density decay/2 * exp(-decay*|delta|)."""
    decay, delta = _finite("decay", decay, ">"), _finite("delta", delta, "")
    return 0.5 * decay * math.exp(-decay * abs(delta))


def exceedance_probability(fit: LaplaceFit, delta: int | float) -> float:
    """Probability that a rank change of at least |delta| occurs.

    Equals 0.5*exp(-decay*|delta|); symmetric in the sign of delta and
    confined to [0, 0.5]: it underflows to 0.0 at large decay*|delta|
    (decay 2.5 at delta 400, for one).
    """
    _instance(LaplaceFit, fit=fit)
    return 0.5 * math.exp(-_finite("decay", fit.decay, ">") * abs(_finite("delta", delta, "")))
