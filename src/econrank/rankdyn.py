"""Rank dynamics: yearly rankings, windowed rank changes, double-exponential MLE.

Rank 1 always belongs to the largest value. Rank changes are pooled across
overlapping (or strided) windows into a single sample and fitted with the
zero-centered double exponential P(d) = decay/2 * exp(-decay*|d|), whose
maximum-likelihood decay is n / sum|d|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateSampleError, ParameterError
from .panel import BalancedPanel


@dataclass(frozen=True)
class RankChangeSample:
    """Pooled rank changes over every window of one length.

    ``deltas`` is a flat integer array, window-major with ``countries`` in
    panel order inside each window.
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


def _rank_order(values: np.ndarray) -> np.ndarray:
    """Row indices down each column from largest to smallest value.

    The sort is stable and rows are in country-code order, so equal values
    keep the lexicographically smaller code first.
    """
    return np.argsort(-values, axis=0, kind="stable")


def rank_snapshot(panel: BalancedPanel, year: int) -> dict[str, int]:
    """Dense ranks 1..N for one year as {country: rank}, in rank order.

    The largest value gets rank 1; among equal values the lexicographically
    smaller code gets the smaller rank.
    """
    order = _rank_order(panel.values[:, panel.year_index(year)])
    return {panel.countries[i]: rank for rank, i in enumerate(order.tolist(), start=1)}


def rank_changes(
    panel: BalancedPanel, window: int, overlapping: bool = True
) -> RankChangeSample:
    """Pool per-country rank changes over every ``window``-year span.

    With ``overlapping`` every start year t with t+window in the panel
    contributes a window; otherwise start years advance in steps of
    ``window`` from the first year. Each window pairs rank column j with
    column j + window, read as two column slices.
    """
    if window < 1:
        raise ParameterError(f"window must be >= 1 year, got {window}")
    if window >= len(panel.years):  # a slice stop of len(years) - window would wrap
        raise ParameterError(
            f"window of {window} years needs a span of at least {window + 1} years; "
            f"panel covers {panel.years[0]}-{panel.years[-1]}"
        )
    order = _rank_order(panel.values)
    ranks = np.empty(order.shape, dtype=np.int64)
    rank_values = np.arange(1, panel.n_countries + 1, dtype=np.int64)[:, None]
    np.put_along_axis(ranks, order, rank_values, axis=0)
    step = 1 if overlapping else window
    starts = slice(0, len(panel.years) - window, step)
    deltas = (ranks[:, window::step] - ranks[:, starts]).T.ravel()
    return RankChangeSample(
        deltas=deltas,
        windows=tuple((t, t + window) for t in panel.years[starts]),
        countries=panel.countries,
    )


def _as_delta_array(sample: RankChangeSample | Sequence[int] | np.ndarray) -> np.ndarray:
    deltas = getattr(sample, "deltas", sample)
    arr = np.asarray(deltas)
    if arr.ndim != 1:
        raise ParameterError("deltas must be one-dimensional")
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.rint(arr)
        if not np.array_equal(arr, rounded):
            raise ParameterError("rank changes must be integers")
        arr = rounded
    return arr.astype(np.int64)


def fit_laplace_mle(sample: RankChangeSample | Sequence[int] | np.ndarray) -> LaplaceFit:
    """Maximum-likelihood fit of P(d) = decay/2 * exp(-decay*|d|).

    decay = n / sum|d| and log-likelihood = n*ln(decay/2) - decay*sum|d|.
    The absolute sum is integer arithmetic, so the fit is independent of
    the order of the deltas.
    """
    deltas = _as_delta_array(sample)
    n = int(deltas.size)
    if n < 2:
        raise DegenerateSampleError(f"need at least 2 rank changes, got {n}")
    total_abs = int(np.abs(deltas).sum())
    if total_abs == 0:
        raise DegenerateSampleError(
            "all rank changes are zero; the MLE decay constant is infinite"
        )
    decay = n / total_abs
    mean_abs = total_abs / n
    log_likelihood = n * math.log(decay / 2.0) - decay * total_abs
    return LaplaceFit(decay=decay, n=n, mean_abs=mean_abs, log_likelihood=log_likelihood)


def empirical_pdf(
    sample: RankChangeSample | Sequence[int] | np.ndarray,
) -> list[tuple[int, float]]:
    """Unit-width integer-bin density estimate over the observed delta range.

    Returns (bin center, density) for every integer bin from min to max,
    including empty interior bins. Densities sum to exactly 1.
    """
    deltas = _as_delta_array(sample)
    if deltas.size == 0:
        raise ParameterError("cannot build a pdf from an empty sample")
    lo, hi = int(deltas.min()), int(deltas.max())
    centers = np.arange(lo, hi + 1)
    counts = np.bincount((deltas - lo).astype(np.intp), minlength=centers.size)
    n = deltas.size
    return [(int(c), int(k) / n) for c, k in zip(centers, counts)]


def laplace_density(decay: float, delta: int | float) -> float:
    """Model density decay/2 * exp(-decay*|delta|)."""
    return 0.5 * decay * math.exp(-decay * abs(delta))


def exceedance_probability(fit: LaplaceFit, delta: int | float) -> float:
    """Probability that a rank change of at least |delta| occurs.

    Equals 0.5*exp(-decay*|delta|); symmetric in the sign of delta and
    confined to (0, 0.5].
    """
    return 0.5 * math.exp(-fit.decay * abs(delta))


def sample_discrete_laplace(
    decay: float, n: int, seed: int | np.random.Generator
) -> np.ndarray:
    """Seeded integer draws from a rounded continuous double exponential.

    Inverse-CDF sampling of the continuous Laplace with the given decay,
    rounded to the nearest integer. Used as the reproducible generator for
    MLE recovery checks.
    """
    if decay <= 0:
        raise ParameterError(f"decay must be positive, got {decay}")
    if n < 1:
        raise ParameterError(f"sample size must be >= 1, got {n}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    u = np.maximum(rng.random(n), np.finfo(float).tiny)  # avoid log(0) at u=0
    x = np.where(u < 0.5, np.log(2.0 * u), -np.log(2.0 * (1.0 - u))) / decay
    return np.rint(x).astype(np.int64)
