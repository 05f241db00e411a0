"""Cross-sectional fits: log-log power laws, competitiveness residuals, group tests.

A power-law fit is ordinary least squares of ln(y) on ln(x) with intercept.
The per-point log-space residual is the relative-competitiveness score: a
country above the fitted line outperforms its wealth peers. The scores split a
row-aligned growth column into sign groups compared with a pooled-variance Student t.
:func:`cross_section` runs all of it on two balanced panels aligned by country code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Sequence

import numpy as np

from . import panel
from .errors import (DataError, NumericalError, ParameterError, _column, _finite_rows, _instance,
                     _integer)


@dataclass(frozen=True, eq=False)
class PowerLawFit:
    """OLS fit of ln y = ln_intercept + alpha * ln x."""

    alpha: float
    ln_intercept: float
    stderr_alpha: float
    correlation: float
    t_value_alpha: float
    sample: np.ndarray  # read-only (n, 3) float64; per point: ln x, ln y, residual
    labels: tuple[str, ...] | None  # one per sample row; None when fitted without labels

    def predict_ln(self, ln_x: float) -> float:
        return self.ln_intercept + self.alpha * ln_x


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: int
    mean_a: float
    mean_b: float
    n_a: int
    n_b: int


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    stderr_slope: float

    def predict(self, x: float) -> float:
        return self.intercept + self.slope * x


@dataclass(frozen=True, eq=False)
class CrossSection:
    countries: tuple[str, ...]  # the codes both panels hold, ascending; one row each
    x: np.ndarray  # x and y in the fit year
    y: np.ndarray
    keep: np.ndarray  # bool: not excluded, so fitted
    growth: np.ndarray  # per kept row, over x's years
    fit: PowerLawFit  # of the kept rows, labelled with their codes
    ttest: TTestResult  # growth of nonnegative against negative residuals
    growth_fit: LinearFit  # growth on residual


def _ols(
    x: np.ndarray, y: np.ndarray
) -> tuple[float, float, float, np.ndarray, np.ndarray, np.ndarray]:
    """OLS of y on x with intercept: slope, intercept, slope stderr, residuals, centred x, y."""
    n = x.size
    if n < 3:
        raise NumericalError(f"need at least 3 points, got {n}")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    if sxx == 0.0 or x.min() == x.max():  # a rounded mean leaves a constant x a tiny sxx
        raise NumericalError("x never varies; the regression is undefined")
    slope = float(dx @ dy) / sxx
    intercept = float(y.mean() - slope * x.mean())
    residuals = y - (intercept + slope * x)
    sse = float(residuals @ residuals)
    stderr = math.sqrt(sse / (n - 2) / sxx)
    return slope, intercept, stderr, residuals, dx, dy


def _labels(name: str, labels: Sequence[str] | None, n: int) -> tuple[str, ...] | None:
    """The ``name`` argument ``labels`` as a tuple of unique strings, one per point, or None."""
    if labels is None:
        return None
    labels = tuple(_column(name, labels, str).tolist())
    if len(labels) != n:
        raise ParameterError(f"{len(labels)} labels for {n} points")
    if len(set(labels)) != len(labels):
        raise ParameterError("labels must be unique")
    return labels


def fit_power_law(
    x: Sequence[float], y: Sequence[float], labels: Sequence[str] | None = None
) -> PowerLawFit:
    """Fit y = C * x^alpha by OLS in log-log space to the row-aligned columns ``x`` and ``y``.

    Both coordinates must be finite and strictly positive (the NumericalError
    names the first bad point by its label, or its index without labels), and
    both must vary: a constant x or constant y leaves the slope or the
    correlation undefined. Any exclusions are applied by the caller before fitting.
    """
    x, y = _column("x", x), _column("y", y)
    labels = _labels("labels", labels, len(x))
    _finite_rows("power-law fit", (x, y), labels, positive=True)
    lx, ly = np.log(x), np.log(y)
    slope, intercept, stderr, residuals, dx, dy = _ols(lx, ly)
    syy = float(dy @ dy)
    if syy == 0.0 or ly.min() == ly.max():
        raise NumericalError("y never varies; the correlation is undefined")
    correlation = float(dx @ dy) / math.sqrt(float(dx @ dx) * syy)
    t_value = slope / stderr if stderr > 0 else math.inf * np.sign(slope)
    sample = np.column_stack((lx, ly, residuals))
    sample.flags.writeable = False
    return PowerLawFit(
        alpha=slope,
        ln_intercept=intercept,
        stderr_alpha=stderr,
        correlation=correlation,
        t_value_alpha=float(t_value),
        sample=sample,
        labels=labels,
    )


def relative_competitiveness(fit: PowerLawFit) -> dict[str, float]:
    """Log-space residual per label (per row index without labels): positive
    means above the fitted line.

    The residuals of an OLS fit with intercept have mean zero.
    """
    _instance(PowerLawFit, fit=fit)
    if (sample := _column("fit.sample", fit.sample, ndim=2)).shape[1] != 3:
        raise DataError(f"fit.sample must have 3 columns, got shape {sample.shape}")
    labels = _labels("fit.labels", fit.labels, len(sample))
    return dict(zip(labels or map(str, range(len(sample))), sample[:, 2].tolist()))


def split_by_sign(
    d: Sequence[float], growth: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Partition growth values by the sign of the competitiveness score.

    Row-aligned columns: ``d[i]`` scores the country of ``growth[i]``. Scores of
    exactly zero join the positive group, and each group keeps row order.
    """
    d, growth = _column("d", d), _column("growth", growth)
    _finite_rows("sign split", (d, growth))
    positive = d >= 0
    return growth[positive], growth[~positive]


def two_sample_t(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Pooled-variance Student t for the difference of two group means.

    df = n_a + n_b - 2; t is positive exactly when mean(a) > mean(b).
    """
    xa, xb = _column("a", a), _column("b", b)
    _finite_rows("group a", (xa,))
    _finite_rows("group b", (xb,))
    n_a, n_b = xa.size, xb.size
    if n_a < 2 or n_b < 2:
        raise NumericalError(f"each group needs at least 2 values, got {n_a} and {n_b}")
    mean_a, mean_b = float(xa.mean()), float(xb.mean())
    df = n_a + n_b - 2
    pooled_var = (
        float(((xa - mean_a) ** 2).sum()) + float(((xb - mean_b) ** 2).sum())
    ) / df
    if pooled_var == 0.0:
        raise NumericalError("zero pooled variance; t is undefined")
    t = (mean_a - mean_b) / math.sqrt(pooled_var * (1.0 / n_a + 1.0 / n_b))
    return TTestResult(t=t, df=df, mean_a=mean_a, mean_b=mean_b, n_a=n_a, n_b=n_b)


def ols_linear(x: Sequence[float], y: Sequence[float]) -> LinearFit:
    """Plain OLS line of the column ``y`` on the column ``x``, with the slope's standard error."""
    x, y = _column("x", x), _column("y", y)
    _finite_rows("linear fit", (x, y))
    slope, intercept, stderr, *_ = _ols(x, y)
    return LinearFit(slope=slope, intercept=intercept, stderr_slope=stderr)


def cross_section(x: panel.BalancedPanel, y: panel.BalancedPanel, year: int,
                  excluded: Collection[str] = (), method: str = "log") -> CrossSection:
    """Power-law fit of y on x in ``year`` over the codes both panels hold (compared as
    ``str``) less ``excluded``, each fitted residual then tested against the growth of x.
    """
    _instance(panel.BalancedPanel, x=x, y=y)
    _instance(Collection, excluded=excluded)
    if isinstance(excluded, str):  # a str is a Collection too, and would match by substring
        raise ParameterError(f"excluded must be a collection of codes, got str {excluded!r}")
    _integer("year", year, -math.inf)
    row_y = {c: i for i, c in enumerate(y.countries)}
    rows = np.array([i for i, c in enumerate(x.countries) if c in row_y], np.intp)
    if not rows.size:
        raise DataError(f"no country has both x over {x.years[0]}-{x.years[-1]} and y in {year}")
    countries = tuple(x.countries[i] for i in rows.tolist())  # x's codes ascend
    keep = np.array([c not in excluded for c in countries], dtype=bool)
    x_col = x.values[rows, x.year_index(year)]
    y_col = y.values[[row_y[c] for c in countries], y.year_index(year)]
    fitted = [c for c in countries if c not in excluded]
    fit = fit_power_law(x_col[keep], y_col[keep], labels=fitted)
    d = fit.sample[:, 2]
    growth = panel.growth_rate(x, rows[keep], method=method)
    for column in (x_col, y_col, keep, growth):  # as read-only as the fit's own sample
        column.flags.writeable = False
    ttest = two_sample_t(*split_by_sign(d, growth))
    growth_fit = ols_linear(d, growth)
    return CrossSection(countries, x_col, y_col, keep, growth, fit, ttest, growth_fit)
