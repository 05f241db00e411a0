"""Cross-sectional fits: log-log power laws, competitiveness residuals, group tests.

A power-law fit is ordinary least squares of ln(y) on ln(x) with intercept.
The per-point log-space residual is the relative-competitiveness score: a
country above the fitted line outperforms its wealth peers. The scores split a
row-aligned growth column into sign groups compared with a pooled-variance Student t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    AlignmentError,
    DegenerateSampleError,
    DomainError,
    ParameterError,
    SingularDesignError,
)


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


def _columns(points: Sequence[tuple[float, float]]) -> np.ndarray:
    """The points as a C-contiguous (2, n) float array: x in row 0, y in row 1."""
    return np.asarray(points, dtype=float).reshape(len(points), 2).T.copy()


def _ols(
    x: np.ndarray, y: np.ndarray
) -> tuple[float, float, float, np.ndarray, np.ndarray, np.ndarray]:
    """OLS of y on x with intercept: slope, intercept, slope stderr, residuals, centred x, y."""
    n = x.size
    if n < 3:
        raise DegenerateSampleError(f"need at least 3 points, got {n}")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    if sxx == 0.0 or x.min() == x.max():  # a rounded mean leaves a constant x a tiny sxx
        raise SingularDesignError("x never varies; the regression is undefined")
    slope = float(dx @ dy) / sxx
    intercept = float(y.mean() - slope * x.mean())
    residuals = y - (intercept + slope * x)
    sse = float(residuals @ residuals)
    stderr = math.sqrt(sse / (n - 2) / sxx)
    return slope, intercept, stderr, residuals, dx, dy


def fit_power_law(
    points: Sequence[tuple[float, float]],
    labels: Sequence[str] | None = None,
) -> PowerLawFit:
    """Fit y = C * x^alpha by OLS in log-log space to (x, y) pairs or an (n, 2) array.

    Both coordinates must be finite and strictly positive (the DomainError
    names the first bad point by its label, or its index without labels), and
    both must vary: a constant x or constant y leaves the slope or the
    correlation undefined. Any exclusions are applied by the caller before fitting.
    """
    xy = _columns(points)
    if labels is not None:
        labels = tuple(str(lab) for lab in labels)
        if len(labels) != len(points):
            raise ParameterError(f"{len(labels)} labels for {len(points)} points")
        if len(set(labels)) != len(labels):
            raise ParameterError("labels must be unique")
    bad = ~((0 < xy) & (xy < math.inf)).all(axis=0)  # nan fails both comparisons
    if bad.any():
        i = int(bad.argmax())
        x, y = xy[:, i].tolist()
        label = str(i) if labels is None else labels[i]
        raise DomainError(
            f"power-law fit needs finite positive coordinates, got ({x!r}, {y!r}) "
            f"at {label!r}"
        )
    lx, ly = np.log(xy, out=xy)
    slope, intercept, stderr, residuals, dx, dy = _ols(lx, ly)
    syy = float(dy @ dy)
    if syy == 0.0 or ly.min() == ly.max():
        raise SingularDesignError("y never varies; the correlation is undefined")
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
    return dict(zip(fit.labels or map(str, range(len(fit.sample))), fit.sample[:, 2].tolist()))


def split_by_sign(
    d: Sequence[float], growth: Sequence[float]
) -> tuple[list[float], list[float]]:
    """Partition growth values by the sign of the competitiveness score.

    Row-aligned: ``d[i]`` scores the country of ``growth[i]``. Scores of exactly
    zero join the positive group, and each group keeps row order.
    """
    if len(d) != len(growth):
        raise AlignmentError(f"{len(d)} scores for {len(growth)} growth values")
    values = np.asarray(growth, dtype=float)
    positive = np.asarray(d, dtype=float) >= 0
    return values[positive].tolist(), values[~positive].tolist()


def two_sample_t(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Pooled-variance Student t for the difference of two group means.

    df = n_a + n_b - 2; t is positive exactly when mean(a) > mean(b).
    """
    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    n_a, n_b = xa.size, xb.size
    if n_a < 2 or n_b < 2:
        raise DegenerateSampleError(f"each group needs at least 2 values, got {n_a} and {n_b}")
    mean_a, mean_b = float(xa.mean()), float(xb.mean())
    df = n_a + n_b - 2
    pooled_var = (
        float(((xa - mean_a) ** 2).sum()) + float(((xb - mean_b) ** 2).sum())
    ) / df
    if pooled_var == 0.0:
        raise DegenerateSampleError("zero pooled variance; t is undefined")
    t = (mean_a - mean_b) / math.sqrt(pooled_var * (1.0 / n_a + 1.0 / n_b))
    return TTestResult(t=t, df=df, mean_a=mean_a, mean_b=mean_b, n_a=n_a, n_b=n_b)


def ols_linear(points: Sequence[tuple[float, float]]) -> LinearFit:
    """Plain OLS line with the standard error of the slope."""
    x, y = _columns(points)
    slope, intercept, stderr, *_ = _ols(x, y)
    return LinearFit(slope=slope, intercept=intercept, stderr_slope=stderr)
