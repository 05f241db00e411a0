"""Cross-sectional fits: log-log power laws, competitiveness residuals, group tests.

A power-law fit is ordinary least squares of ln(y) on ln(x) with intercept.
The per-point log-space residual is the relative-competitiveness score: a
country above the fitted line outperforms its wealth peers. Scores split the
sample into sign groups compared with a pooled-variance Student t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    AlignmentError,
    DegenerateSampleError,
    DomainError,
    ParameterError,
    SingularDesignError,
)


class SamplePoint(NamedTuple):
    label: str
    ln_x: float
    ln_y: float
    residual: float


@dataclass(frozen=True)
class PowerLawFit:
    """OLS fit of ln y = ln_intercept + alpha * ln x."""

    alpha: float
    ln_intercept: float
    stderr_alpha: float
    correlation: float
    t_value_alpha: float
    sample: tuple[SamplePoint, ...]

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


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, np.ndarray]:
    """Slope, intercept, stderr of slope, residuals for y on x with intercept."""
    n = x.size
    if n < 3:
        raise ParameterError(f"need at least 3 points, got {n}")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise SingularDesignError("x never varies; the regression is undefined")
    slope = float(dx @ dy) / sxx
    intercept = float(y.mean() - slope * x.mean())
    residuals = y - (intercept + slope * x)
    sse = float(residuals @ residuals)
    stderr = math.sqrt(sse / (n - 2) / sxx)
    return slope, intercept, stderr, residuals


def fit_power_law(
    points: Sequence[tuple[float, float]],
    labels: Sequence[str] | None = None,
) -> PowerLawFit:
    """Fit y = C * x^alpha by OLS in log-log space.

    Both coordinates must be finite and strictly positive, and both must vary:
    a constant x or constant y leaves the slope or the correlation undefined.
    Any exclusions are applied by the caller before fitting.
    """
    pts = list(points)
    if labels is None:
        labels = [str(i) for i in range(len(pts))]
    else:
        labels = [str(lab) for lab in labels]
        if len(labels) != len(pts):
            raise ParameterError(
                f"{len(labels)} labels for {len(pts)} points"
            )
        if len(set(labels)) != len(labels):
            raise ParameterError("labels must be unique")
    for label, (x, y) in zip(labels, pts):
        if not (0 < x < math.inf and 0 < y < math.inf):  # also false for nan
            raise DomainError(
                f"power-law fit needs finite positive coordinates, got ({x!r}, {y!r}) "
                f"at {label!r}"
            )
    lx = np.log(np.array([p[0] for p in pts], dtype=float))
    ly = np.log(np.array([p[1] for p in pts], dtype=float))
    slope, intercept, stderr, residuals = _ols(lx, ly)
    dy = ly - ly.mean()
    syy = float(dy @ dy)
    if syy == 0.0:
        raise SingularDesignError("y never varies; the correlation is undefined")
    dx = lx - lx.mean()
    correlation = float(dx @ dy) / math.sqrt(float(dx @ dx) * syy)
    t_value = slope / stderr if stderr > 0 else math.inf * np.sign(slope)
    sample = tuple(
        SamplePoint(label, float(a), float(b), float(r))
        for label, a, b, r in zip(labels, lx, ly, residuals)
    )
    return PowerLawFit(
        alpha=slope,
        ln_intercept=intercept,
        stderr_alpha=stderr,
        correlation=correlation,
        t_value_alpha=float(t_value),
        sample=sample,
    )


def relative_competitiveness(fit: PowerLawFit) -> dict[str, float]:
    """Log-space residual per country: positive means above the fitted line.

    The residuals of an OLS fit with intercept have mean zero.
    """
    return {p.label: p.residual for p in fit.sample}


def split_by_sign(
    d: Mapping[str, float], growth: Mapping[str, float]
) -> tuple[list[float], list[float]]:
    """Partition growth values by the sign of the competitiveness score.

    Scores of exactly zero join the positive group. The country sets of the
    scores and the growth mapping must coincide.
    """
    if set(d) != set(growth):
        missing = sorted(set(d) ^ set(growth))
        raise AlignmentError(
            f"country sets of scores and growth differ; mismatched: {missing}"
        )
    group_pos: list[float] = []
    group_neg: list[float] = []
    for country in sorted(d):
        (group_pos if d[country] >= 0 else group_neg).append(
            float(growth[country])
        )
    return group_pos, group_neg


def two_sample_t(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Pooled-variance Student t for the difference of two group means.

    df = n_a + n_b - 2; t is positive exactly when mean(a) > mean(b).
    """
    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    n_a, n_b = xa.size, xb.size
    if n_a < 2 or n_b < 2:
        raise ParameterError(
            f"each group needs at least 2 values, got {n_a} and {n_b}"
        )
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
    pts = list(points)
    x = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts], dtype=float)
    slope, intercept, stderr, _ = _ols(x, y)
    return LinearFit(slope=slope, intercept=intercept, stderr_slope=stderr)
