"""Textbook statistics oracles, written without econrank.

The acceptance, cross-section and rank-dynamics tests compare econrank's
fits, pooled t and ranks with these direct formulas.
"""

import math

import numpy as np


def ols_normal_equations(x, y) -> tuple[float, float, float]:
    """Independent OLS oracle via the normal equations: (slope, intercept, stderr of slope)."""
    design = np.column_stack([np.ones_like(x), x])
    gram = design.T @ design
    beta = np.linalg.solve(gram, design.T @ y)
    residuals = y - design @ beta
    sigma2 = float(residuals @ residuals) / (len(x) - 2)
    cov = sigma2 * np.linalg.inv(gram)
    return float(beta[1]), float(beta[0]), math.sqrt(cov[1, 1])


def pooled_t_textbook(a, b) -> tuple[float, int]:
    """The pooled-variance Student t of ``a`` against ``b``, and its degrees of freedom."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    na, nb = len(a), len(b)
    df = na + nb - 2
    sp2 = ((na - 1) * a.var(ddof=1) + (nb - 1) * b.var(ddof=1)) / df
    return float((a.mean() - b.mean()) / math.sqrt(sp2 * (1 / na + 1 / nb))), df


def brute_force_rank(values: dict[str, float]) -> dict[str, int]:
    """O(n^2) counting oracle: rank = 1 + #(larger) + #(equal with smaller code)."""
    ranks = {}
    for country, value in values.items():
        better = sum(
            1
            for other, v in values.items()
            if v > value or (v == value and other < country)
        )
        ranks[country] = 1 + better
    return ranks
