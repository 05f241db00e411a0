"""Seeded discrete-Laplace draws, the generator of the MLE recovery checks.

``econrank.rankdyn.fit_laplace_mle`` fits P(d) = decay/2 * exp(-decay*|d|) to
rank changes; these draws, with a known decay, check that it recovers it.
"""

import numpy as np

from econrank.errors import ParameterError


def sample_discrete_laplace(
    decay: float, n: int, seed: int | np.random.Generator
) -> np.ndarray:
    """Seeded integer draws from a rounded continuous double exponential.

    Inverse-CDF sampling of the continuous Laplace with the given decay,
    rounded to the nearest integer, from ``np.random.default_rng(seed)`` (a
    Generator seed is used as it is). The generator of MLE recovery checks.
    """
    if decay <= 0:
        raise ParameterError(f"decay must be positive, got {decay}")
    if n < 1:
        raise ParameterError(f"sample size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    u = np.maximum(rng.random(n), np.finfo(float).tiny)  # avoid log(0) at u=0
    x = np.where(u < 0.5, np.log(2.0 * u), -np.log(2.0 * (1.0 - u))) / decay
    return np.rint(x).astype(np.int64)
