"""Generative corruption model: Poisson jobs, Gaussian skill mismatch, output.

Each country posts ``n_jobs`` public-sector jobs with skill requirements drawn
from Poisson(mu). The worker filling a job misses its requirement by a
Gaussian(0, sigma) amount, paying an efficiency penalty exp(-|mismatch|).
Total capacity E is the sum of the penalties, output is GDP = mu * E, and the
competitiveness proxy is sigma^(-gamma).

The job requirements describe the model but are never drawn: E depends only
on the mismatches. A country's one random stream, the mismatch draws, is child
1 of ``SeedSequence(seed)``, so outcomes are reproducible and doubling mu at a
fixed seed exactly doubles GDP. Sweep sub-seeds are derived per country index,
making ensembles independent of execution order and thread count.

``simulate_country`` reuses one buffer of at most ``_LEAF`` mismatches, so memory
is bounded regardless of ``n_jobs``, and sums E in numpy's pairwise order, so E
and all outputs equal those of ``np.exp(-np.abs(normal)).sum()`` bit for bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .xsection import PowerLawFit, fit_power_law


@dataclass(frozen=True)
class AbmParams:
    """Inputs of one simulated country."""

    mu: float
    sigma: float
    n_jobs: int
    gamma: float
    seed: int

    def __post_init__(self) -> None:
        if self.mu <= 0:
            raise ParameterError(f"mu must be positive, got {self.mu}")
        if self.sigma < 0:
            raise ParameterError(f"sigma must be nonnegative, got {self.sigma}")
        if self.n_jobs < 1:
            raise ParameterError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.gamma < 0:
            raise ParameterError(f"gamma must be nonnegative, got {self.gamma}")


@dataclass(frozen=True)
class CountryOutcome:
    """Aggregates of one simulated country.

    ``uncorrupt`` marks the sigma = 0 economy; its competitiveness proxy is
    the +inf sentinel when gamma > 0 and should be excluded from regressions.
    """

    e_total: float
    gdp_total: float
    gdp_per_capita: float
    gci_th: float
    uncorrupt: bool
    params: AbmParams


@dataclass(frozen=True)
class SweepConfig:
    """Ensemble configuration; mirrors the simulate command's JSON config."""

    n_countries: int
    n_jobs: int
    mu_range: tuple[float, float]
    sigma_range: tuple[float, float]
    gamma: float
    seed: int

    def __post_init__(self) -> None:
        if self.n_countries < 1:
            raise ParameterError(f"n_countries must be >= 1, got {self.n_countries}")
        if self.n_jobs < 1:
            raise ParameterError(f"n_jobs must be >= 1, got {self.n_jobs}")
        lo, hi = self.mu_range
        if not (0 < lo <= hi):
            raise ParameterError(f"mu_range must satisfy 0 < low <= high, got {self.mu_range}")
        lo, hi = self.sigma_range
        if not (0 < lo <= hi):
            raise ParameterError(
                f"sigma_range must satisfy 0 < low <= high, got {self.sigma_range}"
            )
        if self.gamma < 0:
            raise ParameterError(f"gamma must be nonnegative, got {self.gamma}")
        if self.seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {self.seed}")


_LEAF = 1 << 16  # jobs per kernel pass: one 512 KiB float64 buffer per thread


def simulate_country(params: AbmParams) -> CountryOutcome:
    """Simulate one country and aggregate its outcome.

    The capacity E = sum(exp(-|mismatch|)) depends only on the mismatch
    stream, the same stream as ``SeedSequence(seed).spawn(2)[1]``.
    """
    skill_rng = np.random.default_rng(np.random.SeedSequence(params.seed, spawn_key=(1,)))
    buf = np.empty(min(params.n_jobs, _LEAF))
    e_total = float(_capacity(skill_rng, params.sigma, buf, params.n_jobs))
    gdp_total = params.mu * e_total
    gdp_per_capita = gdp_total / params.n_jobs
    uncorrupt = params.sigma == 0
    if uncorrupt:
        gci_th = math.inf if params.gamma > 0 else 1.0
    else:
        gci_th = gci_theoretical(params.sigma, params.gamma)
    return CountryOutcome(
        e_total=e_total,
        gdp_total=gdp_total,
        gdp_per_capita=gdp_per_capita,
        gci_th=gci_th,
        uncorrupt=uncorrupt,
        params=params,
    )


def _capacity(rng: np.random.Generator, sigma: float, buf: np.ndarray, n: int) -> float:
    """sum(exp(-|N(0, sigma)|)) over the next ``n`` draws of ``rng``, in place in ``buf``."""
    if n <= _LEAF:
        # |normal(0, s)| == s*|z| exactly, as normal(0, s) is 0.0 + s*z
        chunk = buf[:n]
        rng.standard_normal(out=chunk)
        np.abs(chunk, out=chunk)
        chunk *= -sigma
        np.exp(chunk, out=chunk)
        return chunk.sum()
    # numpy's pairwise-sum split, so every chunk is a node of np.sum's tree
    half = n // 2
    half -= half % 8
    return _capacity(rng, sigma, buf, half) + _capacity(rng, sigma, buf, n - half)


def gci_theoretical(sigma: float, gamma: float) -> float:
    """Competitiveness proxy sigma^(-gamma); decreasing in sigma for gamma > 0."""
    if sigma <= 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if gamma < 0:
        raise ParameterError(f"gamma must be nonnegative, got {gamma}")
    return sigma ** -gamma


def _simulate_index(config: SweepConfig, index: int) -> CountryOutcome:
    """Country ``index`` of a sweep, derived independently of all others."""
    ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(index,))
    rng = np.random.default_rng(ss)
    mu = float(rng.uniform(*config.mu_range))
    sigma = float(rng.uniform(*config.sigma_range))
    seed = int(rng.integers(0, 2**63))
    return simulate_country(
        AbmParams(mu=mu, sigma=sigma, n_jobs=config.n_jobs, gamma=config.gamma, seed=seed)
    )


def sweep(config: SweepConfig, threads: int = 1) -> list[CountryOutcome]:
    """Simulate the whole ensemble; results are in country-index order.

    Identical configs produce identical ensembles regardless of ``threads``.
    """
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    indices = range(config.n_countries)
    if threads == 1:
        return [_simulate_index(config, i) for i in indices]
    with ThreadPoolExecutor(max_workers=min(threads, config.n_countries)) as pool:
        return list(pool.map(lambda i: _simulate_index(config, i), indices))


def fit_model_regression(ensemble: list[CountryOutcome]) -> PowerLawFit:
    """Power-law fit of the competitiveness proxy against per-capita output."""
    if not ensemble:
        raise ParameterError("ensemble is empty")
    for i, outcome in enumerate(ensemble):
        if not math.isfinite(outcome.gci_th):
            raise DomainError(
                f"country {i} has non-finite gci_th; exclude uncorrupt outcomes first"
            )
    points = [(o.gdp_per_capita, o.gci_th) for o in ensemble]
    return fit_power_law(points, labels=[str(i) for i in range(len(ensemble))])
