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

``sweep`` splits the country indices into one contiguous block per worker
thread, so it holds one task per worker rather than one per country. Every
country draws the same ``n_jobs`` mismatches and so costs the same, which makes
equal blocks keep the workers equally busy.

``simulate_country`` reuses one buffer of at most ``_LEAF`` mismatches, so memory
is bounded regardless of ``n_jobs``, and sums E in numpy's pairwise order, so E
and all outputs equal those of ``np.exp(-np.abs(normal)).sum()`` bit for bit.
"""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError, ParameterError
from .xsection import PowerLawFit, fit_power_law

# simulate holds every outcome (~0.45 KB) and renders ensemble.csv as one string,
# peaking near 1.1 KB per country: about 1 GB at this bound.
_MAX_COUNTRIES = 1_000_000


def _integer(obj: object, name: str, low: int, high: float = math.inf) -> None:
    """Check that field ``name`` is an integer in [low, high]."""
    value = getattr(obj, name)
    if type(value) is not int or not low <= value <= high:  # bool is not a count
        raise ParameterError(f"{name} must be an integer in [{low}, {high}], got {value!r}")


def _real(obj: object, name: str, positive: bool = False) -> None:
    """Store field ``name`` as a float; it must be finite, >= 0, and > 0 if ``positive``."""
    object.__setattr__(obj, name, _finite(name, getattr(obj, name), positive))


def _finite(name: str, value: object, positive: bool) -> float:
    # bool is not a number here; comparing before float() keeps huge integers from overflowing
    if (type(value) not in (int, float) or not 0 <= value <= sys.float_info.max
            or positive and value == 0):
        raise ParameterError(f"{name} must be a finite number {'>' if positive else '>='} 0, "
                             f"got {value!r}")
    return float(value)


def _range(obj: object, name: str) -> None:
    """Store field ``name`` as a (low, high) float pair with 0 < low <= high."""
    value = getattr(obj, name)
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ParameterError(f"{name} must be a list of 2 numbers, got {value!r}")
    low, high = (_finite(name, v, positive=True) for v in value)
    if low > high:
        raise ParameterError(f"{name} must satisfy 0 < low <= high, got {value!r}")
    object.__setattr__(obj, name, (low, high))


@dataclass(frozen=True)
class AbmParams:
    """Inputs of one simulated country."""

    mu: float
    sigma: float
    n_jobs: int
    gamma: float
    seed: int

    def __post_init__(self) -> None:
        _real(self, "mu", positive=True)
        _real(self, "sigma")
        _integer(self, "n_jobs", 1)
        _real(self, "gamma")
        _integer(self, "seed", 0)


@dataclass(frozen=True)
class CountryOutcome:
    """Aggregates of one simulated country.

    A sigma = 0 economy is uncorrupt: its competitiveness proxy is the +inf
    sentinel when gamma > 0 and should be excluded from regressions.
    """

    e_total: float
    gdp_total: float
    gdp_per_capita: float
    gci_th: float
    params: AbmParams


@dataclass(frozen=True)
class SweepConfig:
    """Ensemble configuration; the simulate command's JSON config has these fields."""

    n_countries: int
    n_jobs: int
    mu_range: tuple[float, float]
    sigma_range: tuple[float, float]
    gamma: float
    seed: int

    def __post_init__(self) -> None:
        _integer(self, "n_countries", 1, _MAX_COUNTRIES)
        _integer(self, "n_jobs", 1)
        _range(self, "mu_range")
        _range(self, "sigma_range")
        _real(self, "gamma")
        _integer(self, "seed", 0)


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
    if params.sigma == 0:
        gci_th = math.inf if params.gamma > 0 else 1.0
    else:
        gci_th = gci_theoretical(params.sigma, params.gamma)
    return CountryOutcome(
        e_total=e_total,
        gdp_total=gdp_total,
        gdp_per_capita=gdp_per_capita,
        gci_th=gci_th,
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
    """Competitiveness proxy sigma^(-gamma), decreasing in sigma; DomainError on overflow."""
    if sigma <= 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if gamma < 0:
        raise ParameterError(f"gamma must be nonnegative, got {gamma}")
    try:
        return sigma ** -gamma
    except OverflowError:
        raise DomainError(f"sigma^(-gamma) overflows for sigma={sigma}, gamma={gamma}") from None


def _simulate_block(config: SweepConfig, block: range) -> list[CountryOutcome]:
    """Countries ``block`` of a sweep, each derived independently of all others."""
    outcomes = []
    for index in block:
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(index,)))
        mu = float(rng.uniform(*config.mu_range))
        sigma = float(rng.uniform(*config.sigma_range))
        seed = int(rng.integers(0, 2**63))
        outcomes.append(simulate_country(
            AbmParams(mu=mu, sigma=sigma, n_jobs=config.n_jobs, gamma=config.gamma, seed=seed)
        ))
    return outcomes


def sweep(config: SweepConfig, threads: int = 1) -> list[CountryOutcome]:
    """Simulate the whole ensemble; results are in country-index order.

    Runs at most ``threads`` workers, and no more than there are countries or
    CPUs. Identical configs produce identical ensembles regardless of ``threads``.
    """
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    n = config.n_countries
    k = min(threads, n, os.cpu_count() or 1)
    blocks = [range(n * b // k, n * (b + 1) // k) for b in range(k)]
    with ThreadPoolExecutor(max_workers=k) as pool:
        return [o for block in pool.map(partial(_simulate_block, config), blocks) for o in block]


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
    return fit_power_law(points)
