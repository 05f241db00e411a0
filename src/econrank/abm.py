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

Outcomes take one path: ``simulate_country`` and ``sweep`` compute the
capacities E and pass them to ``_outcomes``, the one place that applies the
output equations and the proxy, and builds an :class:`Ensemble` of float64 columns.
That of ``simulate_country``, the reference the sweep is tested against, has one row.
``sweep`` splits the country indices into one contiguous block per worker
thread, which fills its rows of the mu, sigma and E columns with one reused
mismatch buffer. Every country draws the same ``n_jobs`` mismatches and so
costs the same, which makes equal blocks keep the workers equally busy.
Every generator comes from ``_streams``: a block's, ``_ROWS`` countries at a
time, and ``simulate_country``'s one. Building a ``SeedSequence`` and a
``PCG64`` from it costs about 20 us of Python per stream, while the hash
itself is a few integer operations: ``_streams`` runs it as uint32 array
operations over all rows at once and seeds each PCG64 with, row for row, what
``SeedSequence(...).generate_state(4, np.uint64)`` returns, the only thing
PCG64 reads from a seed sequence. The streams are therefore numpy's own, and
numpy keeps SeedSequence and PCG64 output stable across versions.

The kernel fills a buffer of at most ``_LEAF`` mismatches at a time, so memory
is bounded regardless of ``n_jobs``, and sums E in numpy's pairwise order, so E
and all outputs equal those of ``np.exp(-np.abs(normal)).sum()`` bit for bit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import NumericalError, ParameterError, _finite, _instance, _integer
from .xsection import PowerLawFit, fit_power_law

# simulate holds the columns (48 B per country) and the fit's sample (24 B) and renders
# ensemble.csv in blocks joined into one string, peaking near 0.27 KB per country:
# 0.27 GB at this bound.
_MAX_COUNTRIES = 1_000_000
_MAX_JOBS = 10**10  # n_countries * n_jobs, by time: ~2 min at ~8e7 jobs/s on 2 threads


def _range(obj: object, name: str) -> None:
    """Store field ``name`` as a (low, high) float pair with 0 < low <= high."""
    value = getattr(obj, name)
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ParameterError(f"{name} must be a list of 2 numbers, got {value!r}")
    low, high = (_finite(name, v, ">") for v in value)
    if low > high:
        raise ParameterError(f"{name} must satisfy 0 < low <= high, got {value!r}")
    object.__setattr__(obj, name, (low, high))


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Model outcomes: equal-length float64 arrays, row i for country index i.

    The columns of a sweep or a ``simulate_country`` outcome are read-only.
    A sigma = 0 economy is uncorrupt: its competitiveness proxy is the +inf
    sentinel when gamma > 0 and should be excluded from regressions.
    """

    mu: np.ndarray
    sigma: np.ndarray
    e_total: np.ndarray
    gdp_total: np.ndarray
    gdp_per_capita: np.ndarray
    gci_th: np.ndarray


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
        _integer("n_countries", self.n_countries, 1, _MAX_COUNTRIES)
        _integer("n_jobs", self.n_jobs, 1, _MAX_JOBS // self.n_countries)
        _range(self, "mu_range")
        _range(self, "sigma_range")
        object.__setattr__(self, "gamma", _finite("gamma", self.gamma))
        _integer("seed", self.seed, 0)


_LEAF = 1 << 16  # jobs per kernel pass: one 512 KiB float64 buffer per thread
_ROWS = 1 << 10  # countries seeded per hashing pass of a sweep block


def simulate_country(*, mu: float, sigma: float, n_jobs: int, gamma: float,
                     seed: int) -> Ensemble:
    """Simulate one country: its outcome as an :class:`Ensemble` of one row.

    Before anything is drawn, the values pass ``SweepConfig``'s rules (finite mu > 0,
    sigma, gamma >= 0; integer n_jobs in [1, _MAX_JOBS], seed >= 0) or raise ParameterError.
    The capacity E = sum(exp(-|mismatch|)) depends only on the mismatch
    stream, the same stream as ``SeedSequence(seed).spawn(2)[1]``.
    """
    mu, sigma = _finite("mu", mu, ">"), _finite("sigma", sigma)
    _integer("n_jobs", n_jobs, 1, _MAX_JOBS)
    gamma = _finite("gamma", gamma)
    _integer("seed", seed, 0)
    rng = _streams([*_words(seed), 1], 1)[0]  # child 1, as a sweep seeds its mismatches
    e_total = _capacity(rng, sigma, np.empty(min(n_jobs, _LEAF)), n_jobs)
    return _outcomes(np.array([mu]), np.array([sigma]), np.array([e_total]), n_jobs, gamma)


def _outcomes(mu: np.ndarray, sigma: np.ndarray, e_total: np.ndarray, n_jobs: int,
              gamma: float) -> Ensemble:
    """The model's outputs per row: GDP = mu * E, gdp = GDP / n_jobs, proxy sigma^(-gamma)."""
    uncorrupt = math.inf if gamma > 0 else 1.0  # the proxy of sigma = 0
    try:  # libm's scalar pow per country; sigma and gamma are >= 0, as both callers checked
        gci_th = np.fromiter((uncorrupt if s == 0 else s ** -gamma for s in sigma.tolist()),
                             float, len(sigma))
    except OverflowError:  # only at gamma > 0, so the smallest positive sigma overflows
        raise NumericalError(f"sigma^(-gamma) overflows for sigma={sigma[sigma > 0].min()}, "
                             f"gamma={gamma}") from None
    with np.errstate(over="ignore"):  # fit_power_law rejects the infinite outputs
        gdp_total = mu * e_total
    columns = (mu, sigma, e_total, gdp_total, gdp_total / n_jobs, gci_th)
    for column in columns:  # read-only, so no column can fall out of step with the others
        column.flags.writeable = False
    return Ensemble(*columns)


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


class _HashedSeed(ISeedSequence):
    """A seed sequence whose PCG64 seed, ``generate_state(4, np.uint64)``, is precomputed."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words: int, dtype: type = np.uint32) -> np.ndarray:
        return self.state


def _words(seed: int) -> list[int]:
    """The 32-bit words of ``seed``, lowest first, zero-padded to 4 as SeedSequence pads them."""
    return [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 128), 32)]


def _streams(words: list, n: int) -> list[np.random.Generator]:
    """Generator r is ``default_rng(SeedSequence(...))`` for row r of entropy ``words``.

    ``words`` is what SeedSequence assembles: ``_words`` of the seed, then the
    spawn key's; each an int or an array of n rows. The steps are numpy's
    (``mix_entropy`` and ``generate_state``).
    """
    const = 0x43B0D7E5

    def hashmix(value: np.ndarray, mult: int = 0x931E8875) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & 0xFFFFFFFF
        value = value * const
        return value ^ value >> 16

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * 0xCA01F9DD - y * 0x4973F715
        return result ^ result >> 16

    # arrays, never numpy scalars: uint32 arithmetic must wrap without a warning
    words = [np.broadcast_to(np.asarray(w, dtype=np.uint32), (n,)) for w in words]
    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    const = 0x8B51F9DD
    state = np.stack([hashmix(pool[i % 4], 0x58F38DED) for i in range(8)], axis=1)
    state = state.astype("<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_HashedSeed(row))) for row in state]


def _simulate_block(config: SweepConfig, mu: np.ndarray, sigma: np.ndarray,
                    e_total: np.ndarray, block: range) -> None:
    """Fill rows ``block``, each country derived independently of all others.

    Country ``index`` draws mu, sigma and its mismatch seed from child
    ``index`` of the config seed, within ranges ``SweepConfig`` checked, and
    its mismatches from child 1 of that seed, as ``simulate_country`` does.
    """
    buf = np.empty(min(config.n_jobs, _LEAF))
    for start in range(block.start, block.stop, _ROWS):
        rows = range(start, min(start + _ROWS, block.stop))
        draws = []
        for index, rng in zip(rows, _streams([*_words(config.seed), np.array(rows)], len(rows))):
            mu[index] = rng.uniform(*config.mu_range)
            sigma[index] = rng.uniform(*config.sigma_range)
            draws.append(rng.integers(0, 2**63))
        seeds = np.array(draws, dtype=np.uint64)
        words = [seeds & 0xFFFFFFFF, seeds >> 32, 0, 0, 1]  # _words of each seed, then key 1
        for index, rng in zip(rows, _streams(words, len(rows))):
            e_total[index] = _capacity(rng, sigma[index], buf, config.n_jobs)


def sweep(config: SweepConfig, threads: int = 1) -> Ensemble:
    """Simulate the whole ensemble; rows are in country-index order.

    Runs at most ``threads`` workers, and no more than there are countries or
    CPUs. Identical configs produce identical ensembles regardless of ``threads``.
    """
    _instance(SweepConfig, config=config)
    _integer("threads", threads, 1)
    n = config.n_countries
    k = min(threads, n, os.cpu_count() or 1)
    blocks = [range(n * b // k, n * (b + 1) // k) for b in range(k)]
    mu, sigma, e_total = np.empty(n), np.empty(n), np.empty(n)
    from concurrent.futures import ThreadPoolExecutor  # loads logging; only simulate needs it

    with ThreadPoolExecutor(max_workers=k) as pool:
        list(pool.map(partial(_simulate_block, config, mu, sigma, e_total), blocks))
    return _outcomes(mu, sigma, e_total, config.n_jobs, config.gamma)


def fit_model_regression(ensemble: Ensemble) -> PowerLawFit:
    """Power-law fit of the competitiveness proxy against per-capita output."""
    _instance(Ensemble, ensemble=ensemble)
    return fit_power_law(ensemble.gdp_per_capita, ensemble.gci_th)
