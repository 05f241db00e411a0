import concurrent.futures
import dataclasses
import gc
import json
import math
import os
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from econrank import (
    Ensemble,
    SweepConfig,
    fit_model_regression,
    simulate_country,
    sweep,
)
from econrank import abm, cli
from econrank.abm import _LEAF as LEAF
from econrank.errors import NumericalError, ParameterError
from workforce_reference import draw_workforce

# 4^(-0.1), frozen from a 30-digit mpmath evaluation
FOUR_POW_M01 = 0.870550563296124


def mean_discrepancy_closed_form(sigma: float) -> float:
    """E[exp(-|Z|)] for Z ~ N(0, sigma^2): 2*exp(sigma^2/2)*Phi(-sigma)."""
    return 2.0 * math.exp(sigma**2 / 2.0) * norm.cdf(-sigma)


def params(**overrides) -> dict:
    """``simulate_country``'s keywords: a default country with ``overrides``."""
    return dict(dict(mu=10.0, sigma=1.0, n_jobs=1000, gamma=0.1, seed=7), **overrides)


class TestParams:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(mu=0.0),
            dict(mu=-1.0),
            dict(sigma=-0.5),
            dict(n_jobs=0),
            dict(gamma=-0.1),
            dict(mu=math.nan),
            dict(gamma=math.inf),
            dict(n_jobs=abm._MAX_JOBS + 1),
            dict(n_jobs=10**30),
        ],
    )
    def test_invalid_params_rejected(self, bad):
        with pytest.raises(ParameterError):
            simulate_country(**params(**bad))

    @pytest.mark.parametrize("first", ["mu", "sigma", "n_jobs", "gamma", "seed"])
    def test_first_bad_value_is_named(self, first):
        # checked in the order mu, sigma, n_jobs, gamma, seed: the first bad one is named
        bad = dict(mu=0, sigma=-1, n_jobs=0, gamma=-1, seed=-1)
        names = list(bad)
        with pytest.raises(ParameterError, match=rf"^{first} must be "):
            simulate_country(**params(**{n: bad[n] for n in names[names.index(first):]}))

    @pytest.mark.parametrize(
        "bad",
        [
            dict(n_countries=0),
            dict(n_jobs=0),
            dict(mu_range=(0.0, 5.0)),
            dict(mu_range=(6.0, 5.0)),
            dict(sigma_range=(0.0, 20.0)),
            dict(gamma=-1.0),
            dict(n_countries=2.5),
            dict(gamma=math.nan),
            dict(n_countries=abm._MAX_COUNTRIES + 1),
            dict(n_jobs=abm._MAX_JOBS // 10 + 1),
            dict(n_jobs=10**30),
        ],
    )
    def test_invalid_config_rejected(self, bad):
        base = dict(
            n_countries=10,
            n_jobs=100,
            mu_range=(5.0, 20.0),
            sigma_range=(0.5, 20.0),
            gamma=0.1,
            seed=1,
        )
        base.update(bad)
        with pytest.raises(ParameterError):
            SweepConfig(**base)

    def test_largest_config_accepted(self):
        config = SweepConfig(n_countries=abm._MAX_COUNTRIES, n_jobs=1, mu_range=[1, 2],
                             sigma_range=(1, 1), gamma=0, seed=0)
        assert config.mu_range == (1.0, 2.0) and config.gamma == 0.0

    def test_largest_job_count_accepted(self, monkeypatch):
        # n_countries * n_jobs is bounded; each check only builds the config
        for n in (1, 10, abm._MAX_COUNTRIES):
            config = SweepConfig(n_countries=n, n_jobs=abm._MAX_JOBS // n, mu_range=[1, 2],
                                 sigma_range=(1, 1), gamma=0, seed=0)
            assert config.n_countries * config.n_jobs <= abm._MAX_JOBS
        drawn = []  # the job counts handed to the kernel, which draws nothing here
        monkeypatch.setattr(abm, "_capacity", lambda rng, sigma, n: drawn.append(n) or 0.0)
        simulate_country(**params(n_jobs=abm._MAX_JOBS))
        assert drawn == [abm._MAX_JOBS]


# JSON-like values of every kind a config file or a library caller can supply.
_scalars = (
    st.none() | st.booleans() | st.integers() | st.integers(-(2**1100), 2**1100)
    | st.floats() | st.text(max_size=3)
)
_junk = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)
_pair = st.lists(st.integers(1, 100) | st.floats(0.1, 100), min_size=2, max_size=2).map(sorted)


@settings(max_examples=300)
@given(
    n_countries=st.integers(1, 10**6) | _junk,
    n_jobs=st.integers(1, 10**6) | _junk,
    mu_range=_pair | _pair.map(tuple) | _junk,
    sigma_range=_pair | _junk,
    gamma=st.integers(0, 5) | st.floats(0, 5) | _junk,
    seed=st.integers(0, 2**64) | _junk,
)
def test_config_normalised_or_parameter_error(**fields):
    try:
        config = SweepConfig(**fields)
    except ParameterError:
        return
    for name in ("n_countries", "n_jobs", "seed"):
        assert type(getattr(config, name)) is int
    for name in ("mu_range", "sigma_range"):
        value = getattr(config, name)
        assert type(value) is tuple and [type(v) for v in value] == [float, float]
    assert type(config.gamma) is float


@settings(max_examples=300)
@given(
    mu=st.integers(1, 100) | st.floats(1e-3, 100) | _junk,
    sigma=st.integers(0, 20) | st.floats(0, 20) | _junk,
    n_jobs=st.integers(1, 50) | _junk,
    gamma=st.integers(0, 5) | st.floats(0, 5) | _junk,
    seed=st.integers(0, 2**64) | _junk,
)
def test_simulate_country_checked_or_parameter_error(**fields):
    # a stand-in kernel, so a junk n_jobs up to 10^10 that passes draws nothing
    with mock.patch.object(abm, "_capacity", lambda rng, sigma, n: float(n)):
        try:
            outcome = simulate_country(**fields)
        except ParameterError:
            return
        except NumericalError as exc:  # valid values whose proxy sigma^(-gamma) overflows a float
            assert str(exc).startswith("sigma^(-gamma) overflows for sigma="), exc
            with pytest.raises(OverflowError):
                float(fields["sigma"]) ** -float(fields["gamma"])
            return
    for f in dataclasses.fields(Ensemble):
        column = getattr(outcome, f.name)
        assert column.dtype == np.float64 and column.shape == (1,), f.name
        assert not column.flags.writeable, f.name
    assert outcome.mu[0] == float(fields["mu"]) and outcome.sigma[0] == float(fields["sigma"])


class TestSimulateCountry:
    @pytest.mark.parametrize("n_jobs", [1000, 3 * LEAF + 5])
    def test_zero_sigma_is_exact(self, n_jobs):
        outcome = simulate_country(**params(sigma=0.0, mu=10.0, n_jobs=n_jobs))
        assert outcome.e_total == float(n_jobs)
        assert outcome.gdp_total == 10.0 * n_jobs
        assert outcome.gdp_per_capita == 10.0
        assert outcome.sigma == 0

    def test_zero_sigma_gci_sentinel(self):
        flagged = simulate_country(**params(sigma=0.0, gamma=0.1))
        assert flagged.sigma == 0
        assert math.isinf(flagged.gci_th[0]) and flagged.gci_th[0] > 0
        plain = simulate_country(**params(sigma=0.0, gamma=0.0))
        assert plain.gci_th == 1.0

    def test_identity_relations_exact(self):
        p = params()
        outcome = simulate_country(**p)
        assert outcome.gdp_total == p["mu"] * outcome.e_total
        assert outcome.gdp_per_capita == outcome.gdp_total / p["n_jobs"]
        assert 0 < outcome.e_total <= p["n_jobs"]

    def test_deterministic_given_seed(self):
        assert same_columns(simulate_country(**params()), simulate_country(**params()))

    def test_outcome_is_one_row_ensemble(self):
        outcome = simulate_country(**params())
        assert isinstance(outcome, Ensemble)
        for f in dataclasses.fields(Ensemble):
            column = getattr(outcome, f.name)
            assert isinstance(column, np.ndarray), f.name
            assert column.dtype == np.float64 and column.shape == (1,), f.name
        assert outcome.mu == 10.0 and outcome.sigma == 1.0

    # Chunk boundaries around the kernel's leaf size; exact equality fails if
    # numpy's pairwise-sum split ever stops matching the kernel's.
    @pytest.mark.parametrize(
        "n_jobs", [1, 7, 8, 9, 5000, LEAF - 1, LEAF, LEAF + 1, 2 * LEAF + 8, 10**6 + 3]
    )
    def test_matches_workforce_draw(self, n_jobs):
        # Several seeds: a wrong split still rounds to the same sum about half
        # the time.
        for seed in range(8):
            p = params(n_jobs=n_jobs, seed=seed)
            _, _, discrepancies = draw_workforce(**p)
            assert simulate_country(**p).e_total == float(discrepancies.sum())

    def test_memory_bounded_in_n_jobs(self):
        # Cycle collector off: each call's buffer must be freed on return.
        gc.disable()
        tracemalloc.start()
        try:
            for seed in range(8):
                simulate_country(**params(n_jobs=2_000_000, seed=seed))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert peak < 4 * 2**20

    def test_doubling_mu_doubles_gdp_exactly(self):
        base = simulate_country(**params(mu=8.0))
        doubled = simulate_country(**params(mu=16.0))
        assert doubled.e_total == base.e_total  # mismatch stream is mu-independent
        assert doubled.gdp_total == 2.0 * base.gdp_total

    def test_mean_discrepancy_matches_closed_form(self):
        _, _, discrepancies = draw_workforce(**params(sigma=1.0, n_jobs=10**6, seed=12))
        target = mean_discrepancy_closed_form(1.0)
        se = discrepancies.std(ddof=1) / math.sqrt(discrepancies.size)
        assert abs(discrepancies.mean() - target) < 3 * se
        assert target == pytest.approx(0.523156583730247, abs=1e-12)

    def test_mean_discrepancy_decreasing_in_sigma(self):
        means = []
        for sigma in (0.5, 1.0, 2.0, 4.0, 8.0):
            _, _, d = draw_workforce(**params(sigma=sigma, n_jobs=10**6, seed=3))
            means.append(d.mean())
        assert all(a > b for a, b in zip(means, means[1:]))


class TestWorkforce:
    def test_discrepancies_in_unit_interval(self):
        jobs, skills, discrepancies = draw_workforce(**params(sigma=6.0, n_jobs=20000))
        assert np.all(discrepancies > 0)
        assert np.all(discrepancies <= 1)
        assert np.allclose(discrepancies, np.exp(-np.abs(skills - jobs)))

    def test_jobs_are_nonnegative_integers(self):
        jobs, _, _ = draw_workforce(**params())
        assert np.issubdtype(jobs.dtype, np.integer)
        assert jobs.min() >= 0

    def test_skills_unclamped(self):
        _, skills, _ = draw_workforce(**params(mu=1.0, sigma=10.0, n_jobs=20000))
        assert skills.min() < 0  # negative skills allowed


@settings(max_examples=200)
@given(seed=st.integers(0, 2**64) | st.integers(0, 2**300),
       keys=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5))
def test_seed_states_match_seed_sequence(seed, keys):
    streams = abm._streams([*abm._words(seed), np.array(keys)], len(keys))
    expected = [np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,))).state for k in keys]
    assert [rng.bit_generator.state for rng in streams] == expected


def proxy_of(sigma: float, gamma: float) -> float:
    """The competitiveness proxy sigma^(-gamma) of one simulated country."""
    return simulate_country(**params(sigma=sigma, gamma=gamma)).gci_th[0]


class TestGciTheoretical:
    # a negative sigma is a TestParams row, and sigma = 0 is the uncorrupt +inf proxy
    def test_unit_base(self):
        assert proxy_of(1.0, 0.7) == 1.0

    def test_zero_exponent(self):
        assert proxy_of(13.2, 0.0) == 1.0

    def test_frozen_value(self):
        assert proxy_of(4.0, 0.1) == pytest.approx(FOUR_POW_M01, abs=1e-12)

    def test_overflow_is_domain_error(self):
        with pytest.raises(NumericalError, match=r"overflows for sigma=1e-300, gamma=2\.0"):
            proxy_of(1e-300, 2.0)

    def test_negative_gamma_is_parameter_error(self):
        with pytest.raises(ParameterError, match=r"gamma must be a finite number >= 0, got -0\.1"):
            proxy_of(2.0, -0.1)

    def test_strictly_decreasing_for_positive_gamma(self):
        values = [proxy_of(s, 0.3) for s in (0.5, 1.0, 2.0, 5.0, 20.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


def small_config(**overrides):
    base = dict(
        n_countries=40,
        n_jobs=500,
        mu_range=(5.0, 20.0),
        sigma_range=(0.5, 20.0),
        gamma=0.1,
        seed=99,
    )
    base.update(overrides)
    return SweepConfig(**base)


def same_columns(a: Ensemble, b: Ensemble) -> bool:
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(Ensemble))


def head(ensemble: Ensemble, n: int) -> Ensemble:
    return Ensemble(*(getattr(ensemble, f.name)[:n] for f in dataclasses.fields(Ensemble)))


def ensemble_of(outcomes) -> Ensemble:
    """The one-row ensembles of ``simulate_country``, concatenated in order."""
    return Ensemble(*(np.concatenate([getattr(o, f.name) for o in outcomes])
                      for f in dataclasses.fields(Ensemble)))


def country_params(config: SweepConfig, index: int) -> dict:
    """Country ``index``'s keywords, drawn from child ``index`` of the config seed."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(index,)))
    return dict(
        mu=rng.uniform(*config.mu_range),
        sigma=rng.uniform(*config.sigma_range),
        n_jobs=config.n_jobs,
        gamma=config.gamma,
        seed=int(rng.integers(0, 2**63)),
    )


@pytest.fixture
def pool_calls(monkeypatch):
    """(max_workers, blocks) of each pool the sweep opens; no thread is started."""
    calls = []

    class Recorder:
        """Executor stand-in: records the pool size and blocks, runs tasks inline."""

        def __init__(self, max_workers):
            calls.append((max_workers, []))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            calls[-1][1].extend(iterable)
            return map(fn, calls[-1][1])

    # the sweep imports the executor when it runs
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
    return calls


class TestSweep:
    def test_same_seed_identical_ensemble(self):
        assert same_columns(sweep(small_config()), sweep(small_config()))

    def test_zero_threads_is_parameter_error(self):
        with pytest.raises(ParameterError, match=r"threads must be an integer in \[1, inf\], got 0$"):
            sweep(small_config(), threads=0)

    @pytest.mark.parametrize("threads", [1.5, True])
    def test_non_integer_threads_is_parameter_error(self, threads):
        # a float count raised TypeError, and a bool ran as one thread
        with pytest.raises(ParameterError, match=rf"threads must be an integer .*, got {threads}$"):
            sweep(small_config(), threads=threads)

    def test_thread_count_does_not_change_results(self):
        serial = sweep(small_config(), threads=1)
        threaded = sweep(small_config(), threads=4)
        assert same_columns(serial, threaded)

    def test_more_workers_than_cores_fill_every_row(self, monkeypatch):
        # Each worker returns its block's rows; switching threads every microsecond
        # must neither drop nor reorder any of them.
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        config = small_config(n_countries=64, n_jobs=20)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = sweep(config, threads=16)
        finally:
            sys.setswitchinterval(interval)
        assert same_columns(threaded, sweep(config, threads=1))

    def test_workers_capped_at_country_count(self, monkeypatch, pool_calls):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        ensemble = sweep(small_config(n_countries=3), threads=100_000)
        assert [workers for workers, _ in pool_calls] == [3]
        assert same_columns(ensemble, sweep(small_config(n_countries=3)))

    @pytest.mark.parametrize("cpus, workers", [(4, 4), (None, 1)])
    def test_workers_capped_at_cpu_count(self, monkeypatch, pool_calls, cpus, workers):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        sweep(small_config(n_countries=10, n_jobs=5), threads=5000)
        assert [w for w, _ in pool_calls] == [workers]

    @pytest.mark.parametrize("n", [1, 7, 10])
    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_blocks_cover_every_index_once_in_order(self, monkeypatch, pool_calls, k, n):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        ensemble = sweep(small_config(n_countries=n, n_jobs=5), threads=k)
        ((workers, blocks),) = pool_calls
        assert workers == len(blocks) == min(k, n)
        assert [i for block in blocks for i in block] == list(range(n))
        assert max(map(len, blocks)) - min(map(len, blocks)) <= 1
        assert same_columns(ensemble, sweep(small_config(n_countries=n, n_jobs=5), threads=1))

    def test_single_country_consistent_with_simulate(self):
        config = small_config(n_countries=1)
        assert same_columns(sweep(config), simulate_country(**country_params(config, 0)))

    # Seeds of 1 to 5 words (32 bits each) and blocks seeded in several passes.
    @pytest.mark.parametrize("seed", [0, 2**32 + 5, 2**127 + 1, 2**130 + 7])
    @pytest.mark.parametrize("rows", [2, abm._ROWS])
    def test_every_country_consistent_with_simulate(self, monkeypatch, seed, rows):
        monkeypatch.setattr(abm, "_ROWS", rows)
        config = small_config(n_countries=7, n_jobs=50, seed=seed)
        outcomes = [simulate_country(**country_params(config, i)) for i in range(7)]
        assert same_columns(sweep(config, threads=2), ensemble_of(outcomes))

    def test_block_returns_its_rows_of_the_sweep(self, monkeypatch):
        # A block reads only the config and its range: blocks of three rows, each seeded
        # in two passes, return exactly rows 1-6 of the sweep.
        monkeypatch.setattr(abm, "_ROWS", 2)
        config = small_config(n_countries=8, n_jobs=50)
        ensemble = sweep(config)
        blocks = [abm._simulate_block(config, range(1, 4)), abm._simulate_block(config, range(4, 7))]
        for name, parts in zip(("mu", "sigma", "e_total"), zip(*blocks)):
            assert np.array_equal(np.concatenate(parts), getattr(ensemble, name)[1:7])

    def test_params_drawn_from_ranges(self):
        ensemble = sweep(small_config(n_countries=100, n_jobs=10))
        assert np.all((5.0 <= ensemble.mu) & (ensemble.mu <= 20.0))
        assert np.all((0.5 <= ensemble.sigma) & (ensemble.sigma <= 20.0))

    def test_memory_per_country_bounded(self):
        # The columns take 48 B per country; a per-country object is hundreds.
        n = 20_000
        gc.disable()
        tracemalloc.start()
        try:
            sweep(small_config(n_countries=n, n_jobs=1), threads=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert peak / n < 200

    def test_leaf_memory_bounded_in_n_jobs(self, monkeypatch):
        # Each of the two workers holds one leaf of at most _LEAF draws (512 KiB) at a
        # time; a country's 2*10^6 draws at once would take 16 MB.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        sweep(small_config(n_countries=2, n_jobs=1), threads=2)  # imports the executor
        gc.disable()
        tracemalloc.start()
        try:
            sweep(small_config(n_countries=2, n_jobs=2_000_000), threads=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert peak < 4 * 2**20

    def test_simulate_run_memory_per_country_bounded(self, tmp_path):
        # Columns, the fit's sample and ensemble.csv rendered block by block; one
        # Python string per row of ensemble.csv costs over 100 B per country more.
        n = 20_000
        config = tmp_path / "config.json"
        args = ["simulate", "--config", str(config), "--threads", "2", "--out"]
        for n_countries, out in ((5, "warm"), (n, "out")):  # the first run imports lazily
            config.write_text(json.dumps({**dataclasses.asdict(small_config(n_jobs=1)),
                                          "n_countries": n_countries}), encoding="utf-8")
            gc.disable()
            tracemalloc.start()
            try:
                assert cli.main([*args, str(tmp_path / out)]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
                gc.enable()
        assert peak / n < 350

    def test_fit_memory_per_country_bounded(self):
        # The fit holds a (n, 3) float64 sample beside the logged, centred and residual
        # columns (65 B per point); a copy of the input pairs costs 16 B more, per-point
        # objects hundreds.
        n = 20_000
        ensemble = sweep(small_config(n_countries=n, n_jobs=1), threads=2)
        gc.disable()
        tracemalloc.start()
        try:
            fit_model_regression(ensemble)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert peak / n < 72

    def test_order_independent_sub_seeds(self):
        wide = sweep(small_config(n_countries=30))
        narrow = sweep(small_config(n_countries=10))
        assert same_columns(head(wide, 10), narrow)  # prefix unchanged by ensemble size


class TestModelRegression:
    def test_positive_slope_on_default_config(self):
        fit = fit_model_regression(sweep(small_config(n_countries=200)))
        assert fit.alpha > 0

    def test_proxy_and_output_positively_associated(self):
        # The model's population Spearman at mu ~ U[5,20] is 0.841 +/- 0.010
        # at 1000 countries (the oracle of acceptance criterion 8; 0.842 for
        # unboundedly many): the mu spread dilutes the sigma-driven link
        # (fixed mu gives ~0.998).
        from scipy.stats import spearmanr

        ensemble = sweep(small_config(n_countries=400, n_jobs=2000))
        rho = spearmanr(ensemble.gci_th, ensemble.gdp_per_capita).statistic
        assert rho > 0.75

    def test_gamma_scaling_scales_slope(self):
        base = fit_model_regression(sweep(small_config(n_countries=400, gamma=0.1)))
        scaled = fit_model_regression(sweep(small_config(n_countries=400, gamma=0.3)))
        assert scaled.alpha / base.alpha == pytest.approx(3.0, rel=0.05)

    def test_constant_sigma_is_singular(self):
        ensemble = sweep(small_config(sigma_range=(2.0, 2.0)))
        with pytest.raises(NumericalError, match="^y never varies; the correlation is undefined$"):
            fit_model_regression(ensemble)

    def test_non_finite_gci_rejected(self):
        outcome = simulate_country(**params(sigma=0.0, gamma=0.5))
        with pytest.raises(NumericalError, match=r"finite positive coordinates, got \(.*, inf\)"):
            fit_model_regression(outcome)

    def test_columns_are_read_only(self):
        # a column written after the fact would leave gdp_total and the fit behind
        swept = sweep(small_config(n_countries=3, n_jobs=10))
        for ensemble in (swept, simulate_country(**params())):
            for field in dataclasses.fields(Ensemble):
                column = getattr(ensemble, field.name)
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = 1.0
        source = np.ones(1)
        Ensemble(*(source for _ in dataclasses.fields(Ensemble)))
        source[0] = 2.0  # arrays passed in by the caller stay as the caller made them

    def test_empty_ensemble_rejected(self):
        # as every sample too small to fit
        empty = Ensemble(*(np.empty(0) for _ in dataclasses.fields(Ensemble)))
        with pytest.raises(NumericalError, match="^need at least 3 points, got 0$"):
            fit_model_regression(empty)
