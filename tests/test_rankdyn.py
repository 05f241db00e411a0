import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from econrank import (
    balanced_subset,
    empirical_pdf,
    exceedance_probability,
    fit_laplace_mle,
    laplace_density,
    rank_changes,
    rank_matrix,
)
from econrank.errors import DataError, NumericalError, ParameterError
from econrank.outputs import _BLOCK, deltas_csv
from econrank.panel import BalancedPanel
from econrank.rankdyn import _MAX_BINS, RankChangeSample, _as_delta_array
from laplace_reference import sample_discrete_laplace
from panel_mapping import balanced, from_mapping
from rank_records import records
from stats_reference import brute_force_rank

# 0.5*exp(-1.2), frozen from a 30-digit mpmath evaluation
HALF_EXP_M12 = 0.150597105956101


def snapshot(panel: BalancedPanel, year: int) -> dict[str, int]:
    """One year's column of the rank matrix as {country: rank}."""
    return dict(zip(panel.countries, rank_matrix(panel)[:, panel.year_index(year)].tolist()))


def make_balanced(values_by_year: dict[int, dict[str, float]]) -> BalancedPanel:
    obs = {(c, y): float(v) for y, row in values_by_year.items() for c, v in row.items()}
    years = sorted(values_by_year)
    return balanced_subset(from_mapping("gdp", obs), (years[0], years[-1]))


class TestRankSnapshot:
    def test_largest_value_gets_rank_one(self):
        panel = make_balanced({2000: {"AAA": 100.0, "BBB": 300.0, "CCC": 200.0}})
        table = snapshot(panel, 2000)
        assert table == {"BBB": 1, "CCC": 2, "AAA": 3}

    def test_ranks_are_permutation(self):
        rng = np.random.default_rng(5)
        row = {f"C{i:02d}": float(v) for i, v in enumerate(rng.uniform(1, 9, 25))}
        panel = make_balanced({2000: row})
        ranks = snapshot(panel, 2000)
        assert sorted(ranks.values()) == list(range(1, 26))

    def test_tie_broken_by_country_code(self):
        panel = make_balanced({2000: {"BBB": 7.0, "AAA": 7.0, "CCC": 9.0}})
        table = snapshot(panel, 2000)
        assert table == {"CCC": 1, "AAA": 2, "BBB": 3}

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            row = {
                f"C{i:02d}": float(v)
                for i, v in enumerate(rng.integers(1, 8, 12))  # ties likely
            }
            panel = make_balanced({2000: row})
            assert snapshot(panel, 2000) == brute_force_rank(row)


class TestRankChanges:
    def test_swap_gives_plus_minus_one(self):
        panel = make_balanced(
            {2000: {"AAA": 2.0, "BBB": 1.0}, 2001: {"AAA": 1.0, "BBB": 2.0}}
        )
        sample = rank_changes(panel, 1)
        assert sorted(sample.deltas.tolist()) == [-1, 1]

    def test_overlapping_window_count(self):
        # 137 countries over 1980-2011 with decade windows: starts 1980..2001
        rng = np.random.default_rng(0)
        values = {
            year: {f"C{i:03d}": float(v) for i, v in enumerate(rng.uniform(1, 99, 137))}
            for year in range(1980, 2012)
        }
        sample = rank_changes(make_balanced(values), 10, overlapping=True)
        assert len(sample.windows) == 22
        assert sample.n == 137 * 22 == 3014

    def test_non_overlapping_strides_by_window(self):
        rng = np.random.default_rng(1)
        values = {
            year: {f"C{i}": float(v) for i, v in enumerate(rng.uniform(1, 9, 4))}
            for year in range(2000, 2006)
        }
        sample = rank_changes(make_balanced(values), 2, overlapping=False)
        assert sample.windows == ((2000, 2002), (2002, 2004))

    def test_each_window_sums_to_zero(self):
        rng = np.random.default_rng(2)
        values = {
            year: {f"C{i}": float(v) for i, v in enumerate(rng.uniform(1, 9, 9))}
            for year in range(2000, 2008)
        }
        sample = rank_changes(make_balanced(values), 3)
        for t0, t1 in sample.windows:
            in_window = [d for (_, a, b, d) in records(sample) if (a, b) == (t0, t1)]
            assert sum(in_window) == 0

    def test_deltas_bounded_by_n_minus_one(self):
        rng = np.random.default_rng(3)
        values = {
            year: {f"C{i}": float(v) for i, v in enumerate(rng.uniform(1, 9, 6))}
            for year in range(2000, 2006)
        }
        sample = rank_changes(make_balanced(values), 2)
        assert np.abs(sample.deltas).max() <= 5

    def test_short_span_is_parameter_error(self):
        panel = make_balanced(
            {2000: {"AAA": 1.0, "BBB": 2.0}, 2001: {"AAA": 2.0, "BBB": 1.0}}
        )
        with pytest.raises(ParameterError):
            rank_changes(panel, 5)

    def test_zero_window_is_parameter_error(self):
        panel = make_balanced(
            {2000: {"AAA": 1.0, "BBB": 2.0}, 2001: {"AAA": 2.0, "BBB": 1.0}}
        )
        with pytest.raises(ParameterError, match=r"^window must be an integer in \[1, inf\], "
                                                 r"got 0$"):
            rank_changes(panel, 0)

    def test_deltas_are_read_only(self):
        panel = make_balanced(
            {2000: {"AAA": 1.0, "BBB": 2.0}, 2001: {"AAA": 2.0, "BBB": 1.0}}
        )
        deltas = rank_changes(panel, 1).deltas
        with pytest.raises(ValueError, match="read-only"):
            deltas[0] = 0
        assert deltas.tolist() == [-1, 1]


@settings(max_examples=120)
@given(st.data())
def test_rank_changes_match_counting_oracle(data):
    codes = sorted(
        data.draw(st.lists(st.text("ABC", min_size=1, max_size=3), min_size=1,
                           max_size=12, unique=True))
    )
    span = data.draw(st.integers(min_value=2, max_value=8))
    window = data.draw(st.integers(min_value=1, max_value=span - 1))
    overlapping = data.draw(st.booleans())
    # values from {1, 2, 3} make ties the rule rather than the exception
    table = {
        2000 + j: {c: float(data.draw(st.integers(1, 3))) for c in codes}
        for j in range(span)
    }
    sample = rank_changes(make_balanced(table), window, overlapping=overlapping)

    step = 1 if overlapping else window
    expected = []
    for t in range(2000, 2000 + span - window, step):
        r0, r1 = brute_force_rank(table[t]), brute_force_rank(table[t + window])
        expected += [(c, t, t + window, r1[c] - r0[c]) for c in codes]
    assert records(sample) == expected
    assert sample.deltas.tolist() == [d for *_, d in expected]


@settings(max_examples=150)
@given(st.data())
def test_rank_matrix_matches_counting_oracle(data):
    codes = tuple(sorted(
        data.draw(st.lists(st.text("ABC", min_size=1, max_size=3), min_size=1,
                           max_size=12, unique=True))
    ))
    span = data.draw(st.integers(min_value=2, max_value=8))
    # values from 1-5, as in criterion 10, make ties common
    values = np.array([[data.draw(st.integers(1, 5)) for _ in range(span)] for _ in codes],
                      dtype=float)
    panel = balanced(codes, range(2000, 2000 + span), values)
    ranks = rank_matrix(panel)
    assert ranks.dtype == np.int64 and ranks.shape == (len(codes), span)
    for j in range(span):
        assert sorted(ranks[:, j].tolist()) == list(range(1, len(codes) + 1))
        oracle = brute_force_rank(dict(zip(codes, values[:, j].tolist())))
        assert ranks[:, j].tolist() == [oracle[c] for c in codes]
    with pytest.raises(ValueError, match="read-only"):
        ranks[0, 0] = 0
    for overlapping in (True, False):
        for window in range(1, span):
            step = 1 if overlapping else window
            expected = [ranks[i, t + window] - ranks[i, t]
                        for t in range(0, span - window, step) for i in range(len(codes))]
            assert rank_changes(panel, window, overlapping).deltas.tolist() == expected


def year_set_windows(years, window, overlapping):
    """The window rule as a search of the year set, independent of slicing."""
    year_set = set(years)
    if overlapping:
        starts = [t for t in years if t + window in year_set]
    else:
        starts, t = [], years[0]
        while t + window in year_set:
            starts.append(t)
            t += window
    return tuple((t, t + window) for t in starts)


@settings(max_examples=200)
@given(
    st.integers(min_value=-3000, max_value=3000),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=45),
    st.booleans(),
)
def test_windows_match_the_year_set_rule(first, span, window, overlapping):
    years = range(first, first + span)
    panel = balanced(("A", "B"), years, np.ones((2, span)))
    expected = year_set_windows(years, window, overlapping)
    if not expected:
        with pytest.raises(ParameterError):
            rank_changes(panel, window, overlapping=overlapping)
        return
    sample = rank_changes(panel, window, overlapping=overlapping)
    assert sample.windows == expected
    assert sample.n == 2 * len(expected)


@settings(max_examples=120)
@given(st.data())
def test_deltas_csv_renders_the_records(data):
    codes = sorted(
        data.draw(st.lists(st.text('AB\u00c5,"', min_size=1, max_size=3), min_size=1,
                           max_size=12, unique=True))
    )
    span = data.draw(st.integers(min_value=2, max_value=9))
    window = data.draw(st.integers(min_value=1, max_value=span - 1))
    overlapping = data.draw(st.booleans())
    table = {
        1990 + j: {c: float(data.draw(st.integers(1, 50))) for c in codes}
        for j in range(span)
    }
    sample = rank_changes(make_balanced(table), window, overlapping=overlapping)
    text = deltas_csv(sample)
    header = ["country", "start_year", "end_year", "delta"]
    rows = [[c, str(t0), str(t1), str(d)] for c, t0, t1, d in records(sample)]
    assert list(csv.reader(io.StringIO(text, newline=""))) == [header, *rows]
    quoted = {c: '"' + c.replace('"', '""') + '"' if set(c) & set(',"') else c for c in codes}
    assert text == "".join(",".join([quoted.get(r[0], r[0]), *r[1:]]) + "\n"
                           for r in [header, *rows])


@pytest.mark.parametrize(
    "n_countries, n_windows",
    [(_BLOCK - 1, 1), (_BLOCK, 1), (_BLOCK + 1, 1),  # one window on each side of a block
     (341, 3), (512, 2), (205, 5),  # _BLOCK - 1, _BLOCK and _BLOCK + 1 rows over windows
     (_BLOCK + 76, 2)],  # windows of more than one block each
)
def test_deltas_csv_across_block_boundaries(n_countries, n_windows):
    marks = ["", ",", '"', "\n", "\u00c5"]  # codes that need quoting, and plain ones
    codes = tuple(sorted(f"C{i:04d}{marks[i % len(marks)]}" for i in range(n_countries)))
    deltas = np.random.default_rng(n_countries).integers(-50, 51, n_countries * n_windows)
    windows = tuple((1990 + k, 1993 + k) for k in range(n_windows))
    sample = RankChangeSample(deltas=deltas, windows=windows, countries=codes)
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows(
        [("country", "start_year", "end_year", "delta"), *records(sample)])
    assert deltas_csv(sample) == expected.getvalue()


class TestLaplaceMle:
    def test_closed_form_example(self):
        fit = fit_laplace_mle([2, -2, 2, -2])
        assert fit.decay == 0.5
        assert fit.n == 4
        assert fit.mean_abs == 2.0
        assert fit.log_likelihood == pytest.approx(4 * math.log(0.25) - 4.0)

    def test_all_zero_deltas_degenerate(self):
        with pytest.raises(NumericalError, match="^all rank changes are zero; the MLE decay"):
            fit_laplace_mle([0, 0, 0])

    def test_single_delta_is_degenerate(self):
        with pytest.raises(NumericalError, match="^need at least 2 rank changes, got 1$"):
            fit_laplace_mle([3])

    def test_non_integer_deltas_rejected(self):
        with pytest.raises(DataError):
            fit_laplace_mle([1.5, -2.0])

    def test_float_delta_column_rejected_even_when_integral(self):
        for deltas in ([2.0, -2.0], np.array([2.0, -2.0, 1.0])):
            with pytest.raises(DataError, match="^deltas must hold ints, got float(64)?$"):
                fit_laplace_mle(deltas)
            with pytest.raises(DataError, match="^deltas must hold ints, got float(64)?$"):
                empirical_pdf(deltas)

    def test_only_a_one_dimensional_column_is_taken(self):
        # the functions take the column, sample.deltas, and nothing that holds one
        sample = RankChangeSample(np.array([1, -1, 2, -2]), ((2000, 2001),) * 2, ("A", "B"))
        for fn in (fit_laplace_mle, empirical_pdf):
            for deltas in (sample, np.array([[1, -1], [2, -2]])):
                with pytest.raises(DataError, match="^deltas must be 1-D, got shape"):
                    fn(deltas)
        assert fit_laplace_mle(sample.deltas).decay == 4 / 6

    def test_int64_column_is_read_in_place(self):
        deltas = sample_discrete_laplace(0.12, 1000, seed=5)
        assert np.shares_memory(_as_delta_array(deltas), deltas)
        narrow = deltas.astype(np.int32)  # any other integer column is converted
        assert _as_delta_array(narrow).dtype == np.int64

    @pytest.mark.parametrize("fn", [fit_laplace_mle, empirical_pdf])
    def test_peak_memory_per_delta(self, fn):
        # one int64 temporary (8 B per delta): |d| for the fit, d - min for the pdf;
        # a copy of the column costs 8 B more
        n = 1_000_000
        deltas = sample_discrete_laplace(0.12, n, seed=1)
        tracemalloc.start()
        try:
            fn(deltas)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / n < 12, f"{peak / n:.1f} B per delta"

    @pytest.mark.parametrize("deltas", [
        np.array([2**63, 1], dtype=np.uint64),  # wrapped to -2**63 by the int64 cast
        np.array([-(2**63), 1]),  # |d| overflows np.abs
        [2**62, -1],
        [2**62 - 1] * 3,  # each below 2**62, but their |d| sum overflows int64
    ])
    def test_out_of_range_delta_is_parameter_error(self, deltas):
        for fn in (fit_laplace_mle, empirical_pdf):
            with pytest.raises(ParameterError, match="out of range"):
                fn(deltas)

    def test_largest_delta_in_range_is_fitted_exactly(self):
        for deltas in ([2**62 - 1, -1], np.array([2**62 - 1, 1], dtype=np.uint64)):
            assert fit_laplace_mle(deltas).mean_abs == 2**61

    def test_distinct_samples_compare_unequal_and_hash(self):
        a, b = (RankChangeSample(np.array([1, -1]), ((2000, 2001),), ("AAA", "BBB"))
                for _ in "ab")
        assert a == a and (a == b) is False and a != b
        assert len({a, b}) == 2 and hash(a) == hash(a)

    def test_recovers_generating_decay(self):
        deltas = sample_discrete_laplace(0.12, 100_000, seed=7)
        fit = fit_laplace_mle(deltas)
        assert abs(fit.decay - 0.12) / 0.12 < 0.02

    @settings(max_examples=80)
    @given(
        st.lists(st.integers(min_value=-60, max_value=60), min_size=2, max_size=200)
    )
    def test_identity_decay_times_mean_abs(self, deltas):
        if not any(deltas):
            deltas[0] = 1
        fit = fit_laplace_mle(deltas)
        assert abs(fit.decay * fit.mean_abs - 1.0) <= 4e-16

    @settings(max_examples=50)
    @given(
        st.lists(st.integers(min_value=-60, max_value=60), min_size=2, max_size=100),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariance_bitwise(self, deltas, rand):
        if not any(deltas):
            deltas[0] = -3
        shuffled = list(deltas)
        rand.shuffle(shuffled)
        assert fit_laplace_mle(deltas) == fit_laplace_mle(shuffled)

    def test_scaling_up_strictly_decreases_decay(self):
        base = [4, -1, 0, 2, -6]
        decays = [fit_laplace_mle([k * d for d in base]).decay for k in (1, 2, 3, 5)]
        assert all(a > b for a, b in zip(decays, decays[1:]))


class TestEmpiricalPdf:
    def test_counting_example(self):
        centers, densities = empirical_pdf([0, 0, 1, -1])
        assert centers.tolist() == [-1, 0, 1] and densities.tolist() == [0.25, 0.5, 0.25]

    def test_densities_sum_to_one(self):
        deltas = sample_discrete_laplace(0.3, 5000, seed=11)
        total = sum(empirical_pdf(deltas)[1].tolist())
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_single_delta(self):
        centers, densities = empirical_pdf([5, 5])
        assert centers.tolist() == [5] and densities.tolist() == [1.0]

    def test_interior_gaps_get_zero_density(self):
        hist = dict(zip(*(column.tolist() for column in empirical_pdf([0, 3]))))
        assert hist == {0: 0.5, 1: 0.0, 2: 0.0, 3: 0.5}

    def test_empty_sample_rejected(self):
        with pytest.raises(ParameterError):
            empirical_pdf([])

    def test_bin_count_is_capped(self):
        # at most max(2n, _MAX_BINS) bins, so a wide range cannot exhaust memory
        with pytest.raises(ParameterError, match="n = 2 rank changes needs 1000001 bins"):
            empirical_pdf([0, 10**6])
        with pytest.raises(ParameterError, match="needs 65537 bins"):
            empirical_pdf([0, _MAX_BINS])
        assert empirical_pdf([0, _MAX_BINS - 1])[0].size == _MAX_BINS
        n = 40_000
        assert empirical_pdf([0] * (n - 1) + [2 * n - 1])[0].size == 2 * n
        with pytest.raises(ParameterError, match=f"needs {2 * n + 1} bins"):
            empirical_pdf([0] * (n - 1) + [2 * n])

    def test_matches_model_within_three_se(self):
        # Seeded large sample; the 3-se gate applies where the normal
        # approximation to the bin count is valid (expected count >= 10).
        n = 20_000
        deltas = sample_discrete_laplace(0.12, n, seed=0)
        fit = fit_laplace_mle(deltas)
        checked = 0
        for center, density in zip(*empirical_pdf(deltas)):
            q = laplace_density(fit.decay, center)
            if n * q < 10:
                continue
            checked += 1
            se = math.sqrt(q * (1 - q) / n)
            assert abs(density - q) <= 3 * se, f"bin {center}"
        assert checked > 50


class TestExceedance:
    def test_zero_delta_is_half(self):
        fit = fit_laplace_mle([1, -1])
        assert exceedance_probability(fit, 0) == 0.5

    def test_frozen_value(self):
        from econrank import LaplaceFit

        fit = LaplaceFit(decay=0.12, n=100, mean_abs=1 / 0.12, log_likelihood=0.0)
        assert exceedance_probability(fit, 10) == pytest.approx(
            HALF_EXP_M12, abs=1e-12
        )

    def test_symmetric_in_sign(self):
        fit = fit_laplace_mle([3, -4, 5, -2])
        assert exceedance_probability(fit, 7) == exceedance_probability(fit, -7)

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=500))
    def test_strictly_decreasing_in_abs_delta(self, delta):
        fit = fit_laplace_mle([2, -3, 4, -1])
        assert exceedance_probability(fit, delta) > exceedance_probability(
            fit, delta + 1
        )
        assert 0 < exceedance_probability(fit, delta) <= 0.5

    @settings(max_examples=50)
    @given(
        st.floats(min_value=0.01, max_value=2.0),
        st.floats(min_value=0.01, max_value=2.0),
        st.integers(min_value=0, max_value=50),
    )
    def test_lipschitz_in_decay(self, decay_a, decay_b, delta):
        from econrank import LaplaceFit

        fa = LaplaceFit(decay_a, 10, 1 / decay_a, 0.0)
        fb = LaplaceFit(decay_b, 10, 1 / decay_b, 0.0)
        gap = abs(
            exceedance_probability(fa, delta) - exceedance_probability(fb, delta)
        )
        assert gap <= 0.5 * abs(delta) * abs(decay_a - decay_b) + 1e-12


class TestSampler:
    def test_seeded_and_reproducible(self):
        a = sample_discrete_laplace(0.12, 1000, seed=42)
        b = sample_discrete_laplace(0.12, 1000, seed=42)
        assert np.array_equal(a, b)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            sample_discrete_laplace(0.0, 10, seed=1)
        with pytest.raises(ParameterError):
            sample_discrete_laplace(0.5, 0, seed=1)

    def test_generator_seed_is_used_as_it_is(self):
        rng = np.random.default_rng(42)
        assert np.array_equal(sample_discrete_laplace(0.12, 1000, seed=rng),
                              sample_discrete_laplace(0.12, 1000, seed=42))
        assert np.array_equal(sample_discrete_laplace(0.12, 5, seed=rng),
                              sample_discrete_laplace(0.12, 1005, seed=42)[1000:])

    def test_integer_output(self):
        draws = sample_discrete_laplace(0.4, 100, seed=3)
        assert draws.dtype == np.int64
