import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from econrank import (
    BalancedPanel,
    balanced_subset,
    empirical_pdf,
    exceedance_probability,
    fit_laplace_mle,
    laplace_density,
    rank_changes,
    rank_snapshot,
    sample_discrete_laplace,
)
from econrank.errors import DegenerateSampleError, ParameterError
from econrank.outputs import _BLOCK, deltas_csv
from econrank.rankdyn import RankChangeSample
from panel_mapping import from_mapping
from rank_records import records

# 0.5*exp(-1.2), frozen from a 30-digit mpmath evaluation
HALF_EXP_M12 = 0.150597105956101


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


def make_balanced(values_by_year: dict[int, dict[str, float]]) -> BalancedPanel:
    obs = {(c, y): float(v) for y, row in values_by_year.items() for c, v in row.items()}
    years = sorted(values_by_year)
    return balanced_subset(from_mapping("gdp", obs), (years[0], years[-1]))


class TestRankSnapshot:
    def test_largest_value_gets_rank_one(self):
        panel = make_balanced({2000: {"AAA": 100.0, "BBB": 300.0, "CCC": 200.0}})
        table = rank_snapshot(panel, 2000)
        assert table == {"BBB": 1, "CCC": 2, "AAA": 3}

    def test_ranks_are_permutation(self):
        rng = np.random.default_rng(5)
        row = {f"C{i:02d}": float(v) for i, v in enumerate(rng.uniform(1, 9, 25))}
        panel = make_balanced({2000: row})
        ranks = rank_snapshot(panel, 2000)
        assert sorted(ranks.values()) == list(range(1, 26))
        assert list(ranks.values()) == list(range(1, 26))  # in rank order

    def test_tie_broken_by_country_code(self):
        panel = make_balanced({2000: {"BBB": 7.0, "AAA": 7.0, "CCC": 9.0}})
        table = rank_snapshot(panel, 2000)
        assert table == {"CCC": 1, "AAA": 2, "BBB": 3}

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            row = {
                f"C{i:02d}": float(v)
                for i, v in enumerate(rng.integers(1, 8, 12))  # ties likely
            }
            panel = make_balanced({2000: row})
            assert rank_snapshot(panel, 2000) == brute_force_rank(row)


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


@settings(max_examples=120, deadline=None)
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


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=-3000, max_value=3000),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=45),
    st.booleans(),
)
def test_windows_match_the_year_set_rule(first, span, window, overlapping):
    years = tuple(range(first, first + span))
    panel = BalancedPanel(countries=("A", "B"), years=years, values=np.ones((2, span)))
    expected = year_set_windows(years, window, overlapping)
    if not expected:
        with pytest.raises(ParameterError):
            rank_changes(panel, window, overlapping=overlapping)
        return
    sample = rank_changes(panel, window, overlapping=overlapping)
    assert sample.windows == expected
    assert sample.n == 2 * len(expected)


@settings(max_examples=120, deadline=None)
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
        with pytest.raises(DegenerateSampleError):
            fit_laplace_mle([0, 0, 0])

    def test_single_delta_is_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            fit_laplace_mle([3])

    def test_non_integer_deltas_rejected(self):
        with pytest.raises(ParameterError):
            fit_laplace_mle([1.5, -2.0])

    def test_recovers_generating_decay(self):
        deltas = sample_discrete_laplace(0.12, 100_000, seed=7)
        fit = fit_laplace_mle(deltas)
        assert abs(fit.decay - 0.12) / 0.12 < 0.02

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(min_value=-60, max_value=60), min_size=2, max_size=200)
    )
    def test_identity_decay_times_mean_abs(self, deltas):
        if not any(deltas):
            deltas[0] = 1
        fit = fit_laplace_mle(deltas)
        assert abs(fit.decay * fit.mean_abs - 1.0) <= 4e-16

    @settings(max_examples=50, deadline=None)
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
        assert empirical_pdf([0, 0, 1, -1]) == [(-1, 0.25), (0, 0.5), (1, 0.25)]

    def test_densities_sum_to_one(self):
        deltas = sample_discrete_laplace(0.3, 5000, seed=11)
        total = sum(density for _, density in empirical_pdf(deltas))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_single_delta(self):
        assert empirical_pdf([5, 5]) == [(5, 1.0)]

    def test_interior_gaps_get_zero_density(self):
        hist = dict(empirical_pdf([0, 3]))
        assert hist == {0: 0.5, 1: 0.0, 2: 0.0, 3: 0.5}

    def test_empty_sample_rejected(self):
        with pytest.raises(ParameterError):
            empirical_pdf([])

    def test_matches_model_within_three_se(self):
        # Seeded large sample; the 3-se gate applies where the normal
        # approximation to the bin count is valid (expected count >= 10).
        n = 20_000
        deltas = sample_discrete_laplace(0.12, n, seed=0)
        fit = fit_laplace_mle(deltas)
        checked = 0
        for center, density in empirical_pdf(deltas):
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

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=500))
    def test_strictly_decreasing_in_abs_delta(self, delta):
        fit = fit_laplace_mle([2, -3, 4, -1])
        assert exceedance_probability(fit, delta) > exceedance_probability(
            fit, delta + 1
        )
        assert 0 < exceedance_probability(fit, delta) <= 0.5

    @settings(max_examples=50, deadline=None)
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

    def test_integer_output(self):
        draws = sample_discrete_laplace(0.4, 100, seed=3)
        assert draws.dtype == np.int64
