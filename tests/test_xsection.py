import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from econrank import (
    balanced_subset,
    cross_section,
    fit_power_law,
    load_panel,
    ols_linear,
    relative_competitiveness,
    split_by_sign,
    two_sample_t,
)
from econrank.errors import DataError, NumericalError, ParameterError
from stats_reference import ols_normal_equations, pooled_t_textbook

# pooled t for {2,4,6} vs {1,3,5}: means 4 and 3, pooled variance 4, so
# t = 1 / (2*sqrt(2/3)) = sqrt(3/8); frozen from a 30-digit evaluation
T_246_135 = 0.612372435695795


class TestFitPowerLaw:
    def test_noiseless_recovery_exact(self):
        x = np.arange(1.0, 21.0)
        fit = fit_power_law(x, 2.0 * x**0.1)
        assert fit.alpha == pytest.approx(0.1, abs=1e-10)
        assert fit.ln_intercept == pytest.approx(math.log(2.0), abs=1e-10)

    def test_noisy_recovery_within_three_se(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(1, 100, 100)
        y = np.exp(0.7 + 0.1 * np.log(x) + rng.normal(0, 0.05, 100))
        fit = fit_power_law(x, y)
        assert abs(fit.alpha - 0.1) < 3 * fit.stderr_alpha

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_coordinate_is_domain_error(self, bad):
        for x, y in (([1.0, bad, 3.0, 4.0], [1.0, 2.0, 5.0, 2.0]),
                     ([1.0, 2.0, 3.0, 4.0], [1.0, bad, 5.0, 2.0])):
            with pytest.raises(NumericalError, match="^power-law fit needs finite positive"):
                fit_power_law(x, y)

    def test_nonpositive_coordinate_is_domain_error(self):
        with pytest.raises(NumericalError, match=r"got \(0\.0, 3\.0\) at '1'$"):
            fit_power_law([1.0, 0.0, 2.0], [2.0, 3.0, 4.0])
        with pytest.raises(NumericalError, match=r"got \(2\.0, -3\.0\) at '1'$"):
            fit_power_law([1.0, 2.0, 3.0], [2.0, -3.0, 4.0])

    def test_constant_x_is_singular(self):
        with pytest.raises(NumericalError, match="^x never varies; the regression is undefined$"):
            fit_power_law([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_constant_y_is_singular(self):
        with pytest.raises(NumericalError, match="^y never varies; the correlation is undefined$"):
            fit_power_law([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    def test_constant_with_rounded_mean_is_singular(self):
        # the mean of three ln 14.75 is not ln 14.75, so the sum of squares is not 0
        with pytest.raises(NumericalError, match="^x never varies"):
            fit_power_law([14.75, 14.75, 14.75], [1.0, 2.0, 3.0])
        with pytest.raises(NumericalError, match="^y never varies"):
            fit_power_law([1.0, 2.0, 3.0], [14.75, 14.75, 14.75])

    def test_too_few_points_is_degenerate(self):
        with pytest.raises(NumericalError, match="^need at least 3 points, got 2$"):
            fit_power_law([1.0, 2.0], [1.0, 2.0])

    def test_residual_mean_zero_and_corr_squared_is_r2(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0.5, 50, 40)
        y = np.exp(1.2 + 0.35 * np.log(x) + rng.normal(0, 0.2, 40))
        fit = fit_power_law(x, y)
        residuals = fit.sample[:, 2]
        assert abs(residuals.mean()) < 1e-10
        ly = np.log(y)
        r2 = 1.0 - float(residuals @ residuals) / float(
            (ly - ly.mean()) @ (ly - ly.mean())
        )
        assert fit.correlation**2 == pytest.approx(r2, abs=1e-10)

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(3, 40))
            x = rng.uniform(0.1, 200, n)
            y = np.exp(rng.normal(0, 1) + rng.normal(0, 0.6) * np.log(x)
                       + rng.normal(0, 0.3, n))
            if np.log(y).std() == 0:
                continue
            fit = fit_power_law(x, y)
            slope, intercept, stderr = ols_normal_equations(np.log(x), np.log(y))
            assert fit.alpha == pytest.approx(slope, abs=1e-10)
            assert fit.ln_intercept == pytest.approx(intercept, abs=1e-10)
            assert fit.stderr_alpha == pytest.approx(stderr, abs=1e-10)

    def test_scipy_linregress_cross_check(self):
        rng = np.random.default_rng(31)
        x = rng.uniform(1, 30, 25)
        y = np.exp(0.4 + 0.22 * np.log(x) + rng.normal(0, 0.1, 25))
        fit = fit_power_law(x, y)
        ref = scipy.stats.linregress(np.log(x), np.log(y))
        assert fit.alpha == pytest.approx(ref.slope, abs=1e-12)
        assert fit.correlation == pytest.approx(ref.rvalue, abs=1e-12)
        assert fit.stderr_alpha == pytest.approx(ref.stderr, abs=1e-12)

    def test_label_count_must_match_point_count(self):
        with pytest.raises(ParameterError, match="2 labels for 3 points"):
            fit_power_law([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], labels=["A", "B"])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ParameterError):
            fit_power_law([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], labels=["A", "A", "B"])


    def test_sample_is_read_only_columns(self):
        x = np.array([2.0, 5.0, 11.0, 23.0])
        y = np.array([1.5, 1.1, 2.5, 1.9])
        fit = fit_power_law(x, y)
        assert fit.labels is None
        assert fit.sample.dtype == np.float64 and fit.sample.shape == (4, 3)
        assert not fit.sample.flags.writeable
        assert fit.sample[:, 0].tolist() == np.log(x).tolist()
        assert fit.sample[:, 1].tolist() == np.log(y).tolist()
        labelled = fit_power_law(x.tolist(), y.tolist(), labels=["A", "B", "C", "D"])
        assert labelled.labels == ("A", "B", "C", "D")
        assert labelled.sample.tolist() == fit.sample.tolist()


@pytest.mark.parametrize("fit", [fit_power_law, ols_linear])
def test_unequal_columns_are_alignment_error(fit):
    with pytest.raises(DataError, match=r"^columns of shapes \(4,\) and \(3,\) are not"):
        fit([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
    # (n, 2) pairs are not a column
    with pytest.raises(DataError, match=r"^columns of shapes \(4, 2\) and \(4, 2\) are not"):
        fit(np.ones((4, 2)), np.ones((4, 2)))


any_float = st.one_of(st.floats(), st.floats(min_value=0.5, max_value=50.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(any_float, any_float), min_size=3, max_size=8), st.booleans())
def test_domain_rule_matches_scalar_rule(points, labelled):
    # nan, +-inf, +-0.0, subnormals and negatives all come from st.floats()
    labels = [f"c{i}" for i in range(len(points))] if labelled else None
    xs, ys = ([p[k] for p in points] for k in (0, 1))
    bad = [i for i, (x, y) in enumerate(points)
           if not (0 < x < math.inf and 0 < y < math.inf)]
    if bad:
        i = bad[0]
        x, y = points[i]
        label = labels[i] if labelled else str(i)
        with pytest.raises(NumericalError, match="^power-law fit needs finite") as excinfo:
            fit_power_law(xs, ys, labels=labels)
        assert str(excinfo.value).endswith(f"got ({x!r}, {y!r}) at {label!r}")
        return
    lx, ly = np.log(np.array(points)).T
    if np.all(lx == lx[0]) or np.all(ly == ly[0]):
        which = "x" if np.all(lx == lx[0]) else "y"
        with pytest.raises(NumericalError, match=f"^{which} never varies"):
            fit_power_law(xs, ys, labels=labels)
        return
    fit = fit_power_law(xs, ys, labels=labels)
    assert fit.sample.shape == (len(points), 3)
    assert fit.labels == (None if labels is None else tuple(labels))


class TestRelativeCompetitiveness:
    def _fit(self, noise, labels=None):
        x = np.array([2.0, 5.0, 11.0, 23.0, 47.0])
        y = np.exp(0.5 + 0.1 * np.log(x) + np.asarray(noise))
        return fit_power_law(x, y, labels=labels)

    def test_point_on_line_has_zero_score(self):
        fit = self._fit([0.0, 0.0, 0.0, 0.0, 0.0])
        scores = relative_competitiveness(fit)
        for c in scores:
            assert scores[c] == pytest.approx(0.0, abs=1e-12)

    def test_mean_score_is_zero(self):
        fit = self._fit([0.3, -0.2, 0.1, -0.4, 0.25])
        scores = relative_competitiveness(fit)
        assert abs(sum(scores.values())) < 1e-10

    def test_invariant_under_y_rescaling(self):
        noise = [0.3, -0.2, 0.1, -0.4, 0.25]
        base = relative_competitiveness(self._fit(noise))
        x = np.array([2.0, 5.0, 11.0, 23.0, 47.0])
        y = np.exp(0.5 + 0.1 * np.log(x) + np.asarray(noise)) * 7.3
        scaled = relative_competitiveness(fit_power_law(x, y))
        for c in base:
            assert scaled[c] == pytest.approx(base[c], abs=1e-10)

    def test_x_rescaling_shifts_by_minus_alpha_ln_c(self):
        noise = [0.3, -0.2, 0.1, -0.4, 0.25]
        x = np.array([2.0, 5.0, 11.0, 23.0, 47.0])
        y = np.exp(0.5 + 0.1 * np.log(x) + np.asarray(noise))
        fit = fit_power_law(x, y)
        scaled_fit = fit_power_law(x * 4.0, y)
        base = relative_competitiveness(fit)
        scaled = relative_competitiveness(scaled_fit)
        # slope unchanged, residuals unchanged: the intercept absorbs -alpha*ln c
        assert scaled_fit.alpha == pytest.approx(fit.alpha, abs=1e-12)
        assert scaled_fit.ln_intercept == pytest.approx(
            fit.ln_intercept - fit.alpha * math.log(4.0), abs=1e-10
        )
        for c in base:
            assert scaled[c] == pytest.approx(base[c], abs=1e-10)

    def test_sign_matches_position_relative_to_line(self):
        fit = self._fit([0.5, -0.5, 0.5, -0.5, 0.5], labels=["A", "B", "C", "D", "E"])
        scores = relative_competitiveness(fit)
        for label, (ln_x, ln_y, _) in zip(fit.labels, fit.sample.tolist()):
            predicted = fit.ln_intercept + fit.alpha * ln_x
            assert (scores[label] > 0) == (ln_y > predicted)


class TestSplitBySign:
    def test_partition_sizes(self):
        pos, neg = split_by_sign([0.1, -0.2], [1.0, 2.0])
        assert (len(pos), len(neg)) == (1, 1)
        assert pos.dtype == neg.dtype == np.float64
        assert pos.tolist() == [1.0] and neg.tolist() == [2.0]

    def test_zero_score_joins_positive_group(self):
        pos, neg = split_by_sign([0.0, -0.2], [1.0, 2.0])
        assert pos.tolist() == [1.0]

    def test_length_mismatch_is_alignment_error(self):
        with pytest.raises(DataError, match=r"^columns of shapes \(2,\) and \(3,\) are not row"):
            split_by_sign([0.1, -0.2], [1.0, 2.0, 3.0])
        with pytest.raises(DataError, match=r"^columns of shapes \(2,\) and \(1,\) are not row"):
            split_by_sign(np.array([0.1, -0.2]), [1.0])

    def test_all_positive_gives_empty_negative_group_degenerate(self):
        pos, neg = split_by_sign([0.1, 0.2, 0.3], [1.0, 2.0, 3.0])
        assert neg.tolist() == []
        with pytest.raises(NumericalError, match="needs at least 2 values, got 3 and 0$"):
            two_sample_t(pos, neg)

    def test_groups_keep_row_order(self):
        d = np.array([0.5, -0.1, 0.0, -0.3, 0.2])
        pos, neg = split_by_sign(d, [5.0, 4.0, 3.0, 2.0, 1.0])
        assert pos.tolist() == [5.0, 3.0, 1.0] and neg.tolist() == [4.0, 2.0]


class TestTwoSampleT:
    def test_identical_groups(self):
        result = two_sample_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.t == 0.0
        assert result.df == 4

    def test_hand_computed_oracle(self):
        result = two_sample_t([2.0, 4.0, 6.0], [1.0, 3.0, 5.0])
        assert result.t == pytest.approx(T_246_135, abs=1e-12)
        assert result.df == 4
        assert result.mean_a == 4.0 and result.mean_b == 3.0

    def test_sign_follows_mean_difference(self):
        result = two_sample_t([5.0, 6.0], [1.0, 2.0])
        assert result.t > 0
        flipped = two_sample_t([1.0, 2.0], [5.0, 6.0])
        assert flipped.t < 0

    def test_antisymmetric(self):
        a, b = [0.2, -0.4, 1.3, 0.8], [0.1, 0.5, -0.9]
        fwd = two_sample_t(a, b)
        rev = two_sample_t(b, a)
        assert fwd.t == pytest.approx(-rev.t, abs=1e-15)
        assert fwd.df == rev.df

    def test_matches_scipy_and_textbook(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            a = rng.normal(0, 1, int(rng.integers(2, 20)))
            b = rng.normal(0.5, 2, int(rng.integers(2, 20)))
            result = two_sample_t(a, b)
            ref = scipy.stats.ttest_ind(a, b, equal_var=True)
            assert result.t == pytest.approx(ref.statistic, abs=1e-10)
            assert result.t == pytest.approx(pooled_t_textbook(a, b)[0], abs=1e-10)
            assert result.df == len(a) + len(b) - 2

    def test_small_group_is_degenerate(self):
        with pytest.raises(NumericalError, match="needs at least 2 values, got 1 and 2$"):
            two_sample_t([1.0], [1.0, 2.0])

    def test_zero_pooled_variance_degenerate(self):
        with pytest.raises(NumericalError, match="^zero pooled variance; t is undefined$"):
            two_sample_t([2.0, 2.0], [3.0, 3.0])


class TestOlsLinear:
    def test_exact_line(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        fit = ols_linear(x, 3.0 * x + 1.0)
        assert fit.slope == pytest.approx(3.0, abs=1e-12)
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)
        assert fit.stderr_slope == pytest.approx(0.0, abs=1e-12)

    def test_singular_design(self):
        with pytest.raises(NumericalError, match="^x never varies; the regression is undefined$"):
            ols_linear([1.0, 1.0, 1.0], [2.0, 3.0, 4.0])

    def test_constant_x_with_rounded_mean_is_singular(self):
        with pytest.raises(NumericalError, match="^x never varies; the regression is undefined$"):
            ols_linear([0.1, 0.1, 0.1], [2.0, 3.0, 4.0])

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(23)
        x = rng.uniform(-5, 5, 30)
        y = 0.54 * x + rng.normal(0, 0.2, 30)
        fit = ols_linear(x, y)
        slope, intercept, stderr = ols_normal_equations(x, y)
        assert fit.slope == pytest.approx(slope, abs=1e-10)
        assert fit.intercept == pytest.approx(intercept, abs=1e-10)
        assert fit.stderr_slope == pytest.approx(stderr, abs=1e-10)

    def test_agrees_with_power_law_on_logged_pairs(self):
        rng = np.random.default_rng(29)
        x = rng.uniform(0.5, 40, 20)
        y = np.exp(0.9 + 0.15 * np.log(x) + rng.normal(0, 0.1, 20))
        power = fit_power_law(x, y)
        linear = ols_linear(np.log(x), np.log(y))
        assert linear.slope == pytest.approx(power.alpha, rel=1e-12)
        assert linear.intercept == pytest.approx(power.ln_intercept, rel=1e-12)
        assert linear.stderr_slope == pytest.approx(power.stderr_alpha, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
)
def test_noisy_alpha_recovery_coverage(seed):
    # spot checks of the 3-se coverage property; the full 1000-replication
    # gate lives in the acceptance suite
    rng = np.random.default_rng(seed)
    x = rng.uniform(1, 100, 100)
    y = np.exp(0.7 + 0.1 * np.log(x) + rng.normal(0, 0.05, 100))
    fit = fit_power_law(x, y)
    assert abs(fit.alpha - 0.1) < 6 * fit.stderr_alpha


def test_cross_section_columns_are_read_only(toy_gdp_csv, toy_gci_csv):
    gdp, _ = load_panel(toy_gdp_csv, "gdp")
    gci, _ = load_panel(toy_gci_csv, "gci")
    xs = cross_section(balanced_subset(gdp, (2008, 2011)), balanced_subset(gci, (2011, 2011)),
                       2011)
    for name in ("x", "y", "keep", "growth"):
        column = getattr(xs, name)
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[0]
