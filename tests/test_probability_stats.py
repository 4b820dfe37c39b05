"""Unit tests for the confidence-bound machinery."""

from __future__ import annotations

import math

import pytest
from scipy import stats as scipy_stats

from repro.errors import VerificationError
from repro.probability.stats import (
    BernoulliSummary,
    MeanSummary,
    _binomial_cdf,
    _normal_quantile,
    clopper_pearson_lower,
    clopper_pearson_upper,
    hoeffding_lower_bound,
    hoeffding_upper_bound,
    refutes_lower_bound,
    supports_lower_bound,
    wilson_interval,
)


class TestBernoulliSummary:
    def test_estimate(self):
        assert BernoulliSummary(30, 100).estimate == 0.3

    def test_rejects_zero_trials(self):
        with pytest.raises(VerificationError):
            BernoulliSummary(0, 0)

    def test_rejects_successes_above_trials(self):
        with pytest.raises(VerificationError):
            BernoulliSummary(11, 10)

    def test_rejects_negative_successes(self):
        with pytest.raises(VerificationError):
            BernoulliSummary(-1, 10)

    def test_from_outcomes(self):
        summary = BernoulliSummary.from_outcomes([True, False, True, True])
        assert summary.successes == 3
        assert summary.trials == 4


class TestHoeffding:
    def test_lower_below_estimate(self):
        summary = BernoulliSummary(70, 100)
        assert hoeffding_lower_bound(summary) < summary.estimate

    def test_upper_above_estimate(self):
        summary = BernoulliSummary(70, 100)
        assert hoeffding_upper_bound(summary) > summary.estimate

    def test_lower_clamped_at_zero(self):
        assert hoeffding_lower_bound(BernoulliSummary(1, 100)) == 0.0

    def test_upper_clamped_at_one(self):
        assert hoeffding_upper_bound(BernoulliSummary(99, 100)) == 1.0

    def test_slack_shrinks_with_samples(self):
        small = BernoulliSummary(50, 100)
        large = BernoulliSummary(5000, 10000)
        assert (small.estimate - hoeffding_lower_bound(small)) > (
            large.estimate - hoeffding_lower_bound(large)
        )

    def test_invalid_confidence_rejected(self):
        with pytest.raises(VerificationError):
            hoeffding_lower_bound(BernoulliSummary(1, 2), confidence=1.0)


class TestWilson:
    def test_interval_brackets_estimate(self):
        summary = BernoulliSummary(40, 100)
        low, high = wilson_interval(summary)
        assert low < summary.estimate < high

    def test_interval_within_unit(self):
        low, high = wilson_interval(BernoulliSummary(0, 10))
        assert 0.0 <= low <= high <= 1.0

    def test_tighter_than_hoeffding_midrange(self):
        summary = BernoulliSummary(500, 1000)
        low, _ = wilson_interval(summary, confidence=0.99)
        assert low >= hoeffding_lower_bound(summary, confidence=0.99)


class TestClopperPearson:
    def test_zero_successes_lower_is_zero(self):
        assert clopper_pearson_lower(BernoulliSummary(0, 50)) == 0.0

    def test_all_successes_upper_is_one(self):
        assert clopper_pearson_upper(BernoulliSummary(50, 50)) == 1.0

    def test_lower_matches_scipy_beta(self):
        # Clopper-Pearson lower bound = Beta(k, n-k+1) quantile at alpha.
        k, n, confidence = 30, 100, 0.99
        expected = scipy_stats.beta.ppf(1 - confidence, k, n - k + 1)
        actual = clopper_pearson_lower(BernoulliSummary(k, n), confidence)
        assert math.isclose(actual, expected, abs_tol=1e-6)

    def test_upper_matches_scipy_beta(self):
        k, n, confidence = 30, 100, 0.99
        expected = scipy_stats.beta.ppf(confidence, k + 1, n - k)
        actual = clopper_pearson_upper(BernoulliSummary(k, n), confidence)
        assert math.isclose(actual, expected, abs_tol=1e-6)

    def test_bounds_bracket_estimate(self):
        summary = BernoulliSummary(25, 80)
        assert (
            clopper_pearson_lower(summary)
            < summary.estimate
            < clopper_pearson_upper(summary)
        )


def _oracle_grid():
    """(k, n, confidence) over the sample sizes the workloads use."""
    for n in (1, 8, 100, 150, 1000):
        for k in sorted({0, 1, n // 8, n // 2, n - 6, n - 1, n}):
            if 0 <= k <= n:
                for confidence in (0.99, 0.999):
                    yield k, n, confidence


class TestClopperPearsonOracle:
    """The bisection against scipy's Beta quantiles, which share no code with it."""

    @pytest.mark.parametrize("k,n,confidence", list(_oracle_grid()))
    def test_lower_matches_scipy_beta_grid(self, k, n, confidence):
        expected = (
            0.0 if k == 0
            else scipy_stats.beta.ppf(1 - confidence, k, n - k + 1)
        )
        actual = clopper_pearson_lower(BernoulliSummary(k, n), confidence)
        assert math.isclose(actual, expected, abs_tol=1e-6)

    @pytest.mark.parametrize("k,n,confidence", list(_oracle_grid()))
    def test_upper_matches_scipy_beta_grid(self, k, n, confidence):
        expected = (
            1.0 if k == n
            else scipy_stats.beta.ppf(confidence, k + 1, n - k)
        )
        actual = clopper_pearson_upper(BernoulliSummary(k, n), confidence)
        assert math.isclose(actual, expected, abs_tol=1e-6)


# float.hex of (lower, upper) from the plain 200-step bisection that
# predates memoisation, cached log-binomial rows and the fixed-point stop.
# Verdicts, early-stop decisions and goldens all rest on these exact floats,
# so a drift of even one ulp must fail here first.
_PINNED_BOUNDS = [
    (994, 1000, 0.99, "0x1.f8925f3437261p-1", "0x1.ff159f41a0cffp-1"),
    (994, 1000, 0.999, "0x1.f6cedd8100a1cp-1", "0x1.ff6e9b397606bp-1"),
    (125, 1000, 0.99, "0x1.a091d2a0fe004p-4", "0x1.35ec96fa66e2ep-3"),
    (125, 1000, 0.999, "0x1.8431ee289b934p-4", "0x1.4860aa950384bp-3"),
    (1, 1000, 0.99, "0x1.513b4b3517fffp-17", "0x1.b1d39b45097c0p-8"),
    (1, 1000, 0.999, "0x1.0c91d33340000p-20", "0x1.2d516ccea5d21p-7"),
    (96, 100, 0.99, "0x1.c6cead6529b3ep-1", "0x1.fbbd00c21eab6p-1"),
    (96, 100, 0.999, "0x1.b83c3e6404a87p-1", "0x1.fdc6eecdb8a08p-1"),
    (30, 100, 0.99, "0x1.9626ae3d9b91ap-3", "0x1.ac20d2cf1d9cfp-2"),
    (30, 100, 0.999, "0x1.5d688452e051ap-3", "0x1.d383748e487b2p-2"),
    (144, 150, 0.99, "0x1.cfac34dd59fbbp-1", "0x1.f9d6fbf5e96d8p-1"),
    (144, 150, 0.999, "0x1.c4c92db80dc9fp-1", "0x1.fc2bcebe4fcecp-1"),
    (8, 8, 0.99, "0x1.1feb33c1c37bap-1", "0x1.0000000000000p+0"),
    (8, 8, 0.999, "0x1.afd1354c407e5p-2", "0x1.0000000000000p+0"),
    (7, 8, 0.99, "0x1.a3e63e639bf25p-2", "0x1.ff5b704dd3c19p-1"),
    (7, 8, 0.999, "0x1.27a72a19e15edp-2", "0x1.ffef9bdc1ec18p-1"),
    (1, 8, 0.99, "0x1.491f64587cd00p-10", "0x1.2e0ce0ce32017p-1"),
    (1, 8, 0.999, "0x1.06423e13e8800p-13", "0x1.6c2c6af30f2a4p-1"),
    (1, 1, 0.99, "0x1.47ae147ae145fp-7", "0x1.0000000000000p+0"),
    (1, 1, 0.999, "0x1.0624dd2f1a900p-10", "0x1.0000000000000p+0"),
]


class TestClopperPearsonPinned:
    @pytest.mark.parametrize("k,n,confidence,lower,upper", _PINNED_BOUNDS)
    def test_bounds_are_bit_identical(self, k, n, confidence, lower, upper):
        summary = BernoulliSummary(k, n)
        # Twice: the memoised second call must return the same float.
        for _ in range(2):
            assert clopper_pearson_lower(summary, confidence).hex() == lower
            assert clopper_pearson_upper(summary, confidence).hex() == upper


class TestConfidenceAlwaysChecked:
    """Memoisation and the boundary short-cuts never skip the input check."""

    @pytest.mark.parametrize("confidence", [0.0, 1.0])
    @pytest.mark.parametrize("successes", [0, 3, 8])
    def test_every_call_rejects_bad_confidence(self, successes, confidence):
        # 0 and 8 of 8 take the successes == 0 / == trials short-cuts.
        summary = BernoulliSummary(successes, 8)
        # Warm the caches for this summary before the bad calls.
        clopper_pearson_lower(summary, 0.99)
        clopper_pearson_upper(summary, 0.99)
        calls = (
            lambda: clopper_pearson_lower(summary, confidence),
            lambda: clopper_pearson_upper(summary, confidence),
            lambda: supports_lower_bound(summary, 0.5, confidence),
            lambda: refutes_lower_bound(summary, 0.5, confidence),
        )
        for call in calls:
            for _ in range(2):
                with pytest.raises(VerificationError):
                    call()


class TestDecisions:
    def test_refutes_clearly_false_claim(self):
        # 5/1000 successes refutes "probability >= 1/2".
        assert refutes_lower_bound(BernoulliSummary(5, 1000), 0.5)

    def test_does_not_refute_consistent_claim(self):
        assert not refutes_lower_bound(BernoulliSummary(130, 1000), 0.125)

    def test_supports_clearly_true_claim(self):
        assert supports_lower_bound(BernoulliSummary(900, 1000), 0.5)

    def test_support_is_stronger_than_not_refuted(self):
        summary = BernoulliSummary(55, 100)
        assert not refutes_lower_bound(summary, 0.5)
        assert not supports_lower_bound(summary, 0.5)


class TestMeanSummary:
    def test_from_values(self):
        summary = MeanSummary.from_values([1.0, 2.0, 3.0])
        assert summary.mean == 2.0
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0
        assert summary.count == 3

    def test_sample_variance(self):
        summary = MeanSummary.from_values([1.0, 3.0])
        assert summary.variance == 2.0

    def test_single_value_variance_zero(self):
        assert MeanSummary.from_values([5.0]).variance == 0.0

    def test_empty_rejected(self):
        with pytest.raises(VerificationError):
            MeanSummary.from_values([])

    def test_hoeffding_mean_upper_above_mean(self):
        summary = MeanSummary.from_values([10.0] * 50)
        assert summary.hoeffding_mean_upper(value_range=63.0) > 10.0

    def test_hoeffding_mean_upper_rejects_bad_range(self):
        summary = MeanSummary.from_values([1.0, 2.0])
        with pytest.raises(VerificationError):
            summary.hoeffding_mean_upper(value_range=0.0)


class TestNumericHelpers:
    def test_normal_quantile_median(self):
        assert abs(_normal_quantile(0.5)) < 1e-9

    def test_normal_quantile_975(self):
        assert math.isclose(_normal_quantile(0.975), 1.959964, abs_tol=1e-4)

    def test_normal_quantile_tails(self):
        assert math.isclose(
            _normal_quantile(0.001), scipy_stats.norm.ppf(0.001), abs_tol=1e-4
        )

    def test_normal_quantile_rejects_boundary(self):
        with pytest.raises(VerificationError):
            _normal_quantile(0.0)

    @pytest.mark.parametrize("k,n,p", [(3, 10, 0.3), (0, 5, 0.9), (7, 8, 0.5)])
    def test_binomial_cdf_matches_scipy(self, k, n, p):
        assert math.isclose(
            _binomial_cdf(k, n, p),
            scipy_stats.binom.cdf(k, n, p),
            abs_tol=1e-9,
        )

    def test_binomial_cdf_degenerate_cases(self):
        assert _binomial_cdf(-1, 10, 0.5) == 0.0
        assert _binomial_cdf(10, 10, 0.5) == 1.0
        assert _binomial_cdf(3, 10, 0.0) == 1.0
        assert _binomial_cdf(3, 10, 1.0) == 0.0
