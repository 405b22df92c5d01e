"""Diagnostics calibration against analytic targets.

iid and AR(1) series have known asymptotic covariances and effective
sample sizes; the two-window test must hold its size on stationary
data; the planted geometric decay must be recovered by the burn-in fit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import signal, special, stats

from ergmkit.diagnostics import (_chi2_tail, _f_tail, _hotelling_pvalue,
                                 batch_means_cov, estimate_burnin, geweke_test,
                                 multivariate_ess, univariate_ess)
from ergmkit.errors import DataError


def ar1(rng, S, rho, p=1):
    eps = rng.standard_normal((S, p))
    return signal.lfilter([1.0], [1.0, -rho], eps, axis=0)


class TestBatchMeans:
    def test_iid_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((100_000, 3))
        sigma = batch_means_cov(x)
        assert np.allclose(sigma, np.eye(3), atol=0.1)

    def test_ar1_asymptotic_variance(self):
        # AR(1) with rho=0.5: asymptotic variance is var * (1+rho)/(1-rho)
        rng = np.random.default_rng(1)
        x = ar1(rng, 100_000, 0.5)
        sigma = batch_means_cov(x)[0, 0]
        want = 3.0 * x.var(ddof=1)
        assert abs(sigma - want) / want < 0.15

    def test_too_few_draws(self):
        with pytest.raises(DataError):
            batch_means_cov(np.zeros((4, 2)))


class TestMultivariateEss:
    def test_iid(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((100_000, 3))
        report = multivariate_ess(x)
        assert abs(report.ess - 100_000) / 100_000 < 0.10

    def test_ar1_third(self):
        rng = np.random.default_rng(3)
        x = ar1(rng, 100_000, 0.5, p=2)
        report = multivariate_ess(x)
        want = 100_000 / 3
        assert abs(report.ess - want) / want < 0.15

    def test_duplicated_rows_halve(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((50_000, 2))
        dup = np.repeat(x, 2, axis=0)
        report = multivariate_ess(dup)
        # 1e5 rows that are pairwise duplicates carry ~5e4 of information
        assert abs(report.ess - 50_000) / 50_000 < 0.15

    def test_constant_column_dropped(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((50_000, 2))
        x = np.column_stack([x, np.full(50_000, 7.0)])
        report = multivariate_ess(x)
        assert report.p_effective == 2
        assert abs(report.ess - 50_000) / 50_000 < 0.15

    def test_rank_zero_rejected(self):
        with pytest.raises(DataError):
            multivariate_ess(np.full((1000, 2), 3.0))

    def test_affine_invariance(self):
        rng = np.random.default_rng(6)
        x = ar1(rng, 30_000, 0.3, p=2)
        a = multivariate_ess(x).ess
        y = x * np.array([3.0, 0.2]) + np.array([5.0, -2.0])
        b = multivariate_ess(y).ess
        assert abs(a - b) / a < 1e-6

    def test_univariate_matches(self):
        rng = np.random.default_rng(7)
        x = ar1(rng, 50_000, 0.5)
        u = univariate_ess(x[:, 0])
        m = multivariate_ess(x).ess
        assert abs(u - m) / m < 1e-9


class TestGeweke:
    def test_size_on_stationary_data(self):
        rng = np.random.default_rng(8)
        alpha = 0.05
        rejections = 0
        reps = 1000
        for _ in range(reps):
            x = rng.standard_normal((2000, 2))
            if geweke_test(x) < alpha:
                rejections += 1
        sigma = math.sqrt(reps * alpha * (1 - alpha))
        assert abs(rejections - reps * alpha) < 4 * sigma

    def test_trend_detected(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((5000, 3))
        x[:, 1] += np.linspace(0.0, 2.0, 5000)
        assert geweke_test(x) < 0.001

    def test_univariate_is_z_squared(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((20_000, 1))
        p_multi = geweke_test(x)
        # classical two-window z-test with batch-means variances
        n1, n2 = 2000, 10_000
        first, last = x[:n1, 0], x[-n2:, 0]
        s1 = batch_means_cov(first[:, None])[0, 0]
        s2 = batch_means_cov(last[:, None])[0, 0]
        z = (first.mean() - last.mean()) / math.sqrt(s1 / n1 + s2 / n2)
        p_z = 2 * stats.norm.sf(abs(z))
        assert abs(p_multi - p_z) < 0.02

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4000, 3)) @ np.array(
            [[1.0, 0.3, 0.0], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]])
        assert abs(geweke_test(x) - geweke_test(x[:, [2, 0, 1]])) < 1e-9


def assert_tail_close(ours, ref):
    # absolute error 1e-11 everywhere, relative 1e-9 down to 1e-250
    assert isinstance(ours, float)
    assert abs(ours - ref) <= 1e-11, (ours, ref)
    if ref >= 1e-250:
        assert abs(ours - ref) <= 1e-9 * ref, (ours, ref)


_TAIL_DF2 = (0.5, 0.75, 1.5, 3.3, 10.5, 99.5, 1000.5, 5000.3, 9999.9)
_TAIL_X = [10.0 ** (k / 4) for k in range(-32, 17)]      # 1e-8 .. 1e4


class TestTails:
    """The F and chi-square upper tails against scipy.special."""

    @pytest.mark.parametrize("p", range(1, 31))
    def test_grid(self, p):
        for x in _TAIL_X:
            assert_tail_close(_chi2_tail(p, x), float(special.chdtrc(p, x)))
            for df2 in _TAIL_DF2:
                assert_tail_close(_f_tail(p, df2, x),
                                  float(special.fdtrc(p, df2, x)))

    @given(p=st.integers(1, 30),
           df2=st.floats(0.5, 1e4).filter(lambda v: v != int(v)),
           log_x=st.floats(-8.0, 4.0))
    @settings(max_examples=300, deadline=None)
    def test_property(self, p, df2, log_x):
        x = 10.0 ** log_x
        assert_tail_close(_f_tail(p, df2, x), float(special.fdtrc(p, df2, x)))
        assert_tail_close(_chi2_tail(p, x), float(special.chdtrc(p, x)))

    def test_tiny_tails_keep_relative_accuracy(self):
        # far tails, where 1 - (lower tail) would round to 0
        for p, df2, x in ((1, 20.5, 1e4), (3, 10.5, 1e4), (30, 9999.9, 30.0),
                          (2, 1000.5, 200.0)):
            ref = float(special.fdtrc(p, df2, x))
            assert 1e-250 < ref < 1e-15
            assert_tail_close(_f_tail(p, df2, x), ref)
        for p, x in ((1, 1000.0), (30, 1000.0), (5, 300.0)):
            ref = float(special.chdtrc(p, x))
            assert 1e-250 < ref < 1e-15
            assert_tail_close(_chi2_tail(p, x), ref)

    @pytest.mark.parametrize("p, df2, x", [
        (1, 9913.522484922509, 2.159714038197018),
        (2, 9996.472940740623, 1.950059629014786),
        (5, 9461.999263908121, 1.3682928187866805),
        (7, 9177.779319228353, 1.252569898210837)])
    def test_df2_near_1e4(self, p, df2, x):
        # lgamma(a + b) - lgamma(b) taken plainly puts these 1.3e-11 off
        assert_tail_close(_f_tail(p, df2, x), float(special.fdtrc(p, df2, x)))

    @pytest.mark.parametrize("x", [0.0, -0.0])
    def test_zero_gives_one(self, x):
        assert _f_tail(3, 7.5, x) == 1.0
        assert _chi2_tail(3, x) == 1.0

    @pytest.mark.parametrize("x", [-1e-300, -1.0, -math.inf])
    def test_negative_gives_nan(self, x):
        # as scipy's fdtrc and chdtrc: a negative statistic has no tail
        assert math.isnan(_f_tail(3, 7.5, x))
        assert math.isnan(_chi2_tail(3, x))
        assert math.isnan(float(special.fdtrc(3, 7.5, x)))
        assert math.isnan(float(special.chdtrc(3, x)))

    def test_ratio_overflow(self):
        # d1 x / d2 overflows near the float maximum; P(F(2, d2) > x) is
        # (1 + 2x/d2)^(-d2/2) in closed form
        assert_tail_close(_f_tail(2, 1.0, 1e308), math.sqrt(0.5) * 1e-154)
        assert_tail_close(_f_tail(1, 0.5, 1.7e308),
                          float(special.fdtrc(1, 0.5, 1.7e308)))

    def test_infinite_gives_zero_and_nan_gives_nan(self):
        assert _f_tail(3, 7.5, math.inf) == 0.0
        assert _chi2_tail(3, math.inf) == 0.0
        assert math.isnan(_f_tail(3, 7.5, math.nan))
        assert math.isnan(_chi2_tail(3, math.nan))

    @pytest.mark.parametrize("t2, p, nu", [(4.2, 3, 2), (0.3, 5, 4),
                                           (50.0, 8, 1), (7.0, 2, 1)])
    def test_hotelling_chi_square_branch(self, t2, p, nu):
        # nu - p + 1 <= 0 leaves the F reference undefined
        assert nu - p + 1 <= 0
        assert_tail_close(_hotelling_pvalue(t2, p, nu),
                          float(special.chdtrc(p, t2)))

    @pytest.mark.parametrize("t2, p, nu", [(4.2, 3, 40), (0.3, 1, 1),
                                           (50.0, 8, 31), (7.0, 2, 2)])
    def test_hotelling_f_branch(self, t2, p, nu):
        d2 = nu - p + 1
        assert_tail_close(_hotelling_pvalue(t2, p, nu),
                          float(special.fdtrc(p, d2, t2 * d2 / (nu * p))))


class TestBurnin:
    def test_planted_decay(self):
        rng = np.random.default_rng(12)
        s = np.arange(1, 2001)
        x = 5.0 + 3.0 * np.exp2(-s / 100.0) + 0.01 * rng.standard_normal(2000)
        fit = estimate_burnin(x[:, None])
        assert abs(fit.s0 - 100.0) / 100.0 < 0.10
        assert abs(fit.beta0 - 5.0) < 0.05
        assert abs(fit.beta1 - 3.0) < 0.2

    def test_white_noise_flat(self):
        rng = np.random.default_rng(13)
        x = 5.0 + 0.01 * rng.standard_normal(1000)
        fit = estimate_burnin(x[:, None])
        assert abs(fit.beta1) < 0.1

    def test_exact_halving(self):
        s = np.arange(1, 513)
        x = np.exp2(-s.astype(float))
        fit = estimate_burnin(x[:, None])
        assert abs(fit.s0 - 1.0) < 1e-3
        assert fit.sse < 1e-12

    def test_direction_scalarization(self):
        rng = np.random.default_rng(14)
        s = np.arange(1, 1001)
        decay = np.exp2(-s / 50.0)
        x = np.column_stack([1.0 + 2.0 * decay, 3.0 - decay]) \
            + 0.005 * rng.standard_normal((1000, 2))
        fit = estimate_burnin(x, direction=np.array([1.0, 0.0]))
        assert abs(fit.s0 - 50.0) / 50.0 < 0.15

    def test_needs_min_length(self):
        with pytest.raises(DataError):
            estimate_burnin(np.zeros((8, 1)))

    def test_search_beats_coarse_grid(self):
        # the golden-section refinement never ends worse than any of
        # the coarse seeds it started from
        from ergmkit.diagnostics import _decay_sse
        rng = np.random.default_rng(15)
        s = np.arange(1, 1501, dtype=float)
        x = 2.0 + 1.5 * np.exp2(-s / 37.0) + 0.02 * rng.standard_normal(1500)
        fit = estimate_burnin(x[:, None])
        for g in np.linspace(0.0, math.log(1500), 17):
            grid_sse = _decay_sse(x, s, math.exp(g))[0]
            assert fit.sse <= grid_sse + 1e-9
