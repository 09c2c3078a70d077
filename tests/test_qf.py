"""Tests for the quadratic-form law: moment-matched Gamma approximation,
exact mixture-series CDF, and simulation."""

import math

import numpy as np
import pytest
import scipy.stats

from dsdprior._quad import ConvergenceError
from dsdprior.qf import (
    GammaApprox,
    gamma_approx,
    ruben_cdf,
    sample_v,
)
from dsdprior.structure import QfWeights

# Values generated by oracles.qf_cdf (characteristic function inversion
# at 30 significant digits; ~2s per point, so pinned).
_CF_ORACLE_123 = {
    # x: cdf for weights (1, 2, 3)
    1.0: 0.090828682998067649,
    3.0: 0.33947147476827693,
    6.0: 0.62267758953384397,
    12.0: 0.88275674784236342,
}
_CF_ORACLE_ASYM = {
    # x: cdf for weights (0.2, 0.9, 5.0)
    0.8: 0.13010043368013536,
    6.0: 0.66555818621978003,
}


def _weights(values, n):
    return QfWeights(weights=np.asarray(values, dtype=float), n_predictor=n, zero_count=1)


class TestGammaApprox:
    def test_iid_reduction_equals_benchmark(self):
        n = 25
        g = gamma_approx(_weights(np.ones(n - 1), n))
        assert g.alpha_tilde == pytest.approx((n - 1) / 2, rel=1e-14)
        assert g.beta_tilde == pytest.approx((n - 1) / 2, rel=1e-14)

    def test_single_weight_fixed_effect(self):
        s2x = 2.37
        n = 40
        g = gamma_approx(_weights([(n - 1) * s2x], n))
        assert g.alpha_tilde == pytest.approx(0.5, rel=1e-14)
        assert g.beta_tilde == pytest.approx(1.0 / (2.0 * s2x), rel=1e-14)

    def test_reconstructed_battery_consistency(self):
        # Reconstruct a spectrum whose approximation hits
        # (alpha~, beta~) = (9.375, 11.581); its Gamma mean and variance
        # must then agree with 0.809 and 0.0699 to table rounding.
        alpha_t, beta_t, n = 9.375, 11.581, 380
        m_ones = 18
        # one odd weight x among m_ones unit weights: solve
        # (x + m)^2 / (x^2 + m) = 2 alpha~ for x, then rescale for beta~
        aa = 2 * alpha_t - 1
        disc = math.sqrt((2 * m_ones) ** 2 - 4 * aa * (2 * alpha_t * m_ones - m_ones**2))
        x = (2 * m_ones - disc) / (2 * aa)
        base = np.r_[x, np.ones(m_ones)]
        scale = ((n - 1) / 2) * base.sum() / (np.sum(base**2) * beta_t)
        g = gamma_approx(_weights(base * scale, n))
        assert g.alpha_tilde == pytest.approx(alpha_t, rel=1e-10)
        assert g.beta_tilde == pytest.approx(beta_t, rel=1e-10)
        assert abs(g.alpha_tilde / g.beta_tilde - 0.809) < 1e-3
        assert abs(g.alpha_tilde / g.beta_tilde**2 - 0.0699) < 2e-4

    def test_alpha_at_least_half(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = rng.gamma(0.3, size=rng.integers(1, 12)) + 1e-6
            g = gamma_approx(_weights(w, 30))
            assert g.alpha_tilde >= 0.5 - 1e-15

    def test_moment_match_is_exact(self):
        # defining property: Gamma(alpha~, beta~) reproduces the first two
        # conditional moments of V at sigma2=1 to near machine precision
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(3, 200))
            w = rng.gamma(1.5, 2.0, size=rng.integers(1, 40)) + 1e-8
            g = gamma_approx(_weights(w, n))
            mean, var = w.sum() / (n - 1), 2.0 * (w**2).sum() / (n - 1) ** 2
            assert g.alpha_tilde / g.beta_tilde == pytest.approx(mean, rel=1e-12)
            assert g.alpha_tilde / g.beta_tilde**2 == pytest.approx(var, rel=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gamma_approx(_weights([], 10))

    def test_type_validation(self):
        with pytest.raises(ValueError):
            GammaApprox(alpha_tilde=0.0, beta_tilde=1.0)
        with pytest.raises(ValueError):
            GammaApprox(alpha_tilde=1.0, beta_tilde=-2.0)


class TestRubenCdf:
    def test_limits(self):
        w = _weights([1.0, 2.0, 3.0], 4)
        assert ruben_cdf(1e-12, w) < 1e-9
        assert ruben_cdf(400.0, w) == pytest.approx(1.0, abs=1e-11)

    def test_single_weight_normal_identity(self):
        assert ruben_cdf(2.0, _weights([2.0], 2)) == pytest.approx(0.6826894921370859, rel=1e-12)

    def test_equal_weights_chi_squared(self):
        w = _weights(np.ones(4), 9)
        for q in (0.5, 3.0, 8.0):
            assert ruben_cdf(q, w) == pytest.approx(scipy.stats.chi2.cdf(q, 4), rel=1e-10)

    def test_matches_inversion_oracle(self):
        w = _weights([1.0, 2.0, 3.0], 4)
        for x, cdf in _CF_ORACLE_123.items():
            assert ruben_cdf(x, w) == pytest.approx(cdf, rel=1e-9)
        for x, cdf in _CF_ORACLE_ASYM.items():
            assert ruben_cdf(x, _weights([0.2, 0.9, 5.0], 4)) == pytest.approx(cdf, rel=1e-9)

    def test_array_matches_scalar(self):
        # each point stops on its own, so batching cannot change a value
        w = _weights([0.2, 0.9, 5.0], 4)
        xs = np.array([0.3, 0.8, 2.0, 6.0, 15.0])
        batch = ruben_cdf(xs, w)
        solo = np.array([ruben_cdf(float(x), w) for x in xs])
        np.testing.assert_array_equal(batch, solo)

    def test_monotone(self):
        w = _weights([0.2, 0.9, 5.0], 4)
        grid = np.linspace(0.05, 30.0, 120)
        vals = ruben_cdf(grid, w)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_ks_against_simulation(self):
        w = _weights([1.0, 2.0, 3.0], 4)
        draws = np.sort(sample_v(w, sigma2=1.0, count=100_000, seed=33)) * 3.0  # back to Q scale
        probs = ruben_cdf(draws, w)
        k = np.arange(1, draws.size + 1)
        ks = max(np.max(k / draws.size - probs), np.max(probs - (k - 1) / draws.size))
        assert ks < 0.01

    def test_rejects_nonpositive_point(self):
        with pytest.raises(ValueError):
            ruben_cdf(0.0, _weights([1.0, 2.0], 5))

    def test_nonconvergence_carries_diagnostics(self):
        # a six-decade spread: the series decays as (1 - rho/lambda_max)^k
        # ~ (1 - 2e-6)^k and cannot settle within its term budget
        with pytest.raises(ConvergenceError) as exc:
            ruben_cdf(5e6, _weights([1.0, 1e6], 4))
        diag = exc.value.diagnostics
        assert set(diag) == {"terms", "tail", "unsettled_points", "rho"}
        assert diag["terms"] == 10000
        assert diag["unsettled_points"] == 1
        assert diag["rho"] == pytest.approx(2.0, rel=1e-5)


class TestSampleV:
    def test_deterministic(self):
        w = _weights([1.0, 2.0], 5)
        a = sample_v(w, 1.5, 1000, seed=7)
        b = sample_v(w, 1.5, 1000, seed=7)
        np.testing.assert_array_equal(a, b)
        c = sample_v(w, 1.5, 1000, seed=8)
        assert not np.array_equal(a, c)

    def test_iid_mean(self):
        n = 30
        w = _weights(np.ones(n - 1), n)
        v = sample_v(w, sigma2=1.7, count=1_000_000, seed=2)
        se = v.std(ddof=1) / math.sqrt(v.size)
        assert abs(v.mean() - 1.7) < 3 * se

    def test_moments_match_formulas(self):
        w = _weights([1.0, 2.0, 3.0], 4)
        v = sample_v(w, sigma2=2.0, count=200_000, seed=5)
        # sigma2 sum(lambda) / (n - 1) and 2 sigma2^2 sum(lambda^2) / (n - 1)^2
        mean, var = 2.0 * 6.0 / 3.0, 2.0 * 4.0 * 14.0 / 9.0
        se_mean = v.std(ddof=1) / math.sqrt(v.size)
        assert abs(v.mean() - mean) < 3 * se_mean
        se_var = np.std((v - v.mean()) ** 2, ddof=1) / math.sqrt(v.size)
        assert abs(v.var(ddof=1) - var) < 3 * se_var

    def test_positive(self):
        v = sample_v(_weights([0.5], 3), 1.0, 5000, seed=1)
        assert np.all(v > 0.0)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            sample_v(_weights([1.0], 3), 1.0, 0, seed=1)

    @pytest.mark.parametrize("sigma2", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_sigma2(self, sigma2):
        with pytest.raises(ValueError, match="sigma2 must be positive and finite"):
            sample_v(_weights([1.0], 5), sigma2, 10, seed=1)

    @pytest.mark.parametrize("count", [2.7, 3.0, -1, True, np.True_])
    def test_rejects_non_integer_count(self, count):
        # the count rule of priors.b2_sample and priors.dsd_sample
        with pytest.raises(ValueError, match="count must be a positive integer"):
            sample_v(_weights([1.0], 3), 1.0, count, seed=1)

    def test_numpy_integer_count_draws_as_int(self):
        w = _weights([0.5, 2.0], 4)
        np.testing.assert_array_equal(sample_v(w, 1.0, np.int64(50), seed=3), sample_v(w, 1.0, 50, seed=3))


class TestApproximationQuality:
    def test_near_equal_weights_close_to_gamma(self):
        # for a tight spectrum the two-moment Gamma's tail probabilities
        # min(F, 1 - F) are within 1% relative of the exact law over the
        # central 98% region
        n = 20
        lam = 1.0 + 0.01 * np.linspace(0.0, 1.0, n - 1)
        w = _weights(lam, n)
        g = gamma_approx(w)
        # compare on the Q = (n-1) V scale at sigma2 = 1
        shape, rate = g.alpha_tilde, g.beta_tilde / (n - 1)
        lo = scipy.stats.gamma.ppf(0.01, shape, scale=1 / rate)
        hi = scipy.stats.gamma.ppf(0.99, shape, scale=1 / rate)
        grid = np.linspace(lo, hi, 60)
        exact = ruben_cdf(grid, w)
        approx = scipy.stats.gamma.cdf(grid, shape, scale=1 / rate)
        tail = np.minimum(exact, 1.0 - exact)
        assert np.max(np.abs(np.minimum(approx, 1.0 - approx) - tail) / tail) < 0.01
