"""Tests for the scalar special-function kernels.

Reference values come from tests/oracles.py (50-digit mpmath); the
library itself never touches mpmath, so these are genuine cross-checks
of its quadrature evaluation.
"""

import math

import numpy as np
import pytest
from scipy.special import betaln

import oracles
from dsdprior.specfun import (
    log_gauss_2f1_negz,
    log_kummer_u,
)


class TestLogBeta:
    # the library takes ln B(a, b) from scipy's betaln, checked here
    def test_value_at_one_one(self):
        assert betaln(1.0, 1.0) == 0.0

    def test_value_at_half_half(self):
        # B(1/2, 1/2) = pi
        np.testing.assert_allclose(betaln(0.5, 0.5), math.log(math.pi), rtol=1e-14)

    def test_against_oracle(self):
        np.testing.assert_allclose(betaln(0.5, 1.5), oracles.logbeta(0.5, 1.5), rtol=1e-13)
        for a, b in [(2.0, 3.0), (1e-3, 5.0), (123.25, 0.75), (1e4, 1e4)]:
            np.testing.assert_allclose(betaln(a, b), oracles.logbeta(a, b), rtol=1e-12, atol=1e-12)


def _log_2f1(a, b, c, z):
    return log_gauss_2f1_negz(a, b, c, np.array([z]))[0]


def _log_u(a, b, z):
    return log_kummer_u(a, b, np.array([z]))[0]


class TestGauss2F1NegZ:
    """Gauss hypergeometric on the negative real axis, c > b > 0.  A
    relative tolerance r on a value is an absolute tolerance r on its log."""

    def test_equals_one_at_zero(self):
        assert _log_2f1(1.7, 0.9, 2.3, 0.0) == 0.0

    def test_log_closed_form(self):
        # 2F1(1,1;2;z) = -log(1-z)/z, so at z=-1 the value is log 2
        got = _log_2f1(1.0, 1.0, 2.0, -1.0)
        np.testing.assert_allclose(got, math.log(math.log(2.0)), rtol=0, atol=1e-12)

    def test_oracle_moderate_argument(self):
        got = _log_2f1(2.0, 2.0, 2.5, -4.0)
        np.testing.assert_allclose(got, oracles.log_hyp2f1(2.0, 2.0, 2.5, -4.0), rtol=0, atol=1e-11)

    def test_binomial_reduction(self):
        # with a == c the function collapses to (1-z)^(-b)
        for z in (-0.5, -3.0, -50.0):
            got = _log_2f1(3.0, 1.2, 3.0, z)
            np.testing.assert_allclose(got, -1.2 * math.log1p(-z), rtol=0, atol=1e-10)

    def test_oracle_battery(self):
        cases = [
            (26.0, 2.0, 2.93, -0.7),
            (26.0, 2.0, 2.93, -37.5),
            (26.0, 2.0, 2.93, -2048.0),
            (0.8, 0.4, 1.9, -5.0),
            (5.5, 3.25, 3.3, -0.02),
            (12.0, 0.5, 9.0, -400.0),
            (1.5, 1.4, 1.45, -80.0),
            # crw2(366) shapes with |z| <= 1
            (184.0, 2.0, 2.93, -0.5),
            (184.0, 2.0, 2.93, -1.0),
        ]
        for a, b, c, z in cases:
            got = _log_2f1(a, b, c, z)
            np.testing.assert_allclose(got, oracles.log_hyp2f1(a, b, c, z), rtol=0, atol=1e-10)

    def test_huge_argument_relative_accuracy(self):
        """Relative error holds out to |z| = 1e12, on log scale if needed."""
        a, b, c = 26.0, 2.0, 2.93
        for z in (-1e6, -1e9, -1e12):
            got = _log_2f1(a, b, c, z)
            np.testing.assert_allclose(got, oracles.log_hyp2f1(a, b, c, z), rtol=0, atol=1e-10)

    @pytest.mark.parametrize(
        "a, b, c",
        [
            (26.0, 2.0, 2.93),
            (1018.5, 2.0, 2.235),
            (5.8, 3.3, 3.8),
            (26.0, 2.92, 2.93),
            (184.0, 2.0, 2.93),
        ],
        ids=["verify0", "verify1", "verify2", "verify3", "crw2-366"],
    )
    def test_extreme_argument_on_prior_shapes(self, a, b, c):
        # the densities of the verify sets and of crw2(366) reach these |z|
        # deep in their lower tails, where the untransformed Euler
        # integrand's peak runs off the quadrature's nodes
        for z in (-1e128, -1e164, -1e200, -1e300):
            got = _log_2f1(a, b, c, z)
            np.testing.assert_allclose(got, oracles.log_hyp2f1(a, b, c, z), rtol=0, atol=1e-10)

    def test_log_scale_flag_for_underflowing_values(self):
        # large a with huge |z| drives the value below double range; its
        # log stays finite and accurate
        got = _log_2f1(300.0, 150.0, 151.0, -1e9)
        assert got < -745.0
        np.testing.assert_allclose(got, oracles.log_hyp2f1(300.0, 150.0, 151.0, -1e9), rtol=1e-10)

    def test_nonincreasing_in_abs_z_and_bounded(self):
        zs = -np.logspace(-3, 10, 60)
        vals = np.exp(log_gauss_2f1_negz(4.2, 1.1, 3.0, zs))
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) <= 0)  # zs runs toward -inf

    def test_array_matches_scalar(self):
        zs = -np.logspace(-2, 4, 17)
        batch = log_gauss_2f1_negz(3.3, 0.7, 1.2, zs)
        single = np.array([log_gauss_2f1_negz(3.3, 0.7, 1.2, np.array([z]))[0] for z in zs])
        np.testing.assert_array_equal(batch, single)

    def test_deterministic(self):
        assert _log_2f1(2.2, 1.1, 3.3, -17.0) == _log_2f1(2.2, 1.1, 3.3, -17.0)

    def test_rejects_c_not_greater_than_b(self):
        with pytest.raises(ValueError):
            _log_2f1(1.0, 2.0, 2.0, -1.0)
        with pytest.raises(ValueError):
            _log_2f1(1.0, 3.0, 2.0, -1.0)

    def test_rejects_positive_z(self):
        with pytest.raises(ValueError):
            _log_2f1(1.0, 1.0, 2.0, 0.5)

    def test_rejects_nonpositive_a_or_b(self):
        with pytest.raises(ValueError):
            _log_2f1(-1.0, 1.0, 2.0, -1.0)
        with pytest.raises(ValueError):
            _log_2f1(1.0, 0.0, 2.0, -1.0)


class TestKummerU:
    """Confluent U on the positive real axis via the Laplace integral."""

    def test_power_identity(self):
        # U(a, a+1, z) = z^(-a) exactly
        for a, z in [(0.5, 2.0), (3.0, 0.25), (24.0, 100.0)]:
            got = _log_u(a, a + 1.0, z)
            np.testing.assert_allclose(got, -a * math.log(z), rtol=0, atol=1e-11)

    def test_exponential_integral_value(self):
        # U(1,1,z) = exp(z) E1(z); at z=1 this is about 0.59634736
        got = _log_u(1.0, 1.0, 1.0)
        want = 1.0 + math.log(float(__import__("mpmath").e1(1)))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_oracle_value(self):
        got = _log_u(2.5, 1.0, 3.0)
        np.testing.assert_allclose(got, oracles.log_hyperu(2.5, 1.0, 3.0), rtol=0, atol=1e-10)

    def test_oracle_battery(self):
        """Parameter shapes produced by gamma-mixture marginals:
        a = alpha + q, b = 1 + alpha - p with alpha up to a few hundred."""
        cases = [
            (26.0, 25.0, 0.004),
            (26.0, 25.0, 1.0),
            (26.0, 25.0, 317.0),
            (2.0, 1.25, 0.8),
            (0.75, -1.5, 2.0),
            (184.0, 183.0, 55.0),
            (5.0, 0.5, 1e-4),
            (3.5, 6.0, 0.35),
            # small a widens the quadrature window; large a narrows the peak
            (0.01, 0.5, 2.0),
            (0.001, 0.5, 2.0),
            (1018.5, 1017.5, 1e-3),
        ]
        for a, b, z in cases:
            got = _log_u(a, b, z)
            want = oracles.log_hyperu(a, b, z)
            np.testing.assert_allclose(got, want, rtol=0, atol=2e-9 * max(1.0, abs(want)))

    def test_scaled_form_finite_positive(self):
        # z^a * U(a, a-d+1, z) stays finite and positive; this is the exact
        # combination consumed by the gamma-mixture marginal density
        for a, d, z in [(2.0, 1.0, 0.01), (26.0, 2.0, 1e-6), (10.0, 0.5, 1e4)]:
            log_u = _log_u(a, a - d + 1.0, z)
            val = a * math.log(z) + log_u
            assert math.isfinite(val)

    def test_log_scale_flag_engages(self):
        # U(a, b, z) ~ z^(1-b) Gamma(b-1)/Gamma(a) blows past double range
        # for small z when b is large
        got = _log_u(26.0, 25.0, 1e-14)
        assert got > 710.0
        np.testing.assert_allclose(got, oracles.log_hyperu(26.0, 25.0, 1e-14), rtol=1e-9)

    def test_array_matches_scalar(self):
        zs = np.logspace(-6, 4, 15)
        batch = log_kummer_u(8.5, 7.0, zs)
        single = np.array([log_kummer_u(8.5, 7.0, np.array([z]))[0] for z in zs])
        np.testing.assert_array_equal(batch, single)

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            _log_u(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            _log_u(-2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            _log_u(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            _log_u(1.0, 1.0, -3.0)
        with pytest.raises(ValueError, match="^log_kummer_u requires a finite b, got inf$"):
            _log_u(1.0, math.inf, 1.0)

