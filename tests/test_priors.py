"""Tests for the closed-form priors: scaled beta-prime base prior, the
Gamma-mixture marginal benchmark, and the structure-adjusted scale prior
with its CDF/quantile/sampling machinery."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.interpolate
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import beta, betainc, betaincinv

import oracles
from dsdprior import priors
from dsdprior._quad import ConvergenceError
from dsdprior.priors import (
    B2Params,
    DsdParams,
    TwoF0Params,
    b2_cdf,
    b2_logpdf,
    b2_pdf,
    b2_quantile,
    b2_sample,
    dsd_cdf_quantile,
    dsd_logpdf,
    dsd_pdf,
    dsd_sample,
    integral_equation_residual,
    twoF0_logpdf,
    twoF0_pdf,
    twoF0_sample,
)

# generic working set: benchmark shape/rate for n = 50 observations with
# a spread-out approximation of the component's conditional law
GENERIC = DsdParams(
    alpha=24.5, beta=24.5, alpha_tilde=1.43, beta_tilde=0.061, b=1.0, p=0.5, q=1.5
)

# normalization battery: spans reductions, boundary and near-boundary
# existence, heavy/light tails, and reference approximation pairs
# (alpha~, beta~) = (0.735, 1.4e-4), (0.602, 2.7e-4), (9.375, 11.581)
# with the benchmark (n-1)/2 = 1017 for n = 2035 observations
BATTERY = [
    GENERIC,
    DsdParams(alpha=24.5, beta=24.5, alpha_tilde=24.5, beta_tilde=24.5, b=1.0, p=0.5, q=1.5),
    DsdParams(alpha=24.5, beta=24.5, alpha_tilde=1.43, beta_tilde=0.061, b=1.0, p=1.43, q=1.5),
    DsdParams(alpha=24.5, beta=24.5, alpha_tilde=1.43, beta_tilde=0.061, b=1.0, p=1.42, q=1.5),
    DsdParams(alpha=1017.0, beta=1017.0, alpha_tilde=0.735, beta_tilde=1.4e-4, b=26.5, p=0.5, q=1.5),
    DsdParams(alpha=1017.0, beta=1017.0, alpha_tilde=0.602, beta_tilde=2.7e-4, b=9.34, p=0.5, q=1.5),
    DsdParams(alpha=1017.0, beta=1017.0, alpha_tilde=9.375, beta_tilde=11.581, b=1.0, p=0.5, q=1.5),
    DsdParams(alpha=5.0, beta=5.0, alpha_tilde=3.0, beta_tilde=2.0, b=0.1, p=2.5, q=0.8),
    DsdParams(alpha=50.0, beta=50.0, alpha_tilde=2.0, beta_tilde=0.5, b=5.0, p=1.0, q=3.0),
    DsdParams(alpha=1.0, beta=1.0, alpha_tilde=0.7, beta_tilde=0.3, b=2.0, p=0.6, q=1.2),
    DsdParams(alpha=10.0, beta=10.0, alpha_tilde=10.0, beta_tilde=3.0, b=1.0, p=0.5, q=1.5),
    DsdParams(alpha=182.5, beta=182.5, alpha_tilde=1.2, beta_tilde=8.0e-3, b=26.5, p=0.5, q=1.5),
]


# origin exponent so small that the prior's lower quantiles and draws
# fall below double range
UNREPRESENTABLE = DsdParams(
    alpha=24.5, beta=24.5, alpha_tilde=1.43, beta_tilde=0.061, b=1.0, p=1e-7, q=1.5
)


# the origin exponent that took the 2F1 density to |z| ~ 1e240; below it
# the prior's lower quantiles leave double range
SMALL_P = DsdParams(alpha=24.5, beta=24.5, alpha_tilde=1.43, beta_tilde=0.061, b=1.0, p=0.05, q=1.5)

# hand-typed alpha~ > alpha, which no component reaches: the lower bracket
# law has origin exponent p + alpha - alpha~, 0.3 for the first and
# below 0 for the second; the third sits one ulp above alpha~ = alpha
ABOVE_ALPHA = [
    DsdParams(alpha=1.0, beta=1.0, alpha_tilde=1.2, beta_tilde=0.5, b=2.0, p=0.6, q=1.2),
    DsdParams(alpha=1.0, beta=1.0, alpha_tilde=5.0, beta_tilde=0.5, b=2.0, p=0.5, q=1.5),
    DsdParams(alpha=24.5, beta=24.5, alpha_tilde=math.nextafter(24.5, 25.0), beta_tilde=24.5,
              b=1.0, p=0.5, q=1.5),
]


def _ks_statistic(sorted_draws, cdf_probs):
    n = sorted_draws.size
    k = np.arange(1, n + 1)
    return max(np.max(k / n - cdf_probs), np.max(cdf_probs - (k - 1) / n))


def _upper_quantile_reference(k, theta):
    """The (1 - 2^-k)-quantile of the design-adjusted prior, by scipy
    alone: its survival function through the product form,
    P(s > x) = E_W[ I(q, alpha; W / (W + r)) ] with W ~ Beta(p, alpha~ - p)
    and r = x beta / (b beta~), by ``quad`` with an algebraic weight, then
    ``brentq`` in log x."""
    t = theta
    d = t.alpha_tilde - t.p
    y0 = math.log(t.b * t.beta_tilde / t.beta)

    def log_sf(y):
        r = math.exp(y - y0)
        total, _ = scipy.integrate.quad(
            lambda w: betainc(t.q, t.alpha, w / (w + r)), 0.0, 1.0,
            weight="alg", wvar=(t.p - 1.0, d - 1.0), epsabs=0.0, epsrel=1e-12, limit=400,
        )
        return math.log(total / beta(t.p, d))

    root = brentq(lambda y: log_sf(y) + k * math.log(2.0), y0 - 60.0, y0 + 60.0, xtol=1e-13)
    return math.exp(root)


class TestB2Params:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            B2Params(b=0.0, p=1.0, q=1.0)
        with pytest.raises(ValueError):
            B2Params(b=1.0, p=-1.0, q=1.0)
        with pytest.raises(ValueError):
            B2Params(b=1.0, p=1.0, q=math.inf)


class TestB2Pdf:
    def test_unit_case(self):
        # b = p = q = 1 collapses to 1/(1+s)^2
        assert b2_pdf(1.0, B2Params(1.0, 1.0, 1.0)) == pytest.approx(0.25, rel=1e-14)

    def test_against_high_precision_oracle(self):
        got = b2_pdf(3.0, B2Params(2.0, 0.5, 1.5))
        want = float(oracles.b2_pdf(3.0, 2.0, 0.5, 1.5))
        assert got == pytest.approx(want, rel=1e-13)

    def test_origin_behavior_by_p(self):
        # density ~ s^(p-1) near zero
        lo, hi = 1e-10, 1e-6
        assert b2_pdf(lo, B2Params(1.0, 2.0, 1.0)) < b2_pdf(hi, B2Params(1.0, 2.0, 1.0))
        assert b2_pdf(lo, B2Params(1.0, 0.5, 1.0)) > b2_pdf(hi, B2Params(1.0, 0.5, 1.0))
        flat = B2Params(1.0, 1.0, 1.0)
        assert b2_pdf(lo, flat) == pytest.approx(b2_pdf(hi, flat), rel=1e-5)

    def test_log_variant_consistent_and_stable(self):
        theta = B2Params(2.0, 0.5, 1.5)
        s = np.array([1e-12, 0.3, 7.0, 1e12])
        np.testing.assert_allclose(np.exp(b2_logpdf(s, theta)), b2_pdf(s, theta), rtol=1e-13)
        assert np.all(np.isfinite(b2_logpdf(np.array([1e-290, 1e290]), theta)))

    def test_normalizes(self):
        for theta in (B2Params(1.0, 0.5, 1.5), B2Params(26.5, 0.5, 1.5), B2Params(0.3, 2.0, 0.7)):
            total, _ = scipy.integrate.quad(
                lambda s: b2_pdf(s, theta), 0.0, np.inf, limit=300, epsabs=1e-10, epsrel=1e-10
            )
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_rejects_bad_point(self):
        with pytest.raises(ValueError):
            b2_pdf(-1.0, B2Params(1.0, 1.0, 1.0))


class TestB2CdfQuantile:
    def test_cdf_matches_numeric_integral(self):
        theta = B2Params(2.0, 0.5, 1.5)
        for s in (0.1, 1.0, 10.0):
            total, _ = scipy.integrate.quad(
                lambda t: b2_pdf(t, theta), 0.0, s, limit=200, epsabs=1e-12, epsrel=1e-12
            )
            assert b2_cdf(s, theta) == pytest.approx(total, abs=1e-8)

    def test_round_trip(self):
        theta = B2Params(12.0, 0.5, 1.5)
        u = np.linspace(0.01, 0.99, 25)
        np.testing.assert_allclose(b2_cdf(b2_quantile(u, theta), theta), u, rtol=1e-10)

    def test_median_of_unit_case(self):
        assert b2_quantile(0.5, B2Params(1.0, 1.0, 1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_upper_quantile_where_w_rounds_to_one(self):
        # betaincinv(0.5, 0.2, 0.9999) rounds to 1; 1 - w must come from
        # the mirrored Beta instead
        s = b2_quantile(0.9999, B2Params(1.0, 0.5, 0.2))
        assert math.isfinite(s)
        assert float(oracles.b2_cdf(s, 1.0, 0.5, 0.2)) == pytest.approx(0.9999, abs=1e-12)


class TestB2Sample:
    def test_deterministic(self):
        theta = B2Params(1.0, 0.5, 1.5)
        np.testing.assert_array_equal(b2_sample(theta, 500, seed=3), b2_sample(theta, 500, seed=3))

    @pytest.mark.parametrize("count", [2.7, 3.0, 0, -1, True])
    def test_rejects_bad_count(self, count):
        # the library's integer rule with minimum 1, as in qf.sample_v: no
        # float is truncated to a size, and a bool is not a count
        with pytest.raises(ValueError, match=r"^count must be (an integer|>= 1), got "):
            b2_sample(B2Params(1.0, 0.5, 1.5), count, seed=3)

    def test_numpy_integer_count_draws_as_int(self):
        theta = B2Params(1.0, 0.5, 1.5)
        np.testing.assert_array_equal(b2_sample(theta, np.int64(300), 3), b2_sample(theta, 300, 3))

    def test_scale_equivariance(self):
        a = b2_sample(B2Params(1.0, 0.5, 1.5), 1000, seed=11)
        b = b2_sample(B2Params(5.0, 0.5, 1.5), 1000, seed=11)
        np.testing.assert_array_equal(b, 5.0 * a)

    def test_median_of_unit_case(self):
        draws = b2_sample(B2Params(1.0, 1.0, 1.0), 1_000_000, seed=4)
        assert np.median(draws) == pytest.approx(1.0, abs=1e-2)

    def test_ks_against_cdf(self):
        theta = B2Params(2.0, 0.5, 1.5)
        draws = np.sort(b2_sample(theta, 1_000_000, seed=9))
        assert _ks_statistic(draws, b2_cdf(draws, theta)) < 0.005

    def test_small_tail_exponent_draws_are_finite(self):
        # with q = 0.2 about one W ~ Beta(1, 0.2) in 2000 rounds to 1,
        # where b W / (1 - W) would be inf
        theta = B2Params(1.0, 1.0, 0.2)
        draws = np.sort(b2_sample(theta, 1_000_000, seed=1))
        assert np.all(np.isfinite(draws))
        assert _ks_statistic(draws, b2_cdf(draws, theta)) < 0.005


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    b=st.floats(0.05, 50.0),
    p=st.floats(0.3, 5.0),
    q=st.floats(0.3, 5.0),
    u=st.floats(0.01, 0.99),
)
def test_b2_quantile_cdf_round_trip_property(b, p, q, u):
    theta = B2Params(b, p, q)
    assert b2_cdf(b2_quantile(u, theta), theta) == pytest.approx(u, abs=1e-9)


class TestTwoF0Params:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TwoF0Params(alpha=1.0, beta=0.0, b=1.0, p=0.5, q=1.5)

    def test_rejects_constant_blowup(self):
        # the normalizing constant needs p < 1 + alpha
        with pytest.raises(ValueError):
            TwoF0Params(alpha=1.0, beta=1.0, b=1.0, p=2.5, q=1.5)


class TestTwoF0Pdf:
    def test_against_high_precision_oracle(self):
        theta = TwoF0Params(alpha=24.5, beta=24.5, b=1.0, p=0.5, q=1.5)
        for x in (0.05, 0.4, 1.0, 5.0, 40.0):
            want = float(oracles.gamma_mixture_marginal_pdf(x, 24.5, 24.5, 1.0, 0.5, 1.5))
            assert twoF0_pdf(x, theta) == pytest.approx(want, rel=1e-10)

    def test_normalizes(self):
        sets = [
            TwoF0Params(alpha=24.5, beta=24.5, b=1.0, p=0.5, q=1.5),
            TwoF0Params(alpha=5.0, beta=5.0, b=0.1, p=2.5, q=0.8),
            TwoF0Params(alpha=1017.0, beta=1017.0, b=26.5, p=0.5, q=1.5),
        ]
        for theta in sets:
            total, _ = scipy.integrate.quad(
                lambda x: twoF0_pdf(x, theta), 0.0, np.inf, limit=400, epsabs=1e-9, epsrel=1e-9
            )
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_log_variant_consistent(self):
        theta = TwoF0Params(alpha=24.5, beta=24.5, b=1.0, p=0.5, q=1.5)
        x = np.array([0.01, 0.5, 3.0, 100.0])
        np.testing.assert_allclose(np.exp(twoF0_logpdf(x, theta)), twoF0_pdf(x, theta), rtol=1e-12)

    def test_right_tail_constant(self):
        # x^(q+1) f(x) approaches (b/beta)^q G(a+q)G(p+q)/(G(a)G(p)G(q));
        # a heavy right tail puts the reference quantile deep into the
        # asymptotic regime
        al, be, b, p, q = 5.0, 5.0, 1.0, 0.8, 0.5
        theta = TwoF0Params(alpha=al, beta=be, b=b, p=p, q=q)
        const = (b / be) ** q * math.exp(
            math.lgamma(al + q) + math.lgamma(p + q)
            - math.lgamma(al) - math.lgamma(p) - math.lgamma(q)
        )
        # invert the tail mass law C x^-q / q = 1e-4 for the 0.9999 quantile
        x_far = (const / (q * 1e-4)) ** (1.0 / q)
        assert x_far ** (q + 1.0) * twoF0_pdf(x_far, theta) == pytest.approx(const, rel=1e-3)
        # moderate-tail set: same limit, checked farther out
        theta2 = TwoF0Params(alpha=24.5, beta=24.5, b=1.0, p=0.5, q=1.5)
        const2 = (1.0 / 24.5) ** 1.5 * math.exp(
            math.lgamma(26.0) + math.lgamma(2.0)
            - math.lgamma(24.5) - math.lgamma(0.5) - math.lgamma(1.5)
        )
        got = 1e5 ** 2.5 * twoF0_pdf(1e5, theta2)
        assert got == pytest.approx(const2, rel=1e-3)


class TestTwoF0Sample:
    def test_deterministic(self):
        theta = TwoF0Params(alpha=24.5, beta=24.5, b=1.0, p=0.5, q=1.5)
        np.testing.assert_array_equal(
            twoF0_sample(theta, 400, seed=5), twoF0_sample(theta, 400, seed=5)
        )

    def test_ks_against_pdf(self):
        # CDF built by integrating the pdf on a fine log grid, then KS
        # against composition-sampled draws
        theta = TwoF0Params(alpha=24.5, beta=24.5, b=1.0, p=0.5, q=1.5)
        draws = np.sort(twoF0_sample(theta, 1_000_000, seed=21))
        y = np.linspace(math.log(draws[0] / 2.0), math.log(draws[-1] * 2.0), 4097)
        dens = twoF0_pdf(np.exp(y), theta) * np.exp(y)
        cum = scipy.interpolate.PchipInterpolator(y, dens).antiderivative()
        probs = (cum(np.log(draws)) - cum(y[0])) / (cum(y[-1]) - cum(y[0]))
        assert _ks_statistic(draws, probs) < 0.005

    def test_small_tail_exponent_draws_are_finite(self):
        theta = TwoF0Params(alpha=24.5, beta=24.5, b=1.0, p=1.0, q=0.2)
        assert np.all(np.isfinite(twoF0_sample(theta, 100_000, seed=1)))


class TestDsdParams:
    def test_rejects_existence_violation(self):
        with pytest.raises(ValueError):
            DsdParams(alpha=24.5, beta=24.5, alpha_tilde=1.43, beta_tilde=0.061,
                      b=1.0, p=1.5, q=1.5)  # p > alpha~
        # the curve takes only parameters that passed these checks
        with pytest.raises(TypeError, match="^params must be DsdParams, got dict$"):
            dsd_cdf_quantile(dict(alpha=24.5, beta=24.5, alpha_tilde=1.43, beta_tilde=0.061,
                                  b=1.0, p=0.5, q=1.5))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DsdParams(alpha=24.5, beta=24.5, alpha_tilde=1.43, beta_tilde=0.0,
                      b=1.0, p=0.5, q=1.5)


class TestDsdPdf:
    def test_iid_reduction_matches_base_prior(self):
        theta = BATTERY[1]  # alpha~ = alpha, beta~ = beta
        base = B2Params(theta.b, theta.p, theta.q)
        s = np.logspace(-3, 3, 50)
        np.testing.assert_allclose(dsd_pdf(s, theta), b2_pdf(s, base), rtol=1e-10)

    def test_boundary_reduction_matches_shifted_base(self):
        theta = BATTERY[2]  # p = alpha~
        base = B2Params(theta.b * theta.beta_tilde / theta.beta, theta.alpha, theta.q)
        s = np.logspace(-5, 2, 40)
        np.testing.assert_allclose(dsd_pdf(s, theta), b2_pdf(s, base), rtol=1e-12)
        # the curve measures the reduced density's mass like any other
        diagnostics = dsd_cdf_quantile(theta).diagnostics
        assert abs(diagnostics["total_mass"] - 1.0) < 1e-12
        assert diagnostics["points"] == 257

    def test_against_high_precision_oracle(self):
        g = GENERIC
        for s in (1e-4, 1e-3, 1e-2, 0.1, 1.0):
            want = float(oracles.scale_mixing_pdf(s, g.alpha, g.beta, g.alpha_tilde,
                                                  g.beta_tilde, g.b, g.p, g.q))
            assert dsd_pdf(s, g) == pytest.approx(want, rel=1e-9)

    def test_positive_on_log_grid(self):
        s = np.logspace(-9, 5, 200)
        assert np.all(dsd_pdf(s, GENERIC) > 0.0)

    def test_tail_constant(self):
        g = GENERIC
        log_k = (
            g.q * (math.log(g.b) + math.log(g.beta_tilde) - math.log(g.beta))
            - (math.lgamma(g.p) + math.lgamma(g.q) - math.lgamma(g.p + g.q))
            + math.lgamma(g.alpha_tilde) - math.lgamma(g.q + g.alpha_tilde)
            + math.lgamma(g.q + g.alpha) - math.lgamma(g.alpha)
        )
        s_far = 1e6 * g.b * g.beta_tilde / g.beta
        got = s_far ** (g.q + 1.0) * dsd_pdf(s_far, g)
        assert got == pytest.approx(math.exp(log_k), rel=1e-3)

    def test_log_variant_consistent(self):
        s = np.array([1e-6, 1e-3, 0.5, 20.0])
        np.testing.assert_allclose(
            np.exp(dsd_logpdf(s, GENERIC)), dsd_pdf(s, GENERIC), rtol=1e-12
        )

    def test_normalization_battery(self):
        # every parameter set must integrate to 1 within 1e-6; the curve
        # builder's mass diagnostic is the integral of the density
        assert len(BATTERY) >= 10
        for theta in BATTERY:
            curve = dsd_cdf_quantile(theta)
            assert curve.diagnostics["total_mass"] == pytest.approx(1.0, abs=1e-6), theta

    def test_normalization_independent_quadrature(self):
        total, _ = scipy.integrate.quad(
            lambda s: dsd_pdf(s, GENERIC), 0.0, np.inf, limit=400, epsabs=1e-9, epsrel=1e-9
        )
        assert total == pytest.approx(1.0, abs=1e-6)


class TestDsdCdfQuantile:
    def test_limits(self):
        curve = dsd_cdf_quantile(GENERIC)
        assert curve.cdf(1e-300) < 1e-12
        assert curve.cdf(1e300) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip(self):
        curve = dsd_cdf_quantile(GENERIC)
        s = np.logspace(-5, 2, 20)
        back = curve.quantile(curve.cdf(s))
        np.testing.assert_allclose(back, s, rtol=1e-6)

    def test_monotone(self):
        curve = dsd_cdf_quantile(GENERIC)
        s = np.logspace(-8, 4, 300)
        vals = curve.cdf(s)
        assert np.all(np.diff(vals) >= 0.0)

    def test_iid_reduction_quantiles_match_beta_mapping(self):
        theta = BATTERY[1]
        curve = dsd_cdf_quantile(theta)
        u = np.linspace(0.05, 0.95, 10)
        exact = theta.b * betaincinv(theta.p, theta.q, u) / (1.0 - betaincinv(theta.p, theta.q, u))
        np.testing.assert_allclose(curve.quantile(u), exact, rtol=1e-6)

    def test_median_against_integral_oracle(self):
        med = dsd_cdf_quantile(GENERIC).quantile(0.5)
        g = GENERIC
        mass = oracles.quad_positive(
            lambda s: oracles.scale_mixing_pdf(s, g.alpha, g.beta, g.alpha_tilde,
                                               g.beta_tilde, g.b, g.p, g.q),
            [0, med],
        )
        assert float(mass) == pytest.approx(0.5, abs=1e-5)

    def test_unbuildable_support_raises(self):
        # a vanishing origin exponent puts the lower tail out of reach of
        # double precision; the builder must fail loudly with diagnostics
        with pytest.raises(ConvergenceError):
            dsd_cdf_quantile(UNREPRESENTABLE)

    def test_small_origin_exponent_builds(self):
        # the density reaches |z| ~ 1e240 in the lower tail, which the
        # Pfaff-form 2F1 integrand evaluates like any other argument
        assert abs(dsd_cdf_quantile(SMALL_P).diagnostics["total_mass"] - 1.0) < 1e-12

    @pytest.mark.parametrize("p", [0.03, 0.02])
    def test_smaller_origin_exponent_leaves_double_range(self, p):
        theta = DsdParams(alpha=24.5, beta=24.5, alpha_tilde=1.43, beta_tilde=0.061,
                          b=1.0, p=p, q=1.5)
        with pytest.raises(ConvergenceError, match="outside double range"):
            dsd_cdf_quantile(theta)

    def test_bracket_laws_bound_the_cdf(self):
        # alpha~ <= alpha gives B2(c, alpha, q) >=st s >=st B2(c, p, q),
        # c = b beta~ / beta, so their CDFs bound the prior's; 1e-12 allows
        # for the quadrature where a bound is exact (iid, boundary)
        for theta in BATTERY:
            curve = dsd_cdf_quantile(theta)
            x = curve.quantile(np.array([1e-3, 0.5, 1.0 - 1e-3]))
            f = curve.cdf(x)
            c = theta.b * theta.beta_tilde / theta.beta
            assert np.all(b2_cdf(x, B2Params(c, theta.alpha, theta.q)) <= f + 1e-12), theta
            assert np.all(f <= b2_cdf(x, B2Params(c, theta.p, theta.q)) + 1e-12), theta

    @pytest.mark.parametrize("theta", ABOVE_ALPHA, ids=["p2-positive", "p2-negative", "one-ulp"])
    def test_alpha_tilde_above_alpha_round_trips(self, theta):
        curve = dsd_cdf_quantile(theta)
        assert curve.diagnostics["total_mass"] == pytest.approx(1.0, abs=1e-12)
        u = np.array([1e-6, 0.01, 0.3, 0.5, 0.9, 1.0 - 1e-6])
        np.testing.assert_allclose(curve.cdf(curve.quantile(u)), u, rtol=1e-10)

    def test_nonpositive_lower_origin_exponent_brackets_from_the_floor(self, monkeypatch):
        seen = []
        original = priors._log_mass

        def spy(theta, y, upper):
            seen.append(np.array(y))
            return original(theta, y, upper)

        curve = dsd_cdf_quantile(ABOVE_ALPHA[1])
        monkeypatch.setattr(priors, "_log_mass", spy)
        curve.quantile(np.array([0.01, 0.3]))
        np.testing.assert_array_equal(seen[0], priors._LOG_TINY)

    def test_density_mass_off_one_raises(self, monkeypatch):
        # twice the density integrates to 2, which the construction check
        # refuses with its five diagnostics
        original = priors.dsd_logpdf

        def doubled(s, theta):
            return original(s, theta) + math.log(2.0)

        monkeypatch.setattr(priors, "dsd_logpdf", doubled)
        with pytest.raises(ConvergenceError, match="^density mass .* is not 1$") as info:
            dsd_cdf_quantile(GENERIC)
        diagnostics = info.value.diagnostics
        assert set(diagnostics) == {"total_mass", "mass_error", "points", "s_lo", "s_hi"}
        assert diagnostics["total_mass"] == pytest.approx(2.0, rel=1e-6)

    def test_unconverged_quantile_solve_raises(self, monkeypatch):
        curve = dsd_cdf_quantile(GENERIC)
        monkeypatch.setattr(priors, "_MAX_STEPS", 2)
        u = np.array([0.01, 0.5, 0.99])
        with pytest.raises(ConvergenceError, match="did not converge") as info:
            curve.quantile(u)
        np.testing.assert_array_equal(info.value.diagnostics["u"], u)
        assert np.all(info.value.diagnostics["log_bracket_width"] > priors._Y_TOL)

    @pytest.mark.parametrize("theta", [GENERIC, BATTERY[4]], ids=["generic", "alpha1017"])
    def test_upper_tail_quantiles_against_survival_reference(self, theta):
        curve = dsd_cdf_quantile(theta)
        for k in (20, 30, 40):
            got = curve.quantile(1.0 - 2.0**-k)
            assert got == pytest.approx(_upper_quantile_reference(k, theta), rel=1e-8), k


class TestDsdSample:
    def test_deterministic(self):
        np.testing.assert_array_equal(
            dsd_sample(GENERIC, 300, seed=17), dsd_sample(GENERIC, 300, seed=17)
        )

    @pytest.mark.parametrize("count", [2.7, 3.0, 0, -1, True])
    def test_rejects_bad_count(self, count):
        with pytest.raises(ValueError, match=r"^count must be (an integer|>= 1), got "):
            dsd_sample(GENERIC, count, seed=17)

    def test_numpy_integer_count_draws_as_int(self):
        np.testing.assert_array_equal(
            dsd_sample(GENERIC, np.int64(300), seed=17), dsd_sample(GENERIC, 300, seed=17)
        )

    def test_ks_against_cdf(self):
        # empirical CDF at the quantiles q_k of u_k = k/1000: between two
        # of them both CDFs move by at most 1/1000, so the largest gap
        # plus 1/1000 bounds the KS statistic from above
        u = np.arange(1, 1000) / 1000.0
        q = dsd_cdf_quantile(GENERIC).quantile(u)
        draws = np.sort(dsd_sample(GENERIC, 1_000_000, seed=29))
        ecdf = np.searchsorted(draws, q, side="right") / draws.size
        assert np.max(np.abs(ecdf - u)) + 1.0 / 1000.0 < 0.005

    def test_unrepresentable_draws_raise(self):
        with pytest.raises(ConvergenceError):
            dsd_sample(UNREPRESENTABLE, 1000, seed=1)

    def test_reduction_cases_sample_base_prior(self):
        # in both reduction regimes the draws must follow the exact
        # beta-prime mapped law
        for theta, base in (
            (BATTERY[1], B2Params(BATTERY[1].b, BATTERY[1].p, BATTERY[1].q)),
            (BATTERY[2], B2Params(BATTERY[2].b * BATTERY[2].beta_tilde / BATTERY[2].beta,
                                  BATTERY[2].alpha, BATTERY[2].q)),
        ):
            draws = np.sort(dsd_sample(theta, 200_000, seed=31))
            assert _ks_statistic(draws, b2_cdf(draws, base)) < 0.005


class TestIntegralEquation:
    def test_iid_case_residual(self):
        rel = integral_equation_residual(BATTERY[1], np.logspace(-2, 1, 12))
        assert rel.shape == (12,)
        assert rel.max() < 1e-8

    def test_unsettled_grid_raises(self, monkeypatch):
        # the iid case needs 1025 points; with the grid capped at 257 its
        # mixing integrals do not settle, and no residual may be reported
        monkeypatch.setattr(priors, "_MASS_POINTS_MAX", 257)
        with pytest.raises(ConvergenceError) as info:
            integral_equation_residual(BATTERY[1], np.logspace(-2, 1, 12))
        assert info.value.diagnostics["points"] == 257

    def test_generic_case_residual(self):
        marg = TwoF0Params(alpha=GENERIC.alpha, beta=GENERIC.beta, b=GENERIC.b,
                           p=GENERIC.p, q=GENERIC.q)
        probe = np.sort(twoF0_sample(marg, 200_000, seed=41))
        v_grid = np.quantile(probe, np.linspace(0.01, 0.99, 25))
        assert integral_equation_residual(GENERIC, v_grid).max() < 1e-4

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            integral_equation_residual(GENERIC, np.array([0.0, 1.0]))
