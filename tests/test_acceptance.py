"""Whole-pipeline guarantees. Each class pins one end-to-end property:
known-good elicitation values, the closed-form reductions, the defining
mixture identity on penalized-spline fixtures, exactness of the
fixed-effect and moment-match special cases, the weighted chi-square
series, normalization of every density, one variance-share law across
structures (the mixture residual of each component against the common
benchmark), additivity of component priors on the predictor scale (the
prior mean of every component's share equals the benchmark mean), and
the documented scope boundary."""

import time
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from scipy.stats import chi2

from dsdprior.elicit import ElicitationSpec, build_dsd_prior, solve_scale
from dsdprior.priors import (
    B2Params,
    DsdParams,
    TwoF0Params,
    b2_pdf,
    b2_quantile,
    dsd_cdf_quantile,
    dsd_pdf,
    integral_equation_residual,
    twoF0_pdf,
    twoF0_sample,
)
from dsdprior.qf import gamma_approx, qf_moments, ruben_cdf, sample_v
from dsdprior.structure import (
    DesignMatrix,
    QfWeights,
    StructureSpec,
    build_bspline_basis,
    build_rw,
    qf_weights,
)


class TestSeasonalElicitation:
    def test_logit_and_probit_scales(self):
        # n = 366 daily effects; the two bounds are the logit and probit
        # pseudo-variances of the same binary series. Reference scales
        # for this configuration: 26.5 and 9.34, reproduced to +-3% in
        # under ten seconds single-threaded.
        start = time.perf_counter()
        logit = solve_scale(ElicitationSpec(n=366, c=5.16))
        probit = solve_scale(ElicitationSpec(n=366, c=1.82))
        elapsed = time.perf_counter() - start
        assert logit.b == pytest.approx(26.5, rel=0.03)
        assert probit.b == pytest.approx(9.34, rel=0.03)
        assert elapsed < 10.0


class TestClosedFormReductions:
    def test_matching_moments_collapse_to_base_prior(self):
        theta = DsdParams(24.5, 24.5, 24.5, 24.5, 1.0, 0.5, 1.5)
        base = B2Params(1.0, 0.5, 1.5)
        s = np.logspace(-3, 3, 50)
        np.testing.assert_allclose(dsd_pdf(s, theta), b2_pdf(s, base), rtol=1e-10)

    def test_boundary_exponent_collapses_to_rescaled_base_prior(self):
        theta = DsdParams(24.5, 24.5, 1.43, 0.061, 1.0, 1.43, 1.5)
        base = B2Params(1.0 * 0.061 / 24.5, 24.5, 1.5)
        s = np.logspace(-3, 3, 50)
        np.testing.assert_allclose(dsd_pdf(s, theta), b2_pdf(s, base), rtol=1e-10)


class TestMixtureIdentityOnSplineFixtures:
    def test_penalized_spline_designs(self):
        # cubic B-spline bases over 50 points under a second-order walk
        # penalty, sum-to-zero constrained; mixing the conditional Gamma
        # law over the design-adjusted prior must return the benchmark
        # marginal pointwise across its 1%-99% quantile range
        start = time.perf_counter()
        fitted = {5: (0.992359, 34.682764), 20: (0.722154, 0.056184)}
        x = np.linspace(-1.0, 1.0, 50)
        bench = TwoF0Params(alpha=24.5, beta=24.5, b=1.0, p=0.5, q=1.5)
        draws = twoF0_sample(bench, 200_000, seed=41)
        v_grid = np.quantile(draws, np.linspace(0.01, 0.99, 25))
        for m, expected in fitted.items():
            z = build_bspline_basis(x, m=m, degree=3)
            fit = gamma_approx(qf_weights(z, build_rw(order=2, n_g=m), constrained=True))
            assert (fit.alpha_tilde, fit.beta_tilde) == pytest.approx(expected, rel=1e-4)
            theta = DsdParams(24.5, 24.5, fit.alpha_tilde, fit.beta_tilde, 1.0, 0.5, 1.5)
            report = integral_equation_residual(theta, v_grid)
            assert report.max_rel_error < 1e-4, m
        assert time.perf_counter() - start < 60.0


class TestFixedEffectClosedForm:
    def test_single_weight_and_exact_gamma_fit(self):
        rng = np.random.default_rng(77)
        x = rng.normal(1.0, 2.0, size=40)
        design = DesignMatrix(values=x[:, None], kind="covariate-column")
        spec = StructureSpec(precision=np.eye(1), rank_deficiency=0, label="iid(1)")
        w = qf_weights(design, spec, constrained=False)
        s2 = float(np.var(x, ddof=1))
        assert w.weights.shape == (1,)
        assert w.weights[0] == pytest.approx(39.0 * s2, rel=1e-12)
        fit = gamma_approx(w)
        assert fit.alpha_tilde == pytest.approx(0.5, rel=1e-12)
        assert fit.beta_tilde == pytest.approx(1.0 / (2.0 * s2), rel=1e-12)


class TestMomentMatch:
    def test_gamma_fit_matches_conditional_moments(self):
        rng = np.random.default_rng(101)
        for _ in range(24):
            size = int(rng.integers(1, 12))
            lam = np.exp(rng.normal(0.0, 1.5, size=size))
            w = QfWeights(
                weights=lam,
                n_predictor=int(rng.integers(size + 2, 60)),
                zero_count=1,
            )
            fit = gamma_approx(w)
            mean, var = qf_moments(w, 1.0)
            assert fit.alpha_tilde / fit.beta_tilde == pytest.approx(mean, rel=1e-12)
            assert fit.alpha_tilde / fit.beta_tilde**2 == pytest.approx(var, rel=1e-12)


class TestWeightedChiSquareSeries:
    def test_single_weight_matches_scaled_chi_square(self):
        lam = 2.7
        w = QfWeights(weights=np.array([lam]), n_predictor=6, zero_count=1)
        q = np.linspace(0.05, 30.0, 120)
        np.testing.assert_allclose(ruben_cdf(q, w), chi2.cdf(q / lam, df=1), rtol=1e-10)

    def test_three_weight_cdf_against_monte_carlo(self):
        w = QfWeights(weights=np.array([1.0, 2.0, 3.0]), n_predictor=4, zero_count=1)
        count = 10_000_000
        # sample_v returns V = Q / (n_predictor - 1); the series works on Q
        q = np.sort(sample_v(w, sigma2=1.0, count=count, seed=63)) * 3.0
        worst = 0.0
        step = 1_000_000
        for start in range(0, count, step):
            block = q[start : start + step]
            probs = ruben_cdf(block, w)
            upper = np.arange(start + 1, start + block.size + 1) / count
            worst = max(
                worst,
                float(np.abs(probs - upper).max()),
                float(np.abs(probs - upper + 1.0 / count).max()),
            )
        assert worst < 0.005


class TestNormalizationBattery:
    B2_SETS = [
        B2Params(1.0, 0.5, 1.5),
        B2Params(26.5, 0.5, 1.5),
        B2Params(9.34, 0.5, 1.5),
        B2Params(0.3, 2.0, 0.7),
        B2Params(5.0, 1.0, 1.0),
        B2Params(0.05, 0.3, 0.35),
        B2Params(12.0, 2.5, 0.8),
        B2Params(1.0, 1.0, 1.0),
        B2Params(100.0, 0.7, 2.2),
        B2Params(2.0, 3.0, 4.0),
    ]

    TWOF0_SETS = [
        TwoF0Params(24.5, 24.5, 1.0, 0.5, 1.5),
        TwoF0Params(24.5, 24.5, 26.5, 0.5, 1.5),
        TwoF0Params(1017.0, 1017.0, 26.5, 0.5, 1.5),
        TwoF0Params(182.5, 182.5, 9.34, 0.5, 1.5),
        TwoF0Params(5.0, 5.0, 0.1, 2.5, 0.8),
        TwoF0Params(50.0, 50.0, 5.0, 1.0, 3.0),
        TwoF0Params(1.0, 1.0, 2.0, 0.6, 1.2),
        TwoF0Params(10.0, 10.0, 1.0, 0.5, 1.5),
        TwoF0Params(2.0, 3.0, 4.0, 0.9, 0.7),
        TwoF0Params(7.0, 2.0, 0.5, 1.8, 2.2),
    ]

    # includes the reference approximation pairs (0.735, 1.4e-4),
    # (0.602, 2.7e-4), (9.375, 11.581) under their benchmark 1017
    DSD_SETS = [
        DsdParams(24.5, 24.5, 1.43, 0.061, 1.0, 0.5, 1.5),
        DsdParams(24.5, 24.5, 24.5, 24.5, 1.0, 0.5, 1.5),
        DsdParams(24.5, 24.5, 1.43, 0.061, 1.0, 1.42, 1.5),
        DsdParams(1017.0, 1017.0, 0.735, 1.4e-4, 26.5, 0.5, 1.5),
        DsdParams(1017.0, 1017.0, 0.602, 2.7e-4, 9.34, 0.5, 1.5),
        DsdParams(1017.0, 1017.0, 9.375, 11.581, 1.0, 0.5, 1.5),
        DsdParams(5.0, 5.0, 3.0, 2.0, 0.1, 2.5, 0.8),
        DsdParams(50.0, 50.0, 2.0, 0.5, 5.0, 1.0, 3.0),
        DsdParams(1.0, 1.0, 0.7, 0.3, 2.0, 0.6, 1.2),
        DsdParams(10.0, 10.0, 10.0, 3.0, 1.0, 0.5, 1.5),
        DsdParams(182.5, 182.5, 1.2, 8.0e-3, 26.5, 0.5, 1.5),
    ]

    def test_base_prior_normalizes(self):
        for theta in self.B2_SETS:
            total, _ = scipy.integrate.quad(
                lambda s: b2_pdf(s, theta), 0.0, np.inf, limit=300, epsabs=1e-10, epsrel=1e-10
            )
            assert total == pytest.approx(1.0, abs=1e-6), theta

    def test_marginal_benchmark_normalizes(self):
        for theta in self.TWOF0_SETS:
            total, _ = scipy.integrate.quad(
                lambda x: twoF0_pdf(x, theta), 0.0, np.inf, limit=400, epsabs=1e-9, epsrel=1e-9
            )
            assert total == pytest.approx(1.0, abs=1e-6), theta

    def test_design_adjusted_prior_normalizes(self):
        assert len(self.DSD_SETS) >= 10
        for theta in self.DSD_SETS:
            curve = dsd_cdf_quantile(theta)
            assert curve.diagnostics["total_mass"] == pytest.approx(1.0, abs=1e-6), theta

    def test_reference_summary_columns_consistent(self):
        # each fitted pair is quoted alongside its conditional mean
        # alpha~/beta~ and variance alpha~/beta~^2, all printed to 2-4
        # significant figures. With beta~ at two figures, squaring can
        # move the implied variance by more than 5%, so consistency is
        # judged by overlap of the implied rounding intervals (covering
        # round-to-nearest and truncation); the means also pass a plain
        # +-5% check.
        rows = [
            (0.735, 1e-3, 1.4e-4, 1e-5, 5001.1, 0.1, 3.4e7, 1e6),
            (0.602, 1e-3, 2.7e-4, 1e-5, 2190.9, 0.1, 7.9e6, 1e5),
            (9.375, 1e-3, 11.581, 1e-3, 0.809, 1e-3, 0.0698, 1e-4),
        ]
        for at, at_u, bt, bt_u, mean, mean_u, var, var_u in rows:
            at_lo, at_hi = at - at_u / 2.0, at + at_u
            bt_lo, bt_hi = bt - bt_u / 2.0, bt + bt_u
            mean_lo, mean_hi = mean - mean_u / 2.0, mean + mean_u
            var_lo, var_hi = var - var_u / 2.0, var + var_u
            implied_mean = (at_lo / bt_hi, at_hi / bt_lo)
            implied_var = (at_lo / bt_hi**2, at_hi / bt_lo**2)
            assert implied_mean[0] <= mean_hi and mean_lo <= implied_mean[1], (at, bt)
            assert implied_var[0] <= var_hi and var_lo <= implied_var[1], (at, bt)
            assert at / bt == pytest.approx(mean, rel=0.05)


class TestMarginalEquality:
    def test_unlike_structures_share_one_variance_law(self):
        # an exchangeable component and a penalized spline, same
        # elicitation: mixing each one's conditional Gamma law over its
        # prior must give back the one benchmark marginal, pointwise on
        # the base prior's 1%-99% quantiles
        n = 40
        elic = ElicitationSpec(n=n, c=1.3)
        iid = build_dsd_prior(
            DesignMatrix.identity(n),
            StructureSpec(precision=np.eye(n), rank_deficiency=0, label=f"iid({n})"),
            elic,
        )
        spline = build_dsd_prior(
            build_bspline_basis(np.linspace(-1.0, 1.0, n), m=8, degree=3),
            build_rw(order=2, n_g=8),
            elic,
        )
        assert iid.params.b == spline.params.b
        t = iid.params
        v_grid = b2_quantile(np.linspace(0.01, 0.99, 25), B2Params(t.b, t.p, t.q))
        for comp in (iid, spline):
            assert integral_equation_residual(comp.params, v_grid).max_rel_error < 1e-4


class TestPredictorVarianceDecomposition:
    def test_three_heterogeneous_components_add_up(self):
        # E[V_j | s] = s sum(lambda) / (n - 1) = s alpha~ / beta~, and the
        # design-adjusted prior has E[s] = b (beta~ / beta) (p / alpha~)
        # alpha / (q - 1), so E[V_j] = b p alpha / (beta (q - 1)) whatever
        # the design and structure: independent components add up on the
        # predictor scale, k of them to k benchmark means, and their cross
        # terms have mean 0 by independence. E[s] is integrated over
        # y = log s, where the integrand s^2 f(s) decays like s^(1 + p)
        # below and s^(1 - q) above; the window of y spans e^-60 to e^160
        # around b, past which both tails fall below 1e-26 relative
        n = 40
        x = np.random.default_rng(19).normal(0.0, 1.5, size=n)
        components = (
            (
                DesignMatrix.identity(n),
                StructureSpec(precision=np.eye(n), rank_deficiency=0, label=f"iid({n})"),
            ),
            (
                DesignMatrix(values=x[:, None], kind="covariate-column"),
                StructureSpec(precision=np.eye(1), rank_deficiency=0, label="iid(1)"),
            ),
            (build_bspline_basis(np.linspace(-1.0, 1.0, n), m=8, degree=3), build_rw(order=2, n_g=8)),
        )
        for q in (1.5, 3.0):
            elic = ElicitationSpec(n=n, c=1.0, q=q)
            total = 0.0
            for design, structure in components:
                comp = build_dsd_prior(design, structure, elic)
                t = comp.params
                log_b = np.log(t.b)
                mean_s, _ = scipy.integrate.quad(
                    lambda y: np.exp(2.0 * y) * float(dsd_pdf(np.exp(y), t)),
                    log_b - 60.0,
                    log_b + 160.0,
                    epsabs=0.0,
                    epsrel=1e-13,
                    limit=200,
                )
                mean_v = comp.weights.weights.sum() / (n - 1) * mean_s
                bench = t.b * t.p * t.alpha / (t.beta * (t.q - 1.0))
                assert mean_v == pytest.approx(bench, rel=1e-12), (q, structure.label)
                total += mean_v
            assert total == pytest.approx(3.0 * bench, rel=1e-12), q


class TestDocumentedScope:
    def test_scope_boundary_is_documented(self):
        # posterior-side results need full MCMC over the original data;
        # the README must say so instead of silently omitting them
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8").lower()
        assert "## scope" in text
        assert "out of scope" in text
        assert "posterior" in text
        assert "mcmc" in text
