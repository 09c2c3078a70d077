"""Tests for elicitation: pseudo-variance targets, the deterministic
solve for the base-prior scale, end-to-end component prior construction,
and the prior mean of a component's variance share on the predictor
scale."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betaln, gammaincc

import oracles

from dsdprior import structure
from dsdprior._quad import ConvergenceError
from dsdprior.elicit import (
    ComponentPrior,
    ElicitationSpec,
    _benchmark_quantile,
    build_dsd_prior,
    pseudo_variance,
    solve_scale,
)
from dsdprior.priors import B2Params, b2_pdf, b2_quantile, dsd_pdf, integral_equation_residual
from dsdprior.structure import DesignMatrix, StructureSpec, build_rw


def _identity_structure(n):
    return StructureSpec(precision=np.eye(n), rank_deficiency=0, label=f"iid({n})")


def _fixed_effect(x):
    return DesignMatrix(values=np.asarray(x, dtype=float)[:, None], kind="covariate-column")


# 30-digit roots from oracles.benchmark_quantile.  The last three lie
# far in the left tail: at large n, where the incomplete gamma factor is a
# sharp step, and outside the first +-8 log-scale bracket (n = 2)
ORACLE_QUANTILES = [
    (2, 0.5, 0.5, 1.5, 0.06034314272692594),
    (366, 0.5, 0.5, 1.5, 0.19439370338940432),
    (30, 0.99, 2.5, 0.8, 823.9777619715512),
    (2400, 0.01, 0.5, 1.5, 6.165153347573258e-05),
    (2, 0.001, 1.4, 5.0, 2.2766005647314684e-07),
    (5000, 0.001, 0.5, 1.5, 6.16665693393071e-07),
]


class TestLikelihoodKind:
    """The likelihood kinds pseudo_variance accepts, the two binomial
    links, and the mean range of each.  A known bound, such as a Gaussian
    response's sample variance, is c itself and has no kind."""

    def test_valid_constructors(self):
        assert pseudo_variance("binomial_logit", 0.3) == 1.0 / (0.3 * 0.7)
        assert pseudo_variance("binomial_probit", 0.7) > 0.0

    def test_rejects_invalid_statistics(self):
        with pytest.raises(ValueError):
            pseudo_variance("binomial_logit", 1.0)
        with pytest.raises(ValueError):
            pseudo_variance("binomial_probit", -0.1)
        with pytest.raises(ValueError, match="strictly inside"):
            pseudo_variance("binomial_logit", math.inf)
        for kind in ("poisson", "gaussian", "user_supplied"):
            with pytest.raises(ValueError, match="unknown likelihood kind"):
                pseudo_variance(kind, 1.0)


class TestPseudoVariance:
    def test_logit_at_half(self):
        assert pseudo_variance("binomial_logit", 0.5) == pytest.approx(4.0, rel=1e-14)

    def test_probit_at_half(self):
        # 0.25 / phi(0)^2 = pi/2
        got = pseudo_variance("binomial_probit", 0.5)
        assert got == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_logit_inverts_target(self):
        # the mean with y(1-y) = 1/5.16 must map back to 5.16
        ybar = 0.5 * (1.0 + math.sqrt(1.0 - 4.0 / 5.16))
        got = pseudo_variance("binomial_logit", ybar)
        assert got == pytest.approx(5.16, rel=1e-12)

    @pytest.mark.parametrize("mean", [0.05, 0.27, 0.5, 0.9])
    def test_probit_matches_oracle(self, mean):
        got = pseudo_variance("binomial_probit", mean)
        assert got == pytest.approx(oracles.probit_pseudo_variance(mean), rel=1e-12)

    @pytest.mark.parametrize(
        "kind, mean",
        [("binomial_probit", 1e-160), ("binomial_probit", 1e-300), ("binomial_logit", 5e-324)],
    )
    def test_mean_too_close_to_zero_raises(self, kind, mean):
        # exp(z^2) overflows below a probit mean of ~1e-154, and 1 / m below
        # a logit mean of ~6e-309
        with pytest.raises(ValueError, match=f"{kind} mean {mean!r} is too close to 0 or 1"):
            pseudo_variance(kind, mean)

    def test_probit_increases_away_from_half(self):
        mid = pseudo_variance("binomial_probit", 0.5)
        edge = pseudo_variance("binomial_probit", 0.95)
        assert edge > mid


class TestElicitationSpec:
    def test_defaults(self):
        spec = ElicitationSpec(n=366, c=5.16)
        assert (spec.p, spec.q, spec.pi0) == (0.5, 1.5, 0.5)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            ElicitationSpec(n=1, c=1.0)
        with pytest.raises(ValueError):
            ElicitationSpec(n=10, c=0.0)
        with pytest.raises(ValueError):
            ElicitationSpec(n=10, c=1.0, pi0=1.0)
        with pytest.raises(ValueError, match="p < 1 \\+ alpha; got p=2.0, alpha=1.0"):
            ElicitationSpec(n=3, c=1.0, p=2.0)
        # the solve takes only a spec that passed these checks
        with pytest.raises(TypeError, match="^expected ElicitationSpec, got dict$"):
            solve_scale({"n": 10, "c": 1.0})


class TestSolveScale:
    def test_deterministic(self):
        spec = ElicitationSpec(n=50, c=2.0)
        first, second = solve_scale(spec), solve_scale(spec)
        assert first == second
        assert first.b.hex() == second.b.hex()
        assert first.quantile.hex() == second.quantile.hex()

    @pytest.mark.parametrize("n, pi0, p, q, want", ORACLE_QUANTILES)
    def test_quantile_matches_oracle(self, n, pi0, p, q, want):
        got = solve_scale(ElicitationSpec(n=n, c=1.0, pi0=pi0, p=p, q=q))
        assert got.quantile == pytest.approx(want, rel=1e-10)
        assert got.b == 1.0 / got.quantile

    def test_upper_quantile_past_double_resolution(self):
        # the base prior's 0.9999-quantile for q = 0.2 has w = 1 in double
        # precision; check 1 - F at the root independently, by quad over
        # u = log(w / (1 - w)), integrating the upper tail itself
        n, pi0, p, q = 2, 0.9999, 0.5, 0.2
        log_x = math.log(solve_scale(ElicitationSpec(n=n, c=1.0, pi0=pi0, p=p, q=q)).quantile)
        a = 0.5 * (n - 1)

        def integrand(u):
            log_density = p * u - (p + q) * np.logaddexp(0.0, u) - betaln(p, q)
            return math.exp(log_density) * gammaincc(a, a * math.exp(log_x - u))

        cuts = log_x + np.array([-60.0, -20.0, -5.0, 0.0, 5.0, 20.0, 200.0])
        pieces = [
            quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            for lo, hi in zip(cuts[:-1], cuts[1:])
        ]
        # past the last cut Q = 1 and the density is exp(-q u) / B(p, q)
        tail = sum(pieces) + math.exp(-q * cuts[-1] - betaln(p, q)) / q
        assert tail == pytest.approx(1.0 - pi0, rel=1e-9)

    def test_linear_in_c(self):
        a = solve_scale(ElicitationSpec(n=50, c=2.0))
        b = solve_scale(ElicitationSpec(n=50, c=4.0))
        assert b.b == 2.0 * a.b

    def test_logit_bound_reproduces_reference_scale(self):
        spec = ElicitationSpec(n=366, c=5.16)
        sol = solve_scale(spec)
        assert abs(sol.b - 26.5) / 26.5 < 0.03

    def test_probit_bound_reproduces_reference_scale(self):
        spec = ElicitationSpec(n=366, c=1.82)
        sol = solve_scale(spec)
        assert abs(sol.b - 9.34) / 9.34 < 0.03

    def test_monotone_in_pi0(self):
        bs = [
            solve_scale(ElicitationSpec(n=60, c=1.0, pi0=pi0)).b
            for pi0 in (0.1, 0.25, 0.5, 0.75)
        ]
        assert all(hi >= lo for hi, lo in zip(bs, bs[1:]))

    def test_propagates_constant_blowup(self):
        # p >= 1 + alpha makes the benchmark marginal non-normalizable
        with pytest.raises(ValueError):
            solve_scale(ElicitationSpec(n=2, c=1.0, p=2.0))


class TestQuantileCache:
    """q_hat depends on (n, p, q, pi0) only, so solve_scale solves it once
    per process and answers later calls from a bounded cache."""

    @pytest.mark.parametrize("n, pi0, p, q, want", ORACLE_QUANTILES)
    def test_warm_answer_carries_cold_bits(self, n, pi0, p, q, want):
        spec = ElicitationSpec(n=n, c=1.0, pi0=pi0, p=p, q=q)
        _benchmark_quantile.cache_clear()
        cold = solve_scale(spec)
        hits = _benchmark_quantile.cache_info().hits
        warm = solve_scale(spec)
        assert _benchmark_quantile.cache_info().hits == hits + 1
        assert warm.b.hex() == cold.b.hex()
        assert warm.quantile.hex() == cold.quantile.hex()

    def test_bounds_share_one_entry(self):
        _benchmark_quantile.cache_clear()
        for c in (0.5, 2.0, 5.16):
            sol = solve_scale(ElicitationSpec(n=50, c=c, pi0=0.25))
            assert sol.b == c / sol.quantile
        assert _benchmark_quantile.cache_info().currsize == 1

    def test_numpy_spelling_hits_python_entry(self):
        _benchmark_quantile.cache_clear()
        plain = solve_scale(ElicitationSpec(n=366, c=5.16, p=0.5, q=1.5, pi0=0.5))
        hits = _benchmark_quantile.cache_info().hits
        spelled = ElicitationSpec(
            n=np.int64(366), c=np.float64(5.16), p=np.float64(0.5), q=np.float64(1.5), pi0=np.float64(0.5)
        )
        assert solve_scale(spelled) == plain
        assert _benchmark_quantile.cache_info().hits == hits + 1
        assert _benchmark_quantile.cache_info().currsize == 1

    def test_cache_is_bounded(self):
        assert _benchmark_quantile.cache_info().maxsize is not None

    def test_failed_solve_is_not_kept(self):
        # a documented failure (ROADMAP Baseline): small p at a tiny pi0
        spec = ElicitationSpec(n=366, c=1.0, p=0.05, q=1.5, pi0=1e-6)
        _benchmark_quantile.cache_clear()
        for _ in range(2):
            with pytest.raises(ConvergenceError, match="did not reach tolerance"):
                solve_scale(spec)
        assert _benchmark_quantile.cache_info().currsize == 0
        assert _benchmark_quantile.cache_info().misses == 2


class TestBuildDsdPrior:
    def test_iid_component_reduces_to_base_prior(self):
        n = 30
        comp = build_dsd_prior(
            DesignMatrix.identity(n),
            _identity_structure(n),
            ElicitationSpec(n=n, c=1.5),
        )
        assert isinstance(comp, ComponentPrior)
        assert comp.params.alpha_tilde == pytest.approx(comp.params.alpha, rel=1e-12)
        assert comp.params.beta_tilde == pytest.approx(comp.params.beta, rel=1e-12)
        s = np.logspace(-3, 3, 30)
        base = B2Params(comp.params.b, 0.5, 1.5)
        np.testing.assert_allclose(dsd_pdf(s, comp.params), b2_pdf(s, base), rtol=1e-10)

    def test_fixed_effect_becomes_rescaled_base_prior(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=40)
        comp = build_dsd_prior(
            _fixed_effect(x),
            _identity_structure(1),
            ElicitationSpec(n=40, c=1.0),
        )
        # single weight (n-1) s_x^2 gives alpha~ = 1/2 = p, so the prior
        # collapses to the base prior with b divided by the sum of squares
        ssq = 39.0 * np.var(x, ddof=1)
        base = B2Params(comp.params.b / ssq, comp.params.alpha, comp.params.q)
        s = np.logspace(-4, 2, 25)
        np.testing.assert_allclose(dsd_pdf(s, comp.params), b2_pdf(s, base), rtol=1e-12)

    def test_seasonal_component_full_pipeline(self):
        n = 366
        design = DesignMatrix.identity(n)
        seasonal = build_rw(order=2, n_g=n, circular=True)
        comp = build_dsd_prior(design, seasonal, ElicitationSpec(n=n, c=5.16))
        assert abs(comp.params.b - 26.5) / 26.5 < 0.03
        assert comp.params.alpha == (n - 1) / 2.0
        assert structure._effect_map(design, seasonal).shape == (n, n - 1)
        # provenance keeps only what no other field carries
        assert set(comp.provenance) == {"version", "weights_sha256"}
        assert (comp.scale.pi0, comp.scale.c) == (0.5, 5.16)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            build_dsd_prior(
                DesignMatrix.identity(12),
                _identity_structure(12),
                ElicitationSpec(n=10, c=1.0),
            )
        good = (DesignMatrix.identity(10), _identity_structure(10), ElicitationSpec(n=10, c=1.0))
        names = ("design", "DesignMatrix"), ("structure", "StructureSpec"), ("elic", "ElicitationSpec")
        for index, (name, kind) in enumerate(names):
            args = list(good)
            args[index] = "x"
            with pytest.raises(TypeError, match=f"^{name} must be {kind}, got str$"):
                build_dsd_prior(*args)

    def test_reports_existence_violation(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="alpha_tilde"):
            build_dsd_prior(
                _fixed_effect(rng.normal(size=30)),
                _identity_structure(1),
                ElicitationSpec(n=30, c=1.0, p=1.5),
            )


class TestMarginalEquality:
    def test_different_structures_same_variance_share_law(self):
        # the point of the whole construction: components with unlike
        # designs but a common elicitation share one variance-share law
        # under the Gamma approximation, because mixing each one's
        # conditional Gamma law over its prior gives back the one
        # benchmark marginal; checked pointwise on the base prior's
        # 1%-99% quantiles
        n = 40
        elic = ElicitationSpec(n=n, c=1.3)
        iid = build_dsd_prior(DesignMatrix.identity(n), _identity_structure(n), elic)
        walk = build_dsd_prior(DesignMatrix.identity(n), build_rw(order=2, n_g=n), elic)
        assert iid.params.b == walk.params.b
        t = iid.params
        v_grid = b2_quantile(np.linspace(0.01, 0.99, 25), B2Params(t.b, t.p, t.q))
        for comp in (iid, walk):
            assert integral_equation_residual(comp.params, v_grid).max() < 1e-4


class TestPredictorPriorCheck:
    def test_single_component_matches_benchmark(self):
        # the prior-side check on the predictor scale: a component's
        # variance share has prior mean b p alpha / (beta (q - 1)), the
        # benchmark mean, here for a rank-deficient walk on Z = I; E[s] is
        # integrated over y = log s, the window and reasoning as in
        # test_acceptance.TestPredictorVarianceDecomposition
        n = 40
        for q in (1.5, 3.0):
            comp = build_dsd_prior(
                DesignMatrix.identity(n), build_rw(order=1, n_g=n), ElicitationSpec(n=n, c=1.0, q=q)
            )
            t = comp.params
            log_b = np.log(t.b)
            mean_s, _ = quad(
                lambda y: np.exp(2.0 * y) * float(dsd_pdf(np.exp(y), t)),
                log_b - 60.0,
                log_b + 160.0,
                epsabs=0.0,
                epsrel=1e-13,
                limit=200,
            )
            mean_v = comp.weights.weights.sum() / (n - 1) * mean_s
            bench = t.b * t.p * t.alpha / (t.beta * (t.q - 1.0))
            assert mean_v == pytest.approx(bench, rel=1e-12), q
