"""Closed-form prior densities on the variance scale.

Three related families:

- the *base prior*, a scaled beta-prime law with origin exponent ``p``,
  tail exponent ``q``, and scale ``b``; it is the prior placed on the
  benchmark variance of an exchangeable effect,
- the *marginal benchmark*, the law of a Gamma variate whose scale is
  mixed over the base prior; it is what the benchmark variance share
  looks like once the base prior is integrated out, and
- the *design-adjusted scale prior*, the prior on a component's scale
  parameter chosen so that the component's approximate variance share,
  mixed over this prior, reproduces the marginal benchmark exactly.

All densities have log variants and the base prior has closed-form
CDF/quantile/sampling.  The design-adjusted prior's CDF, quantiles and
draws come from its product form s = b (beta_tilde / beta) W G_alpha / G_q
with W ~ Beta(p, alpha_tilde - p), G_alpha ~ Gamma(alpha) and
G_q ~ Gamma(q) independent: one quadrature over W per CDF point, one
vectorized call of scipy's bracketed `find_root` for quantiles, and
composition for draws.  Since alpha_tilde <= alpha for every component, the
prior lies in the stochastic order between two base priors, B2(c, p, q) and
B2(c, alpha, q) with c = b beta_tilde / beta, and their closed-form
quantiles bracket the root solve.  Its closed-form 2F1 density serves for
density values and as an independent check of that product form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize.elementwise import find_root
from scipy.special import betainc, betaincinv, betaln

from ._checks import benchmark_exponent, integer, positive_array, positive_fields, probabilities
from ._quad import ConvergenceError, log_tanh_sinh_01
from .specfun import log_gauss_2f1_negz, log_kummer_u

__all__ = [
    "B2Params",
    "DsdCurve",
    "DsdParams",
    "TwoF0Params",
    "b2_cdf",
    "b2_logpdf",
    "b2_pdf",
    "b2_quantile",
    "b2_sample",
    "dsd_cdf_quantile",
    "dsd_logpdf",
    "dsd_pdf",
    "dsd_sample",
    "integral_equation_residual",
    "twoF0_logpdf",
    "twoF0_pdf",
    "twoF0_sample",
]

# probability left outside the log-s grid of the density checks, per tail
_TAIL = 1e-12
# that grid doubles from 257 points until each integral on it agrees with
# its half grid to 1e-6; wide supports (heavy tails, small p) need more
_MASS_POINTS = 257
_MASS_POINTS_MAX = 16385

# quantile solve: log s must stay inside the normal doubles; it stops
# when log s is bracketed to 1e-12 (relative on s) or the log tail
# probability matches its target to 1e-13
_LOG_TINY = math.log(np.finfo(float).tiny)
_LOG_HUGE = math.log(np.finfo(float).max)
_Y_TOL = 1e-12
_GAP_TOL = 1e-13
_MAX_STEPS = 100


def _unwrap(values, template):
    if np.ndim(template) == 0:
        return float(values[0])
    return values


def _density(log_density, x, theta):
    # log_density checks x under the array rule and unwraps a scalar
    out = np.atleast_1d(log_density(x, theta))
    with np.errstate(under="ignore"):
        out = np.exp(out)
    return _unwrap(out, x)


def _checked_draws(draws):
    bad = int(np.count_nonzero(~(np.isfinite(draws) & (draws > 0.0))))
    if bad:
        raise ConvergenceError("prior draws leave double range", bad_draws=bad, count=draws.size)
    return draws


@dataclass(frozen=True)
class B2Params:
    """Scale ``b``, origin exponent ``p``, and tail exponent ``q`` of the
    base prior.  The density on s > 0 is

        b^q / B(p, q) * s^(-q-1) * (1 + b/s)^(-p-q),

    which behaves like s^(p-1) at the origin and s^(-q-1) in the tail.
    Equivalently s = b * W / (1 - W) with W ~ Beta(p, q)."""

    b: float
    p: float
    q: float

    def __post_init__(self):
        positive_fields(self, "b", "p", "q")


@dataclass(frozen=True)
class TwoF0Params:
    """Parameters of the marginal benchmark: X | sigma2 ~ Gamma(alpha,
    rate beta / sigma2) with sigma2 drawn from the base prior (b, p, q).

    The normalizing constant requires p < 1 + alpha."""

    alpha: float
    beta: float
    b: float
    p: float
    q: float

    def __post_init__(self):
        positive_fields(self, "alpha", "beta", "b", "p", "q")
        benchmark_exponent(self.p, self.alpha)


@dataclass(frozen=True)
class DsdParams:
    """Parameters of the design-adjusted scale prior.

    (alpha, beta) describe the benchmark variance share, (alpha_tilde,
    beta_tilde) the Gamma approximation of the component's conditional
    variance share, and (b, p, q) the base prior.  The prior exists for
    p <= alpha_tilde; at equality it collapses to a rescaled base prior."""

    alpha: float
    beta: float
    alpha_tilde: float
    beta_tilde: float
    b: float
    p: float
    q: float

    def __post_init__(self):
        positive_fields(self, "alpha", "beta", "alpha_tilde", "beta_tilde", "b", "p", "q")
        if self.p > self.alpha_tilde:
            raise ValueError(
                "design-adjusted prior does not exist for p > alpha_tilde; "
                f"got p={self.p!r}, alpha_tilde={self.alpha_tilde!r}"
            )
        benchmark_exponent(self.p, self.alpha)


# ---------------------------------------------------------------------------
# base prior


def b2_logpdf(s, theta):
    """Log density of the base prior at s > 0.  Vectorized; stable far
    into both tails."""
    arr = positive_array("s", s)
    log_s = np.log(arr)
    # log(1 + b/s) without overflow when s << b
    log_tail = np.logaddexp(0.0, math.log(theta.b) - log_s)
    out = (
        theta.q * math.log(theta.b)
        - betaln(theta.p, theta.q)
        - (theta.q + 1.0) * log_s
        - (theta.p + theta.q) * log_tail
    )
    return _unwrap(out, s)


def b2_pdf(s, theta):
    """Density of the base prior at s > 0."""
    return _density(b2_logpdf, s, theta)


def b2_cdf(s, theta):
    """CDF of the base prior: the Beta(p, q) CDF at s / (s + b)."""
    arr = positive_array("s", s)
    out = betainc(theta.p, theta.q, arr / (arr + theta.b))
    return _unwrap(out, s)


def b2_quantile(u, theta):
    """Quantile of the base prior for u in (0, 1)."""
    arr = probabilities("u", u)
    # the smaller of w and 1 - w comes straight from betaincinv (1 - u is
    # exact for u > 1/2), so w rounding to 1 cannot divide by zero
    upper = arr > 0.5
    p, q = np.where(upper, theta.q, theta.p), np.where(upper, theta.p, theta.q)
    v = betaincinv(p, q, np.where(upper, 1.0 - arr, arr))
    out = theta.b * (np.where(upper, 1.0 - v, v) / np.where(upper, v, 1.0 - v))
    return _unwrap(out, u)


def b2_sample(theta, count, seed):
    """Draw ``count`` values from the base prior as b G_p / G_q, G_p ~
    Gamma(p) and G_q ~ Gamma(q), which stays finite where the 1 - W of
    b W / (1 - W), W ~ Beta(p, q), rounds to 0.  Same (count, seed) gives
    bitwise-identical output; changing b only rescales it.  Raises
    ConvergenceError if a draw is not a positive finite double."""
    count = integer("count", count, 1)
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        s = theta.b * (rng.gamma(theta.p, size=count) / rng.gamma(theta.q, size=count))
    return _checked_draws(s)


# ---------------------------------------------------------------------------
# marginal benchmark


def twoF0_logpdf(x, theta):
    """Log density of the marginal benchmark at x > 0.

    Evaluated through the confluent second-kind function:

        f(x) = beta * G(a+q) G(p+q) / (b G(a) G(p) G(q))
               * w^(a-1) * U(a + q, 1 + a - p, w),   w = x beta / b.
    """
    arr = positive_array("x", x)
    a = theta.alpha
    log_const = (
        math.log(theta.beta)
        - math.log(theta.b)
        + math.lgamma(a + theta.q)
        + math.lgamma(theta.p + theta.q)
        - math.lgamma(a)
        - math.lgamma(theta.p)
        - math.lgamma(theta.q)
    )
    w = arr * (theta.beta / theta.b)
    out = log_kummer_u(a + theta.q, 1.0 + a - theta.p, w)
    out += log_const + (a - 1.0) * np.log(w)
    return _unwrap(out, x)


def twoF0_pdf(x, theta):
    """Density of the marginal benchmark at x > 0."""
    return _density(twoF0_logpdf, x, theta)


def twoF0_sample(theta, count, seed):
    """Draw from the marginal benchmark by composition: sigma2 from
    `b2_sample`, then Gamma(alpha, rate beta / sigma2), both from the
    generator ``seed`` gives numpy.random.default_rng."""
    rng = np.random.default_rng(seed)
    sigma2 = b2_sample(B2Params(theta.b, theta.p, theta.q), count, rng)
    return _checked_draws(rng.gamma(theta.alpha, sigma2 / theta.beta))


# ---------------------------------------------------------------------------
# design-adjusted scale prior


def _reduced_base(theta):
    # at p = alpha_tilde the prior is exactly a rescaled base prior
    return B2Params(b=theta.b * theta.beta_tilde / theta.beta, p=theta.alpha, q=theta.q)


def _log_norm(theta):
    return (
        theta.q * (math.log(theta.b) + math.log(theta.beta_tilde) - math.log(theta.beta))
        - betaln(theta.p, theta.q)
        + math.lgamma(theta.alpha_tilde)
        - math.lgamma(theta.q + theta.alpha_tilde)
        + math.lgamma(theta.q + theta.alpha)
        - math.lgamma(theta.alpha)
    )


def dsd_logpdf(s, theta):
    """Log density of the design-adjusted scale prior at s > 0.

    General form: K * s^(-q-1) * F(q+alpha, q+p; q+alpha_tilde; -c/s)
    with c = b beta_tilde / beta and F the Gauss hypergeometric
    function.  The boundary case p = alpha_tilde short-circuits to the
    rescaled base prior before any hypergeometric evaluation."""
    arr = positive_array("s", s)
    if theta.p == theta.alpha_tilde:
        return _unwrap(np.atleast_1d(b2_logpdf(arr, _reduced_base(theta))), s)
    z = -(theta.b * theta.beta_tilde / theta.beta) / arr
    t = theta
    out = log_gauss_2f1_negz(t.q + t.alpha, t.q + t.p, t.q + t.alpha_tilde, z)
    out += _log_norm(theta) - (theta.q + 1.0) * np.log(arr)
    return _unwrap(out, s)


def dsd_pdf(s, theta):
    """Density of the design-adjusted scale prior at s > 0."""
    return _density(dsd_logpdf, s, theta)


def _log_mass(theta, y, upper):
    """log P(s <= e^y), or log P(s > e^y) on rows where ``upper`` is set,
    for p < alpha_tilde.

    The prior is the law of s = c W G_a / G_q with c = b beta_tilde / beta,
    W ~ Beta(p, alpha_tilde - p), G_a ~ Gamma(alpha) and G_q ~ Gamma(q)
    independent.  Given W = w, s / (c w) is beta-prime(alpha, q), so with
    r = e^y / c

        P(s <= e^y) = E_W[ I(alpha, q; r / (W + r)) ],
        P(s >  e^y) = E_W[ I(q, alpha; W / (W + r)) ],

    I the regularized incomplete beta.  Each is a positive integral over
    w, taken in log space by tanh-sinh quadrature; the upper tail is
    integrated directly so it keeps its relative precision.  The
    conditional CDF steps through 1/2 at w* = r m, m the median of
    G_q / G_alpha.  The integral is split at w_s = min(w*, 1/2): w = w_s t
    below and log w = (1 - t) log w_s above, so the step sits at unit
    scale in both pieces however far into the tail e^y lies."""
    a, q, p, d = theta.alpha, theta.q, theta.p, theta.alpha_tilde - theta.p
    log_r = y - math.log(theta.b * theta.beta_tilde / theta.beta)
    log_m = math.log(betaincinv(q, a, 0.5)) - math.log(betaincinv(a, q, 0.5))
    log_ws = np.minimum(log_r + log_m, -math.log(2.0))
    # log(w_s / r), formed apart so that log(w / r) near the step is exact
    shift = np.minimum(log_m, -math.log(2.0) - log_r)

    def integrand(log_w, log_1mw, log_jac, log_wr, up):
        # I(sa, sb; z) with z = r / (w + r), or w / (w + r) on upper rows.
        # Where it exceeds 1/2 it is taken as 1 - I(sb, sa; 1 - z): 1 - z
        # rounded near 0 would cost the step its precision when sb is small
        log_den = np.logaddexp(0.0, log_wr)
        z = np.exp(np.where(up[:, None], log_wr, 0.0) - log_den)
        zc = np.exp(np.where(up[:, None], 0.0, log_wr) - log_den)
        sa, sb = np.where(up, q, a)[:, None], np.where(up, a, q)[:, None]
        i = betainc(sa, sb, z)
        i = np.where(i < 0.5, i, 1.0 - betainc(sb, sa, zc))
        with np.errstate(divide="ignore"):
            return (p - 1.0) * log_w + (d - 1.0) * log_1mw + log_jac + np.log(i)

    def below(t, log_t, log_1mt, rows):
        # w = w_s t; 1 - w = (1 - w_s) + w_s (1 - t)
        lws = log_ws[rows, None]
        log_w = lws + log_t[None, :]
        log_1mw = np.logaddexp(np.log(-np.expm1(lws)), lws + log_1mt[None, :])
        return integrand(log_w, log_1mw, lws, log_t[None, :] + shift[rows, None], upper[rows])

    def above(t, log_t, log_1mt, rows):
        # log w = (1 - t) log w_s; ell = log(-log w), and 1 - w = -expm1(log w)
        neg_lws = -log_ws[rows, None]
        ell = log_1mt[None, :] + np.log(neg_lws)
        log_w = -np.exp(ell)
        with np.errstate(divide="ignore"):
            log_1mw = np.where(ell < -40.0, ell, np.log(-np.expm1(log_w)))
        log_wr = t[None, :] * neg_lws + shift[rows, None]
        return integrand(log_w, log_1mw, log_w + np.log(neg_lws), log_wr, upper[rows])

    lower, higher = (log_tanh_sinh_01(piece, y.size, power=min(p, d)) for piece in (below, above))
    return np.logaddexp(lower, higher) - betaln(p, d)


def _quantile(theta, u):
    """Quantiles of the design-adjusted prior for u in (0, 1), vectorized.

    Solves in y = log s, lower tail on log F and upper tail (u > 1/2, where
    1 - u is exact) on log P(s > e^y), by scipy's elementwise `find_root`
    (Chandrupatla's bracketed method): each of its steps makes one batched
    quadrature call over the points still open.

    The bracket is closed-form.  With c = b beta_tilde / beta, s <= c G_alpha
    / G_q because W <= 1, and W G_alpha >=st G_p2 because Beta(p, alpha_tilde
    - p) >=st Beta(p2, alpha - p2), p2 = min(p, p + alpha - alpha_tilde), so
    B2(c, p2, q) <=st s <=st B2(c, alpha, q) and each quantile lies between
    theirs.  Every component the pipeline builds has alpha_tilde <= alpha,
    so p2 = p there.  The bracket is widened by one e-fold each way, so that
    rounding cannot flip its sign where a bound is exact, and clipped to
    double range (to its floor where p2 <= 0); a point that the clipped
    bracket does not hold raises ConvergenceError, as does a solve that
    does not converge."""
    if theta.p == theta.alpha_tilde:
        return np.atleast_1d(b2_quantile(u, _reduced_base(theta)))
    upper = u > 0.5
    log_target = np.log(np.where(upper, 1.0 - u, u))
    sign = np.where(upper, -1.0, 1.0)

    def gap(y, upper, log_target, sign):
        # increasing in y, zero at the quantile
        return sign * (_log_mass(theta, y, upper) - log_target)

    base = _reduced_base(theta)
    p2 = min(theta.p, theta.p + theta.alpha - theta.alpha_tilde)
    lo = np.full(u.size, _LOG_TINY)
    with np.errstate(divide="ignore", over="ignore"):
        if p2 > 0.0:
            lo = np.log(b2_quantile(u, B2Params(base.b, p2, base.q))) - 1.0
        hi = np.log(b2_quantile(u, base)) + 1.0
    lo, hi = np.clip(lo, _LOG_TINY, _LOG_HUGE), np.clip(hi, _LOG_TINY, _LOG_HUGE)
    res = find_root(
        gap,
        (lo, hi),
        args=(upper, log_target, sign),
        tolerances={"xatol": _Y_TOL, "xrtol": 0.0, "fatol": _GAP_TOL, "frtol": 0.0},
        maxiter=_MAX_STEPS,
    )
    outside = res.status == -1
    if np.any(outside):
        raise ConvergenceError(
            "prior quantile lies outside double range",
            u=u[outside],
            log_bracket=(float(lo.min()), float(hi.max())),
        )
    if not np.all(res.success):
        failed = ~res.success
        raise ConvergenceError(
            "prior quantile solve did not converge",
            u=u[failed],
            status=res.status[failed],
            log_bracket_width=(res.bracket[1] - res.bracket[0])[failed],
        )
    return np.exp(res.x)


def _log_grid_integrals(theta, log_kernel):
    """Integrals of k_i(s) f(s) ds, f the 2F1 density and log_kernel(y) the
    (rows, len(y)) array log k_i(e^y), by the trapezoid rule in y = log s
    between the product form's _TAIL and 1 - _TAIL quantiles; it converges
    exponentially there, the integrand being ~0 at both ends.  Returns the
    integrals, their differences from the half grid, which rows settled,
    the grid size and the grid's ends."""
    s_lo, s_hi = _quantile(theta, np.array([_TAIL, 1.0 - _TAIL]))
    points = _MASS_POINTS
    while True:
        y = np.linspace(math.log(s_lo), math.log(s_hi), points)
        with np.errstate(under="ignore"):
            g = np.exp(log_kernel(y) + dsd_logpdf(np.exp(y), theta) + y)
        full = np.trapezoid(g, y, axis=1)
        error = np.abs(full - np.trapezoid(g[:, ::2], y[::2], axis=1))
        settled = error <= 1e-6 * full
        if np.all(settled) or points >= _MASS_POINTS_MAX:
            return full, error, settled, points, float(s_lo), float(s_hi)
        points = 2 * points - 1


class DsdCurve:
    """CDF/quantile evaluator for the design-adjusted scale prior, by its
    product form s = b (beta_tilde / beta) W G_alpha / G_q.

    The CDF is one tanh-sinh integral over W ~ Beta(p, alpha_tilde - p)
    per point, and quantiles solve it by one vectorized `find_root` call
    inside the closed-form bracket of `_quantile`; nothing is tabulated.
    Construction checks the closed-form density against the product form:
    the 2F1 density, integrated on the log grid of
    `integral_equation_residual`, plus the 2e-12 outside it, must give
    total mass 1 within 1e-6.  ``diagnostics`` records that mass, its
    error (the difference from the half grid), the grid size and the
    grid's ends.  In the boundary case p = alpha_tilde, density, CDF and
    quantiles are those of the rescaled base prior, and the mass is
    measured the same way."""

    def __init__(self, params):
        if not isinstance(params, DsdParams):
            raise TypeError(f"params must be DsdParams, got {type(params).__name__}")
        self.params = params
        mass, error, _, points, s_lo, s_hi = _log_grid_integrals(
            params, lambda y: np.zeros((1, y.size))
        )
        self.diagnostics = {
            "total_mass": float(mass[0]) + 2.0 * _TAIL,
            "mass_error": float(error[0]),
            "points": points,
            "s_lo": s_lo,
            "s_hi": s_hi,
        }
        if abs(self.diagnostics["total_mass"] - 1.0) > 1e-6:
            raise ConvergenceError(
                "density mass between the product-form quantiles is not 1", **self.diagnostics
            )

    def cdf(self, s):
        """CDF at s > 0; vectorized, in [0, 1]."""
        arr = positive_array("s", s)
        if self.params.p == self.params.alpha_tilde:
            return _unwrap(np.atleast_1d(b2_cdf(arr, _reduced_base(self.params))), s)
        with np.errstate(under="ignore"):
            out = np.exp(_log_mass(self.params, np.log(arr), np.zeros(arr.size, dtype=bool)))
        return _unwrap(np.minimum(out, 1.0), s)

    def quantile(self, u):
        """Quantile for u strictly inside (0, 1); inverse of `cdf`."""
        arr = probabilities("u", u)
        return _unwrap(_quantile(self.params, arr), u)


def dsd_cdf_quantile(theta):
    """Build the CDF/quantile evaluator for the design-adjusted scale
    prior.  Raises ConvergenceError when its quantiles leave double range
    or the density's mass does not check out to 1 within 1e-6."""
    return DsdCurve(theta)


def dsd_sample(theta, count, seed):
    """Draw ``count`` values by composition: s = b (beta_tilde / beta)
    W G_alpha / G_q with W ~ Beta(p, alpha_tilde - p) (W = 1 when
    p = alpha_tilde), G_alpha ~ Gamma(alpha) and G_q ~ Gamma(q).  ``seed``
    goes to numpy.random.default_rng, so a Generator is drawn from in
    place.  Raises ConvergenceError if a draw is not a positive finite
    double."""
    count = integer("count", count, 1)
    t = theta
    rng = np.random.default_rng(seed)
    w = 1.0 if t.p == t.alpha_tilde else rng.beta(t.p, t.alpha_tilde - t.p, size=count)
    with np.errstate(all="ignore"):
        s = t.b * t.beta_tilde / t.beta * w * rng.gamma(t.alpha, size=count)
        s /= rng.gamma(t.q, size=count)
    return _checked_draws(s)


# ---------------------------------------------------------------------------
# defining integral equation


def integral_equation_residual(theta, v_grid):
    """Check the defining property of the design-adjusted prior: mixing
    Gamma(alpha_tilde, rate beta_tilde / s) over the prior on s must give
    back the marginal benchmark. Returns the relative errors
    |mixed - closed| / closed, pointwise on ``v_grid``.

    The mixing integrals, one per point of ``v_grid``, share one uniform
    log-s grid between the prior's 1e-12 and 1 - 1e-12 quantiles, 257
    points doubled up to 16385 until each agrees with its half grid to
    1e-6 relative; if the largest grid still disagrees, ConvergenceError
    is raised rather than a residual reported from it."""
    v = positive_array("v_grid", v_grid)
    at, bt = theta.alpha_tilde, theta.beta_tilde

    def log_kernel(y):
        return (
            (at * (math.log(bt) - y) - math.lgamma(at))[None, :]
            + ((at - 1.0) * np.log(v))[:, None]
            - np.outer(v, bt * np.exp(-y))
        )

    mixed, _, settled, points, _, _ = _log_grid_integrals(theta, log_kernel)
    if not np.all(settled):
        raise ConvergenceError(
            "mixing integrals did not settle on the log-s grid",
            points=points,
            unsettled_points=v[~settled],
        )
    closed = twoF0_pdf(v, TwoF0Params(theta.alpha, theta.beta, theta.b, theta.p, theta.q))
    return np.abs(mixed - closed) / closed
