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

All densities have log variants, the base prior has closed-form
CDF/quantile/sampling, and the design-adjusted prior gets a monotone
CDF/quantile evaluator built by integrating its density on a log grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq
from scipy.special import betainc, betaincinv

from ._quad import ConvergenceError
from .specfun import log_beta, log_gauss_2f1_negz, log_kummer_u

__all__ = [
    "B2Params",
    "DsdCurve",
    "DsdParams",
    "ResidualReport",
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
    "halft_to_b2",
    "integral_equation_residual",
    "twoF0_logpdf",
    "twoF0_pdf",
    "twoF0_sample",
]

# cap rows per special-function call so peak quadrature memory stays bounded
_BATCH = 2048

# mass allowed outside the evaluator's grid, per tail
_TAIL_MASS = 1e-10

_MASS_TOL = 1e-6


def _positive(name, value):
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return value


def _points(x, name="s"):
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError(f"{name} must be positive and finite")
    return arr


def _unwrap(values, template):
    if np.ndim(template) == 0:
        return float(values[0])
    return values


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
        object.__setattr__(self, "b", _positive("b", self.b))
        object.__setattr__(self, "p", _positive("p", self.p))
        object.__setattr__(self, "q", _positive("q", self.q))


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
        for name in ("alpha", "beta", "b", "p", "q"):
            object.__setattr__(self, name, _positive(name, getattr(self, name)))
        if not self.p < 1.0 + self.alpha:
            raise ValueError(
                f"marginal benchmark requires p < 1 + alpha; got p={self.p!r}, alpha={self.alpha!r}"
            )


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
        for name in ("alpha", "beta", "alpha_tilde", "beta_tilde", "b", "p", "q"):
            object.__setattr__(self, name, _positive(name, getattr(self, name)))
        if self.p > self.alpha_tilde:
            raise ValueError(
                "design-adjusted prior does not exist for p > alpha_tilde; "
                f"got p={self.p!r}, alpha_tilde={self.alpha_tilde!r}"
            )
        if not self.p < 1.0 + self.alpha:
            raise ValueError(
                f"matching marginal requires p < 1 + alpha; got p={self.p!r}, alpha={self.alpha!r}"
            )


# ---------------------------------------------------------------------------
# base prior


def b2_logpdf(s, theta):
    """Log density of the base prior at s > 0.  Vectorized; stable far
    into both tails."""
    arr = _points(s)
    log_s = np.log(arr)
    # log(1 + b/s) without overflow when s << b
    log_tail = np.logaddexp(0.0, math.log(theta.b) - log_s)
    out = (
        theta.q * math.log(theta.b)
        - log_beta(theta.p, theta.q)
        - (theta.q + 1.0) * log_s
        - (theta.p + theta.q) * log_tail
    )
    return _unwrap(out, s)


def b2_pdf(s, theta):
    """Density of the base prior at s > 0."""
    out = np.atleast_1d(b2_logpdf(np.atleast_1d(np.asarray(s, dtype=float)), theta))
    with np.errstate(under="ignore"):
        out = np.exp(out)
    return _unwrap(out, s)


def b2_cdf(s, theta):
    """CDF of the base prior: the Beta(p, q) CDF at s / (s + b)."""
    arr = _points(s)
    out = betainc(theta.p, theta.q, arr / (arr + theta.b))
    return _unwrap(out, s)


def b2_quantile(u, theta):
    """Quantile of the base prior for u in (0, 1)."""
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    if arr.size == 0 or not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("u must lie strictly inside (0, 1)")
    w = betaincinv(theta.p, theta.q, arr)
    out = theta.b * (w / (1.0 - w))
    return _unwrap(out, u)


def b2_sample(theta, count, seed):
    """Draw ``count`` values from the base prior.  Same (count, seed)
    gives bitwise-identical output; changing b only rescales it."""
    count = int(count)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    w = rng.beta(theta.p, theta.q, size=count)
    return theta.b * (w / (1.0 - w))


def halft_to_b2(dof, scale):
    """Map a Half-t(dof, scale) prior on a standard deviation to the base
    prior it induces on the variance: b = dof * scale^2, p = 1/2,
    q = dof / 2."""
    dof = _positive("dof", dof)
    scale = _positive("scale", scale)
    return B2Params(b=dof * scale * scale, p=0.5, q=dof / 2.0)


# ---------------------------------------------------------------------------
# marginal benchmark


def twoF0_logpdf(x, theta):
    """Log density of the marginal benchmark at x > 0.

    Evaluated through the confluent second-kind function:

        f(x) = beta * G(a+q) G(p+q) / (b G(a) G(p) G(q))
               * w^(a-1) * U(a + q, 1 + a - p, w),   w = x beta / b.
    """
    arr = _points(x, "x")
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
    out = np.empty_like(arr)
    for lo in range(0, arr.size, _BATCH):
        hi = lo + _BATCH
        out[lo:hi] = log_kummer_u(a + theta.q, 1.0 + a - theta.p, w[lo:hi])
    out += log_const + (a - 1.0) * np.log(w)
    return _unwrap(out, x)


def twoF0_pdf(x, theta):
    """Density of the marginal benchmark at x > 0."""
    out = np.atleast_1d(twoF0_logpdf(np.atleast_1d(np.asarray(x, dtype=float)), theta))
    with np.errstate(under="ignore"):
        out = np.exp(out)
    return _unwrap(out, x)


def twoF0_sample(theta, count, seed):
    """Draw from the marginal benchmark by composition: sigma2 from the
    base prior, then Gamma(alpha, rate beta / sigma2)."""
    count = int(count)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    w = rng.beta(theta.p, theta.q, size=count)
    sigma2 = theta.b * (w / (1.0 - w))
    return rng.gamma(theta.alpha, sigma2 / theta.beta, size=count)


# ---------------------------------------------------------------------------
# design-adjusted scale prior


def _reduced_base(theta):
    # at p = alpha_tilde the prior is exactly a rescaled base prior
    return B2Params(b=theta.b * theta.beta_tilde / theta.beta, p=theta.alpha, q=theta.q)


def _log_norm(theta):
    return (
        theta.q * (math.log(theta.b) + math.log(theta.beta_tilde) - math.log(theta.beta))
        - log_beta(theta.p, theta.q)
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
    arr = _points(s)
    if theta.p == theta.alpha_tilde:
        return _unwrap(np.atleast_1d(b2_logpdf(arr, _reduced_base(theta))), s)
    z = -(theta.b * theta.beta_tilde / theta.beta) / arr
    out = np.empty_like(arr)
    a2 = theta.q + theta.alpha
    b2 = theta.q + theta.p
    c2 = theta.q + theta.alpha_tilde
    for lo in range(0, arr.size, _BATCH):
        hi = lo + _BATCH
        out[lo:hi] = log_gauss_2f1_negz(a2, b2, c2, z[lo:hi])
    out += _log_norm(theta) - (theta.q + 1.0) * np.log(arr)
    return _unwrap(out, s)


def dsd_pdf(s, theta):
    """Density of the design-adjusted scale prior at s > 0."""
    out = np.atleast_1d(dsd_logpdf(np.atleast_1d(np.asarray(s, dtype=float)), theta))
    with np.errstate(under="ignore"):
        out = np.exp(out)
    return _unwrap(out, s)


def _origin_exponent(theta):
    # density ~ s^(e-1) at the origin; the slower of the two branch
    # exponents wins, and the boundary case reduces to exponent alpha
    if theta.p == theta.alpha_tilde:
        return theta.alpha
    return min(theta.p, theta.alpha)


def _bracket_support(theta, log_tail_mass, step=2.0, max_steps=400):
    """Expand a log-scale bracket around the density's peak until the
    analytic power-law stubs outside it each carry less mass than
    exp(log_tail_mass).

    The peak is located by a coarse scan first: the natural scale
    b beta_tilde / beta marks where the hypergeometric factor turns
    over, but the mode can sit many e-folds away when alpha_tilde
    differs strongly from alpha.  The stub estimate f(s) s / e (e the
    tail exponent) is exact in the asymptotic regime and an overestimate
    before it, so expansion stops late, never early; requiring the
    density to first fall 10 e-folds below its peak keeps the test from
    triggering on the wrong side of the mode."""
    e_left = _origin_exponent(theta)
    y0 = math.log(theta.b * theta.beta_tilde / theta.beta)
    scan = y0 + np.linspace(-60.0, 60.0, 241)
    log_g = dsd_logpdf(np.exp(scan), theta) + scan
    k = int(np.argmax(log_g))
    if k in (0, scan.size - 1):
        scan = scan + (-120.0 if k == 0 else 120.0)
        log_g = dsd_logpdf(np.exp(scan), theta) + scan
        k = int(np.argmax(log_g))
        if k in (0, scan.size - 1):
            raise ConvergenceError(
                "could not locate the density peak within 180 e-folds of the natural scale",
                natural_scale=math.exp(y0),
            )
    y_peak = float(scan[k])
    peak = float(log_g[k])

    def settled(y, exponent):
        lg = float(dsd_logpdf(math.exp(y), theta)) + y
        return lg < peak - 10.0 and lg - math.log(exponent) <= log_tail_mass

    bounds = []
    for direction, exponent in ((-1.0, e_left), (1.0, theta.q)):
        y = y_peak + direction
        steps = 0
        while not settled(y, exponent):
            y += direction * step
            steps += 1
            if steps > max_steps:
                raise ConvergenceError(
                    "tail mass did not fall below target while bracketing the support",
                    side="left" if direction < 0 else "right",
                    steps=steps,
                    tail_exponent=exponent,
                    log_tail_mass=log_tail_mass,
                )
        bounds.append(y)
    return bounds[0], bounds[1], e_left


class DsdCurve:
    """Monotone CDF/quantile evaluator for the design-adjusted scale prior.

    The density is integrated once on a uniform log-scale grid that
    brackets all but ~1e-10 of the mass; outside the grid both tails are
    carried by their exact power laws.  ``diagnostics`` records the
    reconstructed total mass (the normalization check) and the grid
    geometry.  The boundary case p = alpha_tilde uses the closed-form
    Beta mapping instead of a grid."""

    def __init__(self, params, grid_points=8193):
        if not isinstance(params, DsdParams):
            raise TypeError(f"params must be DsdParams, got {type(params).__name__}")
        grid_points = int(grid_points)
        if grid_points < 257:
            raise ValueError(f"grid_points must be >= 257, got {grid_points}")
        self.params = params
        if params.p == params.alpha_tilde:
            self._base = _reduced_base(params)
            self.diagnostics = {"method": "closed-form", "total_mass": 1.0}
            return
        self._base = None
        self._build(grid_points)

    def _build(self, grid_points):
        t = self.params
        y_lo, y_hi, e_left = _bracket_support(t, math.log(_TAIL_MASS))
        attempt_sizes = (grid_points, 2 * grid_points - 1)
        for n in attempt_sizes:
            y = np.linspace(y_lo, y_hi, n)
            # density of ln(s): f(e^y) e^y
            log_g = dsd_logpdf(np.exp(y), t) + y
            g = np.exp(log_g)
            node_cum = cumulative_simpson(g, x=y, initial=0.0)
            left_mass = math.exp(log_g[0] - math.log(e_left))
            right_mass = math.exp(log_g[-1] - math.log(t.q))
            total = left_mass + float(node_cum[-1]) + right_mass
            if abs(total - 1.0) <= _MASS_TOL:
                break
        else:
            raise ConvergenceError(
                "density mass on the bracketed support did not reconstruct to 1",
                total_mass=total,
                points=attempt_sizes[-1],
                bracket=(math.exp(y_lo), math.exp(y_hi)),
            )
        self._y = y
        self._cum = PchipInterpolator(y, node_cum)
        self._node_probs = (left_mass + node_cum) / total
        self._left_mass = left_mass
        self._right_mass = right_mass
        self._total = total
        self._e_left = e_left
        self._s_lo = math.exp(y_lo)
        self._s_hi = math.exp(y_hi)
        self.diagnostics = {
            "method": "grid",
            "total_mass": total,
            "points": int(n),
            "s_lo": self._s_lo,
            "s_hi": self._s_hi,
            "left_tail_mass": left_mass / total,
            "right_tail_mass": right_mass / total,
        }

    def cdf(self, s):
        """CDF at s > 0; vectorized, nondecreasing, clipped to [0, 1]."""
        arr = _points(s)
        if self._base is not None:
            return _unwrap(np.atleast_1d(b2_cdf(arr, self._base)), s)
        out = np.empty_like(arr)
        below = arr < self._s_lo
        above = arr > self._s_hi
        mid = ~(below | above)
        with np.errstate(under="ignore"):
            if below.any():
                out[below] = self._left_mass * (arr[below] / self._s_lo) ** self._e_left
            if above.any():
                out[above] = self._total - self._right_mass * (self._s_hi / arr[above]) ** self.params.q
            if mid.any():
                out[mid] = self._left_mass + self._cum(np.log(arr[mid]))
        out /= self._total
        np.clip(out, 0.0, 1.0, out=out)
        return _unwrap(out, s)

    def quantile(self, u):
        """Quantile for u strictly inside (0, 1); inverse of `cdf`."""
        arr = np.atleast_1d(np.asarray(u, dtype=float))
        if arr.size == 0 or not np.all((arr > 0.0) & (arr < 1.0)):
            raise ValueError("u must lie strictly inside (0, 1)")
        if self._base is not None:
            return _unwrap(np.atleast_1d(b2_quantile(arr, self._base)), u)
        out = self._tail_inverse(arr)
        grid_lo, grid_hi = self._node_probs[0], self._node_probs[-1]
        mid = (arr > grid_lo) & (arr < grid_hi)
        if mid.any():
            y_lo, y_hi = self._y[0], self._y[-1]
            for idx in np.flatnonzero(mid):
                target = arr[idx] * self._total - self._left_mass
                root = brentq(lambda yy: float(self._cum(yy)) - target, y_lo, y_hi, xtol=1e-13)
                out[idx] = math.exp(root)
        return _unwrap(out, u)

    def _tail_inverse(self, arr):
        # exact power-law inverses outside the grid; grid interior left at 0
        out = np.zeros_like(arr)
        below = arr <= self._node_probs[0]
        above = arr >= self._node_probs[-1]
        with np.errstate(under="ignore"):
            if below.any():
                out[below] = self._s_lo * (arr[below] * self._total / self._left_mass) ** (
                    1.0 / self._e_left
                )
            if above.any():
                out[above] = self._s_hi * (
                    (1.0 - arr[above]) * self._total / self._right_mass
                ) ** (-1.0 / self.params.q)
        return out

    def sample_from(self, u):
        """Map uniforms u in [0, 1) to prior draws: the inverse CDF,
        vectorized by linear interpolation in log scale between grid
        nodes, with the analytic power-law tails outside the grid.
        u = 0 is read as 2^-53, the smallest nonzero uniform."""
        u = np.maximum(np.atleast_1d(np.asarray(u, dtype=float)), 2.0**-53)
        if self._base is not None:
            return b2_quantile(u, self._base)
        out = self._tail_inverse(u)
        mid = (u > self._node_probs[0]) & (u < self._node_probs[-1])
        if mid.any():
            out[mid] = np.exp(np.interp(u[mid], self._node_probs, self._y))
        return out


def dsd_cdf_quantile(theta, grid_points=8193):
    """Build the monotone CDF/quantile evaluator for the design-adjusted
    scale prior.  Raises ConvergenceError when the support cannot be
    bracketed or the mass does not reconstruct to 1 within 1e-6."""
    return DsdCurve(theta, grid_points=grid_points)


def dsd_sample(theta, count, seed, curve=None):
    """Draw ``count`` values by inverse-CDF sampling.  Pass a prebuilt
    ``curve`` to amortize evaluator construction across calls."""
    count = int(count)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if curve is None:
        curve = dsd_cdf_quantile(theta)
    rng = np.random.default_rng(seed)
    return curve.sample_from(rng.random(count))


# ---------------------------------------------------------------------------
# defining integral equation


@dataclass(frozen=True)
class ResidualReport:
    """Pointwise relative disagreement between the mixed-out component
    variance share and the closed-form marginal benchmark."""

    v_grid: np.ndarray
    rel_errors: np.ndarray
    max_rel_error: float


def integral_equation_residual(theta, v_grid, grid_points=4001):
    """Check the defining property of the design-adjusted prior: mixing
    Gamma(alpha_tilde, rate beta_tilde / s) over the prior on s must give
    back the marginal benchmark, pointwise on ``v_grid``.

    The mixing integral is computed on a uniform log-scale grid wide
    enough that the truncated tails are negligible; the trapezoid rule is
    spectrally accurate there because the integrand decays to ~0 at both
    ends."""
    v = _points(v_grid, "v_grid")
    grid_points = int(grid_points)
    if grid_points < 501:
        raise ValueError(f"grid_points must be >= 501, got {grid_points}")
    y_lo, y_hi, _ = _bracket_support(theta, math.log(1e-12))
    y = np.linspace(y_lo - 6.0, y_hi + 6.0, grid_points)
    log_f = dsd_logpdf(np.exp(y), theta) + y
    at, bt = theta.alpha_tilde, theta.beta_tilde
    log_kernel = (
        (at * (math.log(bt) - y) - math.lgamma(at))[None, :]
        + ((at - 1.0) * np.log(v))[:, None]
        - np.outer(v, bt * np.exp(-y))
    )
    with np.errstate(under="ignore"):
        mixed = np.trapezoid(np.exp(log_kernel + log_f[None, :]), y, axis=1)
    closed = np.atleast_1d(
        twoF0_pdf(v, TwoF0Params(theta.alpha, theta.beta, theta.b, theta.p, theta.q))
    )
    rel = np.abs(mixed - closed) / closed
    return ResidualReport(v_grid=v, rel_errors=rel, max_rel_error=float(np.max(rel)))
