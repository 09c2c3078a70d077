"""Reference values computed without the library's own numerics.

Both use scipy ``quad`` with algebraic endpoint weights and ``brentq``,
never ``dsdprior.specfun`` or ``dsdprior._quad``:

* the scale b solving P[b V* <= c] = pi0, through the marginal
  benchmark CDF F(x) = int Beta(w; p, q) P(alpha, alpha x (1-w)/w) dw;
* quantiles of the design-adjusted prior, through its product form
  s = b (beta_tilde / beta) W G_alpha / G_q with W ~ Beta(p, alpha_tilde - p),
  G_alpha ~ Gamma(alpha), G_q ~ Gamma(q) independent, whose Mellin
  transform is the prior's.  Conditioning on W leaves a beta-prime CDF.
"""

from __future__ import annotations

import math
import warnings

from scipy import integrate, optimize, special

_QUAD = {"epsabs": 0.0, "epsrel": 1e-11, "limit": 400}


def _weighted_mean(fn, p, q):
    """E[fn(W)] for W ~ Beta(p, q)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, _ = integrate.quad(fn, 0.0, 1.0, weight="alg", wvar=(p - 1.0, q - 1.0), **_QUAD)
    return value / special.beta(p, q)


def benchmark_cdf(x, n, p=0.5, q=1.5):
    """CDF at x of the unit-scale marginal benchmark for predictor length n."""
    shape = 0.5 * (n - 1)

    def conditional(w):
        return special.gammainc(shape, shape * x * (1.0 - w) / w) if w > 0.0 else 1.0

    return _weighted_mean(conditional, p, q)


def benchmark_quantile(n, pi0=0.5, p=0.5, q=1.5):
    """The pi0-quantile q_hat of the unit-scale marginal benchmark."""
    root = optimize.brentq(
        lambda y: benchmark_cdf(math.exp(y), n, p, q) - pi0, -60.0, 60.0, xtol=1e-13, rtol=1e-14
    )
    return math.exp(root)


def scale_b(n, c, pi0=0.5, p=0.5, q=1.5):
    """b = c / q_hat."""
    return c / benchmark_quantile(n, pi0, p, q)


def dsd_cdf(x, theta):
    """CDF at x of the design-adjusted prior with parameters ``theta``
    (a mapping with alpha, beta, alpha_tilde, beta_tilde, b, p, q),
    for p < alpha_tilde."""
    t = theta
    ratio = x * t["beta"] / (t["b"] * t["beta_tilde"])

    def conditional(w):
        return special.betainc(t["alpha"], t["q"], ratio / (w + ratio))

    return _weighted_mean(conditional, t["p"], t["alpha_tilde"] - t["p"])


def dsd_quantile(u, theta):
    """The u-quantile of the design-adjusted prior."""
    root = optimize.brentq(
        lambda y: dsd_cdf(math.exp(y), theta) - u, -300.0, 300.0, xtol=1e-13, rtol=1e-14
    )
    return math.exp(root)
