"""Law of the sampling variance of a model component given its scale.

With the component's coefficients constrained-Gaussian with precision
K / sigma2 and design Z, the centered sampling variance
V = nu' M nu / (n - 1) satisfies

    (n - 1) V / sigma2  =  Q  =  sum_k  lambda_k chi2_1,

with lambda the quadratic-form weights from the structure module. This
module provides the exact CDF of Q (Ruben's Gamma-mixture series, for
every weight vector: with equal weights it is one exact term), the
two-moment Gamma approximation of V that the closed-form priors build
on, and seeded simulation of V.

The series converges at the rate 1 - rho/lambda_max with rho near
2 lambda_min, so it raises ConvergenceError when lambda_max/lambda_min
is large, as on the crw2(366) spectrum; simulation is the way to the
law of Q there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc

from ._quad import ConvergenceError
from .priors import check_count
from .structure import QfWeights

__all__ = [
    "ConvergenceError",
    "GammaApprox",
    "gamma_approx",
    "ruben_cdf",
    "sample_v",
]


@dataclass(frozen=True)
class GammaApprox:
    """Two-moment Gamma fit of V given sigma2 = 1: V ~ Gamma(alpha_tilde,
    rate beta_tilde). Conditional on a scale, the rate becomes
    beta_tilde / sigma2. alpha_tilde is at least 1/2, with equality only
    for a single weight (where the fit is exact)."""

    alpha_tilde: float
    beta_tilde: float

    def __post_init__(self):
        ok = (
            np.isfinite(self.alpha_tilde)
            and np.isfinite(self.beta_tilde)
            and self.alpha_tilde >= 0.5 - 1e-12
            and self.beta_tilde > 0.0
        )
        if not ok:
            raise ValueError("need alpha_tilde >= 1/2 and beta_tilde > 0, both finite")


def gamma_approx(w: QfWeights) -> GammaApprox:
    """Match the first two conditional moments of V with a Gamma law:
    alpha~ = (sum lambda)^2 / (2 sum lambda^2),
    beta~  = ((n-1)/2) * sum lambda / sum lambda^2,
    so the fit's mean and variance are V's exact ones at sigma2 = 1."""
    lam = w.weights
    if lam.size == 0:
        raise ValueError("no positive weights to approximate")
    s1 = float(np.sum(lam))
    s2 = float(np.sum(lam**2))
    return GammaApprox(
        alpha_tilde=s1**2 / (2.0 * s2),
        beta_tilde=(w.n_predictor - 1) / 2.0 * s1 / s2,
    )


_MAX_TERMS = 10000
_TAIL_TOL = 1e-12


def _series_cdf(q: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Ruben's expansion P(Q <= q) = sum_k c_k P(r/2 + k, q / (2 rho))
    over the r ascending weights lam, with

        c_0 = prod_i (rho / lambda_i)^(1/2),  g_k = sum_i (1 - rho / lambda_i)^k,
        c_k = (2k)^(-1) sum_{l<k} g_{k-l} c_l.

    rho, the harmonic mean of the extreme weights, lies in (lambda_min,
    2 lambda_min), so the series converges at the rate 1 - rho/lambda_max
    but the c_k change sign. Each point therefore stops on its own, after
    two consecutive terms below _TAIL_TOL of its running sum, and a batch
    entry reproduces a scalar call bit for bit."""
    lo, hi = float(lam[0]), float(lam[-1])
    rho = 2.0 * lo * hi / (lo + hi)
    shape0 = lam.size / 2.0
    z = q / (2.0 * rho)
    term = gammainc(shape0, z)
    # per-term decrement: P(s+1, z) = P(s, z) - z^s e^{-z} / Gamma(s+1)
    dec = np.exp(shape0 * np.log(z) - z - math.lgamma(shape0 + 1.0))
    a = 1.0 - rho / lam
    apow = a.copy()
    g = np.empty(_MAX_TERMS)
    c = np.empty(_MAX_TERMS)
    c[0] = math.exp(0.5 * float(np.sum(np.log(rho / lam))))
    out = np.zeros_like(q)
    settled = np.zeros(q.shape, dtype=bool)
    tiny_run = np.zeros(q.shape, dtype=np.int8)
    for k in range(_MAX_TERMS):
        if k:
            g[k] = float(np.sum(apow))
            apow = apow * a
            c[k] = float(np.dot(g[k:0:-1], c[:k])) / (2.0 * k)
        contrib = c[k] * term
        out[~settled] += contrib[~settled]
        tiny = np.abs(contrib) <= _TAIL_TOL * np.abs(out)
        tiny_run = np.where(tiny, tiny_run + 1, 0).astype(np.int8)
        settled |= tiny_run >= 2
        if np.all(settled):
            return out
        term = np.maximum(term - dec, 0.0)
        dec = dec * z / (shape0 + k + 1.0)
    raise ConvergenceError(
        "series did not converge: the weights spread too widely",
        terms=_MAX_TERMS,
        tail=float(1.0 - np.sum(c)),
        unsettled_points=int(np.sum(~settled)),
        rho=rho,
    )


def ruben_cdf(q, w: QfWeights):
    """P(Q <= q) at q > 0 (scalar or vector), by Ruben's Gamma-mixture
    series. With one weight, or all weights equal, rho is that weight (to
    rounding) and the series is its first term, the exact scaled
    chi-square.
    Nondecreasing in q; clipped to [0, 1] against truncation residue.
    Raises ConvergenceError when the series needs more than _MAX_TERMS
    terms, as it does once lambda_max/lambda_min is large."""
    lam = w.weights
    if lam.size == 0:
        raise ValueError("no positive weights")
    q_arr = np.atleast_1d(np.asarray(q, dtype=float))
    if not np.all(np.isfinite(q_arr)) or np.any(q_arr <= 0.0):
        raise ValueError("evaluation points must be positive and finite")
    out = np.clip(_series_cdf(q_arr, lam), 0.0, 1.0)
    return float(out[0]) if np.ndim(q) == 0 else out


def sample_v(w: QfWeights, sigma2: float, count: int, seed: int) -> np.ndarray:
    """Draw V = (sigma2/(n-1)) sum_k lambda_k X_k with X_k iid chi2_1,
    deterministically from the seed. One pass per weight keeps memory at
    two arrays of the requested size."""
    if not (np.isfinite(sigma2) and sigma2 > 0.0):
        raise ValueError("sigma2 must be positive and finite")
    check_count(count)
    if w.weights.size == 0:
        raise ValueError("no positive weights")
    rng = np.random.default_rng(seed)
    acc = np.zeros(count)
    for lam in w.weights:
        acc += lam * rng.chisquare(1.0, count)
    return acc * (sigma2 / (w.n_predictor - 1))
