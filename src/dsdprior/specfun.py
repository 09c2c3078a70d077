"""Numerically robust scalar special functions.

Log-beta is a checked wrapper over scipy's kernel.  The two
hypergeometric functions are evaluated from scratch through real
integral representations, because no standard double-precision routine
covers the parameter/argument ranges needed here with controlled
relative error and log-scale output:

* ``log_gauss_2f1_negz`` -- log of Gauss 2F1 restricted to z <= 0 with
  c > b > 0, through the Euler integral (tanh-sinh quadrature, log-space
  accumulation), with a positive-term Pfaff-transformed series shortcut
  for small |z|.
* ``log_kummer_u`` -- log of Kummer's U for a > 0, z > 0, through the
  Laplace integral (exp-sinh quadrature after rescaling t -> tau/z).

Both are vectorized over the argument and return logs, so values far
outside double range stay finite.
"""

import math

import numpy as np
from scipy import special as _sp

from ._quad import ConvergenceError, log_exp_sinh_0inf, log_tanh_sinh_01

__all__ = [
    "ConvergenceError",
    "log_beta",
    "log_gauss_2f1_negz",
    "log_kummer_u",
]

# series shortcut region and term budget for 2F1
_SERIES_MAX_ABS_Z = 1.0
_SERIES_BUDGET = 600
_SERIES_MAX_PARAM = 400.0


def _require(cond, msg):
    if not cond:
        raise ValueError(msg)


def log_beta(a, b):
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a+b), for a, b > 0."""
    a = float(a)
    b = float(b)
    _require(math.isfinite(a) and a > 0.0, f"log_beta requires finite a > 0, got {a!r}")
    _require(math.isfinite(b) and b > 0.0, f"log_beta requires finite b > 0, got {b!r}")
    return float(_sp.betaln(a, b))


# ----------------------------------------------------------------------
# Gauss 2F1 on the negative real axis
# ----------------------------------------------------------------------

def _validate_2f1_params(a, b, c):
    _require(math.isfinite(a) and a > 0.0, f"log_gauss_2f1_negz requires finite a > 0, got {a!r}")
    _require(math.isfinite(b) and b > 0.0, f"log_gauss_2f1_negz requires finite b > 0, got {b!r}")
    _require(math.isfinite(c), f"log_gauss_2f1_negz requires finite c, got {c!r}")
    _require(
        c > b,
        f"log_gauss_2f1_negz requires c > b for the Euler integral; got b={b!r}, c={c!r}",
    )


def _log_2f1_series(a, b, c, z):
    """Pfaff-transformed positive-term series, valid for z in [-1, 0].

    2F1(a,b;c;z) = (1-z)^(-a) 2F1(a, c-b; c; w) with w = z/(z-1) in
    [0, 1/2]; every term is positive, so no cancellation.  Returns
    (log values, converged mask).
    """
    w = z / (z - 1.0)
    term = np.ones_like(w)
    total = np.ones_like(w)
    tiny_run = np.zeros(w.shape, dtype=np.int64)
    d = c - b
    for k in range(_SERIES_BUDGET):
        term = term * ((a + k) * (d + k)) / ((c + k) * (k + 1.0)) * w
        total = total + term
        # two consecutive negligible terms before declaring convergence:
        # the term sequence is a single hump, but cheap insurance
        tiny_run = np.where(term <= 1e-17 * total, tiny_run + 1, 0)
        if np.all(tiny_run >= 2):
            break
    return -a * np.log1p(-z) + np.log(total), tiny_run >= 2


def _log_2f1_quadrature(a, b, c, z):
    """Euler integral by tanh-sinh in log space; z <= 0 array."""
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore"):
        log_neg_z = np.where(z < 0.0, np.log(-z), -np.inf)

    def integrand(t, log_t, log_1mt, rows):
        # log of t^(b-1) (1-t)^(c-b-1) (1 + |z| t)^(-a)
        ln1mzt = np.logaddexp(0.0, log_neg_z[rows, None] + log_t[None, :])
        return (b - 1.0) * log_t[None, :] + (c - b - 1.0) * log_1mt[None, :] - a * ln1mzt

    # window wide enough that the weaker endpoint power is fully resolved
    u_max = max(6.5, math.asinh(1100.0 / (math.pi * min(b, c - b))))
    log_i = log_tanh_sinh_01(integrand, z.size, u_max=u_max)
    return log_i - log_beta(b, c - b)


def log_gauss_2f1_negz(a, b, c, z):
    """log 2F1(a,b;c;z) for an array of z <= 0; requires c > b > 0, a > 0."""
    a = float(a)
    b = float(b)
    c = float(c)
    _validate_2f1_params(a, b, c)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    _require(np.all(np.isfinite(z)), "log_gauss_2f1_negz requires finite z")
    _require(np.all(z <= 0.0), f"log_gauss_2f1_negz is restricted to z <= 0, got max {z.max()!r}")

    out = np.zeros(z.shape, dtype=float)
    todo = z < 0.0  # z == 0 -> log 1 = 0 directly
    series_ok = todo & (z >= -_SERIES_MAX_ABS_Z) & (a + (c - b) <= _SERIES_MAX_PARAM)
    if np.any(series_ok):
        vals, conv = _log_2f1_series(a, b, c, z[series_ok])
        idx = np.flatnonzero(series_ok)
        out[idx[conv]] = vals[conv]
        todo[idx[conv]] = False
    if np.any(todo):
        out[todo] = _log_2f1_quadrature(a, b, c, z[todo])
    return out


# ----------------------------------------------------------------------
# Kummer U on the positive real axis
# ----------------------------------------------------------------------

def log_kummer_u(a, b, z):
    """log U(a, b, z) for an array of z > 0; requires a > 0, b real.

    Uses U(a,b,z) = Gamma(a)^(-1) z^(-a) a^a * int_0^inf e^(-a sig)
    sig^(a-1) (1 + a sig / z)^(b-a-1) dsig, the Laplace integral under
    tau = a sig.  The substitution pins the integrand's peak at sig ~ 1,
    i.e. at the center of the exp-sinh window where nodes are densest;
    without it the peak drifts to tau ~ a, where large a makes it too
    narrow for the node spacing.
    """
    a = float(a)
    b = float(b)
    _require(math.isfinite(a) and a > 0.0, f"log_kummer_u requires finite a > 0, got {a!r}")
    _require(math.isfinite(b), f"log_kummer_u requires finite b, got {b!r}")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    _require(np.all(np.isfinite(z)) and np.all(z > 0.0), "log_kummer_u requires finite z > 0")

    log_z = np.log(z)
    d = b - a - 1.0
    log_a = math.log(a)

    def integrand(sig, log_sig, rows):
        ln1ptz = np.logaddexp(0.0, log_a + log_sig[None, :] - log_z[rows, None])
        return a * (log_sig - sig)[None, :] - log_sig[None, :] + d * ln1ptz

    # left window deep enough that the truncated sig^a tail is negligible
    u_lo = -max(6.75, math.asinh(800.0 / (math.pi * a)))
    log_i = log_exp_sinh_0inf(integrand, z.size, u_lo=u_lo, u_hi=4.5)
    return log_i + a * log_a - math.lgamma(a) - a * log_z
