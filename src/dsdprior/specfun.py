"""Numerically robust scalar special functions.

The two hypergeometric functions are evaluated from scratch through
real integral representations, because no standard double-precision
routine covers the parameter/argument ranges needed here with
controlled relative error and log-scale output.  Each has one path, tanh-sinh
quadrature on (0, 1) with log-space accumulation:

* ``log_gauss_2f1_negz`` -- log of Gauss 2F1 restricted to z <= 0 with
  c > b > 0, through the Euler integral of its Pfaff transform, whose
  integrand stays bounded for every z when a >= c.
* ``log_kummer_u`` -- log of Kummer's U for a > 0, z > 0, through the
  Laplace integral, rescaled t -> a sig / z and mapped to (0, 1) by
  sig = t / (1 - t).

Both are vectorized over the argument and return logs, so values far
outside double range stay finite.
"""

import math

import numpy as np
from scipy import special as _sp

from ._checks import finite, positive, positive_array, real_array
from ._quad import ConvergenceError, log_tanh_sinh_01

__all__ = [
    "ConvergenceError",
    "log_gauss_2f1_negz",
    "log_kummer_u",
]


# ----------------------------------------------------------------------
# Gauss 2F1 on the negative real axis
# ----------------------------------------------------------------------

def log_gauss_2f1_negz(a, b, c, z):
    """log 2F1(a,b;c;z) for an array of z <= 0; requires c > b > 0, a > 0.

    Uses Pfaff's transformation (DLMF 15.8.1) under the Euler integral:
    with x = |z| / (1 + |z|),

        2F1(a,b;c;z) = (1 + |z|)^(-b) B(b, c-b)^(-1)
                       int_0^1 t^(b-1) (1-t)^(c-b-1) (1 - x t)^(a-c) dt,

    where log(1 - x t) = log1p(|z| (1-t)) - log1p(|z|) is formed from
    logs.  For a >= c, which every design-adjusted prior has up to
    rounding, the last factor lies in (0, 1], so the integrand's peak does
    not run off with z however large |z| is; for a < c it grows toward
    t = 1, to at most (1 + |z|)^(c-a).  Its weakest endpoint power is
    min(b, c - b)."""
    a, b, c = positive("a", a), positive("b", b), float(c)
    if not b < c < math.inf:
        raise ValueError(f"log_gauss_2f1_negz requires a finite c > b; got b={b!r}, c={c!r}")
    z = np.atleast_1d(real_array("z", z))
    finite("z", z)
    if z.max() > 0.0:
        raise ValueError(f"log_gauss_2f1_negz is restricted to z <= 0, got max {z.max()!r}")

    out = np.zeros(z.shape, dtype=float)
    neg = z < 0.0  # z == 0 -> log 1 = 0 directly
    log_neg_z = np.log(-z[neg])
    log1p_neg_z = np.logaddexp(0.0, log_neg_z)

    def integrand(t, log_t, log_1mt, rows):
        ln1mxt = np.logaddexp(0.0, log_neg_z[rows, None] + log_1mt[None, :])
        ln1mxt -= log1p_neg_z[rows, None]
        return (b - 1.0) * log_t[None, :] + (c - b - 1.0) * log_1mt[None, :] + (a - c) * ln1mxt

    log_i = log_tanh_sinh_01(integrand, log_neg_z.size, power=min(b, c - b))
    out[neg] = log_i - _sp.betaln(b, c - b) - b * log1p_neg_z
    return out


# ----------------------------------------------------------------------
# Kummer U on the positive real axis
# ----------------------------------------------------------------------

def log_kummer_u(a, b, z):
    """log U(a, b, z) for an array of z > 0; requires a > 0, b real.

    Uses U(a,b,z) = Gamma(a)^(-1) z^(-a) a^a * int_0^inf e^(-a sig)
    sig^(a-1) (1 + a sig / z)^(b-a-1) dsig, the Laplace integral under
    tau = a sig, taken over t in (0, 1) with sig = t / (1 - t) and
    dsig = dt / (1 - t)^2.  The rescaling pins the integrand's peak at
    sig ~ 1, i.e. at t ~ 1/2, the center of the tanh-sinh window where
    nodes are densest; without it the peak drifts to tau ~ a, where large
    a makes it too narrow for the node spacing.  Near t = 0 the integrand
    goes like t^(a-1), so a is its weakest endpoint power.
    """
    a, b, z = positive("a", a), float(b), positive_array("z", z)
    if not math.isfinite(b):
        raise ValueError(f"log_kummer_u requires a finite b, got {b!r}")

    log_z = np.log(z)
    d = b - a - 1.0
    log_a = math.log(a)

    def integrand(t, log_t, log_1mt, rows):
        # sig overflows to inf near t = 1, where e^(-a sig) gives log 0
        log_sig = log_t - log_1mt
        ln1ptz = np.logaddexp(0.0, log_a + log_sig[None, :] - log_z[rows, None])
        with np.errstate(over="ignore"):
            log_g = a * (log_sig - np.exp(log_sig)) - log_sig - 2.0 * log_1mt
        return log_g[None, :] + d * ln1ptz

    log_i = log_tanh_sinh_01(integrand, z.size, power=a)
    return log_i + a * log_a - math.lgamma(a) - a * log_z
