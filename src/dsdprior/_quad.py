"""Tanh-sinh quadrature on (0, 1) that accumulates in log space.

The rule integrates strictly positive integrands supplied as
log-integrand callbacks, vectorized over an arbitrary number of rows
(one row per outer parameter, e.g. one per hypergeometric argument).
Working on log scale keeps full relative precision even when the
integral itself is far outside double range.  Integrals over (0, inf)
come here through a substitution such as sigma = t / (1 - t).

Convergence is tracked per row and a row's result freezes at its own
stopping level, so a value never depends on which other rows happened
to share the batch.  Callers pass any number of rows; the rule splits
them into blocks of at most ``_BATCH``.
"""

import math

import numpy as np
from scipy.special import logsumexp

__all__ = ["ConvergenceError", "log_tanh_sinh_01"]

# rows integrated together, so that peak node-array memory stays bounded
_BATCH = 2048
# relative change of the integral between levels at which a row settles
_REL_TOL = 5e-13
# halvings of the node spacing 1/2 before ConvergenceError
_MAX_LEVEL = 10


class ConvergenceError(RuntimeError):
    """A numerical scheme failed to reach its tolerance.

    Carries partial-result diagnostics in the ``diagnostics`` attribute
    so callers (and the CLI) can report what was achieved.
    """

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


def _log_cosh(u):
    # overflow-safe log(cosh(u))
    au = np.abs(u)
    return au + np.log1p(np.exp(-2.0 * au)) - np.log(2.0)


def _level_nodes(u_max, h, level):
    k = np.arange(np.ceil(-u_max / h), np.floor(u_max / h) + 1.0)
    if level == 0:
        return k * h
    return k[np.mod(k, 2.0) != 0.0] * h


def _log_terms(log_f, u, rows):
    # log integrand at t = logistic(pi sinh u) plus the log node weight
    s = np.sinh(u)
    log_t = -np.logaddexp(0.0, -np.pi * s)
    log_1mt = -np.logaddexp(0.0, np.pi * s)
    t = np.exp(log_t)
    log_w = np.log(np.pi) + _log_cosh(u) + log_t + log_1mt
    return log_f(t, log_t, log_1mt, rows) + log_w[None, :]


def log_tanh_sinh_01(log_f, n_rows, power=None):
    """Log-integrals of exp(log_f) over t in (0,1), one per row.

    log_f(t, log_t, log_1mt, rows) maps node arrays of shape (n_t,) to a
    (len(rows), n_t) array of log-integrand values for rows, an index
    array of at most _BATCH rows out of range(n_rows).  Nodes follow the
    tanh-sinh substitution t = logistic(pi*sinh(u)), which clusters
    doubly-exponentially at both endpoints, so integrable endpoint
    singularities of any algebraic strength are handled.

    ``power`` is the integrand's weakest endpoint exponent k, the
    integrand behaving like t^(k-1) or (1-t)^(k-1) there.  The window
    |u| <= 6.5 then widens until it reaches t ~ e^(-1100 / k), so the
    mass cut off at that end stays negligible however small k is.
    """
    u_max = 6.5 if power is None else max(6.5, math.asinh(1100.0 / (math.pi * power)))
    h0 = 0.5
    u0 = _level_nodes(u_max, h0, 0)
    out, running, prev = np.full(n_rows, np.nan), np.empty(n_rows), np.empty(n_rows)
    for start in range(0, n_rows, _BATCH):
        active = np.arange(start, min(start + _BATCH, n_rows))
        running[active] = logsumexp(_log_terms(log_f, u0, active), axis=1)
        prev[active] = np.log(h0) + running[active]
        for level in range(1, _MAX_LEVEL + 1):
            h = h0 / 2.0**level
            new = logsumexp(_log_terms(log_f, _level_nodes(u_max, h, level), active), axis=1)
            running[active] = np.logaddexp(running[active], new)
            cur = np.log(h) + running[active]
            if level >= 2:
                # |delta log| is the relative change of the integral itself
                diff = np.abs(cur - prev[active])
                settled = (diff <= _REL_TOL) | (np.isneginf(cur) & np.isneginf(prev[active]))
                out[active[settled]] = cur[settled]
                active, cur = active[~settled], cur[~settled]
                if active.size == 0:
                    break
            prev[active] = cur
        else:
            raise ConvergenceError(
                "tanh-sinh quadrature did not reach tolerance",
                rel_tol=_REL_TOL,
                max_level=_MAX_LEVEL,
                unresolved_rows=active.copy(),
                last_estimates=prev[active].copy(),
            )
    return out
