"""Double-exponential quadrature rules that accumulate in log space.

Both rules integrate strictly positive integrands supplied as
log-integrand callbacks, vectorized over an arbitrary number of rows
(one row per outer parameter, e.g. one per hypergeometric argument).
Working on log scale keeps full relative precision even when the
integral itself is far outside double range.

Convergence is tracked per row and a row's result freezes at its own
stopping level, so a value never depends on which other rows happened
to share the batch.  Callers pass any number of rows; the rules split
them into blocks of at most ``_BATCH``.
"""

import numpy as np
from scipy.special import logsumexp

# rows integrated together, so that peak node-array memory stays bounded
_BATCH = 2048


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


def _level_nodes(u_lo, u_hi, h, level):
    k = np.arange(np.ceil(u_lo / h), np.floor(u_hi / h) + 1.0)
    if level == 0:
        return k * h
    return k[np.mod(k, 2.0) != 0.0] * h


def _run_levels(make_terms, n_rows, u_lo, u_hi, rel_tol, max_level, scheme):
    """Refinement driver shared by both rules.

    make_terms(u, rows) -> (len(rows), len(u)) array holding, in log
    space, integrand values at the transformed nodes plus the log node
    weight, for rows, an index array into range(n_rows).  Rows are
    integrated in blocks of at most _BATCH, so no call sees more.
    """
    h0 = 0.5
    u0 = _level_nodes(u_lo, u_hi, h0, 0)
    out, running, prev = np.full(n_rows, np.nan), np.empty(n_rows), np.empty(n_rows)
    for start in range(0, n_rows, _BATCH):
        active = np.arange(start, min(start + _BATCH, n_rows))
        running[active] = logsumexp(make_terms(u0, active), axis=1)
        prev[active] = np.log(h0) + running[active]
        for level in range(1, max_level + 1):
            h = h0 / 2.0**level
            u = _level_nodes(u_lo, u_hi, h, level)
            new = logsumexp(make_terms(u, active), axis=1)
            running[active] = np.logaddexp(running[active], new)
            cur = np.log(h) + running[active]
            if level >= 2:
                # |delta log| is the relative change of the integral itself
                diff = np.abs(cur - prev[active])
                settled = (diff <= rel_tol) | (np.isneginf(cur) & np.isneginf(prev[active]))
                out[active[settled]] = cur[settled]
                active, cur = active[~settled], cur[~settled]
                if active.size == 0:
                    break
            prev[active] = cur
        else:
            raise ConvergenceError(
                f"{scheme} quadrature did not reach tolerance",
                rel_tol=rel_tol,
                max_level=max_level,
                unresolved_rows=active.copy(),
                last_estimates=prev[active].copy(),
            )
    return out


def log_tanh_sinh_01(log_f, n_rows, u_max=6.5, rel_tol=5e-13, max_level=10):
    """Log-integrals of exp(log_f) over t in (0,1), one per row.

    log_f(t, log_t, log_1mt, rows) maps node arrays of shape (n_t,) to a
    (len(rows), n_t) array of log-integrand values for rows, an index
    array of at most _BATCH rows out of range(n_rows).  Nodes follow the
    tanh-sinh substitution t = logistic(pi*sinh(u)), which clusters
    doubly-exponentially at both endpoints, so integrable endpoint
    singularities of any algebraic strength are handled.
    """

    def make_terms(u, rows):
        s = np.sinh(u)
        log_t = -np.logaddexp(0.0, -np.pi * s)
        log_1mt = -np.logaddexp(0.0, np.pi * s)
        t = np.exp(log_t)
        log_w = np.log(np.pi) + _log_cosh(u) + log_t + log_1mt
        return log_f(t, log_t, log_1mt, rows) + log_w[None, :]

    return _run_levels(make_terms, n_rows, -u_max, u_max, rel_tol, max_level, "tanh-sinh")


def log_exp_sinh_0inf(log_f, n_rows, u_lo=-6.75, u_hi=4.5, rel_tol=5e-13, max_level=11):
    """Log-integrals of exp(log_f) over tau in (0, inf), one per row.

    log_f(tau, log_tau, rows) maps node arrays of shape (n_tau,) to a
    (len(rows), n_tau) array, rows as for log_tanh_sinh_01.  Nodes follow
    tau = exp((pi/2) sinh(u)); the asymmetric default window reaches
    tau ~ 1e-300 on the left while the right end relies on the
    integrand's own decay.
    """

    def make_terms(u, rows):
        log_tau = 0.5 * np.pi * np.sinh(u)
        tau = np.exp(log_tau)
        log_w = log_tau + np.log(0.5 * np.pi) + _log_cosh(u)
        return log_f(tau, log_tau, rows) + log_w[None, :]

    return _run_levels(make_terms, n_rows, u_lo, u_hi, rel_tol, max_level, "exp-sinh")
