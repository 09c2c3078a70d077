"""Tanh-sinh quadrature on (0, 1) that accumulates in log space.

The rule integrates strictly positive integrands supplied as
log-integrand callbacks, vectorized over an arbitrary number of rows
(one row per outer parameter, e.g. one per hypergeometric argument).
Working on log scale keeps full relative precision even when the
integral itself is far outside double range.  Integrals over (0, inf)
come here through a substitution such as sigma = t / (1 - t).

Convergence is tracked per row and a row's result freezes at its own
stopping level, so a value never depends on which other rows happened
to share the batch.  Callers pass any number of rows; a block holds
int(_BATCH * 6.5 / u_max) of them, at least one.  A level's node count
grows in proportion to u_max, so a block's (rows, nodes) float arrays
keep the default window's (u_max = 6.5) bound in every window: at level
10, 2048 rows of about 13.3k nodes, 0.22 GB each.

Each level's terms are log f(t_j) + log w_j, one per node u_j = k h of
the level, combined per row by the max-shifted log-sum

    log sum_j e^(a_j) = M + log m + log1p(sum_{a_j < M} e^(a_j - M) / m),

M the row's largest term and m the number of terms equal to it
(Blanchard, Higham & Higham 2021).  That is the arithmetic of scipy's
``logsumexp`` on a real array, bit for bit, without its array-API
dispatch or the direct sum it always computes.  The terms equal to M
are zeroed after the shift, so a row of -inf terms gives -inf, a +inf
term +inf and a NaN term NaN, as log sum_j e^(a_j) does, with no second
pass over the row.

A level's nodes depend only on the window and the level, so their table
(t, log t, log(1 - t) and the log node weight) is built once and cached;
a call then only evaluates the callback and adds the weights.  The cache
keeps at most ``_TABLES`` tables of 32 bytes per node, and a level-L
table holds about 2^(L+1) u_max nodes, so the worst case, every entry a
level-10 table, is 4.2 MB per unit of u_max: 27 MB in the default
window (u_max = 6.5) and 40 MB at u_max = 9.6 (power 0.05).  Only a
power below about 1e-15 widens the window past u_max = 41; at the widest
finite window (u_max = 710.5, power near 2e-306) one level-10 table is
46.6 MB; a smaller power raises ConvergenceError before any is built.
"""

import functools
import math

import numpy as np

__all__ = ["ConvergenceError", "log_tanh_sinh_01"]

# rows integrated together in the default window, bounding node-array memory
_BATCH = 2048
# relative change of the integral between levels at which a row settles
_REL_TOL = 5e-13
# halvings of the node spacing 1/2 before ConvergenceError
_MAX_LEVEL = 10
# node tables kept: every level of about six windows
_TABLES = 64


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


@functools.lru_cache(maxsize=_TABLES)
def _level_table(u_max, level):
    """Read-only (t, log t, log(1 - t), log weight) at the nodes that
    level adds to the window |u| <= u_max; t = logistic(pi sinh u)."""
    h = 0.5 / 2.0**level
    k = np.arange(np.ceil(-u_max / h), np.floor(u_max / h) + 1.0)
    u = (k if level == 0 else k[np.mod(k, 2.0) != 0.0]) * h
    s = np.sinh(u)
    log_t = -np.logaddexp(0.0, -np.pi * s)
    log_1mt = -np.logaddexp(0.0, np.pi * s)
    log_w = np.log(np.pi) + _log_cosh(u) + log_t + log_1mt
    table = (np.exp(log_t), log_t, log_1mt, log_w)
    for a in table:
        a.flags.writeable = False
    return table


def _log_sum_exp(a):
    # log of each row's sum of e^a, for a real 2-D array (module docstring)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = a.max(axis=1, keepdims=True)
        at_top = a == top
        m = np.count_nonzero(at_top, axis=1)
        shifted = np.exp(a - top)
        shifted[at_top] = 0.0
        return np.log1p(shifted.sum(axis=1) / m) + np.log(m) + top[:, 0]


def _level_log_sum(log_f, u_max, level, rows):
    # log sum over the level's nodes of integrand times node weight
    t, log_t, log_1mt, log_w = _level_table(u_max, level)
    return _log_sum_exp(log_f(t, log_t, log_1mt, rows) + log_w[None, :])


def log_tanh_sinh_01(log_f, n_rows, power=None):
    """Log-integrals of exp(log_f) over t in (0,1), one per row.

    log_f(t, log_t, log_1mt, rows) maps node arrays of shape (n_t,) to a
    (len(rows), n_t) array of log-integrand values for rows, an index
    array of one block's rows (module docstring) out of range(n_rows).
    Nodes follow the tanh-sinh substitution t = logistic(pi*sinh(u)),
    which clusters doubly-exponentially at both endpoints, so integrable
    endpoint singularities of any algebraic strength are handled.

    ``power`` is the integrand's weakest endpoint exponent k, the
    integrand behaving like t^(k-1) or (1-t)^(k-1) there.  The window
    |u| <= 6.5 then widens until it reaches t ~ e^(-1100 / k), so the
    mass cut off at that end stays negligible however small k is.

    Level L adds the nodes u = k h, h = 2^-(L+1), with k odd for L >= 1;
    their t, logs and weights come from the cached node table of
    (u_max, L), and the row's terms are combined by the max-shifted
    log-sum M + log m + log1p(sum e^(a - M) / m) written out in the
    module docstring, with its worst-case cache bytes.
    """
    u_max = 6.5 if power is None else max(6.5, math.asinh(1100.0 / (math.pi * power)))
    if not math.isfinite(u_max):
        raise ConvergenceError("tanh-sinh window is not finite at this power", power=power)
    block = max(1, int(_BATCH * 6.5 / u_max))
    h0 = 0.5
    out, running, prev = np.full(n_rows, np.nan), np.empty(n_rows), np.empty(n_rows)
    for start in range(0, n_rows, block):
        active = np.arange(start, min(start + block, n_rows))
        running[active] = _level_log_sum(log_f, u_max, 0, active)
        prev[active] = np.log(h0) + running[active]
        for level in range(1, _MAX_LEVEL + 1):
            h = h0 / 2.0**level
            new = _level_log_sum(log_f, u_max, level, active)
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
