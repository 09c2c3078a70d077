"""Tests for the row handling of the log-space tanh-sinh rule: any
number of rows goes in, no callback sees more than one block of them, and
a row's value does not depend on the rows that share its block.  Both
integrals below live on (0, 1) or reach it by substitution."""

import numpy as np
import pytest
from scipy.special import betaln, gammaln

from dsdprior._quad import _BATCH, log_tanh_sinh_01

# more rows than one block holds, so the rule must split them
N_ROWS = _BATCH + 300
A = np.linspace(0.5, 6.0, N_ROWS)


def _beta_rows(seen):
    # t^(a_i - 1) (1 - t)^(1/2) integrates to B(a_i, 3/2)
    def log_f(t, log_t, log_1mt, rows):
        seen.append(rows)
        return (A[rows, None] - 1.0) * log_t[None, :] + 0.5 * log_1mt[None, :]

    return log_f


def _gamma_rows(seen):
    # sig^(a_i - 1) e^(-sig) integrates to Gamma(a_i) over (0, inf); with
    # sig = t / (1 - t) and dsig = dt / (1 - t)^2 the integral is over (0, 1)
    def log_f(t, log_t, log_1mt, rows):
        seen.append(rows)
        log_sig = log_t - log_1mt
        with np.errstate(over="ignore"):
            log_g = -np.exp(log_sig) - 2.0 * log_1mt
        return (A[rows, None] - 1.0) * log_sig[None, :] + log_g[None, :]

    return log_f


@pytest.mark.parametrize(
    "make_log_f, exact",
    [(_beta_rows, betaln(A, 1.5)), (_gamma_rows, gammaln(A))],
    ids=["beta", "gamma"],
)
def test_rows_beyond_one_block(make_log_f, exact):
    seen = []
    batch = log_tanh_sinh_01(make_log_f(seen), N_ROWS)
    assert max(rows.size for rows in seen) <= _BATCH
    assert set(np.concatenate(seen).tolist()) == set(range(N_ROWS))
    np.testing.assert_allclose(batch, exact, rtol=1e-12, atol=1e-12)

    log_f = make_log_f([])
    single = np.array(
        [
            log_tanh_sinh_01(lambda *args, i=i: log_f(*args[:-1], args[-1] + i), 1)[0]
            for i in range(N_ROWS)
        ]
    )
    np.testing.assert_array_equal(batch, single)
