"""Tests for the row handling of the log-space quadrature rules: any
number of rows goes in, no callback sees more than one block of them, and
a row's value does not depend on the rows that share its block."""

import numpy as np
import pytest
from scipy.special import betaln, gammaln

from dsdprior._quad import _BATCH, log_exp_sinh_0inf, log_tanh_sinh_01

# more rows than one block holds, so the rules must split them
N_ROWS = _BATCH + 300
A = np.linspace(0.5, 6.0, N_ROWS)


def _beta_rows(seen):
    # t^(a_i - 1) (1 - t)^(1/2) integrates to B(a_i, 3/2)
    def log_f(t, log_t, log_1mt, rows):
        seen.append(rows)
        return (A[rows, None] - 1.0) * log_t[None, :] + 0.5 * log_1mt[None, :]

    return log_f


def _gamma_rows(seen):
    # tau^(a_i - 1) e^(-tau) integrates to Gamma(a_i)
    def log_f(tau, log_tau, rows):
        seen.append(rows)
        return (A[rows, None] - 1.0) * log_tau[None, :] - tau[None, :]

    return log_f


@pytest.mark.parametrize(
    "rule, make_log_f, exact",
    [(log_tanh_sinh_01, _beta_rows, betaln(A, 1.5)), (log_exp_sinh_0inf, _gamma_rows, gammaln(A))],
    ids=["tanh-sinh", "exp-sinh"],
)
def test_rows_beyond_one_block(rule, make_log_f, exact):
    seen = []
    batch = rule(make_log_f(seen), N_ROWS)
    assert max(rows.size for rows in seen) <= _BATCH
    assert set(np.concatenate(seen).tolist()) == set(range(N_ROWS))
    np.testing.assert_allclose(batch, exact, rtol=1e-12, atol=1e-12)

    log_f = make_log_f([])
    single = np.array(
        [rule(lambda *args, i=i: log_f(*args[:-1], args[-1] + i), 1)[0] for i in range(N_ROWS)]
    )
    np.testing.assert_array_equal(batch, single)
