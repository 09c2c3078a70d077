"""Tests for the log-space tanh-sinh rule.

Row handling: any number of rows goes in, no callback sees more than one
block of them, and a row's value does not depend on the rows that share
its block.  Both integrals below live on (0, 1) or reach it by
substitution.  The per-level log-sum is checked against 50-digit mpmath
(tests/oracles.py), and the cached node tables against writes and
against a cold cache."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import betaln, gammaln

import oracles
from dsdprior._quad import (
    _BATCH,
    _MAX_LEVEL,
    ConvergenceError,
    _level_table,
    _log_sum_exp,
    log_tanh_sinh_01,
)
from dsdprior.elicit import ElicitationSpec, _benchmark_quantile, solve_scale
from dsdprior.specfun import log_gauss_2f1_negz, log_kummer_u

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


def test_wide_window_blocks_hold_fewer_rows():
    # power 1e-15 widens the window to u_max = 41, about 6.3 times the
    # default's nodes per level, so a block holds that many times fewer
    # rows; the constant integrand settles at level 2
    power = 1e-15
    bound = int(_BATCH * 6.5 / math.asinh(1100.0 / (math.pi * power)))
    seen = []

    def log_f(t, log_t, log_1mt, rows):
        seen.append(rows)
        return np.zeros((rows.size, t.size))

    got = log_tanh_sinh_01(log_f, 3000, power=power)
    assert max(rows.size for rows in seen) <= bound < _BATCH
    assert set(np.concatenate(seen).tolist()) == set(range(3000))
    np.testing.assert_allclose(got, 0.0, atol=1e-14)


@pytest.mark.parametrize(
    "call",
    [
        lambda: log_kummer_u(1e-307, 1.0, [1.0]),
        lambda: log_gauss_2f1_negz(2.0, 1e-307, 1.5, [-1.0]),
    ],
    ids=["kummer-u", "2f1"],
)
def test_power_without_a_finite_window_raises(call):
    # 1100 / (pi * power) overflows, so the window |u| <= asinh(...) is infinite
    _level_table.cache_clear()
    with pytest.raises(ConvergenceError, match="window is not finite") as info:
        call()
    assert info.value.diagnostics == {"power": 1e-307}
    assert _level_table.cache_info().currsize == 0


INF = np.inf
EPS = np.finfo(float).eps


@pytest.mark.parametrize(
    "a",
    [
        [[3.0, 3.0, 1.0, -2.0], [0.0, 0.0, 0.0, 0.0], [-1.5, 2.5, 2.5, 2.5]],
        [[0.3], [-7.0], [700.0]],
        [[-INF, 0.5, -INF, 2.0], [-INF, -INF, -INF, -3.0]],
        [[700.0, 699.5, 650.0], [-700.0, -705.0, -745.0], [709.0, -709.0, 0.0]],
        [[1e300, 0.0, -1e300], [0.0, -1e300, -1e300], [-1e300, -1e300, -5e299]],
        [[-1e308, 1e308, 0.0]],
    ],
    ids=["max-ties", "one-column", "neg-inf", "near-700", "spread-1e300", "spread-overflows"],
)
def test_log_sum_exp_matches_mpmath(a):
    got = _log_sum_exp(np.array(a))
    for value, row in zip(got, a):
        exact = oracles.log_sum_exp(row)
        assert abs(value - exact) <= 2.0 * EPS * max(1.0, abs(exact)), (row, value, exact)


def test_log_sum_exp_non_finite_rows():
    a = np.array([[-INF, -INF, -INF], [1.0, INF, -INF], [0.0, np.nan, 1.0], [0.0, 0.0, -INF]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _log_sum_exp(a)
    assert got[0] == -INF
    assert got[1] == INF
    assert np.isnan(got[2])
    assert got[3] == oracles.log_sum_exp(a[3])


def test_node_tables_are_read_only_and_bounded():
    assert _level_table.cache_info().maxsize is not None
    for level in range(_MAX_LEVEL + 1):
        for array in _level_table(6.5, level):
            with pytest.raises(ValueError):
                array[0] = 0.0


def _scale_from_quadrature():
    # the quantile cache would answer before any node table is read
    _benchmark_quantile.cache_clear()
    return solve_scale(ElicitationSpec(n=366, c=5.16)).b


@pytest.mark.parametrize(
    "compute",
    [
        _scale_from_quadrature,
        lambda: log_gauss_2f1_negz(26.0, 2.0, 2.93, [-3.7])[0],
    ],
    ids=["scale", "2f1"],
)
def test_cold_and_warm_tables_agree(compute):
    _level_table.cache_clear()
    cold = compute()
    assert _level_table.cache_info().currsize > 0
    hits = _level_table.cache_info().hits
    assert compute() == cold
    assert _level_table.cache_info().hits > hits
