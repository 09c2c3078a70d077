"""One table of the integer rule: every integer input of the library takes
an int or a numpy integer and refuses floats (integral ones too), bools
and strings, with a message that names the input.  The samplers' draw
count keeps its cases with each sampler's tests.  A second table holds
the real-number rule: every float input takes an int, a float or a numpy
real and refuses strings and bools.  Each record that holds the marginal
benchmark's existence rule, p < 1 + alpha, gives one message."""

import numpy as np
import pytest
from scipy.sparse import issparse

from dsdprior.elicit import ElicitationSpec, pseudo_variance
from dsdprior.priors import DsdParams, TwoF0Params
from dsdprior.qf import sample_v
from dsdprior.structure import (
    DesignMatrix,
    QfWeights,
    StructureSpec,
    build_bspline_basis,
    build_rw,
)

X = np.linspace(-1.0, 1.0, 50)
WEIGHTS = np.array([1.0, 2.0])

# id -> (the input's name, a call that takes it, a value it accepts, a fraction it refuses)
INTEGERS = {
    "rank_deficiency": ("rank_deficiency", lambda v: StructureSpec(np.eye(3), v), 1, 1.5),
    # truncating 10.9 to 10 would shift beta_tilde's n - 1 divisor
    "n_predictor": ("n_predictor", lambda v: QfWeights(WEIGHTS, v, zero_count=1), 10, 10.9),
    "zero_count": ("zero_count", lambda v: QfWeights(WEIGHTS, 10, zero_count=v), 1, 1.5),
    # the knot grid would give 21 columns for m = 20.5
    "m": ("m", lambda v: build_bspline_basis(X, m=v), 20, 20.5),
    "degree": ("degree", lambda v: build_bspline_basis(X, m=20, degree=v), 3, 3.5),
    "n": ("n", lambda v: ElicitationSpec(n=v, c=1.0), 30, 30.9),
    "order": ("order", lambda v: build_rw(v, 10), 1, 1.5),
    "n_g": ("n_g", lambda v: build_rw(2, v), 10, 10.5),
    "identity-n": ("n", DesignMatrix.identity, 5, 5.5),
}

BAD = {
    "fraction": lambda good, fraction: fraction,
    "integral-float": lambda good, fraction: float(good),
    "bool": lambda good, fraction: True,
    "numpy-bool": lambda good, fraction: np.True_,
    "string": lambda good, fraction: str(good),
}


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("key", INTEGERS)
def test_integer_rule_rejects(key, bad):
    name, call, good, fraction = INTEGERS[key]
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call(BAD[bad](good, fraction))


def _fields(record):
    # a sparse K or Z compares as its dense array
    return {k: v.toarray() if issparse(v) else v for k, v in vars(record).items()}


@pytest.mark.parametrize("key", INTEGERS)
def test_numpy_integer_is_the_int(key):
    _, call, good, _ = INTEGERS[key]
    np.testing.assert_equal(_fields(call(np.int64(good))), _fields(call(good)))


# id -> (the input's name, a call that takes it, a value it accepts)
REALS = {
    "c": ("c", lambda v: ElicitationSpec(n=30, c=v), 2.0),
    "p": ("p", lambda v: ElicitationSpec(n=30, c=1.0, p=v), 0.5),
    "q": ("q", lambda v: ElicitationSpec(n=30, c=1.0, q=v), 1.5),
    "pi0": ("pi0", lambda v: ElicitationSpec(n=30, c=1.0, pi0=v), 0.5),
    "mean": ("binomial_logit mean", lambda v: pseudo_variance("binomial_logit", v), 0.27),
    "beta": ("beta", lambda v: DsdParams(24.5, v, 1.43, 0.061, 1.0, 0.5, 1.5), 24.5),
    "b": ("b", lambda v: DsdParams(24.5, 24.5, 1.43, 0.061, v, 0.5, 1.5), 1.0),
    "sigma2": ("sigma2", lambda v: sample_v(QfWeights(WEIGHTS, 10, 1), v, count=3, seed=0), 1.0),
}

NOT_REAL = {
    "string": lambda good: str(good),
    "bool": lambda good: True,
    "numpy-bool": lambda good: np.True_,
}


@pytest.mark.parametrize("bad", NOT_REAL)
@pytest.mark.parametrize("key", REALS)
def test_real_rule_rejects(key, bad):
    name, call, good = REALS[key]
    with pytest.raises(ValueError, match=f"^{name} must be a real number"):
        call(NOT_REAL[bad](good))


@pytest.mark.parametrize("key", REALS)
def test_numpy_real_is_the_float(key):
    _, call, good = REALS[key]
    np.testing.assert_equal(call(np.float64(good)), call(good))


# record -> a call taking p, with alpha = 1 (n = 3 for the elicitation)
BENCHMARK_RECORDS = {
    "TwoF0Params": lambda p: TwoF0Params(alpha=1.0, beta=1.0, b=1.0, p=p, q=1.5),
    "DsdParams": lambda p: DsdParams(1.0, 1.0, 2.5, 1.0, 1.0, p, 1.5),
    "ElicitationSpec": lambda p: ElicitationSpec(n=3, c=1.0, p=p),
}


@pytest.mark.parametrize("record", BENCHMARK_RECORDS)
def test_benchmark_rule_gives_one_message(record):
    call = BENCHMARK_RECORDS[record]
    call(1.9)
    message = r"^marginal benchmark requires p < 1 \+ alpha; got p=2.0, alpha=1.0$"
    with pytest.raises(ValueError, match=message):
        call(2.0)
