"""One table of the integer rule: every integer input of the library takes
an int or a numpy integer and refuses floats (integral ones too), bools
and strings, with a message that names the input.  The samplers' draw
count keeps its cases with each sampler's tests."""

import numpy as np
import pytest

from dsdprior.elicit import ElicitationSpec
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


@pytest.mark.parametrize("key", INTEGERS)
def test_numpy_integer_is_the_int(key):
    _, call, good, _ = INTEGERS[key]
    np.testing.assert_equal(vars(call(np.int64(good))), vars(call(good)))
