"""Input rules, each written once, for every module that takes inputs.

An integer is an int or a numpy integer, never a bool or a float, so no
value is truncated; only the command line turns JSON's 30.0 into 30. A
real number is an int, a float or a numpy real, never a bool or a
string; an array of them is a numpy array of integer or floating dtype,
checked by its dtype alone, or nested lists whose leaves are real
numbers. Arrays are checked by their min and max, with no mask of their
size.
"""

import math

import numpy as np

__all__ = [
    "benchmark_exponent",
    "finite",
    "integer",
    "positive",
    "positive_array",
    "positive_fields",
    "probabilities",
    "real_array",
]


def _real(name, value) -> float:
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def real_array(name, x) -> np.ndarray:
    """x, a real number or an array of them, as a float64 numpy array."""
    pending = [x]
    while pending:
        item = pending.pop()
        if isinstance(item, (list, tuple)):
            pending.extend(reversed(item))
        elif hasattr(item, "dtype"):
            if item.dtype.kind not in "iuf":
                raise ValueError(f"{name} must be a real number, got dtype {item.dtype}")
        else:
            _real(name, item)
    return np.asarray(x, dtype=float)


def integer(name, value, minimum=None) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def benchmark_exponent(p, alpha):
    # the marginal benchmark, a Gamma(alpha) share mixed over the base
    # prior, normalizes only for p < 1 + alpha
    if not p < 1.0 + alpha:
        raise ValueError(f"marginal benchmark requires p < 1 + alpha; got p={p!r}, alpha={alpha!r}")


def positive(name, value) -> float:
    value = _real(name, value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def positive_fields(record, *names):
    # each named field of a (frozen) dataclass as a positive finite float
    for name in names:
        object.__setattr__(record, name, positive(name, getattr(record, name)))


def positive_array(name, x) -> np.ndarray:
    arr = np.atleast_1d(real_array(name, x))
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    positive(name, arr.min())
    positive(name, arr.max())
    return arr


def probabilities(name, u) -> np.ndarray:
    arr = np.atleast_1d(real_array(name, u))
    if not (arr.size and 0.0 < arr.min() and arr.max() < 1.0):
        raise ValueError(f"{name} must lie strictly inside (0, 1)")
    return arr


def finite(name, a):
    # initial=0 lets an empty array pass: a sparse matrix of zeros stores none
    if not np.all(np.isfinite((a.min(initial=0.0), a.max(initial=0.0)))):
        raise ValueError(f"{name} must be finite")
