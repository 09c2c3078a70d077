"""Deterministic file I/O for the command line front end.

All emitters pin their byte output: each float is written as
``repr(float(x))``, the shortest string that reads back to the same
double, non-finite values are rejected, JSON keys are sorted, and every
line ends with LF.  Identical inputs must give byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import scipy.io

__all__ = [
    "dump_json",
    "format_float",
    "load_json",
    "read_matrix_market",
    "sha256_file",
    "write_csv",
    "write_matrix_market",
]


def format_float(x):
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return repr(x)


def _plain(obj):
    # numpy containers and scalars as the Python values json encodes
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dump_json(obj, path):
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False, default=_plain)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_csv(path, header, columns):
    columns = [np.atleast_1d(np.asarray(col)) for col in columns]
    if len(header) != len(columns):
        raise ValueError("header and column counts differ")
    length = columns[0].size
    if any(col.size != length for col in columns):
        raise ValueError("columns differ in length")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(length):
            fh.write(",".join(format_float(col[i]) for col in columns) + "\n")


def write_matrix_market(path, a):
    """Dense array-format Matrix Market with pinned formatting, so the
    same matrix always produces the same bytes and values survive a
    read-back bit-exactly."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        for j in range(a.shape[1]):
            for i in range(a.shape[0]):
                fh.write(format_float(a[i, j]) + "\n")


def read_matrix_market(path):
    return np.asarray(scipy.io.mmread(path), dtype=float)


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()
