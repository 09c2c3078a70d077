"""Deterministic file I/O for the command line front end.

All emitters pin their byte output, so identical inputs give
byte-identical files.  JSON and CSV write each float as
``repr(float(x))``, the shortest string that reads back to the same
double, reject non-finite values, sort JSON keys and end every line
with LF.  Matrix Market files come from ``scipy.io.mmwrite``: a sparse
matrix in coordinate layout and general form, a ``%`` line after the
header, and each value as its shortest round-trip string (``6`` for
6.0), so a read-back is bit-exact.  They are read in array or
coordinate layout, general or symmetric, into a CSR array.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import scipy.io
from scipy.sparse import csr_array

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
    # every row is formatted before the file opens, so a raise leaves none
    rows = [",".join(format_float(col[i]) for col in columns) for i in range(length)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([",".join(header), *rows]) + "\n")


def write_matrix_market(path, a):
    scipy.io.mmwrite(path, a, symmetry="general")


def read_matrix_market(path):
    return csr_array(scipy.io.mmread(path), dtype=float)


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()
