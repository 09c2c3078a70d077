"""Machine facts recorded with every result."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads(environ):
    """Pin BLAS and OpenMP to one thread; returns the values found before."""
    before = {var: environ.get(var) for var in THREAD_VARS}
    for var in THREAD_VARS:
        environ[var] = "1"
    return before


def _blas():
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError, ValueError):
        return {"name": "unknown", "version": "unknown"}


def _git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def collect(root: Path, seed: int, threads_before: dict):
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas": _blas(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "thread_env_before_pinning": threads_before,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "seed": seed,
    }
