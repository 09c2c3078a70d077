"""Spans around the library's public functions, recorded from outside.

``install`` wraps every public function of the six layers (``structure``,
``qf``, ``specfun``, ``priors``, ``elicit`` and ``cli`` with ``_io``) and
rebinds each module-level alias of it, because ``from .x import y`` leaves
a copy of ``y`` in the importing module.  Spans (name, start, end, parent,
request, counts) stay in memory until ``Tracer.dump``.  ``summarize``
turns them into per-layer self times and work counts.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time

import numpy as np

LAYERS = ("structure", "qf", "specfun", "priors", "elicit", "cli")

# functions the per-layer metrics name; a name missing from the code under
# test is reported as absent and its metrics read 0
NAMED = (
    "structure.spectral_split",
    "structure.qf_weights",
    "structure.build_rw",
    "structure.build_icar",
    "structure.build_bspline_basis",
    "elicit.solve_scale",
    "elicit.build_dsd_prior",
    "priors.twoF0_sample",
    "priors.dsd_sample",
    "priors.dsd_logpdf",
    "priors.integral_equation_residual",
    "priors.DsdCurve.__init__",
    "priors.DsdCurve.quantile",
    "specfun.log_gauss_2f1_negz",
    "specfun.log_kummer_u",
    "qf.gamma_approx",
    "qf.sample_v",
    "qf.ruben_cdf",
    "cli.main",
)

# span names for methods and for functions grouped under one metric
RENAMED = {
    "priors.DsdCurve.__init__": "priors.curve_build",
    "priors.DsdCurve.quantile": "priors.quantile",
    "structure.build_rw": "structure.build",
    "structure.build_icar": "structure.build",
    "structure.build_bspline_basis": "structure.build",
}


def _size(value):
    return int(np.size(value))


def _path_bytes(args, kwargs):
    """Size of the file a writer was given, once it has written it."""
    for value in (*args, *kwargs.values()):
        if isinstance(value, (str, os.PathLike)):
            try:
                return os.path.getsize(value)
            except OSError:
                return 0
    return 0


def _params_key(args):
    theta = args[1] if len(args) > 1 else None
    fields = getattr(theta, "__dataclass_fields__", None)
    if fields is None:
        return repr(theta)
    return repr(tuple(getattr(theta, f) for f in fields))


# per-span work counts, taken from the call's arguments
COUNTERS = {
    "specfun.log_gauss_2f1_negz": lambda a, k: {"points": _size(a[3] if len(a) > 3 else k["z"])},
    "specfun.log_kummer_u": lambda a, k: {"points": _size(a[2] if len(a) > 2 else k["z"])},
    "priors.twoF0_sample": lambda a, k: {"draws": int(a[1] if len(a) > 1 else k["count"])},
    "qf.sample_v": lambda a, k: {"draws": int(a[2] if len(a) > 2 else k["count"])},
    "qf.ruben_cdf": lambda a, k: {"points": _size(a[0] if a else k["q"])},
    "priors.quantile": lambda a, k: {"points": _size(a[1] if len(a) > 1 else k["u"])},
    "priors.curve_build": lambda a, k: {"theta": _params_key(a)},
    "structure.qf_weights": lambda a, k: {
        "n_g_cubed": float((a[1] if len(a) > 1 else k["spec"]).n_g) ** 3
    },
}


def _count(counter, args, kwargs):
    """Work counts of one call; a signature the counter does not know
    gives no count rather than a failed call."""
    try:
        return counter(args, kwargs)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return {}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.request = None
        self.pid = os.getpid()
        self.absent = []
        self._stack = []

    def wrap(self, name, fn, layer_io=False):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            counts = _count(counter, args, kwargs) if counter else {}
            span = {
                "name": name,
                "start": self.clock(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "request": self.request,
                "process": self.pid,
                "ok": False,
            }
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            try:
                out = fn(*args, **kwargs)
                span["ok"] = True
                return out
            finally:
                span["end"] = self.clock()
                self._stack.pop()
                if layer_io:
                    counts["bytes"] = _path_bytes(args, kwargs)
                span.update(counts)

        traced.__wrapped__ = fn
        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "absent": self.absent}, fh)


def _public_functions(module):
    for attr in getattr(module, "__all__", ()):
        value = getattr(module, attr, None)
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            yield attr, value


def install(tracer, package="dsdprior"):
    """Wrap the layers' public functions and the named methods for the
    rest of the process."""
    import importlib

    modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
    io_module = importlib.import_module(f"{package}._io")
    swaps = {}  # id(original) -> (original, wrapper)

    for layer, module in modules.items():
        for attr, fn in _public_functions(module):
            full = f"{layer}.{attr}"
            swaps[id(fn)] = (fn, tracer.wrap(RENAMED.get(full, full), fn))
    for attr, fn in _public_functions(io_module):
        swaps[id(fn)] = (fn, tracer.wrap("cli.io", fn, layer_io=attr.startswith(("dump", "write"))))

    for full in NAMED:
        layer, *path = full.split(".")
        owner = modules[layer]
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        fn = getattr(owner, path[-1], None) if owner is not None else None
        if fn is None:
            tracer.absent.append(full)
        elif len(path) == 2:  # a method: the class object is shared, rebind once
            setattr(owner, path[-1], tracer.wrap(RENAMED.get(full, full), fn))

    # rebind every alias in every loaded module of the package
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            pair = swaps.get(id(value))
            if pair is not None and pair[0] is value:
                setattr(mod, attr, pair[1])


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans):
    """Each span's duration minus the time its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return [
        (s["end"] - s["start"]) - _covered(children[i], s["start"], s["end"])
        for i, s in enumerate(spans)
    ]


def summarize(spans, requests, request_wall_s):
    """Per-layer metrics per request from one traced run's spans.

    ``requests`` is the number of traced requests and ``request_wall_s``
    their summed wall time, the base of ``trace.coverage_frac``."""
    own = self_times(spans)
    by_name = {}
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for span, t in zip(spans, own):
        entry = by_name.setdefault(span["name"], {"self_s": 0.0, "calls": 0, "ok": 0, "spans": []})
        entry["self_s"] += t
        entry["calls"] += 1
        entry["ok"] += bool(span["ok"])
        entry["spans"].append(span)
        by_layer[span["name"].split(".", 1)[0]] += t

    def total(name, key="self_s"):
        entry = by_name.get(name)
        if entry is None:
            return 0.0
        if key in ("self_s", "calls", "ok"):
            return entry[key]
        return float(sum(s.get(key, 0) for s in entry["spans"]))

    per = 1.0 / requests
    out = {f"{layer}.self_s": by_layer[layer] * per for layer in LAYERS}
    for name in (
        "structure.spectral_split",
        "structure.qf_weights",
        "structure.build",
        "elicit.solve_scale",
        "elicit.build_dsd_prior",
        "priors.twoF0_sample",
        "specfun.log_gauss_2f1_negz",
        "specfun.log_kummer_u",
        "priors.curve_build",
        "priors.quantile",
        "priors.dsd_sample",
        "priors.dsd_logpdf",
        "priors.integral_equation_residual",
        "qf.gamma_approx",
        "qf.sample_v",
        "qf.ruben_cdf",
        "cli.main",
        "cli.io",
    ):
        out[f"{name}.self_s"] = total(name) * per
    for name in ("structure.qf_weights", "elicit.solve_scale", "priors.curve_build"):
        out[f"{name}.calls"] = total(name, "calls") * per
    out["structure.n_g_cubed_sum"] = total("structure.qf_weights", "n_g_cubed") * per
    out["priors.twoF0_sample.draws"] = total("priors.twoF0_sample", "draws") * per
    out["qf.sample_v.draws"] = total("qf.sample_v", "draws") * per
    out["priors.quantile.points"] = total("priors.quantile", "points") * per
    out["qf.ruben_cdf.points"] = total("qf.ruben_cdf", "points") * per
    for name in ("specfun.log_gauss_2f1_negz", "specfun.log_kummer_u"):
        out[f"{name}.points"] = total(name, "points") * per
    points = total("specfun.log_gauss_2f1_negz", "points")
    out["specfun.log_gauss_2f1_negz.us_per_point"] = (
        1e6 * total("specfun.log_gauss_2f1_negz") / points if points else 0.0
    )
    ruben_calls = total("qf.ruben_cdf", "calls")
    out["qf.ruben_cdf.ok_ratio"] = total("qf.ruben_cdf", "ok") / ruben_calls if ruben_calls else 0.0
    # a cache lives in one process, so repeats count within a process
    builds = by_name.get("priors.curve_build", {"spans": []})["spans"]
    out["priors.curve_build.distinct_ratio"] = (
        len({(s["process"], s.get("theta")) for s in builds}) / len(builds) if builds else 0.0
    )
    out["cli.io.bytes_written"] = total("cli.io", "bytes") * per
    out["trace.coverage_frac"] = sum(own) / request_wall_s if request_wall_s > 0 else 0.0
    return out
