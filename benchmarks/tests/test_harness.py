"""Tests of the benchmark's own logic: self times, tail choice, failure
share, absent names, and the references it checks the library against.

    python3 -m pytest benchmarks/tests
"""

import math
import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
import scipy.io

import reference
import run
import stats
import tracing
import workloads


def _span(start, end, parent=None, name="structure.x", **counts):
    return {"name": name, "start": start, "end": end, "parent": parent, "request": 0,
            "process": counts.pop("process", 1), "ok": True, **counts}


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        _span(0.0, 10.0),
        _span(1.0, 4.0, parent=0),
        _span(3.0, 6.0, parent=0),  # overlaps its sibling: counted once
        _span(2.0, 3.0, parent=1),  # grandchild: only its parent loses it
        _span(8.0, 12.0, parent=0),  # runs past the parent: clipped
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_tracer_records_nested_spans_with_parents():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("qf.inner", lambda x: x + 1)
    outer = tracer.wrap("elicit.outer", lambda x: inner(x) * 2)
    tracer.request = 7
    assert outer(1) == 4
    names = [(s["name"], s["parent"], s["request"]) for s in tracer.spans]
    assert names == [("elicit.outer", None, 7), ("qf.inner", 0, 7)]
    assert tracing.self_times(tracer.spans) == [2.0, 1.0]


def test_curve_repeats_count_within_a_process():
    spans = [
        _span(0.0, 1.0, name="priors.curve_build", theta="a", process=1),
        _span(1.0, 2.0, name="priors.curve_build", theta="a", process=1),
        _span(2.0, 3.0, name="priors.curve_build", theta="a", process=2),
        _span(3.0, 4.0, name="priors.curve_build", theta="b", process=2),
    ]
    layer = tracing.summarize(spans, requests=2, request_wall_s=4.0)
    assert layer["priors.curve_build.distinct_ratio"] == 0.75
    assert layer["priors.curve_build.calls"] == 2.0
    assert layer["priors.self_s"] == 2.0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    latencies = [float(i) for i in range(1, 101)]
    value, percentile, beyond = stats.tail_latency(latencies[::-1])
    assert (value, percentile, beyond) == (90.0, 90.0, 10)
    assert sum(x > value for x in latencies) == 10
    value, percentile, beyond = stats.tail_latency(latencies[:20])
    assert (value, percentile, beyond) == (10.0, 50.0, 10)


def test_tail_falls_back_to_the_maximum_on_short_runs():
    assert stats.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    with pytest.raises(ValueError):
        stats.tail_latency([])


def test_failed_frac_counts_every_failed_record():
    records = [{"ok": True}, {"ok": False}, {"ok": True}, {"ok": False}]
    assert stats.failed_frac(records) == 0.5
    assert stats.failed_frac([{"ok": True}]) == 0.0
    with pytest.raises(ValueError):
        stats.failed_frac([])


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    """A package with the six layers, where some named functions are gone
    and cli holds copies made by ``from .structure import ...``."""
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    files = {
        "__init__.py": "",
        "_io.py": "__all__ = ['dump_json']\ndef dump_json(obj, path):\n    open(path, 'w').write('x' * obj)\n",
        "structure.py": "__all__ = ['qf_weights']\ndef qf_weights(design, spec, constrained):\n    return 1\n",
        "qf.py": "__all__ = ['gamma_approx']\ndef gamma_approx(w):\n    return w\n",
        "specfun.py": "__all__ = ['log_gauss_2f1_negz']\ndef log_gauss_2f1_negz(a, b, c, z):\n    return z\n",
        "priors.py": "__all__ = []\n",
        "elicit.py": "__all__ = []\n",
        "cli.py": textwrap.dedent(
            """\
            from ._io import dump_json
            from .structure import qf_weights
            __all__ = ['main']
            def main(path):
                dump_json(3, path)
                return qf_weights(None, None, True)
            """
        ),
    }
    for name, body in files.items():
        (pkg / name).write_text(body)
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "fakepkg"
    for name in [m for m in sys.modules if m == "fakepkg" or m.startswith("fakepkg.")]:
        del sys.modules[name]


def test_missing_names_are_reported_absent_and_aliases_are_rebound(fake_package, tmp_path):
    import importlib

    cli = importlib.import_module(f"{fake_package}.cli")
    tracer = tracing.Tracer()
    tracing.install(tracer, package=fake_package)
    assert "specfun.log_kummer_u" in tracer.absent
    assert "priors.DsdCurve.__init__" in tracer.absent
    assert "structure.qf_weights" not in tracer.absent

    tracer.request = 0
    cli.main(str(tmp_path / "out.txt"))
    assert [s["name"] for s in tracer.spans] == ["cli.main", "cli.io", "structure.qf_weights"]

    layer = tracing.summarize(tracer.spans, requests=1, request_wall_s=1.0)
    assert layer["specfun.log_kummer_u.self_s"] == 0.0
    assert layer["priors.curve_build.distinct_ratio"] == 0.0
    assert layer["cli.io.bytes_written"] == 3.0
    assert layer["structure.qf_weights.calls"] == 1.0


def test_b_ref_reproduces_the_seasonal_example():
    assert reference.benchmark_quantile(366) == pytest.approx(0.194394, abs=5e-7)
    assert reference.scale_b(366, 5.16) == pytest.approx(26.544, abs=5e-4)


def test_dsd_reference_quantile_matches_its_product_form_by_simulation():
    theta = {"alpha": 24.5, "beta": 24.5, "alpha_tilde": 1.43, "beta_tilde": 0.061,
             "b": 1.0, "p": 0.5, "q": 1.5}
    rng = np.random.default_rng(0)
    n = 200_000
    w = rng.beta(theta["p"], theta["alpha_tilde"] - theta["p"], n)
    s = theta["b"] * theta["beta_tilde"] / theta["beta"] * w * rng.gamma(theta["alpha"], size=n)
    s /= rng.gamma(theta["q"], size=n)
    for u in (0.025, 0.5, 0.975):
        share = np.mean(s <= reference.dsd_quantile(u, theta))
        assert abs(share - u) < 4.0 * math.sqrt(u * (1.0 - u) / n)


def test_selection_design_is_one_hot_and_covers_every_region(tmp_path):
    path = tmp_path / "design.mtx"
    workloads._write_selection(path, 7, 9, np.random.default_rng(1))
    z = np.asarray(scipy.io.mmread(path))
    assert z.shape == (9, 7)
    assert np.all(z.sum(axis=1) == 1.0)
    assert np.all(z.sum(axis=0) >= 1.0)


def test_lattice_is_connected():
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    n, edges = workloads.lattice_edges(50, np.random.default_rng(2))
    i, j = np.array(edges).T
    graph = coo_matrix((np.ones(len(edges)), (i, j)), shape=(n, n))
    assert connected_components(graph, directed=False)[0] == 1


def test_a_child_past_the_deadline_is_killed_with_its_grandchildren(tmp_path):
    pid_file = tmp_path / "grandchild.pid"
    script = (
        "import subprocess, sys, time\n"
        f"p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        f"open({str(pid_file)!r}, 'w').write(str(p.pid))\n"
        "time.sleep(60)\n"
    )
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="run limit"):
        run._run([sys.executable, "-c", script], deadline=time.monotonic() + 1.5)
    assert time.monotonic() - start < 10.0
    grandchild = int(pid_file.read_text())
    for _ in range(50):  # the kill is delivered, reaping by init may lag
        try:
            os.kill(grandchild, 0)
        except ProcessLookupError:
            break
        if subprocess.run(["ps", "-o", "stat=", "-p", str(grandchild)], capture_output=True,
                          text=True).stdout.strip().startswith("Z"):
            break
        time.sleep(0.1)
    else:
        pytest.fail("grandchild survived the deadline")
