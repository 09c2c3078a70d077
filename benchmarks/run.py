"""Benchmark of dsdprior: what users wait for, end to end and per layer.

    python3 benchmarks/run.py --workload pipeline-mix --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; it imports ``src/dsdprior``.
Each workload sends one request at a time (a closed loop, one client) for
``--seconds`` and stops at the end of a whole cycle of its inputs.  The
timed loop runs in a fresh interpreter; set-up is timed in three more and
reported as their median.  BLAS and OpenMP are pinned to one thread.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the loop
untraced and then traced for half the time each and prints per-layer self
times and work counts.  Report lines come first; the last line of
standard output is the JSON result.  Exit code 0 means a result was
printed, also when a check failed (``correct`` is then false).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import facts
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREADS_BEFORE = facts.pin_threads(os.environ)

import tracing  # noqa: E402  (numpy loads after the thread pinning)
import workloads  # noqa: E402

SETUP_REPEATS = 2  # plus the loop's own interpreter: three set-ups a run
RUN_LIMIT_S = 170  # every child is stopped by then, so a run ends within 180 s


def _run(cmd, deadline, env=None):
    """Run a child in its own process group; past the deadline the whole
    group, grandchildren included, is killed and waited for."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{cmd} did not finish within the run limit") from None
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def _child(args, deadline, env=None):
    return _run([sys.executable, str(HERE / "child.py"), *args], deadline, env)


def _setup_probe(work: Path, config: str, deadline, env=None):
    """Import dsdprior and run one small pipeline in a fresh interpreter."""
    out = _child(["setup", "--src", str(SRC), "--config", config, "--out", str(work / "warm")], deadline, env)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _import_time(deadline):
    """Cumulative import time of dsdprior from ``python -X importtime``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = _run([sys.executable, "-X", "importtime", "-c", "import dsdprior.cli"], deadline, env)
    total_us = 0
    for line in out.stderr.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \| (\S.*)$", line)
        if match and match.group(2).startswith("dsdprior"):
            total_us += int(match.group(1))
    return total_us * 1e-6


def _loop(plan_path: Path, work: Path, seconds, trace, deadline):
    result_path = work / f"result{trace}.json"
    out = _child(
        ["loop", "--plan", str(plan_path), "--seconds", str(seconds), "--trace", str(trace),
         "--result", str(result_path)],
        deadline,
    )
    if out.returncode != 0:
        raise RuntimeError(f"workload loop failed:\n{out.stderr}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _largest(records, key, probes):
    """The largest error over the requests and the accuracy probes; 1.0
    (and a failed check) when none of them produced one."""
    values = [r[key] for r in [*records, *probes.values()] if key in r]
    return max(values) if values else 1.0


def _end_to_end(run, setups):
    records = run["records"]
    latencies = [r["latency_s"] for r in records]
    tail, percentile, beyond = stats.tail_latency(latencies)
    ok = sum(r["ok"] for r in records)
    metrics = {
        "setup_s": (statistics.median(s["import_s"] + s["first_call_s"] for s in setups), "s"),
        "throughput_rps": (ok / run["wall_s"], "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail, "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "scale_rel_err": (_largest(records, "scale_rel_err", run["probes"]), "1"),
        "quantile_rel_err": (_largest(records, "quantile_rel_err", run["probes"]), "1"),
    }
    extra = {
        "failed_frac": stats.failed_frac(records),
        "latency_tail_percentile": percentile,
        "latency_tail_samples_beyond": beyond,
        "requests": len(records),
        "cpu_p50_s": statistics.median(r["cpu_s"] for r in records),
    }
    return metrics, extra


def _per_layer(untraced, traced, setup, import_s):
    records = traced["records"]
    wall = sum(r["latency_s"] for r in records)
    layer = tracing.summarize(traced["spans"], len(records), wall)
    k = min(len(untraced["records"]), len(records))
    base = sum(r["latency_s"] for r in untraced["records"][:k])
    layer["trace.overhead_frac"] = sum(r["latency_s"] for r in records[:k]) / base - 1.0
    layer["setup.import_s"] = import_s
    layer["setup.first_call_s"] = setup["first_call_s"]
    return {name: (value, unit_of(name)) for name, value in layer.items()}


def unit_of(name):
    if name.endswith(("_s", ".self_s")):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "1"
    if name.endswith("us_per_point"):
        return "us"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def _report(label, payload):
    print(f"{label}: {json.dumps(payload, sort_keys=True)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dsdprior" / "cli.py").is_file():
        print(f"error: no dsdprior sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        sys.path.insert(0, str(SRC))
        plan = workloads.prepare(args.workload, args.seed, work, SRC)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        machine = facts.collect(ROOT, args.seed, THREADS_BEFORE)
        setup_config = plan["setup_config"]
        if args.trace:
            default_env = {k: v for k, v in os.environ.items() if k not in facts.THREAD_VARS}
            default_env.update({k: v for k, v in THREADS_BEFORE.items() if v is not None})
            at_default = _setup_probe(work, setup_config, deadline, default_env)
            machine["setup_s_default_threads"] = at_default["import_s"] + at_default["first_call_s"]
            setup = _setup_probe(work, setup_config, deadline)
            import_s = _import_time(deadline)
            untraced = _loop(plan_path, work, args.seconds / 2.0, 0, deadline)
            traced = _loop(plan_path, work, args.seconds / 2.0, 1, deadline)
            metrics = _per_layer(untraced, traced, setup, import_s)
            runs = (untraced, traced)
            _report("absent", traced["absent"])
        else:
            setups = [_setup_probe(work, setup_config, deadline) for _ in range(SETUP_REPEATS)]
            run = _loop(plan_path, work, args.seconds, 0, deadline)
            metrics, extra = _end_to_end(run, [*setups, run["setup"]])
            runs = (run,)
            _report("extra", extra)
            _report("probes", {
                "b_ref_crw2_366_c5.16": plan["b_ref_probe"],
                "b_crw2_366_c5.16": run["probes"]["scale"].get("b"),
                "set_up_runs_s": [s["import_s"] + s["first_call_s"] for s in [*setups, run["setup"]]],
                "probe_errors": {k: v["errors"] for k, v in run["probes"].items()},
            })
        if plan["identity_share"] is not None:
            machine["identity_design_share"] = plan["identity_share"]
        _report("facts", machine)
        records = [r for run in runs for r in run["records"]]
        failures = [r for r in records if not r["ok"]]
        checked = [p for run in runs for p in [run["warmup"], *run["probes"].values()] if p]
        probes_ok = all(p["ok"] for p in checked)
        for record in failures[:5]:
            _report("failure", {"index": record["index"], "errors": record["errors"]})
        for name, (value, unit) in metrics.items():
            print(f"{args.workload} {name} = {value:.6g} {unit}")
        print(json.dumps({
            "correct": not failures and probes_ok,
            "attempted": len(records),
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
