"""Fresh-interpreter entry points of the benchmark.

    child.py setup  --src SRC --config WARMUP --out DIR
        import dsdprior and run one small pipeline; print the two times
    child.py loop   --plan PLAN --seconds S --trace 0|1 --result FILE
        the closed loop of one workload, one request at a time
    child.py verify --src SRC --config CFG --out DIR [--spans FILE]
        ``dsdprior verify`` in this interpreter, optionally traced
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
VERIFY_TIMEOUT_S = 170


def _first_call(src, config, out):
    """Import dsdprior and run the small set-up pipeline once; this is
    what a fresh interpreter pays before its first answer."""
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from dsdprior import cli

    t1 = time.perf_counter()
    rc = cli.main(["pipeline", "--config", config, "--out", out])
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "first_call_s": t2 - t1, "rc": rc}


def _setup(args):
    timing = _first_call(args.src, args.config, args.out)
    print(json.dumps(timing))
    return 0 if timing["rc"] == 0 else 1


def _verify(args):
    sys.path.insert(0, args.src)
    from dsdprior import cli

    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        return cli.main(["verify", "--config", args.config, "--out", args.out])
    finally:
        if tracer is not None:
            tracer.dump(args.spans)


def _cpu_s():
    """CPU time of this process and of its finished children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


class _Runner:
    """Sends one request of the plan and checks its outputs."""

    def __init__(self, plan, trace):
        self.setup = _first_call(plan["src"], plan["setup_config"], str(Path(plan["work"]) / "warm"))
        import workloads
        from dsdprior import cli, priors

        self.w = workloads
        self.src = plan["src"]
        self.cli = cli
        self.priors = priors
        self.trace = trace
        self.sub_spans = []

    def act(self, req, index):
        """The user action, timed; returns what the check needs."""
        if req["kind"] == "pipeline":
            return self.w.run_pipeline(req, self.cli)
        if req["kind"] in ("curve", "quantiles"):
            return self.w.run_curve(req, self.priors)
        cmd = [sys.executable, str(HERE / "child.py"), "verify", "--src", self.src]
        cmd += ["--config", req["config"], "--out", req["out"]]
        spans = Path(req["out"]).parent / f"spans{index}.json"
        if self.trace:
            cmd += ["--spans", str(spans)]
        rc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=VERIFY_TIMEOUT_S).returncode
        if self.trace and spans.exists():
            self.sub_spans.append((index, json.loads(spans.read_text(encoding="utf-8"))))
            spans.unlink()
        return rc

    def check(self, req, result):
        if req["kind"] == "pipeline":
            return self.w.check_pipeline(req, result)
        if req["kind"] in ("curve", "quantiles"):
            return self.w.check_curve(req, result)
        return self.w.check_verify(req, result)

    def request(self, req, index):
        t0, c0 = time.perf_counter(), _cpu_s()
        try:
            result = self.act(req, index)
            latency, cpu = time.perf_counter() - t0, _cpu_s() - c0
            ok, errors, extras = self.check(req, result)
        except Exception:  # a failed request is recorded, the loop goes on
            latency, cpu = time.perf_counter() - t0, _cpu_s() - c0
            ok, errors, extras = False, [traceback.format_exc(limit=3)], {}
        return {"index": index, "latency_s": latency, "cpu_s": cpu, "ok": ok, "errors": errors, **extras}


def _loop(args):
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    runner = _Runner(plan, args.trace)
    warm = runner.request(plan["warmup"], -1) if plan["warmup"] else None

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    requests, cycle = plan["requests"], plan["cycle"]
    records = []
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < args.seconds or index % cycle:
        if tracer is not None:
            tracer.request = index
        records.append(runner.request(requests[index % len(requests)], index))
        index += 1
    wall = time.perf_counter() - start

    spans, absent = [], []
    if tracer is not None:
        spans, absent = tracer.spans, tracer.absent
        for index, sub in runner.sub_spans:
            offset = len(spans)
            for span in sub["spans"]:
                if span["parent"] is not None:
                    span["parent"] += offset
                span["request"] = index
                spans.append(span)
            absent = sorted(set(absent) | set(sub["absent"]))
    probes = {}
    if not args.trace:
        probes = {name: runner.request(req, -1) for name, req in plan["probes"].items() if req}

    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "records": records,
        "wall_s": wall,
        "setup": runner.setup,
        "warmup": warm,
        "probes": probes,
        "peak_rss_mb": max(usage_self, usage_children) / 1024.0,
        "spans": spans,
        "absent": absent,
    }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--src", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p = sub.add_parser("loop")
    p.add_argument("--plan", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True)
    p = sub.add_parser("verify")
    p.add_argument("--src", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    return {"setup": _setup, "loop": _loop, "verify": _verify}[args.mode](args)


if __name__ == "__main__":
    raise SystemExit(main())
