"""The four workloads: inputs made from the seed, the request each one
sends, and the checks each request must pass.

A plan is plain JSON: the loop process reads it, so it holds paths and
numbers, never library objects.  Elicitation goes only through CLI
config keys (``c`` or ``likelihood``); Monte Carlo settings are left at
their defaults.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import numpy as np
from scipy.stats import norm

import reference

HERE = Path(__file__).resolve().parent
ICAR_SMALL = HERE / "data" / "icar_small.edges"

WORKLOADS = ("pipeline-mix", "large-structure", "prior-curves", "verify-battery")

# the paper's seasonal example, used by the accuracy probes
PROBE_N = 366
PROBE_C = 5.16

SCALE_TOL = 0.01  # Monte Carlo b against b_ref; its standard error is ~0.25%
QUANTILE_TOL = 1e-6
MASS_TOL = 1e-6
SAMPLE_MEDIAN_TOL = 0.03  # 100k draws: ~5 standard errors of the median
CURVE_PROBS = (0.025, 0.5, 0.975)
GRID_POINTS = 512
SAMPLE_COUNT = 100_000


def _write_json(path: Path, payload):
    path.write_text(json.dumps(payload, indent=1), encoding="utf-8")


def _pseudo_variance(kind, mean):
    """c for a binomial likelihood with the given response mean."""
    if kind == "binomial_logit":
        return 1.0 / (mean * (1.0 - mean))
    density = float(norm.pdf(norm.ppf(mean)))
    return mean * (1.0 - mean) / (density * density)


def _elicitation(rng):
    """Half the requests give c, half a logit or probit response mean."""
    if rng.random() < 0.5:
        c = float(rng.uniform(0.5, 10.0))
        return {"c": c}, c
    kind = ("binomial_logit", "binomial_probit")[int(rng.integers(2))]
    mean = float(rng.uniform(0.05, 0.95))
    return {"likelihood": {"kind": kind, "value": mean}}, _pseudo_variance(kind, mean)


def lattice_edges(n, rng):
    """A connected rows x cols lattice of about n regions plus seeded
    diagonal neighbours on ~5% of the cells."""
    rows = max(2, int(round(math.sqrt(n))))
    cols = max(2, n // rows)
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
                if c + 1 < cols and rng.random() < 0.05:
                    edges.append((v, v + cols + 1))
    return rows * cols, edges


def _write_edges(path: Path, edges):
    path.write_text("".join(f"{i} {j}\n" for i, j in edges), encoding="utf-8")


def _write_selection(path: Path, n_g, n_obs, rng):
    """A one-hot selection design, every region observed at least once,
    as a dense Matrix Market array (column-major, one entry a line)."""
    regions = np.concatenate([rng.permutation(n_g), rng.integers(0, n_g, n_obs - n_g)])
    regions = rng.permutation(regions)
    z = np.zeros((n_obs, n_g), dtype=np.uint8)
    z[np.arange(n_obs), regions] = 1
    body = (z.T.reshape(-1) + ord("0")).astype(np.uint8)
    lines = np.full(2 * body.size, ord("\n"), dtype=np.uint8)
    lines[0::2] = body
    with open(path, "wb") as fh:
        fh.write(f"%%MatrixMarket matrix array real general\n{n_obs} {n_g}\n".encode())
        fh.write(lines.tobytes())


class _Refs:
    """b_ref per predictor length, computed once per plan."""

    def __init__(self):
        self._q = {}

    def b(self, n, c):
        if n not in self._q:
            self._q[n] = reference.benchmark_quantile(n)
        return c / self._q[n]


def _pipeline_request(work: Path, name, structure, design, n, elicitation, c, refs, identity):
    config = work / f"{name}.json"
    _write_json(config, {"structure": structure, "design": design, "elicitation": elicitation})
    return {
        "kind": "pipeline",
        "config": str(config),
        "out": str(work / "out"),
        "n": n,
        "b_ref": refs.b(n, c),
        "identity": identity,
    }


def _pipeline_mix(work: Path, rng, refs, count=120):
    shutil.copy(ICAR_SMALL, work / ICAR_SMALL.name)
    x = np.linspace(-1.0, 1.0, 50).tolist()
    components = (
        ({"recipe": "crw2 366"}, {"kind": "identity"}, PROBE_N),
        ({"recipe": f"icar {ICAR_SMALL.name}"}, {"kind": "identity"}, 30),
        ({"recipe": "rw2 20"}, {"kind": "basis", "x": x, "m": 20}, 50),
    )
    requests = []
    for i in range(count):
        structure, design, n = components[i % len(components)]
        elicitation, c = _elicitation(rng)
        requests.append(
            _pipeline_request(
                work, f"req{i}", structure, design, n, elicitation, c, refs, design["kind"] == "identity"
            )
        )
    return requests, len(components)


# (structure, selection design?, window of n_g) for the four slots of a
# cycle: n covers [1000, 2000] by strata, and each window is narrow
# because the cost grows as n^3
LARGE_SLOTS = (
    ("crw2", False, (1000, 1030)),
    ("rw1", True, (1300, 1330)),
    ("icar", False, (1600, 1630)),
    ("crw2", True, (1970, 2000)),
)
SELECTION_EXTRA = 0.2  # selection designs map 20% more observations than regions


def _large_structure(work: Path, rng, refs, cycles=2):
    requests = []
    for k in range(cycles * len(LARGE_SLOTS)):
        kind, selection, (lo, hi) = LARGE_SLOTS[k % len(LARGE_SLOTS)]
        n_g = int(rng.integers(lo, hi + 1))
        if kind == "icar":
            n_g, edges = lattice_edges(n_g, rng)
            _write_edges(work / f"lattice{k}.edges", edges)
            structure = {"recipe": f"icar lattice{k}.edges"}
        else:
            structure = {"recipe": f"{kind} {n_g}"}
        if selection:
            n_obs = int(round(n_g * (1.0 + SELECTION_EXTRA)))
            _write_selection(work / f"design{k}.mtx", n_g, n_obs, rng)
            design = {"kind": "selection", "path": f"design{k}.mtx"}
        else:
            n_obs = n_g
            design = {"kind": "identity"}
        elicitation, c = _elicitation(rng)
        requests.append(
            _pipeline_request(work, f"req{k}", structure, design, n_obs, elicitation, c, refs, not selection)
        )
    return requests, len(LARGE_SLOTS)


def derive_theta(kind, size, c, refs, rng=None):
    """Prior parameters of a real component: quadratic-form weights, the
    Gamma fit and b_ref.  Returns theta as a plain dict."""
    from dsdprior import qf, structure

    if kind == "crw2":
        spec, design = structure.build_rw(order=2, n_g=size, circular=True), None
    elif kind == "bspline":
        design = structure.build_bspline_basis(np.linspace(-1.0, 1.0, 50), m=size)
        spec = structure.build_rw(order=2, n_g=size)
    elif kind == "iid":
        spec, design = structure.StructureSpec(precision=np.eye(size), rank_deficiency=0), None
    elif kind == "icar":
        n_g, edges = lattice_edges(size, rng)
        adjacency = np.zeros((n_g, n_g))
        for i, j in edges:
            adjacency[i, j] = adjacency[j, i] = 1.0
        spec, design = structure.build_icar(adjacency), None
    else:
        raise ValueError(f"unknown component kind {kind!r}")
    if design is None:
        design = structure.DesignMatrix.identity(spec.n_g)
    weights = structure.qf_weights(design, spec, constrained=spec.rank_deficiency > 0)
    fit = qf.gamma_approx(weights)
    shape = 0.5 * (design.n - 1)
    return {
        "alpha": shape,
        "beta": shape,
        "alpha_tilde": fit.alpha_tilde,
        "beta_tilde": fit.beta_tilde,
        "b": refs.b(design.n, c),
        "p": 0.5,
        "q": 1.5,
    }


# the prior-curves pool: one prior per slot, from a component of the given
# kind and size.  The sizes spread over crw2 n in [100, 2500], B-spline m
# in [5, 30], iid and ICAR, and are fixed so that every seed sends the same
# mix of curve costs; the seed draws each prior's scale, the ICAR graphs
# and the sample seeds.  A run sends whole passes over the pool.
CURVE_SLOTS = (
    ("crw2", 200),
    ("bspline", 6),
    ("iid", 45),
    ("icar", 45),
    ("crw2", 1400),
    ("bspline", 26),
    ("iid", 400),
    ("icar", 310),
)


def _curve_request(theta, label, sample_seed, kind="curve"):
    """The quickstart on one prior; kind "quantiles" stops after the
    quantiles, which is all an accuracy probe needs."""
    return {
        "kind": kind,
        "theta": theta,
        "label": label,
        "ref_q": [reference.dsd_quantile(u, theta) for u in CURVE_PROBS],
        "sample_seed": sample_seed,
    }


def _prior_curves(work: Path, rng, refs):
    requests = []
    for kind, size in CURVE_SLOTS:
        theta = derive_theta(kind, size, float(rng.uniform(0.5, 10.0)), refs, rng)
        requests.append(_curve_request(theta, f"{kind}({size})", int(rng.integers(2**31))))
    return requests, len(requests)


def _verify_battery(work: Path, rng, refs, count=20):
    requests = []
    for i in range(count):
        config = work / f"verify{i}.json"
        _write_json(config, {"seed": int(rng.integers(2**31))})
        requests.append({"kind": "verify", "config": str(config), "out": str(work / "out")})
    return requests, 1


_BUILDERS = {
    "pipeline-mix": _pipeline_mix,
    "large-structure": _large_structure,
    "prior-curves": _prior_curves,
    "verify-battery": _verify_battery,
}


def setup_config(work: Path):
    """The small pipeline every fresh interpreter runs once in set-up."""
    config = work / "setup.json"
    _write_json(
        config,
        {"structure": {"recipe": "crw2 50"}, "design": {"kind": "identity"}, "elicitation": {"c": 1.0}},
    )
    return config


def prepare(workload, seed, work: Path, src: Path):
    """Write the workload's inputs under ``work`` and return its plan."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    refs = _Refs()
    requests, cycle = _BUILDERS[workload](work, rng, refs)
    # accuracy probes after the timed loop keep both error metrics defined
    # on every workload; the curve probe is left out where requests build
    # curves, and warms that workload up instead
    scale_probe = _pipeline_request(
        work, "probe", {"recipe": f"crw2 {PROBE_N}"}, {"kind": "identity"}, PROBE_N,
        {"c": PROBE_C}, PROBE_C, refs, True,
    )
    probe_theta = derive_theta("crw2", PROBE_N, PROBE_C, refs)
    curve_probe = _curve_request(probe_theta, f"crw2({PROBE_N})", 0, kind="quantiles")
    kind = requests[0]["kind"]
    return {
        "workload": workload,
        "seed": seed,
        "src": str(src),
        "work": str(work),
        "cycle": cycle,
        "requests": requests,
        # a request outside the pool, so no cache the library keeps is
        # filled with a timed request's inputs before the loop starts
        "warmup": scale_probe if kind == "pipeline" else curve_probe if kind == "curve" else None,
        "setup_config": str(setup_config(work)),
        "probes": {"scale": scale_probe, "curve": None if kind == "curve" else curve_probe},
        "b_ref_probe": refs.b(PROBE_N, PROBE_C),
        "identity_share": float(np.mean([r.get("identity", False) for r in requests]))
        if kind == "pipeline"
        else None,
    }


# ---------------------------------------------------------------------------
# requests and their checks; each returns (ok, errors, extras)


def _finite_positive(value):
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0


def check_pipeline(req, rc):
    errors = []
    if rc != 0:
        return False, [f"exit code {rc}"], {}
    bundle = json.loads((Path(req["out"]) / "bundle.json").read_text(encoding="utf-8"))
    t = bundle["params"]
    names = ("alpha", "beta", "alpha_tilde", "beta_tilde", "b", "p", "q")
    if not all(_finite_positive(t.get(k)) for k in names):
        return False, ["params not finite and positive"], {}
    if t["p"] > t["alpha_tilde"]:
        errors.append("p > alpha_tilde")
    if not t["p"] < 1.0 + t["alpha"]:
        errors.append("p >= 1 + alpha")
    shape = 0.5 * (req["n"] - 1)
    if t["alpha"] != shape or t["beta"] != shape:
        errors.append("alpha, beta differ from (n - 1) / 2")
    weights = bundle["weights"]
    if not weights or not all(_finite_positive(w) for w in weights):
        errors.append("weights not finite and positive")
    rel = abs(t["b"] - req["b_ref"]) / req["b_ref"]
    if rel > SCALE_TOL:
        errors.append(f"b={t['b']:.6g} is {rel:.2e} from b_ref={req['b_ref']:.6g}")
    return not errors, errors, {"scale_rel_err": rel, "b": t["b"]}


def run_pipeline(req, cli):
    return cli.main(["pipeline", "--config", req["config"], "--out", req["out"]])


def run_curve(req, priors):
    """The README quickstart on one prior."""
    theta = priors.DsdParams(**req["theta"])
    curve = priors.dsd_cdf_quantile(theta)
    q = np.asarray(curve.quantile(np.array(CURVE_PROBS)))
    if req["kind"] == "quantiles":
        return curve.diagnostics["total_mass"], q, None, None
    lo, hi = curve.quantile(1e-3), curve.quantile(1.0 - 1e-3)
    s = np.exp(np.linspace(math.log(lo), math.log(hi), GRID_POINTS))
    pdf = priors.dsd_pdf(s, theta)
    draws = priors.dsd_sample(theta, SAMPLE_COUNT, seed=req["sample_seed"])
    return curve.diagnostics["total_mass"], q, np.asarray(pdf), np.asarray(draws)


def check_curve(req, result):
    mass, q, pdf, draws = result
    errors = []
    if not abs(mass - 1.0) <= MASS_TOL:
        errors.append(f"total_mass {mass!r}")
    if not (np.all(np.isfinite(q)) and np.all(np.diff(q) > 0.0)):
        return False, ["quantiles not finite and increasing"], {}
    rel = float(np.max(np.abs(q / np.array(req["ref_q"]) - 1.0)))
    if rel > QUANTILE_TOL:
        errors.append(f"quantile error {rel:.2e}")
    if pdf is None:
        return not errors, errors, {"quantile_rel_err": rel}
    if not (np.all(np.isfinite(pdf)) and np.all(pdf >= 0.0) and np.any(pdf > 0.0)):
        errors.append("density grid not finite and nonnegative")
    if draws.shape != (SAMPLE_COUNT,) or not np.all(np.isfinite(draws) & (draws > 0.0)):
        errors.append("samples not finite and positive")
    elif abs(np.median(draws) / req["ref_q"][1] - 1.0) > SAMPLE_MEDIAN_TOL:
        errors.append("sample median far from the reference median")
    return not errors, errors, {"quantile_rel_err": rel}


def check_verify(req, rc):
    if rc != 0:
        return False, [f"exit code {rc}"], {}
    report = json.loads((Path(req["out"]) / "verify.json").read_text(encoding="utf-8"))
    errors = []
    if report.get("all_passed") is not True:
        errors.append("all_passed is not true")
    if not all(math.isfinite(c["statistic"]) for c in report.get("checks", [])):
        errors.append("non-finite check statistic")
    return not errors, errors, {}
