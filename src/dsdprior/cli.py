"""Command line front end: dsdprior <command> --config FILE --out DIR.

Each command reads one JSON config file, writes fixed-name outputs into
the --out directory, and finishes with a manifest.json recording library
versions, numpy's and scipy's BLAS builds, the BLAS thread variables,
the effective settings, and SHA-256 digests of every input (keyed by its
spelling in the config) and output file. Outputs never depend on the
clock or the output directory, so rerunning a command with the same
config in the same environment produces byte-identical files.

Every input has one source. Seeds, draw counts, grid sizes and all model
inputs are config keys; the only flags are --config and --out, which one
parser requires of every command (--help lists the commands). Integer
keys and recipe sizes (read as JSON numbers) accept 30 or 30.0 but not
2.7, 1_000 or true.

Exit codes: 0 success, 1 bad usage or bad config, 2 numerical failure
(the error message and any solver diagnostics go to stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy
from scipy.sparse import csr_array, eye_array
from scipy.special import erf

from . import __version__
from ._checks import integer
from ._io import (
    dump_json,
    load_json,
    read_matrix_market,
    sha256_file,
    write_csv,
    write_matrix_market,
)
from ._quad import ConvergenceError
from .elicit import ElicitationSpec, build_dsd_prior, pseudo_variance, solve_scale
from .priors import (
    B2Params,
    DsdParams,
    TwoF0Params,
    b2_pdf,
    dsd_cdf_quantile,
    dsd_pdf,
    dsd_sample,
    integral_equation_residual,
    twoF0_sample,
)
from .qf import gamma_approx, ruben_cdf, sample_v
from .structure import (
    DesignMatrix,
    QfWeights,
    StructureSpec,
    build_bspline_basis,
    build_icar,
    build_rw,
    qf_weights,
)

__all__ = ["main"]


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit on bad usage; route it through the
    # normal validation-error path instead so main() owns the exit code.
    def error(self, message):
        raise _UsageError(message)


@dataclass
class _RunContext:
    """Bookkeeping for one command invocation: where to resolve config
    relative paths, where outputs go, and the digest trail that ends up
    in the manifest."""

    cfg_dir: Path
    out_dir: Path
    settings: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)

    def input(self, spelling, name) -> Path:
        """The file a config names: a JSON string, resolved against the
        config's directory (an absolute spelling stays absolute) and
        digested in the manifest under that spelling."""
        if not isinstance(spelling, str):
            raise ValueError(f"{name} must be a file path, got {spelling!r}")
        path = self.cfg_dir / spelling
        self.inputs[spelling] = sha256_file(path)
        return path

    def output(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return self.out_dir / name


def _require(cfg, key, where="config", default=None):
    """cfg[key], or the default when one is given and the key is absent;
    the one place a config is checked to be a JSON object."""
    if not isinstance(cfg, dict):
        raise ValueError(f"{where} must be a JSON object")
    if key in cfg:
        return cfg[key]
    if default is None:
        raise ValueError(f"{where} is missing required key {key!r}")
    return default


def _as_integer(name, value, minimum=None):
    """value under the library's integer rule once JSON's integral floats
    such as 30.0 are ints: 2.7 and booleans still fail."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return integer(name, value, minimum)


def _integer(cfg, key, default=None, where="config", minimum=None):
    """_require's value as an integer of at least minimum."""
    return _as_integer(f"{where} key {key!r}", _require(cfg, key, where, default), minimum)


# ---------------------------------------------------------------------------
# config -> library objects


def _read_edge_list(path: Path) -> csr_array:
    """Whitespace-separated '<i> <j>' vertex pairs, 0-based, one edge per
    line; '#' starts a comment. Vertex count is the largest index + 1.
    An edge listed twice, or both ways, is one edge of the sparse W."""
    pairs = []
    for line_no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or not all(re.fullmatch(r"[+-]?\d+", p) for p in parts):
            raise ValueError(f"{path.name}:{line_no}: expected two integer indices, got {raw!r}")
        i, j = (int(p) for p in parts)
        if i < 0 or j < 0:
            raise ValueError(f"{path.name}:{line_no}: vertex indices must be nonnegative")
        if i == j:
            raise ValueError(f"{path.name}:{line_no}: self loops are not allowed")
        pairs.append((i, j))
    if not pairs:
        raise ValueError(f"{path.name}: edge list is empty")
    i, j = np.unique(np.sort(pairs, axis=1), axis=0).T
    n = int(j.max()) + 1
    return csr_array((np.ones(2 * i.size), (np.r_[i, j], np.r_[j, i])), shape=(n, n))


def _load_structure(cfg, ctx: _RunContext) -> StructureSpec:
    recipe = _require(cfg, "recipe", "structure config")
    parts = str(recipe).split()
    if len(parts) != 2:
        raise ValueError(f"structure recipe must be '<kind> <argument>', got {recipe!r}")
    head, arg = parts
    walk = re.fullmatch(r"(c?)rw([12])", head)
    if walk or head == "iid":
        try:
            # the size reads as a JSON number, so "20.0" is 20 and "1_000" fails
            size = json.loads(arg)
        except ValueError:
            size = arg
        try:
            # build_rw holds the walks' minimum size
            n_g = _as_integer("size", size, None if walk else 1)
            if walk:
                return build_rw(order=int(walk.group(2)), n_g=n_g, circular=bool(walk.group(1)))
        except ValueError as exc:
            raise ValueError(f"structure recipe {recipe!r}: {exc}") from None
        return StructureSpec(eye_array(n_g, format="csr"), rank_deficiency=0, label=f"iid({n_g})")
    if head == "icar":
        return build_icar(_read_edge_list(ctx.input(arg, "structure recipe")))
    if head == "file":
        # a matrix file does not record its rank deficiency; the config must
        kappa = _integer(cfg, "rank_deficiency", where="structure config")
        path = ctx.input(arg, "structure recipe")
        return StructureSpec(read_matrix_market(path), kappa, label=f"file({path.name})")
    raise ValueError(f"unknown structure recipe {head!r}")


def _load_design(cfg, ctx: _RunContext, n_g: int) -> DesignMatrix:
    kind = _require(cfg, "kind", "design config")
    if kind == "identity":
        return DesignMatrix.identity(n_g)
    if "values" in cfg:
        return DesignMatrix(values=cfg["values"], kind=kind)
    if "path" in cfg:
        path = ctx.input(cfg["path"], "design config key 'path'")
        return DesignMatrix(values=read_matrix_market(path), kind=kind)
    if kind == "basis" and "x" in cfg:
        return build_bspline_basis(
            cfg["x"],
            m=_integer(cfg, "m", where="design config"),
            degree=_integer(cfg, "degree", 3, "design config"),
            bounds=cfg.get("bounds"),
        )
    raise ValueError("design config needs 'values', 'path', or a basis recipe with 'x' and 'm'")


def _parse_elicitation(cfg, default_n=None) -> ElicitationSpec:
    n = _integer(cfg, "n", default_n, "elicitation config")
    has_c = "c" in cfg
    has_likelihood = "likelihood" in cfg
    if has_c == has_likelihood:
        raise ValueError("give exactly one of 'c' or 'likelihood' in the elicitation config")
    if has_c:
        c = cfg["c"]
    else:
        lk = cfg["likelihood"]
        c = pseudo_variance(
            _require(lk, "kind", "likelihood config"), _require(lk, "value", "likelihood config")
        )
    # p, q and pi0 fall back to the defaults ElicitationSpec declares
    given = {key: cfg[key] for key in ("p", "q", "pi0") if key in cfg}
    return ElicitationSpec(n=n, c=c, **given)


def _load_params(cfg) -> DsdParams:
    params = _require(cfg, "params")
    values = {f.name: _require(params, f.name, "params config") for f in fields(DsdParams)}
    unknown = sorted(set(params) - set(values))
    if unknown:
        raise ValueError(f"params config has unknown keys {unknown}")
    return DsdParams(**values)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_structure(cfg, ctx: _RunContext):
    spec = _load_structure(cfg, ctx)
    write_matrix_market(ctx.output("structure.mtx"), spec.precision)
    dump_json(
        {"label": spec.label, "n_g": spec.n_g, "rank_deficiency": spec.rank_deficiency},
        ctx.output("structure.json"),
    )


def _cmd_weights(cfg, ctx: _RunContext):
    spec = _load_structure(_require(cfg, "structure"), ctx)
    design = _load_design(_require(cfg, "design"), ctx, spec.n_g)
    constrained = spec.rank_deficiency > 0
    weights = qf_weights(design, spec, constrained=constrained)
    labels = {"constrained": constrained, "design_kind": design.kind, "structure_label": spec.label}
    dump_json({**asdict(weights), **labels}, ctx.output("weights.json"))


def _cmd_approx(cfg, ctx: _RunContext):
    doc = load_json(ctx.input(_require(cfg, "weights"), "config key 'weights'"))
    weights = QfWeights(
        weights=_require(doc, "weights", "weights document"),
        n_predictor=_integer(doc, "n_predictor", where="weights document"),
        zero_count=_integer(doc, "zero_count", where="weights document"),
    )
    fit = gamma_approx(weights)
    dump_json({**asdict(fit), "n_predictor": weights.n_predictor}, ctx.output("approx.json"))


def _cmd_elicit(cfg, ctx: _RunContext):
    spec = _parse_elicitation(cfg)
    dump_json({**asdict(spec), **asdict(solve_scale(spec))}, ctx.output("elicit.json"))


def _cmd_prior(cfg, ctx: _RunContext):
    theta = _load_params(cfg)
    points = ctx.settings["grid_points"] = _integer(cfg, "grid_points", 512, minimum=2)
    curve = dsd_cdf_quantile(theta)
    lo, hi = curve.quantile(np.array([1e-3, 1.0 - 1e-3]))
    s = np.exp(np.linspace(math.log(lo), math.log(hi), points))
    pdf = dsd_pdf(s, theta)
    write_csv(ctx.output("prior_grid.csv"), ("s", "pdf", "cdf"), (s, pdf, curve.cdf(s)))
    # the sd t = sqrt(s) has density 2 t f(t^2) = 2 t f(s)
    t = np.sqrt(s)
    write_csv(ctx.output("prior_sd_grid.csv"), ("sd", "pdf"), (t, 2.0 * t * pdf))


def _cmd_sample(cfg, ctx: _RunContext):
    theta = _load_params(cfg)
    count = _integer(cfg, "count")
    seed = ctx.settings["seed"] = _integer(cfg, "seed", 0)
    write_csv(ctx.output("samples.csv"), ("s",), (dsd_sample(theta, count, seed=seed),))


def _cmd_pipeline(cfg, ctx: _RunContext):
    spec = _load_structure(_require(cfg, "structure"), ctx)
    design = _load_design(_require(cfg, "design"), ctx, spec.n_g)
    elic = _parse_elicitation(_require(cfg, "elicitation"), default_n=design.n)
    prior = build_dsd_prior(design, spec, elic)
    dump_json(
        {
            "label": prior.label,
            "params": asdict(prior.params),
            "scale": asdict(prior.scale),
            **asdict(prior.weights),
            "provenance": prior.provenance,
        },
        ctx.output("bundle.json"),
    )


def _cmd_verify(cfg, ctx: _RunContext):
    """Invariant battery: closed-form reductions, normalization of the
    numeric evaluator, the defining mixture identity, and the scale solve
    and the weighted chi-square distribution against Monte Carlo. Writes
    verify.json and fails with the numerical exit code if any check
    misses its bound."""
    # the distributional checks need at least 1000 draws
    mc_draws = ctx.settings["mc_draws"] = _integer(cfg, "mc_draws", 200_000, minimum=1000)
    seed = ctx.settings["seed"] = _integer(cfg, "seed", 0)

    checks = []

    def record(name, statistic, threshold):
        statistic = float(statistic)
        checks.append(
            {
                "name": name,
                "statistic": statistic,
                "threshold": float(threshold),
                "passed": bool(statistic <= threshold),
            }
        )

    normalization_sets = (
        DsdParams(24.5, 24.5, 1.43, 0.061, 1.0, 0.5, 1.5),
        DsdParams(1017.0, 1017.0, 0.735, 1.4e-4, 26.5, 0.5, 1.5),
        DsdParams(5.0, 5.0, 3.0, 2.0, 0.1, 2.5, 0.8),
        DsdParams(24.5, 24.5, 1.43, 0.061, 1.0, 1.42, 1.5),
    )
    for index, theta in enumerate(normalization_sets):
        curve = dsd_cdf_quantile(theta)
        record(f"normalization[{index}]", abs(curve.diagnostics["total_mass"] - 1.0), 1e-6)

    s = np.exp(np.linspace(math.log(1e-4), math.log(1e4), 50))
    iid = DsdParams(24.5, 24.5, 24.5, 24.5, 1.0, 0.5, 1.5)
    rel = np.abs(dsd_pdf(s, iid) / b2_pdf(s, B2Params(1.0, 0.5, 1.5)) - 1.0)
    record("reduction[iid]", rel.max(), 1e-10)

    boundary = DsdParams(24.5, 24.5, 1.43, 0.061, 1.0, 1.43, 1.5)
    base = B2Params(1.0 * 0.061 / 24.5, 24.5, 1.5)
    rel = np.abs(dsd_pdf(s, boundary) / b2_pdf(s, base) - 1.0)
    record("reduction[boundary]", rel.max(), 1e-10)

    generic = normalization_sets[0]
    marginal = TwoF0Params(generic.alpha, generic.beta, generic.b, generic.p, generic.q)
    draws = twoF0_sample(marginal, min(mc_draws, 100_000), seed=seed)
    v_grid = np.quantile(draws, np.linspace(0.01, 0.99, 15))
    record("residual[generic]", integral_equation_residual(generic, v_grid).max(), 1e-4)

    # the same unit-scale draws (n = 50, p = 1/2, q = 3/2) must fall below
    # the solved pi0-quantile with probability pi0
    solved = solve_scale(ElicitationSpec(n=50, c=1.0, pi0=0.5))
    share = np.mean(draws <= solved.quantile)
    record("scale-solve[mc]", abs(share - solved.pi0), 2.5 / math.sqrt(draws.size))

    # same identity on fitted penalized-spline components: cubic bases
    # over 50 points, second-order walk penalty, constrained
    x = np.linspace(-1.0, 1.0, 50)
    for m in (5, 20):
        basis = build_bspline_basis(x, m=m, degree=3)
        fit = gamma_approx(qf_weights(basis, build_rw(order=2, n_g=m), constrained=True))
        theta = DsdParams(24.5, 24.5, fit.alpha_tilde, fit.beta_tilde, 1.0, 0.5, 1.5)
        record(f"residual[pspline-m{m}]", integral_equation_residual(theta, v_grid).max(), 1e-4)

    # one weight makes the series a single gammainc term; erf shares no code with it
    single = QfWeights(weights=np.array([2.0]), n_predictor=10, zero_count=1)
    q_grid = np.linspace(0.05, 40.0, 200)
    exact = erf(np.sqrt(q_grid / (2.0 * 2.0)))
    record("weighted-chi2[single]", np.abs(ruben_cdf(q_grid, single) - exact).max(), 1e-10)

    # the series against a closed form on paired weights,
    # Q = chi2_2 + 3 chi2_2 with F(q) = 1 - 1.5 e^(-q/6) + 0.5 e^(-q/2)
    pairs = QfWeights(weights=np.array([1.0, 1.0, 3.0, 3.0]), n_predictor=10, zero_count=1)
    q_grid = np.linspace(0.05, 60.0, 200)
    exact = 1.0 - 1.5 * np.exp(-q_grid / 6.0) + 0.5 * np.exp(-q_grid / 2.0)
    record("weighted-chi2[pairs]", np.abs(ruben_cdf(q_grid, pairs) - exact).max(), 1e-10)

    weights = QfWeights(weights=np.array([1.0, 2.0, 3.0]), n_predictor=4, zero_count=1)
    v = np.sort(sample_v(weights, sigma2=1.0, count=mc_draws, seed=seed + 1))
    probs = ruben_cdf(v * (weights.n_predictor - 1), weights)
    steps = np.arange(1, mc_draws + 1) / mc_draws
    distance = max(np.abs(probs - steps).max(), np.abs(probs - steps + 1.0 / mc_draws).max())
    record("weighted-chi2[mc]", distance, 2.5 / math.sqrt(mc_draws))

    all_passed = all(check["passed"] for check in checks)
    dump_json(
        {"all_passed": all_passed, "checks": checks, "mc_draws": mc_draws, "seed": seed},
        ctx.output("verify.json"),
    )
    if not all_passed:
        failures = [check["name"] for check in checks if not check["passed"]]
        raise ConvergenceError(
            f"verification battery failed: {', '.join(failures)}", failures=failures
        )


_COMMANDS = {
    "structure": _cmd_structure,
    "weights": _cmd_weights,
    "approx": _cmd_approx,
    "elicit": _cmd_elicit,
    "prior": _cmd_prior,
    "sample": _cmd_sample,
    "pipeline": _cmd_pipeline,
    "verify": _cmd_verify,
}


_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas(module) -> dict:
    # the build numpy or scipy links against; the two can differ
    blas = module.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def _build_parser() -> _Parser:
    parser = _Parser(prog="dsdprior", description=__doc__)
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON config file")
    parser.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg_path = Path(args.config)
        # commands record the config values they used in settings
        ctx = _RunContext(cfg_dir=cfg_path.parent, out_dir=Path(args.out))
        cfg = load_json(ctx.input(cfg_path.name, "--config"))
        _COMMANDS[args.command](cfg, ctx)
        manifest = {
            "command": args.command,
            "versions": {
                "dsdprior": __version__,
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
            "blas": {module.__name__: _blas(module) for module in (np, scipy)},
            "threads": {name: os.environ.get(name) for name in _THREAD_VARIABLES},
            "settings": ctx.settings,
            "inputs": ctx.inputs,
            "outputs": {name: sha256_file(ctx.out_dir / name) for name in ctx.outputs},
        }
        dump_json(manifest, ctx.out_dir / "manifest.json")
        return 0
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        for key, value in sorted(exc.diagnostics.items()):
            print(f"  {key}: {value}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
