"""Elicitation: from a data-variability statement to concrete prior
parameters.

The chain: the bound c is given directly or as `pseudo_variance(kind,
value)` of a likelihood kind and its one summary statistic, a
deterministic scale solve of P[b V* <= c] = pi0 gives the base-prior
scale b, and composing with the component's quadratic-form weights
gives the full design-adjusted prior.  The same spec always gives
bitwise-identical results; no step draws random numbers.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import betaincinv, betaln, gammainc, ndtri

from . import __version__
from ._quad import ConvergenceError, log_tanh_sinh_01
from .priors import DsdParams
from .qf import gamma_approx
from .structure import DesignMatrix, QfWeights, StructureSpec, qf_weights

__all__ = [
    "ComponentPrior",
    "ElicitationSpec",
    "ScaleSolution",
    "build_dsd_prior",
    "pseudo_variance",
    "solve_scale",
]

_LIKELIHOOD_KINDS = ("gaussian", "binomial_logit", "binomial_probit", "user_supplied")


def pseudo_variance(kind, value):
    """The variability bound c implied by a likelihood kind and the one
    summary statistic it needs.

    gaussian takes the response sample variance and user_supplied the
    bound itself, both as they are and both > 0.  The binomial links
    take the response mean m in (0, 1) and give the variance of the
    latent predictor scale it implies: 1/(m(1-m)) for binomial_logit,
    m(1-m)/phi(Phi^-1(m))^2 for binomial_probit.  Raises ValueError on
    an unknown kind or a statistic outside its range."""
    if kind not in _LIKELIHOOD_KINDS:
        raise ValueError(f"unknown likelihood kind {kind!r}; expected one of {_LIKELIHOOD_KINDS}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"statistic must be finite, got {value!r}")
    if kind in ("gaussian", "user_supplied"):
        if value <= 0.0:
            raise ValueError(f"{kind} statistic must be > 0, got {value!r}")
        return value
    if not 0.0 < value < 1.0:
        raise ValueError(f"{kind} mean must lie strictly inside (0, 1), got {value!r}")
    if kind == "binomial_logit":
        return 1.0 / (value * (1.0 - value))
    z = float(ndtri(value))
    # 1 / phi(z)^2 = 2 pi exp(z^2)
    return value * (1.0 - value) * 2.0 * math.pi * math.exp(z * z)


@dataclass(frozen=True)
class ElicitationSpec:
    """Inputs of the scale solve: predictor length n (benchmark shape
    and rate are both (n-1)/2), base-prior exponents, and the
    probability statement P[b V* <= c] = pi0.  n must be integral (30 or
    30.0, not 30.5 or True).  The marginal benchmark needs
    p < 1 + (n-1)/2."""

    n: int
    c: float
    p: float = 0.5
    q: float = 1.5
    pi0: float = 0.5

    def __post_init__(self):
        n = self.n
        if isinstance(n, float) and n.is_integer():
            n = int(n)
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"n must be an integer, got {n!r}")
        n = int(n)
        if n < 2:
            raise ValueError(f"n must be >= 2, got {n}")
        object.__setattr__(self, "n", n)
        for name in ("c", "p", "q"):
            value = float(getattr(self, name))
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
            object.__setattr__(self, name, value)
        if not self.p < 1.0 + 0.5 * (n - 1):
            raise ValueError(
                f"marginal benchmark requires p < 1 + (n-1)/2; got p={self.p!r}, n={n}"
            )
        pi0 = float(self.pi0)
        if not 0.0 < pi0 < 1.0:
            raise ValueError(f"pi0 must lie strictly inside (0, 1), got {pi0!r}")
        object.__setattr__(self, "pi0", pi0)


@dataclass(frozen=True)
class ScaleSolution:
    """Result of the scale solve: b = c / q_hat with q_hat the
    pi0-quantile of the unit-scale marginal benchmark."""

    b: float
    quantile: float
    pi0: float
    c: float


def solve_scale(spec):
    """Solve P[b V* <= c] = pi0 for b = c / q_hat.

    q_hat is the pi0-quantile of the unit-scale marginal benchmark, whose
    CDF is one positive integral over the base prior's Beta(p, q) variable:

        F(x) = int_0^1 Beta(w; p, q) P(alpha, alpha x (1-w) / w) dw,

    with P the regularized lower incomplete gamma function and
    alpha = (n-1)/2.  P steps from 1 to 0 near w = x / (1 + x), the
    sharper the larger n, so the integral is split there and each piece
    integrated in log space by tanh-sinh quadrature, which clusters its
    nodes at the step.  Brent's method solves log F(e^y) = log pi0 in
    y = log x from a bracket centred on the base prior's pi0-quantile,
    widened in steps of 8 only as far as the root needs."""
    if not isinstance(spec, ElicitationSpec):
        raise TypeError(f"expected ElicitationSpec, got {type(spec).__name__}")
    p, q, pi0 = spec.p, spec.q, spec.pi0
    shape = 0.5 * (spec.n - 1)
    log_shape = math.log(shape)
    offset = betaln(p, q) + math.log(pi0)

    @functools.cache
    def gap(y):
        # split point w* = x / (1 + x) and its complement, in logs
        log_ws = -float(np.logaddexp(0.0, -y))
        log_1mws = -float(np.logaddexp(0.0, y))

        def log_f(t, log_t, log_1mt, rows):
            # row 0 maps t to w = w* t, row 1 to w = w* + (1 - w*) t
            log_w = np.stack([log_ws + log_t, np.logaddexp(log_ws, log_1mws + log_t)])
            log_1mw = np.stack([np.logaddexp(log_1mws, log_ws + log_1mt), log_1mws + log_1mt])
            with np.errstate(over="ignore", divide="ignore"):
                z = np.exp(log_shape + y + log_1mw - log_w)
                out = (p - 1.0) * log_w + (q - 1.0) * log_1mw + np.log(gammainc(shape, z))
            out += np.array([[log_ws], [log_1mws]])  # dw/dt of each row
            return out[rows]

        return float(np.logaddexp.reduce(log_tanh_sinh_01(log_f, 2))) - offset

    # 1 - w from the mirrored Beta keeps full precision when w rounds to 1
    y0 = math.log(betaincinv(p, q, pi0)) - math.log(betaincinv(q, p, 1.0 - pi0))
    lo, hi = y0 - 8.0, y0 + 8.0
    for _ in range(16):
        if gap(lo) > 0.0:
            lo -= 8.0
        elif gap(hi) < 0.0:
            hi += 8.0
        else:
            break
    else:
        raise ConvergenceError("could not bracket the benchmark quantile", log_bracket=(lo, hi))
    q_hat = math.exp(brentq(gap, lo, hi, xtol=1e-14))
    return ScaleSolution(b=spec.c / q_hat, quantile=q_hat, pi0=pi0, c=spec.c)


@dataclass(frozen=True)
class ComponentPrior:
    """A component's elicited prior: the distribution parameters, the
    quadratic-form weights they came from, the scale solve, and
    provenance: the package version and the SHA-256 of the weights,
    which no other field carries."""

    params: DsdParams
    weights: QfWeights
    scale: ScaleSolution
    provenance: dict = field(repr=False)
    label: str = ""


def build_dsd_prior(design, structure, elic):
    """Compose the full pipeline for one component: quadratic-form
    weights -> two-moment Gamma approximation -> scale solve ->
    design-adjusted prior parameters.

    Improper structures are automatically put under the null-space
    constraint.  The returned ComponentPrior carries the DsdParams, the
    weights they came from and the scale solve."""
    if not isinstance(design, DesignMatrix):
        raise TypeError(f"design must be DesignMatrix, got {type(design).__name__}")
    if not isinstance(structure, StructureSpec):
        raise TypeError(f"structure must be StructureSpec, got {type(structure).__name__}")
    if not isinstance(elic, ElicitationSpec):
        raise TypeError(f"elic must be ElicitationSpec, got {type(elic).__name__}")
    if elic.n != design.n:
        raise ValueError(
            f"elicitation n={elic.n} does not match the design's predictor length {design.n}"
        )
    weights = qf_weights(design, structure, constrained=structure.rank_deficiency > 0)
    approx = gamma_approx(weights)
    solution = solve_scale(elic)
    shape = 0.5 * (elic.n - 1)
    params = DsdParams(
        alpha=shape,
        beta=shape,
        alpha_tilde=approx.alpha_tilde,
        beta_tilde=approx.beta_tilde,
        b=solution.b,
        p=elic.p,
        q=elic.q,
    )
    provenance = {
        "version": __version__,
        "weights_sha256": hashlib.sha256(np.ascontiguousarray(weights.weights).tobytes()).hexdigest(),
    }
    return ComponentPrior(
        params=params,
        weights=weights,
        scale=solution,
        provenance=provenance,
        label=f"{design.kind}+{structure.label}",
    )

