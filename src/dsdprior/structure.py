"""Design and structure matrices for latent Gaussian model components.

Builders for common intrinsic structures (random walks, graph-based
conditional autoregressions, penalized spline penalties) and the
eigenvalue weights of the centered quadratic form

    V = nu' M nu / (n - 1),    M = I - 11'/n,

which drive everything downstream: under a sum-to-zero constrained
Gaussian with precision K / sigma2, nu = sqrt(sigma2) E gamma with gamma
spherical and E = Z U+ Lambda+^{-1/2} the effect map (U+ and Lambda+
the range eigenvectors and eigenvalues of K), so V given sigma2 is a
weighted sum of chi-squared(1) variables whose weights are the nonzero
eigenvalues of (ME)'(ME).

Where the weights follow from K's spectrum alone, its eigenvalues come
from a banded route: K's nonzero pattern is permuted by reverse
Cuthill-McKee and LAPACK's banded solver takes the permuted band, at a
cost of order n_g^2 u for half-bandwidth u. A band wider than
_BAND_FRACTION * n_g takes the dense eigvalsh instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BSpline
from scipy.linalg import eigvals_banded
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee

from ._checks import finite, integer, positive_array

__all__ = [
    "DesignMatrix",
    "QfWeights",
    "StructureSpec",
    "build_bspline_basis",
    "build_icar",
    "build_rw",
    "qf_weights",
]

_EPS = np.finfo(float).eps

_DESIGN_KINDS = ("identity", "selection", "basis", "covariate-column")

# Widest half-bandwidth, as a fraction of n_g, that takes the banded
# eigenvalue route. On one BLAS thread the banded route, permutation
# search included, breaks even with dense eigvalsh near u = 0.05 n_g for
# n_g from 800 to 2000 (it costs n_g^2 u against n_g^3). Below n_g = 800,
# where either takes milliseconds, it can lose up to 2 ms.
_BAND_FRACTION = 0.04


def _as_readonly(a):
    # a read-only float64 array owning its data, as the builders hand over
    # (see _frozen), is kept; anything else is copied, so no caller can change it
    owned = type(a) is np.ndarray and a.dtype == np.float64 and a.flags.owndata
    if owned and not a.flags.writeable:
        return a
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass
class StructureSpec:
    """Symmetric positive semi-definite precision structure K with a
    declared rank deficiency (null space dimension). spectrum, when
    given, is all n_g eigenvalues of K in ascending order, known in
    closed form; it is checked against K's trace and Frobenius norm."""

    precision: np.ndarray
    rank_deficiency: int
    label: str = ""
    spectrum: np.ndarray | None = None

    def __post_init__(self):
        k = np.asarray(self.precision, dtype=float)
        if k.ndim != 2 or k.shape[0] != k.shape[1] or k.shape[0] < 1:
            raise ValueError("precision must be a square matrix")
        finite("precision", k)
        # an exactly symmetric K, as every builder makes, is its own
        # symmetric part; comparing it with K' in blocks of b rows spares
        # the transposed passes and an n_g x n_g mask
        n_g, b = k.shape[0], 256
        if not all(np.array_equal(k[i : i + b], k[:, i : i + b].T) for i in range(0, n_g, b)):
            scale = max(1.0, float(np.max(np.abs(k))))
            if np.max(np.abs(k - k.T)) > 1e-12 * scale:
                raise ValueError("precision must be symmetric")
            k = (k + k.T) / 2.0
        self.rank_deficiency = integer("rank_deficiency", self.rank_deficiency)
        if not 0 <= self.rank_deficiency < n_g:
            raise ValueError("rank_deficiency must lie in [0, n_g)")
        self.precision = _as_readonly(k)
        if self.spectrum is not None:
            lam = _as_readonly(self.spectrum)
            ok = (
                lam.shape == (n_g,)
                and np.all(np.diff(lam) >= 0.0)
                and np.isclose(lam.sum(), np.trace(k), rtol=1e-10, atol=0.0)
                and np.isclose(lam @ lam, np.vdot(k, k), rtol=1e-10, atol=0.0)
            )
            if not ok:
                raise ValueError(
                    "spectrum must be K's ascending eigenvalues (trace or Frobenius norm differ)"
                )
            self.spectrum = lam

    @property
    def n_g(self) -> int:
        return self.precision.shape[0]


@dataclass
class DesignMatrix:
    """Predictor-to-coefficient map Z (n x m) plus a kind tag that
    records how it was built."""

    values: np.ndarray
    kind: str

    def __post_init__(self):
        z = _as_readonly(self.values)
        if z.ndim != 2 or z.shape[0] < 1 or z.shape[1] < 1:
            raise ValueError("design matrix must be 2-d and non-empty")
        finite("design matrix", z)
        if self.kind not in _DESIGN_KINDS:
            raise ValueError(f"unknown design kind {self.kind!r}; expected one of {_DESIGN_KINDS}")
        if self.kind == "identity":
            # n nonzeros, all on a unit diagonal, is Z = I without a second n x n array
            n = z.shape[0]
            if z.shape[1] != n or np.count_nonzero(z) != n or not np.all(np.diagonal(z) == 1.0):
                raise ValueError("identity kind requires Z = I")
        if self.kind == "selection":
            one_hot = np.all(np.isin(z, (0.0, 1.0))) and np.all(z.sum(axis=1) == 1.0)
            if not one_hot:
                raise ValueError("selection kind requires exactly one unit entry per row")
        if self.kind == "covariate-column" and z.shape[1] != 1:
            raise ValueError("covariate-column kind requires a single column")
        self.values = z

    @classmethod
    def identity(cls, n: int) -> "DesignMatrix":
        return cls(values=_frozen(np.eye(integer("n", n))), kind="identity")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


@dataclass
class QfWeights:
    """Positive eigenvalue weights of the conditional law of V: given
    sigma2, (n-1) V / sigma2 is a weights-weighted sum of independent
    chi-squared(1) variables. zero_count is how many structurally null
    directions were discarded (at least one, from centering)."""

    weights: np.ndarray
    n_predictor: int
    zero_count: int

    def __post_init__(self):
        if np.ndim(self.weights) != 1:
            raise ValueError("weights must be a vector")
        self.n_predictor = integer("n_predictor", self.n_predictor, 2)
        self.zero_count = integer("zero_count", self.zero_count, 0)
        self.weights = _frozen(np.sort(positive_array("weights", self.weights)))


def build_rw(order: int, n_g: int, circular: bool = False) -> StructureSpec:
    """Random walk precision of the given order on n_g equally spaced
    points, K = D'D with D the order-th difference operator. Circular
    variants wrap the differences around; they lose only the constant
    (rank deficiency 1) whereas the line-graph walk of order r loses the
    full degree-(r-1) polynomial space (rank deficiency r).

    K is filled stencil by stencil: each row of D adds the outer product
    of its difference stencil, so the integer entries come out exactly
    as in D'D. Every walk but rw2 on a line carries its closed-form
    spectrum (Rue & Held 2005, GMRF, sec. 3.1): 4 sin^2(pi k / 2n) for
    rw1, 4 sin^2(pi k / n) for crw1 and its square for crw2, with
    k = 0..n-1; sin keeps relative accuracy where 2 - 2 cos cancels."""
    order = integer("order", order)
    if order not in (1, 2):
        raise ValueError("walk order must be 1 or 2")
    n_g = integer("n_g", n_g, order + 2)
    stencil = (-1.0, 1.0) if order == 1 else (1.0, -2.0, 1.0)
    rows = np.arange(n_g if circular else n_g - order)
    precision = np.zeros((n_g, n_g))
    for a, ca in enumerate(stencil):
        for b, cb in enumerate(stencil):
            # distinct rows of D hit distinct entries for one (a, b); on a
            # short circle two (a, b) pairs can wrap onto one entry and add
            precision[(rows + a) % n_g, (rows + b) % n_g] += ca * cb
    k = np.arange(n_g)
    if circular:
        crw1 = 4.0 * np.sin(np.pi * np.minimum(k, n_g - k) / n_g) ** 2
        spectrum = np.sort(crw1 if order == 1 else crw1**2)
    else:
        spectrum = 4.0 * np.sin(np.pi * k / (2 * n_g)) ** 2 if order == 1 else None
    tag = f"crw{order}" if circular else f"rw{order}"
    return StructureSpec(
        precision=_frozen(precision),
        rank_deficiency=1 if circular else order,
        label=f"{tag}({n_g})",
        spectrum=spectrum,
    )


def build_icar(adjacency: np.ndarray) -> StructureSpec:
    """Intrinsic conditional autoregression on an undirected graph:
    K = diag(degree) - W. Rank deficiency equals the number of connected
    components (isolated vertices each count as a component)."""
    w = np.array(adjacency, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 2:
        raise ValueError("adjacency must be square with at least two vertices")
    if not np.array_equal(w, w.T):
        raise ValueError("adjacency must be symmetric")
    if np.any(np.diag(w) != 0.0):
        raise ValueError("adjacency must have a zero diagonal (no self loops)")
    if not np.all(np.isin(w, (0.0, 1.0))):
        raise ValueError("adjacency entries must be 0 or 1")
    kappa, _ = connected_components(csr_matrix(w), directed=False)
    precision = np.diag(w.sum(axis=1)) - w
    return StructureSpec(precision=_frozen(precision), rank_deficiency=int(kappa), label="icar")


def build_bspline_basis(x, m: int, degree: int = 3, bounds=None) -> DesignMatrix:
    """Evaluate m uniformly spaced B-spline basis functions of the given
    degree at the points x. The base interval (bounds, defaulting to the
    data range) is divided into m - degree equal segments and the knot
    vector is extended degree steps past each end, so the basis spans
    exactly m functions and sums to one on the interval."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1 or x.size < 1:
        raise ValueError("x must be a non-empty vector")
    finite("x", x)
    degree = integer("degree", degree, 1)
    m = integer("m", m, degree + 2)
    lo, hi = bounds if bounds is not None else (float(x.min()), float(x.max()))
    if not hi > lo:
        raise ValueError("basis range is degenerate; pass explicit bounds")
    if np.any(x < lo) or np.any(x > hi):
        raise ValueError("x must lie inside the basis bounds")
    n_seg = m - degree
    dx = (hi - lo) / n_seg
    knots = lo + dx * np.arange(-degree, n_seg + degree + 1)
    values = BSpline.design_matrix(x, knots, degree, extrapolate=False).toarray()
    return DesignMatrix(values=_frozen(values), kind="basis")


def _null_eigs(eigs: np.ndarray, rank_deficiency: int, exact: bool = False) -> np.ndarray:
    """Mask of the null eigenvalues among the ascending eigs of K (or of
    a congruent copy, which has K's inertia). Computed eigenvalues below
    n_g * eps * max_eig are treated as null; an exact (closed-form)
    spectrum has exact zeros there, at any n_g. Their count must equal
    the declared deficiency, otherwise the declaration is wrong and we
    refuse to guess."""
    lam_max = float(eigs[-1])
    if lam_max <= 0.0:
        raise ValueError("structure matrix has no positive eigenvalues")
    if eigs[0] < -1e-10 * lam_max:
        raise ValueError("structure matrix is not positive semi-definite")
    tau = 0.0 if exact else eigs.size * _EPS * lam_max
    null = eigs == 0.0 if exact else eigs < tau
    found = int(np.sum(null))
    if found != rank_deficiency:
        raise ValueError(
            f"declared rank deficiency {rank_deficiency} but found "
            f"{found} null eigenvalues (threshold {tau:.3e})"
        )
    return null


def _effect_map(design: DesignMatrix, spec: StructureSpec) -> np.ndarray:
    """E = Z U+ Lambda+^{-1/2}, n x (n_g - kappa), from one symmetric
    eigendecomposition of K split at the declared rank deficiency (see
    _null_eigs): the constrained effect nu = Z beta is sqrt(sigma2) E gamma
    with gamma standard normal."""
    eigs, vecs = np.linalg.eigh(spec.precision)
    keep = ~_null_eigs(eigs, spec.rank_deficiency)
    return design.values @ (vecs[:, keep] * eigs[keep] ** -0.5)


def _symmetric_eigvals(k: np.ndarray, r: np.ndarray | None = None) -> np.ndarray:
    """Ascending eigenvalues of diag(r) K diag(r) (of K when r is None).

    K's nonzero pattern is permuted by reverse Cuthill-McKee; when the
    permuted half-bandwidth u is at most _BAND_FRACTION * n_g, the entries
    k_ij r_i r_j fill LAPACK lower band storage for eigvals_banded. A
    wider band takes the dense eigvalsh. A K with more than
    n_g (2 u_max + 1) nonzeros has a row wider than that band under any
    permutation, so it goes dense without the search."""
    n = k.shape[0]
    u_max = int(_BAND_FRACTION * n)
    if np.count_nonzero(k) <= n * (2 * u_max + 1):
        rows, cols = np.nonzero(k)
        pattern = csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
        pos = np.empty(n, dtype=np.intp)
        pos[reverse_cuthill_mckee(pattern, symmetric_mode=True)] = np.arange(n)
        i, j = pos[rows], pos[cols]
        lower = i >= j
        rows, cols, diag, j = rows[lower], cols[lower], (i - j)[lower], j[lower]
        u = int(np.max(diag, initial=0))
        if u <= u_max:
            vals = k[rows, cols] if r is None else k[rows, cols] * r[rows] * r[cols]
            band = np.zeros((u + 1, n))
            band[diag, j] = vals
            return eigvals_banded(band, lower=True, overwrite_a_band=True)
    return np.linalg.eigvalsh(k if r is None else r[:, None] * k * r)


def _weight_reciprocals(design: DesignMatrix, spec: StructureSpec) -> np.ndarray | None:
    """The range eigenvalues whose reciprocals are the weights, from K's
    spectrum alone, or None where the weights need the effect map.

    Both cases need 1 to be an eigenvector of K: K's rows all sum exactly
    to one value r. Identity design: M K^- keeps K^-'s eigenpairs but
    that of 1, so the weights are 1 / (range eigenvalues of K) less the
    one nearest r (none where r = 0: 1 is then null), from the closed-form
    spectrum a walk carries or else the banded route of _symmetric_eigvals.
    Selection design observing every region, with null(K) = span(1)
    (r = 0, rank deficiency 1): Z'MZ = D^{1/2} (I - ss'/n) D^{1/2} with
    D = diag(counts), s = sqrt(counts), and that projected D^{1/2} K+ D^{1/2}
    is the pseudo-inverse of D^{-1/2} K D^{-1/2}, so the weights are
    1 / (its range eigenvalues), again from the banded route."""
    k = spec.precision
    row_sums = k.sum(axis=1)
    r = float(row_sums[0])
    if np.any(row_sums != r):
        return None
    exact = False
    if design.kind == "identity":
        exact = spec.spectrum is not None
        eigs = spec.spectrum if exact else _symmetric_eigvals(k)
    elif design.kind == "selection" and spec.rank_deficiency == 1 and r == 0.0:
        counts = design.values.sum(axis=0)
        if not np.all(counts > 0.0):
            return None
        eigs = _symmetric_eigvals(k, counts**-0.5)
    else:
        return None
    keep = ~_null_eigs(eigs, spec.rank_deficiency, exact)
    if r != 0.0:
        keep[np.argmin(np.abs(eigs - r))] = False
    return eigs[keep]


def qf_weights(design: DesignMatrix, spec: StructureSpec, constrained: bool) -> QfWeights:
    """Eigenvalue weights of V = nu' M nu / (n-1) under the (possibly
    constrained) Gaussian with structure K and design Z, nu = Z beta.

    The conditional law of (n-1) V given sigma2 is sigma2 times a sum of
    weights[k] * chi-squared(1). The weights are the nonzero eigenvalues
    of (Z'MZ) K^-. Identity designs on a K with equal row sums, and
    selection designs observing every region of a K with null space
    span(1), take them from one eigenvalues-only solve of K (or of its
    diagonally scaled copy), or from the closed-form spectrum a walk
    carries. That solve is banded: LAPACK's eigvals_banded on K's
    reverse Cuthill-McKee band, or dense eigvalsh where the half-bandwidth
    exceeds _BAND_FRACTION * n_g. Every other design takes them from the Gram
    matrix (ME)'(ME) of the column-centered effect map. Either way a
    symmetric eigensolve gives them in deterministic ascending order.

    An improper structure (rank_deficiency > 0) is only meaningful under
    the null-space constraint U0' beta = 0; asking for the unconstrained
    law of such a component is an error, not a warning.
    """
    n = design.n
    if n < 2:
        raise ValueError("need at least two predictor rows")
    if spec.rank_deficiency > 0 and not constrained:
        raise ValueError(
            "improper structure (rank deficiency > 0) has no unconstrained "
            "sampling law; pass constrained=True"
        )
    if design.m != spec.n_g:
        raise ValueError("design columns must match the structure size")
    range_eigs = _weight_reciprocals(design, spec)
    if range_eigs is not None:
        kept = 1.0 / range_eigs
    else:
        e = _effect_map(design, spec)
        e -= e.mean(axis=0)  # M E without forming M
        eigs = np.linalg.eigvalsh(e.T @ e)
        tau = eigs.size * _EPS * max(float(eigs[-1]), 0.0)
        kept = eigs[eigs > tau]
    return QfWeights(weights=kept, n_predictor=n, zero_count=spec.n_g - kept.size)
