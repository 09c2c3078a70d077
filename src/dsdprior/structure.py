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
eigenvalues of (ME)'(ME). K and Z are held as read-only scipy.sparse
CSR arrays (see _frozen); only the effect map and the dense eigvalsh of
a wide band (see _symmetric_eigvals) densify them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BSpline
from scipy.linalg import eigvals_banded
from scipy.sparse import csr_array, diags_array, eye_array
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


def _buffers(a: csr_array) -> tuple:
    return a.data, a.indices, a.indptr


def _frozen(a) -> csr_array:
    """a as a canonical float64 CSR array (sorted indices, no duplicates
    or stored zeros) whose buffers are read-only and own their memory.
    Such an array is kept, so records pass K and Z on without a copy;
    anything else, dense or sparse, is copied once."""
    if isinstance(a, csr_array) and a.dtype == np.float64 and a.has_canonical_format:
        if not any(b.flags.writeable or not b.flags.owndata for b in _buffers(a)):
            return a
    out = csr_array(a, dtype=float, copy=True)
    out.sum_duplicates()
    out.eliminate_zeros()
    out.data, out.indices, out.indptr = (np.require(b, requirements="O") for b in _buffers(out))
    for b in _buffers(out):
        b.setflags(write=False)
    return out


def _is_symmetric(a: csr_array) -> bool:
    # a canonical CSR is symmetric when its transpose, made CSR (which
    # sorts the indices), stores the same arrays
    return all(np.array_equal(x, y) for x, y in zip(_buffers(a), _buffers(a.T.tocsr())))


@dataclass
class StructureSpec:
    """Symmetric positive semi-definite precision structure K with a
    declared rank deficiency (null space dimension). spectrum, when
    given, is all n_g eigenvalues of K in ascending order, known in
    closed form; it is checked against K's trace and Frobenius norm."""

    precision: csr_array
    rank_deficiency: int
    label: str = ""
    spectrum: np.ndarray | None = None

    def __post_init__(self):
        k = _frozen(self.precision)
        if k.ndim != 2 or k.shape[0] != k.shape[1] or k.shape[0] < 1:
            raise ValueError("precision must be a square matrix")
        finite("precision", k.data)
        if not _is_symmetric(k):
            scale = max(1.0, float(np.max(np.abs(k.data))))
            if abs(k - k.T).max() > 1e-12 * scale:
                raise ValueError("precision must be symmetric")
            k = _frozen((k + k.T) / 2.0)
        self.precision = k
        self.rank_deficiency = integer("rank_deficiency", self.rank_deficiency)
        if not 0 <= self.rank_deficiency < self.n_g:
            raise ValueError("rank_deficiency must lie in [0, n_g)")
        if self.spectrum is not None:
            lam = np.array(self.spectrum, dtype=float)
            lam.setflags(write=False)
            ok = (
                lam.shape == (self.n_g,)
                and np.all(np.diff(lam) >= 0.0)
                and np.isclose(lam.sum(), k.trace(), rtol=1e-10, atol=0.0)
                and np.isclose(lam @ lam, k.data @ k.data, rtol=1e-10, atol=0.0)
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

    values: csr_array
    kind: str

    def __post_init__(self):
        z = _frozen(self.values)
        if z.ndim != 2 or z.shape[0] < 1 or z.shape[1] < 1:
            raise ValueError("design matrix must be 2-d and non-empty")
        finite("design matrix", z.data)
        if self.kind not in _DESIGN_KINDS:
            raise ValueError(f"unknown design kind {self.kind!r}; expected one of {_DESIGN_KINDS}")
        if self.kind == "identity":
            # n stored entries, all on a unit diagonal, is Z = I
            n = z.shape[0]
            if z.shape[1] != n or z.nnz != n or not np.all(z.diagonal() == 1.0):
                raise ValueError("identity kind requires Z = I")
        if self.kind == "selection":
            one_hot = np.all(np.diff(z.indptr) == 1) and np.all(z.data == 1.0)
            if not one_hot:
                raise ValueError("selection kind requires exactly one unit entry per row")
        if self.kind == "covariate-column" and z.shape[1] != 1:
            raise ValueError("covariate-column kind requires a single column")
        self.values = z

    @classmethod
    def identity(cls, n: int) -> "DesignMatrix":
        return cls(values=eye_array(integer("n", n), format="csr"), kind="identity")

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
        self.weights = np.sort(positive_array("weights", self.weights))
        self.weights.setflags(write=False)


def build_rw(order: int, n_g: int, circular: bool = False) -> StructureSpec:
    """Random walk precision of the given order on n_g equally spaced
    points, K = D'D with D the sparse order-th difference operator.
    Circular variants wrap the differences around; they lose only the
    constant (rank deficiency 1) whereas the line-graph walk of order r
    loses the full degree-(r-1) polynomial space (rank deficiency r).

    Every walk but rw2 on a line carries its closed-form spectrum (Rue &
    Held 2005, GMRF, sec. 3.1): 4 sin^2(pi k / 2n) for rw1,
    4 sin^2(pi k / n) for crw1 and its square for crw2, with k = 0..n-1;
    sin keeps relative accuracy where 2 - 2 cos cancels."""
    order = integer("order", order)
    if order not in (1, 2):
        raise ValueError("walk order must be 1 or 2")
    n_g = integer("n_g", n_g, order + 2)
    stencil = (-1.0, 1.0) if order == 1 else (1.0, -2.0, 1.0)
    # row i of D holds the stencil from column i on, wrapped on a circle
    rows, width = n_g if circular else n_g - order, order + 1
    cols = (np.arange(rows)[:, None] + np.arange(width)) % n_g
    d = csr_array(
        (np.tile(stencil, rows), cols.ravel(), np.arange(0, rows * width + 1, width)),
        shape=(rows, n_g),
    )
    k = np.arange(n_g)
    if circular:
        crw1 = 4.0 * np.sin(np.pi * np.minimum(k, n_g - k) / n_g) ** 2
        spectrum = np.sort(crw1 if order == 1 else crw1**2)
    else:
        spectrum = 4.0 * np.sin(np.pi * k / (2 * n_g)) ** 2 if order == 1 else None
    tag = f"crw{order}" if circular else f"rw{order}"
    return StructureSpec(
        precision=d.T @ d,
        rank_deficiency=1 if circular else order,
        label=f"{tag}({n_g})",
        spectrum=spectrum,
    )


def build_icar(adjacency) -> StructureSpec:
    """Intrinsic conditional autoregression on an undirected graph given
    by its adjacency W, dense or sparse: K = diag(degree) - W. Rank
    deficiency equals the number of connected components (isolated
    vertices each count as a component)."""
    w = _frozen(adjacency)
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 2:
        raise ValueError("adjacency must be square with at least two vertices")
    if not _is_symmetric(w):
        raise ValueError("adjacency must be symmetric")
    if np.any(w.diagonal()):
        raise ValueError("adjacency must have a zero diagonal (no self loops)")
    if not np.all(w.data == 1.0):
        raise ValueError("adjacency entries must be 0 or 1")
    kappa, _ = connected_components(w, directed=False)
    return StructureSpec(diags_array(w.sum(axis=1)) - w, rank_deficiency=int(kappa), label="icar")


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
    return DesignMatrix(BSpline.design_matrix(x, knots, degree, extrapolate=False), "basis")


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
    with gamma standard normal. Z is densified before the product."""
    eigs, vecs = np.linalg.eigh(spec.precision.toarray())
    keep = ~_null_eigs(eigs, spec.rank_deficiency)
    return design.values.toarray() @ (vecs[:, keep] * eigs[keep] ** -0.5)


def _symmetric_eigvals(k: csr_array, r: np.ndarray | None = None) -> np.ndarray:
    """Ascending eigenvalues of diag(r) K diag(r) (of K when r is None).

    K is permuted by reverse Cuthill-McKee; when the permuted
    half-bandwidth u is at most _BAND_FRACTION * n_g, the entries
    k_ij r_i r_j fill LAPACK lower band storage for eigvals_banded. A
    wider band takes the dense eigvalsh. A K with more than
    n_g (2 u_max + 1) nonzeros has a row wider than that band under any
    permutation, so it goes dense without the search."""
    n = k.shape[0]
    u_max = int(_BAND_FRACTION * n)
    if k.nnz <= n * (2 * u_max + 1):
        pos = np.empty(n, dtype=np.intp)
        pos[reverse_cuthill_mckee(k, symmetric_mode=True)] = np.arange(n)
        entries = k.tocoo()
        (rows, cols), vals = entries.coords, entries.data
        i, j = pos[rows], pos[cols]
        # K is symmetric, so its widest lower entry sets u
        u = int(np.max(i - j, initial=0))
        if u <= u_max:
            lower = i >= j
            band = np.zeros((u + 1, n))
            scaled = vals if r is None else vals * r[rows] * r[cols]
            band[(i - j)[lower], j[lower]] = scaled[lower]
            return eigvals_banded(band, lower=True, overwrite_a_band=True)
    dense = k.toarray()
    return np.linalg.eigvalsh(dense if r is None else r[:, None] * dense * r)


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
    span(1), take them from K's spectrum (see _weight_reciprocals).
    Every other design takes them from the Gram matrix (ME)'(ME) of the
    column-centered effect map. Either way a symmetric eigensolve gives
    them in deterministic ascending order.

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
