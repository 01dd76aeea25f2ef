"""Low-lying spectra: dense oracle, iterative solver, and closed-form chain levels.

The history Hamiltonian is block-diagonal: hopping and gate terms connect
only some configurations.  ``solve_spectrum`` finds the connected blocks on
the sparsity pattern and solves each on its own, by size: LAPACK on the
whole of a tiny block, LAPACK on only the lowest values of a small one, and
shift-invert Lanczos on a large one.

The single-qubit chain with identity development is two decoupled
(N+1)-site hopping chains (one per column), so its exact spectrum is the
chain level set doubled.  The closed-form characteristic determinant of one
column is evaluated in a trigonometric form that stays finite at the band
edges; its zeros are the chain levels for any tipping factor beta.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import brentq
from scipy.sparse.csgraph import connected_components

from .errors import ConvergenceError, SolverError, TruncatedClusterError
from .sparse import SparseHermitian

DENSE_SOLVE_MAX = 2048  # gsqc spectrum prints every level at or below this dimension
DENSE_DIM_CAP = 4096  # dense_spectrum's memory cap
TINY_BLOCK_MAX = 16  # whole-block np.linalg.eigh at or below
DENSE_BLOCK_MAX = 512  # lowest-values LAPACK at or below, shift-invert above
ARPACK_NEV_FRACTION = 0.15  # low_lying goes dense above this many Ritz values per dimension
CLUSTER_TOL = 1e-8
RESIDUAL_TOL = 1e-9
DEFAULT_SEED = 7


@dataclass
class SpectralResult:
    """Ascending eigenvalues, optional eigenvectors, ground-manifold bookkeeping.

    ``solve_spectrum`` keeps the eigenvectors of the ground cluster only, one
    column per member; ``matvec_count`` counts shift-invert LU solves.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    ground_manifold_dim: int
    gap: float | None
    method: str
    matvec_count: int = 0

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    def ground_vector(self) -> np.ndarray:
        if self.eigenvectors is None:
            raise ValueError("eigenvectors were not requested")
        return self.eigenvectors[:, 0]


def _cluster(values: np.ndarray) -> tuple[int, float | None]:
    dim = int(np.sum(values <= values[0] + CLUSTER_TOL))
    gap = float(values[dim] - values[0]) if dim < values.size else None
    return dim, gap


def dense_spectrum(H: SparseHermitian, vectors: bool = True) -> SpectralResult:
    """Full spectrum by dense Hermitian diagonalization; the oracle solver."""
    if H.dim > DENSE_DIM_CAP:
        raise ValueError(f"dense_spectrum: dimension {H.dim} exceeds cap {DENSE_DIM_CAP}")
    dense = H.toarray()
    if vectors:
        vals, vecs = np.linalg.eigh(dense)
    else:
        vals, vecs = np.linalg.eigvalsh(dense), None
    manifold, gap = _cluster(vals)
    return SpectralResult(vals, vecs, manifold, gap, method="dense")


def _complete_cluster(vals: np.ndarray, k: int, dim: int) -> tuple[int, float | None]:
    """Cluster the k lowest values; a cluster filling all k of fewer than dim
    values may continue above them, so it is an error, not a result."""
    manifold, gap = _cluster(vals)
    if manifold == k < dim:
        raise TruncatedClusterError(f"lowest cluster fills all k={k} requested values and "
                                    f"may extend beyond them: pass a larger k")
    return manifold, gap


def low_lying(H: SparseHermitian, k: int, seed: int = DEFAULT_SEED) -> SpectralResult:
    """k smallest eigenpairs by ARPACK shift-invert Lanczos (``eigsh``).

    The assembled operators are positive semi-definite, so a small negative
    shift makes the factorized operator strictly definite; its sparse LU is
    ARPACK's inverse operator, and the k eigenvalues nearest the shift are
    the k smallest.  The start vector is seeded, so results are
    deterministic.  Every returned pair must meet the residual bar
    RESIDUAL_TOL * scale, where scale is the largest diagonal entry;
    otherwise, or when ARPACK does not converge, ConvergenceError is raised.
    A lowest cluster that fills all k values raises TruncatedClusterError.
    Falls back to the dense oracle for tiny dimensions and when ARPACK would
    need more than ARPACK_NEV_FRACTION of the dimension in Ritz values
    (beyond that it is slower than the dense solve); that fallback raises
    SolverError above DENSE_DIM_CAP.
    """
    dim = H.dim
    if k < 1:
        raise ValueError("k must be >= 1")
    # Lanczos from one start vector sees the further copies of a degenerate
    # level only through rounding; converging extra Ritz values beyond k
    # gives them the iterations to emerge.
    nev = k + max(4, k // 2)
    if nev > ARPACK_NEV_FRACTION * dim or dim <= 32:
        if dim > DENSE_DIM_CAP:
            raise SolverError(f"k={k} needs a dense solve of dimension {dim}, above the "
                              f"cap {DENSE_DIM_CAP}: pass a smaller k")
        result = dense_spectrum(H)
        vals, vecs = result.eigenvalues[:k], result.eigenvectors[:, :k]
        manifold, gap = _complete_cluster(vals, k, dim)
        return SpectralResult(vals, vecs, manifold, gap, method="dense-fallback")

    csr = H.to_csr()
    scale = float(np.max(np.abs(csr.diagonal()), initial=0.0)) or 1.0
    sigma = -1e-3 * scale
    try:
        shifted = sp.csc_matrix(csr - sigma * sp.identity(dim, dtype=csr.dtype, format="csc"))
        lu = spla.splu(shifted)
    except RuntimeError as exc:
        raise ConvergenceError(f"shift-invert factorization failed: {exc}") from exc

    solves = 0

    def solve(x):
        nonlocal solves
        solves += 1
        return lu.solve(x)

    inverse = spla.LinearOperator((dim, dim), matvec=solve, dtype=csr.dtype)
    v0 = np.random.default_rng(seed).standard_normal(dim).astype(csr.dtype)
    try:
        vals, vecs = spla.eigsh(csr, nev, sigma=sigma, which="LM", OPinv=inverse,
                                v0=v0)
    except spla.ArpackError as exc:  # includes ArpackNoConvergence
        raise ConvergenceError(f"ARPACK shift-invert failed: {exc}") from exc
    order = np.argsort(vals)[:k]
    vals, vecs = vals[order], vecs[:, order]
    worst = float(np.max(np.linalg.norm(csr @ vecs - vecs * vals, axis=0)))
    bar = RESIDUAL_TOL * scale
    if worst > bar:
        raise ConvergenceError(f"eigenpair residual {worst:.3e} above {bar:.3e}")
    manifold, gap = _complete_cluster(vals, k, dim)
    return SpectralResult(vals, vecs, manifold, gap, method="shift-invert",
                          matvec_count=solves)


def _blocks(H: SparseHermitian):
    """H's connected blocks as (global indices, local upper coordinates, values).

    Found on the sparsity pattern with unit weights, so a complex H is never
    cast to real.  H's upper coordinates are sorted by row, so they are the
    pattern's CSR as they stand.
    """
    dim = H.dim
    indptr = np.zeros(dim + 1, dtype=np.int64)
    np.cumsum(np.bincount(H.rows, minlength=dim), out=indptr[1:])
    pattern = sp.csr_matrix((np.ones(H.nnz), H.cols, indptr), shape=(dim, dim))
    count, labels = connected_components(pattern, directed=False)
    if count == 1:
        return [(np.arange(dim), H.rows, H.cols, H.vals)]
    members = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=count)
    local = np.empty(dim, dtype=np.int64)
    local[members] = np.arange(dim) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    entry_block = labels[H.rows]
    entries = np.argsort(entry_block, kind="stable")
    cuts = np.cumsum(np.bincount(entry_block, minlength=count))[:-1]
    return list(zip(np.split(members, np.cumsum(sizes)[:-1]),
                    np.split(local[H.rows[entries]], cuts),
                    np.split(local[H.cols[entries]], cuts),
                    np.split(H.vals[entries], cuts)))


def _solve_block(n: int, rows, cols, vals, m: int, seed: int):
    """The m lowest eigenpairs of one block: (values, vectors, iterative, LU solves).

    A lowest cluster that fills a block's m values leaves the union's k
    lowest exact (the union's own check catches a cut ground cluster), so a
    large block whose low_lying reports one is asked again for twice as many.
    """
    if n > DENSE_BLOCK_MAX:
        block = SparseHermitian(n, rows, cols, vals)
        while True:
            try:
                res = low_lying(block, m, seed=seed)
                break
            except TruncatedClusterError:
                m = min(2 * m, n)
        return res.eigenvalues, res.eigenvectors, res.method == "shift-invert", res.matvec_count
    upper = np.zeros((n, n), dtype=vals.dtype)
    upper[rows, cols] = vals
    if n <= TINY_BLOCK_MAX:
        values, vectors = np.linalg.eigh(upper, UPLO="U")
        return values[:m], vectors[:, :m], False, 0
    values, vectors = sla.eigh(upper, lower=False, subset_by_index=[0, m - 1])
    return values, vectors, False, 0


def solve_spectrum(H: SparseHermitian, k: int, seed: int = DEFAULT_SEED) -> SpectralResult:
    """The k lowest levels of H and the eigenvectors of its ground cluster.

    Each connected block is asked for its min(k, size) lowest pairs, so the
    k lowest of their union are exact.  The eigenvectors are one column per
    ground-cluster member, zero outside the block that holds it.  A lowest
    cluster that fills all k values of the union raises SolverError.
    ``method`` is "shift-invert" when any block took it.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    index, values, vectors, iterative, solves = zip(*(
        (members, *_solve_block(members.size, rows, cols, vals, min(k, members.size), seed))
        for members, rows, cols, vals in _blocks(H)))
    owner = np.repeat(np.arange(len(values)), [v.size for v in values])
    column = np.concatenate([np.arange(v.size) for v in values])
    union = np.concatenate(values)
    lowest = np.argsort(union, kind="stable")[:k]
    manifold, gap = _complete_cluster(union[lowest], k, H.dim)
    ground = np.zeros((H.dim, manifold), dtype=np.result_type(*{v.dtype for v in vectors}))
    for j, i in enumerate(lowest[:manifold]):
        ground[index[owner[i]], j] = vectors[owner[i]][:, column[i]]
    return SpectralResult(union[lowest], ground, manifold, gap,
                          method="shift-invert" if any(iterative) else "dense",
                          matvec_count=sum(solves))


# -- closed forms for the single-qubit chain ---------------------------------


def analytic_levels(N: int, eps: float = 1.0) -> np.ndarray:
    """Closed-form level ladder 2*eps*(1 - cos(pi*m / (2(N+1)))), m = 0..2N+1.

    The ladder fills dimension 2(N+1); the even-m entries, each doubled by
    the two identical column chains, are the exact spectrum of a single
    qubit (see solve_tipped_levels).  Its first entry above zero is the
    standard closed-form gap estimate eps*pi^2/(2(N+1))^2 for large N.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    m = np.arange(0, 2 * N + 2)
    return 2.0 * eps * (1.0 - np.cos(np.pi * m / (2.0 * (N + 1))))


def char_det(E: float, N: int, eps: float = 1.0, beta: float = 1.0) -> float:
    """Characteristic determinant of the (N+1)-site column chain at energy E.

    Evaluated as -2*eps^(N+1) * tan(t/2) * [sin((N+1)t) + (beta^2-1) sin(Nt)]
    with cos(t) = 1 - E/(2 eps); equals det(H_col - E) exactly and vanishes
    precisely at the single-qubit eigenenergies for any beta in (0, 1].
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must lie in (0, 1], got {beta!r}")
    if not (0.0 <= E <= 4.0 * eps):
        raise ValueError(f"E={E!r} outside the oscillatory band [0, {4.0 * eps}]")
    x = 1.0 - E / (2.0 * eps)
    theta = float(np.arccos(np.clip(x, -1.0, 1.0)))
    pref = -2.0 * eps ** (N + 1)
    phi = np.pi - theta
    if phi < 1e-9:
        # band-edge limit: tan(t/2) diverges but the bracket vanishes linearly
        return pref * 2.0 * (-1.0) ** N * (1.0 + N * (2.0 - beta ** 2))
    return pref * np.tan(theta / 2.0) * (
        np.sin((N + 1) * theta) + (beta ** 2 - 1.0) * np.sin(N * theta))


def solve_tipped_levels(N: int, eps: float = 1.0, beta: float = 1.0) -> np.ndarray:
    """Exact single-qubit eigenenergies (2(N+1) values) for tipping factor beta.

    Zero plus the N positive roots of the determinant bracket, each doubled
    for the two identical column chains.  Roots are bracketed on a theta grid
    and polished by bisection; bracketing failure raises with the grid.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must lie in (0, 1], got {beta!r}")

    def bracket_fn(theta):
        return np.sin((N + 1) * theta) + (beta ** 2 - 1.0) * np.sin(N * theta)

    # the bracket also vanishes at theta = pi where the determinant does not
    # (the pole of tan(t/2) cancels it); no true root lies within pi/(N+1)
    # of the band edge, so the search stops safely short of it.
    theta_max = np.pi - np.pi / (4.0 * (N + 1))
    roots: list[float] = []
    points = 32 * (N + 1)
    for _ in range(3):
        grid = np.linspace(0.0, theta_max, points + 1)[1:]
        vals = bracket_fn(grid)
        roots = []
        for i in range(len(grid) - 1):
            a, b = grid[i], grid[i + 1]
            fa, fb = vals[i], vals[i + 1]
            if fa == 0.0:
                roots.append(float(a))
            elif fa * fb < 0.0:
                roots.append(float(brentq(bracket_fn, a, b, xtol=1e-15, rtol=1e-15)))
        if vals[-1] == 0.0:
            roots.append(float(grid[-1]))
        if len(roots) == N:
            break
        points *= 8
    if len(roots) != N:
        raise SolverError(
            f"root bracketing found {len(roots)} roots, expected {N} "
            f"(N={N}, beta={beta}, grid={points} points)")
    energies = 2.0 * eps * (1.0 - np.cos(np.asarray(roots)))
    return np.sort(np.concatenate([[0.0, 0.0], energies, energies]))
