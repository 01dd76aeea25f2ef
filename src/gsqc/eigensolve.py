"""Low-lying spectra: dense oracle, iterative solver, and closed-form chain levels.

The single-qubit chain with identity development is two decoupled
(N+1)-site hopping chains (one per column), so its exact spectrum is the
chain level set doubled.  The closed-form characteristic determinant of one
column is evaluated in a trigonometric form that stays finite at the band
edges; its zeros are the chain levels for any tipping factor beta.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import brentq

from .errors import ConvergenceError, SolverError
from .sparse import SparseHermitian

DENSE_SOLVE_MAX = 2048  # solve_spectrum: dense at or below, shift-invert above
DENSE_DIM_CAP = 4096  # dense_spectrum's memory cap
CLUSTER_TOL = 1e-8
RESIDUAL_TOL = 1e-9
DEFAULT_SEED = 7


@dataclass
class SpectralResult:
    """Ascending eigenvalues, optional eigenvectors, ground-manifold bookkeeping."""

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


def _cluster(values: np.ndarray, cluster_tol: float) -> tuple[int, float | None]:
    dim = int(np.sum(values <= values[0] + cluster_tol))
    gap = float(values[dim] - values[0]) if dim < values.size else None
    return dim, gap


def dense_spectrum(H: SparseHermitian, max_dim: int = DENSE_DIM_CAP, vectors: bool = True,
                   cluster_tol: float = CLUSTER_TOL) -> SpectralResult:
    """Full spectrum by dense Hermitian diagonalization; the oracle solver."""
    if H.dim > max_dim:
        raise ValueError(f"dense_spectrum: dimension {H.dim} exceeds cap {max_dim}")
    dense = H.toarray()
    if vectors:
        vals, vecs = np.linalg.eigh(dense)
    else:
        vals, vecs = np.linalg.eigvalsh(dense), None
    manifold, gap = _cluster(vals, cluster_tol)
    return SpectralResult(vals, vecs, manifold, gap, method="dense")


def _complete_cluster(vals: np.ndarray, k: int, dim: int,
                      cluster_tol: float) -> tuple[int, float | None]:
    """Cluster the k lowest values; a cluster filling all k of fewer than dim
    values may continue above them, so it is an error, not a result."""
    manifold, gap = _cluster(vals, cluster_tol)
    if manifold == k < dim:
        raise SolverError(f"lowest cluster fills all k={k} requested values and may "
                          f"extend beyond them: pass a larger k")
    return manifold, gap


def low_lying(H: SparseHermitian, k: int, tol: float = 0.0, seed: int = DEFAULT_SEED,
              cluster_tol: float = CLUSTER_TOL) -> SpectralResult:
    """k smallest eigenpairs by ARPACK shift-invert Lanczos (``eigsh``).

    The assembled operators are positive semi-definite, so a small negative
    shift makes the factorized operator strictly definite; its sparse LU is
    ARPACK's inverse operator, and the k eigenvalues nearest the shift are
    the k smallest.  The start vector is seeded, so results are
    deterministic.  Every returned pair must meet the residual bar
    max(tol, RESIDUAL_TOL * scale), where scale is the largest diagonal
    entry; otherwise, or when ARPACK does not converge, ConvergenceError is
    raised.  A lowest cluster that fills all k values raises SolverError.
    Falls back to the dense oracle for tiny dimensions and for k too close
    to the dimension for ARPACK.
    """
    dim = H.dim
    if k < 1:
        raise ValueError("k must be >= 1")
    # Lanczos from one start vector sees the further copies of a degenerate
    # level only through rounding; converging extra Ritz values beyond k
    # gives them the iterations to emerge.
    nev = k + max(4, k // 2)
    if 2 * nev >= dim or dim <= 32:
        result = dense_spectrum(H, max_dim=max(dim, DENSE_DIM_CAP), cluster_tol=cluster_tol)
        vals, vecs = result.eigenvalues[:k], result.eigenvectors[:, :k]
        manifold, gap = _complete_cluster(vals, k, dim, cluster_tol)
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
                                v0=v0, tol=tol)
    except spla.ArpackError as exc:  # includes ArpackNoConvergence
        raise ConvergenceError(f"ARPACK shift-invert failed: {exc}") from exc
    order = np.argsort(vals)[:k]
    vals, vecs = vals[order], vecs[:, order]
    worst = float(np.max(np.linalg.norm(csr @ vecs - vecs * vals, axis=0)))
    bar = max(tol, RESIDUAL_TOL * scale)
    if worst > bar:
        raise ConvergenceError(f"eigenpair residual {worst:.3e} above {bar:.3e}",
                               best_residual=worst)
    manifold, gap = _complete_cluster(vals, k, dim, cluster_tol)
    return SpectralResult(vals, vecs, manifold, gap, method="shift-invert",
                          matvec_count=solves)


def solve_spectrum(H: SparseHermitian, k: int, tol: float = 0.0, seed: int = DEFAULT_SEED,
                   cluster_tol: float = CLUSTER_TOL) -> SpectralResult:
    """The dimension picks the solver: the dense oracle's full spectrum at or
    below DENSE_SOLVE_MAX (``k`` unused), the k lowest pairs by shift-invert above."""
    if H.dim <= DENSE_SOLVE_MAX:
        return dense_spectrum(H, cluster_tol=cluster_tol)
    return low_lying(H, k, tol=tol, seed=seed, cluster_tol=cluster_tol)


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
