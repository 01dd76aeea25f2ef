"""Low-lying spectra: dense oracle, iterative solver, and closed-form chain levels.

The history Hamiltonian is block-diagonal: hopping and gate terms connect
only some configurations.  ``solve_spectrum`` finds the connected blocks on
the sparsity pattern and solves each on its own, by size (``_solve_block``
alone decides): shift-invert Lanczos (``low_lying``) on a large block, and
otherwise LAPACK.  A large block after the first that Sylvester's law of
inertia shows to hold no level below the k lowest found so far is skipped,
and so is one that differs from a block so skipped only by a larger
diagonal (Weyl's monotonicity theorem puts its levels no lower).  Within
one call, each sparsity pattern's fill-reducing order is computed once, by
SuperLU on its first factorization, and every later factorization of that
pattern reuses it.  Only the union of the blocks' values (``_union``)
judges whether the ground cluster is whole.

The single-qubit chain with identity development is two decoupled
(N+1)-site hopping chains (one per column), so its exact spectrum is the
chain level set doubled: one LAPACK call (``solve_tipped_levels``).  The
closed-form characteristic determinant of one column, evaluated in a
trigonometric form that stays finite at the band edges, stays as the
oracle: its zeros are the chain levels for any tipping factor beta.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .errors import ConvergenceError, SolverError, TruncatedClusterError
from .sparse import SparseHermitian

DENSE_DIM_CAP = 4096  # the memory cap of a dense solve
TINY_BLOCK_MAX = 16  # whole-block np.linalg.eigh at or below, faster there than a subset call
DENSE_BLOCK_MAX = 512  # lowest-values LAPACK at or below, shift-invert above while k fits
ARPACK_NEV_FRACTION = 0.15  # most Ritz values per dimension for low_lying; dense is faster beyond
CLUSTER_TOL = 1e-8  # times the energy scale (_scale)
RESIDUAL_TOL = 1e-9
PIVOT_TOL = 1e-10  # an inertia count with a pivot this small, times the scale, is not trusted
INERTIA_RESIDUAL_TOL = 1e-6  # nor one whose test solve leaves a larger relative residual
DEFAULT_SEED = 7  # ARPACK's start and restart vectors; no option sets it
# diagonal pivots in a symmetric order, so U's diagonal is the D of an LDL^H
SYMMETRIC_LU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True})


@dataclass
class SpectralResult:
    """Ascending eigenvalues, optional eigenvectors, ground-manifold bookkeeping.

    ``solve_spectrum`` keeps the eigenvectors of the ground cluster only, one
    column per member.  ``lu_solves`` counts the shift-invert LU solves
    actually run: an identical copy of a solved block adds none, and neither
    does a skipped block; ``blocks_skipped`` counts those, copies included.
    ``factorizations`` counts the sparse LU factorizations actually run,
    Lanczos and inertia tests alike; a copy or a block skipped unfactored
    adds none.  ``factors`` counts the Kronecker factors of a program solved
    one by one (``semantics.solve_program``), 1 for a solve of the whole H.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    ground_manifold_dim: int
    gap: float | None
    lu_solves: int = 0
    blocks_skipped: int = 0
    factorizations: int = 0
    factors: int = 1

    @property
    def method(self) -> str:
        """shift-invert when a block took Lanczos (one LU solve at least) or was skipped."""
        return "shift-invert" if self.lu_solves or self.blocks_skipped else "dense"

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    def ground_vector(self) -> np.ndarray:
        if self.eigenvectors is None:
            raise ValueError("eigenvectors were not requested")
        return self.eigenvectors[:, 0]


def _scale(H: SparseHermitian) -> float:
    """H's energy scale: its largest |diagonal entry|, or 1 when that is 0."""
    return float(np.max(np.abs(H.vals[H.rows == H.cols]), initial=0.0)) or 1.0


def _cluster(values: np.ndarray, scale: float) -> tuple[int, float | None]:
    dim = int(np.sum(values <= values[0] + CLUSTER_TOL * scale))
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
    manifold, gap = _cluster(vals, _scale(H))
    return SpectralResult(vals, vecs, manifold, gap)


def _ritz_count(k: int) -> int:
    """Ritz values low_lying converges for k pairs: the extras give further copies
    of a degenerate level, which Lanczos sees only through rounding, time to emerge."""
    return k + max(4, k // 2)


def _shift_factor(csr, shift: float, orders: dict | None = None):
    """csr - shift, its SYMMETRIC_LU factors, and a solve with them in csr's
    own index order (RuntimeError on a zero pivot).

    ``orders`` maps the sparsity pattern of each matrix factored so far to
    the symmetric column order SuperLU chose for it, argsort(perm_c).  A
    pattern met again is permuted to that order, P (csr - shift) P^T, and
    factored in its natural order with the same diagonal pivoting, so its
    fill-reducing order is not derived again; the solve maps through P.
    """
    shifted = sp.csc_matrix(csr - shift * sp.identity(csr.shape[0], dtype=csr.dtype, format="csc"))
    orders = {} if orders is None else orders
    pattern = (shifted.indptr.tobytes(), shifted.indices.tobytes())
    order = orders.get(pattern)
    if order is None:
        lu = spla.splu(shifted, **SYMMETRIC_LU)
        orders[pattern] = np.argsort(lu.perm_c)
        return shifted, lu, lu.solve
    lu = spla.splu(shifted[order][:, order], **dict(SYMMETRIC_LU, permc_spec="NATURAL"))

    def solve(rhs):
        permuted = lu.solve(rhs[order])
        x = np.empty_like(permuted)
        x[order] = permuted
        return x

    return shifted, lu, solve


def low_lying(H: SparseHermitian, k: int, orders: dict | None = None):
    """k smallest eigenpairs by ARPACK shift-invert Lanczos (``eigsh``):
    (ascending values, vectors, LU solves run).

    The assembled operators are positive semi-definite, so the negative
    shift sigma = -CLUSTER_TOL * scale, where scale is the largest |diagonal
    entry|, makes the factorized operator strictly definite; its sparse LU,
    pivoted on the diagonal in a symmetric order (SYMMETRIC_LU), is ARPACK's
    inverse operator, and the k eigenvalues nearest the shift are the k
    smallest.  Shift-invert converges as fast as 1/(lambda - sigma) tells
    the wanted levels apart, so the shift sits as close to the ground level
    as one cluster's width: a tipped program's gap of 1e-4 * scale or less
    is then still far wider than lambda_0 - sigma.  ARPACK stops when each
    Ritz pair of the inverse has |OP x - theta x| <= tol * |theta|, which
    gives |H x - lambda x| <= |H - sigma| * tol; so tol is RESIDUAL_TOL *
    scale over |H - sigma|_inf, the shifted matrix's largest absolute row
    sum, not machine precision.  ARPACK's values 1/theta + sigma then carry
    an error first order in that residual, so the values returned are the
    Rayleigh quotients x^H H x of the k lowest vectors, re-sorted ascending,
    whose error is second order (Kato-Temple: at most |r|^2 over the
    distance to the next level).  Every returned pair must meet the residual
    bar RESIDUAL_TOL * scale, checked explicitly; otherwise, or when ARPACK
    does not converge, ConvergenceError is raised.
    The pairs are returned as they stand, a lowest cluster filling all k
    values included: whether it is complete is for the union to judge.
    The start vector and every restart vector ARPACK asks for are drawn from
    the constant DEFAULT_SEED, so two calls on the same H, in one process or
    two, give the same pairs, bit for bit, and the same LU solve count.  A k
    needing more Ritz values (_ritz_count) than ARPACK_NEV_FRACTION of the
    dimension raises SolverError.  ``orders`` is _shift_factor's.
    """
    dim = H.dim
    if k < 1:
        raise ValueError("k must be >= 1")
    nev = _ritz_count(k)
    if nev > ARPACK_NEV_FRACTION * dim:
        raise SolverError(f"k={k} needs {nev} Ritz values, more than {ARPACK_NEV_FRACTION:.0%} "
                          f"of the dimension {dim}: pass a smaller k")
    csr, scale = H.to_csr(), _scale(H)
    sigma = -CLUSTER_TOL * scale
    try:
        shifted, _, lu_solve = _shift_factor(csr, sigma, orders)
    except RuntimeError as exc:
        raise ConvergenceError(f"shift-invert factorization failed: {exc}") from exc
    bar = RESIDUAL_TOL * scale
    tol = bar / spla.norm(shifted, np.inf)  # ARPACK's stop at the residual bar

    solves = 0

    def solve(x):
        nonlocal solves
        solves += 1
        return lu_solve(x)

    inverse = spla.LinearOperator((dim, dim), matvec=solve, dtype=csr.dtype)
    v0 = np.random.default_rng(DEFAULT_SEED).standard_normal(dim).astype(csr.dtype)
    try:
        vals, vecs = spla.eigsh(csr, nev, sigma=sigma, which="LM", OPinv=inverse,
                                v0=v0, tol=tol, rng=DEFAULT_SEED)
    except spla.ArpackError as exc:  # includes ArpackNoConvergence
        raise ConvergenceError(f"ARPACK shift-invert failed: {exc}") from exc
    vecs = vecs[:, np.argsort(vals)[:k]]
    Hv = csr @ vecs
    # Rayleigh quotients x^H H x
    vals = np.real(np.sum(vecs.conj() * Hv, axis=0))
    order = np.argsort(vals)
    vals, vecs, Hv = vals[order], vecs[:, order], Hv[:, order]
    worst = float(np.max(np.linalg.norm(Hv - vecs * vals, axis=0)))
    if worst > bar:
        raise ConvergenceError(f"eigenpair residual {worst:.3e} above {bar:.3e}")
    return vals, vecs, solves


def _blocks(H: SparseHermitian):
    """H's connected blocks as (global indices, local upper coordinates, values).

    Found on the sparsity pattern with unit weights, so a complex H is never
    cast to real.  H's upper coordinates are in SparseHermitian's row-major
    canonical order, so they are the pattern's CSR as they stand.
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
    ends = np.cumsum(sizes)
    local = np.empty(dim, dtype=np.int64)
    local[members] = np.arange(dim) - np.repeat(ends - sizes, sizes)
    entry_block = labels[H.rows]
    entries = np.argsort(entry_block, kind="stable")
    rows, cols, vals = local[H.rows[entries]], local[H.cols[entries]], H.vals[entries]
    m_cuts = [0] + ends.tolist()
    e_cuts = [0] + np.cumsum(np.bincount(entry_block, minlength=count)).tolist()
    return [(members[m0:m1], rows[e0:e1], cols[e0:e1], vals[e0:e1])
            for m0, m1, e0, e1 in zip(m_cuts, m_cuts[1:], e_cuts, e_cuts[1:])]


def _levels_below(csr, tau: float, scale: float, orders: dict | None = None) -> int | None:
    """How many eigenvalues of a block lie below tau, or None when the count
    cannot be trusted.

    Factored as SYMMETRIC_LU, B - tau = L D L^H, and by Sylvester's law of
    inertia D has as many negative pivots as B has eigenvalues below tau.
    Pivoting on the diagonal is not always stable for an indefinite matrix,
    and a shift within rounding of an eigenvalue leaves that one's sign to
    chance, so the count is trusted only when SuperLU kept the symmetric
    order, no pivot is within PIVOT_TOL * scale of zero, and a solve with
    the factors has a relative residual below INERTIA_RESIDUAL_TOL.  That
    residual is about the factors' backward error over the distance from
    tau to the nearest eigenvalue, the ratio that must be small.  Factored in
    a reused order (``orders``, _shift_factor's), the pivots are those of
    P (B - tau) P^T, congruent to B - tau, so they count the same levels.
    """
    n = csr.shape[0]
    try:
        shifted, lu, lu_solve = _shift_factor(csr, tau, orders)
    except RuntimeError:  # an exactly zero pivot
        return None
    pivots = lu.U.diagonal().real
    if not np.array_equal(lu.perm_r, lu.perm_c) or np.min(np.abs(pivots)) <= PIVOT_TOL * scale:
        return None
    rhs = np.random.default_rng(n).standard_normal(n).astype(csr.dtype)
    x = lu_solve(rhs)
    if not np.linalg.norm(shifted @ x - rhs) <= INERTIA_RESIDUAL_TOL * np.linalg.norm(rhs):
        return None
    return int(np.count_nonzero(pivots < 0))


def _solve_block(n: int, rows, cols, vals, m: int, operator: SparseHermitian | None = None,
                 orders: dict | None = None):
    """The m lowest eigenpairs of one block: (values, vectors, LU solves).

    Above DENSE_BLOCK_MAX, low_lying on ``operator`` (built if None) when
    m's Ritz count fits in ARPACK_NEV_FRACTION of n, with ``orders``.  Else
    LAPACK: on m values if TINY_BLOCK_MAX < n <= DENSE_BLOCK_MAX, else on
    the whole block, faster there, up to DENSE_DIM_CAP (SolverError above).
    Either way the m lowest values are exact, so the union's k lowest are too."""
    if n > DENSE_BLOCK_MAX and _ritz_count(m) <= ARPACK_NEV_FRACTION * n:
        operator = SparseHermitian(n, rows, cols, vals) if operator is None else operator
        return low_lying(operator, m, orders)
    if n > DENSE_DIM_CAP:
        raise SolverError(f"k={m} needs a dense solve of dimension {n}, above the "
                          f"cap {DENSE_DIM_CAP}: pass a smaller k")
    upper = np.zeros((n, n), dtype=vals.dtype)
    upper[rows, cols] = vals
    if TINY_BLOCK_MAX < n <= DENSE_BLOCK_MAX:
        values, vectors = sla.eigh(upper, lower=False, subset_by_index=[0, m - 1])
        return values, vectors, 0
    values, vectors = np.linalg.eigh(upper, UPLO="U")
    return values[:m], vectors[:, :m], 0


def _union(dim: int, k: int, scale: float, parts) -> SpectralResult:
    """The k lowest of the blocks' values, and the ground cluster's columns at
    their own block's indices; ``parts`` holds (indices, values, local vectors)
    per block, in block order, or one (None, values, None) to judge values
    alone, which gives no eigenvectors.  The one judge of the cluster: one
    filling all k of fewer than dim values may continue above them, so it is
    an error."""
    index, values, vectors = zip(*parts)
    owner = np.repeat(np.arange(len(values)), [v.size for v in values])
    column = np.concatenate([np.arange(v.size) for v in values])
    union = np.concatenate(values)
    lowest = np.argsort(union, kind="stable")[:k]
    manifold, gap = _cluster(union[lowest], scale)
    if manifold == k < dim:
        raise TruncatedClusterError(f"lowest cluster fills all k={k} requested values and "
                                    f"may extend beyond them: pass a larger k")
    if vectors[0] is None:
        return SpectralResult(union[lowest], None, manifold, gap)
    ground = np.zeros((dim, manifold), dtype=np.result_type(*{v.dtype for v in vectors}))
    for j, i in enumerate(lowest[:manifold]):
        ground[index[owner[i]], j] = vectors[owner[i]][:, column[i]]
    return SpectralResult(union[lowest], ground, manifold, gap)


def solve_spectrum(H: SparseHermitian, k: int) -> SpectralResult:
    """The k lowest levels of H and the eigenvectors of its ground cluster.

    Each connected block is asked for its min(k, size) lowest pairs, so the
    k lowest of their union are exact.  Blocks with bit-identical local data
    are solved once: every copy takes the same values and local vectors, as
    a solve of its own would give, placed at the copy's own indices.

    Distinct blocks are solved in a cheap order: the dense ones first, then
    the large ones by ascending 1^T B 1 / n, the all-ones Rayleigh quotient,
    an upper bound on the lowest level.  The first large block in that
    order is solved untested: it is the likeliest to hold one of the k
    lowest, so a test there would mostly be a second factorization.  Once
    the solved blocks, copies counted, hold k values, every later large
    block is first factored at tau, their k-th lowest plus CLUSTER_TOL *
    scale.  A trusted count of no level below tau (_levels_below) means it
    cannot change the k lowest, so it is skipped with its copies.  A later
    block with the same size, coordinates and off-diagonal values as a
    block so skipped, and a diagonal at least as large at every entry, is
    skipped unfactored: by Weyl's monotonicity theorem its lowest level is
    at least that block's, which was at least tau then, and tau only falls
    as blocks are solved.  A larger diagonal also gives a larger order key,
    so the dominated block comes first.  The union is taken in block order,
    so the solve order changes only the cost.

    Blocks often share a sparsity pattern (pin-penalty sectors differ only
    on the diagonal, and a block tested at tau may be solved at sigma), so
    one dict of fill-reducing orders (_shift_factor) serves every
    factorization of this call: SuperLU orders each pattern once.

    The eigenvectors are one column per ground-cluster member, zero outside
    the block that holds it.  A lowest cluster that fills all k values of
    the union raises TruncatedClusterError (_union), a block's own cluster
    filling its values does not.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scale = _scale(H)
    blocks = _blocks(H)
    keys = [(members.size, vals.dtype, rows.tobytes(), cols.tobytes(), vals.tobytes())
            for members, rows, cols, vals in blocks]  # a block's exact local data
    copies = {}  # key -> the positions of its copies
    for b, key in enumerate(keys):
        copies.setdefault(key, []).append(b)

    def cost(key):  # a large block's 1^T B 1 / n, an upper bound on its lowest level
        members, rows, cols, vals = blocks[copies[key][0]]
        if members.size <= DENSE_BLOCK_MAX:
            return 0, 0.0
        diag = rows == cols
        return 1, float(np.sum(vals[diag].real) + 2 * np.sum(vals[~diag].real)) / members.size

    solved = {}  # key -> its _solve_block result
    found = []  # the values solved so far, one array per copy
    floors = {}  # (n, rows, cols, off-diagonal values) -> diagonals of blocks skipped by inertia
    orders = {}  # sparsity pattern -> its fill-reducing order
    skipped = tested = 0
    large_met = False
    for key in sorted(copies, key=cost):
        members, rows, cols, vals = blocks[copies[key][0]]
        n, block = members.size, None
        if n > DENSE_BLOCK_MAX and large_met and sum(v.size for v in found) >= k:
            diag = rows == cols
            shape = (n, key[2], key[3], vals[~diag].tobytes())
            diagonal = vals[diag].real
            if any(np.all(diagonal >= floor) for floor in floors.get(shape, ())):
                skipped += len(copies[key])
                continue
            block = SparseHermitian(n, rows, cols, vals)
            tau = np.partition(np.concatenate(found), k - 1)[k - 1] + CLUSTER_TOL * scale
            tested += 1
            if _levels_below(block.to_csr(), tau, scale, orders) == 0:
                floors.setdefault(shape, []).append(diagonal)
                skipped += len(copies[key])
                continue
        large_met = large_met or n > DENSE_BLOCK_MAX
        solved[key] = _solve_block(n, rows, cols, vals, min(k, n), block, orders)
        found += [solved[key][0]] * len(copies[key])

    parts = [(blocks[b][0], *solved[key][:2]) for b, key in enumerate(keys) if key in solved]
    lanczos = sum(1 for r in solved.values() if r[2])  # one factorization each
    return replace(_union(H.dim, k, scale, parts), blocks_skipped=skipped,
                   lu_solves=sum(r[2] for r in solved.values()),
                   factorizations=tested + lanczos)


# -- closed forms for the single-qubit chain ---------------------------------


def analytic_levels(N: int, eps: float = 1.0) -> np.ndarray:
    """Closed-form level ladder 2*eps*(1 - cos(pi*m / (2(N+1)))), m = 0..2N+1,
    evaluated as 4*eps*sin^2(pi*m / (4(N+1))), free of 1 - cos cancellation.

    The ladder fills dimension 2(N+1); the even-m entries, each doubled by
    the two identical column chains, are the exact spectrum of a single
    qubit (see solve_tipped_levels).  Its first entry above zero is the
    standard closed-form gap estimate eps*pi^2/(2(N+1))^2 for large N.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    m = np.arange(0, 2 * N + 2)
    return 4.0 * eps * np.sin(np.pi * m / (4.0 * (N + 1))) ** 2


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

    One column's chain is eps * B^T B, where row i of the N x (N+1) bond
    operator B is b_i e_i - e_{i-1}, with b_N = beta and every other b_i = 1.
    Its nonzero levels are those of B B^T, the positive definite tridiagonal
    with diagonal (2, ..., 2, 1 + beta^2) and off-diagonal -1, which LAPACK
    pteqr solves through its bidiagonal factor to high relative accuracy
    (Demmel and Kahan 1990), the lowest levels included.  Zero twice, and
    each of those N levels doubled for the two identical column chains.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must lie in (0, 1], got {beta!r}")
    diagonal = np.full(N, 2.0)
    diagonal[-1] = 1.0 + beta ** 2
    # the wrapper wants one off-diagonal entry at N = 1, which LAPACK ignores
    levels, _, _, info = sla.lapack.dpteqr(diagonal, -np.ones(max(N - 1, 1)), np.zeros((1, 1)))
    if info != 0:
        raise SolverError(f"LAPACK dpteqr failed with info={info} (N={N}, beta={beta})")
    return np.sort(np.concatenate([[0.0, 0.0], np.repeat(eps * levels, 2)]))
