"""Desk-scale invariant suite behind the ``verify`` CLI command.

Each check re-derives an expected property from an independent route (dense
oracle, closed form, counting argument) and compares against the package's
primary path, so a broken term builder or solver is named directly.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import hamiltonian as ham
from .basis import ConfigurationBasis, enumerate_basis
from .bounds import upper_bound
from .detection import (attach_readout, choose_beta, cid_sync_check,
                        infer_output_from_readout, predicted_gate_free)
from .eigensolve import (DEFAULT_SEED, _blocks, _scale, _solve_block, _union, analytic_levels,
                         char_det, dense_spectrum, solve_spectrum, solve_tipped_levels)
from .errors import ProgramError
from .program import Pin, Program, gate_cid, gate_cnot, gate_single, pin_all
from .semantics import (_random_unitary, qubit_groups, random_program, reference_circuit,
                        run_program, solve_program)
from .sparse import SparseHermitian


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _region_weights(N: int, j: int, column: int, side: str) -> np.ndarray:
    """Normalized site weights of one qubit spread uniformly over a gate region."""
    w = np.zeros(2 * (N + 1))
    lo, hi = (0, j) if side == "up" else (j, N + 1)
    for r in range(lo, hi):
        w[2 * r + column] = 1.0
    return w / np.linalg.norm(w)


def restricted_gate_spectrum(N: int, j: int, kind: str = "cnot") -> np.ndarray:
    """Spectrum of the M=2 one-gate computer on its 16-dim region-uniform space."""
    gate = gate_cnot(j, 0, 1) if kind == "cnot" else gate_cid(j, 0, 1)
    prog = Program(num_qubits=2, num_steps=N, gates=[gate])
    _, H = ham.assemble(prog)
    vecs = []
    for side_a in ("up", "down"):
        for col_a in (0, 1):
            wa = _region_weights(N, j, col_a, side_a)
            for side_b in ("up", "down"):
                for col_b in (0, 1):
                    wb = _region_weights(N, j, col_b, side_b)
                    vecs.append(np.outer(wa, wb).ravel())
    V = np.array(vecs).T
    return np.linalg.eigvalsh(V.T @ H.toarray() @ V)


def gate_oracle_levels(N: int, j: int, eps: float = 1.0) -> np.ndarray:
    """Expected restricted levels: 0 x4, eps/(j(N-j+1)) x8, top quartet x4."""
    s2, t2 = 1.0 / j, 1.0 / (N - j + 1)
    return np.sort([0.0] * 4 + [eps * s2 * t2] * 8 + [eps * (s2 * s2 + s2 * t2 + t2 * t2)] * 4)


# -- individual checks ---------------------------------------------------------


def check_single_qubit_spectrum():
    worst = 0.0
    for N in range(1, 9):
        prog = Program(num_qubits=1, num_steps=N)
        _, H = ham.assemble(prog)
        dense = dense_spectrum(H).eigenvalues
        exact = solve_tipped_levels(N, 1.0, 1.0)
        ladder = analytic_levels(N)
        expected = np.sort(np.concatenate([ladder[0::2], ladder[0::2]]))
        worst = max(worst, float(np.max(np.abs(dense - exact))),
                    float(np.max(np.abs(dense - expected))))
    return worst < 1e-10, f"max deviation {worst:.2e}"


def check_char_det_vs_dense():
    worst = 0.0
    for N in (3, 6):
        for beta in (1.0, 0.5, 0.25):
            prog = Program(num_qubits=1, num_steps=N, tip_beta=beta)
            _, H = ham.assemble(prog)
            dense = dense_spectrum(H).eigenvalues
            roots = solve_tipped_levels(N, 1.0, beta)
            worst = max(worst, float(np.max(np.abs(dense - roots))))
            for E in dense:
                worst = max(worst, abs(char_det(float(min(max(E, 0.0), 4.0)), N, 1.0, beta)))
    return worst < 1e-8, f"max |root mismatch / det at eigenvalue| {worst:.2e}"


def check_gauge_invariance():
    rng = np.random.default_rng(DEFAULT_SEED)
    worst = 0.0
    for M, N in ((1, 4), (2, 3)):
        gates = [gate_single(i, q, _random_unitary(rng))
                 for q in range(M) for i in range(1, N + 1)]
        _, H = ham.assemble(Program(num_qubits=M, num_steps=N, gates=gates))
        _, H0 = ham.assemble(Program(num_qubits=M, num_steps=N))
        ev = np.linalg.eigvalsh(H.toarray())
        ev0 = np.linalg.eigvalsh(H0.toarray())
        worst = max(worst, float(np.max(np.abs(ev - ev0))))
    return worst < 1e-9, f"max spectral deviation {worst:.2e}"


def check_development_residual():
    rng = np.random.default_rng(DEFAULT_SEED)
    worst = 0.0
    for _ in range(5):
        prog = random_program(rng, max_qubits=2, max_steps=5, max_two_body=2)
        res = run_program(prog)
        worst = max(worst, res.residual)
    return worst <= 1e-8, f"max development residual {worst:.2e}"


def check_cnot_spectrum_oracle():
    worst = 0.0
    for N in (2, 4):
        for j in range(1, N + 1):
            got = restricted_gate_spectrum(N, j, "cnot")
            worst = max(worst, float(np.max(np.abs(got - gate_oracle_levels(N, j)))))
    return worst < 1e-9, f"max restricted-level deviation {worst:.2e}"


def check_gate_commutation():
    cases = [
        (4, 3, gate_cnot(1, 0, 1), gate_cnot(3, 2, 3)),
        (3, 4, gate_cnot(1, 0, 1), gate_cnot(3, 1, 2)),
        (2, 4, gate_cnot(1, 0, 1), gate_cnot(3, 1, 0)),
        (2, 4, gate_cid(1, 0, 1), gate_cnot(3, 0, 1)),
    ]
    builders = {"cnot": ham.cnot_term, "cid": ham.cid_term}
    worst = 0.0
    for M, N, g1, g2 in cases:
        basis = ConfigurationBasis(M, N)
        h1, h2 = (SparseHermitian(basis.dim, *builders[g.kind](basis, g.control, g.target, g.row))
                  .to_csr() for g in (g1, g2))
        comm = (h1 @ h2 - h2 @ h1).toarray()
        worst = max(worst, float(np.max(np.abs(comm))))
    return worst == 0.0, f"max commutator entry {worst:.2e}"


def check_ground_manifold():
    details = []
    grid = [
        Program(num_qubits=1, num_steps=4),
        Program(num_qubits=2, num_steps=3, gates=[gate_cnot(2, 0, 1)]),
        Program(num_qubits=3, num_steps=2, gates=[gate_cnot(1, 0, 1), gate_cnot(2, 1, 2)]),
    ]
    for prog in grid:
        _, H = ham.assemble(prog)
        result = solve_spectrum(H, k=2 ** prog.num_qubits + 1)
        want = 2 ** prog.num_qubits
        if result.ground_manifold_dim != want:
            details.append(f"M={prog.num_qubits}: {result.ground_manifold_dim} != {want}")
    return not details, "; ".join(details) if details else "zero manifold is 2^M on the grid"


def check_positive_semidefinite():
    lows = []
    for prog in (
        Program(num_qubits=2, num_steps=4, gates=[gate_cnot(2, 0, 1)], tip_beta=0.5),
        Program(num_qubits=2, num_steps=3, gates=[gate_cid(3, 0, 1)],
                input_pins=[Pin(0, 1), Pin(1, 0)]),
        Program(num_qubits=1, num_steps=6,
                gates=[gate_single(2, 0, np.array([[0.0, 1.0], [1.0, 0.0]]))]),
    ):
        _, H = ham.assemble(prog)
        lows.append(dense_spectrum(H, vectors=False).eigenvalues[0])
    low = min(lows)
    return low >= -1e-9, f"min eigenvalue {low:.2e}"


def check_tipped_detection():
    worst = 0.0
    for M, N, beta in ((1, 3, 1.0), (2, 3, 0.5), (3, 3, choose_beta(3, 3))):
        prog = Program(num_qubits=M, num_steps=N, tip_beta=beta,
                       input_pins=[Pin(q, 0) for q in range(M)])
        res = run_program(prog)
        worst = max(worst, abs(res.detection.p_all_final - predicted_gate_free(M, N, beta)))
    return worst < 1e-9, f"max |p_all - (1+b^2 N)^-M| {worst:.2e}"


def check_readout_exactness():
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    worst_energy, ok = 0.0, True
    for V in (0.1, 1.0, 10.0):
        prog = Program(num_qubits=2, num_steps=3,
                       gates=[gate_single(1, 0, X), gate_cnot(2, 0, 1)],
                       input_pins=[Pin(0, 0), Pin(1, 0)],
                       readout=[0, 1], readout_strength=V)
        _, H = ham.assemble(prog)
        result = dense_spectrum(H)
        psi = result.ground_vector()
        basis = enumerate_basis(prog)
        worst_energy = max(worst_energy, abs(result.ground_energy))
        bits = infer_output_from_readout(psi, basis, result.ground_energy, _scale(H))
        ref = reference_circuit(replace(prog, readout=[], readout_strength=None), "00")
        want = format(int(np.argmax(np.abs(ref))), "02b")
        ok &= bits == want
    return ok and worst_energy < 1e-9, f"ground energy {worst_energy:.2e}, bits correct: {ok}"


def check_cid_synchronization():
    worst = 0.0
    for M, N in ((2, 3), (3, 4)):
        gates = [gate_cid(N - (M - 2 - k), k, k + 1) for k in range(M - 1)]
        prog = Program(num_qubits=M, num_steps=N, gates=gates,
                       input_pins=[Pin(q, 0) for q in range(M)])
        _, H = ham.assemble(prog)
        result = solve_spectrum(H, k=2)
        sync = cid_sync_check(result.ground_vector(), enumerate_basis(prog), prog)
        worst = max(worst, abs(sync.conditional - 1.0))
    return worst < 1e-10, f"max |conditional - 1| {worst:.2e}"


def check_variational_upper_bound():
    details = []
    for N in (2, 4):
        for j in sorted({1, max(1, N // 2), N}):
            for beta in (1.0, 0.5):
                prog = Program(num_qubits=2, num_steps=N, gates=[gate_cnot(j, 0, 1)],
                               tip_beta=beta)
                _, H = ham.assemble(prog)
                res = solve_spectrum(H, k=5)
                ub = upper_bound(prog)
                if not (0 < res.gap <= ub * (1 + 1e-12)):
                    details.append(f"N={N} j={j} beta={beta}: gap {res.gap:.4e} vs bound {ub:.4e}")
    return not details, "; ".join(details) if details else "gap within (0, bound] on the grid"


def _solve_every_copy(H, k):
    """solve_spectrum's result, solving each block on its own, identical
    copies included, and skipping none."""
    blocks = _blocks(H)
    each = [_solve_block(members.size, rows, cols, vals, min(k, members.size))
            for members, rows, cols, vals in blocks]
    parts = [(members, e[0], e[1]) for (members, *_), e in zip(blocks, each)]
    return replace(_union(H.dim, k, _scale(H), parts), lu_solves=sum(e[2] for e in each),
                   factorizations=sum(1 for e in each if e[2]))


def check_block_spectrum_oracle():
    """The block-wise solve against the whole-matrix dense oracle: levels,
    ground manifold and ground-cluster projector.  Above the dense cap,
    against solving every copy on its own: a program whose blocks come in
    identical copies, which are solved once, and pinned ones whose blocks
    are skipped when the inertia test shows them above the k lowest or when
    they dominate a block so skipped; and two 1024-blocks asked for more
    values than Lanczos takes, against the chain."""
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    cases = [  # (program, k); dimensions 1000, 1024 and 400, each with several blocks
        (Program(num_qubits=3, num_steps=4, gates=[gate_single(1, q, had) for q in range(3)]
                 + [gate_cnot(3, 0, 1)]), 9),
        (pin_all(Program(num_qubits=2, num_steps=15, gates=[gate_single(1, 0, had),
                                                             gate_cnot(8, 0, 1)],
                         tip_beta=choose_beta(2, 15)), "10"), 2),
        (attach_readout(pin_all(Program(num_qubits=2, num_steps=4,
                                        gates=[gate_single(2, 0, x), gate_cid(3, 0, 1)]),
                                "01")), 2),
    ]
    worst_level = worst_projector = 0.0
    details = []
    for prog, k in cases:
        _, H = ham.assemble(prog)
        got, want = solve_spectrum(H, k=k), dense_spectrum(H)
        if got.ground_manifold_dim != want.ground_manifold_dim:
            details.append(f"dim {H.dim}: manifold {got.ground_manifold_dim} "
                           f"!= {want.ground_manifold_dim}")
            continue
        levels = np.abs(got.eigenvalues - want.eigenvalues[:k])
        worst_level = max(worst_level, float(np.max(levels)))
        v, w = got.eigenvectors, want.eigenvectors[:, :want.ground_manifold_dim]
        worst_projector = max(worst_projector,
                              float(np.max(np.abs(v @ v.conj().T - w @ w.conj().T))))
    # dimension 5832, 16 blocks each: the whole H of the M=3, N=8 gap-scan
    # row, 8 copies each of a 549- and a 180-dimensional block (gap-scan
    # itself solves its two factors); and the pinned M=3, N=8 CID
    # chain, whose eight 538-dimensional blocks all differ, so the inertia
    # test skips some.  Untipped, they differ only in their pin penalties,
    # so four of them dominate one that test skipped and are not factored;
    # tipped, they differ off the diagonal too
    chains = [pin_all(Program(num_qubits=3, num_steps=8, tip_beta=beta,
                              gates=[gate_cid(7, 0, 1), gate_cid(8, 1, 2)]), "000")
              for beta in (None, choose_beta(3, 8))]
    solves = []
    for prog, k in ((Program(num_qubits=3, num_steps=8, gates=[gate_cnot(4, 0, 1)]), 9),
                    *((chain, 2) for chain in chains)):
        _, H = ham.assemble(prog)
        got, want = solve_spectrum(H, k=k), _solve_every_copy(H, k)
        if got.ground_manifold_dim != want.ground_manifold_dim:
            details.append(f"dim {H.dim}: manifold {got.ground_manifold_dim} "
                           f"!= {want.ground_manifold_dim} with every copy solved")
            continue
        worst_level = max(worst_level, float(np.max(np.abs(got.eigenvalues - want.eigenvalues))))
        # the part of each column solved per copy that lies outside the memoized span
        v, w = got.eigenvectors, want.eigenvectors
        worst_projector = max(worst_projector,
                              float(np.max(np.linalg.norm(w - v @ (v.conj().T @ w), axis=0))))
        solves.append(f"{got.lu_solves} in {got.factorizations} factorizations (every copy "
                      f"solved: {want.lu_solves} in {want.factorizations}, "
                      f"blocks skipped: {got.blocks_skipped})")
    got = solve_spectrum(ham.assemble(Program(num_qubits=1, num_steps=1023))[1], k=400)
    worst_level = max(worst_level, np.abs(got.eigenvalues - solve_tipped_levels(1023)[:400]).max())
    solves.append(f"{got.lu_solves} in {got.factorizations} factorizations "
                  f"(two 1024-blocks at k=400)")
    passed = not details and worst_level < 1e-10 and worst_projector < 1e-8
    return passed, "; ".join(details) or (f"max level deviation {worst_level:.2e}, "
                                          f"projector {worst_projector:.2e}, LU solves "
                                          + ", ".join(solves))


def check_kronecker_factors():
    """solve_program's factor-by-factor solve of untipped programs whose
    qubits fall into several groups, against the whole H solved by
    solve_spectrum: levels, ground manifold, gap and ground-cluster span.
    The unpinned M=3 CNOT gap-scan row; a pinned one with a complex gate on
    its free qubit; a readout program whose readout qubits lie in different
    groups, one of them a group of its own; and detect's gate-free M=4 row."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    u = _random_unitary(np.random.default_rng(DEFAULT_SEED))
    cases = [  # (program, k); dimensions 2744, 1000, 2048 and 10000
        (Program(num_qubits=3, num_steps=6, gates=[gate_cnot(3, 0, 1)]), 9),
        (pin_all(Program(num_qubits=3, num_steps=4,
                         gates=[gate_cnot(2, 0, 1), gate_single(3, 2, u)]), "101"), 2),
        (attach_readout(pin_all(Program(num_qubits=3, num_steps=3,
                                        gates=[gate_cnot(2, 0, 1), gate_single(1, 2, x)]),
                                "100"), [2, 0]), 2),
        (pin_all(Program(num_qubits=4, num_steps=4), "0000"), 2),
    ]
    worst_level = worst_gap = worst_span = 0.0
    details = []
    for prog, k in cases:
        got, scale = solve_program(prog, k)
        _, H = ham.assemble(prog)
        want = solve_spectrum(H, k=k)
        groups = len(qubit_groups(prog))
        if got.factors != groups or got.ground_manifold_dim != want.ground_manifold_dim:
            details.append(f"dim {H.dim}: {got.factors} factors of {groups} groups, manifold "
                           f"{got.ground_manifold_dim} != {want.ground_manifold_dim}")
            continue
        worst_level = max(worst_level, float(np.max(np.abs(got.eigenvalues - want.eigenvalues)))
                          / scale)
        worst_gap = max(worst_gap, abs(got.gap - want.gap) / want.gap)
        # the part of each whole-H ground column outside the factored span
        v, w = got.eigenvectors, want.eigenvectors
        worst_span = max(worst_span,
                         float(np.max(np.linalg.norm(w - v @ (v.conj().T @ w), axis=0))))
    passed = not details and worst_level < 1e-10 and worst_gap < 1e-10 and worst_span < 1e-5
    return passed, "; ".join(details) or (f"max level deviation {worst_level:.2e} of the "
                                          f"scale, gap {worst_gap:.2e} relative, ground "
                                          f"span {worst_span:.2e}")


ALL_CHECKS = [
    ("single-qubit-spectrum", check_single_qubit_spectrum),
    ("char-det-vs-dense", check_char_det_vs_dense),
    ("gauge-invariance", check_gauge_invariance),
    ("development-residual", check_development_residual),
    ("cnot-spectrum-oracle", check_cnot_spectrum_oracle),
    ("gate-commutation", check_gate_commutation),
    ("ground-manifold", check_ground_manifold),
    ("positive-semidefinite", check_positive_semidefinite),
    ("tipped-detection-product", check_tipped_detection),
    ("readout-exactness", check_readout_exactness),
    ("cid-synchronization", check_cid_synchronization),
    ("variational-upper-bound", check_variational_upper_bound),
    ("block-spectrum-oracle", check_block_spectrum_oracle),
    ("kronecker-factors", check_kronecker_factors),
]


def run_all(names=None) -> list[CheckResult]:
    """The checks named (all of them when ``names`` is empty), in suite order;
    a name that is no check raises ProgramError naming it and the known ones."""
    known = [name for name, _ in ALL_CHECKS]
    unknown = [n for n in names or () if n not in known]
    if unknown:
        raise ProgramError(f"unknown check(s) {unknown}: known checks are {', '.join(known)}")
    results = []
    for name, fn in ALL_CHECKS:
        if names and name not in names:
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure with the exception named
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, passed=bool(passed), detail=detail,
                                   seconds=time.perf_counter() - start))
    return results
