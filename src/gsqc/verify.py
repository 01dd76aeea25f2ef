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
from .eigensolve import (analytic_levels, char_det, dense_spectrum,
                         solve_spectrum, solve_tipped_levels)
from .program import Pin, Program, gate_cid, gate_cnot, gate_single, pin_all
from .semantics import (_random_unitary, random_program, reference_circuit,
                        run_program)


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
    basis = enumerate_basis(prog)
    sa, sb = basis.qubit_site_array(0), basis.qubit_site_array(1)
    vecs = []
    for side_a in ("up", "down"):
        for col_a in (0, 1):
            wa = _region_weights(N, j, col_a, side_a)
            for side_b in ("up", "down"):
                for col_b in (0, 1):
                    wb = _region_weights(N, j, col_b, side_b)
                    vecs.append(wa[sa] * wb[sb])
    V = np.array(vecs).T
    return np.linalg.eigvalsh(V.T @ H.toarray() @ V)


def gate_oracle_levels(N: int, j: int, eps: float = 1.0) -> np.ndarray:
    """Expected restricted levels: 0 x4, eps/(j(N-j+1)) x8, top quartet x4."""
    s2, t2 = 1.0 / j, 1.0 / (N - j + 1)
    return np.sort([0.0] * 4 + [eps * s2 * t2] * 8 + [eps * (s2 * s2 + s2 * t2 + t2 * t2)] * 4)


# -- individual checks ---------------------------------------------------------


def check_single_qubit_spectrum(seed=7):
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


def check_char_det_vs_dense(seed=7):
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


def check_gauge_invariance(seed=7):
    rng = np.random.default_rng(seed)
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


def check_development_residual(seed=7):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(5):
        prog = random_program(rng, max_qubits=2, max_steps=5, max_two_body=2)
        res = run_program(prog, seed=seed)
        worst = max(worst, res.residual)
    return worst <= 1e-8, f"max development residual {worst:.2e}"


def check_cnot_spectrum_oracle(seed=7):
    worst = 0.0
    for N in (2, 4):
        for j in range(1, N + 1):
            got = restricted_gate_spectrum(N, j, "cnot")
            worst = max(worst, float(np.max(np.abs(got - gate_oracle_levels(N, j)))))
    return worst < 1e-9, f"max restricted-level deviation {worst:.2e}"


def check_gate_commutation(seed=7):
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
        h1 = builders[g1.kind](basis, g1.control, g1.target, g1.row).to_csr()
        h2 = builders[g2.kind](basis, g2.control, g2.target, g2.row).to_csr()
        comm = (h1 @ h2 - h2 @ h1).toarray()
        worst = max(worst, float(np.max(np.abs(comm))))
    return worst == 0.0, f"max commutator entry {worst:.2e}"


def check_ground_manifold(seed=7):
    details = []
    grid = [
        Program(num_qubits=1, num_steps=4),
        Program(num_qubits=2, num_steps=3, gates=[gate_cnot(2, 0, 1)]),
        Program(num_qubits=3, num_steps=2, gates=[gate_cnot(1, 0, 1), gate_cnot(2, 1, 2)]),
    ]
    for prog in grid:
        _, H = ham.assemble(prog)
        result = solve_spectrum(H, k=2 ** prog.num_qubits + 1, seed=seed)
        want = 2 ** prog.num_qubits
        if result.ground_manifold_dim != want:
            details.append(f"M={prog.num_qubits}: {result.ground_manifold_dim} != {want}")
    return not details, "; ".join(details) if details else "zero manifold is 2^M on the grid"


def check_positive_semidefinite(seed=7):
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


def check_tipped_detection(seed=7):
    worst = 0.0
    for M, N, beta in ((1, 3, 1.0), (2, 3, 0.5), (3, 3, choose_beta(3, 3))):
        prog = Program(num_qubits=M, num_steps=N, tip_beta=beta,
                       input_pins=[Pin(q, 0) for q in range(M)])
        res = run_program(prog, seed=seed)
        worst = max(worst, abs(res.detection.p_all_final - predicted_gate_free(M, N, beta)))
    return worst < 1e-9, f"max |p_all - (1+b^2 N)^-M| {worst:.2e}"


def check_readout_exactness(seed=7):
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
        bits = infer_output_from_readout(psi, basis, result.ground_energy)
        ref = reference_circuit(replace(prog, readout=[], readout_strength=None), "00")
        want = format(int(np.argmax(np.abs(ref))), "02b")
        ok &= bits == want
    return ok and worst_energy < 1e-9, f"ground energy {worst_energy:.2e}, bits correct: {ok}"


def check_cid_synchronization(seed=7):
    worst = 0.0
    for M, N in ((2, 3), (3, 4)):
        gates = [gate_cid(N - (M - 2 - k), k, k + 1) for k in range(M - 1)]
        prog = Program(num_qubits=M, num_steps=N, gates=gates,
                       input_pins=[Pin(q, 0) for q in range(M)])
        _, H = ham.assemble(prog)
        result = solve_spectrum(H, k=2, seed=seed)
        sync = cid_sync_check(result.ground_vector(), enumerate_basis(prog), prog)
        worst = max(worst, abs(sync.conditional - 1.0))
    return worst < 1e-10, f"max |conditional - 1| {worst:.2e}"


def check_variational_upper_bound(seed=7):
    details = []
    for N in (2, 4):
        for j in sorted({1, max(1, N // 2), N}):
            for beta in (1.0, 0.5):
                prog = Program(num_qubits=2, num_steps=N, gates=[gate_cnot(j, 0, 1)],
                               tip_beta=beta)
                _, H = ham.assemble(prog)
                res = solve_spectrum(H, k=5, seed=seed)
                ub = upper_bound(prog)
                if not (0 < res.gap <= ub * (1 + 1e-12)):
                    details.append(f"N={N} j={j} beta={beta}: gap {res.gap:.4e} vs bound {ub:.4e}")
    return not details, "; ".join(details) if details else "gap within (0, bound] on the grid"


def check_block_spectrum_oracle(seed=7):
    """The block-wise solve against the whole-matrix dense oracle: levels,
    ground manifold and ground-cluster projector."""
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
        got, want = solve_spectrum(H, k=k, seed=seed), dense_spectrum(H)
        if got.ground_manifold_dim != want.ground_manifold_dim:
            details.append(f"dim {H.dim}: manifold {got.ground_manifold_dim} "
                           f"!= {want.ground_manifold_dim}")
            continue
        levels = np.abs(got.eigenvalues - want.eigenvalues[:k])
        worst_level = max(worst_level, float(np.max(levels)))
        v, w = got.eigenvectors, want.eigenvectors[:, :want.ground_manifold_dim]
        worst_projector = max(worst_projector,
                              float(np.max(np.abs(v @ v.conj().T - w @ w.conj().T))))
    passed = not details and worst_level < 1e-10 and worst_projector < 1e-8
    return passed, "; ".join(details) or (f"max level deviation {worst_level:.2e}, "
                                          f"projector {worst_projector:.2e}")


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
]


def run_all(seed: int = 7, names=None) -> list[CheckResult]:
    results = []
    for name, fn in ALL_CHECKS:
        if names and name not in names:
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn(seed=seed)
        except Exception as exc:  # a crash is a failure with the exception named
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, passed=bool(passed), detail=detail,
                                   seconds=time.perf_counter() - start))
    return results
