import numpy as np
import pytest

from gsqc.bounds import upper_bound
from gsqc.eigensolve import (analytic_levels, char_det, dense_spectrum, low_lying,
                             solve_spectrum, solve_tipped_levels)
from gsqc.errors import SolverError
from gsqc.hamiltonian import assemble
from gsqc.program import Program, gate_cnot
from gsqc.sparse import SparseHermitian


def single_qubit_chain(N, beta=1.0, eps=1.0):
    """One-column (N+1)-site chain, the independent dense oracle for char_det."""
    n = N + 1
    H = np.zeros((n, n))
    for i in range(1, N + 1):
        b = beta if i == N else 1.0
        H[i - 1, i - 1] += 1.0
        H[i, i] += b * b
        H[i, i - 1] -= b
        H[i - 1, i] -= b
    return eps * H


# -- dense oracle ---------------------------------------------------------------


def test_dense_m1_n1():
    _, H = assemble(Program(num_qubits=1, num_steps=1))
    res = dense_spectrum(H)
    assert np.allclose(res.eigenvalues, [0, 0, 2, 2], atol=1e-12)
    assert res.ground_manifold_dim == 2
    assert np.isclose(res.gap, 2.0)


def test_dense_zero_operator():
    res = dense_spectrum(SparseHermitian(8))
    assert np.allclose(res.eigenvalues, 0.0)
    assert res.ground_manifold_dim == 8
    assert res.gap is None


def test_dense_m1_n3_matches_exact_levels():
    _, H = assemble(Program(num_qubits=1, num_steps=3))
    res = dense_spectrum(H)
    assert np.allclose(res.eigenvalues, solve_tipped_levels(3), atol=1e-10)


def test_dense_dimension_cap():
    _, H = assemble(Program(num_qubits=2, num_steps=3))
    with pytest.raises(ValueError, match="exceeds cap"):
        dense_spectrum(H, max_dim=32)


def test_dense_residuals_and_orthonormality():
    _, H = assemble(Program(num_qubits=2, num_steps=2, gates=[gate_cnot(1, 0, 1)]))
    res = dense_spectrum(H)
    V = res.eigenvectors
    assert np.max(np.abs(V.T @ V - np.eye(V.shape[1]))) < 1e-10
    csr = H.to_csr()
    for k in range(V.shape[1]):
        assert np.linalg.norm(csr @ V[:, k] - res.eigenvalues[k] * V[:, k]) < 1e-9


# -- iterative solver -----------------------------------------------------------


def test_low_lying_ground_energy_zero():
    _, H = assemble(Program(num_qubits=2, num_steps=6, gates=[gate_cnot(3, 0, 1)]))
    res = low_lying(H, k=5)
    assert abs(res.eigenvalues[0]) < 1e-8
    assert res.ground_manifold_dim == 4


def test_low_lying_matches_dense_oracle():
    _, H = assemble(Program(num_qubits=3, num_steps=4))
    dense = dense_spectrum(H)
    it = low_lying(H, k=9)
    assert np.allclose(it.eigenvalues, dense.eigenvalues[:9], atol=1e-8)
    assert it.matvec_count > 0
    V = it.eigenvectors
    assert np.max(np.abs(V.T @ V - np.eye(9))) < 1e-10


def test_low_lying_gap_below_variational_bound():
    prog = Program(num_qubits=2, num_steps=8, gates=[gate_cnot(4, 0, 1)])
    _, H = assemble(prog)
    res = low_lying(H, k=5)
    assert 0 < res.gap <= 1.0 / 20.0 + 1e-10


def test_low_lying_small_dimension_falls_back_dense():
    _, H = assemble(Program(num_qubits=1, num_steps=1))
    res = low_lying(H, k=3)
    assert res.method == "dense-fallback"
    assert np.allclose(res.eigenvalues, [0, 0, 2], atol=1e-12)


def test_solve_spectrum_dispatch():
    # the dimension alone picks the solver: the dense full spectrum up to
    # dimension 2048, the k lowest by shift-invert above it
    for prog, dim in ((Program(num_qubits=2, num_steps=3), 64),
                      (Program(num_qubits=1, num_steps=1023), 2048)):
        _, H = assemble(prog)
        assert H.dim == dim
        res = solve_spectrum(H, k=5)
        assert res.method == "dense" and res.eigenvalues.size == dim
    _, H = assemble(Program(num_qubits=2, num_steps=22, gates=[gate_cnot(11, 0, 1)]))
    assert H.dim == 2116
    res = solve_spectrum(H, k=5)
    assert res.method == "shift-invert" and res.eigenvalues.size == 5
    assert res.ground_manifold_dim == 4


def test_low_lying_resolves_eightfold_manifold_against_dense():
    _, H = assemble(Program(num_qubits=3, num_steps=4, gates=[gate_cnot(2, 0, 1)]))
    res = low_lying(H, k=9)
    assert res.method == "shift-invert"
    assert res.ground_manifold_dim == 8
    assert np.allclose(res.eigenvalues, dense_spectrum(H).eigenvalues[:9], atol=1e-8)


def test_low_lying_eightfold_manifold_above_dense_cutoff():
    prog = Program(num_qubits=3, num_steps=10, gates=[gate_cnot(5, 0, 1)])
    _, H = assemble(prog)
    assert H.dim == 10648
    res = solve_spectrum(H, k=9)
    assert res.ground_manifold_dim == 8
    assert 0 < res.gap <= upper_bound(prog)


def test_low_lying_rejects_cluster_filling_k():
    _, H = assemble(Program(num_qubits=3, num_steps=4, gates=[gate_cnot(2, 0, 1)]))
    with pytest.raises(SolverError, match="larger k"):
        low_lying(H, k=8)
    _, H = assemble(Program(num_qubits=1, num_steps=1))
    with pytest.raises(SolverError, match="larger k"):
        low_lying(H, k=2)  # dense fallback


def test_low_lying_deterministic():
    _, H = assemble(Program(num_qubits=2, num_steps=5, gates=[gate_cnot(2, 0, 1)]))
    a = low_lying(H, k=5, seed=3)
    b = low_lying(H, k=5, seed=3)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


# -- closed forms ---------------------------------------------------------------


def test_analytic_levels_ladder():
    lad = analytic_levels(1)
    want = [0.0, 2 * (1 - np.cos(np.pi / 4)), 2.0, 2 * (1 - np.cos(3 * np.pi / 4))]
    assert np.allclose(lad, want, atol=1e-14)
    for N in range(1, 8):
        assert analytic_levels(N)[0] == 0.0
        assert len(analytic_levels(N)) == 2 * (N + 1)


def test_analytic_levels_large_n_asymptote():
    E1 = analytic_levels(10)[1]
    assert abs(E1 - np.pi**2 / (2 * 11) ** 2) < 0.02 * E1


def test_char_det_vanishes_at_exact_levels():
    for N in range(1, 11):
        for E in np.unique(solve_tipped_levels(N)):
            assert abs(char_det(float(E), N)) < 1e-10


def test_char_det_zero_at_origin():
    for N in (1, 4, 9):
        assert char_det(0.0, N) == 0.0


def test_char_det_matches_numeric_determinant():
    # global scale fitted at one reference energy, then relative agreement
    for N in (2, 5, 9):
        for beta in (1.0, 0.5, 0.25):
            chain = single_qubit_chain(N, beta)
            E_ref = 0.37
            scale = np.linalg.det(chain - E_ref * np.eye(N + 1)) / char_det(E_ref, N, beta=beta)
            for E in np.linspace(0.05, 3.9, 17):
                numeric = np.linalg.det(chain - E * np.eye(N + 1))
                trig = scale * char_det(float(E), N, beta=beta)
                if abs(numeric) > 1e-9:
                    assert abs(trig - numeric) < 1e-8 * abs(numeric)


def test_char_det_band_edge_finite():
    val = char_det(4.0, 3, beta=0.5)
    assert np.isfinite(val) and val != 0.0


def test_char_det_domain_errors():
    with pytest.raises(ValueError):
        char_det(-0.1, 3)
    with pytest.raises(ValueError):
        char_det(4.5, 3)
    with pytest.raises(ValueError):
        char_det(1.0, 3, beta=0.0)


def test_char_det_sign_changes_bracket_tipped_levels():
    N, beta = 3, 0.5
    levels = np.unique(solve_tipped_levels(N, beta=beta))
    dense = np.unique(np.round(np.linalg.eigvalsh(single_qubit_chain(N, beta)), 12))
    assert np.allclose(levels, dense, atol=1e-8)
    # between consecutive roots the determinant keeps one sign
    for lo, hi in zip(levels[:-1], levels[1:]):
        mids = np.linspace(lo + 1e-6, hi - 1e-6, 7)
        signs = np.sign([char_det(float(E), N, beta=beta) for E in mids])
        assert np.all(signs == signs[0])


def test_solve_tipped_levels_beta_one_reduction():
    for N in (1, 4, 7):
        ladder = analytic_levels(N)
        expected = np.sort(np.concatenate([ladder[0::2], ladder[0::2]]))
        assert np.allclose(solve_tipped_levels(N), expected, atol=1e-12)


def test_solve_tipped_levels_against_dense():
    for N, beta in ((4, 0.5), (6, 0.25), (3, 0.75)):
        chain = np.linalg.eigvalsh(single_qubit_chain(N, beta))
        got = solve_tipped_levels(N, beta=beta)
        assert np.allclose(got, np.sort(np.concatenate([chain, chain])), atol=1e-8)


def test_tipped_gap_ratio_stays_order_one():
    for N in (4, 8, 12):
        untipped = solve_tipped_levels(N)
        gap1 = untipped[untipped > 1e-9][0]
        for beta in (0.2, 0.4, 0.6, 0.8, 1.0):
            levels = solve_tipped_levels(N, beta=beta)
            gap = levels[levels > 1e-9][0]
            assert 0.1 <= gap / gap1 <= 10.0
