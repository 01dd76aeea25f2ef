import contextlib
import functools
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from gsqc.bounds import upper_bound
from gsqc.cli import main
from gsqc.detection import attach_readout, choose_beta
import gsqc.eigensolve
import gsqc.semantics
from gsqc.eigensolve import (CLUSTER_TOL, _blocks, _levels_below, _solve_block,
                             analytic_levels, char_det, dense_spectrum, low_lying,
                             solve_spectrum, solve_tipped_levels)
from gsqc.errors import SolverError
from gsqc.hamiltonian import assemble
from gsqc.program import (Program, gate_cid, gate_cnot, gate_single, load_program, pin_all,
                          program_to_dict)
from gsqc.semantics import random_program, solve_program
from gsqc.sparse import SparseHermitian

HAD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
GOLDEN = Path(__file__).parent / "golden"


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


def m2_n32():
    """M=2, N=32 with a mid CNOT: dimension 4356, above the 4096 dense cap."""
    _, H = assemble(Program(num_qubits=2, num_steps=32, gates=[gate_cnot(16, 0, 1)]))
    assert H.dim == 4356
    return H


def test_dense_dimension_cap():
    with pytest.raises(ValueError, match="exceeds cap"):
        dense_spectrum(m2_n32())


def test_dense_residuals_and_orthonormality():
    _, H = assemble(Program(num_qubits=2, num_steps=2, gates=[gate_cnot(1, 0, 1)]))
    res = dense_spectrum(H)
    V = res.eigenvectors
    assert np.max(np.abs(V.T @ V - np.eye(V.shape[1]))) < 1e-10
    csr = H.to_csr()
    for k in range(V.shape[1]):
        assert np.linalg.norm(csr @ V[:, k] - res.eigenvalues[k] * V[:, k]) < 1e-9


# -- iterative solver -----------------------------------------------------------


def lowest_cluster(values, H):
    """The size of the cluster of values within CLUSTER_TOL * scale of the
    lowest, and the gap above it."""
    dim = int(np.sum(values <= values[0] + CLUSTER_TOL * gsqc.eigensolve._scale(H)))
    return dim, float(values[dim] - values[0])


def test_low_lying_ground_energy_zero():
    _, H = assemble(Program(num_qubits=2, num_steps=6, gates=[gate_cnot(3, 0, 1)]))
    values, _, _ = low_lying(H, k=5)
    assert abs(values[0]) < 1e-8
    assert lowest_cluster(values, H)[0] == 4


def test_low_lying_matches_dense_oracle():
    _, H = assemble(Program(num_qubits=3, num_steps=4))
    dense = dense_spectrum(H)
    values, V, solves = low_lying(H, k=9)
    assert np.allclose(values, dense.eigenvalues[:9], atol=1e-8)
    assert solves > 0
    assert np.max(np.abs(V.T @ V - np.eye(9))) < 1e-10


def test_low_lying_gap_below_variational_bound():
    prog = Program(num_qubits=2, num_steps=8, gates=[gate_cnot(4, 0, 1)])
    _, H = assemble(prog)
    _, gap = lowest_cluster(low_lying(H, k=5)[0], H)
    assert 0 < gap <= 1.0 / 20.0 + 1e-10


def test_small_dimension_refused_by_low_lying_solved_dense():
    # dimension 4: k=3 needs 7 Ritz values, beyond ARPACK_NEV_FRACTION of it
    _, H = assemble(Program(num_qubits=1, num_steps=1))
    with pytest.raises(SolverError, match="smaller k"):
        low_lying(H, k=3)
    res = solve_spectrum(H, k=3)
    assert res.method == "dense"
    assert np.allclose(res.eigenvalues, [0, 0, 2], atol=1e-12)


def test_solve_spectrum_dispatch(tmp_path, capsys):
    # the k lowest levels at every size, each block solved by its own size
    cases = ((Program(num_qubits=2, num_steps=3), 64, "dense"),
             (Program(num_qubits=1, num_steps=1023), 2048, "shift-invert"),
             (Program(num_qubits=2, num_steps=22, gates=[gate_cnot(11, 0, 1)]), 2116, "dense"))
    for prog, dim, method in cases:
        _, H = assemble(prog)
        assert H.dim == dim
        res = solve_spectrum(H, k=5)
        assert res.method == method and res.eigenvalues.size == 5
        assert res.eigenvectors.shape == (dim, res.ground_manifold_dim)
    _, H = assemble(cases[0][0])
    assert np.allclose(solve_spectrum(H, k=5).eigenvalues, dense_spectrum(H).eigenvalues[:5],
                       atol=1e-12)
    _, H = assemble(cases[1][0])
    assert np.allclose(solve_spectrum(H, k=5).eigenvalues, solve_tipped_levels(1023)[:5],
                       atol=1e-12)
    assert res.ground_manifold_dim == 4
    # gsqc spectrum still prints every level up to dimension 2048
    for prog, dim, _ in cases[:2]:
        path = tmp_path / f"dim{dim}.json"
        path.write_text(json.dumps(program_to_dict(prog)))
        assert main(["spectrum", "--program", str(path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == dim + 1


def _oracle_cases():
    """Seeded programs up to dimension 4096, as (program, k) parameters."""
    rng = np.random.default_rng(11)
    cases = []
    for pool, kind in (("orthogonal", "cnot"), ("unitary", "cid"), ("unitary", "cnot"),
                       ("orthogonal", "cid")):
        for i in range(3):
            prog = random_program(rng, max_qubits=3, max_steps=4, max_two_body=3,
                                  gate_pool=pool, two_body_kind=kind)
            cases.append(pytest.param(prog, 2, id=f"pinned-{pool}-{kind}-{i}"))
            tipped = replace(prog, tip_beta=float(choose_beta(prog.num_qubits, prog.num_steps)))
            cases.append(pytest.param(tipped, 2, id=f"tipped-{pool}-{kind}-{i}"))
    for i in range(4):
        prog = random_program(rng, max_qubits=2, max_steps=5, gate_pool="permutation")
        cases.append(pytest.param(attach_readout(prog), 2, id=f"readout-{i}"))
    for M, N, gate in ((2, 6, gate_cnot), (2, 9, gate_cid), (3, 4, gate_cnot),
                       (3, 5, gate_cid), (3, 5, gate_cnot), (3, 6, gate_cnot),
                       (3, 7, gate_cnot)):
        prog = Program(num_qubits=M, num_steps=N, gates=[gate((N + 1) // 2, 0, 1)])
        cases.append(pytest.param(prog, 2 ** M + 1, id=f"unpinned-{gate.__name__[5:]}-m{M}-n{N}"))
    # blocks above the dense block size, so shift-invert
    cases.append(pytest.param(Program(num_qubits=1, num_steps=300,
                                      gates=[gate_single(150, 0, HAD)]), 3,
                              id="single-block-m1-n300"))
    cases.append(pytest.param(Program(num_qubits=3, num_steps=4,
                                      gates=[gate_single(1, q, HAD) for q in range(3)]), 9,
                              id="single-block-m3-n4"))
    cases.append(pytest.param(pin_all(Program(
        num_qubits=2, num_steps=15, gates=[gate_single(1, q, HAD) for q in range(2)]
        + [gate_cnot(8, 0, 1)], tip_beta=0.3), "10"), 2, id="blocks-m2-n15-tipped"))
    cases.append(pytest.param(twofold_block_program(), 2, id="twofold-block-m2-n24"))
    return cases


def twofold_block_program():
    """Blocks of 1876 and 624, the 624-block's lowest level twofold: at k=2
    its lowest cluster fills its values, but the union's ground level is the
    1876-block's."""
    def rot(t):
        return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

    return pin_all(Program(
        num_qubits=2, num_steps=24, gates=[gate_cnot(12, 1, 0), gate_single(24, 0, rot(0.3))]
        + [gate_single(r, 1, rot(0.2 * r)) for r in (1, 11, 23, 24)]), "10")


@pytest.mark.parametrize("prog,k", _oracle_cases())
def test_solve_spectrum_matches_dense_oracle(prog, k):
    _, H = assemble(prog)
    got = solve_spectrum(H, k=k)
    vectors = H.dim < 4096  # a dense eigh with vectors at 4096 takes seconds
    want = dense_spectrum(H, vectors=vectors)
    assert np.max(np.abs(got.eigenvalues - want.eigenvalues[:k])) <= 1e-10 * prog.epsilon
    assert got.ground_manifold_dim == want.ground_manifold_dim
    v = got.eigenvectors
    assert v.shape == (H.dim, got.ground_manifold_dim)
    if vectors:
        w = want.eigenvectors[:, :want.ground_manifold_dim]
        assert np.max(np.abs(v @ v.conj().T - w @ w.conj().T)) < 1e-8
    else:
        # orthonormal zero modes, as many as the oracle has: the same space
        assert np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))) < 1e-10
        assert np.max(np.linalg.norm(H.to_csr() @ v, axis=0)) < 1e-9


def test_low_lying_resolves_eightfold_manifold_against_dense():
    _, H = assemble(Program(num_qubits=3, num_steps=4, gates=[gate_cnot(2, 0, 1)]))
    values, _, solves = low_lying(H, k=9)
    assert solves > 0
    assert lowest_cluster(values, H)[0] == 8
    assert np.allclose(values, dense_spectrum(H).eigenvalues[:9], atol=1e-8)


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
        solve_spectrum(H, k=8)
    _, H = assemble(Program(num_qubits=1, num_steps=1))
    with pytest.raises(SolverError, match="larger k"):
        solve_spectrum(H, k=2)  # two dense blocks


def test_dense_block_solve_respects_cap():
    # one block of dimension 4098: k=1000 leaves too few values for ARPACK,
    # and a dense solve would exceed the cap
    _, H = assemble(Program(num_qubits=1, num_steps=2048, gates=[gate_single(1024, 0, HAD)]))
    assert len(_blocks(H)) == 1 and H.dim == 4098
    with pytest.raises(SolverError, match=r"k=1000.*4098.*4096.*smaller k"):
        solve_spectrum(H, k=1000)


def test_low_lying_refuses_ritz_count_beyond_fraction_of_dimension():
    # one block of dimension 4098: k=1000 needs 1500 Ritz values, beyond
    # ARPACK_NEV_FRACTION of the dimension, and a dense solve is above the cap
    _, H = assemble(Program(num_qubits=1, num_steps=2048, gates=[gate_single(1024, 0, HAD)]))
    assert H.dim == 4098
    with pytest.raises(SolverError, match=r"k=1000.*4098.*smaller k"):
        low_lying(H, k=1000)
    res = solve_spectrum(H, k=3)
    assert res.method == "shift-invert"
    assert np.allclose(res.eigenvalues, solve_tipped_levels(2048)[:3], atol=1e-12)


def test_low_lying_deterministic():
    _, H = assemble(Program(num_qubits=2, num_steps=5, gates=[gate_cnot(2, 0, 1)]))
    a = low_lying(H, k=5)
    b = low_lying(H, k=5)
    assert np.array_equal(a[0], b[0]) and a[2] == b[2]


def test_low_lying_reproducible_across_processes():
    # a 1728-dimensional single block whose ARPACK run asks for restart
    # vectors; each fresh process must draw the same ones
    src = str(Path(gsqc.eigensolve.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import hashlib, sys\n"
            "from gsqc.hamiltonian import assemble\n"
            "from gsqc.eigensolve import solve_spectrum\n"
            "from gsqc.program import load_program\n"
            "_, H = assemble(load_program(sys.argv[1]))\n"
            "res = solve_spectrum(H, k=2)\n"
            "assert H.dim == 1728 and res.method == 'shift-invert'\n"
            "print(hashlib.sha1(res.eigenvalues.tobytes()).hexdigest(), res.lu_solves)\n")
    program = str(GOLDEN / "run_batch_seed1_program83.json")
    runs = [subprocess.run([sys.executable, "-c", code, program], check=True, env=env,
                           capture_output=True, text=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]


def test_tipped_golden_block_takes_few_lu_solves():
    # one tipped 1728-block with gap 3.8e-4: the shift at CLUSTER_TOL * scale
    # separates its two lowest levels, and ARPACK stops at the residual bar
    _, H = assemble(load_program(GOLDEN / "run_batch_seed1_program83.json"))
    values, _, solves = low_lying(H, 2)
    assert solves <= 60
    assert values[1] - values[0] == pytest.approx(3.804e-4, rel=1e-3)


def test_tipped_cnot_line_takes_few_lu_solves():
    # M=2, N=60, tipped at 1/sqrt(MN): gap 5.3e-6 of the scale
    prog = pin_all(Program(num_qubits=2, num_steps=60, gates=[gate_cnot(30, 0, 1)],
                           tip_beta=float(choose_beta(2, 60))), "10")
    _, H = assemble(prog)
    res = solve_spectrum(H, k=2)
    assert res.lu_solves <= 60
    assert res.ground_manifold_dim == 1
    assert res.gap == pytest.approx(5.2778e-6, rel=1e-4)


def test_stopping_at_the_residual_bar_keeps_degenerate_copies():
    # one 1728-block holding an 8-fold zero cluster: every copy past the first
    # emerges only through rounding, which a loose ARPACK tol could cut short
    _, H = assemble(Program(num_qubits=3, num_steps=5,
                            gates=[gate_single(1, q, HAD) for q in range(3)]))
    assert len(_blocks(H)) == 1 and H.dim == 1728
    values, _, _ = low_lying(H, k=9)
    assert lowest_cluster(values, H)[0] == 8
    dense = dense_spectrum(H, vectors=False)
    assert np.max(np.abs(values - dense.eigenvalues[:9])) <= 1e-10


@pytest.mark.parametrize("eps", [1e-9, 1e-3, 1.0, 1e3, 1e9])
def test_ground_cluster_scales_with_epsilon(eps):
    def solved(e):
        _, H = assemble(Program(num_qubits=2, num_steps=3, gates=[gate_cnot(2, 0, 1)],
                                epsilon=e))
        return ([(r.ground_manifold_dim, r.gap) for r in (solve_spectrum(H, k=64),
                                                          dense_spectrum(H))]
                + [lowest_cluster(low_lying(H, k=5)[0], H)])

    for (dim, gap), (_, unit) in zip(solved(eps), solved(1.0)):
        assert dim == 4
        assert abs(gap / eps - unit) <= 1e-9 * unit


EPSILON_PROGRAMS = {  # (program, k): every block dense; a Lanczos block of 817
    "dense": (Program(num_qubits=2, num_steps=3, gates=[gate_cnot(2, 0, 1)]), 5),
    "lanczos": (Program(num_qubits=2, num_steps=32, gates=[gate_cnot(16, 0, 1)]), 5),
}


@functools.lru_cache(maxsize=None)
def solved_at_epsilon(name, eps):
    prog, k = EPSILON_PROGRAMS[name]
    _, H = assemble(replace(prog, epsilon=eps))
    return solve_spectrum(H, k=k), gsqc.eigensolve._scale(H)


@pytest.mark.parametrize("name", sorted(EPSILON_PROGRAMS))
@settings(max_examples=20, deadline=None)
@given(exponent=st.floats(min_value=-9.0, max_value=9.0))
def test_spectrum_scales_exactly_with_epsilon(name, exponent):
    # epsilon log-uniform over 1e-9..1e9: levels/eps, gap/eps and the
    # manifold are those of epsilon=1
    eps = 10.0 ** exponent
    unit, scale = solved_at_epsilon(name, 1.0)
    res, _ = solved_at_epsilon(name, eps)
    assert (unit.lu_solves > 0) == (name == "lanczos")
    assert res.ground_manifold_dim == unit.ground_manifold_dim
    assert abs(res.gap / eps - unit.gap) <= 1e-9 * unit.gap
    assert np.all(np.abs(res.eigenvalues / eps - unit.eigenvalues)
                  <= 1e-9 * np.maximum(np.abs(unit.eigenvalues), scale))


# -- identical blocks -----------------------------------------------------------


def gap_scan_row(N):
    """The M=3 CNOT row of gap-scan: 16 blocks, 8 copies each of 2 distinct ones."""
    _, H = assemble(Program(num_qubits=3, num_steps=N, gates=[gate_cnot((N + 1) // 2, 0, 1)]))
    return H


def counting_solve_block(monkeypatch):
    calls = []
    real = gsqc.eigensolve._solve_block

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(gsqc.eigensolve, "_solve_block", counted)
    return calls


@pytest.mark.parametrize("N", range(4, 9))
def test_gap_scan_rows_solve_each_distinct_block_once(N, monkeypatch):
    H = gap_scan_row(N)
    calls = counting_solve_block(monkeypatch)
    res = solve_spectrum(H, k=9)
    assert len(_blocks(H)) == 16 and len(calls) == 2
    assert res.ground_manifold_dim == 8


def test_copies_add_no_lu_solves():
    H = gap_scan_row(8)
    res = solve_spectrum(H, k=9)
    each = sum(_solve_block(members.size, rows, cols, vals, min(9, members.size))[2]
               for members, rows, cols, vals in _blocks(H))
    assert res.method == "shift-invert" and res.lu_solves > 0
    assert 8 * res.lu_solves == each


def test_block_whose_cluster_fills_m_takes_one_lanczos_run(monkeypatch):
    # the 624-block's twofold lowest level fills its k=2 values; it is not
    # the union's ground level, so it is solved once, as it stands
    calls = []
    real = gsqc.eigensolve.low_lying

    def recorded(H, k, orders=None):
        values, vectors, solves = real(H, k, orders)
        calls.append((H.dim, k, solves))
        return values, vectors, solves

    monkeypatch.setattr(gsqc.eigensolve, "low_lying", recorded)
    _, H = assemble(twofold_block_program())
    got = solve_spectrum(H, k=2)
    assert sorted((dim, k) for dim, k, _ in calls) == [(624, 2), (1876, 2)]
    assert got.lu_solves == sum(solves for _, _, solves in calls)
    want = dense_spectrum(H, vectors=False)
    assert np.max(np.abs(got.eigenvalues - want.eigenvalues[:2])) <= 1e-10
    assert got.ground_manifold_dim == want.ground_manifold_dim == 1


@pytest.mark.parametrize("n", [40, 600])  # a LAPACK block and a shift-invert block
@pytest.mark.parametrize("changed", [False, True])
def test_blocks_share_a_solve_only_when_bit_identical(n, changed, monkeypatch):
    # two interleaved copies of a weighted chain Laplacian; the second copy's
    # first hopping entry is one ulp smaller when changed
    w = np.random.default_rng(n).uniform(0.5, 1.5, n - 1)
    rows = np.concatenate([np.arange(n), np.arange(n - 1)])
    cols = np.concatenate([np.arange(n), np.arange(1, n)])
    vals = np.concatenate([np.append(w, 0.0) + np.insert(w, 0, 0.0), -w])
    other = vals.copy()
    if changed:
        other[n] = np.nextafter(other[n], 0.0)
    H = SparseHermitian(2 * n, np.concatenate([2 * rows, 2 * rows + 1]),
                        np.concatenate([2 * cols, 2 * cols + 1]), np.concatenate([vals, other]))
    calls = counting_solve_block(monkeypatch)
    got = solve_spectrum(H, k=3)
    assert len(calls) == (2 if changed else 1)
    want = dense_spectrum(H)
    assert np.max(np.abs(got.eigenvalues - want.eigenvalues[:3])) < 1e-10
    assert got.ground_manifold_dim == want.ground_manifold_dim == 2


def test_ground_columns_of_copies_sit_on_their_own_copy():
    H = gap_scan_row(8)
    blocks = _blocks(H)
    label = np.empty(H.dim, dtype=np.int64)
    for b, (members, *_) in enumerate(blocks):
        label[members] = b
    v = solve_spectrum(H, k=9).eigenvectors
    owners = []
    for j in range(v.shape[1]):
        (owner,) = set(label[np.flatnonzero(v[:, j])])
        owners.append(owner)
    # eight columns on eight copies of one block, each the same local vector
    assert len(set(owners)) == v.shape[1] == 8
    assert len({tuple(a.tobytes() for a in blocks[b][1:]) for b in owners}) == 1
    local = [v[blocks[b][0], j] for j, b in enumerate(owners)]
    assert all(np.array_equal(x, local[0]) for x in local)
    assert np.max(np.abs(v.conj().T @ v - np.eye(8))) < 1e-12
    assert np.max(np.linalg.norm(H.to_csr() @ v, axis=0)) < 1e-9


# -- skipping blocks by inertia -------------------------------------------------


@pytest.mark.parametrize("prog,k", _oracle_cases())
def test_levels_below_counts_exactly_or_declines(prog, k):
    # at the lowest levels, just below them and between neighbours, the
    # inertia count is the oracle's or None; a shift at a level leaves the
    # count to rounding, so it must decline there rather than guess
    _, H = assemble(prog)
    scale = gsqc.eigensolve._scale(H)
    seen = set()
    for members, rows, cols, vals in _blocks(H):
        if (key := (rows.tobytes(), cols.tobytes(), vals.tobytes())) in seen:
            continue
        seen.add(key)
        block = SparseHermitian(members.size, rows, cols, vals)
        levels = np.linalg.eigvalsh(block.toarray())
        low = levels[:8]
        shifts = np.concatenate([low - gsqc.eigensolve.CLUSTER_TOL * scale, low,
                                 (low[:-1] + low[1:]) / 2])
        for tau in shifts:
            got = _levels_below(block.to_csr(), tau, scale)
            assert got is None or got == np.count_nonzero(levels < tau), (members.size, tau)


def test_levels_below_declines_a_zero_leading_pivot():
    # a chain whose diagonal is 2 everywhere: at the shift 2 every diagonal
    # pivot is exactly zero, so SuperLU must leave the symmetric order
    n = 600
    chain = SparseHermitian(n, np.concatenate([np.arange(n), np.arange(n - 1)]),
                            np.concatenate([np.arange(n), np.arange(1, n)]),
                            np.concatenate([np.full(n, 2.0), np.full(n - 1, -1.0)]))
    assert _levels_below(chain.to_csr(), 2.0, 2.0) is None
    assert _levels_below(chain.to_csr(), -0.5, 2.0) == 0
    assert _levels_below(chain.to_csr(), 0.5, 2.0) == np.count_nonzero(
        np.linalg.eigvalsh(chain.toarray()) < 0.5)
    # an exactly singular factor is declined too
    assert _levels_below(SparseHermitian(n, np.arange(n), np.arange(n), np.zeros(n)).to_csr(),
                         0.0, 1.0) is None


def pinned_large_programs():
    """The benchmark's pinned programs above the dense cutoff, dimensions 10648 to 39304,
    each with the most LU factorizations its solve at k=2 may take."""
    def cid_chain(M, N, beta=None):
        gates = [gate_cid(N - (M - 2 - k), k, k + 1) for k in range(M - 1)]
        return pin_all(Program(num_qubits=M, num_steps=N, gates=gates, tip_beta=beta), "0" * M)

    def cnot_line(N, beta=None):
        return pin_all(Program(num_qubits=2, num_steps=N, gates=[gate_cnot(N // 2, 0, 1)],
                               tip_beta=beta), "10")

    chain = pin_all(Program(num_qubits=4, num_steps=6, gates=[
        gate_cnot(2, 0, 1), gate_cnot(3, 1, 2), gate_cnot(4, 2, 3)]), "1000")
    return [pytest.param(cid_chain(3, 16), 6, id="cid-chain-m3-n16"),
            pytest.param(chain, 11, id="cnot-chain-m4-n6"),
            pytest.param(cnot_line(60), 5, id="cnot-m2-n60"),
            pytest.param(cid_chain(3, 8, float(choose_beta(3, 8))), 5,
                         id="cid-chain-m3-n8-tipped"),
            pytest.param(cnot_line(60, float(choose_beta(2, 60))), 5, id="cnot-m2-n60-tipped")]


def counting_factorizations(monkeypatch):
    calls = []
    real = gsqc.eigensolve._shift_factor

    def counted(csr, shift, orders=None):
        calls.append(csr.shape[0])
        return real(csr, shift, orders)

    monkeypatch.setattr(gsqc.eigensolve, "_shift_factor", counted)
    return calls


@pytest.mark.parametrize("prog,factorizations", pinned_large_programs())
def test_skipping_blocks_matches_solving_every_block(prog, factorizations, monkeypatch):
    _, H = assemble(prog)
    scale = gsqc.eigensolve._scale(H)
    factored = counting_factorizations(monkeypatch)
    got = solve_spectrum(H, k=2)
    # a block dominating one the inertia test skipped is skipped unfactored,
    # and the first large block in cost order takes no inertia test
    assert got.factorizations == len(factored) <= factorizations
    monkeypatch.setattr(gsqc.eigensolve, "_levels_below", lambda *args: None)
    want = solve_spectrum(H, k=2)
    assert got.blocks_skipped > 0 and want.blocks_skipped == 0
    assert got.lu_solves < want.lu_solves
    assert np.max(np.abs(got.eigenvalues - want.eigenvalues)) <= 1e-12 * scale
    assert got.ground_manifold_dim == want.ground_manifold_dim == 1
    v, w = got.ground_vector(), want.ground_vector()
    assert np.linalg.norm(w - v * np.vdot(v, w)) < 1e-10


# -- one fill-reducing order per sparsity pattern --------------------------------


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@functools.lru_cache(maxsize=None)
def run_batch_programs(seed):
    """The benchmark's run-batch programs of one seed."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up there
    spec.loader.exec_module(workloads)
    return workloads.batch_programs(seed)


def complex_pinned_program():
    """A pinned CID chain with a complex gate: its 538-blocks are complex and
    share patterns, so inertia tests and Lanczos runs reuse orders."""
    u = np.array([[np.cos(0.4), -np.exp(0.7j) * np.sin(0.4)],
                  [np.exp(-0.7j) * np.sin(0.4), np.cos(0.4)]])
    return pin_all(Program(num_qubits=3, num_steps=8, gates=[
        gate_cid(6, 0, 1), gate_cid(7, 1, 2), gate_single(8, 2, u)]), "000")


def solve_programs(name):
    if name == "pinned-large":
        return [param.values[0] for param in pinned_large_programs()] + [complex_pinned_program()]
    return run_batch_programs(int(name.rsplit("-", 1)[1]))


@functools.lru_cache(maxsize=None)
def traced_solves(name):
    """solve_program at k=2, as ``gsqc run`` solves, over one workload's
    programs: per solve_spectrum call, its result and its factorizations in
    order, each a dict with the block's CSR, the ``permc_spec`` SuperLU got,
    and either kind "inertia" (tau, scale, count) or "lanczos" (H, k, result)."""
    calls = []
    real_levels, real_lanczos = gsqc.eigensolve._levels_below, gsqc.eigensolve.low_lying
    real_splu, real_solve = spla.splu, gsqc.semantics.solve_spectrum

    def levels_below(csr, tau, scale, orders=None):
        event = dict(kind="inertia", csr=csr, tau=tau, scale=scale)
        calls[-1]["factored"].append(event)
        event["count"] = real_levels(csr, tau, scale, orders)
        return event["count"]

    def low_lying(H, k, orders=None):
        event = dict(kind="lanczos", csr=H.to_csr(), H=H, k=k)
        calls[-1]["factored"].append(event)
        event["result"] = real_lanczos(H, k, orders)
        return event["result"]

    def splu(A, *args, **kwargs):
        calls[-1]["factored"][-1]["spec"] = kwargs["permc_spec"]
        return real_splu(A, *args, **kwargs)

    def solve(H, k):
        calls.append(dict(factored=[]))
        calls[-1]["result"] = real_solve(H, k)
        return calls[-1]["result"]

    with contextlib.ExitStack() as stack:
        for owner, attr, fake in ((gsqc.eigensolve, "_levels_below", levels_below),
                                  (gsqc.eigensolve, "low_lying", low_lying),
                                  (spla, "splu", splu), (gsqc.semantics, "solve_spectrum", solve)):
            stack.enter_context(mock.patch.object(owner, attr, fake))
        for prog in solve_programs(name):
            solve_program(prog, k=2)
    return calls


ORDER_WORKLOADS = ("pinned-large", "run-batch-0", "run-batch-1", "run-batch-2")


def reused(kind):
    """Every factorization of one kind that reused an order, over ORDER_WORKLOADS."""
    events = [e for name in ORDER_WORKLOADS for call in traced_solves(name)
              for e in call["factored"] if e["kind"] == kind and e["spec"] == "NATURAL"]
    assert any(e["csr"].dtype.kind == "c" for e in events)  # a complex block among them
    return events


def test_each_pattern_takes_one_mmd_order_per_call():
    # SuperLU derives a fill-reducing order the first time a solve_spectrum
    # call factors a pattern, and never again in that call
    orderings = 0
    for name in ORDER_WORKLOADS:
        for call in traced_solves(name):
            specs = {}
            for event in call["factored"]:
                pattern = (event["csr"].indptr.tobytes(), event["csr"].indices.tobytes())
                specs.setdefault(pattern, []).append(event["spec"])
            for seen in specs.values():
                assert seen == ["MMD_AT_PLUS_A"] + ["NATURAL"] * (len(seen) - 1)
            assert call["result"].factorizations == len(call["factored"])
            orderings += len(specs)
    assert orderings < sum(len(call["factored"]) for name in ORDER_WORKLOADS
                           for call in traced_solves(name))


def test_reused_orders_count_levels_as_a_fresh_order():
    for event in reused("inertia"):
        fresh = _levels_below(event["csr"], event["tau"], event["scale"])
        assert event["count"] == fresh, (event["csr"].shape, event["tau"])


def test_reused_orders_give_lanczos_levels_of_a_fresh_order():
    for event in reused("lanczos"):
        got_values, got_vectors, _ = event["result"]
        values, vectors, _ = low_lying(event["H"], event["k"])
        scale = gsqc.eigensolve._scale(event["H"])
        assert np.max(np.abs(got_values - values)) <= 1e-12 * scale
        # the lowest cluster's span, one vector when the ground level is simple
        m = np.count_nonzero(values <= values[0] + CLUSTER_TOL * scale)
        assert m < event["k"]
        overlap = np.linalg.svd(got_vectors[:, :m].conj().T @ vectors[:, :m], compute_uv=False)
        assert np.min(overlap) ** 2 >= 1 - 1e-10


@pytest.mark.parametrize("seed,factorizations", [(0, 12), (1, 9), (2, 11)])
def test_run_batch_first_large_block_goes_untested(seed, factorizations):
    # the first large block in cost order is the one a call factors first,
    # and it goes to Lanczos without an inertia test
    calls = traced_solves(f"run-batch-{seed}")
    assert all(call["factored"][0]["kind"] == "lanczos" for call in calls if call["factored"])
    assert sum(call["result"].factorizations for call in calls) <= factorizations


def path_block(n, potential, hopping):
    """A path's Laplacian plus a diagonal potential, as upper coordinates."""
    degree = np.full(n, 2.0)
    degree[[0, -1]] = 1.0
    return (np.concatenate([np.arange(n), np.arange(n - 1)]),
            np.concatenate([np.arange(n), np.arange(1, n)]),
            np.concatenate([degree + potential, -hopping]))


@pytest.mark.parametrize("dtype", [float, complex])
def test_blocks_dominating_a_skipped_block_are_skipped_unfactored(dtype, monkeypatch):
    # a 540-block G (lowest levels 0.8 and just above) is solved first; then
    # 520-blocks sharing one hopping pattern: A (lowest level 0.9) is skipped
    # by inertia, D1 and D2 dominate A's diagonal everywhere and are skipped
    # unfactored; W's diagonal is larger in sum but has a well below A's, so
    # its lowest level (about 0.76) is below G's: it must be solved
    n, rng = 520, np.random.default_rng(5)
    hopping = np.ones(n - 1)
    if dtype is complex:
        hopping = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n - 1))
    a = np.full(n, 0.9)
    well = np.ones(n)
    well[n // 2] = 0.0
    blocks = [path_block(540, np.full(540, 0.8), np.ones(539)),
              path_block(n, a, hopping),
              path_block(n, a + rng.uniform(0.0, 0.5, n), hopping),
              path_block(n, a + np.where(rng.uniform(size=n) < 0.5, 0.0, 0.3), hopping),
              path_block(n, well, hopping)]
    assert np.sum(well) > np.sum(a) and well[n // 2] < a[n // 2]
    dims = [540, n, n, n, n]
    starts = np.cumsum([0] + dims)
    H = SparseHermitian(starts[-1], np.concatenate([r + o for (r, _, _), o in zip(blocks, starts)]),
                        np.concatenate([c + o for (_, c, _), o in zip(blocks, starts)]),
                        np.concatenate([v for _, _, v in blocks]))
    scale = gsqc.eigensolve._scale(H)
    factored = counting_factorizations(monkeypatch)
    got = solve_spectrum(H, k=2)
    # G's solve, A's inertia test, W's inertia test and W's solve
    assert sorted(factored) == [n, n, n, 540] and got.blocks_skipped == 3
    # the oracle block by block: a complex eigvalsh of all of H takes seconds
    want = np.sort(np.concatenate([dense_spectrum(SparseHermitian(d, *b), vectors=False).eigenvalues
                                   for d, b in zip(dims, blocks)]))
    assert np.max(np.abs(got.eigenvalues - want[:2])) <= 1e-10 * scale
    assert got.ground_manifold_dim == np.count_nonzero(want <= want[0] + CLUSTER_TOL * scale) == 1
    assert got.ground_energy < 0.8
    assert np.count_nonzero(got.ground_vector()[:starts[4]]) == 0


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


def test_solve_tipped_levels_relative_to_the_ladder():
    # pteqr keeps the lowest levels to high relative accuracy at large N
    for N in (1, 8, 100, 1023, 2048):
        m = np.arange(1, N + 1)
        ladder = np.sort(4.0 * np.sin(m * np.pi / (2.0 * (N + 1))) ** 2)
        got = solve_tipped_levels(N)
        assert np.array_equal(got[:2], [0.0, 0.0])
        assert np.max(np.abs(got[2::2] - ladder) / ladder) <= 2e-12
        assert np.array_equal(got[2::2], got[3::2])


def test_solve_tipped_levels_against_dense():
    for N, beta in ((4, 0.5), (6, 0.25), (3, 0.75), (1, 0.5), (1, 1.0), (5, 1e-4)):
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
