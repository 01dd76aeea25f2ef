from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gsqc.hamiltonian
import gsqc.program
from gsqc.basis import ConfigurationBasis, enumerate_basis
from gsqc.detection import attach_readout
from gsqc.eigensolve import dense_spectrum
from gsqc.errors import ProgramError
from gsqc.hamiltonian import (ENTRY_DROP_REL, assemble, chain_sync_terms, cid_term, cnot_term,
                              pin_term, readout_term, single_step_term)
from gsqc.program import Pin, Program, gate_cid, gate_cnot, gate_single, validate_program
from gsqc.semantics import random_program
from gsqc.sparse import SparseHermitian
from gsqc.verify import gate_oracle_levels, restricted_gate_spectrum

I2 = np.eye(2)
NOT = np.array([[0.0, 1.0], [1.0, 0.0]])
GOLDEN = Path(__file__).parent / "golden"


def dense_eigs(H):
    return np.linalg.eigvalsh(H.toarray())


# -- single-qubit development terms -------------------------------------------


def test_single_step_identity_spectrum():
    basis = ConfigurationBasis(1, 1)
    h = SparseHermitian(basis.dim, *single_step_term(basis, 0, 1, I2, eps=1.0))
    assert np.allclose(dense_eigs(h), [0.0, 0.0, 2.0, 2.0], atol=1e-12)


def test_uniform_state_is_zero_mode():
    prog = Program(num_qubits=1, num_steps=4)
    _, H = assemble(prog)
    basis = enumerate_basis(prog)
    psi = np.zeros(basis.dim)
    psi[basis.indices_where({0: [2 * r for r in range(5)]})] = 1.0  # column 0, all rows
    assert np.linalg.norm(H.to_csr() @ psi) < 1e-12


def test_not_gate_spectrum_equals_identity():
    basis = ConfigurationBasis(1, 3)
    h_i = SparseHermitian(basis.dim, *single_step_term(basis, 0, 2, I2))
    h_x = SparseHermitian(basis.dim, *single_step_term(basis, 0, 2, NOT))
    assert np.allclose(dense_eigs(h_i), dense_eigs(h_x), atol=1e-12)


def test_non_unitary_matrix_rejected():
    basis = ConfigurationBasis(1, 2)
    with pytest.raises(ValueError, match="unitary"):
        single_step_term(basis, 0, 1, np.array([[1.0, 0.0], [0.0, 0.5]]))


def test_complex_gate_builds_complex_hermitian():
    basis = ConfigurationBasis(1, 2)
    T = np.diag([1.0, np.exp(1j * np.pi / 4)])
    h = SparseHermitian(basis.dim, *single_step_term(basis, 0, 1, T))
    assert h.is_complex
    dense = h.toarray()
    assert np.max(np.abs(dense - dense.conj().T)) == 0.0
    assert np.min(np.linalg.eigvalsh(dense)) > -1e-12


# -- two-body gate terms -------------------------------------------------------


@pytest.mark.parametrize("N,j", [(2, 1), (2, 2), (4, 2), (6, 3)])
def test_cnot_restricted_spectrum_matches_oracle(N, j):
    got = restricted_gate_spectrum(N, j, "cnot")
    assert np.allclose(got, gate_oracle_levels(N, j), atol=1e-10)


def test_cnot_computational_states_have_zero_energy():
    for bits in ("00", "01", "10", "11"):
        prog = Program(num_qubits=2, num_steps=2, gates=[gate_cnot(1, 0, 1)],
                       input_pins=[Pin(0, int(bits[0])), Pin(1, int(bits[1]))])
        _, H = assemble(prog)
        vals = dense_eigs(H)
        assert abs(vals[0]) < 1e-10
        assert vals[1] > 1e-3  # pinned ground state is unique


@pytest.mark.parametrize("kind", ["cnot", "cid"])
@pytest.mark.parametrize("N,j", [(2, 1), (3, 2)])
def test_target_never_ahead_of_control_in_kernel(kind, N, j):
    gate = gate_cnot(j, 0, 1) if kind == "cnot" else gate_cid(j, 0, 1)
    prog = Program(num_qubits=2, num_steps=N, gates=[gate])
    _, H = assemble(prog)
    result = dense_spectrum(H)
    basis = enumerate_basis(prog)
    site = np.unravel_index(np.arange(basis.dim), basis.shape)
    forbidden = (site[0] // 2 < j) & (site[1] // 2 >= j)
    assert result.ground_manifold_dim == 4
    for k in range(result.ground_manifold_dim):
        psi = result.eigenvectors[:, k]
        assert float(np.sum(np.abs(psi[forbidden]) ** 2)) < 1e-20


def test_cid_zero_manifold_acts_as_identity():
    prog = Program(num_qubits=2, num_steps=3, gates=[gate_cid(2, 0, 1)],
                   input_pins=[Pin(0, 1), Pin(1, 0)])
    _, H = assemble(prog)
    result = dense_spectrum(H)
    basis = enumerate_basis(prog)
    block = basis.row_block(result.ground_vector(), 3)[:, 0]
    probs = np.abs(block) ** 2 / np.sum(np.abs(block) ** 2)
    assert np.allclose(probs, [0.0, 0.0, 1.0, 0.0], atol=1e-12)  # input 10 unchanged


def test_cid_spectrum_equals_cnot_spectrum():
    for N, j in ((2, 1), (3, 2)):
        _, Hc = assemble(Program(num_qubits=2, num_steps=N, gates=[gate_cnot(j, 0, 1)]))
        _, Hi = assemble(Program(num_qubits=2, num_steps=N, gates=[gate_cid(j, 0, 1)]))
        assert np.allclose(dense_eigs(Hc), dense_eigs(Hi), atol=1e-10)


def test_distinct_gate_terms_commute():
    cases = [
        (4, 3, ("cnot", 1, 0, 1), ("cnot", 3, 2, 3)),   # disjoint qubit pairs
        (3, 4, ("cnot", 1, 0, 1), ("cnot", 3, 1, 2)),   # shared qubit, separated rows
        (2, 4, ("cnot", 1, 0, 1), ("cnot", 3, 1, 0)),   # same pair, swapped roles
        (2, 5, ("cid", 2, 0, 1), ("cnot", 4, 0, 1)),
    ]
    build = {"cnot": cnot_term, "cid": cid_term}
    for M, N, (k1, j1, a1, b1), (k2, j2, a2, b2) in cases:
        basis = ConfigurationBasis(M, N)
        h1 = SparseHermitian(basis.dim, *build[k1](basis, a1, b1, j1)).to_csr()
        h2 = SparseHermitian(basis.dim, *build[k2](basis, a2, b2, j2)).to_csr()
        comm = (h1 @ h2 - h2 @ h1).toarray()
        assert np.max(np.abs(comm)) == 0.0


def test_slot_kernel_exact_for_multi_gate_layouts():
    # chains, fan-out, and re-targeting all keep exactly 2^M zero modes
    layouts = [
        (2, 4, [gate_cnot(2, 0, 1), gate_cnot(4, 0, 1)]),
        (2, 4, [gate_cnot(1, 0, 1), gate_cnot(3, 1, 0)]),
        (3, 3, [gate_cnot(1, 0, 1), gate_cnot(2, 0, 2)]),
        (3, 3, [gate_cnot(1, 0, 1), gate_cnot(2, 1, 2), gate_cnot(3, 2, 0)]),
        (3, 4, [gate_cid(3, 0, 1), gate_cid(4, 1, 2)]),
    ]
    for M, N, gates in layouts:
        _, H = assemble(Program(num_qubits=M, num_steps=N, gates=gates))
        vals = dense_eigs(H)
        assert int(np.sum(vals < 1e-10)) == 2 ** M
        assert vals[0] > -1e-9


# -- pins ----------------------------------------------------------------------


def test_pin_gives_unique_zero_ground_state():
    prog = Program(num_qubits=1, num_steps=3, input_pins=[Pin(0, 0)])
    _, H = assemble(prog)
    result = dense_spectrum(H)
    assert abs(result.ground_energy) < 1e-10
    assert result.ground_manifold_dim == 1
    basis = enumerate_basis(prog)
    penalized = basis.indices_where({0: 1})  # row 0, column 1
    assert np.max(np.abs(result.ground_vector()[penalized])) < 1e-10


def test_pin_gap_positive():
    prog = Program(num_qubits=1, num_steps=2, input_pins=[Pin(0, 0, 1.0)])
    _, H = assemble(prog)
    result = dense_spectrum(H)
    assert result.gap > 0.0


def test_pin_strength_beyond_int64_assembles_real():
    _, H = assemble(Program(num_qubits=1, num_steps=1, input_pins=[Pin(0, 0, 10 ** 30)]))
    assert H.vals.dtype == np.float64 and H.vals.max() == 1e30


def test_pin_term_validation():
    basis = ConfigurationBasis(1, 1)
    with pytest.raises(ValueError):
        pin_term(basis, 0, 0, 0.0)
    with pytest.raises(ValueError):
        pin_term(basis, 0, 2, 1.0)


# -- tipping -------------------------------------------------------------------


def test_tipping_beta_one_is_entrywise_identity():
    program = Program(num_qubits=2, num_steps=2, gates=[gate_cnot(1, 0, 1)])
    _, H = assemble(program)
    _, tipped = assemble(replace(program, tip_beta=1.0))
    for name in ("rows", "cols", "vals"):
        assert np.array_equal(getattr(tipped, name), getattr(H, name))


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 1.0))
def test_tipping_preserves_hermiticity_and_psd(beta):
    _, tipped = assemble(Program(num_qubits=1, num_steps=3, tip_beta=beta))
    dense = tipped.toarray()
    assert np.max(np.abs(dense - dense.T)) == 0.0
    assert np.min(np.linalg.eigvalsh(dense)) > -1e-12


def test_tipped_ground_amplitude_ratio():
    beta = 0.25
    prog = Program(num_qubits=1, num_steps=3, input_pins=[Pin(0, 0)], tip_beta=beta)
    _, H = assemble(prog)
    psi = dense_spectrum(H).ground_vector()
    basis = enumerate_basis(prog)
    amp_last = psi[basis.indices_where({0: 2 * 3})][0]
    amp_prev = psi[basis.indices_where({0: 2 * 2})][0]
    assert np.isclose(abs(amp_last / amp_prev), 1.0 / beta, atol=1e-10)


def test_tipped_final_row_probability_formula():
    beta, N = 0.5, 2
    prog = Program(num_qubits=1, num_steps=N, input_pins=[Pin(0, 0)], tip_beta=beta)
    _, H = assemble(prog)
    psi = dense_spectrum(H).ground_vector()
    basis = enumerate_basis(prog)
    p_final = float(np.sum(np.abs(basis.tensor(psi)[2 * N:]) ** 2))
    assert np.isclose(p_final, (1 / beta**2) / (N + 1 / beta**2), atol=1e-12)
    assert np.isclose(p_final, 4.0 / 6.0, atol=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_tipped_assembly_is_congruence_of_untipped_sum(seed):
    rng = np.random.default_rng(seed)
    program = random_program(rng, max_steps=4,
                             gate_pool="unitary" if seed % 2 else "orthogonal")
    program = replace(program, epsilon=(1.0, 0.3, 2.7)[seed % 3])
    beta = float(rng.uniform(0.1, 1.0))
    _, H = assemble(replace(program, tip_beta=beta))
    _, H0 = assemble(program)
    S = beta ** enumerate_basis(program).final_row_weight()
    expected = S[:, None] * H0.toarray() * S[None, :]
    assert np.max(np.abs(H.toarray() - expected)) <= 1e-15 * program.epsilon


def test_tipping_range_validated():
    for beta in (0.0, 1.5):
        with pytest.raises(ProgramError, match="tip_beta"):
            assemble(Program(num_qubits=1, num_steps=1, tip_beta=beta))


# -- readout terms -------------------------------------------------------------


def test_readout_term_requires_flagged_qubit():
    basis = ConfigurationBasis(1, 1)
    with pytest.raises(ValueError, match="readout"):
        readout_term(basis, 0, 1.0)
    with pytest.raises(ValueError):
        readout_term(ConfigurationBasis(1, 1, readout=(0,)), 0, -1.0)


def test_readout_term_counts_alignment_only():
    basis = ConfigurationBasis(1, 1, readout=(0,))
    dense = SparseHermitian(basis.dim, *readout_term(basis, 0, 2.0)).toarray()
    diag = np.diag(dense)
    for i in range(basis.dim):
        site, bit = np.unravel_index(i, basis.shape)
        row, col = divmod(int(site), 2)
        aligned = row == 1 and bit == col
        assert diag[i] == (2.0 if aligned else 0.0)
    assert np.count_nonzero(dense - np.diag(diag)) == 0


# -- assembly ------------------------------------------------------------------


def test_assemble_block_tridiagonal_structure():
    prog = Program(num_qubits=1, num_steps=3)
    _, H = assemble(prog)
    rows_of = H.rows // 2
    cols_of = H.cols // 2
    assert np.all(np.abs(rows_of - cols_of) <= 1)


def test_assemble_sum_of_terms_equals_total():
    prog = Program(num_qubits=2, num_steps=3, gates=[gate_cnot(2, 0, 1)],
                   input_pins=[Pin(0, 0)], readout=[1], tip_beta=0.5)
    terms, H = assemble(prog)
    tip = np.diag(0.5 ** terms.basis.final_row_weight())
    dense = tip @ sum(SparseHermitian(H.dim, *term).toarray() for _, term in terms.terms) @ tip
    assert np.max(np.abs(dense - H.toarray())) < 1e-15
    resum = terms.total(drop_tol=ENTRY_DROP_REL)
    for name in ("rows", "cols", "vals"):
        assert np.array_equal(getattr(resum, name), getattr(H, name))


# i * Rx(pi) built numerically: NOT, with 6e-17j on its diagonal, whose
# hopping entries the drop removes, leaving only real entries
_I_RX_PI = 1j * np.array([[np.cos(np.pi / 2), -1j * np.sin(np.pi / 2)],
                          [-1j * np.sin(np.pi / 2), np.cos(np.pi / 2)]])


@pytest.mark.parametrize("program, term_count, build_count, is_real", [
    # untipped and nothing dropped: the first build is the operator
    pytest.param(Program(num_qubits=1, num_steps=1), 1, 1, True, id="program0-1"),
    # tipped: one more build after the tipping
    pytest.param(Program(num_qubits=3, num_steps=4,
                         gates=[gate_single(1, 2, np.diag([1.0, 1j])), gate_cnot(2, 0, 1),
                                gate_cid(3, 1, 2), gate_cnot(4, 0, 2)],
                         input_pins=[Pin(0, 1), Pin(2, 0)], readout=[1], tip_beta=0.5),
                 18, 2, False, id="program1-18"),
    # untipped, the drop removes entries: one more build, which demotes to real
    pytest.param(Program(num_qubits=2, num_steps=3,
                         gates=[gate_single(1, 1, _I_RX_PI), gate_cnot(2, 0, 1)]),
                 5, 2, True, id="program2-5"),
])
def test_assemble_builds_two_operators_whatever_the_term_count(program, term_count, build_count,
                                                               is_real, monkeypatch):
    real_init = SparseHermitian.__init__
    builds = []

    def counted(self, *args, **kwargs):
        builds.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(SparseHermitian, "__init__", counted)
    terms, H = assemble(program)
    assert len(terms.terms) == term_count and len(builds) == build_count
    assert H.is_complex != is_real


def test_assemble_checks_each_gate_matrix_once(monkeypatch):
    real = gsqc.program.check_unitary
    calls = []
    for module in (gsqc.program, gsqc.hamiltonian):
        monkeypatch.setattr(module, "check_unitary",
                            lambda matrix, *args: calls.append(1) or real(matrix, *args))
    T = np.array([[1.0, 0.0], [0.0, 1.0 + 0.0j]])  # complex dtype, zero imaginary part
    prog = Program(num_qubits=2, num_steps=3,
                   gates=[gate_single(1, 0, T), gate_single(3, 1, NOT), gate_cnot(2, 0, 1)])
    singles = gsqc.program.validate_program(prog)
    assert len(calls) == 2 and sorted(singles) == [(0, 1), (1, 3)]
    assert singles[(0, 1)].dtype == np.float64  # demoted, so H stays real
    calls.clear()
    _, H = assemble(prog)
    assert len(calls) == 2 and not H.is_complex


def test_term_coordinates_lie_in_the_upper_triangle():
    T = np.diag([1.0, np.exp(1j * np.pi / 4)])
    terms, _ = assemble(Program(num_qubits=2, num_steps=3,
                                gates=[gate_single(1, 0, T), gate_cnot(2, 0, 1),
                                       gate_cnot(3, 1, 0)],
                                input_pins=[Pin(0, 0)], readout=[1]))
    for label, (rows, cols, _) in terms.terms:
        assert np.all(rows <= cols), label


def test_assemble_cnot_hermitian_psd_zero_ground():
    _, H = assemble(Program(num_qubits=2, num_steps=2, gates=[gate_cnot(1, 0, 1)]))
    dense = H.toarray()
    assert np.max(np.abs(dense - dense.T)) == 0.0
    vals = np.linalg.eigvalsh(dense)
    assert abs(vals[0]) < 1e-10
    assert vals[0] > -1e-10


def test_gauge_invariance_spectrum():
    rng = np.random.default_rng(11)
    for M, N in ((1, 4), (2, 3)):
        gates = []
        for q in range(M):
            for i in range(1, N + 1):
                z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                Q, R = np.linalg.qr(z)
                gates.append(gate_single(i, q, Q * (np.diagonal(R) / np.abs(np.diagonal(R)))))
        _, H = assemble(Program(num_qubits=M, num_steps=N, gates=gates))
        _, H0 = assemble(Program(num_qubits=M, num_steps=N))
        assert np.allclose(np.linalg.eigvalsh(H.toarray()),
                           np.linalg.eigvalsh(H0.toarray()), atol=1e-9)


def test_zero_manifold_dimensions():
    for M, N, gates in ((1, 4, []), (2, 3, [gate_cnot(2, 0, 1)]), (3, 2, [])):
        _, H = assemble(Program(num_qubits=M, num_steps=N, gates=gates))
        vals = dense_eigs(H)
        assert int(np.sum(vals < 1e-10)) == 2 ** M


def test_golden_matrix_dump():
    _, H = assemble(Program(num_qubits=2, num_steps=2, gates=[gate_cnot(1, 0, 1)]))
    expected = (GOLDEN / "h_m2_n2_cnot_j1.txt").read_text()
    assert H.dump() == expected


def test_golden_tipped_complex_readout_dump():
    # pins conjugate mirroring, duplicate summation, tipping and the drop:
    # rx_pi's numerically zero diagonal (6e-17) builds hopping entries that
    # the drop removes
    ht = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2) @ np.diag([1.0, np.exp(1j * np.pi / 4)])
    rx_pi = np.array([[np.cos(np.pi / 2), -1j * np.sin(np.pi / 2)],
                      [-1j * np.sin(np.pi / 2), np.cos(np.pi / 2)]])
    prog = Program(num_qubits=2, num_steps=3,
                   gates=[gate_single(1, 0, ht), gate_single(1, 1, rx_pi),
                          gate_cnot(2, 0, 1), gate_cid(3, 1, 0)],
                   input_pins=[Pin(0, 0), Pin(1, 1)], readout=[1], tip_beta=0.5)
    terms, H = assemble(prog)
    assert H.is_complex and H.nnz < terms.total().nnz
    expected = (GOLDEN / "h_m2_n3_tipped_complex_readout.txt").read_text()
    assert H.dump() == expected


def test_golden_sync_custom_strengths_dump():
    # untipped and nothing dropped, so the first build is H: it sums unequal
    # duplicates (pin 0.7, readout 1.3, densities 2.7) and sync terms
    t = 0.3
    rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    prog = Program(num_qubits=2, num_steps=3, epsilon=2.7,
                   gates=[gate_single(1, 0, rot), gate_cnot(2, 0, 1), gate_cid(3, 1, 0)],
                   input_pins=[Pin(0, 0, strength=0.7), Pin(1, 1)], readout=[0, 1],
                   readout_strength=1.3)
    terms, H = assemble(prog)
    assert sum(label.startswith("sync") for label, _ in terms.terms) == 4
    expected = (GOLDEN / "h_m2_n3_sync_custom_strengths.txt").read_text()
    assert H.dump() == expected


# -- the term stream against a per-bond reference ------------------------------


def _reference_bond(basis, qubit, row, U, eps, condition=None):
    """One bond built piece by piece: an index set per source site, in piece order."""
    condition = dict(condition or {})
    lo, hi = 2 * (row - 1), 2 * row
    stride = basis.qubit_stride(qubit)
    sources = [basis.indices_where({**condition, qubit: lo + s}) for s in range(2)]
    density = np.concatenate(sources + [src + 2 * stride for src in sources])
    dtype = U.dtype if np.iscomplexobj(U) else np.float64
    pieces = [(density, density, np.full(density.size, eps, dtype=dtype))]
    for s_from, src in enumerate(sources):
        for s_to in range(2):
            amp = U[s_to, s_from]
            if amp != 0:
                dst = src + (hi + s_to - (lo + s_from)) * stride
                pieces.append((src, dst, np.full(src.size, np.conj(-eps * amp))))
    return tuple(map(np.concatenate, zip(*pieces)))


def _reference_terms(program):
    """assemble's (label, term) list with every bond, gated or not, from _reference_bond."""
    singles = validate_program(program)
    basis = enumerate_basis(program)
    eps, M, N = program.epsilon, program.num_qubits, program.num_steps
    owned = set(program.two_body_slots())
    terms = [(f"h[q{q},i{i}]", _reference_bond(basis, q, i, singles.get((q, i), I2), eps))
             for q in range(M) for i in range(1, N + 1) if (q, i) not in owned]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gsqc.hamiltonian, "_bond", _reference_bond)
        two_body = {"cnot": cnot_term, "cid": cid_term}
        terms += [(f"{g.kind}[j{g.row},c{g.control},t{g.target}]",
                   two_body[g.kind](basis, g.control, g.target, g.row, eps))
                  for g in program.gates if g.kind in two_body]
        terms += list(chain_sync_terms(basis, program.gates, eps))
    terms += [(f"pin[q{p.qubit}]", pin_term(basis, p.qubit, p.bit,
                                            eps if p.strength is None else p.strength))
              for p in program.input_pins]
    V = eps if program.readout_strength is None else program.readout_strength
    return terms + [(f"readout[q{q}]", readout_term(basis, q, V)) for q in program.readout]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       pool=st.sampled_from(["orthogonal", "unitary", "permutation"]),
       kind=st.sampled_from(["cnot", "cid"]), pinned=st.booleans(),
       pin_strength=st.none() | st.sampled_from([0.7, 3.0]),
       readout_strength=st.none() | st.sampled_from([1.3, 0.25]),
       epsilon=st.sampled_from([1.0, 2.7, 1e-3]), beta=st.none() | st.sampled_from([0.5, 0.9]))
def test_assemble_term_stream_matches_per_bond_reference(seed, pool, kind, pinned, pin_strength,
                                                         readout_strength, epsilon, beta):
    prog = random_program(np.random.default_rng(seed), max_qubits=3, max_steps=4,
                          max_two_body=3, gate_pool=pool, two_body_kind=kind, pin=pinned)
    prog = replace(prog, epsilon=epsilon, tip_beta=beta,
                   input_pins=[replace(p, strength=pin_strength) for p in prog.input_pins])
    if readout_strength is not None:
        prog = attach_readout(prog, strength=readout_strength)
    got, want = assemble(prog)[0].terms, _reference_terms(prog)
    assert [label for label, _ in got] == [label for label, _ in want]
    for (label, term), (_, ref) in zip(got, want):
        for a, b in zip(term, ref):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), label
