import numpy as np
import pytest

import gsqc.semantics
from gsqc.basis import enumerate_basis
from gsqc.eigensolve import dense_spectrum
from gsqc.errors import ConsistencyError, IndeterminateInputError, ProgramError
from gsqc.hamiltonian import assemble
from gsqc.program import Pin, Program, gate_cid, gate_cnot, gate_single, pin_all
from gsqc.semantics import (random_program, reference_circuit, row_projection,
                            run_program, step_unitary, verify_development)

NOT = np.array([[0.0, 1.0], [1.0, 0.0]])
HAD = np.array([[np.cos(np.pi / 4), -np.sin(np.pi / 4)],
                [np.sin(np.pi / 4), np.cos(np.pi / 4)]])


# -- reference circuit oracle ----------------------------------------------------


def test_reference_identity():
    prog = Program(num_qubits=2, num_steps=3)
    out = reference_circuit(prog, "10")
    assert np.allclose(out, [0, 0, 1, 0])


def test_reference_not():
    prog = Program(num_qubits=1, num_steps=1, gates=[gate_single(1, 0, NOT)])
    assert np.allclose(reference_circuit(prog, "0"), [0, 1])


def test_reference_cnot_truth_table():
    prog = Program(num_qubits=2, num_steps=1, gates=[gate_cnot(1, 0, 1)])
    table = {"00": "00", "01": "01", "10": "11", "11": "10"}
    for bits, want in table.items():
        out = reference_circuit(prog, bits)
        assert np.argmax(np.abs(out)) == int(want, 2)


def test_step_unitary_composition_order():
    # NOT on qubit 0 then CNOT in the same row applies single gates first
    prog = Program(num_qubits=2, num_steps=1,
                   gates=[gate_single(1, 0, NOT), gate_cnot(1, 1, 0)])
    with pytest.raises(ProgramError):
        # shares the (qubit 0, row 1) slot: rejected upstream
        reference_circuit(prog, "00")
    U = step_unitary(Program(num_qubits=1, num_steps=1, gates=[gate_single(1, 0, NOT)]), 1)
    assert np.allclose(U, NOT.astype(complex))


# -- row projection ---------------------------------------------------------------


def test_row_occupation_uniform_for_free_chain():
    prog = Program(num_qubits=1, num_steps=5)
    _, H = assemble(prog)
    basis = enumerate_basis(prog)
    res = dense_spectrum(H)
    for k in range(res.ground_manifold_dim):
        psi = res.eigenvectors[:, k]
        for j in range(6):
            block = row_projection(psi, j, basis)
            assert abs(block.norm**2 - 1.0 / 6.0) < 1e-10


def test_pinned_projection_kills_complement_column():
    prog = Program(num_qubits=1, num_steps=2, input_pins=[Pin(0, 0)])
    _, H = assemble(prog)
    basis = enumerate_basis(prog)
    psi = dense_spectrum(H).ground_vector()
    block = row_projection(psi, 0, basis)
    assert abs(block.amplitudes[1]) < 1e-12


def test_projection_after_cnot_reads_gate_output():
    prog = Program(num_qubits=2, num_steps=2, gates=[gate_cnot(1, 0, 1)],
                   input_pins=[Pin(0, 1), Pin(1, 1)])
    _, H = assemble(prog)
    basis = enumerate_basis(prog)
    psi = dense_spectrum(H).ground_vector()
    block = row_projection(psi, 2, basis)
    probs = np.abs(block.amplitudes) ** 2
    probs /= probs.sum()
    assert np.allclose(probs, [0, 0, 1, 0], atol=1e-12)  # CNOT|11> = |10>


# -- development verification ------------------------------------------------------


def test_exact_uniform_ground_state_zero_residual():
    prog = Program(num_qubits=1, num_steps=4)
    basis = enumerate_basis(prog)
    psi = np.zeros(basis.dim)
    psi[basis.indices_where({0: [2 * r for r in range(5)]})] = 1.0
    psi /= np.linalg.norm(psi)
    assert verify_development(psi, prog, basis) < 1e-12


def test_solver_ground_state_residual_small():
    prog = Program(num_qubits=2, num_steps=3, gates=[gate_cnot(2, 0, 1)],
                   input_pins=[Pin(0, 1), Pin(1, 0)])
    _, H = assemble(prog)
    psi = dense_spectrum(H).ground_vector()
    assert verify_development(psi, prog) <= 1e-8


def test_excited_state_violates_development():
    prog = Program(num_qubits=1, num_steps=3, input_pins=[Pin(0, 0)])
    _, H = assemble(prog)
    res = dense_spectrum(H)
    excited = res.eigenvectors[:, 1]
    try:
        residual = verify_development(excited, prog)
    except IndeterminateInputError:
        return  # excited state may carry no input amplitude at all
    assert residual > 0.1


def test_indeterminate_input_error():
    prog = Program(num_qubits=1, num_steps=2)
    basis = enumerate_basis(prog)
    psi = np.zeros(basis.dim)
    psi[basis.indices_where({0: 2})[0]] = 1.0  # row 1 only, nothing at row 0
    with pytest.raises(IndeterminateInputError):
        verify_development(psi, prog, basis)


# -- run_program -------------------------------------------------------------------


def test_run_not_not_is_identity():
    prog = Program(num_qubits=1, num_steps=2,
                   gates=[gate_single(1, 0, NOT), gate_single(2, 0, NOT)],
                   input_pins=[Pin(0, 0)])
    res = run_program(prog)
    ref = reference_circuit(prog, "0")
    assert res.output_fidelity(ref) >= 1 - 1e-8
    assert res.probabilities() == {"0": 1.0}


def test_run_cnot_10_gives_11():
    prog = pin_all(Program(num_qubits=2, num_steps=2, gates=[gate_cnot(1, 0, 1)]), "10")
    res = run_program(prog)
    probs = res.probabilities()
    assert set(probs) == {"11"}
    assert res.residual <= 1e-8


def test_run_rotation_gives_half_half():
    prog = Program(num_qubits=1, num_steps=2, gates=[gate_single(1, 0, HAD)],
                   input_pins=[Pin(0, 0)])
    res = run_program(prog)
    probs = res.probabilities()
    assert abs(probs["0"] - 0.5) < 1e-8 and abs(probs["1"] - 0.5) < 1e-8


def test_run_tipped_cid_chain_above_dense_cutoff():
    prog = pin_all(Program(num_qubits=3, num_steps=8,
                           gates=[gate_cid(7, 0, 1), gate_cid(8, 1, 2)],
                           tip_beta=1.0 / np.sqrt(24.0)), "000")
    res = run_program(prog)
    assert res.method == "shift-invert"
    assert res.output_fidelity(reference_circuit(prog, "000")) >= 1 - 1e-8


def test_run_requires_all_pins():
    with pytest.raises(ProgramError, match="pinned"):
        run_program(Program(num_qubits=1, num_steps=2))


def test_run_consistency_error_on_loose_tolerance(monkeypatch):
    monkeypatch.setattr(gsqc.semantics, "RUN_RESIDUAL_TOL", 1e-18)
    prog = Program(num_qubits=1, num_steps=2, input_pins=[Pin(0, 0)])
    with pytest.raises(ConsistencyError):
        run_program(prog)


def test_randomized_programs_verify_against_reference():
    rng = np.random.default_rng(123)
    for _ in range(10):
        prog = random_program(rng, max_qubits=2, max_steps=5, max_two_body=2)
        res = run_program(prog)
        bits = "".join(str(p.bit) for p in sorted(prog.input_pins, key=lambda p: p.qubit))
        assert res.residual <= 1e-8
        assert res.output_fidelity(reference_circuit(prog, bits)) >= 1 - 1e-8


def test_random_program_generator_validity():
    rng = np.random.default_rng(5)
    kinds = set()
    for _ in range(30):
        prog = random_program(rng, gate_pool="permutation", two_body_kind="cid")
        kinds |= {g.kind for g in prog.gates}
        assert prog.num_qubits <= 3 and prog.num_steps <= 8
    assert "cnot" not in kinds
