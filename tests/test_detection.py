import numpy as np
import pytest

from gsqc.basis import enumerate_basis
from gsqc.detection import (attach_readout, build_report, choose_beta, cid_sync_check,
                            detection_probability, infer_output_from_readout,
                            per_qubit_final_probabilities, predicted_gate_free,
                            readout_occupations)
from gsqc.eigensolve import dense_spectrum
from gsqc.errors import NonFactoringOutputError, ProgramError
from gsqc.hamiltonian import assemble
from gsqc.program import Pin, Program, gate_cid, gate_cnot, gate_single, pin_all
from gsqc.semantics import reference_circuit, run_program

NOT = np.array([[0.0, 1.0], [1.0, 0.0]])
HAD = np.array([[np.cos(np.pi / 4), -np.sin(np.pi / 4)],
                [np.sin(np.pi / 4), np.cos(np.pi / 4)]])


def solved_ground(prog):
    _, H = assemble(prog)
    result = dense_spectrum(H)
    return result.ground_vector(), enumerate_basis(prog), result.ground_energy


# -- baseline and tipped probabilities -------------------------------------------


def test_untipped_gate_free_all_final_probability():
    prog = pin_all(Program(num_qubits=2, num_steps=3), "00")
    psi, basis, _ = solved_ground(prog)
    assert abs(detection_probability(psi, basis) - 1.0 / 16.0) < 1e-10
    assert np.allclose(per_qubit_final_probabilities(psi, basis), 0.25, atol=1e-10)


@pytest.mark.parametrize("N", [1, 3, 5])
def test_single_qubit_final_probability(N):
    prog = pin_all(Program(num_qubits=1, num_steps=N), "0")
    psi, basis, _ = solved_ground(prog)
    assert abs(detection_probability(psi, basis) - 1.0 / (N + 1)) < 1e-10


def test_nearly_full_tipping_concentrates_on_final_row():
    prog = Program(num_qubits=1, num_steps=2, input_pins=[Pin(0, 0)], tip_beta=1e-3)
    psi, basis, _ = solved_ground(prog)
    assert detection_probability(psi, basis) >= 0.999


@pytest.mark.parametrize("M,N,beta", [(1, 4, 0.5), (2, 3, 0.5), (3, 2, 0.4)])
def test_tipped_product_formula(M, N, beta):
    prog = pin_all(Program(num_qubits=M, num_steps=N, tip_beta=beta), "0" * M)
    psi, basis, _ = solved_ground(prog)
    assert abs(detection_probability(psi, basis) - predicted_gate_free(M, N, beta)) < 1e-9


def test_choose_beta_values():
    assert choose_beta(1, 4) == 0.5
    assert choose_beta(4, 4) == 0.25
    with pytest.raises(ValueError):
        choose_beta(0, 4)


def test_choose_beta_prediction_approaches_inverse_e():
    prev = 1.0
    for M in range(1, 9):
        p = predicted_gate_free(M, 5, choose_beta(M, 5))
        assert np.exp(-1) <= p <= 0.5 + 1e-12
        assert p <= prev + 1e-12  # decreasing toward 1/e
        prev = p


def test_tipping_preserves_output_fidelity():
    base = pin_all(Program(num_qubits=2, num_steps=4, gates=[gate_cnot(2, 0, 1)]), "10")
    ref = reference_circuit(base, "10")
    for beta in (1.0, 0.5, choose_beta(2, 4)):
        prog = pin_all(Program(num_qubits=2, num_steps=4, gates=[gate_cnot(2, 0, 1)],
                               tip_beta=beta), "10")
        res = run_program(prog)
        assert res.output_fidelity(ref) >= 1 - 1e-8


# -- readout particles ------------------------------------------------------------


def readout_program(gate_is_not, V=None):
    gates = [gate_single(1, 0, NOT)] if gate_is_not else []
    prog = Program(num_qubits=1, num_steps=3, gates=gates, input_pins=[Pin(0, 0)])
    return attach_readout(prog, strength=V)


def test_readout_localizes_opposite_to_output():
    psi, basis, e0 = solved_ground(readout_program(gate_is_not=True))
    assert abs(e0) < 1e-9
    (p0, p1), = readout_occupations(psi, basis)
    assert p0 > 1 - 1e-8  # output bit 1 pushes the readout to column 0
    assert infer_output_from_readout(psi, basis, e0) == "1"


def test_readout_identity_mirror_case():
    psi, basis, e0 = solved_ground(readout_program(gate_is_not=False))
    (p0, p1), = readout_occupations(psi, basis)
    assert p1 > 1 - 1e-8
    assert infer_output_from_readout(psi, basis, e0) == "0"


@pytest.mark.parametrize("V", [0.1, 1.0, 10.0])
def test_readout_strength_independent(V):
    psi, basis, e0 = solved_ground(readout_program(gate_is_not=True, V=V))
    assert abs(e0) < 1e-9
    assert infer_output_from_readout(psi, basis, e0) == "1"


def test_readout_two_qubit_bitstring():
    prog = pin_all(Program(num_qubits=2, num_steps=2,
                           gates=[gate_single(1, 0, NOT), gate_cnot(2, 0, 1)]), "00")
    prog = attach_readout(prog)
    psi, basis, e0 = solved_ground(prog)
    assert infer_output_from_readout(psi, basis, e0) == "11"


def test_bell_type_program_raises_non_factoring():
    prog = pin_all(Program(num_qubits=2, num_steps=2,
                           gates=[gate_single(1, 0, HAD), gate_cnot(2, 0, 1)]), "00")
    prog = attach_readout(prog)
    psi, basis, e0 = solved_ground(prog)
    assert e0 > 1e-6  # entangled output frustrates the readout repulsion
    with pytest.raises(NonFactoringOutputError):
        infer_output_from_readout(psi, basis, e0)


def test_interior_occupation_raises_non_factoring():
    prog = readout_program(gate_is_not=False)
    basis = enumerate_basis(prog)
    psi = np.full(basis.dim, 1.0 / np.sqrt(basis.dim))
    with pytest.raises(NonFactoringOutputError, match="occupation"):
        infer_output_from_readout(psi, basis, 0.0)


def test_inference_requires_full_readout_coverage():
    prog = pin_all(Program(num_qubits=2, num_steps=2), "00")
    prog = attach_readout(prog, qubits=[0])
    psi, basis, e0 = solved_ground(prog)
    with pytest.raises(ProgramError, match=r"qubit\(s\) \[1\]: .* every qubit"):
        infer_output_from_readout(psi, basis, e0)


def test_attach_readout_validation():
    prog = Program(num_qubits=2, num_steps=2)
    with pytest.raises(ValueError):
        attach_readout(prog, strength=-1.0)
    with pytest.raises(ValueError):
        attach_readout(prog, qubits=[])


# -- CID synchronization ----------------------------------------------------------


def test_cid_conditional_single_gate():
    prog = pin_all(Program(num_qubits=2, num_steps=3, gates=[gate_cid(3, 0, 1)]), "00")
    psi, basis, _ = solved_ground(prog)
    sync = cid_sync_check(psi, basis, prog)
    assert abs(sync.conditional - 1.0) < 1e-10
    assert sync.sync_rows == (3, 3)


def test_cid_conditional_trivial_without_gates():
    prog = pin_all(Program(num_qubits=1, num_steps=4), "0")
    psi, basis, _ = solved_ground(prog)
    assert cid_sync_check(psi, basis, prog).conditional == pytest.approx(1.0)


def test_cid_chain_three_qubits():
    N = 4
    prog = pin_all(Program(num_qubits=3, num_steps=N,
                           gates=[gate_cid(N - 1, 0, 1), gate_cid(N, 1, 2)]), "000")
    psi, basis, _ = solved_ground(prog)
    sync = cid_sync_check(psi, basis, prog)
    assert abs(sync.conditional - 1.0) < 1e-10
    assert sync.sync_rows == (N - 1, N, N)


def test_cid_chain_does_not_boost_overall_probability_much():
    N = 4
    chained = pin_all(Program(num_qubits=2, num_steps=N, gates=[gate_cid(N, 0, 1)]), "00")
    plain = pin_all(Program(num_qubits=2, num_steps=N), "00")
    p_c = detection_probability(*solved_ground(chained)[:2])
    p_0 = detection_probability(*solved_ground(plain)[:2])
    assert p_c <= 1.2 * p_0


def test_report_fields():
    prog = pin_all(Program(num_qubits=2, num_steps=3, gates=[gate_cid(3, 0, 1)],
                           tip_beta=0.5), "00")
    psi, basis, _ = solved_ground(prog)
    rep = build_report(psi, basis, prog)
    assert 0.0 <= rep.p_all_final <= min(rep.per_qubit_final) + 1e-12
    assert rep.beta == 0.5
    assert rep.cid_conditional == pytest.approx(1.0)
    assert rep.expected_attempts == pytest.approx(1.0 / rep.p_all_final)
    d = rep.to_dict()
    assert set(d) >= {"p_all_final", "per_qubit_final", "beta", "predicted_gate_free",
                      "expected_attempts", "readout_occupations", "cid_conditional"}
