import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gsqc.semantics
from gsqc.basis import enumerate_basis
from gsqc.detection import attach_readout
from gsqc.eigensolve import CLUSTER_TOL, _scale, dense_spectrum, solve_spectrum
from gsqc.errors import (ConsistencyError, IndeterminateInputError, NonFactoringOutputError,
                         ProgramError, TruncatedClusterError)
from gsqc.hamiltonian import assemble
from gsqc.program import Pin, Program, gate_cid, gate_cnot, gate_single, pin_all
from gsqc.semantics import (qubit_groups, random_program, reference_circuit, restrict,
                            solve_program, run_program, verify_development)

NOT = np.array([[0.0, 1.0], [1.0, 0.0]])
HAD = np.array([[np.cos(np.pi / 4), -np.sin(np.pi / 4)],
                [np.sin(np.pi / 4), np.cos(np.pi / 4)]])


# -- dense oracle: each row as a 2^M x 2^M matrix --------------------------------


def _dense_row(program, row):
    """Row ``row``'s 2^M unitary: a kron product per single gate, a permutation
    matrix per CNOT, nothing for a CID."""
    M = program.num_qubits
    dim = 2 ** M
    U = np.eye(dim, dtype=complex)
    for g in program.gates:
        if g.row != row:
            continue
        if g.kind == "single":
            op = np.ones((1, 1), dtype=complex)
            for q in range(M):
                op = np.kron(op, np.asarray(g.matrix, dtype=complex) if q == g.qubit else np.eye(2))
            U = op @ U
        elif g.kind == "cnot":
            perm = np.arange(dim)
            control_bit = 1 << (M - 1 - g.control)
            target_bit = 1 << (M - 1 - g.target)
            perm = np.where(perm & control_bit, perm ^ target_bit, perm)
            P = np.zeros((dim, dim), dtype=complex)
            P[perm, np.arange(dim)] = 1.0
            U = P @ U
    return U


def _dense_circuit(program, bits):
    state = np.zeros(2 ** program.num_qubits, dtype=complex)
    state[int("".join(map(str, bits)), 2)] = 1.0
    for row in range(1, program.num_steps + 1):
        state = _dense_row(program, row) @ state
    return state


def _dense_development(psi, program, basis):
    """verify_development's residual from accumulated dense row matrices."""
    block0 = basis.row_block(psi, 0)
    acc = np.eye(2 ** program.num_qubits, dtype=complex)
    worst = 0.0
    for j in range(1, program.num_steps + 1):
        acc = _dense_row(program, j) @ acc
        block = basis.row_block(psi, j)
        if j == program.num_steps:
            block = block * program.beta ** program.num_qubits
        worst = max(worst, np.linalg.norm(block - acc @ block0) / np.linalg.norm(block0))
    return worst


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       pool=st.sampled_from(["orthogonal", "unitary", "permutation"]),
       kind=st.sampled_from(["cnot", "cid"]), readout=st.booleans(), tipped=st.booleans())
def test_stepper_matches_dense_oracle(seed, pool, kind, readout, tipped):
    rng = np.random.default_rng(seed)
    prog = random_program(rng, max_qubits=4, max_steps=3, max_two_body=4, gate_pool=pool,
                          two_body_kind=kind, single_rate=0.6)
    M = prog.num_qubits
    if tipped:
        prog = replace(prog, tip_beta=0.5)
    if readout:  # a random nonempty subset, in a random order
        prog = attach_readout(prog, [int(q) for q in rng.permutation(M)[:rng.integers(1, M + 1)]])
    for bits in itertools.product((0, 1), repeat=M):
        assert np.max(np.abs(reference_circuit(prog, bits) - _dense_circuit(prog, bits))) <= 1e-14
    basis = enumerate_basis(prog)
    # the lowest dense eigenvector, where a dense solve is cheap; any state
    # has a residual, so a random one stands in above that size
    if basis.dim <= 1024:
        psi = dense_spectrum(assemble(prog)[1]).eigenvectors[:, 0]
    else:
        psi = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    want = _dense_development(psi, prog, basis)
    assert abs(verify_development(psi, prog, basis) - want) <= 1e-14


# -- reference circuit -------------------------------------------------------------


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
    # a NOT and a CNOT on qubit 0 in the same row share its (qubit 0, row 1)
    # slot, so no order between them arises: rejected upstream
    prog = Program(num_qubits=2, num_steps=1,
                   gates=[gate_single(1, 0, NOT), gate_cnot(1, 1, 0)])
    with pytest.raises(ProgramError):
        reference_circuit(prog, "00")


# -- row blocks -------------------------------------------------------------------


def test_row_occupation_uniform_for_free_chain():
    prog = Program(num_qubits=1, num_steps=5)
    _, H = assemble(prog)
    basis = enumerate_basis(prog)
    res = dense_spectrum(H)
    for k in range(res.ground_manifold_dim):
        psi = res.eigenvectors[:, k]
        for j in range(6):
            assert abs(np.linalg.norm(basis.row_block(psi, j)) ** 2 - 1.0 / 6.0) < 1e-10


def test_pinned_projection_kills_complement_column():
    prog = Program(num_qubits=1, num_steps=2, input_pins=[Pin(0, 0)])
    _, H = assemble(prog)
    basis = enumerate_basis(prog)
    psi = dense_spectrum(H).ground_vector()
    assert abs(basis.row_block(psi, 0)[1, 0]) < 1e-12


def test_projection_after_cnot_reads_gate_output():
    prog = Program(num_qubits=2, num_steps=2, gates=[gate_cnot(1, 0, 1)],
                   input_pins=[Pin(0, 1), Pin(1, 1)])
    _, H = assemble(prog)
    basis = enumerate_basis(prog)
    psi = dense_spectrum(H).ground_vector()
    probs = np.abs(basis.row_block(psi, 2)[:, 0]) ** 2
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
    assert solve_spectrum(assemble(prog)[1], k=2).method == "shift-invert"  # run_program's solve
    assert res.output_fidelity(reference_circuit(prog, "000")) >= 1 - 1e-8


def test_run_requires_all_pins():
    with pytest.raises(ProgramError, match="pinned"):
        run_program(Program(num_qubits=1, num_steps=2))


def test_run_consistency_error_on_loose_tolerance(monkeypatch):
    # a residual far above the bar, whatever rounding the solve leaves
    monkeypatch.setattr(gsqc.semantics, "verify_development", lambda *args: 1.0)
    prog = Program(num_qubits=1, num_steps=2, input_pins=[Pin(0, 0)])
    with pytest.raises(ConsistencyError):
        run_program(prog)


ROT30 = np.array([[np.cos(np.pi / 6), -np.sin(np.pi / 6)],
                  [np.sin(np.pi / 6), np.cos(np.pi / 6)]])


def test_run_readout_of_a_superposition_does_not_factor():
    # the 30-degree rotation leaves qubit 0 in a superposition that no
    # readout position matches: the combined ground energy is far above zero
    prog = attach_readout(Program(num_qubits=1, num_steps=2, gates=[gate_single(1, 0, ROT30)],
                                  input_pins=[Pin(0, 0)]), [0])
    with pytest.raises(NonFactoringOutputError, match="combined ground energy .* does not factor"):
        run_program(prog)


def test_run_bell_readout_raises_non_factoring():
    bell = attach_readout(pin_all(Program(num_qubits=2, num_steps=2,
                                          gates=[gate_single(1, 0, HAD), gate_cnot(2, 0, 1)]),
                                  "00"))
    with pytest.raises(NonFactoringOutputError, match="ground level is degenerate"):
        run_program(bell)
    assert issubclass(NonFactoringOutputError, ProgramError)


def test_readout_programs_factor_or_say_they_do_not():
    # a readout program either develops like its circuit or raises
    # NonFactoringOutputError; never ConsistencyError
    rng = np.random.default_rng(11)
    outcomes = {"factors": 0, "does not factor": 0}
    for i in range(36):
        prog = random_program(rng, max_qubits=3, max_steps=4,
                              gate_pool=("orthogonal", "unitary", "permutation")[i % 3])
        if rng.random() < 0.3:
            prog = replace(prog, tip_beta=0.5)
        M = prog.num_qubits
        prog = attach_readout(prog, [int(q) for q in rng.permutation(M)[:rng.integers(1, M + 1)]])
        try:
            res = run_program(prog)
        except NonFactoringOutputError:
            outcomes["does not factor"] += 1
            continue
        assert res.residual <= 1e-8
        outcomes["factors"] += 1
    assert min(outcomes.values()) >= 5, outcomes


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


# -- factor-by-factor solve of untipped programs -----------------------------------


def test_qubit_groups_and_restrict():
    prog = Program(num_qubits=4, num_steps=3, gates=[gate_cnot(1, 3, 1), gate_single(2, 2, NOT)],
                   input_pins=[Pin(2, 1, 0.5), Pin(3, 0)], readout=[2, 3, 0],
                   readout_strength=2.0)
    assert qubit_groups(prog) == [[0], [1, 3], [2]]
    pair = restrict(prog, [1, 3])
    assert pair.num_qubits == 2 and pair.readout == [1]
    assert [(g.kind, g.control, g.target) for g in pair.gates] == [("cnot", 1, 0)]
    assert [(p.qubit, p.bit) for p in pair.input_pins] == [(1, 0)]
    free = restrict(prog, [2])
    assert [(g.kind, g.qubit) for g in free.gates] == [("single", 0)]
    assert [(p.qubit, p.bit, p.strength) for p in free.input_pins] == [(0, 1, 0.5)]
    assert free.readout == [0] and free.readout_strength == 2.0


def _solved(solve):
    try:
        return solve()
    except TruncatedClusterError:
        return None


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), pool=st.sampled_from(["orthogonal", "unitary"]),
       kind=st.sampled_from(["cnot", "cid"]), pin=st.booleans(), readout=st.booleans())
# one 1000-block solved by Lanczos: its levels must be Rayleigh quotients, not
# ARPACK's values, to match the dense factors' gap to 1e-10
@example(seed=58267, pool="orthogonal", kind="cnot", pin=False, readout=False)
def test_factored_solve_matches_whole(seed, pool, kind, pin, readout):
    rng = np.random.default_rng(seed)
    prog = random_program(rng, max_qubits=3, max_steps=4, max_two_body=1, gate_pool=pool,
                          two_body_kind=kind, pin=pin)
    while len(qubit_groups(prog)) < 2:  # M=1, or M=2 with its gate
        prog = random_program(rng, max_qubits=3, max_steps=4, max_two_body=1, gate_pool=pool,
                              two_body_kind=kind, pin=pin)
    M = prog.num_qubits
    if readout:  # one or two readout qubits, in a random order
        prog = attach_readout(prog, [int(q) for q in rng.permutation(M)[:rng.integers(1, 3)]])
    k = 2 ** M + 1
    got = _solved(lambda: solve_program(prog, k))
    _, H = assemble(prog)
    want = _solved(lambda: solve_spectrum(H, k))
    assert (got is None) == (want is None)
    if want is None:
        return
    got, scale = got
    assert got.factors == len(qubit_groups(prog))
    assert scale == pytest.approx(_scale(H), rel=1e-12)
    assert got.ground_manifold_dim == want.ground_manifold_dim
    assert np.max(np.abs(got.eigenvalues - want.eigenvalues)) <= 1e-10 * scale
    assert (got.gap is None) == (want.gap is None)
    if want.gap is not None:
        assert got.gap == pytest.approx(want.gap, rel=1e-10)
    # 1 - fidelity of each whole-H ground column with the factored cluster
    v, w = got.eigenvectors, want.eigenvectors
    assert np.max(1.0 - np.linalg.norm(v.conj().T @ w, axis=0) ** 2) <= 1e-10


def test_tipped_and_single_group_programs_assemble_the_whole_program_once(monkeypatch):
    calls = []
    real = gsqc.semantics.assemble

    def counted(program):
        calls.append(program)
        return real(program)

    monkeypatch.setattr(gsqc.semantics, "assemble", counted)
    for prog in (Program(num_qubits=3, num_steps=4, gates=[gate_cnot(2, 0, 1)], tip_beta=0.5),
                 Program(num_qubits=3, num_steps=4, gates=[gate_cnot(2, 0, 1),
                                                           gate_cid(3, 2, 1)]),
                 Program(num_qubits=1, num_steps=4, input_pins=[Pin(0, 1)])):
        calls.clear()
        result, _ = solve_program(prog, k=9)
        assert len(calls) == 1 and calls[0] is prog and result.factors == 1
    calls.clear()
    result, _ = solve_program(Program(num_qubits=3, num_steps=4, gates=[gate_cnot(2, 0, 1)]), k=9)
    assert len(calls) == 2 and result.factors == 2


def test_factor_level_outside_its_own_cluster_solves_the_whole_program(monkeypatch):
    # qubit 1's weak pin lifts its other column only to ~3e-8: outside its own
    # cluster (1e-8 times its scale 2), inside the program's (times 2 + 2)
    prog = Program(num_qubits=2, num_steps=2, input_pins=[Pin(1, 0, 9e-8)])
    pinned = solve_spectrum(assemble(restrict(prog, [1]))[1], k=5)
    assert pinned.ground_manifold_dim == 1
    assert 2 * CLUSTER_TOL < pinned.gap <= 4 * CLUSTER_TOL
    calls = []
    real = gsqc.semantics.assemble
    monkeypatch.setattr(gsqc.semantics, "assemble",
                        lambda program: calls.append(program) or real(program))
    got, scale = solve_program(prog, k=5)
    assert got.factors == 1 and calls[-1] is prog and len(calls) == 3
    want = solve_spectrum(real(prog)[1], k=5)
    assert got.ground_manifold_dim == want.ground_manifold_dim == 4
    assert np.array_equal(got.eigenvalues, want.eigenvalues) and scale == 4.0


def test_run_program_factored_matches_whole_solve():
    # a pinned readout program whose free qubit, read out too, is its own group
    prog = attach_readout(pin_all(Program(num_qubits=3, num_steps=3,
                                          gates=[gate_cnot(2, 1, 0), gate_single(1, 2, NOT)]),
                                  "010"), [2, 1])
    res = run_program(prog)
    _, H = assemble(prog)
    whole = solve_spectrum(H, k=2)
    assert abs(np.vdot(whole.ground_vector(), res.ground_state)) ** 2 >= 1 - 1e-10
    assert res.gap == pytest.approx(whole.gap, rel=1e-10)
    assert res.energy_scale == pytest.approx(_scale(H), rel=1e-12)
    assert res.output_fidelity(reference_circuit(prog, "010")) >= 1 - 1e-10
