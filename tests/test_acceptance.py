"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""
import time
from dataclasses import replace

import numpy as np
import pytest

from gsqc.basis import enumerate_basis
from gsqc.bounds import scaling_fit, upper_bound
from gsqc.cli import main
from gsqc.detection import (attach_readout, choose_beta, cid_sync_check,
                            detection_probability, infer_output_from_readout,
                            per_qubit_final_probabilities, predicted_gate_free)
from gsqc.eigensolve import (analytic_levels, char_det, dense_spectrum, low_lying,
                             solve_spectrum, solve_tipped_levels)
from gsqc.errors import NonFactoringOutputError
from gsqc.hamiltonian import assemble
from gsqc.program import Program, gate_cid, gate_cnot, gate_single, pin_all
from gsqc.semantics import random_program, reference_circuit, run_program
from gsqc.verify import gate_oracle_levels, restricted_gate_spectrum

ALPHA_FLOOR_GOLDEN = 29.0  # recorded min of gap*(N+1)^4 over the M=2 family below


def report(num, text):
    print(f"[acceptance {num:02d}] PASS - {text}")


def solved_ground(prog):
    _, H = assemble(prog)
    result = solve_spectrum(H, k=2 ** prog.num_qubits + 1)
    return result, enumerate_basis(prog)


def test_criterion_01_single_qubit_spectrum():
    t0 = time.perf_counter()
    for N in range(1, 13):
        _, H = assemble(Program(num_qubits=1, num_steps=N))
        dense = dense_spectrum(H).eigenvalues
        ladder = analytic_levels(N, eps=1.0)
        # physical multiplicities: even-index ladder levels doubled, odd absent
        expected = np.sort(np.concatenate([ladder[0::2], ladder[0::2]]))
        assert dense.shape == (2 * (N + 1),)
        assert np.max(np.abs(dense - expected)) < 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"dense spectra match closed-form levels for N=1..12 in {elapsed:.2f}s")


def test_criterion_02_characteristic_determinant():
    worst = 0.0
    for N in range(1, 13):
        _, H = assemble(Program(num_qubits=1, num_steps=N))
        dense = dense_spectrum(H).eigenvalues
        roots = solve_tipped_levels(N, beta=1.0)
        worst = max(worst, float(np.max(np.abs(dense - roots))))
        for E in dense:
            assert abs(char_det(float(np.clip(E, 0.0, 4.0)), N)) < 1e-8
    for beta in (0.25, 0.5, 0.75):
        for N in range(1, 13):
            _, H = assemble(Program(num_qubits=1, num_steps=N, tip_beta=beta))
            dense = dense_spectrum(H).eigenvalues
            roots = solve_tipped_levels(N, beta=beta)
            worst = max(worst, float(np.max(np.abs(dense - roots))))
            for E in dense:
                assert abs(char_det(float(np.clip(E, 0.0, 4.0)), N, beta=beta)) < 1e-8
    assert worst < 1e-8
    report(2, f"determinant zeros match dense eigenvalues, max deviation {worst:.2e}")


def test_criterion_03_gap_scaling_fit():
    fit = scaling_fit([(n, analytic_levels(n)[1]) for n in range(4, 17)])
    target = np.pi ** 2 / 4.0
    assert abs(fit.exponent + 2.0) <= 0.05
    assert abs(fit.constant - target) <= 0.05 * target
    report(3, f"ladder-gap fit: exponent {fit.exponent:+.4f}, "
              f"constant {fit.constant:.4f} vs pi^2/4 = {target:.4f}")


def test_criterion_04_cnot_spectrum_oracle():
    t0 = time.perf_counter()
    checked = 0
    for N in (2, 4, 6):
        for j in range(1, N + 1):
            got = restricted_gate_spectrum(N, j, "cnot")
            oracle = gate_oracle_levels(N, j)
            assert np.max(np.abs(got - oracle)) < 1e-9
            level8 = 1.0 / (j * (N - j + 1))
            assert np.sum(np.abs(got - level8) < 1e-9) == 8
            assert np.sum(got < 1e-9) == 4

            prog = Program(num_qubits=2, num_steps=N, gates=[gate_cnot(j, 0, 1)])
            _, H = assemble(prog)
            res = (dense_spectrum(H) if H.dim <= 4096 else solve_spectrum(H, k=6))
            assert 0.0 < res.gap <= level8 * (1 + 1e-12)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(4, f"{checked} (N, j) instances: restricted oracle exact, "
              f"0 < gap <= eps/(j(N-j+1)); {elapsed:.1f}s")


def test_criterion_05_ground_manifold_dimension():
    grid = [(1, n, []) for n in range(1, 7)]
    grid += [(2, n, [gate_cnot(max(1, n // 2), 0, 1)]) for n in (2, 4, 6)]
    grid += [(2, 4, [])]
    grid += [(3, n, [gate_cnot(1, 0, 1), gate_cnot(n, 1, 2)]) for n in (2, 4, 6)]
    grid += [(3, 3, [])]
    for M, N, gates in grid:
        prog = Program(num_qubits=M, num_steps=N, gates=gates)
        result, _ = solved_ground(prog)
        assert result.ground_manifold_dim == 2 ** M, (M, N, result.ground_manifold_dim)
        assert abs(result.ground_energy) < 1e-8
    report(5, f"{len(grid)} unpinned instances all have exactly 2^M zero modes")


def test_criterion_06_development_equation_randomized():
    rng = np.random.default_rng(2024)
    worst_res, worst_fid = 0.0, 1.0
    for _ in range(50):
        prog = random_program(rng, max_qubits=3, max_steps=8, max_two_body=3)
        res = run_program(prog)
        bits = "".join(str(p.bit) for p in sorted(prog.input_pins, key=lambda p: p.qubit))
        fid = res.output_fidelity(reference_circuit(prog, bits))
        worst_res = max(worst_res, res.residual)
        worst_fid = min(worst_fid, fid)
    assert worst_res <= 1e-8
    assert worst_fid >= 1 - 1e-8
    report(6, f"50 random programs: max residual {worst_res:.2e}, "
              f"min fidelity 1-{1 - worst_fid:.2e}")


def test_criterion_07_detection_baseline():
    for M, N in ((1, 3), (2, 3), (2, 5), (3, 3)):
        prog = pin_all(Program(num_qubits=M, num_steps=N), "0" * M)
        result, basis = solved_ground(prog)
        psi = result.ground_vector()
        per_qubit = per_qubit_final_probabilities(psi, basis)
        assert np.max(np.abs(per_qubit - 1.0 / (N + 1))) < 1e-10
        assert abs(detection_probability(psi, basis) - (N + 1.0) ** (-M)) < 1e-10
    report(7, "gate-free final-row probabilities equal 1/(N+1) and 1/(N+1)^M")


def test_criterion_08_tipping():
    for M, N, beta in ((1, 4, 0.5), (2, 3, 0.5), (2, 6, 0.25), (3, 2, 0.7)):
        prog = pin_all(Program(num_qubits=M, num_steps=N, tip_beta=beta), "0" * M)
        result, basis = solved_ground(prog)
        p = detection_probability(result.ground_vector(), basis)
        assert abs(p - predicted_gate_free(M, N, beta)) < 1e-9
    for M in (2, 3):
        N = 4
        beta = choose_beta(M, N)
        prog = pin_all(Program(num_qubits=M, num_steps=N, tip_beta=beta), "0" * M)
        result, basis = solved_ground(prog)
        p = detection_probability(result.ground_vector(), basis)
        assert 0.35 <= p <= 0.5
    base = pin_all(Program(num_qubits=2, num_steps=4, gates=[gate_cnot(2, 0, 1)]), "10")
    ref = reference_circuit(base, "10")
    for beta in (1.0, 0.5, choose_beta(2, 4)):
        res = run_program(replace(base, tip_beta=beta))
        assert res.output_fidelity(ref) >= 1 - 1e-8
    report(8, "tipped p_all matches (1+b^2 N)^-M; 1/sqrt(MN) lands in [0.35, 0.5]; "
              "outputs unchanged")


def test_criterion_09_readout_electrons():
    rng = np.random.default_rng(99)
    for _ in range(20):
        prog = random_program(rng, max_qubits=3, max_steps=5, max_two_body=2,
                              gate_pool="permutation")
        prog = attach_readout(prog)
        result, basis = solved_ground(prog)
        assert abs(result.ground_energy) < 1e-9
        bits_in = "".join(str(p.bit) for p in sorted(prog.input_pins, key=lambda p: p.qubit))
        ref = reference_circuit(replace(prog, readout=[], readout_strength=None), bits_in)
        want = format(int(np.argmax(np.abs(ref))), f"0{prog.num_qubits}b")
        got = infer_output_from_readout(result.ground_vector(), basis, result.ground_energy)
        assert got == want
    bell = pin_all(Program(num_qubits=2, num_steps=2,
                           gates=[gate_single(1, 0, np.array([[np.cos(np.pi / 4), -np.sin(np.pi / 4)],
                                                              [np.sin(np.pi / 4), np.cos(np.pi / 4)]])),
                                  gate_cnot(2, 0, 1)]), "00")
    bell = attach_readout(bell)
    result, basis = solved_ground(bell)
    with pytest.raises(NonFactoringOutputError):
        infer_output_from_readout(result.ground_vector(), basis, result.ground_energy)
    report(9, "20 factoring programs read out exactly at zero energy; "
              "Bell-type program rejected")


def test_criterion_10_cid_synchronization():
    # conditional certainty for chains at M = 2 and 3
    for M, N in ((2, 4), (3, 4)):
        gates = [gate_cid(N - (M - 2 - k), k, k + 1) for k in range(M - 1)]
        prog = pin_all(Program(num_qubits=M, num_steps=N, gates=gates), "0" * M)
        result, basis = solved_ground(prog)
        sync = cid_sync_check(result.ground_vector(), basis, prog)
        assert abs(sync.conditional - 1.0) < 1e-10
    # overall probability not boosted by more than 20%
    ratios = []
    for M, N in ((2, 4), (3, 16)):
        gates = [gate_cid(N - (M - 2 - k), k, k + 1) for k in range(M - 1)]
        chained = pin_all(Program(num_qubits=M, num_steps=N, gates=gates), "0" * M)
        plain = pin_all(Program(num_qubits=M, num_steps=N), "0" * M)
        rc, bc = solved_ground(chained)
        r0, b0 = solved_ground(plain)
        p_c = detection_probability(rc.ground_vector(), bc)
        p_0 = detection_probability(r0.ground_vector(), b0)
        ratios.append(p_c / p_0)
        assert p_c <= 1.2 * p_0
    report(10, "chained-CID conditional = 1; p_all ratios "
               + ", ".join(f"{r:.3f}" for r in ratios) + " all <= 1.2")


def test_criterion_11_lower_bound_form():
    alphas = []
    for n in range(2, 11):
        for j in range(1, n + 1):
            prog = Program(num_qubits=2, num_steps=n, gates=[gate_cnot(j, 0, 1)])
            _, H = assemble(prog)
            gap = dense_spectrum(H, vectors=False).gap
            assert 0.0 < gap <= upper_bound(prog) * (1 + 1e-12)
            alphas.append(gap * (n + 1) ** 4)
    floor = min(alphas)
    assert floor >= ALPHA_FLOOR_GOLDEN
    report(11, f"54 instances: gap*(N+1)^4 floor {floor:.2f} >= {ALPHA_FLOOR_GOLDEN}")


def test_criterion_12_gap_scan_determinism(tmp_path):
    args = ["gap-scan", "--m", "1", "--n-min", "2", "--n-max", "8"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    report(12, "gap-scan CSV byte-identical across consecutive runs")
