"""Ground-state semantics: does the state develop like the circuit says?

The row-j projection gathers the amplitudes of configurations with every
qubit on row j.  A conforming zero-energy state satisfies, for every j,
block_j = (step_j ... step_1) block_0, where step_i is the 2^M unitary of
row i.  A direct statevector simulator provides the right-hand side.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import ConfigurationBasis, enumerate_basis
from .detection import build_report, DetectionReport
from .errors import ConsistencyError, IndeterminateInputError, ProgramError
from .eigensolve import solve_spectrum, DEFAULT_SEED
from .hamiltonian import assemble
from .program import (GateSpec, Pin, Program, gate_cnot, gate_cid, gate_single,
                      validate_program)

RUN_RESIDUAL_TOL = 1e-6


@dataclass
class RowProjection:
    """Amplitude block of the all-qubits-at-row-j configurations."""

    row: int
    amplitudes: np.ndarray  # shape (2^M,) or (2^M, 2^R) with readout particles
    norm: float


def row_projection(psi: np.ndarray, j: int, basis: ConfigurationBasis) -> RowProjection:
    """Gather the row-j block, column labels identified with logical values."""
    psi = np.asarray(psi)
    if psi.shape != (basis.dim,):
        raise ValueError(f"state has shape {psi.shape}, basis dimension is {basis.dim}")
    block = psi[basis.row_block_indices(j)]
    if not basis.readout:
        block = block[:, 0]
    return RowProjection(row=j, amplitudes=block, norm=float(np.linalg.norm(block)))


def step_unitary(program: Program, row: int) -> np.ndarray:
    """Full 2^M unitary applied at one row (CID acts as logical identity)."""
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
            flip = (perm & control_bit).astype(bool)
            perm = np.where(flip, perm ^ target_bit, perm)
            P = np.zeros((dim, dim), dtype=complex)
            P[perm, np.arange(dim)] = 1.0
            U = P @ U
        # cid: logical identity
    return U


def reference_circuit(program: Program, bits) -> np.ndarray:
    """Statevector oracle: apply each step's unitary in row order to the input."""
    validate_program(program)
    M = program.num_qubits
    if isinstance(bits, str):
        bits = [int(b) for b in bits]
    bits = list(bits)
    if len(bits) != M or any(b not in (0, 1) for b in bits):
        raise ValueError(f"need {M} input bits, got {bits!r}")
    state = np.zeros(2 ** M, dtype=complex)
    state[int("".join(str(b) for b in bits), 2)] = 1.0
    for row in range(1, program.num_steps + 1):
        state = step_unitary(program, row) @ state
    return state


def verify_development(psi: np.ndarray, program: Program,
                       basis: ConfigurationBasis | None = None) -> float:
    """Maximum over j of ||block_j - U_j...U_1 block_0|| / ||block_0||.

    For tipped programs the final-row block is rescaled by beta^M before the
    comparison (the ground state carries 1/beta extra amplitude per qubit on
    row N).  Zero-energy states return residuals at solver precision.
    """
    if basis is None:
        basis = enumerate_basis(program)
    block0 = row_projection(psi, 0, basis)
    if block0.norm < 1e-12:
        raise IndeterminateInputError(
            f"input block norm {block0.norm:.3e} below 1e-12; input indeterminate")
    beta = program.beta
    acc = np.eye(2 ** program.num_qubits, dtype=complex)
    worst = 0.0
    for j in range(1, program.num_steps + 1):
        acc = step_unitary(program, j) @ acc
        block = row_projection(psi, j, basis)
        amp = block.amplitudes
        if j == program.num_steps and beta != 1.0:
            amp = amp * beta ** program.num_qubits
        expected = acc @ block0.amplitudes
        worst = max(worst, float(np.linalg.norm(amp - expected)) / block0.norm)
    return worst


@dataclass
class RunResult:
    """Solved program: logical output, diagnostics, detection report."""

    logical_state: np.ndarray  # 2^M amplitudes at row N, normalized
    residual: float
    ground_energy: float
    gap: float | None
    detection: DetectionReport
    method: str
    ground_state: np.ndarray  # the solved ground vector, indexed by basis
    basis: ConfigurationBasis

    def probabilities(self) -> dict[str, float]:
        M = int(np.log2(self.logical_state.size))
        probs = np.abs(self.logical_state) ** 2
        return {format(i, f"0{M}b"): float(p) for i, p in enumerate(probs) if p > 1e-12}

    def output_fidelity(self, reference: np.ndarray) -> float:
        """|<out|ref>|^2 on normalized states; global phase ignored."""
        ref = np.asarray(reference, dtype=complex)
        ref = ref / np.linalg.norm(ref)
        return float(np.abs(np.vdot(self.logical_state, ref)) ** 2)


def run_program(program: Program, seed: int = DEFAULT_SEED) -> RunResult:
    """Assemble, solve for the ground state, verify development, read output.

    Requires every input pinned so the ground state is unique.
    """
    validate_program(program)
    if program.pinned_qubits() != set(range(program.num_qubits)):
        raise ProgramError("run_program requires every qubit input pinned")
    terms, H = assemble(program)
    basis = terms.basis
    result = solve_spectrum(H, k=2, seed=seed)
    psi = result.ground_vector()
    residual = verify_development(psi, program, basis)
    if residual > RUN_RESIDUAL_TOL:
        raise ConsistencyError(
            f"development residual {residual:.3e} above {RUN_RESIDUAL_TOL:g}")
    block = row_projection(psi, program.num_steps, basis).amplitudes
    if basis.readout:
        # leading factor of the (qubit, readout) block; exact when the
        # combined ground state factorizes
        u, _s, _vh = np.linalg.svd(block)
        logical = u[:, 0]
    else:
        logical = block
    logical = logical / np.linalg.norm(logical)
    report = build_report(psi, basis, program)
    return RunResult(logical_state=logical, residual=residual,
                     ground_energy=result.ground_energy, gap=result.gap,
                     detection=report, method=result.method, ground_state=psi,
                     basis=basis)


# -- randomized program generator (test suites) -------------------------------


def _random_orthogonal(rng) -> np.ndarray:
    t = rng.uniform(0.0, 2.0 * np.pi)
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def _random_unitary(rng) -> np.ndarray:
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_program(rng, max_qubits: int = 3, max_steps: int = 8, max_two_body: int = 3,
                   gate_pool: str = "orthogonal", two_body_kind: str = "cnot",
                   pin: bool = True, single_rate: float = 0.4) -> Program:
    """Random valid program for property suites.

    gate_pool: 'orthogonal' (real rotations), 'permutation' (I/NOT, keeps
    basis states on basis states), or 'unitary' (complex).
    """
    M = int(rng.integers(1, max_qubits + 1))
    N = int(rng.integers(2, max_steps + 1))
    gates: list[GateSpec] = []
    occupied: set[tuple[int, int]] = set()
    if M >= 2:
        n_two = int(rng.integers(0, max_two_body + 1))
        for _ in range(n_two):
            for _attempt in range(20):
                row = int(rng.integers(1, N + 1))
                a, b = rng.choice(M, size=2, replace=False)
                if (a, row) in occupied or (b, row) in occupied:
                    continue
                gates.append(gate_cnot(row, int(a), int(b)) if two_body_kind == "cnot"
                             else gate_cid(row, int(a), int(b)))
                occupied.add((a, row))
                occupied.add((b, row))
                break
    for q in range(M):
        for row in range(1, N + 1):
            if (q, row) in occupied or rng.random() > single_rate:
                continue
            if gate_pool == "orthogonal":
                U = _random_orthogonal(rng)
            elif gate_pool == "permutation":
                U = np.eye(2) if rng.random() < 0.5 else np.array([[0.0, 1.0], [1.0, 0.0]])
            elif gate_pool == "unitary":
                U = _random_unitary(rng)
            else:
                raise ValueError(f"unknown gate pool {gate_pool!r}")
            gates.append(gate_single(row, q, U))
            occupied.add((q, row))
    pins = [Pin(qubit=q, bit=int(rng.integers(0, 2))) for q in range(M)] if pin else []
    prog = Program(num_qubits=M, num_steps=N, gates=gates, input_pins=pins)
    validate_program(prog)
    return prog
