"""Ground-state semantics: does the state develop like the circuit says?

The row-j block holds the amplitudes of the configurations with every qubit
on row j.  A conforming zero-energy state satisfies, for every j,
block_j = (step_j ... step_1) block_0, where step_i applies row i's gates to
the (2,)^M logical tensor; the statevector simulator steps the same way.

``solve_program`` is the program-level solve behind ``run_program`` and
``gap-scan``.  Qubits that no two-body gate links to the rest make an
untipped H a Kronecker sum, A (x) I + I (x) B, whose levels are the sums
a_i + b_j, so such a program is solved one small factor at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import ConfigurationBasis, enumerate_basis
from .detection import FACTOR_ENERGY_TOL, build_report, DetectionReport
from .errors import (ConsistencyError, IndeterminateInputError, NonFactoringOutputError,
                     ProgramError, TruncatedClusterError)
from .eigensolve import SpectralResult, _scale, _union, solve_spectrum
from .hamiltonian import assemble
from .program import (GateSpec, Pin, Program, gate_cnot, gate_cid, gate_single,
                      validate_program)

RUN_RESIDUAL_TOL = 1e-6


def _apply_row(program: Program, row: int, state: np.ndarray) -> np.ndarray:
    """The state after one row's gates.  Its first M axes are the qubits'
    logical values, qubit 0 first; any further axes ride along.  A CID is
    the logical identity."""
    for g in program.gates:
        if g.row != row:
            continue
        if g.kind == "single":
            U = np.asarray(g.matrix, dtype=complex)
            state = np.moveaxis(np.tensordot(U, state, axes=(1, g.qubit)), 0, g.qubit)
        elif g.kind == "cnot":  # flip the target on the control = 1 slice
            state = state.copy()
            on = (slice(None),) * g.control + (1,)
            state[on] = np.flip(state[on], g.target - (g.target > g.control))
    return state


def reference_circuit(program: Program, bits) -> np.ndarray:
    """Statevector oracle: step the input's (2,)^M tensor through every row."""
    validate_program(program)
    M = program.num_qubits
    if isinstance(bits, str):
        bits = [int(b) for b in bits]
    bits = list(bits)
    if len(bits) != M or any(b not in (0, 1) for b in bits):
        raise ValueError(f"need {M} input bits, got {bits!r}")
    state = np.zeros((2,) * M, dtype=complex)
    state[tuple(bits)] = 1.0
    for row in range(1, program.num_steps + 1):
        state = _apply_row(program, row, state)
    return state.ravel()


def verify_development(psi: np.ndarray, program: Program,
                       basis: ConfigurationBasis | None = None) -> float:
    """Maximum over j of ||block_j - U_j...U_1 block_0|| / ||block_0||.

    For tipped programs the final-row block is rescaled by beta^M before the
    comparison (the ground state carries 1/beta extra amplitude per qubit on
    row N).  Block 0 is stepped row by row as a (2,)^M + (2^R,) tensor.
    Zero-energy states return residuals at solver precision.
    """
    if basis is None:
        basis = enumerate_basis(program)
    M, N = program.num_qubits, program.num_steps
    block0 = basis.row_block(psi, 0)
    norm0 = float(np.linalg.norm(block0))
    if norm0 < 1e-12:
        raise IndeterminateInputError(
            f"input block norm {norm0:.3e} below 1e-12; input indeterminate")
    expected, worst = block0.reshape((2,) * M + (-1,)), 0.0
    for j in range(1, N + 1):
        expected = _apply_row(program, j, expected)
        block = basis.row_block(psi, j)
        if j == N and program.beta != 1.0:
            block = block * program.beta ** M
        worst = max(worst, float(np.linalg.norm(block - expected.reshape(block.shape))) / norm0)
    return worst


def qubit_groups(program: Program) -> list[list[int]]:
    """The qubits the two-body gates link, one ascending list per group,
    groups in the order of their lowest qubit: each gate merges its two
    qubits' groups."""
    label = list(range(program.num_qubits))
    for g in program.gates:
        if g.kind != "single":
            old, new = label[g.control], label[g.target]
            label = [new if x == old else x for x in label]
    groups: dict[int, list[int]] = {}
    for q, x in enumerate(label):
        groups.setdefault(x, []).append(q)
    return list(groups.values())


def restrict(program: Program, qubits: list[int]) -> Program:
    """The program on one group of ``qubit_groups`` alone, its qubits renumbered
    0.. in ascending order: their gates, pins and readout (in the program's
    readout order), with the same epsilon, tipping and strengths."""
    new = {q: i for i, q in enumerate(qubits)}
    gates = [replace(g, qubit=new.get(g.qubit), control=new.get(g.control),
                     target=new.get(g.target))
             for g in program.gates if g.qubits()[0] in new]
    return replace(program, num_qubits=len(qubits), gates=gates,
                   input_pins=[replace(p, qubit=new[p.qubit])
                               for p in program.input_pins if p.qubit in new],
                   readout=[new[q] for q in program.readout if q in new])


def _kron_into_basis(columns, groups, basis: ConfigurationBasis) -> np.ndarray:
    """The product of the factors' vectors, one per group, in the program's
    basis order: each vector is a tensor over its group's axes of ``basis.shape``."""
    M = basis.num_qubits
    tensor, axes = np.ones(()), []
    for column, group in zip(columns, groups):
        own = group + [M + s for s, q in enumerate(basis.readout) if q in group]
        tensor = np.multiply.outer(tensor, column.reshape([basis.shape[a] for a in own]))
        axes += own
    return np.transpose(tensor, np.argsort(axes)).ravel()


def solve_program(program: Program, k: int, vectors: bool = True) -> tuple[SpectralResult, float]:
    """The k lowest levels of the program's H, as ``solve_spectrum`` gives
    them, and H's energy scale (its largest diagonal entry).  The program is
    validated first, so an invalid one raises ProgramError before any split.

    Untipped, a group of qubits that no two-body gate links to the rest
    (``qubit_groups``) adds a Kronecker summand: H = A (x) I + I (x) B, whose
    levels are exactly the sums a_i + b_j, so E0 is the sum of the factors'
    ground levels, the ground cluster is the product of theirs, and the gap
    is the smallest factor gap.  With two groups or more, each group's
    program (``restrict``) is assembled and solved for its min(k, dim)
    lowest levels, and the k lowest sums are judged by ``eigensolve._union``
    with scale the sum of the factors' scales, which is H's: every diagonal
    entry is nonnegative and the basis is a product.  With ``vectors`` the
    ground cluster's columns are the products of the factors' columns; a
    cluster member that needs a factor level outside that factor's own
    cluster (possible only within CLUSTER_TOL of the scale) has none, so
    then the whole H is solved.  A factor that cannot resolve its own ground
    cluster raises TruncatedClusterError naming its own scale's cluster
    width, the resolution its solve had.  The program's basis, and with it the
    dimension cap, comes before any product vector.  Tipping scales the final-row operators of
    several qubits at once, S H S with S = (x) s_q, which is no Kronecker
    sum, so a tipped program, like a single group, is solved whole.
    """
    validate_program(program)
    groups = qubit_groups(program)
    if program.beta == 1.0 and len(groups) > 1:
        Hs = [assemble(restrict(program, group))[1] for group in groups]
        parts = [solve_spectrum(H, min(k, H.dim)) for H in Hs]
        sums, combos = np.zeros(1), np.zeros((1, 0), dtype=np.int64)
        for part in parts:  # the k lowest sums, and which factor levels make each
            size = part.eigenvalues.size
            total = (sums[:, None] + part.eigenvalues[None, :]).ravel()
            keep = np.argsort(total, kind="stable")[:k]
            sums, combos = total[keep], np.column_stack([combos[keep // size], keep % size])
        scale = sum(_scale(H) for H in Hs)
        result = _union(math.prod(H.dim for H in Hs), k, scale, [(None, sums, None)])
        cluster = combos[:result.ground_manifold_dim]
        if np.all(cluster < [part.ground_manifold_dim for part in parts]):
            ground = None
            if vectors:
                basis = enumerate_basis(program)  # the cap, before any product vector
                ground = np.column_stack([_kron_into_basis(
                    [part.eigenvectors[:, i] for part, i in zip(parts, member)], groups, basis)
                    for member in cluster])
            return replace(result, eigenvectors=ground, factors=len(parts),
                           lu_solves=sum(part.lu_solves for part in parts),
                           factorizations=sum(part.factorizations for part in parts),
                           blocks_skipped=sum(part.blocks_skipped for part in parts)), scale
    _, H = assemble(program)
    return solve_spectrum(H, k), _scale(H)


@dataclass
class RunResult:
    """Solved program: logical output, diagnostics, detection report."""

    logical_state: np.ndarray  # 2^M amplitudes at row N, normalized
    residual: float
    ground_energy: float
    energy_scale: float  # H's largest |diagonal entry|, the unit of its tolerances
    gap: float | None
    detection: DetectionReport
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


def run_program(program: Program) -> RunResult:
    """Solve for the ground state (``solve_program``), verify development, read output.

    Requires every input pinned so the ground state is unique.  Without
    readout particles, two lowest levels within the cluster width of each
    other raise ``eigensolve._union``'s TruncatedClusterError unchanged, a
    SolverError naming that width: the ground level is degenerate, or its
    gap is below what the solve resolves.  With readout particles, a
    degenerate ground level or a ground energy above FACTOR_ENERGY_TOL *
    scale means the output does not factor, and raises
    NonFactoringOutputError before the development check.
    """
    validate_program(program)
    if program.pinned_qubits() != set(range(program.num_qubits)):
        raise ProgramError("run_program requires every qubit input pinned")
    try:
        result, scale = solve_program(program, k=2)
    except TruncatedClusterError as exc:
        if not program.readout:
            raise
        raise NonFactoringOutputError(
            "the ground level is degenerate, so the pinned program's ground state "
            "is not unique; with readout particles this means its output does "
            "not factor") from exc
    if program.readout and result.ground_energy > FACTOR_ENERGY_TOL * scale:
        raise NonFactoringOutputError(
            f"combined ground energy {result.ground_energy:.3e} above "
            f"{FACTOR_ENERGY_TOL * scale:g}: the output does not factor")
    basis = enumerate_basis(program)
    psi = result.ground_vector()
    residual = verify_development(psi, program, basis)
    if residual > RUN_RESIDUAL_TOL:
        raise ConsistencyError(
            f"development residual {residual:.3e} above {RUN_RESIDUAL_TOL:g}")
    block = basis.row_block(psi, program.num_steps)
    if basis.readout:
        # leading factor of the (qubit, readout) block; exact when the
        # combined ground state factorizes
        u, _s, _vh = np.linalg.svd(block)
        logical = u[:, 0]
    else:
        logical = block[:, 0]
    logical = logical / np.linalg.norm(logical)
    report = build_report(psi, basis, program)
    return RunResult(logical_state=logical, residual=residual,
                     ground_energy=result.ground_energy, energy_scale=scale,
                     gap=result.gap, detection=report, ground_state=psi, basis=basis)


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
