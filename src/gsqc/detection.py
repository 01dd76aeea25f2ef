"""Detection schemes: final-row probabilities, tipping, readout particles, CID chains."""
from __future__ import annotations

from dataclasses import dataclass, replace, asdict

import numpy as np

from .basis import ConfigurationBasis
from .errors import NonFactoringOutputError
from .program import Program, validate_program

READOUT_OCC_LO = 0.1
READOUT_OCC_HI = 0.9
FACTOR_ENERGY_TOL = 1e-8


def choose_beta(M: int, N: int) -> float:
    """Tipping factor 1/sqrt(M N): gate-free detection probability approaches 1/e."""
    if M < 1 or N < 1:
        raise ValueError("M and N must be >= 1")
    return 1.0 / np.sqrt(M * N)


def predicted_gate_free(M: int, N: int, beta: float) -> float:
    """Exact non-interacting all-at-final-row probability (1 + beta^2 N)^-M."""
    return float((1.0 + beta * beta * N) ** (-M))


def _check_state(psi, basis: ConfigurationBasis) -> np.ndarray:
    psi = np.asarray(psi)
    if psi.shape != (basis.dim,):
        raise ValueError(f"state has shape {psi.shape}, basis dimension is {basis.dim}")
    return psi


def detection_probability(psi, basis: ConfigurationBasis) -> float:
    """Probability that every qubit sits on the final row (readouts marginalized)."""
    psi = _check_state(psi, basis)
    block = psi[basis.row_block_indices(basis.num_steps)]
    return float(np.sum(np.abs(block) ** 2) / np.sum(np.abs(psi) ** 2))


def per_qubit_final_probabilities(psi, basis: ConfigurationBasis) -> np.ndarray:
    psi = _check_state(psi, basis)
    weights = np.abs(psi) ** 2
    weights /= weights.sum()
    return np.array([float(weights[basis.qubit_row_array(q) == basis.num_steps].sum())
                     for q in range(basis.num_qubits)])


def readout_occupations(psi, basis: ConfigurationBasis) -> list[tuple[float, float]]:
    """Per readout particle: probability of sitting in column 0 and column 1."""
    psi = _check_state(psi, basis)
    weights = np.abs(psi) ** 2
    weights /= weights.sum()
    out = []
    for k in range(len(basis.readout)):
        bits = basis.readout_bit_array(k)
        p1 = float(weights[bits == 1].sum())
        out.append((1.0 - p1, p1))
    return out


def attach_readout(program: Program, qubits=None, strength: float | None = None) -> Program:
    """Program copy with readout particles after the final stage of the given qubits.

    Default: one readout per qubit.  The repulsion strength defaults to the
    program's energy scale; the scheme's outcome is strength-independent for
    factoring outputs.
    """
    if strength is not None and strength <= 0:
        raise ValueError(f"readout strength must be > 0, got {strength!r}")
    qubits = list(range(program.num_qubits)) if qubits is None else list(qubits)
    if not qubits:
        raise ValueError("readout qubit list is empty")
    new = replace(program, readout=qubits, readout_strength=strength)
    validate_program(new)
    return new


def infer_output_from_readout(psi, basis: ConfigurationBasis, ground_energy: float) -> str:
    """Output bitstring from readout positions: bit = column opposite the particle.

    Valid only when the program's final state factors, which is equivalent to
    the combined ground energy sitting at zero: readout particles carry no
    hopping, so the Hamiltonian is block diagonal over their positions and a
    frustrated (non-factoring) output shows up as strictly positive ground
    energy, possibly with collapsed per-branch occupations.  Both signatures
    raise NonFactoringOutputError.
    """
    psi = _check_state(psi, basis)
    if sorted(basis.readout) != list(range(basis.num_qubits)):
        raise ValueError("readout inference needs a readout particle on every qubit")
    if ground_energy > FACTOR_ENERGY_TOL:
        raise NonFactoringOutputError(
            f"combined ground energy {ground_energy:.3e} above {FACTOR_ENERGY_TOL:g}: "
            "final state does not factor")
    bits = {}
    for k, (p0, _p1) in enumerate(readout_occupations(psi, basis)):
        if READOUT_OCC_LO < p0 < READOUT_OCC_HI:
            raise NonFactoringOutputError(
                f"readout particle {k} occupation {p0:.3f} inside "
                f"({READOUT_OCC_LO}, {READOUT_OCC_HI}): final state does not factor")
        bits[basis.readout[k]] = 1 if p0 >= READOUT_OCC_HI else 0
    return "".join(str(bits[q]) for q in range(basis.num_qubits))


@dataclass
class CidSyncResult:
    conditional: float          # P(every qubit past its last gate row | last qubit at N)
    p_all_final: float          # strict all-at-row-N probability
    p_last_final: float
    sync_rows: tuple[int, ...]  # per qubit: its last two-body gate row (N if none)


def cid_sync_check(psi, basis: ConfigurationBasis, program: Program) -> CidSyncResult:
    """Synchronization conditional for chained controlled-identity programs.

    Each qubit's final region starts at the row of the last two-body gate it
    participates in (row N for gate-free qubits).  For a chain in which qubit
    k controls qubit k+1's entry into the final stages, the conditional is
    exactly 1 in the ground manifold.
    """
    psi = _check_state(psi, basis)
    M, N = basis.num_qubits, basis.num_steps
    # per-qubit last gate row, defaulting to N for qubits with no two-body gate
    last = {q: [] for q in range(M)}
    for g in program.gates:
        if g.kind in ("cnot", "cid"):
            last[g.control].append(g.row)
            last[g.target].append(g.row)
    sync_rows = tuple(max(rows) if rows else N for q, rows in sorted(last.items()))

    weights = np.abs(psi) ** 2
    weights /= weights.sum()
    rows = [basis.qubit_row_array(q) for q in range(M)]
    last_mask = rows[M - 1] == N
    sync_mask = last_mask.copy()
    for q in range(M):
        sync_mask &= rows[q] >= sync_rows[q]
    p_last = float(weights[last_mask].sum())
    p_sync = float(weights[sync_mask].sum())
    if p_last <= 0.0:
        raise ValueError("last qubit has zero final-row probability")
    return CidSyncResult(conditional=p_sync / p_last,
                         p_all_final=detection_probability(psi, basis),
                         p_last_final=p_last,
                         sync_rows=sync_rows)


@dataclass
class DetectionReport:
    """Measured and predicted detection quantities for one solved state."""

    p_all_final: float
    per_qubit_final: list[float]
    beta: float
    predicted_gate_free: float
    expected_attempts: float
    readout_occupations: list[tuple[float, float]]
    cid_conditional: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def build_report(psi, basis: ConfigurationBasis, program: Program) -> DetectionReport:
    p_all = detection_probability(psi, basis)
    beta = program.beta
    has_cid = any(g.kind == "cid" for g in program.gates)
    conditional = cid_sync_check(psi, basis, program).conditional if has_cid else None
    return DetectionReport(
        p_all_final=p_all,
        per_qubit_final=[float(p) for p in per_qubit_final_probabilities(psi, basis)],
        beta=beta,
        predicted_gate_free=predicted_gate_free(basis.num_qubits, basis.num_steps, beta),
        expected_attempts=float("inf") if p_all == 0 else 1.0 / p_all,
        readout_occupations=readout_occupations(psi, basis),
        cid_conditional=conditional,
    )
