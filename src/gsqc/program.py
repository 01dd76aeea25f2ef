"""Program model: gate list, input pins, tipping, readout flags, JSON I/O.

A program describes M qubits developing through N steps.  Each step row
1..N of each qubit carries either a single-qubit unitary, participation in
one two-body gate (CNOT or CID), or an implicit identity.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ProgramError

UNITARITY_TOL = 1e-12

_PROGRAM_KEYS = {"qubits", "steps", "epsilon", "gates", "pins", "tip_beta", "readout",
                 "readout_strength"}
_GATE_KEYS_SINGLE = {"kind", "row", "qubit", "matrix"}
_GATE_KEYS_TWOBODY = {"kind", "row", "control", "target"}
_PIN_KEYS = {"qubit", "bit", "lambda"}


@dataclass
class GateSpec:
    """One gate: ``single`` with a 2x2 unitary, or ``cnot``/``cid`` control-target."""

    kind: str
    row: int
    qubit: int | None = None
    matrix: np.ndarray | None = None
    control: int | None = None
    target: int | None = None

    def qubits(self) -> tuple[int, ...]:
        if self.kind == "single":
            return (self.qubit,)
        return (self.control, self.target)


@dataclass
class Pin:
    """Input selection: energy penalty on the complementary row-0 site.

    ``strength`` of None means the program's energy scale epsilon.
    """

    qubit: int
    bit: int
    strength: float | None = None


@dataclass
class Program:
    num_qubits: int
    num_steps: int
    epsilon: float = 1.0
    gates: list[GateSpec] = field(default_factory=list)
    input_pins: list[Pin] = field(default_factory=list)
    tip_beta: float | None = None
    readout: list[int] = field(default_factory=list)
    readout_strength: float | None = None  # defaults to epsilon at assembly

    @property
    def beta(self) -> float:
        return 1.0 if self.tip_beta is None else float(self.tip_beta)

    def two_body_slots(self) -> dict[tuple[int, int], GateSpec]:
        """Map (qubit, row) -> owning two-body gate."""
        slots = {}
        for g in self.gates:
            if g.kind in ("cnot", "cid"):
                slots[(g.control, g.row)] = g
                slots[(g.target, g.row)] = g
        return slots

    def pinned_qubits(self) -> set[int]:
        return {p.qubit for p in self.input_pins}


def gate_single(row: int, qubit: int, matrix) -> GateSpec:
    return GateSpec(kind="single", row=row, qubit=qubit, matrix=np.asarray(matrix))


def gate_cnot(row: int, control: int, target: int) -> GateSpec:
    return GateSpec(kind="cnot", row=row, control=control, target=target)


def gate_cid(row: int, control: int, target: int) -> GateSpec:
    return GateSpec(kind="cid", row=row, control=control, target=target)


def check_unitary(matrix, where: str = "gate matrix") -> np.ndarray:
    """The 2x2 unitary ``matrix`` as an array; ProgramError if it is not one.

    A complex matrix with zero imaginary part comes back real, which keeps
    the assembled Hamiltonian real.  NaN, infinite and huge entries fail the check.
    """
    try:
        U = np.asarray(matrix, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProgramError(f"{where} must hold numbers: {exc}") from exc
    if U.shape != (2, 2):
        raise ProgramError(f"{where} must be 2x2, got shape {U.shape}")
    # a unitary's entries lie in the unit disc; checking that first keeps
    # NaN, infinite and huge entries out of the product
    if not (np.max(np.abs(U)) <= 1.0 + UNITARITY_TOL
            and np.max(np.abs(U.conj().T @ U - np.eye(2))) <= UNITARITY_TOL):
        raise ProgramError(f"{where} is not unitary to {UNITARITY_TOL:g}")
    return U.real if np.max(np.abs(U.imag)) == 0.0 else U


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_index(x, size: int) -> bool:
    return _is_int(x) and 0 <= x < size


def _is_positive(x) -> bool:
    """A finite number above zero; bools, strings, NaN and ints past float range are not."""
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
        return False
    try:
        return 0.0 < float(x) < math.inf
    except OverflowError:
        return False


def validate_program(program: Program) -> dict[tuple[int, int], np.ndarray]:
    """Raise ProgramError on any violated invariant.

    Returns each single-qubit gate's matrix as ``check_unitary`` gives it,
    keyed by (qubit, row).
    """
    M, N = program.num_qubits, program.num_steps
    if not _is_int(M) or M < 1:
        raise ProgramError(f"qubits must be a positive integer, got {M!r}")
    if not _is_int(N) or N < 1:
        raise ProgramError(f"steps must be a positive integer, got {N!r}")
    if not _is_positive(program.epsilon):
        raise ProgramError(f"epsilon must be a finite number > 0, got {program.epsilon!r}")
    if program.tip_beta is not None and not (_is_positive(program.tip_beta)
                                             and program.tip_beta <= 1.0):
        raise ProgramError(f"tip_beta must lie in (0, 1], got {program.tip_beta!r}")
    if program.readout_strength is not None and not _is_positive(program.readout_strength):
        raise ProgramError(f"readout strength must be a finite number > 0, "
                           f"got {program.readout_strength!r}")

    occupied: dict[tuple[int, int], GateSpec] = {}
    singles = {}
    for g in program.gates:
        if g.kind not in ("single", "cnot", "cid"):
            raise ProgramError(f"unknown gate kind {g.kind!r}")
        if not (_is_int(g.row) and 1 <= g.row <= N):
            raise ProgramError(f"gate row {g.row!r} outside 1..{N}")
        if g.kind == "single":
            if not _is_index(g.qubit, M):
                raise ProgramError(f"single gate qubit {g.qubit!r} outside 0..{M - 1}")
            singles[(g.qubit, g.row)] = check_unitary(
                g.matrix, f"gate matrix at (qubit {g.qubit}, row {g.row})")
        else:
            if not _is_index(g.control, M):
                raise ProgramError(f"{g.kind} control {g.control!r} outside 0..{M - 1}")
            if not _is_index(g.target, M):
                raise ProgramError(f"{g.kind} target {g.target!r} outside 0..{M - 1}")
            if g.control == g.target:
                raise ProgramError(f"{g.kind} control and target must differ (row {g.row})")
        for q in g.qubits():
            slot = (q, g.row)
            if slot in occupied:
                raise ProgramError(f"slot conflict: qubit {q}, row {g.row} hosts two gates")
            occupied[slot] = g

    pinned = set()
    for p in program.input_pins:
        if not _is_index(p.qubit, M):
            raise ProgramError(f"pin qubit {p.qubit!r} outside 0..{M - 1}")
        if not _is_int(p.bit) or p.bit not in (0, 1):
            raise ProgramError(f"pin bit must be 0 or 1, got {p.bit!r}")
        if p.strength is not None and not _is_positive(p.strength):
            raise ProgramError(f"pin strength must be a finite number > 0, got {p.strength!r}")
        if p.qubit in pinned:
            raise ProgramError(f"qubit {p.qubit} pinned twice")
        pinned.add(p.qubit)

    seen = set()
    for q in program.readout:
        if not _is_index(q, M):
            raise ProgramError(f"readout qubit {q!r} outside 0..{M - 1}")
        if q in seen:
            raise ProgramError(f"readout qubit {q} listed twice")
        seen.add(q)
    return singles


def _matrix_from_json(obj, where: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProgramError(f"{where}: matrix entries must be numbers: {exc}") from exc
    if arr.shape != (2, 2, 2):
        raise ProgramError(f"{where}: matrix must be a 2x2 array of [re, im] pairs")
    if not np.all(np.isfinite(arr)):
        raise ProgramError(f"{where}: matrix entries must be finite")
    return arr[..., 0] + 1j * arr[..., 1]


def _matrix_to_json(U: np.ndarray) -> list:
    U = np.asarray(U, dtype=complex)
    return [[[float(U[r, c].real), float(U[r, c].imag)] for c in range(2)] for r in range(2)]


def program_from_dict(doc: dict) -> Program:
    """Build and validate a Program from the JSON document schema.

    Unknown fields are rejected, naming the offending field.
    """
    if not isinstance(doc, dict):
        raise ProgramError("program document must be a JSON object")
    unknown = set(doc) - _PROGRAM_KEYS
    if unknown:
        raise ProgramError(f"unknown program field {sorted(unknown)[0]!r}")
    for key in ("qubits", "steps"):
        if key not in doc:
            raise ProgramError(f"missing required field {key!r}")

    for key in ("gates", "pins", "readout"):
        if not isinstance(doc.get(key, []), list):
            raise ProgramError(f"{key!r} must be a list, got {doc[key]!r}")

    gates = []
    for i, g in enumerate(doc.get("gates", [])):
        if not isinstance(g, dict):
            raise ProgramError(f"gates[{i}] must be an object")
        kind = g.get("kind")
        allowed = _GATE_KEYS_SINGLE if kind == "single" else _GATE_KEYS_TWOBODY
        unknown = set(g) - allowed
        if unknown:
            raise ProgramError(f"gates[{i}]: unknown field {sorted(unknown)[0]!r}")
        if kind == "single":
            if "matrix" not in g or "qubit" not in g:
                raise ProgramError(f"gates[{i}]: single gate needs 'qubit' and 'matrix'")
            gates.append(GateSpec(kind="single", row=g.get("row", 0), qubit=g["qubit"],
                                  matrix=_matrix_from_json(g["matrix"], f"gates[{i}]")))
        elif kind in ("cnot", "cid"):
            gates.append(GateSpec(kind=kind, row=g.get("row", 0),
                                  control=g.get("control"), target=g.get("target")))
        else:
            raise ProgramError(f"gates[{i}]: unknown gate kind {kind!r}")

    pins = []
    for i, p in enumerate(doc.get("pins", [])):
        if not isinstance(p, dict):
            raise ProgramError(f"pins[{i}] must be an object")
        unknown = set(p) - _PIN_KEYS
        if unknown:
            raise ProgramError(f"pins[{i}]: unknown field {sorted(unknown)[0]!r}")
        pins.append(Pin(qubit=p.get("qubit"), bit=p.get("bit"), strength=p.get("lambda")))

    program = Program(
        num_qubits=doc["qubits"],
        num_steps=doc["steps"],
        epsilon=doc.get("epsilon", 1.0),
        gates=gates,
        input_pins=pins,
        tip_beta=doc.get("tip_beta"),
        readout=list(doc.get("readout", [])),
        readout_strength=doc.get("readout_strength"),
    )
    validate_program(program)
    program.epsilon = float(program.epsilon)  # only now: float("abc") raises a bare ValueError
    return program


def program_to_dict(program: Program) -> dict:
    doc = {
        "qubits": program.num_qubits,
        "steps": program.num_steps,
        "epsilon": program.epsilon,
        "gates": [],
        "pins": [{"qubit": p.qubit, "bit": p.bit, **({"lambda": p.strength} if p.strength is not None else {})}
                 for p in program.input_pins],
        "readout": list(program.readout),
    }
    if program.tip_beta is not None:
        doc["tip_beta"] = program.tip_beta
    if program.readout_strength is not None:
        doc["readout_strength"] = program.readout_strength
    for g in program.gates:
        if g.kind == "single":
            doc["gates"].append({"kind": "single", "row": g.row, "qubit": g.qubit,
                                 "matrix": _matrix_to_json(g.matrix)})
        else:
            doc["gates"].append({"kind": g.kind, "row": g.row,
                                 "control": g.control, "target": g.target})
    return doc


def load_program(path) -> Program:
    """Read, parse, and validate a program JSON file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ProgramError(f"cannot read program file: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer too long to parse
        raise ProgramError(f"malformed JSON in program file: {exc}") from exc
    return program_from_dict(doc)


def pin_all(program: Program, bits) -> Program:
    """Copy of the program with every qubit pinned to the given input bits."""
    bits = [int(b) for b in bits]
    if len(bits) != program.num_qubits:
        raise ProgramError(f"need {program.num_qubits} input bits, got {len(bits)}")
    pins = [Pin(qubit=q, bit=b) for q, b in enumerate(bits)]
    return replace(program, input_pins=pins)
