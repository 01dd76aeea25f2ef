"""Hamiltonian term builders and assembly.

Every term is positive semi-definite by construction.  The building block is
the bond operator eps*[n_{j-1} + n_j - (C^dag_j U C_{j-1} + h.c.)] tying two
adjacent rows of one qubit chain through a 2x2 unitary U; two-body gates
condition such bonds on the partner qubit and add a synchronization penalty.
A term is its raw (rows, cols, vals) coordinates, every entry in the upper
triangle; ``SparseHermitian(basis.dim, *term)`` is its operator, and
``assemble`` canonicalizes the program's whole sum once.
"""
from __future__ import annotations

import numpy as np

from .basis import ConfigurationBasis, enumerate_basis
from .program import Program, check_unitary, validate_program
from .sparse import SparseHermitian, TermSet

ENTRY_DROP_REL = 1e-14

_IDENTITY = np.eye(2)
_NOT = np.array([[0.0, 1.0], [1.0, 0.0]])
# target-bond unitary of a two-body gate, per control column (0, 1)
_BRANCH_UNITARIES = {"cnot": (_IDENTITY, _NOT), "cid": (_IDENTITY, _IDENTITY)}


def _diagonal(idx: np.ndarray, value, dtype=np.float64):
    """Coordinate piece putting ``value`` on the diagonal at idx."""
    return idx, idx, np.full(idx.size, value, dtype=dtype)


def _term(pieces) -> tuple:
    """One term's (rows, cols, vals) coordinates: its pieces, in piece order."""
    return tuple(map(np.concatenate, zip(*pieces)))


def _bond_entries(base: np.ndarray, stride: int, row: int, U: np.ndarray,
                  eps: float) -> tuple:
    """(rows, cols, vals) of the row (row-1 <-> row) bond on one qubit.

    ``base`` holds the configurations that meet the bond's condition with the
    qubit at site 0, and ``stride`` is the qubit's axis stride: each piece is
    the base shifted by a site offset, so the whole bond is one broadcast.
    """
    lo, hi = 2 * (row - 1), 2 * row
    # density part: +eps on the four sites of rows row-1 and row
    row_sites = [lo, lo + 1, hi, hi + 1]
    col_sites = list(row_sites)
    vals = [eps] * 4
    # hopping part: <to| H |from> = -eps * U[sigma, sigma'], stored as its
    # upper-triangle mirror <from| H |to> (to > from), conjugated in U's own
    # dtype so a real entry never carries a signed zero into a complex sum
    for s_from in range(2):
        for s_to in range(2):
            amp = U[s_to, s_from]
            if amp != 0:
                row_sites.append(lo + s_from)
                col_sites.append(hi + s_to)
                vals.append(np.conj(-eps * amp))

    def shifted(sites):
        return (np.array(sites, dtype=np.int64)[:, None] * stride + base).ravel()

    vals = np.array(vals, dtype=U.dtype if np.iscomplexobj(U) else np.float64)
    return shifted(row_sites), shifted(col_sites), np.repeat(vals, base.size)


def _bond(basis: ConfigurationBasis, qubit: int, row: int, U: np.ndarray, eps: float,
          condition: dict | None = None) -> tuple:
    """The bond on one qubit, optionally conditioned on fixed partner-qubit sites."""
    base = basis.indices_where({**(condition or {}), qubit: 0})
    return _bond_entries(base, basis.qubit_stride(qubit), row, U, eps)


def single_step_term(basis: ConfigurationBasis, qubit: int, row: int, matrix,
                     eps: float = 1.0) -> tuple:
    """One-qubit development term for the step row-1 -> row through ``matrix``.

    Annihilates states whose row-(row-1) and row-row amplitude pairs are
    related by the unitary; positive semi-definite.
    """
    if not (1 <= row <= basis.num_steps):
        raise ValueError(f"row {row} outside 1..{basis.num_steps}")
    U = check_unitary(matrix)
    return _bond(basis, qubit, row, U, eps)


def _two_body_term(basis: ConfigurationBasis, control: int, target: int, row: int,
                   eps: float, branch_unitaries) -> tuple:
    """Shared CNOT/CID structure.

    Three positive semi-definite pieces:
      * control bond (identity) gated on the target sitting at row-1,
      * target bond gated on the control column at row (unitary per branch),
      * penalty eps * n_{control, row-1} n_{target, row} forbidding the target
        from advancing past the gate while the control is behind it.
    """
    if not (1 <= row <= basis.num_steps):
        raise ValueError(f"row {row} outside 1..{basis.num_steps}")
    if control == target:
        raise ValueError("control and target must differ")
    lo, hi = 2 * (row - 1), 2 * row
    # control advances (identity) while the target waits at row-1
    pieces = [_bond(basis, control, row, _IDENTITY, eps, condition={target: lo + col_t})
              for col_t in range(2)]
    # target advances through the branch unitary selected by the control column
    pieces += [_bond(basis, target, row, U, eps, condition={control: hi + col_c})
               for col_c, U in enumerate(branch_unitaries)]
    # penalty: target at the gate row while the control is still at row-1
    pieces.append(_diagonal(basis.indices_where({control: [lo, lo + 1], target: [hi, hi + 1]}),
                            eps))
    return _term(pieces)


def cnot_term(basis: ConfigurationBasis, control: int, target: int, row: int,
              eps: float = 1.0) -> tuple:
    """Two-body controlled-NOT term at the given row."""
    return _two_body_term(basis, control, target, row, eps, _BRANCH_UNITARIES["cnot"])


def cid_term(basis: ConfigurationBasis, control: int, target: int, row: int,
             eps: float = 1.0) -> tuple:
    """Controlled-identity term: synchronization only, both branches identity."""
    return _two_body_term(basis, control, target, row, eps, _BRANCH_UNITARIES["cid"])


def _region_sites(lo_row: int, hi_row: int) -> list[int]:
    """All sites with lo_row <= row < hi_row (both columns)."""
    return [2 * r + c for r in range(lo_row, hi_row) for c in range(2)]


def chain_sync_terms(basis: ConfigurationBasis, gates, eps: float):
    """Extra synchronization terms for qubits participating in several gates.

    The boundary-local gate conditioning (which fixes the one-gate restricted
    spectrum) can go dormant when the conditioning qubit is isolated beyond
    one of its other gate bonds; each dormant pattern reopens a spurious zero
    mode.  These labeled addends re-enforce the affected development bond in
    exactly the sector where the paired gate is still pending, so they
    annihilate every development state and vanish entirely for programs with
    at most one gate per qubit.

    Yields (label, coordinates) pairs.
    """
    two_body = sorted([g for g in gates if g.kind in ("cnot", "cid")], key=lambda g: g.row)
    N = basis.num_steps
    for q in range(basis.num_qubits):
        mine = [g for g in two_body if q in (g.control, g.target)]
        for i, gE in enumerate(mine):
            for gL in mine[i + 1:]:
                jE, jL = gE.row, gL.row
                below_E = _region_sites(0, jE)
                # pending earlier gate: re-enforce q's later bond
                if q == gE.control:
                    partner = {gE.target: below_E}
                    if q == gL.control:
                        # identity crossing is development-exact only while the
                        # later gate's own target is still behind it
                        cond = dict(partner)
                        if gL.target != gE.target:
                            cond[gL.target] = _region_sites(0, jL)
                        term = _bond(basis, q, jL, _IDENTITY, eps, condition=cond)
                    else:
                        # q is the later gate's target: copy its conditional bond
                        term = _term([_bond(basis, q, jL, U, eps,
                                            condition={**partner, gL.control: 2 * jL + chi})
                                      for chi, U in enumerate(_BRANCH_UNITARIES[gL.kind])])
                else:
                    term = _bond(basis, q, jL, _IDENTITY, eps, condition={gE.control: below_E})
                yield (f"sync[q{q},j{jE}->j{jL}]", term)
                # advanced later gate: re-enforce q's earlier bond
                if q == gL.control:
                    at_or_above = _region_sites(jL, N + 1)
                    yield (f"sync[q{q},j{jL}<-j{jE}]",
                           _bond(basis, q, jE, _IDENTITY, eps, condition={gL.target: at_or_above}))
        # widened control-bond: a retargeted qubit can wait strictly below
        # row j-1, leaving the local conditioning without support
        for g in two_body:
            if q != g.target or g.row == 1:
                continue
            earlier = [g2 for g2 in mine if g2.row < g.row]
            if not earlier:
                continue
            strict_below = _region_sites(0, g.row - 1)
            yield (f"sync[wide,q{g.control},j{g.row}]",
                   _bond(basis, g.control, g.row, _IDENTITY, eps, condition={q: strict_below}))


def pin_term(basis: ConfigurationBasis, qubit: int, bit: int, strength: float) -> tuple:
    """Input pin: penalty on the complementary row-0 column of one qubit."""
    if strength <= 0:
        raise ValueError(f"pin strength must be > 0, got {strength!r}")
    if bit not in (0, 1):
        raise ValueError(f"pin bit must be 0 or 1, got {bit!r}")
    idx = basis.indices_where({qubit: 1 - bit})  # site 2*0 + (1-bit)
    return _diagonal(idx, strength)


def readout_term(basis: ConfigurationBasis, qubit: int, strength: float) -> tuple:
    """Density-density repulsion between a qubit's final row and its readout particle.

    V * sum_sigma n_{qubit, N, sigma} n_{readout(qubit), sigma}: in a zero-energy
    state the readout particle settles in the column opposite the qubit's output.
    """
    if strength <= 0:
        raise ValueError(f"readout strength must be > 0, got {strength!r}")
    if qubit not in basis.readout:
        raise ValueError(f"qubit {qubit} has no readout particle in this basis")
    slot = basis.readout.index(qubit)
    return _term([_diagonal(basis.indices_where({qubit: 2 * basis.num_steps + sigma},
                                                        {slot: sigma}), strength)
                         for sigma in range(2)])


def assemble(program: Program) -> tuple[TermSet, SparseHermitian]:
    """Build the full Hamiltonian of a program.

    Returns the labeled TermSet (each term's untipped coordinates, the
    program's tipping factor recorded) and the summed, tipped operator.  Rows without a gate
    get identity development bonds, so the sum always ties row 0 to row N
    on every qubit chain.
    """
    # each gate matrix checked and demoted once, here; the bonds skip single_step_term's check
    singles = validate_program(program)
    basis = enumerate_basis(program)
    eps = program.epsilon
    terms = TermSet(basis, beta=program.beta)

    owned = set(program.two_body_slots())
    for q in range(program.num_qubits):
        # every gate-free bond of the qubit shifts the same base
        base, stride = basis.indices_where({q: 0}), basis.qubit_stride(q)
        for i in range(1, program.num_steps + 1):
            if (q, i) in owned:
                continue
            U = singles.get((q, i), _IDENTITY)
            terms.add(f"h[q{q},i{i}]", _bond_entries(base, stride, i, U, eps))
    two_body = {"cnot": cnot_term, "cid": cid_term}
    for g in program.gates:
        if g.kind in two_body:
            terms.add(f"{g.kind}[j{g.row},c{g.control},t{g.target}]",
                      two_body[g.kind](basis, g.control, g.target, g.row, eps))
    for label, term in chain_sync_terms(basis, program.gates, eps):
        terms.add(label, term)
    for p in program.input_pins:
        strength = eps if p.strength is None else p.strength
        terms.add(f"pin[q{p.qubit}]", pin_term(basis, p.qubit, p.bit, strength))
    V = eps if program.readout_strength is None else program.readout_strength
    for q in program.readout:
        terms.add(f"readout[q{q}]", readout_term(basis, q, V))

    H = terms.total(drop_tol=ENTRY_DROP_REL * eps)
    return terms, H
