"""Metamorphic properties: changes to a program that must leave H the same up to
a known map, checked entry for entry."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsqc.basis import enumerate_basis
from gsqc.detection import attach_readout
from gsqc.eigensolve import _scale, dense_spectrum
from gsqc.hamiltonian import assemble
from gsqc.program import gate_single
from gsqc.semantics import random_program


def relabel(program, perm):
    """The program with qubit q renamed perm[q]: gates, pins and the readout
    list follow their qubits, and the readout list keeps its order."""
    new = {q: int(p) for q, p in enumerate(perm)}
    gates = [replace(g, qubit=new.get(g.qubit), control=new.get(g.control),
                     target=new.get(g.target)) for g in program.gates]
    return replace(program, gates=gates,
                   input_pins=[replace(p, qubit=new[p.qubit]) for p in program.input_pins],
                   readout=[new[q] for q in program.readout])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       pool=st.sampled_from(["orthogonal", "unitary", "permutation"]),
       kind=st.sampled_from(["cnot", "cid"]), pinned=st.booleans(), readout=st.booleans(),
       beta=st.sampled_from([None, None, None, 0.6]))
def test_relabeling_qubits_permutes_the_basis_axes(seed, pool, kind, pinned, readout, beta):
    rng = np.random.default_rng(seed)
    prog = random_program(rng, max_qubits=3, max_steps=4, max_two_body=4, gate_pool=pool,
                          two_body_kind=kind, pin=pinned)
    prog = replace(prog, tip_beta=beta)
    if readout:
        prog = attach_readout(prog, rng.permutation(prog.num_qubits)[:rng.integers(1, 3)])
    perm = rng.permutation(prog.num_qubits)
    shape = enumerate_basis(prog).shape
    # axis perm[q] of the relabeled basis is axis q of the program's; the
    # readout axes keep their places
    axes = list(np.argsort(perm)) + list(range(prog.num_qubits, len(shape)))
    old = np.transpose(np.arange(np.prod(shape)).reshape(shape), axes).ravel()
    want = assemble(prog)[1].to_csr()[old][:, old]
    got = assemble(relabel(prog, perm))[1].to_csr()
    want.sort_indices()
    got.sort_indices()
    assert got.dtype == want.dtype
    for a, b in ((got.indptr, want.indptr), (got.indices, want.indices), (got.data, want.data)):
        assert np.array_equal(a, b)


def assert_same_operator(got, want):
    assert got.vals.dtype == want.vals.dtype
    for a, b in ((got.rows, want.rows), (got.cols, want.cols), (got.vals, want.vals)):
        assert np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), pinned=st.booleans(), readout=st.booleans(),
       tipped=st.booleans(), eps=st.sampled_from([1e-6, 2.7, 1e6]))
def test_energy_scale_multiplies_h(seed, pinned, readout, tipped, eps):
    # pin and readout strengths left to default to epsilon
    rng = np.random.default_rng(seed)
    prog = random_program(rng, max_qubits=3, max_steps=4, gate_pool="unitary", pin=pinned)
    prog = replace(prog, tip_beta=0.6 if tipped else None)
    if readout:
        prog = attach_readout(prog)
    one = assemble(prog)[1]
    scaled = assemble(replace(prog, epsilon=eps))[1]
    assert np.array_equal(scaled.rows, one.rows) and np.array_equal(scaled.cols, one.cols)
    assert np.all(np.abs(scaled.vals - eps * one.vals) <= 1e-15 * np.abs(eps * one.vals))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), pinned=st.booleans(), tipped=st.booleans())
def test_explicit_identity_gate_is_no_gate(seed, pinned, tipped):
    rng = np.random.default_rng(seed)
    prog = random_program(rng, max_qubits=3, max_steps=4, gate_pool="unitary", pin=pinned)
    prog = replace(prog, tip_beta=0.6 if tipped else None)
    taken = {(q, g.row) for g in prog.gates for q in g.qubits()}
    free = [(q, row) for q in range(prog.num_qubits) for row in range(1, prog.num_steps + 1)
            if (q, row) not in taken]
    if not free:
        return
    q, row = free[rng.integers(len(free))]
    explicit = replace(prog, gates=[*prog.gates, gate_single(row, q, np.eye(2))])
    assert_same_operator(assemble(explicit)[1], assemble(prog)[1])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), pinned=st.booleans(), tipped=st.booleans(),
       phi=st.floats(0.1, 2 * np.pi - 0.1))
def test_global_phase_on_a_gate_keeps_the_spectrum(seed, pinned, tipped, phi):
    # M <= 3 and N <= 3: every H has dimension at most 512
    rng = np.random.default_rng(seed)
    prog = random_program(rng, max_qubits=3, max_steps=3, gate_pool="unitary", pin=pinned,
                          single_rate=0.6)
    prog = replace(prog, tip_beta=0.6 if tipped else None)
    singles = [i for i, g in enumerate(prog.gates) if g.kind == "single"]
    if not singles:
        return
    i = singles[rng.integers(len(singles))]
    gates = list(prog.gates)
    gates[i] = replace(gates[i], matrix=np.exp(1j * phi) * gates[i].matrix)
    H = assemble(prog)[1]
    want = np.linalg.eigvalsh(H.toarray())
    got = np.linalg.eigvalsh(assemble(replace(prog, gates=gates))[1].toarray())
    assert np.max(np.abs(got - want)) <= 1e-13 * _scale(H)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), pinned=st.booleans(),
       beta=st.sampled_from([None, None, 0.6]))
def test_cnot_and_cid_of_one_layout_share_manifold_and_gap(seed, pinned, beta):
    rng = np.random.default_rng(seed)
    prog = random_program(rng, max_qubits=3, max_steps=3, max_two_body=4,
                          two_body_kind="cnot", pin=pinned)
    prog = replace(prog, tip_beta=beta)
    if not any(g.kind == "cnot" for g in prog.gates):
        return
    cid = replace(prog, gates=[replace(g, kind="cid") if g.kind == "cnot" else g
                               for g in prog.gates])
    H = assemble(prog)[1]
    want = dense_spectrum(H, vectors=False)
    got = dense_spectrum(assemble(cid)[1], vectors=False)
    assert got.ground_manifold_dim == want.ground_manifold_dim
    assert abs(got.ground_energy - want.ground_energy) <= 1e-12 * _scale(H)
    assert got.gap == pytest.approx(want.gap, rel=1e-10)
