"""Metamorphic properties: changes to a program that must leave H the same up to
a known map, checked entry for entry."""
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from gsqc.basis import enumerate_basis
from gsqc.detection import attach_readout
from gsqc.hamiltonian import assemble
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
