import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsqc.basis import ConfigurationBasis, enumerate_basis
from gsqc.errors import BasisSizeError
from gsqc.hamiltonian import pin_term
from gsqc.program import Program

# The layout contract: the basis order is the C order of
# basis.shape = (2(N+1),) * M + (2,) * R, qubit axes first (qubit 0 most
# significant), site = 2*row + col on each qubit axis, readout bits last.


def _digits(basis):
    """Per axis of basis.shape: the digit of every basis index."""
    return np.unravel_index(np.arange(basis.dim), basis.shape)


def test_dimension_examples():
    assert ConfigurationBasis(1, 1).dim == 4
    assert ConfigurationBasis(2, 3).dim == 64
    assert ConfigurationBasis(2, 3, readout=(0, 1)).dim == 256


def test_dimension_by_explicit_enumeration():
    basis = ConfigurationBasis(2, 3, readout=(0, 1))
    sites = [2 * row + col for row in range(4) for col in range(2)]
    seen = [int(i) for s0, s1, b0, b1 in itertools.product(sites, sites, (0, 1), (0, 1))
            for i in basis.indices_where({0: s0, 1: s1}, {0: b0, 1: b1})]
    assert seen == list(range(256))


def test_index_examples():
    b = ConfigurationBasis(1, 1)
    assert b.shape == (4,)
    assert b.indices_where({0: 0}).tolist() == [0]  # row 0, column 0
    assert b.indices_where({0: 3}).tolist() == [3]  # row 1, column 1
    b2 = ConfigurationBasis(2, 1)
    assert b2.indices_where({0: 0, 1: 3}).tolist() == [3]
    assert b2.indices_where({1: 3}).tolist() == [3, 7, 11, 15]
    b3 = ConfigurationBasis(2, 1, readout=(1,))
    assert b3.shape == (4, 4, 2)
    assert b3.indices_where({0: 1, 1: 2}, {0: 1}).tolist() == [8 + 4 + 1]


@pytest.mark.parametrize("M", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_roundtrip_exhaustive(M, N):
    for R in (0, M):
        basis = ConfigurationBasis(M, N, readout=tuple(range(R)))
        assert basis.shape == (2 * (N + 1),) * M + (2,) * R
        assert basis.dim == math.prod(basis.shape) == (2 * (N + 1)) ** M * 2 ** R
        digits = _digits(basis)
        for q in range(M):
            unit = [0] * (M + R)
            unit[q] = 1
            assert basis.qubit_stride(q) == np.ravel_multi_index(unit, basis.shape)
            for site in range(basis.site_count):
                assert np.array_equal(basis.indices_where({q: site}),
                                      np.flatnonzero(digits[q] == site))
        for k in range(R):
            for bit in (0, 1):
                assert np.array_equal(basis.indices_where(readout_bits={k: bit}),
                                      np.flatnonzero(digits[M + k] == bit))
        # every index, decoded, is the one index of its fully fixed constraint set
        for i in range(0, basis.dim, 7):
            config = [int(d[i]) for d in digits]
            fixed = basis.indices_where(dict(enumerate(config[:M])),
                                        dict(enumerate(config[M:])))
            assert fixed.tolist() == [i]


def test_dimension_formula_all_readout_counts():
    for M in (1, 2, 3):
        for R in range(M + 1):
            basis = ConfigurationBasis(M, 3, readout=tuple(range(R)))
            assert basis.dim == 8 ** M * 2 ** R


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_roundtrip_random(data):
    M = data.draw(st.integers(1, 3))
    N = data.draw(st.integers(1, 6))
    R = data.draw(st.integers(0, M))
    basis = ConfigurationBasis(M, N, readout=tuple(range(R)))
    allowed = []  # per axis: the ascending values allowed, None for unconstrained
    for size in basis.shape:
        values = data.draw(st.none() | st.sets(st.integers(0, size - 1), min_size=1))
        allowed.append(None if values is None else sorted(values))
    sites = {q: v for q, v in enumerate(allowed[:M]) if v is not None}
    bits = {k: v for k, v in enumerate(allowed[M:]) if v is not None}
    keep = np.ones(basis.dim, dtype=bool)
    for digit, values in zip(_digits(basis), allowed):
        if values is not None:
            keep &= np.isin(digit, values)
    assert np.array_equal(basis.indices_where(sites, bits), np.flatnonzero(keep))


def test_dimension_cap():
    with pytest.raises(BasisSizeError):
        ConfigurationBasis(2, 3, max_dim=32)
    assert ConfigurationBasis(2, 3, max_dim=64).dim == 64
    with pytest.raises(BasisSizeError):
        enumerate_basis(Program(num_qubits=6, num_steps=12))
    with pytest.raises(BasisSizeError, match="exceeds cap"):
        ConfigurationBasis(10 ** 6, 8)  # stops at the cap, builds no huge shape


def test_invalid_lookups():
    basis = ConfigurationBasis(2, 2)
    with pytest.raises(ValueError, match="basis dimension"):
        basis.tensor(np.zeros(basis.dim + 1))
    with pytest.raises(ValueError, match="basis dimension"):
        basis.row_block(np.zeros((basis.dim, 1)), 0)
    for j in (-1, 3):
        with pytest.raises(ValueError, match="outside"):
            basis.row_block(np.zeros(basis.dim), j)


def test_indices_where_checks_its_axes():
    basis = ConfigurationBasis(2, 2, readout=(1,))
    for qubit_sites, readout_bits, match in (({7: 0}, None, "qubit 7"),
                                             ({-1: 0}, None, "qubit -1"),
                                             ({0: 6}, None, "qubit 0"),
                                             ({1: [0, 2, 6]}, None, "qubit 1"),
                                             ({0: -1}, None, "qubit 0"),
                                             (None, {3: 1}, "readout slot 3"),
                                             (None, {0: 2}, "readout slot 0")):
        with pytest.raises(ValueError, match=match):
            basis.indices_where(qubit_sites, readout_bits)
    # the public term builders pass their qubit through
    with pytest.raises(ValueError, match="qubit 7"):
        pin_term(ConfigurationBasis(2, 2), 7, 0, 1.0)
    # the largest value on every axis still lands on the last index
    assert basis.indices_where({0: 5, 1: [5]}, {0: 1}).tolist() == [basis.dim - 1]
    assert basis.indices_where({0: []}).size == 0


def test_row_block_index_ordering():
    basis = ConfigurationBasis(2, 2, readout=(0,))
    psi = np.arange(basis.dim)
    for j in range(3):
        block = basis.row_block(psi, j)
        assert block.shape == (4, 2)
        # column patterns ordered with qubit 0 most significant, readout bit last
        for pattern, bit in itertools.product(range(4), range(2)):
            site0, site1, b = np.unravel_index(block[pattern, bit], basis.shape)
            assert (site0, site1, b) == (2 * j + (pattern >> 1), 2 * j + (pattern & 1), bit)
    assert basis.row_block(psi, 1)[2, 1] == np.ravel_multi_index((3, 2, 1), basis.shape)


def test_tensor_axes_follow_the_layout():
    basis = ConfigurationBasis(2, 3, readout=(1,))
    psi = np.arange(basis.dim)
    tensor = basis.tensor(psi)
    assert tensor.shape == (8, 8, 2) and np.shares_memory(tensor, psi)
    for index in itertools.product(*map(range, basis.shape)):
        assert tensor[index] == np.ravel_multi_index(index, basis.shape)
    assert basis.tensor(list(psi)).shape == basis.shape


def test_final_row_weight():
    for basis in (ConfigurationBasis(2, 2), ConfigurationBasis(3, 1, readout=(2, 0))):
        w = basis.final_row_weight()
        digits = _digits(basis)
        want = sum(digits[q] // 2 == basis.num_steps for q in range(basis.num_qubits))
        assert w.dtype == np.int64 and np.array_equal(w, want)
    basis = ConfigurationBasis(2, 2)
    w = basis.final_row_weight()
    assert np.all(basis.row_block(w, 2) == 2)
    assert int(w.max()) == 2
    assert np.sum(w == 2) == 4
