import math

import numpy as np
import pytest

from gsqc.basis import ConfigurationBasis
from gsqc.sparse import SparseHermitian, TermSet


def test_lower_entries_mirrored_and_summed():
    # same entry fed once as upper, once as lower
    op = SparseHermitian(3, rows=[0, 2], cols=[2, 0], vals=[1.0, 1.0])
    assert op.nnz == 1
    assert op.vals[0] == 2.0
    dense = op.toarray()
    assert dense[0, 2] == 2.0 and dense[2, 0] == 2.0


def test_complex_mirroring_conjugates():
    op = SparseHermitian(2, rows=[1], cols=[0], vals=[1.0 + 2.0j])
    dense = op.toarray()
    assert dense[0, 1] == 1.0 - 2.0j
    assert dense[1, 0] == 1.0 + 2.0j
    assert np.max(np.abs(dense - dense.conj().T)) == 0.0


def test_complex_diagonal_must_be_real():
    with pytest.raises(ValueError, match="diagonal"):
        SparseHermitian(2, rows=[0], cols=[0], vals=[1.0j])


def test_real_demotion_when_imag_vanishes():
    op = SparseHermitian(2, rows=[0], cols=[1], vals=np.array([1.0 + 0.0j]))
    assert not op.is_complex


def test_addition_and_drop():
    ts = TermSet(ConfigurationBasis(1, 1))
    ts.add("a", ([0], [1], [1.0]))
    ts.add("b", ([1], [0], [-1.0 + 1e-16]))
    assert ts.total().nnz == 1
    assert ts.total(drop_tol=1e-14).nnz == 0


def test_total_is_real_when_only_real_entries_survive_the_drop():
    ts = TermSet(ConfigurationBasis(1, 1), beta=0.5)
    ts.add("a", ([0], [1], [1.0]))
    ts.add("b", ([0], [2], [1e-16j]))
    assert ts.total().is_complex
    total = ts.total(drop_tol=1e-14)
    assert not total.is_complex and total.vals.tolist() == [1.0]


def test_scaled_congruence_matches_dense():
    rng = np.random.default_rng(3)
    basis = ConfigurationBasis(2, 1)
    n = basis.dim
    dense = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    dense = dense + dense.conj().T
    iu = np.triu_indices(n)
    ts = TermSet(basis, beta=0.6)
    ts.add("h", (iu[0], iu[1], dense[iu]))
    s = 0.6 ** basis.final_row_weight()
    assert np.unique(s).size == 3
    got = ts.total().toarray()
    want = np.diag(s) @ dense @ np.diag(s)
    assert np.allclose(got, want, atol=1e-14)


def test_dump_format():
    op = SparseHermitian(3, rows=[0, 1], cols=[1, 1], vals=[-0.5, 2.0])
    assert op.dump() == "3\n0 1 -0.5\n1 1 2.0\n"


def test_matvec_and_diagonal():
    op = SparseHermitian(3, rows=[0, 0, 1], cols=[0, 2, 1], vals=[2.0, -1.0, 3.0])
    x = np.array([1.0, 1.0, 1.0])
    assert np.allclose(op.to_csr() @ x, [1.0, 3.0, -1.0])
    assert np.array_equal(np.diagonal(op.toarray()), [2.0, 3.0, 0.0])


def test_shuffled_input_is_canonical_and_matches_dense():
    # dyadic values sum exactly in any order, so the oracle comparison is exact
    rng = np.random.default_rng(5)
    n, count = 7, 80
    rows = rng.integers(0, n, count)
    cols = rng.integers(0, n, count)
    vals = rng.integers(-8, 9, count) / 4 + 1j * rng.integers(-8, 9, count) / 8
    vals[rows == cols] = vals[rows == cols].real
    dense = np.zeros((n, n), dtype=complex)
    np.add.at(dense, (rows, cols), vals)
    off = rows != cols
    np.add.at(dense, (cols[off], rows[off]), vals[off].conj())
    assert np.any(rows > cols) and np.unique(np.minimum(rows, cols) * n
                                              + np.maximum(rows, cols)).size < count
    ops = []
    for _ in range(3):
        order = rng.permutation(count)
        op = SparseHermitian(n, rows[order], cols[order], vals[order])
        key = op.rows * n + op.cols
        assert np.all(op.rows <= op.cols) and np.all(np.diff(key) > 0)
        assert op.is_complex and np.array_equal(op.toarray(), dense)
        ops.append(op)
    for op in ops[1:]:
        for name in ("rows", "cols", "vals"):
            assert np.array_equal(getattr(op, name), getattr(ops[0], name))


def test_duplicates_are_summed_in_input_order():
    # two interleaved runs of duplicates whose float sums depend on their
    # order: (0, 1) given in both triangles, and the diagonal entry (1, 1)
    rng = np.random.default_rng(9)
    vals = rng.standard_normal(40) * 10.0 ** rng.integers(-8, 9, 40)
    rows = np.tile([0, 1, 1, 1], 10)
    cols = np.tile([1, 1, 0, 1], 10)
    op = SparseHermitian(2, rows, cols, vals)
    assert op.rows.tolist() == [0, 1] and op.cols.tolist() == [1, 1]
    for i, run in enumerate((vals[0::2], vals[1::2])):
        assert op.vals[i] == np.add.reduceat(run, [0])[0]
        assert any(op.vals[i] != np.add.reduceat(rng.permutation(run), [0])[0]
                   for _ in range(10))


@pytest.mark.parametrize("rows, cols", [([-1], [0]), ([0], [-2]), ([0], [3]), ([3], [1]),
                                        ([0, 1], [1, 5])])
def test_coordinates_outside_dimension_rejected(rows, cols):
    with pytest.raises(ValueError, match="coordinates"):
        SparseHermitian(3, rows=rows, cols=cols, vals=np.ones(len(rows)))


def test_dimension_whose_sort_key_overflows_int64_rejected():
    # entries sort on row * dim + col, whose largest value dim^2 - 1 must fit int64;
    # numpy wraps int64 products without a warning
    top = math.isqrt(2 ** 63)
    corner = SparseHermitian(top, rows=[top - 1, 0, top - 1], cols=[top - 1, top - 1, 0],
                             vals=[1.0, 2.0, 0.5])
    assert corner.rows.tolist() == [0, top - 1] and corner.cols.tolist() == [top - 1, top - 1]
    assert corner.vals.tolist() == [2.5, 1.0]
    for dim in (top + 1, 2 ** 32):
        with pytest.raises(ValueError, match="int64"):
            SparseHermitian(dim)


def test_termset_sum():
    basis = ConfigurationBasis(1, 1)
    ts = TermSet(basis)
    ts.add("a", ([0], [0], [1.0]))
    ts.add("b", ([0], [1], [0.5]))
    total = ts.total()
    assert total.toarray()[0, 0] == 1.0 and total.toarray()[1, 0] == 0.5


def test_termset_total_builds_do_not_grow_with_term_count(monkeypatch):
    real_init = SparseHermitian.__init__
    builds = []

    def counted(self, *args, **kwargs):
        builds.append(1)
        real_init(self, *args, **kwargs)

    counts = []
    for n_terms in (2, 20):
        ts = TermSet(ConfigurationBasis(1, 1), beta=0.5)
        for i in range(n_terms):
            ts.add(f"t{i}", ([i % 4], [(i + 1) % 4], [1.0]))
        monkeypatch.setattr(SparseHermitian, "__init__", counted)
        builds.clear()
        ts.total(drop_tol=1e-14)
        monkeypatch.undo()
        counts.append(len(builds))
    assert counts[0] == counts[1]
