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
    a = SparseHermitian(2, rows=[0], cols=[1], vals=[1.0])
    b = SparseHermitian(2, rows=[0], cols=[1], vals=[-1.0 + 1e-16])
    c = (a + b).compressed(1e-14)
    assert c.nnz == 0


def test_scaled_congruence_matches_dense():
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((5, 5))
    dense = dense + dense.T
    iu = np.triu_indices(5)
    op = SparseHermitian(5, rows=iu[0], cols=iu[1], vals=dense[iu])
    s = rng.uniform(0.5, 2.0, size=5)
    got = op.scaled_congruence(s).toarray()
    want = np.diag(s) @ dense @ np.diag(s)
    assert np.allclose(got, want, atol=1e-14)


def test_dump_format():
    op = SparseHermitian(3, rows=[0, 1], cols=[1, 1], vals=[-0.5, 2.0])
    assert op.dump() == "3\n0 1 -0.5\n1 1 2.0\n"


def test_matvec_and_diagonal():
    op = SparseHermitian(3, rows=[0, 0, 1], cols=[0, 2, 1], vals=[2.0, -1.0, 3.0])
    x = np.array([1.0, 1.0, 1.0])
    assert np.allclose(op.matvec(x), [1.0, 3.0, -1.0])
    assert np.allclose(op.diagonal(), [2.0, 3.0, 0.0])


def test_termset_sum_and_label_guard():
    basis = ConfigurationBasis(1, 1)
    ts = TermSet(basis)
    ts.add("a", SparseHermitian(4, rows=[0], cols=[0], vals=[1.0]))
    ts.add("b", SparseHermitian(4, rows=[0], cols=[1], vals=[0.5]))
    total = ts.total()
    assert total.toarray()[0, 0] == 1.0 and total.toarray()[1, 0] == 0.5
    with pytest.raises(ValueError):
        ts.add("bad", SparseHermitian(5))


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
            ts.add(f"t{i}", SparseHermitian(4, rows=[i % 4], cols=[(i + 1) % 4], vals=[1.0]))
        monkeypatch.setattr(SparseHermitian, "__init__", counted)
        builds.clear()
        ts.total(drop_tol=1e-14)
        monkeypatch.undo()
        counts.append(len(builds))
    assert counts[0] == counts[1]
