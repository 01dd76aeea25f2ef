"""Sparse Hermitian operators stored as canonical upper-triangle coordinates."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


class SparseHermitian:
    """Hermitian operator; only the upper triangle (row <= col) is stored.

    Entries handed to the constructor may lie in either triangle: lower
    entries are conjugate-mirrored before canonicalization, duplicates are
    summed, and coordinates end up sorted by (row, col).  The full matrix is
    materialized lazily for products.
    """

    __slots__ = ("dim", "rows", "cols", "vals", "_csr")

    def __init__(self, dim: int, rows=None, cols=None, vals=None):
        self.dim = int(dim)
        if rows is None:
            rows = np.empty(0, dtype=np.int64)
            cols = np.empty(0, dtype=np.int64)
            vals = np.empty(0, dtype=np.float64)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("rows, cols, vals must have matching shapes")
        swap = rows > cols
        if np.any(swap):
            rows, cols = np.where(swap, cols, rows), np.where(swap, rows, cols)
            vals = np.where(swap, np.conj(vals), vals)
        coo = sp.coo_matrix((vals, (rows, cols)), shape=(self.dim, self.dim))
        coo.sum_duplicates()
        vals = coo.data
        if np.iscomplexobj(vals):
            diag = coo.row == coo.col
            if vals.size and np.max(np.abs(vals[diag].imag), initial=0.0) > 1e-12:
                raise ValueError("diagonal entries must be real")
            if vals.size == 0 or np.max(np.abs(vals.imag), initial=0.0) == 0.0:
                vals = vals.real.copy()
        self.rows = coo.row.astype(np.int64)
        self.cols = coo.col.astype(np.int64)
        self.vals = np.ascontiguousarray(vals)
        self._csr = None

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "SparseHermitian") -> "SparseHermitian":
        if not isinstance(other, SparseHermitian):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return SparseHermitian(
            self.dim,
            np.concatenate([self.rows, other.rows]),
            np.concatenate([self.cols, other.cols]),
            np.concatenate([self.vals.astype(np.result_type(self.vals, other.vals)),
                            other.vals.astype(np.result_type(self.vals, other.vals))]),
        )

    def __mul__(self, scalar) -> "SparseHermitian":
        return SparseHermitian(self.dim, self.rows, self.cols, self.vals * scalar)

    __rmul__ = __mul__

    def compressed(self, drop_tol: float) -> "SparseHermitian":
        """Drop entries with magnitude <= drop_tol (keeps sparsity canonical)."""
        keep = np.abs(self.vals) > drop_tol
        return SparseHermitian(self.dim, self.rows[keep], self.cols[keep], self.vals[keep])

    def scaled_congruence(self, scale: np.ndarray) -> "SparseHermitian":
        """diag(scale) @ H @ diag(scale) for a real positive vector scale."""
        scale = np.asarray(scale, dtype=float)
        if scale.shape != (self.dim,):
            raise ValueError(f"scale must have shape ({self.dim},)")
        return SparseHermitian(self.dim, self.rows, self.cols,
                               self.vals * scale[self.rows] * scale[self.cols])

    # -- materialization -----------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    @property
    def is_complex(self) -> bool:
        return bool(np.iscomplexobj(self.vals))

    def to_csr(self) -> sp.csr_matrix:
        """Full (mirrored) matrix as CSR; cached."""
        if self._csr is None:
            upper = sp.coo_matrix((self.vals, (self.rows, self.cols)),
                                  shape=(self.dim, self.dim))
            strict = self.rows < self.cols
            lower = sp.coo_matrix((np.conj(self.vals[strict]),
                                   (self.cols[strict], self.rows[strict])),
                                  shape=(self.dim, self.dim))
            self._csr = (upper + lower).tocsr()
        return self._csr

    def toarray(self) -> np.ndarray:
        return self.to_csr().toarray()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.to_csr() @ x

    def diagonal(self) -> np.ndarray:
        diag = np.zeros(self.dim, dtype=self.vals.dtype)
        on = self.rows == self.cols
        diag[self.rows[on]] = self.vals[on]
        return np.real(diag) if self.is_complex else diag

    # -- text dump (golden files) ---------------------------------------------

    def dump(self) -> str:
        """Coordinate text: dimension line then 'row col value' per upper entry.

        Complex operators emit 'row col re im'.  Rows are already sorted.
        """
        lines = [str(self.dim)]
        if self.is_complex:
            for r, c, v in zip(self.rows, self.cols, self.vals):
                lines.append(f"{r} {c} {v.real!r} {v.imag!r}")
        else:
            for r, c, v in zip(self.rows, self.cols, self.vals):
                lines.append(f"{r} {c} {float(v)!r}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        kind = "complex" if self.is_complex else "real"
        return f"SparseHermitian(dim={self.dim}, nnz={self.nnz}, {kind})"


@dataclass
class TermSet:
    """Labeled Hamiltonian addends over one basis; their sum is the operator.

    ``beta`` is the tipping factor: the operator is S (sum of terms) S with
    S = diag(beta^w), w the number of qubits on the final row.
    """

    basis: object
    terms: list[tuple[str, SparseHermitian]] = field(default_factory=list)
    beta: float = 1.0

    def add(self, label: str, op: SparseHermitian) -> None:
        if op.dim != self.basis.dim:
            raise ValueError(f"term {label!r} has dim {op.dim}, basis has {self.basis.dim}")
        self.terms.append((label, op))

    def total(self, drop_tol: float = 0.0) -> SparseHermitian:
        """Sum every term in one canonicalization, tip the sum, drop tiny entries."""
        # the leading empty operator keeps a set without terms valid
        ops = [SparseHermitian(self.basis.dim)] + [op for _, op in self.terms]
        out = SparseHermitian(self.basis.dim,
                              np.concatenate([op.rows for op in ops]),
                              np.concatenate([op.cols for op in ops]),
                              np.concatenate([op.vals for op in ops]))
        if self.beta != 1.0:
            out = out.scaled_congruence(self.beta ** self.basis.final_row_weight().astype(float))
        if drop_tol > 0.0:
            out = out.compressed(drop_tol)
        return out
