"""Sparse Hermitian operators stored as canonical upper-triangle coordinates."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


class SparseHermitian:
    """Hermitian operator; only the upper triangle (row <= col) is stored.

    Entries handed to the constructor may lie in either triangle: lower
    entries are conjugate-mirrored, duplicates are summed in input order, and
    coordinates end up strictly increasing in (row, col), the canonical form
    that ``dump`` and the block split read.  They are sorted on the int64 key
    row * dim + col, so ``dim`` must keep dim^2 - 1 within int64.  The full
    matrix is materialized lazily for products.
    """

    __slots__ = ("dim", "rows", "cols", "vals", "_csr")

    def __init__(self, dim: int, rows=(), cols=(), vals=()):
        self.dim = int(dim)
        if self.dim * self.dim > 2 ** 63:  # int64 arithmetic would wrap without a warning
            raise ValueError(f"dimension {self.dim} too large for an int64 sort key")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals)
        if not (rows.ndim == 1 and rows.shape == cols.shape == vals.shape):
            raise ValueError("rows, cols, vals must be 1-d with matching shapes")
        swap = rows > cols
        if np.any(swap):
            rows, cols = np.where(swap, cols, rows), np.where(swap, rows, cols)
            vals = np.where(swap, np.conj(vals), vals)
        if vals.size:
            if rows.min() < 0 or cols.max() >= self.dim:
                raise ValueError(f"coordinates must lie in 0..{self.dim - 1}")
            # row-major order; the sort is stable, so each run of equal
            # coordinates is summed in input order
            key = rows * self.dim + cols
            order = np.argsort(key, kind="stable")
            del key
            rows, cols, vals = rows[order], cols[order], vals[order]
            del order  # caps the peak at three full-size copies
            first = np.ones(vals.size, dtype=bool)
            first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            starts = np.flatnonzero(first)
            vals = np.add.reduceat(vals, starts, dtype=vals.dtype)
            rows = rows[starts]
            cols = cols[starts]
        if np.iscomplexobj(vals):
            if np.max(np.abs(vals[rows == cols].imag), initial=0.0) > 1e-12:
                raise ValueError("diagonal entries must be real")
            if np.max(np.abs(vals.imag), initial=0.0) == 0.0:
                vals = vals.real.copy()
        self.rows, self.cols, self.vals = rows, cols, vals
        self._csr = None

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

    # -- text dump (golden files) ---------------------------------------------

    def dump(self) -> str:
        """Coordinate text: dimension line then 'row col value' per upper entry.

        Complex operators emit 'row col re im'.  Entries are in canonical order.
        """
        lines = [str(self.dim)]
        if self.is_complex:
            for r, c, v in zip(self.rows, self.cols, self.vals):
                lines.append(f"{r} {c} {float(v.real)!r} {float(v.imag)!r}")
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

    Each term is its raw (rows, cols, vals) coordinates, so ``total`` is the
    one place they are canonicalized.  ``beta`` is the tipping factor: the
    operator is S (sum of terms) S with S = diag(beta^w), w the number of
    qubits on the final row.
    """

    basis: object
    terms: list[tuple[str, tuple]] = field(default_factory=list)
    beta: float = 1.0

    def add(self, label: str, term: tuple) -> None:
        self.terms.append((label, term))

    def total(self, drop_tol: float = 0.0) -> SparseHermitian:
        """Sum every term in one canonicalization, tip the sum, drop tiny entries.

        Tipping and the drop act on the canonical sum's arrays; one more build,
        only when they changed them, demotes the result to real when only real
        entries survive.
        """
        # the leading empty piece keeps a set without terms valid
        pieces = [(np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),)]
        pieces += [term for _, term in self.terms]
        out = SparseHermitian(self.basis.dim, *map(np.concatenate, zip(*pieces)))
        rows, cols, vals = out.rows, out.cols, out.vals
        changed = self.beta != 1.0
        if changed:
            scale = self.beta ** self.basis.final_row_weight().astype(float)
            vals = vals * scale[rows] * scale[cols]
        if drop_tol > 0.0:
            keep = np.abs(vals) > drop_tol
            if not keep.all():
                rows, cols, vals = rows[keep], cols[keep], vals[keep]
                changed = True
        return SparseHermitian(self.basis.dim, rows, cols, vals) if changed else out
