"""Configuration basis: one particle per qubit chain, optional readout particles.

Each qubit lives on (N+1) rows x 2 columns of sites, site = 2*row + column;
a configuration places every qubit on one site and every readout particle
on one of two positions.  The basis is a tensor shape,
``(2(N+1),) * M + (2,) * R``: one axis per qubit, qubit 0 first, then one
per readout particle in readout order, and the basis order is that shape's
C order.  A state reshaped to the shape (``tensor``) is indexed by
configuration, so every gather is a slice or an axis sum of that view, and
emitted matrices are bit-reproducible across runs.
"""
from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .errors import BasisSizeError, ProgramError
from .program import Program

DEFAULT_DIM_CAP = 2 ** 26


class ConfigurationBasis:
    """The (2(N+1))^M * 2^R dimensional configuration space, as a tensor shape."""

    def __init__(self, num_qubits: int, num_steps: int, readout=(), max_dim: int = DEFAULT_DIM_CAP):
        if num_qubits < 1 or num_steps < 1:
            raise ProgramError("basis needs at least one qubit and one step")
        self.num_qubits = int(num_qubits)
        self.num_steps = int(num_steps)
        self.readout = tuple(int(q) for q in readout)
        self.site_count = 2 * (self.num_steps + 1)
        # multiplied up one qubit at a time, so a huge qubit count stops at
        # the cap instead of building a huge integer
        dim = 2 ** len(self.readout)
        for _ in range(self.num_qubits):
            dim *= self.site_count
            if dim > max_dim:
                raise BasisSizeError(
                    f"basis dimension exceeds cap {max_dim} "
                    f"(M={num_qubits}, N={num_steps}, R={len(self.readout)})"
                )
        self.dim = int(dim)
        self.shape = (self.site_count,) * self.num_qubits + (2,) * len(self.readout)

    def qubit_stride(self, q: int) -> int:
        """Index stride of qubit q's site axis."""
        return math.prod(self.shape[q + 1:])

    def indices_where(self, qubit_sites: dict | None = None, readout_bits: dict | None = None) -> np.ndarray:
        """All basis indices consistent with the given axis constraints, in
        basis order when each list of allowed values is ascending.

        qubit_sites maps qubit -> site or list of sites (site = 2*row + col);
        readout_bits maps readout slot -> bit.  ValueError names a qubit
        outside 0..M-1, a readout slot outside 0..R-1, or a value outside
        its axis.
        """
        M, fixed = self.num_qubits, {}
        for name, first, count, constraints in (("qubit", 0, M, qubit_sites),
                                                ("readout slot", M, len(self.readout),
                                                 readout_bits)):
            for key, values in (constraints or {}).items():
                if not 0 <= key < count:
                    raise ValueError(f"{name} {key} outside 0..{count - 1}")
                values = np.atleast_1d(np.asarray(values, dtype=np.int64))
                size, listed = self.shape[first + key], values.tolist()
                if listed and not (0 <= min(listed) and max(listed) < size):
                    raise ValueError(f"{name} {key}: values {listed} outside 0..{size - 1}")
                fixed[first + key] = values
        idx = np.zeros(1, dtype=np.int64)
        for a, size in enumerate(self.shape):  # C order: each axis appended as a minor digit
            values = fixed[a] if a in fixed else np.arange(size, dtype=np.int64)
            idx = (idx[:, None] * size + values).ravel()
        return idx

    def tensor(self, psi) -> np.ndarray:
        """The state psi viewed with shape ``shape``; ValueError unless it has
        one amplitude per basis index."""
        psi = np.asarray(psi)
        if psi.shape != (self.dim,):
            raise ValueError(f"state has shape {psi.shape}, basis dimension is {self.dim}")
        return psi.reshape(self.shape)

    def row_block(self, psi, j: int) -> np.ndarray:
        """Amplitudes of the configurations with every qubit at row j.

        Shape (2^M, 2^R): first axis runs over column patterns (qubit 0 most
        significant), second over readout positions.
        """
        if not (0 <= j <= self.num_steps):
            raise ValueError(f"row {j} outside 0..{self.num_steps}")
        row = (slice(2 * j, 2 * j + 2),) * self.num_qubits
        return self.tensor(psi)[row].reshape(2 ** self.num_qubits, 2 ** len(self.readout))

    def final_row_weight(self) -> np.ndarray:
        """Per index: number of qubits sitting on the final row N."""
        on_final = (np.arange(self.site_count) >= 2 * self.num_steps).astype(np.int64)
        axes = [on_final] * self.num_qubits + [np.zeros(2, dtype=np.int64)] * len(self.readout)
        return reduce(np.add.outer, axes).ravel()

    def __repr__(self):
        return (f"ConfigurationBasis(M={self.num_qubits}, N={self.num_steps}, "
                f"R={len(self.readout)}, dim={self.dim})")


def enumerate_basis(program: Program) -> ConfigurationBasis:
    """Basis of the program's Hilbert space; raises BasisSizeError above the cap."""
    return ConfigurationBasis(program.num_qubits, program.num_steps, readout=program.readout)
