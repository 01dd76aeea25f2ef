"""Configuration basis: one particle per qubit chain, optional readout particles.

Each qubit lives on (N+1) rows x 2 columns of sites; a configuration places
every qubit on one site and every readout particle on one of two positions.
Basis order is lexicographic: qubit index major, then row, then column, with
readout bits last, so emitted matrices are bit-reproducible across runs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasisSizeError, ProgramError
from .program import Program

DEFAULT_DIM_CAP = 2 ** 26


@dataclass(frozen=True)
class Configuration:
    """(row, column) per qubit plus one position bit per readout particle."""

    qubit_sites: tuple[tuple[int, int], ...]
    readout_bits: tuple[int, ...] = ()


class ConfigurationBasis:
    """Deterministic index map over the (2(N+1))^M * 2^R dimensional space."""

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
        R = len(self.readout)
        # stride of each qubit digit / readout bit in the packed index
        self._qubit_stride = [
            2 ** R * self.site_count ** (self.num_qubits - 1 - q) for q in range(self.num_qubits)
        ]
        self._readout_stride = [2 ** (R - 1 - k) for k in range(R)]

    def qubit_stride(self, q: int) -> int:
        """Index stride of qubit q's site digit."""
        return self._qubit_stride[q]

    # -- scalar index map ---------------------------------------------------

    def config_index(self, config: Configuration) -> int:
        if len(config.qubit_sites) != self.num_qubits:
            raise ValueError(f"configuration has {len(config.qubit_sites)} qubits, basis has {self.num_qubits}")
        if len(config.readout_bits) != len(self.readout):
            raise ValueError(f"configuration has {len(config.readout_bits)} readout bits, basis has {len(self.readout)}")
        idx = 0
        for q, (row, col) in enumerate(config.qubit_sites):
            if not (0 <= row <= self.num_steps) or col not in (0, 1):
                raise ValueError(f"invalid site (row={row}, col={col}) for qubit {q}")
            idx += (2 * row + col) * self._qubit_stride[q]
        for k, bit in enumerate(config.readout_bits):
            if bit not in (0, 1):
                raise ValueError(f"invalid readout bit {bit!r}")
            idx += bit * self._readout_stride[k]
        return idx

    def index_config(self, index: int) -> Configuration:
        if not (0 <= index < self.dim):
            raise ValueError(f"index {index} outside 0..{self.dim - 1}")
        sites = []
        for q in range(self.num_qubits):
            s = (index // self._qubit_stride[q]) % self.site_count
            sites.append((s // 2, s % 2))
        bits = tuple((index >> (len(self.readout) - 1 - k)) & 1 for k in range(len(self.readout)))
        return Configuration(qubit_sites=tuple(sites), readout_bits=bits)

    # -- vectorized helpers -------------------------------------------------

    def indices_where(self, qubit_sites: dict | None = None, readout_bits: dict | None = None) -> np.ndarray:
        """All basis indices consistent with the given digit constraints, ascending.

        qubit_sites maps qubit -> site or list of sites (site = 2*row + col);
        readout_bits maps readout slot -> bit.
        """
        qubit_sites = qubit_sites or {}
        readout_bits = readout_bits or {}
        idx = np.zeros(1, dtype=np.int64)
        for q in range(self.num_qubits):
            if q in qubit_sites:
                vals = np.atleast_1d(np.asarray(qubit_sites[q], dtype=np.int64))
            else:
                vals = np.arange(self.site_count, dtype=np.int64)
            idx = (idx[:, None] * self.site_count + vals[None, :]).ravel()
        for k in range(len(self.readout)):
            if k in readout_bits:
                vals = np.atleast_1d(np.asarray(readout_bits[k], dtype=np.int64))
            else:
                vals = np.arange(2, dtype=np.int64)
            idx = (idx[:, None] * 2 + vals[None, :]).ravel()
        return idx

    def qubit_site_array(self, q: int) -> np.ndarray:
        """Site digit of qubit q for every basis index."""
        return (np.arange(self.dim, dtype=np.int64) // self._qubit_stride[q]) % self.site_count

    def qubit_row_array(self, q: int) -> np.ndarray:
        return self.qubit_site_array(q) // 2

    def readout_bit_array(self, k: int) -> np.ndarray:
        return (np.arange(self.dim, dtype=np.int64) // self._readout_stride[k]) % 2

    def final_row_weight(self) -> np.ndarray:
        """Per index: number of qubits sitting on the final row N."""
        w = np.zeros(self.dim, dtype=np.int64)
        for q in range(self.num_qubits):
            w += self.qubit_row_array(q) == self.num_steps
        return w

    def row_block_indices(self, j: int) -> np.ndarray:
        """Indices of configurations with every qubit at row j.

        Shape (2^M, 2^R): first axis runs over column patterns (qubit 0 most
        significant), second over readout positions.
        """
        if not (0 <= j <= self.num_steps):
            raise ValueError(f"row {j} outside 0..{self.num_steps}")
        M, R = self.num_qubits, len(self.readout)
        base = sum(2 * j * s for s in self._qubit_stride)
        cols = np.arange(2 ** M, dtype=np.int64)
        offs = np.zeros(2 ** M, dtype=np.int64)
        for q in range(M):
            offs += ((cols >> (M - 1 - q)) & 1) * self._qubit_stride[q]
        bits = np.arange(2 ** R, dtype=np.int64)
        return base + offs[:, None] + bits[None, :]

    def __repr__(self):
        return (f"ConfigurationBasis(M={self.num_qubits}, N={self.num_steps}, "
                f"R={len(self.readout)}, dim={self.dim})")


def enumerate_basis(program: Program, max_dim: int = DEFAULT_DIM_CAP) -> ConfigurationBasis:
    """Basis of the program's Hilbert space; raises BasisSizeError above the cap."""
    return ConfigurationBasis(program.num_qubits, program.num_steps,
                              readout=program.readout, max_dim=max_dim)
