"""Analytic gap bounds and empirical scaling fits."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundViolationError
from .eigensolve import solve_tipped_levels
from .program import Program, validate_program


def chain_gap(N: int, eps: float = 1.0) -> float:
    """Exact gap of a gate-free qubit: 2*eps*(1 - cos(pi/(N+1))), evaluated as
    4*eps*sin^2(pi/(2(N+1))), which keeps full relative accuracy at large N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return 4.0 * eps * np.sin(np.pi / (2.0 * (N + 1))) ** 2


def upper_bound(program: Program) -> float:
    """Variational upper bound on the spectral gap, valid for the program as given.

    With two-body gates: min over gates of eps/(j (N - j + 1/beta^2)), the
    restricted-space first excited level (reduces to eps/(j(N-j+1)) untipped).
    Gate-free programs return the single-qubit chain gap at beta: the exact
    gap when no qubit is pinned, since the qubits' chains are independent.
    A pin keeps the pinned column's chain, whose two lowest levels are 0 and
    this value, and lifts the other column's chain from 0 to a level below
    it, so pinned the value is an upper bound, not the gap: M=1, N=8 pinned
    has gap 0.0273 against 0.1206.
    """
    validate_program(program)
    N, eps, beta = program.num_steps, program.epsilon, program.beta
    gates = [g for g in program.gates if g.kind in ("cnot", "cid")]
    if not gates:
        if beta == 1.0:
            return chain_gap(N, eps)
        return float(solve_tipped_levels(N, eps, beta)[2])
    return min(eps / (g.row * (N - g.row + 1.0 / beta ** 2)) for g in gates)


@dataclass
class ScalingFit:
    exponent: float
    constant: float
    max_residual: float


def scaling_fit(samples) -> ScalingFit:
    """Least-squares fit gap ~ constant * (N+1)^exponent from (N, gap) pairs."""
    samples = list(samples)
    if len(samples) < 4:
        raise ValueError(f"need at least 4 samples, got {len(samples)}")
    gaps = np.array([g for _, g in samples], dtype=float)
    if np.any(gaps <= 0):
        raise ValueError("all gaps must be positive")
    x = np.log(np.array([n + 1.0 for n, _ in samples]))
    y = np.log(gaps)
    slope, intercept = np.polyfit(x, y, 1)
    resid = np.max(np.abs(y - (slope * x + intercept)))
    return ScalingFit(exponent=float(slope), constant=float(np.exp(intercept)),
                      max_residual=float(resid))


@dataclass
class GapBounds:
    """Bound report for one program instance."""

    gap: float
    upper: float
    alpha_empirical: float      # gap * (N+1)^4, the lower-bound-form constant
    epsilon: float              # the program's energy scale, which sets the slack's floor

    def satisfied(self) -> bool:
        return 0.0 <= self.gap <= self.upper * (1.0 + 1e-12) + 1e-12 * self.epsilon


def check_bounds(program: Program, gap: float) -> GapBounds:
    """Assert gap <= variational upper bound; record the empirical alpha constant.

    A violated upper bound signals a broken gate-term construction and raises
    BoundViolationError.
    """
    if gap < 0:
        raise ValueError(f"gap must be >= 0, got {gap!r}")
    ub = upper_bound(program)
    N = program.num_steps
    bounds = GapBounds(gap=gap, upper=ub, alpha_empirical=gap * (N + 1) ** 4,
                       epsilon=program.epsilon)
    if not bounds.satisfied():
        raise BoundViolationError(
            f"measured gap {gap:.6e} exceeds variational upper bound {ub:.6e} "
            f"(N={N}, gates={[(g.kind, g.row) for g in program.gates if g.kind != 'single']})")
    return bounds
