"""Exception hierarchy shared across the package."""


class GsqcError(Exception):
    """Base class for all package errors."""


class ProgramError(GsqcError, ValueError):
    """Invalid program description (bad field, slot conflict, non-unitary gate, ...).

    Also a ValueError, so callers that catch ValueError from a term builder
    (say, for a non-unitary gate matrix) still catch it.
    """


class BasisSizeError(ProgramError):
    """Requested Hilbert-space dimension exceeds the configured cap."""


class SolverError(GsqcError):
    """Eigensolver failure unrelated to convergence (bracketing, dispatch, ...)."""


class TruncatedClusterError(SolverError):
    """The lowest cluster fills every requested value and may extend beyond them."""


class ConvergenceError(SolverError):
    """Iterative eigensolver did not converge or missed the residual bar."""


class ConsistencyError(GsqcError):
    """Solved ground state fails the development-equation residual check."""


class IndeterminateInputError(ConsistencyError):
    """Ground state carries no weight on the input block; residual undefined."""


class NonFactoringOutputError(ProgramError):
    """Readout scheme rejected: the program's final state does not factor.

    A ProgramError: the readout scheme cannot run such a program (exit code 2).
    """


class BoundViolationError(GsqcError):
    """Measured gap exceeds the variational upper bound (broken gate term)."""
