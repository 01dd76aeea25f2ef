"""gsqc: simulate computers whose ground state carries the whole computation.

Qubits live on (N+1)-row x 2-column site chains; a static positive
semi-definite Hamiltonian ties adjacent rows through gate unitaries so that
its zero-energy states encode the circuit's entire history.  The package
builds those operators, solves their low-lying spectra, checks the
development condition against a statevector oracle, evaluates gap bounds,
and implements the detection schemes (tipping, readout particles,
controlled-identity synchronization).
"""

from .basis import Configuration, ConfigurationBasis, enumerate_basis
from .bounds import GapBounds, ScalingFit, chain_gap, check_bounds, scaling_fit, upper_bound
from .detection import (CidSyncResult, DetectionReport, attach_readout, build_report,
                        choose_beta, cid_sync_check, detection_probability,
                        infer_output_from_readout, per_qubit_final_probabilities,
                        predicted_gate_free, readout_occupations)
from .eigensolve import (SpectralResult, analytic_levels, char_det, dense_spectrum,
                         low_lying, solve_spectrum, solve_tipped_levels)
from .errors import (BasisSizeError, BoundViolationError, ConsistencyError,
                     ConvergenceError, GsqcError, IndeterminateInputError,
                     NonFactoringOutputError, ProgramError, SolverError,
                     TruncatedClusterError)
from .hamiltonian import (apply_tipping, assemble, cid_term, cnot_term, pin_term,
                          readout_term, single_step_term)
from .program import (GateSpec, Pin, Program, gate_cid, gate_cnot, gate_single,
                      load_program, pin_all, program_from_dict, program_to_dict,
                      validate_program)
from .semantics import (RowProjection, RunResult, random_program, reference_circuit,
                        row_projection, run_program, step_unitary, verify_development)
from .sparse import SparseHermitian, TermSet

__version__ = "0.1.0"
