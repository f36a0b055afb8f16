"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: validation errors exit 2, runtime /
numerical failures exit 3, and plain IO errors (OSError, JSON decode
errors) exit 4.
"""


class RbmQstError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(RbmQstError, ValueError):
    """Bad inputs: shape/range/precondition violations."""


class DenseCapError(ValidationError):
    """A dense-matrix operation was requested above the DENSE_CAP qubit cap."""


class NumericalError(RbmQstError, RuntimeError):
    """Runtime numerical failure (non-convergence, overflow, ...)."""


class InfeasibleTargetsError(NumericalError):
    """Gibbs MaxEnt solve did not converge; targets presumed infeasible."""


class EstimationError(NumericalError):
    """A sampled estimator produced an unusable value (e.g. <SWAP> <= 0)."""
