"""Exception types shared across the package. Each class carries as
``exit_code`` the exit status the command line reports for it: 2 for a
parse error, 3 for a ``DomainError``, 4 for any other failure."""


class QcorrError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 4


class DomainError(QcorrError):
    """An argument lies outside the domain or range of the computation."""

    exit_code = 3


class InvalidMatrix(DomainError):
    """Matrix carrier is malformed (wrong shape, non-finite entries)."""


class NotHermitian(DomainError):
    """Hermiticity tolerance (1e-10 entrywise) violated."""


class NotPSD(DomainError):
    """An eigenvalue fell below the -1e-10 clamp threshold."""


class ConvergenceFailure(QcorrError):
    """Eigenvalue iteration failed to converge."""


class DimensionMismatch(DomainError):
    """Operand dimensions are incompatible."""


class OutOfRange(DomainError):
    """Numeric argument outside its documented range."""


class InvalidDensityMatrix(DomainError):
    """Matrix is not Hermitian, positive semidefinite and unit trace."""


class RankTooSmall(DomainError):
    """Requested ensemble cardinality is below the state's rank."""


class BadPartition(DomainError):
    """A partition is not m integer group labels, or no group carries weight."""


class ConfigInvalid(DomainError):
    """Optimizer configuration fails validation."""


class MapNotUnital(QcorrError):
    """Map expected to be unital but alpha(1) != 1."""


class WellDefinednessFailure(QcorrError):
    """Intertwiner data is inconsistent, signalling a non-positive map."""


class ParseError(QcorrError):
    """JSON input could not be interpreted; message names the field."""

    exit_code = 2
