"""Exception types raised by the simulation."""


class SharqError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(SharqError):
    """Matrix shapes are incompatible for the requested operation."""


class NotSquareError(SharqError):
    """A square matrix was required."""


class QubitLimitExceededError(SharqError):
    """The requested size exceeds the configured or architectural qubit cap."""


class IndexOutOfRangeError(SharqError):
    """A qubit index is outside the register."""


class DuplicateIndexesError(SharqError):
    """Qubit indexes must be pairwise distinct."""


class ValueOutOfRangeError(SharqError):
    """A classical value does not fit in the target register."""


class NotClassicalStateError(SharqError):
    """The operation requires qubits in collapsed (basis) states."""


class SizeMismatchError(SharqError):
    """Operation targets do not fit the register they are applied to."""


class NotUnitaryOperationError(SharqError):
    """Only unitary (reversible) operations may be applied to a register."""


class InvalidLocationError(SharqError):
    """The local simulation only supports the 'localhost' resource."""


class DebugOnlyViolationError(SharqError):
    """State inspection is only permitted on contexts created for debugging."""


class InvalidParameterError(SharqError):
    """An argument is outside the operation's domain."""


class OracleCompilationError(SharqError):
    """A gate-built oracle changed its input register or left an ancilla set."""


class SemanticOracleNotMaterializableError(SharqError):
    """A permutation-backed operation has no dense matrix to expand."""


class ResourceExhaustedError(SharqError):
    """The retry budget for a probabilistic procedure ran out."""
