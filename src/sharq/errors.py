"""Exception types raised by the simulation.

``as_int`` and ``as_indices`` parse every integer argument and qubit index, refusing floats.
"""
import operator


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


def as_int(value, what: str) -> int:
    """``value`` as an int, if ``operator.index`` takes it (ints, bools, numpy integers)."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{what} must be an integer, got {value!r}") from None


def as_indices(*groups) -> tuple[tuple[int, ...], ...]:
    """Each group of qubit indices as a tuple of ints; no index may repeat across the groups."""
    parsed = tuple(tuple(as_int(i, "qubit index") for i in group) for group in groups)
    flat = [i for group in parsed for i in group]
    if len(set(flat)) != len(flat):
        repeated = next(i for n, i in enumerate(flat) if i in flat[:n])
        raise DuplicateIndexesError(f"index {repeated} is specified more than once")
    return parsed
