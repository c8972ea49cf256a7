"""Exception types raised by the simulation.

``as_int`` and ``as_indices`` parse every integer argument and qubit index, refusing floats
and a scalar where indices belong; ``as_items`` parses every other sequence argument;
``as_real`` parses every rotation angle and tolerance, refusing strings, complex numbers
and non-finite values.
"""
import math
import numbers
import operator


class SharqError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(SharqError):
    """Matrix shapes are incompatible for the requested operation."""


class NotSquareError(SharqError):
    """A square matrix was required."""


class QubitLimitExceededError(SharqError):
    """The requested size exceeds the configured or architectural qubit cap, or an
    array that holds the problem, the state or a returned oracle's table, cannot be
    allocated."""


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
    """A budget ran out: the retry budget of a probabilistic procedure, or the
    memory for an array that a call works in, beside the arrays that hold the
    problem (``QubitLimitExceededError``). The message says what the call leaves as
    it was."""


def as_int(value, what: str) -> int:
    """``value`` as an int, if ``operator.index`` takes it (ints, bools, numpy integers)."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{what} must be an integer, got {value!r}") from None


def as_real(value, what: str) -> float:
    """``value`` as a finite float, if it is a real number (ints, floats, numpy
    integers and floats); infinities, NaN and ints past the float range are refused."""
    if not isinstance(value, numbers.Real):
        raise InvalidParameterError(f"{what} must be a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an int past the float range
        real = math.inf
    if not math.isfinite(real):
        raise InvalidParameterError(f"{what} must be finite, got {value!r}")
    return real


def as_items(items, what: str) -> tuple:
    """``items`` as a tuple, if it is iterable."""
    try:
        return tuple(items)
    except TypeError:
        raise InvalidParameterError(f"{what} must be a sequence, got {items!r}") from None


def _group(group) -> tuple[int, ...]:
    return tuple([as_int(i, "qubit index") for i in as_items(group, "qubit indices")])


def as_indices(*groups) -> tuple[tuple[int, ...], ...]:
    """Each group of qubit indices as a tuple of ints; no index may repeat across the groups."""
    parsed = tuple(_group(group) for group in groups)
    flat = [i for group in parsed for i in group]
    if len(set(flat)) != len(flat):
        repeated = next(i for n, i in enumerate(flat) if i in flat[:n])
        raise DuplicateIndexesError(f"index {repeated} is specified more than once")
    return parsed
