"""Reversible arithmetic circuit builders.

Each builder returns an ordered list of catalog operations (CNot, Toffoli,
X) wrapped in an OperationPlan; nothing here writes amplitudes directly.
Index lists are big-endian like registers: position 0 is the most
significant bit. The ripple structure works least-significant-bit first, so
builders reverse internally.

The modular adder follows the Vedral/Barenco/Ekert construction: subtract
the modulus, use the overflow qubit to decide a controlled re-add, and
realize the controlled reset of the modulus register with CNots from the
flag qubit (the bit pattern of the modulus is classical at plan-build time).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import _fused
from .errors import InvalidParameterError, SizeMismatchError, as_indices, as_int
from .gates import HARD_QUBIT_LIMIT, QuantumOperation, cnot, pauli_x, toffoli, trace_words


@dataclass(frozen=True)
class OperationPlan:
    """An ordered gate sequence plus the indices holding the semantic output."""

    ops: tuple[QuantumOperation, ...]
    result_indices: tuple[int, ...]

    def inverse(self) -> "OperationPlan":
        """The reverse circuit: inverted gates in reverse order."""
        return OperationPlan(tuple(op.inverse() for op in reversed(self.ops)), self.result_indices)

    def __len__(self) -> int:
        return len(self.ops)


def run_on_basis(ops, width: int, value):
    """Trace a classical reversible circuit on basis states.

    Independent of the amplitudes: every gate must be a basis permutation
    (X/CNot/Toffoli/Fredkin and friends). ``value`` is the big-endian content
    of a ``width``-qubit register (width <= 62): an int, traced to an int, or an
    integer array of inputs, traced together. Every input and gate is checked
    before the trace; runs of gates are then traced as the fused permutations
    the engine applies.
    """
    values, width = np.asarray(value), as_int(width, "trace width")
    if not 0 <= width <= HARD_QUBIT_LIMIT:
        raise InvalidParameterError(f"cannot trace {width} qubits; the limit is {HARD_QUBIT_LIMIT}")
    if values.dtype.kind not in "iu" or ((values < 0) | (values >> width != 0)).any():
        raise InvalidParameterError(f"{value} does not fit in {width} bits")

    def check(op):
        for t in op.targets:
            if t >= width:
                raise SizeMismatchError(f"{op.name} targets qubit {t} of a {width}-qubit register")
        op.basis_flips  # refuses a gate that is not a basis permutation

    ops = tuple(ops)
    plan = _fused(ops)
    if plan.top >= width or not plan.classical:
        for op in ops:
            check(op)  # raises for the first gate that cannot be traced
    pad = HARD_QUBIT_LIMIT - width  # qubit t at bit 61 - t, for every width
    if values.ndim == 0:
        return trace_words(plan.ops, values.item() << pad) >> pad
    return trace_words(plan.ops, values.astype(np.int64) << pad) >> pad


# --- sum / carry ------------------------------------------------------------

def sum_ops(carry: int, x: int, y: int) -> OperationPlan:
    """y <- carry XOR x XOR y; carry and x unchanged."""
    carry, x, y = as_indices((carry, x, y))[0]
    return OperationPlan(_sum(carry, x, y), (y,))


def _sum(carry, x, y):
    return cnot(carry, y), cnot(x, y)


def carry_ops(carry: int, x: int, y: int, ancilla: int) -> OperationPlan:
    """y <- x XOR y; ancilla accumulates the carry (majority) term."""
    carry, x, y, ancilla = as_indices((carry, x, y, ancilla))[0]
    return OperationPlan(_carry(carry, x, y, ancilla), (y, ancilla))


def _carry(carry, x, y, ancilla):
    return toffoli(x, y, ancilla), cnot(x, y), toffoli(carry, y, ancilla)


def carry_inverse_ops(carry: int, x: int, y: int, ancilla: int) -> OperationPlan:
    """The carry gate run backwards (all constituent gates are self-inverse)."""
    forward = carry_ops(carry, x, y, ancilla)
    return OperationPlan(tuple(reversed(forward.ops)), (y,))


# --- n-qubit adder ----------------------------------------------------------

def add_n_ops(x_indices, y_indices, ancilla_indices) -> OperationPlan:
    """Ripple adder: result (n+1 bits, big-endian) in [ancillae[0]] + Y.

    X is unchanged; ancillae must be |0> at application time, all but the
    carry-out are restored. The inverse plan performs subtraction.
    """
    x, y, anc = as_indices(x_indices, y_indices, ancilla_indices)
    if len(x) != len(y):
        raise SizeMismatchError("X and Y registers must be the same width")
    if len(anc) != len(x) + 1:
        raise SizeMismatchError("need exactly one more ancilla than X/Y qubits")

    n = len(x)
    # little-endian rails; carries[i] feeds bit i, carries[n] is the carry-out;
    # the indices are checked, so the gates come from the unchecked builders
    xs = x[::-1]
    ys = y[::-1]
    carries = (*anc[:0:-1], anc[0])

    ops: list[QuantumOperation] = []
    for i in range(n):
        ops.extend(_carry(carries[i], xs[i], ys[i], carries[i + 1]))
    ops.append(cnot(xs[n - 1], ys[n - 1]))
    ops.extend(_sum(carries[n - 1], xs[n - 1], ys[n - 1]))
    # one fewer inverse carry than carries: walk back down restoring ancillae
    for i in range(n - 2, -1, -1):
        ops.extend(reversed(_carry(carries[i], xs[i], ys[i], carries[i + 1])))
        ops.extend(_sum(carries[i], xs[i], ys[i]))
    return OperationPlan(tuple(ops), (anc[0], *y))


# --- modular adder ----------------------------------------------------------

def modular_add_ops(x_indices, y_indices, modulus_indices, scratch_indices,
                    flag: int, modulus: int) -> OperationPlan:
    """(a + b) mod modulus into Y, for a in X and b in Y, both < modulus.

    ``modulus_indices`` must hold ``modulus`` at application time and is
    restored; ``scratch_indices`` is n+1 zeroed qubits (overflow bit plus the
    carry chain) and ``flag`` one zeroed qubit, all restored to |0>.
    """
    x, y, n_reg, scratch, (flag,) = as_indices(
        x_indices, y_indices, modulus_indices, scratch_indices, (flag,))
    n, modulus = len(x), as_int(modulus, "modulus")
    if not (len(y) == n and len(n_reg) == n):
        raise SizeMismatchError("X, Y, and modulus registers must share one width")
    if len(scratch) != n + 1:
        raise SizeMismatchError("modular add needs n+1 scratch qubits (overflow + carries)")
    if modulus < 1 or modulus >= (1 << n):
        raise InvalidParameterError(f"modulus {modulus} does not fit in {n} bits")

    overflow = scratch[0]
    add_x = add_n_ops(x, y, scratch)
    add_modulus = add_n_ops(n_reg, y, scratch)
    # CNots that zero the modulus register when the flag is set
    reset_modulus = tuple(
        cnot(flag, n_reg[i]) for i in range(n) if (modulus >> (n - 1 - i)) & 1
    )

    ops: list[QuantumOperation] = []
    ops.extend(add_x.ops)                       # b := a + b            (n+1 bits)
    ops.extend(add_modulus.inverse().ops)       # b := b - N; overflow set iff b < 0
    ops.append(cnot(overflow, flag))
    ops.append(pauli_x(flag))                   # flag = 1 iff no re-add is needed
    ops.extend(reset_modulus)                   # modulus register -> 0 when flag set
    ops.extend(add_modulus.ops)                 # b += N or 0
    ops.extend(reset_modulus)                   # restore the modulus register
    ops.append(pauli_x(flag))                   # flag = underflow again
    ops.extend(add_x.inverse().ops)             # b -= a, overflow now = NOT flag
    ops.append(pauli_x(overflow))
    ops.append(cnot(overflow, flag))            # clear the flag
    ops.append(pauli_x(overflow))
    ops.extend(add_x.ops)                       # b := (a + b) mod N
    return OperationPlan(tuple(ops), tuple(y))


# --- controlled modular multiplier -------------------------------------------

def controlled_modular_multiply_ops(control: int, x_indices, y_indices,
                                    modulus_indices, scratch_indices,
                                    multiplier: int, modulus: int) -> OperationPlan:
    """Y (zeroed) <- (multiplier * a) mod modulus when the control is set,
    else a is passed through; a is the content of X (< modulus).

    The addends multiplier*2^j mod modulus are classical, written into an
    addend scratch register by Toffolis conditioned on (control AND x_j).
    ``scratch_indices`` is 2n+2 zeroed qubits: n addend, n+1 modular-add
    scratch, 1 flag.
    """
    (control,), x, y, n_reg, scratch = as_indices(
        (control,), x_indices, y_indices, modulus_indices, scratch_indices)
    n, multiplier, modulus = len(x), as_int(multiplier, "multiplier"), as_int(modulus, "modulus")
    if math.gcd(multiplier, modulus) != 1:
        raise InvalidParameterError(
            f"multiplier {multiplier} shares a factor with modulus {modulus}"
        )
    if not (len(y) == n and len(n_reg) == n):
        raise SizeMismatchError("X, Y, and modulus registers must share one width")
    if len(scratch) != 2 * n + 2:
        raise SizeMismatchError("controlled multiply needs 2n+2 scratch qubits")

    addend = scratch[:n]
    adder_scratch = scratch[n:2 * n + 1]
    flag = scratch[2 * n + 1]

    add = modular_add_ops(addend, y, n_reg, adder_scratch, flag, modulus).ops  # the same every bit
    ops: list[QuantumOperation] = []
    for j in range(n):  # j is the bit position, least significant first
        constant = (multiplier << j) % modulus
        x_qubit = x[n - 1 - j]
        load = tuple(
            toffoli(control, x_qubit, addend[i])
            for i in range(n)
            if (constant >> (n - 1 - i)) & 1
        )
        ops.extend(load)
        ops.extend(add)
        ops.extend(load)  # unload the classical addend
    # pass-through: copy X into the zeroed output when the control is 0
    ops.append(pauli_x(control))
    ops.extend(toffoli(control, x[i], y[i]) for i in range(n))
    ops.append(pauli_x(control))
    return OperationPlan(tuple(ops), tuple(y))


# --- modular exponentiation ---------------------------------------------------

def modular_exponentiation_ops(reg1_indices, reg2_indices, ancilla_indices,
                               base: int, modulus: int) -> OperationPlan:
    """REG2 <- base**x mod modulus for the (possibly superposed) x in REG1.

    REG1 has 2n qubits, REG2 n qubits holding the accumulator, which must
    start at 1. ``ancilla_indices`` is 4n+2 zeroed qubits: n modulus
    register (the plan sets and clears it), n product temporary, and the
    2n+2 controlled-multiplier scratch. Cascades controlled multiplications
    by base**(2^j) mod modulus, conditioned on REG1 bit j.
    """
    reg1, reg2, anc = as_indices(reg1_indices, reg2_indices, ancilla_indices)
    n, base, modulus = len(reg2), as_int(base, "base"), as_int(modulus, "modulus")
    if math.gcd(base, modulus) != 1:
        raise InvalidParameterError(f"base {base} shares a factor with modulus {modulus}")
    if len(reg1) != 2 * n:
        raise SizeMismatchError("REG1 must be twice as wide as REG2")
    if len(anc) != 4 * n + 2:
        raise SizeMismatchError("modular exponentiation needs 4n+2 ancilla qubits")

    n_reg = anc[:n]
    temp = anc[n:2 * n]
    mult_scratch = anc[2 * n:]

    set_modulus = tuple(
        pauli_x(n_reg[i]) for i in range(n) if (modulus >> (n - 1 - i)) & 1
    )
    ops: list[QuantumOperation] = list(set_modulus)
    factor = base % modulus
    for j in range(2 * n):  # exponent bits, least significant first
        ops.extend(_multiply_round(reg1[2 * n - 1 - j], reg2, temp, n_reg, mult_scratch,
                                   factor, modulus))
        factor = (factor * factor) % modulus
    ops.extend(set_modulus)  # clear the modulus register back to |0>
    return OperationPlan(tuple(ops), tuple(reg2))


def _multiply_round(control: int, acc, temp, n_reg, scratch,
                    factor: int, modulus: int) -> list[QuantumOperation]:
    """One VBE round, acc <- factor*acc mod modulus if ``control`` else acc (acc <
    modulus): the forward multiply, the inverse backward multiply, the swap."""
    forward = controlled_modular_multiply_ops(control, acc, temp, n_reg, scratch, factor, modulus)
    backward = controlled_modular_multiply_ops(
        control, temp, acc, n_reg, scratch, pow(factor, -1, modulus), modulus)
    ops = [*forward.ops, *backward.inverse().ops]  # temp <- factor*acc or acc; acc -> 0
    for a, b in zip(acc, temp):                   # move the product back into acc
        ops.extend((cnot(a, b), cnot(b, a), cnot(a, b)))
    return ops


# --- qubit-order reversal -------------------------------------------------------

def reverse_ops(indices) -> OperationPlan:
    """Pairwise swaps (three CNots each) mapping position i to len-1-i.

    The middle qubit of an odd-length list is untouched; a single qubit
    yields an empty plan.
    """
    (indices,) = as_indices(indices)
    ops: list[QuantumOperation] = []
    for i in range(len(indices) // 2):
        a, b = indices[i], indices[len(indices) - 1 - i]
        ops.extend((cnot(a, b), cnot(b, a), cnot(a, b)))
    return OperationPlan(tuple(ops), tuple(reversed(indices)))
