"""QFT builders, the semantic period-finding oracle, the Shor quantum step,
continued-fraction period extraction, and Deutsch's algorithm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arithmetic import OperationPlan, modular_exponentiation_ops, reverse_ops, run_on_basis
from .engine import RegisterView, SimulationContext
from .errors import DuplicateIndexesError, InvalidParameterError, SizeMismatchError
from .errors import OracleCompilationError
from .gates import QuantumOperation, cnot, hadamard, pauli_x
from .numtheory import bits_to_express, mod_pow


@dataclass(frozen=True)
class PeriodSample:
    """One measurement from the quantum period-finding step.

    ``measured`` is the post-transform REG1 value, a sample whose ratio to
    ``modulus`` (= 2**(2n)) approximates k/P; it is not the period itself.
    ``f_value`` records the REG2 collapse for tracing.
    """

    measured: int
    modulus: int
    f_value: int | None = None


def hadamard_all_ops(indices) -> OperationPlan:
    """One Hadamard per index; from |0...0> this is the uniform superposition."""
    indices = [int(i) for i in indices]
    if len(set(indices)) != len(indices):
        raise DuplicateIndexesError(f"indices must be unique, got {indices}")
    return OperationPlan(tuple(hadamard(i) for i in indices), tuple(indices))


def _controlled_phase(k: int, control: int, target: int, conjugate: bool = False) -> QuantumOperation:
    sign = -1.0 if conjugate else 1.0
    phase = np.exp(sign * 2j * np.pi / (1 << k))
    m = np.diag([1.0, 1.0, 1.0, phase]).astype(complex)
    name = f"CR{k}†" if conjugate else f"CR{k}"
    return QuantumOperation(name, (control, target), matrix=m)


def _qft_ladder(indices) -> list[QuantumOperation]:
    ops: list[QuantumOperation] = []
    m = len(indices)
    for j in range(m):
        ops.append(hadamard(indices[j]))
        for k in range(2, m - j + 1):
            ops.append(_controlled_phase(k, control=indices[j + k - 1], target=indices[j]))
    return ops


def qft_ops(indices) -> OperationPlan:
    """Hadamard plus controlled-R_k ladder, then qubit-order reversal.

    The full plan matrix equals the DFT matrix with omega = exp(2*pi*i/2^n)
    and 1/sqrt(2^n) scaling; for one qubit it is just the Hadamard.
    """
    indices = [int(i) for i in indices]
    if len(set(indices)) != len(indices):
        raise DuplicateIndexesError(f"indices must be unique, got {indices}")
    ops = _qft_ladder(indices) + list(reverse_ops(indices).ops)
    return OperationPlan(tuple(ops), tuple(indices))


def inverse_qft_ops(indices) -> OperationPlan:
    """The reversed QFT plan with every rotation conjugated."""
    forward = qft_ops(indices)
    return OperationPlan(tuple(op.inverse() for op in reversed(forward.ops)), forward.result_indices)


# --- the period-finding oracle ----------------------------------------------

def _xor_oracle(name: str, f: np.ndarray, n: int) -> QuantumOperation:
    """The permutation |x>|y> -> |x>|y XOR f(x)> on REG1 (2n qubits) then REG2 (n)."""
    x_part = np.arange(len(f), dtype=np.int64) << n
    y_part = np.arange(1 << n, dtype=np.int64)
    perm = (x_part[:, None] | (y_part[None, :] ^ f[:, None])).ravel()
    perm.flags.writeable = False
    return QuantumOperation(name, tuple(range(3 * n)), permutation=perm)


@lru_cache(maxsize=32)
def semantic_uf(m: int, modulus: int) -> QuantumOperation:
    """Permutation oracle |x>|y> -> |x>|y XOR f(x)> with f(x) = m**x mod modulus.

    Acts on 3n qubits: REG1 (2n, holding x) then REG2 (n). With REG2 at zero
    the output register receives f(x) directly.
    """
    if modulus < 2:
        raise InvalidParameterError(f"modulus must exceed 1, got {modulus}")
    if math.gcd(m, modulus) != 1:
        raise InvalidParameterError(f"base {m} shares a factor with modulus {modulus}")
    n = bits_to_express(modulus)
    f = np.empty(1 << (2 * n), dtype=np.int64)
    f[0] = 1 % modulus
    for x in range(1, len(f)):  # f(x) from f(x-1), avoiding large powers
        f[x] = (f[x - 1] * m) % modulus
    return _xor_oracle(f"Uf[{m}^x mod {modulus}]", f, n)


@lru_cache(maxsize=32)
def circuit_uf(m: int, modulus: int) -> QuantumOperation:
    """The oracle of ``semantic_uf`` with f traced through ``modular_exponentiation_ops``.

    One array trace covers every x in REG1, with REG2 at 1 and the 4n+2
    ancillas at 0; it must bring REG1 and every ancilla back unchanged.
    """
    n = bits_to_express(modulus)
    width, ancillas = 7 * n + 2, 4 * n + 2
    plan = modular_exponentiation_ops(
        range(2 * n), range(2 * n, 3 * n), range(3 * n, width), m, modulus)
    x = np.arange(1 << (2 * n), dtype=np.int64)
    traced = run_on_basis(plan.ops, width, (x << (5 * n + 2)) | (1 << ancillas))
    f = (traced >> ancillas) & ((1 << n) - 1)
    if not np.array_equal(traced ^ (f << ancillas), x << (5 * n + 2)):
        raise OracleCompilationError(
            f"the circuit for {m}^x mod {modulus} changes REG1 or leaves an ancilla set")
    return _xor_oracle(f"Uf[{m}^x mod {modulus}, circuit]", f, n)


# --- the quantum step of factoring --------------------------------------------

def shor_quantum_step(ctx: SimulationContext, n_value: int, m: int,
                      oracle: str = "semantic",
                      register: RegisterView | None = None) -> PeriodSample:
    """Run one period-finding iteration and sample REG1.

    Pipeline: |0...0>, Hadamard-all on REG1 (2n qubits), U_f, measure REG2,
    inverse QFT on REG1, measure REG1. The inverse-QFT qubit reversal is
    realized as a logical reordering of the measured view. Pass ``register``
    (3n qubits, fully collapsed) to reuse qubits across iterations.

    ``oracle`` picks the source of U_f, ``semantic_uf`` or ``circuit_uf``
    (compiled once per (m, N) from the gate-built modular exponentiation).
    Both are the same 3n-qubit permutation, so a seed samples alike through either.
    """
    if math.gcd(m, n_value) != 1:
        raise InvalidParameterError(f"m={m} shares a factor with N={n_value}")
    if oracle not in ("semantic", "circuit"):
        raise InvalidParameterError(f"oracle must be 'semantic' or 'circuit', got {oracle!r}")
    n = bits_to_express(n_value)

    if register is None:
        register = ctx.allocate_register(3 * n)
    elif len(register) != 3 * n:
        raise SizeMismatchError(f"work register must have {3 * n} qubits")
    else:
        register.set_from_unsigned(0)

    uf = semantic_uf(m, n_value) if oracle == "semantic" else circuit_uf(m, n_value)
    reg1 = register.slice_to(2 * n - 1)
    reg2 = register.slice_from(2 * n)
    reg1.apply_operations(_hadamard_all_cached(2 * n))
    register.apply_operation(uf)
    f_value = reg2.measure().to_unsigned()
    # Inverse QFT = bit reversal then the conjugated ladder in reverse; the
    # reversal is folded into a reversed view so no swap gates are spent.
    reversed_reg1 = reg1.slice_reverse().apply_operations(_inverse_ladder(2 * n))
    return PeriodSample(reversed_reg1.measure().to_unsigned(), 1 << (2 * n), f_value)


@lru_cache(maxsize=16)
def _hadamard_all_cached(width: int) -> tuple[QuantumOperation, ...]:
    return hadamard_all_ops(range(width)).ops


@lru_cache(maxsize=16)
def _inverse_ladder(width: int) -> tuple[QuantumOperation, ...]:
    return tuple(op.inverse() for op in reversed(_qft_ladder(list(range(width)))))


# --- classical post-processing ---------------------------------------------

def _convergent_denominators(numerator: int, denominator: int) -> list[int]:
    """Denominators of the continued-fraction convergents of num/den."""
    denominators = []
    q_prev, q_curr = 1, 0  # q_{-2}, q_{-1}
    a, b = numerator, denominator
    while b:
        coefficient = a // b
        q_prev, q_curr = q_curr, coefficient * q_curr + q_prev
        denominators.append(q_curr)
        a, b = b, a - coefficient * b
    return denominators


def extract_period(samples, m: int, n_value: int) -> int | None:
    """Recover the period from REG1 samples, or None to signal a resample.

    Each sample c is expanded as c/modulus by continued fractions; convergent
    denominators d <= N (and their doubles, since the reduced fraction can
    lose a shared factor of two) are validated against m**d mod N == 1.
    Samples whose denominators fail individually are combined by least
    common multiple. Every validated candidate is a multiple of the order,
    so the smallest one is returned.
    """
    candidates: set[int] = set()
    for sample in samples:
        if sample.measured == 0:
            continue  # degenerate: carries no period information
        for d in _convergent_denominators(sample.measured, sample.modulus):
            if 1 <= d <= n_value:
                candidates.add(d)
            if d > 1 and 2 * d <= n_value:
                candidates.add(2 * d)
    validated = sorted(d for d in candidates if mod_pow(m, d, n_value) == 1)
    if validated:
        return validated[0]
    pool = sorted(candidates)
    combined = {math.lcm(a, b) for a in pool for b in pool if a < b}
    validated = sorted(
        d for d in combined if d <= n_value and mod_pow(m, d, n_value) == 1
    )
    return validated[0] if validated else None


# --- Deutsch's algorithm ---------------------------------------------------

def deutsch(ctx: SimulationContext, oracle) -> str:
    """Classify a 1-bit function as constant or balanced with one oracle call.

    ``oracle`` is a callable mapping {0, 1} -> {0, 1}. The oracle is realized
    as the 2-qubit permutation |x>|y> -> |x>|y XOR f(x)> built from CNot
    and/or X gates.
    """
    f0, f1 = int(oracle(0)), int(oracle(1))
    if f0 not in (0, 1) or f1 not in (0, 1):
        raise InvalidParameterError("oracle must return bits")
    reg = ctx.allocate_register(2)
    reg.apply_operation(pauli_x(1))  # phase-kickback ancilla prepared |1>
    reg.apply_operations([hadamard(0), hadamard(1)])
    if f0 ^ f1:
        reg.apply_operation(cnot(0, 1))
    if f0:
        reg.apply_operation(pauli_x(1))
    reg.apply_operation(hadamard(0))
    return "balanced" if reg.measure([0]).to_unsigned() else "constant"
