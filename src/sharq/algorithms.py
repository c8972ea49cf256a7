"""QFT builders, the controlled-multiply oracles, the Shor step on one control
qubit that is never reset, continued-fraction period extraction, and Deutsch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arithmetic import OperationPlan, _multiply_round, reverse_ops, run_on_basis
from .engine import _ALLOCATION_FAILURES, RegisterView, SimulationContext
from .errors import (InvalidParameterError, OracleCompilationError, QubitLimitExceededError,
                     SizeMismatchError, as_indices, as_int, as_items)
from .gates import QuantumOperation, cnot, controlled_u, hadamard, pauli_x, rotation_k
from .numtheory import bits_to_express, mod_pow


@dataclass(frozen=True)
class PeriodSample:
    """One measurement from the quantum period-finding step.

    ``measured`` is the 2n-bit sample c read off the control, whose ratio to
    ``modulus`` (= 2**(2n)) approximates k/P; it is not the period itself.
    ``f_value`` records the work register's final value for tracing.
    """

    measured: int
    modulus: int
    f_value: int | None = None


def hadamard_all_ops(indices) -> OperationPlan:
    """One Hadamard per index; from |0...0> this is the uniform superposition."""
    (indices,) = as_indices(indices)
    return OperationPlan(tuple(hadamard(i) for i in indices), tuple(indices))


def _controlled_phase(k: int, control: int, target: int) -> QuantumOperation:
    return controlled_u(rotation_k(k), (control,), target)


def qft_ops(indices) -> OperationPlan:
    """Hadamard plus controlled-R_k ladder, then qubit-order reversal.

    The full plan matrix equals the DFT matrix with omega = exp(2*pi*i/2^n)
    and 1/sqrt(2^n) scaling; for one qubit it is just the Hadamard.
    """
    (indices,) = as_indices(indices)
    ops: list[QuantumOperation] = []
    for j, target in enumerate(indices):
        ops.append(hadamard(target))
        for k in range(2, len(indices) - j + 1):
            ops.append(_controlled_phase(k, control=indices[j + k - 1], target=target))
    ops.extend(reverse_ops(indices).ops)
    return OperationPlan(tuple(ops), tuple(indices))


def inverse_qft_ops(indices) -> OperationPlan:
    """The reversed QFT plan with every rotation conjugated."""
    return qft_ops(indices).inverse()


# --- the period-finding oracle ----------------------------------------------

def _multiply_oracle(name: str, images: np.ndarray, n: int) -> QuantumOperation:
    """|c>|y> -> |c>|images[y] if c else y> on 1 + n qubits; y past ``images`` stays fixed."""
    perm = np.arange(2 << n, dtype=np.int64)
    perm[(1 << n):(1 << n) + len(images)] = images + (1 << n)
    perm.flags.writeable = False
    return QuantumOperation(name, tuple(range(n + 1)), permutation=perm)


def _multiplier_domain(m, modulus) -> tuple[int, int]:
    """The one domain of both oracle families: ``m`` and ``modulus`` parsed, and
    refused unless the modulus exceeds 1 and shares no factor with ``m``."""
    m, modulus = as_int(m, "m"), as_int(modulus, "modulus")
    if modulus < 2:
        raise InvalidParameterError(f"modulus must exceed 1, got {modulus}")
    if math.gcd(m, modulus) != 1:
        raise InvalidParameterError(f"multiplier {m} shares a factor with modulus {modulus}")
    return m, modulus


def semantic_uf(m: int, modulus: int) -> QuantumOperation:
    """Controlled multiply |c>|y> -> |c>|m**c * y mod modulus> on the control
    then n work qubits; y >= modulus is left fixed."""
    return _semantic_uf(*_multiplier_domain(m, modulus))


@lru_cache(maxsize=32)
def _semantic_uf(m: int, modulus: int) -> QuantumOperation:
    n = bits_to_express(modulus)
    try:
        y = np.arange(modulus, dtype=np.int64)
        return _multiply_oracle(f"Uf[{m}*y mod {modulus}]", y * (m % modulus) % modulus, n)
    except (*_ALLOCATION_FAILURES, OverflowError) as exc:  # past int64 for N >= 2**63
        raise QubitLimitExceededError(f"the {n + 1}-qubit oracle for {m}*y mod {modulus} needs "
                                      f"a {2 << n}-entry table, which cannot be allocated") from exc


def circuit_uf(m: int, modulus: int) -> QuantumOperation:
    """The oracle of ``semantic_uf`` compiled from one VBE multiply round.

    One array trace at width 5n+3 covers c in {0, 1} and every y < modulus,
    with the modulus register holding N and the other 3n+2 ancillas at 0. It
    must give back all but y as it found them, y too when c = 0, and m * y mod
    modulus for each y when c = 1.
    """
    return _circuit_uf(*_multiplier_domain(m, modulus))


@lru_cache(maxsize=32)
def _circuit_uf(m: int, modulus: int) -> QuantumOperation:
    n = bits_to_express(modulus)
    width, work = 5 * n + 3, 4 * n + 2  # y sits at bits work .. work+n-1, c above it
    ancillas = range(n + 1, width)      # modulus register, temp, multiplier scratch
    ops = _multiply_round(0, range(1, n + 1), ancillas[n:2 * n], ancillas[:n],
                          ancillas[2 * n:], m % modulus, modulus)
    y = np.arange(modulus, dtype=np.int64)
    start = (np.concatenate([y, y | (1 << n)]) << work) | (modulus << (3 * n + 2))
    traced = run_on_basis(ops, width, start)
    may_change = np.repeat([0, ((1 << n) - 1) << work], modulus)  # y, and only when c = 1
    if ((traced ^ start) & ~may_change).any():
        raise OracleCompilationError(f"the round for {m}*y mod {modulus} changes the control, "
                                     "leaves an ancilla set or changes y when c = 0")
    images = (traced[modulus:] >> work) & ((1 << n) - 1)
    if not np.array_equal(images, y * (m % modulus) % modulus):
        raise OracleCompilationError(f"the round for {m}*y mod {modulus} computes another product")
    return _multiply_oracle(f"Uf[{m}*y mod {modulus}, circuit]", images, n)


# each oracle is parsed and refused before its cache, which the public name reports on
semantic_uf.cache_info, semantic_uf.cache_clear = _semantic_uf.cache_info, _semantic_uf.cache_clear
circuit_uf.cache_info, circuit_uf.cache_clear = _circuit_uf.cache_info, _circuit_uf.cache_clear


# --- the quantum step of factoring --------------------------------------------

# Up to this N, (N - 1)**2 < 2**63, so y * a**-1 for y, a**-1 < N is exact in
# int64. That covers every N of up to 31 bits, whose register of at most 32 qubits
# is a state of up to 64 GiB. Past it the register has 33 qubits, a 128 GiB state;
# the step refuses such an N rather than trust that it cannot be allocated.
_EXACT_PRODUCT_LIMIT = 3037000500


def _check_oracle(oracle: str):
    """Refuse an oracle family other than ``"semantic"`` or ``"circuit"``."""
    if not isinstance(oracle, str) or oracle not in ("semantic", "circuit"):
        raise InvalidParameterError(f"oracle must be 'semantic' or 'circuit', got {oracle!r}")


def shor_quantum_step(ctx: SimulationContext, n_value: int, m: int,
                      oracle: str = "semantic",
                      register: RegisterView | None = None) -> PeriodSample:
    """Run one period-finding iteration on one recycled control qubit.

    Semiclassical phase estimation (Griffiths-Niu, Beauregard) on n+1 qubits:
    the control, then a work register set to 1. Every round i is H on the
    control, the controlled multiply by a = m**(2**(2n-1-i)) mod N, one readout
    gate, and a measurement reading bit i of the sample (least significant
    first) off the control, which is never reset. The work register is read
    last. (sample, f) is distributed as in the textbook step with an inverse QFT
    on a 2n-qubit REG1. The step leaves ``register`` (n+1 qubits of ``ctx``)
    fully collapsed, the control at the last bit read; pass it back to reuse it.

    The step is one engine call, ``SimulationContext._step``, which sets the
    register to 1, simulates every round by its effect and reads the work
    register: the control never goes into superposition, and a round gathers
    a**-1 * y mod N for the work values y, takes one inner product and combines
    in place. This function validates and computes the 2n multipliers. With
    ``oracle="circuit"`` each distinct multiplier other than 1 is first compiled
    by ``circuit_uf``, which refuses a round that does not compute a * y mod N;
    the step then runs the same indices, so a seed samples alike through either
    oracle.

    Exactness: the states are those of the gate sequence up to rounding, not bit
    for bit, since the round's sums run in another order; a sampled bit can
    differ only where a uniform lands within rounding of its boundary.
    """
    # gcd(m, N) = 1 is exactly the condition for every y -> a * y mod N to be a
    # bijection of [0, N), so this check is the multiplies' unitarity check
    m, n_value = _multiplier_domain(m, n_value)
    _check_oracle(oracle)
    n = bits_to_express(n_value)
    if n_value > _EXACT_PRODUCT_LIMIT:
        raise QubitLimitExceededError(f"the step for N={n_value} needs {n + 1} qubits, "
                                      f"a {16 << (n + 1)}-byte state")

    if register is None:
        register = ctx.allocate_register(n + 1)
    elif register.context is not ctx:
        raise InvalidParameterError("the work register belongs to another context")
    elif len(register) != n + 1:
        raise SizeMismatchError(f"work register must have {n + 1} qubits")
    multipliers = [pow(m, 1 << (2 * n - 1 - i), n_value) for i in range(2 * n)]
    if oracle == "circuit":
        for a in set(multipliers) - {1}:
            circuit_uf(a, n_value)
    measured, f_value = ctx._step(register.exposed, n_value, multipliers)
    return PeriodSample(measured, 1 << (2 * n), f_value)


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
    """Recover the period from step samples, or None to signal a resample.

    Each sample c is expanded as c/modulus by continued fractions; convergent
    denominators d <= N (and their doubles, since the reduced fraction can
    lose a shared factor of two) are validated against m**d mod N == 1.
    Samples whose denominators fail individually are combined by least
    common multiple. Every validated candidate is a multiple of the order,
    so the smallest one is returned.
    """
    m, n_value = as_int(m, "base"), as_int(n_value, "modulus")
    candidates: set[int] = set()
    for sample in as_items(samples, "samples"):
        if not isinstance(sample, PeriodSample):
            raise InvalidParameterError(f"a sample is a PeriodSample, got {sample!r}")
        if sample.measured == 0:
            continue  # degenerate: carries no period information
        for d in _convergent_denominators(sample.measured, sample.modulus):
            if 1 <= d <= n_value:
                candidates.add(d)
            if d > 1 and 2 * d <= n_value:
                candidates.add(2 * d)
    period = min((d for d in candidates if mod_pow(m, d, n_value) == 1), default=None)
    if period is not None:
        return period
    combined = {math.lcm(a, b) for a in candidates for b in candidates if a < b}
    return min((d for d in combined if d <= n_value and mod_pow(m, d, n_value) == 1),
               default=None)


# --- Deutsch's algorithm ---------------------------------------------------

def deutsch(ctx: SimulationContext, oracle) -> str:
    """Classify a 1-bit function as constant or balanced with one oracle call.

    ``oracle`` is a callable mapping {0, 1} -> {0, 1}. The oracle is realized
    as the 2-qubit permutation |x>|y> -> |x>|y XOR f(x)> built from CNot
    and/or X gates.
    """
    if not callable(oracle):
        raise InvalidParameterError(f"the oracle is a function of one bit, got {oracle!r}")
    f0, f1 = as_int(oracle(0), "oracle output"), as_int(oracle(1), "oracle output")
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
