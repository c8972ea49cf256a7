"""sharq: a state-vector quantum computer simulation.

Logical registers are views over shared physical qubits, operations are
validated unitaries, and the library ships reversible arithmetic circuits,
the quantum Fourier transform, and an end-to-end factoring pipeline.
"""
from . import linalg
from .algorithms import (
    PeriodSample,
    deutsch,
    extract_period,
    hadamard_all_ops,
    inverse_qft_ops,
    qft_ops,
    semantic_uf,
    shor_quantum_step,
)
from .arithmetic import (
    OperationPlan,
    add_n_ops,
    carry_inverse_ops,
    carry_ops,
    controlled_modular_multiply_ops,
    modular_add_ops,
    modular_exponentiation_ops,
    reverse_ops,
    run_on_basis,
    sum_ops,
)
from .engine import (
    DEFAULT_QUBIT_CAP,
    HARD_QUBIT_LIMIT,
    ClassicalResult,
    RegisterView,
    SimulationContext,
    trial_seed,
)
from .errors import (
    DebugOnlyViolationError,
    DimensionMismatchError,
    DuplicateIndexesError,
    IndexOutOfRangeError,
    InvalidLocationError,
    InvalidParameterError,
    NotClassicalStateError,
    NotSquareError,
    NotUnitaryOperationError,
    OracleCompilationError,
    QubitLimitExceededError,
    ResourceExhaustedError,
    SemanticOracleNotMaterializableError,
    SharqError,
    SizeMismatchError,
    ValueOutOfRangeError,
)
from .gates import (
    GateSpec,
    QuantumOperation,
    cnot,
    controlled_u,
    expand_to_full_matrix,
    fredkin,
    hadamard,
    identity_gate,
    pauli_x,
    pauli_y,
    pauli_z,
    phase_s,
    phase_t,
    prepare_named_state,
    retarget,
    rotation_k,
    rx,
    ry,
    rz,
    single_qubit_gate,
    swap,
    toffoli,
    walsh,
)
from .numtheory import bits_to_express, gcd, is_prime, is_prime_power, mod_pow
from .shor import FactoringOutcome, IterationRecord, shor_factor

__version__ = "0.1.0"
