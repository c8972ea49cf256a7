import math

import numpy as np
import pytest

import sharq
from sharq import SimulationContext, algorithms
from sharq.algorithms import (
    PeriodSample,
    _convergent_denominators,
    circuit_uf,
    deutsch,
    extract_period,
    hadamard_all_ops,
    inverse_qft_ops,
    qft_ops,
    semantic_uf,
    shor_quantum_step,
)
from sharq.arithmetic import _multiply_round, run_on_basis
from sharq.errors import (
    DuplicateIndexesError,
    InvalidParameterError,
    OracleCompilationError,
    QubitLimitExceededError,
    SizeMismatchError,
)
from sharq.gates import QuantumOperation, expand_to_full_matrix


def dft_matrix(n_qubits: int) -> np.ndarray:
    """Independent oracle: the DFT matrix with omega = exp(2*pi*i / 2^n)."""
    dim = 1 << n_qubits
    omega = np.exp(2j * np.pi / dim)
    return np.array(
        [[omega ** (row * col) for col in range(dim)] for row in range(dim)]
    ) / math.sqrt(dim)


def plan_matrix(plan, n_qubits: int) -> np.ndarray:
    full = np.eye(1 << n_qubits, dtype=complex)
    for op in plan.ops:
        full = expand_to_full_matrix(op, n_qubits) @ full
    return full


class TestHadamardAll:
    def test_single_qubit(self, debug_ctx):
        ctx = debug_ctx()
        reg = ctx.allocate_register(1)
        reg.apply_operations(hadamard_all_ops([0]).ops)
        s2 = 1 / math.sqrt(2)
        assert np.allclose(reg.peek_amplitudes(), [s2, s2])

    def test_eight_qubits_uniform(self, debug_ctx):
        ctx = debug_ctx()
        reg = ctx.allocate_register(8)
        reg.apply_operations(hadamard_all_ops(range(8)).ops)
        amplitudes = reg.peek_amplitudes()
        assert np.abs(amplitudes - np.full(256, 1 / 16)).max() < 1e-12

    def test_twice_restores_any_basis_state(self, debug_ctx):
        for start in (0, 5, 7):
            ctx = debug_ctx()
            reg = ctx.allocate_register(3).set_from_unsigned(start)
            plan = hadamard_all_ops(range(3))
            reg.apply_operations(plan.ops).apply_operations(plan.ops)
            assert reg.measure().to_unsigned() == start

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateIndexesError):
            hadamard_all_ops([0, 0])


class TestQft:
    def test_single_qubit_is_hadamard(self):
        plan = qft_ops([0])
        assert len(plan.ops) == 1
        assert plan.ops[0].name == "H"

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matrix_equals_dft(self, n):
        assert np.abs(plan_matrix(qft_ops(range(n)), n) - dft_matrix(n)).max() < 1e-9

    def test_gate_for_gate_structure_n3(self):
        # H, CR2, CR3 on the top qubit; H, CR2 on the middle; H on the last;
        # then the three-CNot swap of qubits 0 and 2
        names = [(op.name, op.targets) for op in qft_ops(range(3)).ops]
        assert names == [
            ("H", (0,)), ("CR2", (1, 0)), ("CR3", (2, 0)),
            ("H", (1,)), ("CR2", (2, 1)),
            ("H", (2,)),
            ("CNot", (0, 2)), ("CNot", (2, 0)), ("CNot", (0, 2)),
        ]

    def test_gate_for_gate_structure_n2(self):
        names = [(op.name, op.targets) for op in qft_ops(range(2)).ops]
        assert names == [
            ("H", (0,)), ("CR2", (1, 0)), ("H", (1,)),
            ("CNot", (0, 1)), ("CNot", (1, 0)), ("CNot", (0, 1)),
        ]

    def test_gate_for_gate_structure_n4(self):
        names = [(op.name, op.targets) for op in qft_ops(range(4)).ops]
        ladder = names[: 4 + 3 + 2 + 1]
        assert ladder == [
            ("H", (0,)), ("CR2", (1, 0)), ("CR3", (2, 0)), ("CR4", (3, 0)),
            ("H", (1,)), ("CR2", (2, 1)), ("CR3", (3, 1)),
            ("H", (2,)), ("CR2", (3, 2)),
            ("H", (3,)),
        ]
        # tail: the two swaps (0,3) and (1,2), three CNots each
        assert [n for n, _ in names[10:]] == ["CNot"] * 6

    def test_round_trip_restores_random_states(self, debug_ctx):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            vec /= np.linalg.norm(vec)
            ctx = debug_ctx()
            reg = ctx.allocate_register(n)
            ctx._set_state(vec)
            reg.apply_operations(qft_ops(range(n)).ops)
            reg.apply_operations(inverse_qft_ops(range(n)).ops)
            assert np.abs(ctx._state - vec).max() < 1e-9


class TestInverseQft:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matrix_is_adjoint_of_qft(self, n):
        forward = plan_matrix(qft_ops(range(n)), n)
        backward = plan_matrix(inverse_qft_ops(range(n)), n)
        assert np.abs(backward - forward.conj().T).max() < 1e-9

    def test_single_qubit_self_inverse(self):
        plan = inverse_qft_ops([0])
        assert len(plan.ops) == 1
        assert np.allclose(plan.ops[0].matrix, sharq.hadamard().matrix)


def apply_cascade(reg, m: int, modulus: int, n: int):
    """The full U_f |x>|1> -> |x>|m**x mod N> on REG1 (2n) then REG2 (n), built
    from one controlled multiply per REG1 qubit."""
    for j in range(2 * n):  # REG1 qubit 2n-1-j carries exponent bit j
        view = reg.slice([2 * n - 1 - j, *range(2 * n, 3 * n)])
        view.apply_operation(semantic_uf(pow(m, 1 << j, modulus), modulus))


class TestSemanticUf:
    def test_worked_mapping(self, debug_ctx):
        # control set: y = 2 -> 8 * 2 mod 15 = 1; control clear: y stays 2
        for control, want in ((1, 1), (0, 2)):
            ctx = debug_ctx()
            reg = ctx.allocate_register(5).set_from_unsigned((control << 4) | 2)
            reg.apply_operation(semantic_uf(8, 15))
            assert reg.measure().to_unsigned() == (control << 4) | want

    def test_uniform_image_distribution(self, debug_ctx):
        # after Hadamard-all on REG1 and the cascade of controlled multiplies,
        # REG2's marginal is exactly 1/4 on {1,2,4,8}
        ctx = debug_ctx()
        reg = ctx.allocate_register(12)
        reg.slice_from(8).set_from_unsigned(1)
        reg.apply_operations(hadamard_all_ops(range(8)).ops)
        apply_cascade(reg, 8, 15, 4)
        state = reg.peek_amplitudes()
        probabilities = (np.abs(state) ** 2).reshape(256, 16).sum(axis=0)
        expected = np.zeros(16)
        expected[[1, 2, 4, 8]] = 0.25
        assert np.abs(probabilities - expected).max() < 1e-9

    def test_bijective_over_all_basis_states(self):
        perm = semantic_uf(8, 15).permutation
        assert len(perm) == 32  # the control plus four work qubits
        assert np.array_equal(np.sort(perm), np.arange(32))

    def test_controlled_multiply_semantics(self):
        # |c>|y> -> |c>|m**c * y mod N>; c = 0 is the identity, y >= N stays fixed
        for m, modulus in ((8, 15), (2, 21), (5, 33)):
            n = modulus.bit_length()
            perm = semantic_uf(m, modulus).permutation
            y = np.arange(1 << n)
            assert np.array_equal(perm[y], y)
            want = np.where(y < modulus, y * m % modulus, y)
            assert np.array_equal(perm[(1 << n) + y], (1 << n) + want)

    def test_shared_factor_rejected(self):
        with pytest.raises(InvalidParameterError):
            semantic_uf(5, 15)

    def test_modulus_must_exceed_one(self):
        with pytest.raises(InvalidParameterError, match="exceed 1"):
            semantic_uf(2, 1)

    @pytest.mark.parametrize("modulus", [2**47 + 1, 2**60 + 1, 2**63 + 1],
                             ids=["past-address-space", "past-array-size", "past-int64"])
    def test_a_table_too_large_to_build_is_refused(self, modulus):
        # 2**47 int64 entries are 1 PiB, past the 128 TiB address space, so none is allocated
        with pytest.raises(QubitLimitExceededError, match="cannot be allocated"):
            semantic_uf(2, modulus)

    def test_applies_through_shuffled_views(self):
        # the oracle's targets are view-relative, so a permuted layout of the
        # same five qubits must produce the same logical result
        rng = np.random.default_rng(64)
        for _ in range(8):
            ctx = SimulationContext(seed=0)
            backing = ctx.allocate_register(5)
            layout = [int(i) for i in rng.permutation(5)]
            view = backing.slice(layout)
            control, y = int(rng.integers(2)), int(rng.integers(16))
            view.set_from_unsigned((control << 4) | y)
            view.apply_operation(semantic_uf(8, 15))
            measured = view.measure().to_unsigned()
            assert measured >> 4 == control
            assert measured & 15 == (8 * y % 15 if control and y < 15 else y)


def exact_joint(modulus: int, m: int) -> np.ndarray:
    """P(c, f) of the textbook step, from the DFT of each REG1 progression.

    REG1 holds every x < Q; once REG2 reads f it holds the x with m**x = f
    (mod N), and the inverse QFT makes P(c, f) = |DFT(indicator_f)[c]|^2 / Q^2.
    Rows are indexed by f, columns by c.
    """
    q = 1 << (2 * modulus.bit_length())
    f = np.array([pow(m, x, modulus) for x in range(q)])
    indicator = (f[None, :] == np.arange(modulus)[:, None]).astype(float)
    return np.abs(np.fft.fft(indicator, axis=1)) ** 2 / q ** 2


class TestShorQuantumStep:
    def test_reg2_support(self):
        seen = set()
        for trial in range(200):
            ctx = SimulationContext(seed=sharq.trial_seed(400, trial))
            sample = shor_quantum_step(ctx, 15, 8)
            seen.add(sample.f_value)
        assert seen == {1, 2, 4, 8}

    def test_reg1_support_after_collapse_to_four(self, debug_ctx):
        # the textbook layout from the same oracle: find a run where REG2
        # collapses to 4, then inspect REG1's support
        for seed in range(50):
            ctx = debug_ctx(seed=seed)
            reg = ctx.allocate_register(12)
            reg1 = reg.slice_to(7)
            reg2 = reg.slice_from(8)
            reg2.set_from_unsigned(1)
            reg1.apply_operations(hadamard_all_ops(range(8)).ops)
            apply_cascade(reg, 8, 15, 4)
            if reg2.measure().to_unsigned() != 4:
                continue
            amplitudes = reg1.peek_amplitudes()
            support = set(np.flatnonzero(np.abs(amplitudes) > 1e-9).tolist())
            assert support == set(range(2, 256, 4))  # x with 8^x mod 15 == 4
            return
        pytest.fail("REG2 never collapsed to 4 over 50 seeds")

    @pytest.mark.parametrize("modulus, m, trials", [(15, 7, 600), (21, 2, 600), (33, 5, 600)])
    def test_samples_follow_the_exact_distribution(self, modulus, m, trials):
        # every (c, f) must be possible, and the c-marginal must sit as close
        # to the exact one as draws from the exact distribution itself do: its
        # TV distance may not exceed the largest of 200 exact multinomial draws
        joint = exact_joint(modulus, m)
        ctx = SimulationContext(seed=modulus)
        work = ctx.allocate_register(modulus.bit_length() + 1)
        counts = np.zeros(joint.shape[1])
        for _ in range(trials):
            sample = shor_quantum_step(ctx, modulus, m, register=work)
            assert sample.modulus == joint.shape[1]
            assert joint[sample.f_value, sample.measured] > 1e-12, sample
            counts[sample.measured] += 1
        exact = joint.sum(axis=0)
        rng = np.random.default_rng(0)
        bound = max(np.abs(rng.multinomial(trials, exact / exact.sum()) / trials - exact).sum() / 2
                    for _ in range(200))
        assert np.abs(counts / trials - exact).sum() / 2 <= bound

    def test_reg1_measurement_support(self):
        # oracle: the DFT of a period-4 arithmetic progression over 256 points
        # is supported exactly on multiples of 64
        indicator = np.zeros(256, dtype=complex)
        indicator[2::4] = 0.125
        spectrum = np.fft.fft(indicator) / math.sqrt(256)
        oracle_support = set(np.flatnonzero(np.abs(spectrum) > 1e-9).tolist())
        assert oracle_support == {0, 64, 128, 192}

        seen = set()
        for trial in range(200):
            ctx = SimulationContext(seed=sharq.trial_seed(500, trial))
            sample = shor_quantum_step(ctx, 15, 8)
            assert sample.modulus == 256
            seen.add(sample.measured)
        assert seen == oracle_support

    def test_every_round_is_four_engine_calls(self, monkeypatch):
        # H, the multiply and the readout gate, then one measurement per
        # round; the work register is measured once at the end
        calls = {"_apply": 0, "_measure": 0}

        def counted(name):
            original = getattr(SimulationContext, name)

            def wrapper(ctx, *args):
                calls[name] += 1
                return original(ctx, *args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(SimulationContext, name, counted(name))
        n = 6  # bits of N=35
        for seed in range(10):
            calls.update(_apply=0, _measure=0)
            shor_quantum_step(SimulationContext(seed=seed), 35, 2)
            assert calls == {"_apply": 3 * 2 * n, "_measure": 2 * n + 1}, seed

    def test_register_reuse(self):
        ctx = SimulationContext(seed=9)
        work = ctx.allocate_register(5)
        first = shor_quantum_step(ctx, 15, 8, register=work)
        second = shor_quantum_step(ctx, 15, 8, register=work)
        assert ctx.physical_count == 5
        for sample in (first, second):
            assert sample.measured in {0, 64, 128, 192}

    @pytest.mark.parametrize("oracle", ["semantic", "circuit"])
    def test_tables_stay_within_the_step_width(self, monkeypatch, oracle):
        # no operation, and no basis trace, a step builds holds more than
        # 2**(n+1) entries; at N=77 the 3n-qubit U_f held 2**21
        sizes = []
        post_init = QuantumOperation.__post_init__

        def recording(op):
            post_init(op)
            sizes.append(op.dimension)

        def tracing(ops, width, value):
            sizes.append(np.size(value))
            return run_on_basis(ops, width, value)

        monkeypatch.setattr(QuantumOperation, "__post_init__", recording)
        monkeypatch.setattr(algorithms, "run_on_basis", tracing)
        algorithms.semantic_uf.cache_clear()
        algorithms.circuit_uf.cache_clear()
        shor_quantum_step(SimulationContext(seed=3), 77, 2, oracle=oracle)
        assert sizes and max(sizes) <= 1 << 8

    def test_circuit_oracle_runs_at_its_real_width(self):
        # N=3 has n=2: the step runs on the control plus 2 work qubits. m=2
        # has period 2, so the sample is k*16/2: the support {0, 8}. Both
        # oracles make the same 2n+1 draws from the same distributions, so
        # each seed must give the same sample through either.
        circuit_seen, semantic_seen = set(), set()
        for seed in range(4):
            ctx = SimulationContext(seed=seed)
            circuit = shor_quantum_step(ctx, 3, 2, oracle="circuit")
            assert ctx.physical_count == 3
            semantic = shor_quantum_step(SimulationContext(seed=seed), 3, 2)
            assert circuit == semantic
            circuit_seen.add(circuit.measured)
            semantic_seen.add(semantic.measured)
        assert circuit_seen == semantic_seen == {0, 8}

    def test_circuit_oracle_needs_width(self):
        # the gate-built round compiles to the semantic permutation, so at
        # N=15 each seed gives the same sample through either oracle at 5 qubits
        for seed in range(4):
            ctx = SimulationContext(seed=seed)
            circuit = shor_quantum_step(ctx, 15, 8, oracle="circuit")
            assert ctx.physical_count == 5
            assert circuit == shor_quantum_step(SimulationContext(seed=seed), 15, 8)

    def test_circuit_oracle_refuses_a_circuit_that_leaves_an_ancilla_set(self, monkeypatch):
        # without its last gate the round's swap leaves a temp qubit holding a bit
        monkeypatch.setattr(algorithms, "_multiply_round", lambda *args: _multiply_round(*args)[:-1])
        circuit_uf.cache_clear()
        try:
            with pytest.raises(OracleCompilationError, match="ancilla"):
                shor_quantum_step(SimulationContext(seed=0), 15, 8, oracle="circuit")
        finally:
            circuit_uf.cache_clear()

    def test_circuit_oracle_refused_before_the_state_is_touched(self, debug_ctx):
        # N=2049 has n=12: the round would trace 5n+3 = 63 qubits, past the limit
        ctx = debug_ctx()
        work = ctx.allocate_register(13).set_from_unsigned(5)
        before = ctx._state.copy()
        with pytest.raises(InvalidParameterError, match="62"):
            shor_quantum_step(ctx, 2049, 2, oracle="circuit", register=work)
        assert np.array_equal(ctx._state, before)

    def test_invalid_m(self):
        ctx = SimulationContext(seed=0)
        with pytest.raises(InvalidParameterError):
            shor_quantum_step(ctx, 15, 5)

    def test_unknown_oracle_refused(self):
        ctx = SimulationContext(seed=0)
        with pytest.raises(InvalidParameterError, match="oracle must be"):
            shor_quantum_step(ctx, 15, 7, oracle="table")
        assert ctx.physical_count == 0

    def test_register_of_the_wrong_width_refused(self, debug_ctx):
        ctx = debug_ctx()
        work = ctx.allocate_register(4).set_from_unsigned(5)
        before = ctx._state.copy()
        with pytest.raises(SizeMismatchError, match="5 qubits"):
            shor_quantum_step(ctx, 15, 7, register=work)
        assert np.array_equal(ctx._state, before)


class TestExtractPeriod:
    def test_convergent_denominators(self):
        assert _convergent_denominators(64, 256) == [1, 4]
        assert _convergent_denominators(192, 256) == [1, 1, 4]

    def test_quarter_sample(self):
        assert pow(8, 4, 15) == 1  # oracle check before freezing the expectation
        assert extract_period([PeriodSample(64, 256)], 8, 15) == 4

    def test_zero_sample_is_degenerate(self):
        assert extract_period([PeriodSample(0, 256)], 8, 15) is None

    def test_three_quarters_sample(self):
        assert extract_period([PeriodSample(192, 256)], 8, 15) == 4

    def test_half_sample_recovers_via_doubling(self):
        # c=128 reduces to 1/2; the lost factor of two is recovered by
        # validating the doubled denominator, so no resample is needed
        assert pow(8, 2, 15) != 1 and pow(8, 4, 15) == 1
        assert extract_period([PeriodSample(128, 256)], 8, 15) == 4

    def test_every_nonzero_sample_recovers_the_period(self):
        for c in (64, 128, 192):
            assert extract_period([PeriodSample(c, 256)], 8, 15) == 4

    def test_lcm_combination(self):
        # order of 2 mod 13 is 12; samples near k/12 with k=3,4 give
        # denominators 4 and 3 (doubles 8 and 6, all invalid alone);
        # lcm(4,3)=12 is validated
        assert pow(2, 12, 13) == 1
        for d in (3, 4, 6, 8):
            assert pow(2, d, 13) != 1
        samples = [PeriodSample(64, 256), PeriodSample(85, 256)]
        assert extract_period(samples, 2, 13) == 12
        assert extract_period([PeriodSample(64, 256)], 2, 13) is None
        assert extract_period([PeriodSample(85, 256)], 2, 13) is None

    def test_resample_rate_is_the_zero_branch(self):
        # over live samples, only c=0 signals a resample (about a quarter)
        zeroes = 0
        trials = 400
        for trial in range(trials):
            ctx = SimulationContext(seed=sharq.trial_seed(600, trial))
            sample = shor_quantum_step(ctx, 15, 8)
            period = extract_period([sample], 8, 15)
            if sample.measured == 0:
                zeroes += 1
                assert period is None
            else:
                assert period == 4
        assert abs(zeroes / trials - 0.25) < 0.1


class TestDeutsch:
    @pytest.mark.parametrize("oracle,expected", [
        (lambda x: 0, "constant"),
        (lambda x: 1, "constant"),
        (lambda x: x, "balanced"),
        (lambda x: 1 - x, "balanced"),
    ])
    def test_deterministic_classification(self, oracle, expected):
        for seed in range(10):
            ctx = SimulationContext(seed=seed)
            assert deutsch(ctx, oracle) == expected

    def test_oracle_must_return_bits(self):
        ctx = SimulationContext(seed=0)
        with pytest.raises(InvalidParameterError, match="bits"):
            deutsch(ctx, lambda x: 2 * x)
        assert ctx.physical_count == 0
