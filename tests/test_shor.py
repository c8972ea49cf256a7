import pytest

from sharq import SimulationContext
from sharq.errors import InvalidParameterError, ResourceExhaustedError
from sharq.numtheory import bits_to_express, gcd, is_prime, is_prime_power, mod_pow
from sharq.shor import shor_factor

# f(x) = 8^x mod 15 from the worked factoring trace
WORKED_F_TABLE = [1, 8, 4, 2, 1, 8, 4, 2, 1, 8, 4, 2, 1, 8, 4, 2]


class TestGcd:
    def test_worked_values(self):
        assert gcd(8, 15) == 1
        assert gcd(65, 15) == 5
        assert gcd(63, 15) == 3

    def test_zero_argument(self):
        assert gcd(7, 0) == 7
        with pytest.raises(InvalidParameterError):
            gcd(0, 0)


class TestModPow:
    def test_worked_table(self):
        for x, want in enumerate(WORKED_F_TABLE):
            assert mod_pow(8, x, 15) == want

    def test_matches_recurrence_oracle(self):
        # f(x) = (f(x-1) * m) mod N, the overflow-free evaluation order
        previous = 1
        for x in range(1, 200):
            previous = (previous * 7) % 23
            assert mod_pow(7, x, 23) == previous

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            mod_pow(2, 3, 1)
        with pytest.raises(InvalidParameterError):
            mod_pow(2, -1, 5)


class TestBitsToExpress:
    def test_values(self):
        assert bits_to_express(15) == 4
        assert bits_to_express(1) == 1
        assert bits_to_express(16) == 5  # ceil(log2(17)) bits

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            bits_to_express(0)


class TestPrimality:
    def test_is_prime(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
        for value in range(2, 25):
            assert is_prime(value) == (value in primes)

    def test_is_prime_power(self):
        assert is_prime_power(9)
        assert is_prime_power(27)
        assert is_prime_power(32)
        assert not is_prime_power(15)
        assert not is_prime_power(21)


class TestPreconditions:
    @pytest.mark.parametrize("bad", [14, 13, 9, 27, 25, 1])
    def test_rejected(self, bad):
        with pytest.raises(InvalidParameterError):
            shor_factor(SimulationContext(seed=0), bad)

    def test_forced_m_bounds(self):
        with pytest.raises(InvalidParameterError):
            shor_factor(SimulationContext(seed=0), 15, force_m=15)
        with pytest.raises(InvalidParameterError):
            shor_factor(SimulationContext(seed=0), 15, force_m=1)


class TestFactoring:
    def test_worked_trace_with_forced_m(self):
        ctx = SimulationContext(seed=7)
        outcome = shor_factor(ctx, 15, force_m=8)
        assert outcome.factors == (3, 5)
        final = outcome.trace[-1]
        assert final.status == "factored"
        assert final.period == 4
        assert all(record.m == 8 for record in outcome.trace)

    def test_gcd_shortcut_branch(self):
        ctx = SimulationContext(seed=0)
        outcome = shor_factor(ctx, 15, force_m=5)
        assert outcome.factors == (3, 5)
        assert outcome.trace[-1].status == "gcd-shortcut"
        assert ctx.physical_count == 0  # no quantum step was needed

    def test_seed_42(self):
        outcome = shor_factor(SimulationContext(seed=42), 15)
        assert outcome.factors == (3, 5)
        assert len(outcome.trace) <= 32

    def test_factor_21(self):
        outcome = shor_factor(SimulationContext(seed=3), 21)
        assert outcome.factors == (3, 7)

    def test_product_invariant_across_seeds(self):
        for seed in range(12):
            outcome = shor_factor(SimulationContext(seed=seed), 15)
            p, q = outcome.factors
            assert p * q == 15
            assert 1 < p <= q < 15

    def test_trace_is_reproducible(self):
        first = shor_factor(SimulationContext(seed=1234), 15)
        second = shor_factor(SimulationContext(seed=1234), 15)
        assert first.factors == second.factors
        assert [(r.m, r.status, r.period) for r in first.trace] == [
            (r.m, r.status, r.period) for r in second.trace
        ]
        firsts = [r.sample.measured for r in first.trace if r.sample]
        seconds = [r.sample.measured for r in second.trace if r.sample]
        assert firsts == seconds

    def test_rejections_never_emit_trivial_factors(self):
        for seed in range(10):
            outcome = shor_factor(SimulationContext(seed=seed), 21)
            p, q = outcome.factors
            assert p * q == 21 and p > 1 and q < 21

    def test_budget_exhaustion(self):
        # order of 14 mod 15 is 2 and 14 == -1 (mod 15): every iteration is a
        # trivial-root rejection, so the budget must fire
        ctx = SimulationContext(seed=1)
        with pytest.raises(ResourceExhaustedError):
            shor_factor(ctx, 15, force_m=14)

    @pytest.mark.parametrize("oracle", ["semantic", "circuit"])
    def test_qubit_reuse_stays_under_cap(self, oracle):
        ctx = SimulationContext(seed=1)
        try:
            shor_factor(ctx, 15, force_m=14, oracle=oracle)
        except ResourceExhaustedError:
            pass
        assert ctx.physical_count == 12  # one work register, reused every iteration

    def test_circuit_oracle_exceeds_the_cap_for_real_inputs(self):
        # the gate-built U_f compiles to 3n qubits, so N=15 factors under the cap
        for seed in range(4):
            ctx = SimulationContext(seed=seed)
            outcome = shor_factor(ctx, 15, force_m=8, oracle="circuit")
            assert outcome.factors == (3, 5)
            assert outcome.trace == shor_factor(SimulationContext(seed=seed), 15, force_m=8).trace
            assert ctx.physical_count == 12
