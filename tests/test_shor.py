import math
import time

import numpy as np
import pytest

from sharq import SimulationContext, algorithms
from sharq.algorithms import PeriodSample
from sharq.errors import InvalidParameterError, QubitLimitExceededError, ResourceExhaustedError
from sharq.numtheory import (
    bits_to_express,
    gcd,
    is_prime,
    is_prime_power,
    mod_pow,
)
from sharq.shor import MAX_ITERATIONS, shor_factor

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

    def test_nothing_below_two_is_a_prime_power(self):
        assert not any(is_prime_power(v) for v in (1, 0, -8))

    def test_the_screens_agree_with_trial_division(self):
        def smallest_factor(v):
            return next((d for d in range(2, math.isqrt(v) + 1) if v % d == 0), v)

        for v in range(-5, 30000):
            prime = v >= 2 and smallest_factor(v) == v
            assert is_prime(v) == prime, v
            power = v >= 2
            if power:
                p, rest = smallest_factor(v), v
                while rest % p == 0:
                    rest //= p
                power = rest == 1
            assert is_prime_power(v) == power, v

    @pytest.mark.parametrize("pseudoprime", [
        # the smallest strong pseudoprime to the first 1, 2, ..., 9 and 12 prime bases
        2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 3825123056546413051, 318665857834031151167461,
    ])
    def test_strong_pseudoprimes_are_composite(self, pseudoprime):
        assert not is_prime(pseudoprime)
        assert not is_prime_power(pseudoprime)

    @pytest.mark.parametrize("value, prime, power", [
        (2**61 - 1, True, True), ((2**31 - 1) ** 2, False, True),
        (3**38, False, True), (2**61, False, True), ((2**31 - 1) * (2**61 - 1), False, False),
    ])
    def test_wide_values_are_exact(self, value, prime, power):
        assert (is_prime(value), is_prime_power(value)) == (prime, power)


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

    @pytest.mark.parametrize("n_value", [2**80 + 1, 2**61 - 1])
    def test_an_n_past_the_room_is_refused_before_screening_or_drawing(self, n_value):
        # 2**80 + 1 would reach numpy's int64 draw; the prime 2**61 - 1 would spend
        # about 90 s in trial division before being refused as prime
        ctx = SimulationContext(seed=1)
        start = time.perf_counter()
        with pytest.raises(QubitLimitExceededError, match=f"allocating {n_value.bit_length() + 1} qubits"):
            shor_factor(ctx, n_value)
        assert time.perf_counter() - start < 0.1
        assert ctx.physical_count == 0

    def test_a_wide_prime_is_refused_at_once(self):
        # a 61-bit prime fits a 62-qubit context, so the primality screen refuses it
        start = time.perf_counter()
        with pytest.raises(InvalidParameterError, match="prime 2305843009213693951"):
            shor_factor(SimulationContext(seed=1, qubit_cap=62), 2**61 - 1)
        assert time.perf_counter() - start < 0.1
        with pytest.raises(InvalidParameterError, match="prime power"):
            shor_factor(SimulationContext(seed=1, qubit_cap=62), 3**38)

    @pytest.mark.parametrize("oracle", ["bogus", ["semantic"], None])
    def test_an_unknown_oracle_is_refused_even_when_a_gcd_would_end_the_loop(self, oracle):
        # m = 5 shares a factor with 15, so the step that checks the name never runs
        for m in (5, 7):
            with pytest.raises(InvalidParameterError, match="oracle must be 'semantic' or 'circuit'"):
                shor_factor(SimulationContext(seed=0), 15, force_m=m, oracle=oracle)

    def test_forced_m_must_be_an_integer(self):
        expected = shor_factor(SimulationContext(seed=0), 15, force_m=7)
        assert shor_factor(SimulationContext(seed=0), 15, force_m=np.int64(7)) == expected
        for other in (7.5, 7.0, np.float64(7)):
            with pytest.raises(InvalidParameterError, match="must be an integer"):
                shor_factor(SimulationContext(seed=0), 15, force_m=other)


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

    def test_no_m_repeats_within_a_trace(self, monkeypatch):
        # every step reads the degenerate sample 0, so the loop draws bases
        # until a gcd shortcut or the iteration budget; none may repeat
        drawn = []

        def degenerate_step(ctx, n_value, m, **kwargs):
            drawn.append(m)
            return PeriodSample(0, 1 << 18)

        monkeypatch.setattr(algorithms, "shor_quantum_step", degenerate_step)
        total = 0
        for seed in range(20):
            drawn.clear()
            try:
                drawn.append(shor_factor(SimulationContext(seed=seed), 323).trace[-1].m)
            except ResourceExhaustedError:
                assert len(drawn) == MAX_ITERATIONS
            assert len(drawn) == len(set(drawn)), (seed, drawn)
            total += len(drawn)
        assert total > 100

    def test_budget_exhaustion(self):
        # order of 14 mod 15 is 2 and 14 == -1 (mod 15): every iteration is a
        # trivial-root rejection, so the budget must fire
        ctx = SimulationContext(seed=1)
        with pytest.raises(ResourceExhaustedError):
            shor_factor(ctx, 15, force_m=14)

    def test_odd_period_is_rejected(self):
        # seed 10 draws m=16 first, and 16 has order 3 mod 21
        outcome = shor_factor(SimulationContext(seed=10), 21)
        first = outcome.trace[0]
        assert (first.iteration, first.m, first.status, first.period) == (1, 16, "odd-period", 3)
        assert outcome.factors == (3, 7)

    def test_a_period_whose_root_is_one_finds_no_factor(self, monkeypatch):
        # 8 is a multiple of the order 4 of 7 mod 15, so the root 7**4 mod 15 is 1
        # and both gcds are trivial; the next iteration extracts the true period
        periods = [8]
        extract = algorithms.extract_period
        monkeypatch.setattr(algorithms, "extract_period",
                            lambda *args: periods.pop() if periods else extract(*args))
        outcome = shor_factor(SimulationContext(seed=0), 15, force_m=7)
        assert [(r.status, r.period) for r in outcome.trace] == [("no-factor", 8), ("factored", 4)]
        assert outcome.factors == (3, 5)

    def test_budget_exhaustion_on_odd_periods(self):
        # 4 has order 3 mod 21: every iteration is an odd-period rejection
        with pytest.raises(ResourceExhaustedError, match=f"within {MAX_ITERATIONS} iterations"):
            shor_factor(SimulationContext(seed=1), 21, force_m=4)

    @pytest.mark.parametrize("oracle", ["semantic", "circuit"])
    def test_qubit_reuse_stays_under_cap(self, oracle):
        ctx = SimulationContext(seed=1)
        try:
            shor_factor(ctx, 15, force_m=14, oracle=oracle)
        except ResourceExhaustedError:
            pass
        assert ctx.physical_count == 5  # one control plus four work qubits, reused every iteration

    def test_circuit_oracle_exceeds_the_cap_for_real_inputs(self):
        # the gate-built round compiles to n+1 qubits, so N=15 factors under the cap
        for seed in range(4):
            ctx = SimulationContext(seed=seed)
            outcome = shor_factor(ctx, 15, force_m=8, oracle="circuit")
            assert outcome.factors == (3, 5)
            assert outcome.trace == shor_factor(SimulationContext(seed=seed), 15, force_m=8).trace
            assert ctx.physical_count == 5
