"""Classical control loop for factoring via quantum period finding.

The loop: draw a random untried m in (1, N); a nontrivial gcd(m, N) is a
lucky factor; otherwise run the quantum step, extract the period P, reject
odd P and m**(P/2) == -1 (mod N), and emit gcd(m**(P/2) +- 1, N).
"""
from __future__ import annotations

from dataclasses import dataclass

from .engine import SimulationContext
from .errors import InvalidParameterError, ResourceExhaustedError, as_int
from .numtheory import (
    bits_to_express,
    gcd,
    is_prime,
    is_prime_power,
    mod_pow,
)

MAX_ITERATIONS = 32
SMALLEST_SUPPORTED = 15


@dataclass(frozen=True)
class IterationRecord:
    """One pass through the factoring loop."""

    iteration: int
    m: int
    status: str  # gcd-shortcut | degenerate-sample | odd-period | trivial-root | no-factor | factored
    sample: "PeriodSample | None" = None
    period: int | None = None


@dataclass(frozen=True)
class FactoringOutcome:
    n_value: int
    factors: tuple[int, int]
    trace: tuple[IterationRecord, ...]


def _screen(ctx: SimulationContext, n_value: int):
    if n_value % 2 == 0:
        raise InvalidParameterError(f"N must be odd, got the even number {n_value}")
    if n_value < SMALLEST_SUPPORTED:
        raise InvalidParameterError(f"N must be at least {SMALLEST_SUPPORTED}, got {n_value}")
    # the step's register is refused as allocate_register would refuse it, before
    # the primality tests and before any draw
    ctx._require_room(bits_to_express(n_value) + 1)
    if is_prime(n_value):
        raise InvalidParameterError(f"N must be composite, got the prime {n_value}")
    if is_prime_power(n_value):
        raise InvalidParameterError(
            f"N must not be a prime power, got {n_value} (use classical root extraction)"
        )


def _judge(m: int, period: int | None, n_value: int) -> tuple[str, int | None]:
    """The status of a quantum step whose period for base ``m`` came out as ``period``
    (None: a degenerate sample), and the factor of ``n_value`` it gives if "factored"."""
    if period is None:
        return "degenerate-sample", None
    if period % 2:
        return "odd-period", None
    root = mod_pow(m, period // 2, n_value)
    if (root + 1) % n_value == 0:
        return "trivial-root", None
    for candidate in (gcd(root - 1, n_value), gcd(root + 1, n_value)):
        if 1 < candidate < n_value:
            return "factored", candidate
    # root == 1 (mod N): the extracted period was a multiple of the order
    return "no-factor", None


def shor_factor(ctx: SimulationContext, n_value: int, force_m: int | None = None,
                oracle: str = "semantic") -> FactoringOutcome:
    """Factor an odd composite N into (p, q) with p*q == N.

    ``force_m`` pins the random base; it exists to reproduce worked traces
    deterministically. ``oracle`` selects the semantic oracle (default) or the
    one compiled from the gate-built circuit; every step reuses one n+1 qubit register.
    """
    # bound per call, not at import: tests and the bench tracer patch these on ``algorithms``
    from .algorithms import _check_oracle, extract_period, shor_quantum_step

    n_value = as_int(n_value, "N")
    _screen(ctx, n_value)
    if force_m is not None and not 1 < (force_m := as_int(force_m, "m")) < n_value:
        raise InvalidParameterError(f"forced m must satisfy 1 < m < N, got {force_m}")
    _check_oracle(oracle)  # refused before a lucky gcd could end the loop unchecked

    n_bits = bits_to_express(n_value)
    work = None
    tried: set[int] = set()
    trace: list[IterationRecord] = []
    for iteration in range(1, MAX_ITERATIONS + 1):
        if force_m is not None:
            m = force_m
        else:
            # an untried m always remains: drawing one that shares a factor
            # with N ends the loop, so not every candidate can have been tried
            m = int(ctx.rng.integers(2, n_value))
            while m in tried:  # rejection sampling
                m = int(ctx.rng.integers(2, n_value))
            tried.add(m)

        status, factor, sample, period = "gcd-shortcut", gcd(m, n_value), None, None
        if factor == 1:
            if work is None:
                work = ctx.allocate_register(n_bits + 1)
            sample = shor_quantum_step(ctx, n_value, m, oracle=oracle, register=work)
            period = extract_period([sample], m, n_value)
            status, factor = _judge(m, period, n_value)
        trace.append(IterationRecord(iteration, m, status, sample, period))
        if factor is not None:
            p, q = sorted((factor, n_value // factor))
            return FactoringOutcome(n_value, (p, q), tuple(trace))

    raise ResourceExhaustedError(
        f"no factor of {n_value} found within {MAX_ITERATIONS} iterations"
    )
