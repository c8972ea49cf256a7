"""The benchmark's workloads: seeded requests, their execution, and checks.

Every request is generated from ``(seed, index)`` alone, so a seed fixes the
whole request stream. The library only ever receives the generated inputs
(numbers to factor, per-request context seeds, CLI arguments).

Each ``execute`` returns an ``Outcome`` that counts the operations it checked
and how many passed. An operation fails when a checker rejects an output the
program produced (``problems``; this makes the run incorrect) or when it
raised, which includes untyped exceptions such as ``MemoryError``
(``error``). ``record`` is the JSON-able output the fingerprint hashes.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from sharq import algorithms, arithmetic, cli
from sharq.engine import SimulationContext
from sharq.errors import SharqError
from sharq.shor import shor_factor


@dataclass
class Outcome:
    kind: str
    checks: int = 1
    passed: int = 0
    problems: list = field(default_factory=list)
    error: str = ""
    record: list = field(default_factory=list)
    values: dict = field(default_factory=dict)  # what the request measured: seconds, counts

    def check(self, problem: str):
        """Count one checked operation; an empty ``problem`` means it passed."""
        if problem:
            self.problems.append(problem)
        else:
            self.passed += 1

    @property
    def failed(self) -> int:
        return self.checks - self.passed


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(index)])


def _context_seed(rng) -> int:
    return int(rng.integers(0, 2**31))


def _run_cli(rec, argv) -> tuple[int, list[str], float]:
    """Call ``sharq.cli.main`` in-process; returns (exit code, stdout lines, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), rec.span("cli.main"):
        began = time.perf_counter()
        code = cli.main(argv)
        took = time.perf_counter() - began
    return code, out.getvalue().splitlines(), took


def guarded(execute):
    """Turn an exception raised by the program into a recorded failure."""
    def run(self, request, rec) -> Outcome:
        outcome = Outcome(str(request[0]), checks=self.checks_per(request))
        try:
            execute(self, request, rec, outcome)
        except Exception as exc:  # any exception is the program's failure, never the bench's crash
            outcome.error = f"{type(exc).__name__}: {exc}"[:200]
            outcome.record.append(["raised", type(exc).__name__])
        return outcome
    return run


# --- checks ----------------------------------------------------------------

def multiplicative_order(m: int, modulus: int) -> int:
    order, value = 1, m % modulus
    while value != 1:
        value = (value * m) % modulus
        order += 1
    return order


def sample_probability(measured: int, modulus_q: int, f_value: int, m: int, n_value: int) -> float:
    """Exact chance of reading ``measured`` from REG1 once REG2 collapsed to ``f_value``.

    REG1 then holds the uniform superposition of every x < Q with
    m**x = f_value (mod N), that is x0, x0 + r, x0 + 2r, ... for the order
    r, and the inverse QFT turns that into
    |sum_j exp(2 pi i c (x0 + j r) / Q)|^2 / (Q * count).
    """
    if not 0 <= measured < modulus_q:
        return 0.0
    r = multiplicative_order(m, n_value)
    powers = [pow(m, x, n_value) for x in range(r)]
    if f_value not in powers:
        return 0.0
    xs = np.arange(powers.index(f_value), modulus_q, r)
    amplitude = np.exp(2j * np.pi * measured * xs / modulus_q).sum()
    return float(abs(amplitude) ** 2 / (modulus_q * len(xs)))


def check_period_sample(sample, m: int, n_value: int) -> str:
    if sample.f_value is None:
        return "sample has no REG2 value"
    if sample_probability(sample.measured, sample.modulus, sample.f_value, m, n_value) < 1e-9:
        return f"impossible sample {sample.measured}/{sample.modulus} with f={sample.f_value}"
    return ""


def check_factoring(n_value: int, outcome) -> str:
    """Empty when the factors and every step of the trace are consistent."""
    p, q = outcome.factors
    if not (1 < p <= q < n_value and p * q == n_value):
        return f"factors {outcome.factors} do not multiply to {n_value}"
    for record in outcome.trace:
        if record.sample is not None:
            problem = check_period_sample(record.sample, record.m, n_value)
            if problem:
                return problem
        if record.period is not None and pow(record.m, record.period, n_value) != 1:
            return f"period {record.period} fails m**P = 1 (mod {n_value}) for m={record.m}"
    if outcome.trace[-1].status not in ("factored", "gcd-shortcut"):
        return f"last iteration has status {outcome.trace[-1].status!r}"
    return ""


def check_tally(lines: list[str], support: set[str], trials: int, seed: int,
                took_s: float) -> tuple[str, dict]:
    """Parse ``--output json`` lines; the problem is empty when the tally is right."""
    try:
        rows = [json.loads(line) for line in lines]
        summary, tally = rows[-1], {row["outcome"]: row["count"] for row in rows[:-1]}
        reported = (summary["trials"], summary["seed"], summary["elapsed_ms"])
    except (ValueError, KeyError, IndexError, TypeError):
        return "output is not outcome lines plus a summary line", {}
    if set(tally) != support:
        return f"support {sorted(tally)} differs from {sorted(support)}", tally
    if sum(tally.values()) != trials or reported[0] != trials:
        return f"counts sum to {sum(tally.values())}, not {trials}", tally
    if reported[1] != seed:
        return f"summary seed {reported[1]} differs from {seed}", tally
    if not 0 <= reported[2] <= took_s * 1e3 + 1:
        return f"elapsed_ms {reported[2]} exceeds the caller's {took_s * 1e3:.1f} ms", tally
    return "", tally


def field_of(value: int, width: int, start: int, stop: int) -> int:
    """Big-endian field [start, stop) of a ``width``-qubit measurement."""
    return (value >> (width - stop)) & ((1 << (stop - start)) - 1)


# Register layouts of the arith plans, as [start, stop) ranges of qubit indices.
# add_n_ops, n=7 (22 qubits): x 0-6 superposed, y 7-13 classical, ancillas 14-21.
# modular_add_ops, n=4 (18 qubits): x 0-3 with its low three bits superposed
#   (so x < 8 <= modulus), y 4-7, modulus 8-11, scratch 12-16, flag 17.
# controlled_modular_multiply_ops, n=3 (18 qubits): control 0 and the low two
#   bits of x 1-3 superposed (x < 4 <= modulus), y 4-6, modulus 7-9, scratch 10-17.
# modular_exponentiation_ops, N=15 (30 bits): REG1 0-7, REG2 8-11 holding 1, ancillas 12-29.
MODEXP_WIDTH = 30


def modexp_input(x: int) -> int:
    return (x << 22) | (1 << 18)


def check_add(out: int, y_in: int) -> str:
    x, rest = field_of(out, 22, 0, 7), field_of(out, 22, 15, 22)
    total = field_of(out, 22, 14, 15) << 7 | field_of(out, 22, 7, 14)  # carry-out, then Y
    good = total == x + y_in and not rest
    return "" if good else f"add_n: {x} + {y_in} gave {total}, ancillas {rest}"


def check_modular_add(out: int, modulus: int, y_in: int) -> str:
    x, y = field_of(out, 18, 0, 4), field_of(out, 18, 4, 8)
    held, rest = field_of(out, 18, 8, 12), field_of(out, 18, 12, 18)
    good = y == (x + y_in) % modulus and held == modulus and not rest
    return "" if good else f"modadd mod {modulus}: {x} + {y_in} gave {y} (modulus {held}, scratch {rest})"


def check_controlled_multiply(out: int, modulus: int, multiplier: int) -> str:
    control, x, y = field_of(out, 18, 0, 1), field_of(out, 18, 1, 4), field_of(out, 18, 4, 7)
    held, rest = field_of(out, 18, 7, 10), field_of(out, 18, 10, 18)
    want = (multiplier * x) % modulus if control else x
    good = y == want and held == modulus and not rest
    return "" if good else f"cmm {multiplier}*{x} mod {modulus} (control {control}) gave {y}"


def check_modexp(out: int, x: int, base: int, modulus: int) -> str:
    reg1, reg2 = field_of(out, MODEXP_WIDTH, 0, 8), field_of(out, MODEXP_WIDTH, 8, 12)
    rest = field_of(out, MODEXP_WIDTH, 12, MODEXP_WIDTH)
    good = reg1 == x and reg2 == pow(base, x, modulus) and not rest
    return "" if good else f"modexp {base}**{x} mod {modulus} traced to {reg2} (REG1 {reg1}, ancillas {rest})"


# --- factor ------------------------------------------------------------------

class Factor:
    """``shor_factor`` on 6-bit odd semiprimes (18 qubits), a share of requests
    that must be refused, and one fixed-m 21-qubit quantum step at N=77.

    ``oracle="circuit"`` at N=15 is not requested: it escapes today as an
    untyped ``MemoryError`` (the circuit path allocates 38 qubits before the
    cap is checked), a failure whose count would follow the length of the run
    rather than the program. The circuit-oracle tests under ``tests/`` record
    that defect; once it is refused with a typed error it can come back here.
    """

    name = "factor"
    prefix = 11
    rate, p50, tail = "steps_per_s", "step_p50_ms", "step_tail_ms"
    widths = (18, 21)
    SEMIPRIMES = (33, 35, 39, 51, 55, 57)
    REFUSALS = {"even": (34, 38, 46, 58, 62), "prime": (37, 41, 43, 47, 53, 59, 61),
                "prime-power": (25, 27, 49)}
    REFUSAL_SHARE = 0.2
    WIDE_N = 77

    def __init__(self, seed: int):
        self.seed = seed

    def request(self, index: int) -> tuple:
        rng = _rng(self.seed, index)
        if index == 0:
            m = int(rng.choice([c for c in range(2, self.WIDE_N) if math.gcd(c, self.WIDE_N) == 1]))
            return ("wide", self.WIDE_N, m, _context_seed(rng))
        if rng.random() < self.REFUSAL_SHARE:
            kind = str(rng.choice(sorted(self.REFUSALS)))
            return (kind, int(rng.choice(self.REFUSALS[kind])), None, _context_seed(rng))
        return ("semiprime", int(rng.choice(self.SEMIPRIMES)), None, _context_seed(rng))

    @staticmethod
    def checks_per(request) -> int:
        return 1

    @guarded
    def execute(self, request, rec, outcome: Outcome):
        kind, n_value, m, ctx_seed = request
        if kind == "wide":
            began = time.perf_counter()
            sample = algorithms.shor_quantum_step(SimulationContext(seed=ctx_seed), n_value, m)
            outcome.values["wide_s"] = time.perf_counter() - began
            outcome.record = [n_value, m, sample.measured, sample.f_value]
            outcome.check(check_period_sample(sample, m, n_value))
        elif kind == "semiprime":
            steps = rec.step_s.setdefault(3 * n_value.bit_length(), [])
            first = len(steps)
            with rec.span("shor.factor"):
                began = time.perf_counter()
                result = shor_factor(SimulationContext(seed=ctx_seed), n_value)
                outcome.values["factor_s"] = time.perf_counter() - began
            outcome.values["steps_s"] = steps[first:]
            trace = result.trace
            outcome.record = [n_value, list(result.factors), [
                [r.status, r.m, None if r.sample is None else r.sample.measured,
                 None if r.sample is None else r.sample.f_value, r.period] for r in trace]]
            outcome.values.update(iterations=len(trace),
                                  quantum_steps=sum(r.sample is not None for r in trace),
                                  from_period=int(trace[-1].status == "factored"))
            outcome.check(check_factoring(n_value, result))
        else:
            try:
                with rec.span("shor.factor"):
                    shor_factor(SimulationContext(seed=ctx_seed), n_value)
            except SharqError as exc:
                outcome.record = [n_value, type(exc).__name__]
                outcome.check("")
            else:
                outcome.record = [n_value, "accepted"]
                outcome.check(f"{kind} N={n_value} was not refused")

    def metrics(self, outcomes, scaled: bool) -> dict:
        steps = [t * 1e3 * _scale(o, scaled) for o in outcomes for t in o.values.get("steps_s", ())]
        factor_s = sum(seconds(outcomes, "factor_s", scaled))
        wide = [t * 1e3 for t in seconds(outcomes, "wide_s", scaled)]
        return {
            "steps_per_s": metric(len(steps) / factor_s if factor_s else 0.0, "1/s", len(steps)),
            "step_p50_ms": metric(median(steps), "ms", len(steps)),
            "step_tail_ms": tail_metric(steps),
            "wide_step_ms": metric(median(wide), "ms", len(wide)),
        }


# --- shots -------------------------------------------------------------------

class Shots:
    """Four many-trial CLI calls per request on 1- to 3-qubit states."""

    name = "shots"
    prefix = 12
    rate, p50, tail = "trials_per_s", "round_p50_ms", "round_tail_ms"
    widths = (1, 2, 3)
    TRIALS = 1000
    COMMANDS = (
        (("coin-toss", "--tosses", "2"), {"0"}),
        (("entangle",), {"00", "11"}),
        (("state", "ghz"), {"000", "111"}),
        (("state", "w"), {"001", "010", "100"}),
    )

    def __init__(self, seed: int):
        self.seed = seed

    def request(self, index: int) -> tuple:
        rng = _rng(self.seed, index)
        return ("round", *(_context_seed(rng) for _ in self.COMMANDS))

    def checks_per(self, request) -> int:
        return len(self.COMMANDS)

    @guarded
    def execute(self, request, rec, outcome: Outcome):
        trials = cli_s = checked_s = reported_ms = 0
        for (command, support), seed in zip(self.COMMANDS, request[1:]):
            argv = [*command, "--trials", str(self.TRIALS), "--seed", str(seed), "--output", "json"]
            code, lines, took = _run_cli(rec, argv)
            if code == 0:
                problem, tally = check_tally(lines, support, self.TRIALS, seed, took)
                if not problem:
                    reported_ms += json.loads(lines[-1])["elapsed_ms"]
                    checked_s += took
            else:
                problem, tally = f"{command[-1]} exited {code}", {}
            outcome.record.append(sorted(tally.items()))
            outcome.check(problem)
            trials += self.TRIALS
            cli_s += took
        outcome.values.update(trials=trials, cli_s=cli_s, checked_s=checked_s,
                              cli_elapsed_ms=reported_ms)

    def metrics(self, outcomes, scaled: bool) -> dict:
        done = [o for o in outcomes if "cli_s" in o.values]
        trials = sum(o.values["trials"] for o in done)
        rounds = [t * 1e3 for t in seconds(done, "cli_s", scaled)]
        checked_ms = sum(o.values["checked_s"] for o in done) * 1e3
        reported = sum(o.values["cli_elapsed_ms"] for o in done)
        return {
            "trials_per_s": metric(trials * 1e3 / sum(rounds) if rounds else 0.0, "1/s", trials),
            "round_p50_ms": metric(median(rounds), "ms", len(rounds)),
            "round_tail_ms": tail_metric(rounds),
            "cli_elapsed_over_timer": metric(reported / checked_ms if checked_ms else 0.0, "ratio",
                                             len(self.COMMANDS) * len(done)),
        }


# --- arith -------------------------------------------------------------------

class Arith:
    """VBE plans applied through the engine to superposed registers, plus
    ``run_on_basis`` traces of the N=15 modular exponentiation."""

    name = "arith"
    prefix = 4
    rate, p50, tail = "basis_inputs_per_s", "plan_apply_p50_ms", "plan_apply_tail_ms"
    widths = (18, 22)
    KINDS = ("modadd", "cmm", "basis")
    BASIS_INPUTS = 12
    MODEXP_N = 15

    def __init__(self, seed: int):
        self.seed = seed

    def request(self, index: int) -> tuple:
        """Request 0 is the wide add; then modadd, cmm and basis in turn."""
        rng = _rng(self.seed, index)
        if index == 0:
            return ("wide", int(rng.integers(0, 128)), _context_seed(rng))
        kind = self.KINDS[(index - 1) % len(self.KINDS)]
        if kind == "modadd":
            modulus = int(rng.integers(8, 16))
            return (kind, modulus, int(rng.integers(0, modulus)), _context_seed(rng))
        if kind == "cmm":
            modulus = int(rng.integers(4, 8))
            coprime = [c for c in range(1, modulus) if math.gcd(c, modulus) == 1]
            return (kind, modulus, int(rng.choice(coprime)), _context_seed(rng))
        coprime = [c for c in range(2, self.MODEXP_N) if math.gcd(c, self.MODEXP_N) == 1]
        return (kind, int(rng.choice(coprime)),
                tuple(int(x) for x in rng.integers(0, 256, self.BASIS_INPUTS)))

    def checks_per(self, request) -> int:
        return self.BASIS_INPUTS if request[0] == "basis" else 1

    @staticmethod
    def _build(rec, builder, *args):
        with rec.span("arithmetic.plan_build"):
            return builder(*args)

    @staticmethod
    def _apply(ctx, width, classical, superposed, plan) -> tuple[int, float]:
        """Allocate, set classical fields, superpose, time the plan, measure all."""
        reg = ctx.allocate_register(width)
        for (start, stop), value in classical:
            reg.slice_range(start, stop - 1).set_from_unsigned(value)
        reg.apply_operations(algorithms.hadamard_all_ops(superposed).ops)
        began = time.perf_counter()
        reg.apply_operations(plan.ops)
        took = time.perf_counter() - began
        return reg.measure().to_unsigned(), took

    def _wide(self, rec, y_in, ctx_seed, outcome):
        n = 7
        plan = self._build(rec, arithmetic.add_n_ops, range(n), range(n, 2 * n), range(2 * n, 3 * n + 1))
        out, _ = self._apply(SimulationContext(seed=ctx_seed), 3 * n + 1, [((n, 2 * n), y_in)],
                             range(n), plan)
        outcome.record = ["add", y_in, out]
        outcome.check(check_add(out, y_in))

    def _modular_add(self, rec, modulus, y_in, ctx_seed, outcome):
        plan = self._build(rec, arithmetic.modular_add_ops, range(4), range(4, 8), range(8, 12),
                           range(12, 17), 17, modulus)
        out, took = self._apply(SimulationContext(seed=ctx_seed), 18,
                                [((4, 8), y_in), ((8, 12), modulus)], range(1, 4), plan)
        outcome.values["modadd_s"] = took
        outcome.record.append(["modadd", modulus, y_in, out])
        outcome.check(check_modular_add(out, modulus, y_in))

    def _controlled_multiply(self, rec, modulus, multiplier, ctx_seed, outcome):
        plan = self._build(rec, arithmetic.controlled_modular_multiply_ops, 0, range(1, 4),
                           range(4, 7), range(7, 10), range(10, 18), multiplier, modulus)
        out, took = self._apply(SimulationContext(seed=ctx_seed), 18, [((7, 10), modulus)],
                                (0, 2, 3), plan)
        outcome.values["cmm_s"] = took
        outcome.record.append(["cmm", modulus, multiplier, out])
        outcome.check(check_controlled_multiply(out, modulus, multiplier))

    def _basis(self, rec, base, inputs, outcome):
        plan = self._build(rec, arithmetic.modular_exponentiation_ops, range(8), range(8, 12),
                           range(12, MODEXP_WIDTH), base, self.MODEXP_N)
        with rec.span("arithmetic.run_on_basis"):
            began = time.perf_counter()
            results = [arithmetic.run_on_basis(plan.ops, MODEXP_WIDTH, modexp_input(x))
                       for x in inputs]
            took = time.perf_counter() - began
        outcome.values.update(basis_s=took, basis_inputs=len(inputs),
                              gate_steps=len(inputs) * len(plan.ops))
        outcome.record.append(["modexp", base, results])
        for x, out in zip(inputs, results):
            outcome.check(check_modexp(out, x, base, self.MODEXP_N))

    @guarded
    def execute(self, request, rec, outcome: Outcome):
        run = {"wide": self._wide, "modadd": self._modular_add,
               "cmm": self._controlled_multiply, "basis": self._basis}[request[0]]
        run(rec, *request[1:], outcome)

    def metrics(self, outcomes, scaled: bool) -> dict:
        def ms(key):
            return [t * 1e3 for t in seconds(outcomes, key, scaled)]

        # a modadd and the cmm that follows it form one plan-apply sample
        pairs = [a + b for a, b in zip(ms("modadd_s"), ms("cmm_s"))]
        basis_s = sum(seconds(outcomes, "basis_s", scaled))
        inputs = sum(o.values.get("basis_inputs", 0) for o in outcomes)
        return {
            "basis_inputs_per_s": metric(inputs / basis_s if basis_s else 0.0, "1/s", inputs),
            "plan_apply_p50_ms": metric(median(pairs), "ms", len(pairs)),
            "plan_apply_tail_ms": tail_metric(pairs),
        }


WORKLOADS = {cls.name: cls for cls in (Factor, Shots, Arith)}


# --- statistics ----------------------------------------------------------------

def _scale(outcome: Outcome, scaled: bool) -> float:
    return outcome.values["scale"] if scaled else 1.0


def seconds(outcomes, key: str, scaled: bool) -> list[float]:
    """A timing from every outcome that has it, raw or at reference host speed
    (see calibration.py)."""
    return [o.values[key] * _scale(o, scaled) for o in outcomes if key in o.values]


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def metric(value, unit: str, samples: int, **extra) -> dict:
    return {"value": float(value), "unit": unit, "samples": int(samples), **extra}


def tail_metric(values, unit: str = "ms") -> dict:
    """The highest percentile with ten samples beyond it, once there are fifty.

    With fewer samples the count beyond is a fifth of them, so that a short
    run's tail is not its single maximum: ``arith`` fits about a dozen
    plan-apply samples into a run, and their maximum spread across seeds
    almost as widely as the bound.
    """
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        return metric(0.0, unit, 0, percentile=100.0, beyond=0)
    beyond = min(10, n // 5)
    return metric(ordered[n - 1 - beyond], unit, n, percentile=round(100 * (n - beyond) / n, 2),
                  beyond=beyond)
