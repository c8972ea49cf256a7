"""Tests of the benchmark's own checkers, fingerprints, classification and spans.

Run from the repository root: ``python -m pytest -q perfbench``.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sharq import algorithms, arithmetic  # noqa: E402
from sharq.algorithms import PeriodSample, semantic_uf  # noqa: E402
from sharq.gates import cnot, hadamard, pauli_x, pauli_z, toffoli  # noqa: E402
from sharq.shor import FactoringOutcome, IterationRecord  # noqa: E402

import run  # noqa: E402
import workloads as W  # noqa: E402
from calibration import Calibration  # noqa: E402
from spans import Instrumentation, Recorder, classify  # noqa: E402


# --- checkers reject corrupted outputs ------------------------------------------

def _factoring(n_value, factors, m=2, status="factored", period=10, measured=410, f_value=1):
    sample = PeriodSample(measured, 4096, f_value)
    return FactoringOutcome(n_value, factors, (IterationRecord(1, m, status, sample, period),))


def test_factoring_check_accepts_a_true_trace_and_rejects_a_wrong_factor():
    # m=2 has order 10 mod 33; 410/4096 ~ 1/10 is a likely sample for f=1.
    assert W.check_factoring(33, _factoring(33, (3, 11))) == ""
    assert "multiply" in W.check_factoring(33, _factoring(33, (3, 13)))
    assert "multiply" in W.check_factoring(33, _factoring(33, (1, 33)))


def test_factoring_check_rejects_an_impossible_sample_and_a_false_period():
    assert "impossible" in W.check_factoring(33, _factoring(33, (3, 11), f_value=3))
    assert "fails" in W.check_factoring(33, _factoring(33, (3, 11), period=4))
    # m=7 has order 4 mod 15, so with Q=256 only multiples of 64 can be read.
    assert W.check_period_sample(PeriodSample(192, 256, 4), 7, 15) == ""
    assert "impossible" in W.check_period_sample(PeriodSample(65, 256, 4), 7, 15)


def test_sample_probabilities_sum_to_one():
    total = sum(W.sample_probability(c, 256, 1, 7, 15) for c in range(256))
    assert total == pytest.approx(1.0)


def _tally_lines(tally, trials=10, seed=5, elapsed_ms=3):
    import json
    rows = [json.dumps({"outcome": k, "count": v}) for k, v in sorted(tally.items())]
    return rows + [json.dumps({"seed": seed, "trials": trials, "elapsed_ms": elapsed_ms})]


def test_tally_check_rejects_outcomes_outside_the_support_and_bad_counts():
    support = {"00", "11"}
    assert W.check_tally(_tally_lines({"00": 4, "11": 6}), support, 10, 5, 0.01)[0] == ""
    assert "support" in W.check_tally(_tally_lines({"00": 4, "01": 1, "11": 5}), support, 10, 5, 0.01)[0]
    assert "support" in W.check_tally(_tally_lines({"00": 10}), support, 10, 5, 0.01)[0]
    assert "sum" in W.check_tally(_tally_lines({"00": 4, "11": 5}), support, 10, 5, 0.01)[0]
    assert "seed" in W.check_tally(_tally_lines({"00": 4, "11": 6}, seed=6), support, 10, 5, 0.01)[0]
    assert "elapsed" in W.check_tally(_tally_lines({"00": 4, "11": 6}, elapsed_ms=50), support, 10, 5, 0.01)[0]
    assert W.check_tally(["not json"], support, 10, 5, 0.01)[0]


def _pack(width, *fields):
    """Big-endian value from (start, stop, value) fields."""
    out = 0
    for start, stop, value in fields:
        out |= value << (width - stop)
    return out


def test_arithmetic_checks_reject_wrong_values():
    good = _pack(18, (0, 4, 5), (4, 8, (5 + 9) % 11), (8, 12, 11))
    assert W.check_modular_add(good, 11, 9) == ""
    assert W.check_modular_add(good ^ (1 << 10), 11, 9)          # wrong sum
    assert W.check_modular_add(good | 1, 11, 9)                  # flag left set
    good = _pack(18, (0, 1, 1), (1, 4, 3), (4, 7, (5 * 3) % 7), (7, 10, 7))
    assert W.check_controlled_multiply(good, 7, 5) == ""
    assert W.check_controlled_multiply(good ^ (1 << 11), 7, 5)    # wrong product
    passthrough = _pack(18, (1, 4, 3), (4, 7, 3), (7, 10, 7))
    assert W.check_controlled_multiply(passthrough, 7, 5) == ""
    good = _pack(22, (0, 7, 100), (7, 14, (100 + 90) % 128), (14, 15, 1))
    assert W.check_add(good, 90) == ""
    assert W.check_add(good ^ (1 << 7), 90)                      # lost carry-out
    assert W.check_add(good | 1, 90)                             # ancilla not restored


def test_modexp_check_needs_the_power_and_restored_ancillas():
    plan = arithmetic.modular_exponentiation_ops(range(8), range(8, 12), range(12, 30), 7, 15)
    out = arithmetic.run_on_basis(plan.ops, W.MODEXP_WIDTH, W.modexp_input(13))
    assert W.check_modexp(out, 13, 7, 15) == ""
    assert W.check_modexp(out ^ (1 << 18), 13, 7, 15)            # wrong power
    assert W.check_modexp(out | 1, 13, 7, 15)                    # dirty ancilla
    assert W.check_modexp(out, 12, 7, 15)                        # REG1 changed


# --- gate classification -----------------------------------------------------------

def test_classification_by_action():
    assert classify(hadamard(0)) == "dense"
    assert classify(pauli_z(0)) == "diag"
    assert classify(algorithms._controlled_phase(3, 0, 1)) == "diag"
    for op in (pauli_x(0), cnot(0, 1), toffoli(0, 1, 2), semantic_uf(7, 15)):
        assert classify(op) == "perm"


# --- spans ----------------------------------------------------------------------------

def test_self_time_is_span_minus_children():
    rec = Recorder()
    for name, start, end, parent in (("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0),
                                     ("b", 2.0, 3.0, 1), ("a", 5.0, 6.0, 0)):
        rec.open(name)
        rec.name_of[-1], rec.parent[-1], rec.start[-1], rec.end[-1] = \
            rec.names.index(name), parent, start, end
        rec._stack.pop()
    times = rec.self_times()
    assert times["root"] == (1, pytest.approx(6.0))
    assert times["a"] == (2, pytest.approx(3.0))
    assert times["b"] == (1, pytest.approx(1.0))


@pytest.fixture
def instrumented():
    rec = Recorder()
    inst = Instrumentation(rec)
    inst.install(layers=True)
    yield rec, inst
    inst.uninstall()


def test_untraced_jobs_carry_only_the_step_timer():
    from sharq.engine import SimulationContext
    apply, step = SimulationContext.__dict__["_apply"], algorithms.shor_quantum_step
    inst = Instrumentation(Recorder())
    inst.install(layers=False)
    assert SimulationContext.__dict__["_apply"] is apply
    assert algorithms.shor_quantum_step is not step
    inst.uninstall()
    inst.install(layers=True)
    assert SimulationContext.__dict__["_apply"] is not apply
    inst.uninstall()
    assert SimulationContext.__dict__["_apply"] is apply
    assert algorithms.shor_quantum_step is step


# --- fingerprints ----------------------------------------------------------------------

def _shots_prefix(seed, traced=False):
    workload = W.Shots(seed)
    workload.prefix, workload.TRIALS = 2, 60
    rec = Recorder()
    outcomes, _ = run.run_job(workload, rec, Instrumentation(rec), Calibration(), traced)
    return run.fingerprint(outcomes, dict(rec.counts) if traced else None), outcomes, rec


def test_fingerprints_repeat_for_a_seed_and_differ_across_seeds():
    first, outcomes, _ = _shots_prefix(11, traced=True)
    again, _, _ = _shots_prefix(11, traced=True)
    other, _, _ = _shots_prefix(12)
    assert all(o.failed == 0 for o in outcomes)
    assert first == again
    assert first["outputs"] != other["outputs"]
    assert first["engine_counters"]["engine.measure.count"] == 2 * 4 * 60


def test_tracing_changes_no_output():
    untraced, _, _ = _shots_prefix(3)
    traced, _, rec = _shots_prefix(3, traced=True)
    assert "counters" not in untraced
    assert untraced["outputs"] == traced["outputs"]
    assert rec.self_times()["cli.main"][0] == 2 * 4


def test_factor_requests_repeat_exactly(instrumented):
    rec, _ = instrumented
    workload = W.Factor(5)

    def prints():
        rec.counts.clear()
        outcomes = [workload.execute(workload.request(i), rec) for i in (1, 2)]
        return run.fingerprint(outcomes, dict(rec.counts)), outcomes

    first, outcomes = prints()
    assert all(o.passed == o.checks for o in outcomes)
    assert prints()[0] == first


def test_tail_is_the_highest_percentile_with_ten_beyond():
    tail = W.tail_metric(list(range(100)))
    assert (tail["value"], tail["percentile"], tail["beyond"]) == (89, 90.0, 10)
    dozen = W.tail_metric(list(range(12)))
    assert (dozen["value"], dozen["beyond"]) == (9, 2)
    short = W.tail_metric([3.0, 1.0, 2.0])
    assert (short["value"], short["percentile"], short["beyond"]) == (3.0, 100.0, 0)
