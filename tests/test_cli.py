import json
import re
from collections import Counter

import pytest

from sharq import SimulationContext
from sharq.cli import main
from sharq.engine import trial_seed
from sharq.gates import NAMED_STATES, hadamard, prepare_named_state


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_json_lines(out):
    lines = [json.loads(line) for line in out.strip().splitlines()]
    return lines[:-1], lines[-1]  # outcome records, summary


class TestCoinToss:
    def test_double_toss_always_restores(self, capsys):
        code, out, _ = run_cli(
            capsys, "coin-toss", "--tosses", "2", "--trials", "500",
            "--seed", "3", "--output", "json",
        )
        assert code == 0
        outcomes, summary = parse_json_lines(out)
        assert outcomes == [{"outcome": "0", "count": 500}]
        assert summary["seed"] == 3 and summary["trials"] == 500

    def test_single_toss_is_fair(self, capsys):
        code, out, _ = run_cli(
            capsys, "coin-toss", "--trials", "10000", "--seed", "77", "--output", "json",
        )
        assert code == 0
        outcomes, _ = parse_json_lines(out)
        counts = {row["outcome"]: row["count"] for row in outcomes}
        assert abs(counts["0"] / 10000 - 0.5) < 0.02

    def test_single_trial_emits_one_bit(self, capsys):
        code, out, _ = run_cli(
            capsys, "coin-toss", "--trials", "1", "--seed", "5", "--output", "json",
        )
        assert code == 0
        outcomes, summary = parse_json_lines(out)
        assert len(outcomes) == 1 and outcomes[0]["count"] == 1
        assert outcomes[0]["outcome"] in ("0", "1")
        assert summary["trials"] == 1

    def test_json_output_is_deterministic(self, capsys):
        argv = ["coin-toss", "--trials", "300", "--seed", "12", "--output", "json"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        first_rows, first_summary = parse_json_lines(first)
        second_rows, second_summary = parse_json_lines(second)
        assert first_rows == second_rows
        first_summary.pop("elapsed_ms")
        second_summary.pop("elapsed_ms")
        assert first_summary == second_summary

    def test_usage_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "coin-toss", "--tosses", "3")
        assert code == 1
        assert "tosses" in err


class TestEntangle:
    def test_no_anticorrelated_outcomes(self, capsys):
        code, out, _ = run_cli(
            capsys, "entangle", "--trials", "5000", "--seed", "101", "--output", "json",
        )
        assert code == 0
        outcomes, _ = parse_json_lines(out)
        observed = {row["outcome"] for row in outcomes}
        assert observed <= {"00", "11"}
        counts = {row["outcome"]: row["count"] for row in outcomes}
        assert abs(counts["00"] / 5000 - 0.5) < 0.02

    def test_single_trial(self, capsys):
        code, out, _ = run_cli(
            capsys, "entangle", "--trials", "1", "--seed", "2", "--output", "json",
        )
        assert code == 0
        outcomes, _ = parse_json_lines(out)
        assert outcomes[0]["outcome"] in ("00", "11")


class TestFactor:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "factor", "15", "--force-m", "8", "--seed", "7", "--output", "json",
        )
        assert code == 0
        records, summary = parse_json_lines(out)
        assert summary["factors"] == [3, 5]
        assert records[-1]["status"] == "factored"
        assert records[-1]["period"] == 4

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "15", "--force-m", "8", "--seed", "7")
        assert code == 0
        assert "15 = 3 x 5" in out
        assert "period=4" in out

    def test_even_number_is_a_precondition_failure(self, capsys):
        code, _, err = run_cli(capsys, "factor", "14")
        assert code == 2
        assert "even" in err

    def test_prime_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "factor", "17")
        assert code == 2

    def test_a_wide_prime_is_a_precondition_failure(self, capsys):
        code, out, err = run_cli(capsys, "factor", str(2**61 - 1), "--qubit-cap", "62")
        assert code == 2
        assert out == "" and "prime" in err

    def test_resource_exhaustion_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "factor", "15", "--force-m", "14", "--seed", "1")
        assert code == 3

    def test_circuit_oracle_width_failure(self, capsys):
        code, out, _ = run_cli(
            capsys, "factor", "15", "--oracle", "circuit", "--seed", "0", "--output", "json",
        )
        assert code == 0
        _, summary = parse_json_lines(out)
        assert summary["factors"] == [3, 5]

    def test_circuit_oracle_past_the_trace_width_is_a_precondition_failure(self, capsys):
        # n=12: the compiled round needs 5n+3 = 63 traced qubits, past the 62 limit
        code, out, err = run_cli(capsys, "factor", "2049", "--force-m", "2", "--oracle", "circuit")
        assert code == 2
        assert out == "" and "62" in err

    def test_seeded_run(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "15", "--seed", "42", "--output", "json")
        assert code == 0
        _, summary = parse_json_lines(out)
        assert summary["factors"] == [3, 5]

    @pytest.mark.parametrize("argv, expected", [
        (("factor", "21", "--seed", "3"), [
            "iteration 1: m=17 trivial-root sample=342 period=6",
            "iteration 2: m=3 gcd-shortcut",
            "21 = 3 x 7",
            "seed=3 elapsed_ms=*",
        ]),
        (("factor", "55", "--seed", "11", "--output", "json"), [
            '{"iteration": 1, "m": 9, "status": "factored", "sample": 2458, "period": 10}',
            '{"n": 55, "factors": [5, 11], "seed": 11, "elapsed_ms": *}',
        ]),
        (("factor", "15", "--force-m", "8", "--seed", "7"), [
            "iteration 1: m=8 factored sample=128 period=4",
            "15 = 3 x 5",
            "seed=7 elapsed_ms=*",
        ]),
    ])
    def test_printed_lines_are_pinned(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        masked = re.sub(r'(elapsed_ms(?:=|": ))\d+', r"\1*", out)
        assert masked.splitlines() == expected


class TestState:
    def test_ghz_support(self, capsys):
        code, out, _ = run_cli(
            capsys, "state", "ghz", "--trials", "2000", "--seed", "8", "--output", "json",
        )
        assert code == 0
        outcomes, _ = parse_json_lines(out)
        assert {row["outcome"] for row in outcomes} <= {"000", "111"}

    def test_w_state_one_hot_thirds(self, capsys):
        code, out, _ = run_cli(
            capsys, "state", "w", "--trials", "10000", "--seed", "21", "--output", "json",
        )
        assert code == 0
        outcomes, _ = parse_json_lines(out)
        counts = {row["outcome"]: row["count"] for row in outcomes}
        assert set(counts) == {"001", "010", "100"}
        for count in counts.values():
            assert abs(count / 10000 - 1 / 3) < 0.02

    def test_beta11_support(self, capsys):
        code, out, _ = run_cli(
            capsys, "state", "beta11", "--trials", "1000", "--seed", "4", "--output", "json",
        )
        assert code == 0
        outcomes, _ = parse_json_lines(out)
        assert {row["outcome"] for row in outcomes} <= {"01", "10"}

    def test_unknown_state_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "state", "phi-plus")
        assert code == 1


class TestGlobalFlags:
    def test_qubit_cap_validation(self, capsys):
        code, _, err = run_cli(capsys, "entangle", "--qubit-cap", "63", "--trials", "1")
        assert code == 1
        assert "qubit-cap" in err

    def test_trials_must_be_positive(self, capsys):
        code, _, _ = run_cli(capsys, "entangle", "--trials", "0")
        assert code == 1

    @pytest.mark.parametrize("cap", ["0", "63", "-1", "x"])
    def test_a_bad_qubit_cap_is_a_usage_error(self, capsys, cap):
        code, out, err = run_cli(capsys, "coin-toss", "--qubit-cap", cap, "--trials", "1")
        assert code == 1 and out == ""
        assert err.startswith("usage:") and "--qubit-cap" in err

    def test_the_hard_qubit_limit_is_a_valid_cap(self, capsys):
        code, _, _ = run_cli(capsys, "coin-toss", "--qubit-cap", "62", "--trials", "1")
        assert code == 0

    def test_missing_command(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    @pytest.mark.parametrize("command", [("coin-toss",), ("factor", "15")], ids=" ".join)
    def test_negative_seed_is_a_usage_error(self, capsys, command):
        code, _, err = run_cli(capsys, *command, "--seed", "-5")
        assert code == 1
        assert err.startswith("usage:")
        assert "--seed" in err and "must be >= 0" in err

    def test_random_seed_is_reported(self, capsys):
        code, out, _ = run_cli(capsys, "coin-toss", "--trials", "2", "--output", "json")
        assert code == 0
        _, summary = parse_json_lines(out)
        assert isinstance(summary["seed"], int)


def _prepare_coin(tosses):
    def prepare(ctx):
        coin = ctx.allocate_register(1)
        for _ in range(tosses):
            coin.apply_operation(hadamard(0))
        return coin
    return prepare


def _prepare_named(name):
    return lambda ctx: prepare_named_state(ctx, name)


# each tally command, with the circuit it is documented to run
TALLY_CIRCUITS = {
    ("coin-toss", "--tosses", "1"): _prepare_coin(1),
    ("coin-toss", "--tosses", "2"): _prepare_coin(2),
    ("entangle",): _prepare_named("beta00"),
    **{("state", name): _prepare_named(name) for name in NAMED_STATES},
}


class TestTallyPath:
    """The circuit is simulated once and every trial measured from the prepared state."""

    @pytest.mark.parametrize("seed", [0, 9, 2024])
    @pytest.mark.parametrize("command", sorted(TALLY_CIRCUITS), ids=" ".join)
    def test_tally_equals_one_fresh_context_per_trial(self, capsys, command, seed):
        trials = 200
        code, out, _ = run_cli(capsys, *command, "--trials", str(trials), "--seed", str(seed),
                               "--output", "json")
        assert code == 0
        rows, summary = parse_json_lines(out)
        prepare = TALLY_CIRCUITS[command]
        expected = Counter(
            prepare(SimulationContext(seed=trial_seed(seed, t))).measure().to_bitstring()
            for t in range(trials)
        )
        assert {row["outcome"]: row["count"] for row in rows} == expected
        assert summary["trials"] == trials

    @pytest.mark.parametrize("command", sorted(TALLY_CIRCUITS), ids=" ".join)
    def test_gates_run_once_and_measurement_once_per_trial(self, capsys, monkeypatch, command):
        calls = Counter()

        def counting(name):
            original = getattr(SimulationContext, name)

            def wrapper(ctx, *args):
                calls[name] += 1
                return original(ctx, *args)
            return wrapper

        for name in ("_apply", "_measure"):
            monkeypatch.setattr(SimulationContext, name, counting(name))
        seen = {}
        for trials in (1, 50):
            calls.clear()
            code, _, _ = run_cli(capsys, *command, "--trials", str(trials), "--seed", "4")
            assert code == 0
            assert calls["_measure"] == trials
            seen[trials] = calls["_apply"]
        assert seen[1] == seen[50]

    @pytest.mark.parametrize("command, cap", [(("entangle",), 1), (("state", "ghz"), 2),
                                              (("state", "w"), 2)],
                             ids=["entangle", "state ghz", "state w"])
    def test_too_small_qubit_cap_is_a_precondition_failure(self, capsys, command, cap):
        code, out, err = run_cli(capsys, *command, "--qubit-cap", str(cap), "--seed", "1")
        assert code == 2
        assert "cap" in err and out == ""


class TestConsoleScript:
    def test_entry_point_runs(self):
        import os
        import subprocess
        import sys

        import sharq

        # the child imports the package this process imported, installed or not
        package_root = os.path.dirname(os.path.dirname(sharq.__file__))
        path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
        result = subprocess.run(
            [sys.executable, "-m", "sharq.cli", "coin-toss", "--trials", "3",
             "--seed", "1", "--output", "json"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0
        assert json.loads(result.stdout.strip().splitlines()[-1])["trials"] == 3
