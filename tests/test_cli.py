import json

from sharq.cli import main


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

    def test_seeded_run(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "15", "--seed", "42", "--output", "json")
        assert code == 0
        _, summary = parse_json_lines(out)
        assert summary["factors"] == [3, 5]


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

    def test_missing_command(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    def test_random_seed_is_reported(self, capsys):
        code, out, _ = run_cli(capsys, "coin-toss", "--trials", "2", "--output", "json")
        assert code == 0
        _, summary = parse_json_lines(out)
        assert isinstance(summary["seed"], int)


class TestConsoleScript:
    def test_entry_point_runs(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "sharq.cli", "coin-toss", "--trials", "3",
             "--seed", "1", "--output", "json"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout.strip().splitlines()[-1])["trials"] == 3
