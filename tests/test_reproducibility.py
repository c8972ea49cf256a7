"""A fixed seed pins every sampled output: Shor factoring traces and CLI tallies.

The literals below were recorded from the engine that applied every gate by
transposing the state, before gates were applied in place by structure class.
An engine change that alters any of them changes what a fixed ``--seed`` means,
and must say so.
"""
import json

import pytest

from sharq import SimulationContext
from sharq.cli import main
from sharq.shor import shor_factor

# (N, seed) -> (factors, trace); each trace entry is
# (m, status, measured REG1 value, REG2 value, period), None where not sampled.
FACTOR_TRACES = {
    (15, 0): ((3, 5), ((13, "degenerate-sample", 0, 4, None), (9, "gcd-shortcut", None, None, None))),
    (15, 1): ((3, 5), ((8, "degenerate-sample", 0, 8, None), (9, "gcd-shortcut", None, None, None))),
    (15, 2): ((3, 5), ((12, "gcd-shortcut", None, None, None),)),
    (21, 0): ((3, 7), ((18, "gcd-shortcut", None, None, None),)),
    (21, 1): ((3, 7), ((10, "degenerate-sample", 0, 19, None), (12, "gcd-shortcut", None, None, None))),
    (21, 2): ((3, 7), ((17, "trivial-root", 683, 4, 6), (6, "gcd-shortcut", None, None, None))),
    (35, 0): ((5, 7), ((30, "gcd-shortcut", None, None, None),)),
    (35, 1): ((5, 7), ((17, "factored", 341, 33, 12),)),
    (35, 2): ((5, 7), ((29, "factored", 2048, 1, 2),)),
}

# 1000 trials at --seed 3
CLI_TALLIES = {
    ("coin-toss", "--tosses", "2"): {"0": 1000},
    ("entangle",): {"00": 508, "11": 492},
    ("state", "ghz"): {"000": 508, "111": 492},
    ("state", "w"): {"001": 327, "010": 343, "100": 330},
}


def _trace_row(record):
    sample = record.sample
    return (record.m, record.status, sample and sample.measured, sample and sample.f_value,
            record.period)


@pytest.mark.parametrize("n_value, seed", sorted(FACTOR_TRACES))
def test_seeded_shor_trace_is_pinned(n_value, seed):
    outcome = shor_factor(SimulationContext(seed=seed), n_value)
    assert (outcome.factors, tuple(map(_trace_row, outcome.trace))) == FACTOR_TRACES[n_value, seed]


@pytest.mark.parametrize("command", sorted(CLI_TALLIES), ids=" ".join)
def test_seeded_cli_tally_is_pinned(capsys, command):
    assert main([*command, "--trials", "1000", "--seed", "3", "--output", "json"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert {row["outcome"]: row["count"] for row in rows[:-1]} == CLI_TALLIES[command]
