"""A fixed seed pins every sampled output: Shor factoring traces and CLI tallies.

The CLI literals were recorded from the engine that applied every gate by
transposing the state, before gates were applied in place by structure class.
The Shor literals were re-recorded when the quantum step moved to one recycled
control qubit, which makes 2n+1 draws per step instead of two, and the base m
came to be drawn by rejection. A change that alters any of them changes what a
fixed ``--seed`` means, and must say so.
"""
import json

import pytest

from sharq import SimulationContext
from sharq.cli import main
from sharq.shor import shor_factor

# (N, seed) -> (factors, trace); each trace entry is
# (m, status, sample c, work-register value f, period), None where not sampled.
FACTOR_TRACES = {
    (15, 0): ((3, 5), ((13, "factored", 192, 13, 4),)),
    (15, 1): ((3, 5), ((8, "factored", 128, 1, 4),)),
    (15, 2): ((3, 5), ((12, "gcd-shortcut", None, None, None),)),
    (21, 0): ((3, 7), ((18, "gcd-shortcut", None, None, None),)),
    (21, 1): ((3, 7), ((10, "factored", 853, 13, 6),)),
    (21, 2): ((3, 7), ((17, "trivial-root", 682, 1, 6), (6, "gcd-shortcut", None, None, None))),
    (35, 0): ((5, 7), ((30, "gcd-shortcut", None, None, None),)),
    (35, 1): ((5, 7), ((17, "degenerate-sample", 1365, 27, None),
                       (18, "degenerate-sample", 3072, 16, None), (32, "factored", 342, 18, 12))),
    (35, 2): ((5, 7), ((29, "degenerate-sample", 0, 29, None), (10, "gcd-shortcut", None, None, None))),
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
