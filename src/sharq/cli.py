"""Command-line entry point.

Commands: coin-toss, entangle, factor, state. A tally command simulates
its circuit once; each trial then measures the prepared state with one reused
generator, set per trial to the state ``trial_seed`` gives for the master seed
and the trial index (``engine._trial_generators``). NumPy freezes the
SeedSequence and PCG64 streams (NEP 19), so the states are exact, a fixed
--seed pins the entire output, and the tallies are those of one fresh context
per trial. Exit status: 0 success, 1 usage, 2 precondition failure, 3 resource
exhaustion.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections import Counter

import numpy as np

from .engine import DEFAULT_QUBIT_CAP, HARD_QUBIT_LIMIT, SimulationContext, _measure_trials
from .errors import ResourceExhaustedError, SharqError
from .gates import NAMED_STATES, hadamard, prepare_named_state
from .shor import shor_factor

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_EXHAUSTED = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; this tool reserves 2 for preconditions
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _bounded_int(low: int, high: int | None = None):
    """An argparse type: an integer at least ``low`` and, if given, at most ``high``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    # numpy seeds its generators only from non-negative integers
    common.add_argument("--seed", type=_bounded_int(0), default=None,
                        help="master RNG seed (default: entropy)")
    common.add_argument("--trials", type=_bounded_int(1), default=1000, help="number of trials")
    common.add_argument("--output", choices=("text", "json"), default="text")
    common.add_argument("--qubit-cap", type=_bounded_int(1, HARD_QUBIT_LIMIT),
                        default=DEFAULT_QUBIT_CAP,
                        help=f"per-context qubit cap (max {HARD_QUBIT_LIMIT})")

    parser = _Parser(prog="sharq", description="Quantum register simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    toss = sub.add_parser("coin-toss", parents=[common], help="toss a quantum coin")
    toss.add_argument("--tosses", type=int, choices=(1, 2), default=1)

    sub.add_parser("entangle", parents=[common], help="prepare and measure an EPR pair")

    factor = sub.add_parser("factor", parents=[common], help="factor an odd composite")
    factor.add_argument("n", type=int, help="the number to factor")
    factor.add_argument("--force-m", type=int, default=None,
                        help="pin the random base m (reproduces worked traces)")
    factor.add_argument("--oracle", choices=("semantic", "circuit"), default="semantic")

    state = sub.add_parser("state", parents=[common], help="prepare and measure a named state")
    state.add_argument("name", choices=NAMED_STATES)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads with, built once per process (about 0.5 ms a build)."""
    return build_parser()


def _resolve_seed(seed) -> int:
    if seed is not None:
        return seed
    return int(np.random.SeedSequence().generate_state(1)[0])


def _emit_tally(args, seed: int, tally: Counter, elapsed_ms: int):
    # ``tally`` counts bit tuples of one length, which sort as their bitstrings do
    total = sum(tally.values())
    rows = [("".join(map(str, bits)), count) for bits, count in sorted(tally.items())]
    if args.output == "json":
        for outcome, count in rows:
            print(json.dumps({"outcome": outcome, "count": count}))
        print(json.dumps({"seed": seed, "trials": total, "elapsed_ms": elapsed_ms}))
    else:
        for outcome, count in rows:
            print(f"{outcome}: {count} ({count / total:.4f})")
        print(f"seed={seed} trials={total} elapsed_ms={elapsed_ms}")


def _run_tally(args, prepare) -> int:
    """Run ``prepare``'s measurement-free circuit once, then measure it per trial."""
    seed = _resolve_seed(args.seed)
    start = time.perf_counter()
    register = prepare(SimulationContext(seed=seed, qubit_cap=args.qubit_cap))
    tally = Counter(result.bits for result in _measure_trials(register, seed, args.trials))
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    _emit_tally(args, seed, tally, elapsed_ms)
    return EXIT_OK


def cmd_coin_toss(args) -> int:
    def prepare(ctx):
        coin = ctx.allocate_register(1)
        for _ in range(args.tosses):
            coin.apply_operation(hadamard(0))
        return coin

    return _run_tally(args, prepare)


def cmd_entangle(args) -> int:
    return _run_tally(args, lambda ctx: prepare_named_state(ctx, "beta00"))


def cmd_state(args) -> int:
    return _run_tally(args, lambda ctx: prepare_named_state(ctx, args.name))


def cmd_factor(args) -> int:
    seed = _resolve_seed(args.seed)
    ctx = SimulationContext(seed=seed, qubit_cap=args.qubit_cap)
    start = time.perf_counter()
    outcome = shor_factor(ctx, args.n, force_m=args.force_m, oracle=args.oracle)
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    for record in outcome.trace:
        row = {"iteration": record.iteration, "m": record.m, "status": record.status,
               "sample": None if record.sample is None else record.sample.measured,
               "period": record.period}
        if args.output == "json":
            print(json.dumps(row))
        else:
            details = "".join(f" {key}={row[key]}" for key in ("sample", "period")
                              if row[key] is not None)
            print(f"iteration {row['iteration']}: m={row['m']} {row['status']}{details}")
    if args.output == "json":
        print(json.dumps({"n": outcome.n_value, "factors": list(outcome.factors),
                          "seed": seed, "elapsed_ms": elapsed_ms}))
    else:
        p, q = outcome.factors
        print(f"{outcome.n_value} = {p} x {q}")
        print(f"seed={seed} elapsed_ms={elapsed_ms}")
    return EXIT_OK


_COMMANDS = {
    "coin-toss": cmd_coin_toss,
    "entangle": cmd_entangle,
    "factor": cmd_factor,
    "state": cmd_state,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ResourceExhaustedError as exc:
        sys.stderr.write(f"sharq: {exc}\n")
        return EXIT_EXHAUSTED
    except SharqError as exc:
        sys.stderr.write(f"sharq: {exc}\n")
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
