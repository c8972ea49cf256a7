"""Benchmark for sharq: one closed-loop caller in one fresh process.

    python3 perfbench/run.py --workload factor --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Untraced (``--trace 0``): requests run back to back, the fingerprint prefix
and on until ``--seconds`` have passed since request 0 returned, with no
wrapper but the quantum-step timer; prints the end-to-end metrics.
Traced (``--trace 1``): the fingerprint prefix runs untraced, traced and
untraced again, from cold caches each time; prints the per-layer metrics of
the traced job, which alone carries the layer wrappers and counters, and its
overhead against the two untraced ones.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A full report (machine, every metric with its
sample count, fingerprints, self times) is written under ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
EXIT_NO_PROGRAM = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("factor", "shots", "arith", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_all(args) -> int:
    """Every workload, each in its own fresh process."""
    status = 0
    for name in ("factor", "shots", "arith"):
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, check=False)
        status = status or done.returncode
    return status


# --- machine and set-up --------------------------------------------------------

def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _size_bytes(text: str) -> int:
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * scale[text[-1]] if text and text[-1] in scale else int(text or 0)


def blas_threads(np) -> str:
    import ctypes
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            return str(ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (requested)"


def machine_info(np) -> dict:
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "type") in ("Unified", "Data"):
            caches[f"L{_read(index / 'level')}"] = _size_bytes(_read(index / "size"))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache_bytes_per_core": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
    }


def measure_setup(workload) -> dict:
    """Median of several set-ups: process start, import and input generation.

    Each child reports on the shared monotonic clock when its imports ended,
    so the parent's wait for the exit is not counted, and how long its own
    ``import numpy`` took, which brings the set-up to reference host speed
    (see calibration.py).
    """
    from calibration import setup_scale

    command = [sys.executable, "-c", "import time; began = time.perf_counter(); import sys; "
               "sys.path.insert(0, sys.argv[1]); import numpy; took = time.perf_counter() - began; "
               "import sharq.cli; print(took, time.perf_counter())", str(SRC)]
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        done = subprocess.run(command, check=True, timeout=120, capture_output=True, text=True)
        numpy_s, imported = map(float, done.stdout.split()[-2:])
        began_inputs = time.perf_counter()
        [workload.request(i) for i in range(workload.prefix)]
        took = imported - began + time.perf_counter() - began_inputs
        raw.append(took)
        scaled.append(took * setup_scale(numpy_s))
    middle = SETUP_REPEATS // 2
    return {"value": sorted(scaled)[middle], "unit": "s", "samples": SETUP_REPEATS,
            "raw_s": sorted(raw)[middle]}


# --- running -----------------------------------------------------------------------

def run_requests(workload, rec, calibration, seconds=None):
    """Closed loop: the next request goes out when the previous one returned.

    Runs the fingerprint prefix, then keeps going until ``seconds`` have
    passed since request 0 returned: in ``factor`` and ``arith`` that is the
    one-off wide request (6-7 s), and the whole window goes to the repeated
    requests whose medians are reported. The calibration kernels run between
    requests; each outcome gets the ``scale`` of its own interval. Returns the
    outcomes and the loop time without calibration.
    """
    outcomes = []
    spent = calibration.spent_s
    began = time.perf_counter()
    deadline = None
    before = calibration.measure()
    while len(outcomes) < workload.prefix or time.perf_counter() < deadline:
        started = time.perf_counter()
        with rec.span("bench.request"):
            outcome = workload.execute(workload.request(len(outcomes)), rec)
        outcome.values["request_s"] = time.perf_counter() - started
        after = calibration.measure()
        outcome.values["scale"] = calibration.scale(before, after)
        outcomes.append(outcome)
        before = after
        deadline = deadline or time.perf_counter() + (seconds or 0)
    loop_s = time.perf_counter() - began - (calibration.spent_s - spent)
    return outcomes, loop_s


def run_job(workload, rec, inst, calibration, traced: bool, seconds=None):
    """One job from cold caches and counters. Only a traced job carries the
    layer wrappers; an untraced one has just the quantum-step timer."""
    inst.install(layers=traced)
    inst.cold_start()
    rec.counts.clear()
    rec.step_s.clear()
    rec.timing = traced
    try:
        return run_requests(workload, rec, calibration, seconds)
    finally:
        rec.timing = False
        inst.uninstall()


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fingerprint(outcomes, counts=None) -> dict:
    """Hashes of one prefix.

    ``outputs`` covers the outputs (tallies, factor traces, arithmetic
    results) and the Shor counters read from them; every job has it.
    ``counters`` covers the exact engine counters, which only a traced job
    collects (``counts``).
    """
    shor = {"shor.iterations": sum(o.values.get("iterations", 0) for o in outcomes),
            "shor.quantum_steps": sum(o.values.get("quantum_steps", 0) for o in outcomes)}
    outputs = [[o.kind, o.checks, o.passed, o.record] for o in outcomes]
    prints = {"outputs": _digest([outputs, shor]), "shor_counters": shor}
    if counts is not None:
        engine = {k: v for k, v in counts.items() if k.startswith("engine.")}
        prints.update(counters=_digest(engine), engine_counters=engine)
    return prints


def source_hash() -> str:
    """Hash of the program and of this benchmark; either can change the outputs."""
    digest = hashlib.sha256()
    paths = [*(SRC / "sharq").rglob("*.py"), *Path(__file__).parent.glob("*.py")]
    for path in sorted(paths):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def compare_stored(key: str, prints: dict) -> dict:
    """Check a fingerprint's hashes against earlier runs of the same seed and source."""
    OUT.mkdir(exist_ok=True)
    store = OUT / "fingerprints.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    verdicts = {}
    for part in ("outputs", "counters"):
        if part not in prints:
            continue
        earlier = known.setdefault(f"{key}/{part}", prints[part])
        verdicts[part] = ("first run of this seed and source" if earlier is prints[part]
                          else "matches earlier runs" if earlier == prints[part]
                          else f"MISMATCH with {earlier}")
    partial = store.with_suffix(".tmp")
    partial.write_text(json.dumps(known, indent=1, sort_keys=True))
    partial.replace(store)
    return verdicts


def per_layer(rec, inst, outcomes, counts, untraced_jobs) -> dict:
    """The per-layer metrics of one traced job; ``untraced_jobs`` ran the same
    requests untraced just before and just after it."""
    from workloads import metric, seconds

    spans, layer = rec.self_times(), {}

    def ratio(a, b):
        return a / b if b else 0.0

    def spanned(name, self_ms=True):
        calls, own_s = spans.get(name, (0, 0.0))
        layer[f"{name}.count"] = metric(calls, "count", 1)
        if self_ms:
            layer[f"{name}.self_ms"] = metric(own_s * 1e3, "ms", calls)
        return own_s

    def total(key):
        return sum(o.values.get(key, 0) for o in outcomes)

    for kind in ("dense", "diag", "perm"):
        amps = counts.get(f"engine.apply.{kind}.amps", 0)
        own_s = spanned(f"engine.apply.{kind}")
        layer[f"engine.apply.{kind}.count"] = metric(counts.get(f"engine.apply.{kind}.count", 0), "count", 1)
        layer[f"engine.apply.{kind}.ns_per_amp"] = metric(ratio(own_s * 1e9, amps), "ns/amp", amps)
    layer["engine.apply.amps"] = metric(sum(counts.get(f"engine.apply.{k}.amps", 0)
                                            for k in ("dense", "diag", "perm")), "amps", 1)
    own_s, amps = spanned("engine.measure"), counts.get("engine.measure.amps", 0)
    layer["engine.measure.count"] = metric(counts.get("engine.measure.count", 0), "count", 1)
    layer["engine.measure.ns_per_amp"] = metric(ratio(own_s * 1e9, amps), "ns/amp", amps)
    for name in ("engine.reset", "engine.context", "engine.alloc", "linalg.is_unitary",
                 "algorithms.step", "algorithms.uf_build", "algorithms.extract_period",
                 "arithmetic.plan_build", "shor.factor", "cli.main"):
        spanned(name)
    layer["engine.peak_qubits"] = metric(rec.peak_qubits, "qubits", 1)
    layer["engine.peak_state_mib"] = metric(16 * 2 ** rec.peak_qubits / 2 ** 20, "MiB", 1)
    checks = counts.get("gates.require_unitary.count", 0)
    layer["gates.require_unitary.count"] = metric(checks, "count", 1)
    layer["gates.unitary_cache_hit_ratio"] = metric(
        ratio(counts.get("gates.require_unitary.cached", 0), checks), "ratio", checks)
    info = inst.semantic_uf.cache_info()
    layer["algorithms.uf_cache.hits"] = metric(info.hits, "count", 1)
    layer["algorithms.uf_cache.misses"] = metric(info.misses, "count", 1)
    gate_steps = total("gate_steps")
    own_s = spans.get("arithmetic.run_on_basis", (0, 0.0))[1]
    layer["arithmetic.run_on_basis.gate_steps"] = metric(gate_steps, "count", 1)
    layer["arithmetic.run_on_basis.self_ms"] = metric(own_s * 1e3, "ms", total("basis_inputs"))
    layer["arithmetic.run_on_basis.ns_per_gate_step"] = metric(ratio(own_s * 1e9, gate_steps),
                                                               "ns/gate", gate_steps)
    steps = total("quantum_steps")
    layer["shor.iterations"] = metric(total("iterations"), "count", 1)
    layer["shor.quantum_steps"] = metric(steps, "count", 1)
    layer["shor.useful_ratio"] = metric(ratio(total("from_period"), steps), "ratio", steps)
    trials = total("trials")
    layer["cli.trial_overhead_us"] = metric(
        ratio(spans.get("cli.main", (0, 0.0))[1] * 1e6, trials), "us/trial", trials)
    layer["bench.self_ms"] = metric(spans.get("bench.request", (0, 0.0))[1] * 1e3, "ms", len(outcomes))
    layer["traced_wall_s"] = metric(sum(seconds(outcomes, "request_s", False)), "s", len(outcomes))
    # At reference host speed, against the mean of the untraced job before and
    # after, so that neither host drift nor a first-run cost counts as overhead.
    traced = sum(seconds(outcomes, "request_s", True))
    untraced = [sum(seconds(job, "request_s", True)) for job in untraced_jobs]
    layer["trace_overhead_ratio"] = metric(traced / (sum(untraced) / len(untraced)) - 1, "ratio",
                                           len(outcomes), traced_scaled_s=traced,
                                           untraced_scaled_s=untraced)
    return layer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sharq" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no sharq sources under {SRC}; run from a checkout\n")
        return EXIT_NO_PROGRAM
    if args.workload == "all":
        return run_all(args)

    # One BLAS thread (at most nproc), set before numpy loads: the caller is
    # single-threaded, and a steady figure matters more than what BLAS
    # threading could give to gates of one to three qubits.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy as np

    from calibration import Calibration
    from spans import Instrumentation, Recorder
    from workloads import WORKLOADS, metric

    workload = WORKLOADS[args.workload](args.seed)
    machine = machine_info(np)
    calibration = Calibration()
    setup = measure_setup(workload)
    rec = Recorder()
    inst = Instrumentation(rec)
    if args.trace:
        # untraced, traced, untraced, over the fingerprint prefix
        jobs = []
        for traced in (False, True, False):
            jobs.append(run_job(workload, rec, inst, calibration, traced))
            if traced:
                counts = dict(rec.counts)
        outcomes, wall_s = jobs[1]
        untraced_jobs = [jobs[0][0], jobs[2][0]]
        job_prints = [fingerprint(job)["outputs"] for job, _ in jobs]
    else:
        outcomes, wall_s = run_job(workload, rec, inst, calibration, False, args.seconds)
        counts = None

    prints = fingerprint(outcomes[:workload.prefix], counts)
    stored = compare_stored(f"{workload.name}/{args.seed}/{source_hash()}", prints)
    checked = outcomes + [o for job in untraced_jobs for o in job] if args.trace else outcomes
    wrong = [p for o in checked for p in o.problems]
    errors = sorted({o.error for o in outcomes if o.error})
    correct = not wrong and not any(v.startswith("MISMATCH") for v in stored.values())
    if args.trace:
        correct = correct and len(set(job_prints)) == 1
    attempted = sum(o.checks for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    scales = [o.values["scale"] for o in outcomes]

    named = {  # every end-to-end figure by its own name, raw wall clock
        "setup_s": metric(setup["raw_s"], "s", SETUP_REPEATS),
        "wall_s": metric(wall_s, "s", len(outcomes)),
        "fail_ratio": metric(failed / attempted, "ratio", attempted),
        "peak_rss_mb": metric(peak_rss_mb, "MB", 1),
        **workload.metrics(outcomes, scaled=False),
    }
    scaled = workload.metrics(outcomes, scaled=True)
    if args.trace:
        reported = per_layer(rec, inst, outcomes, counts, untraced_jobs)
    else:
        own_names = {"rate_per_s": workload.rate, "op_p50_ms": workload.p50,
                     "op_tail_ms": workload.tail, "peak_rss_mb": "peak_rss_mb"}
        reported = {k: scaled.get(v, named[v]) for k, v in own_names.items()}
        reported["setup_s"] = setup  # at reference host speed; see calibration.py
        contract_raw = {k: named[v]["value"] for k, v in own_names.items()}
        contract_raw["setup_s"] = setup["raw_s"]

    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine,
        "state_mib_by_width": {w: 16 * 2 ** w / 2 ** 20 for w in workload.widths},
        "host_speed_scale": {"median": float(np.median(scales)), "min": min(scales),
                             "max": max(scales)},
        "requests": len(outcomes), "fingerprint_prefix": workload.prefix,
        "fingerprint": prints, "fingerprint_store": stored,
        "raw": named, "scaled": scaled, "reported": reported,
        "wrong": wrong[:20], "errors": errors,
    }
    if not args.trace:
        report["contract_raw"] = contract_raw
    if args.trace:
        accounted = sum(total for _, total in rec.self_times().values())
        report.update(job_fingerprints=job_prints, self_time_accounted_s=accounted)
        rec.save_spans(stem.with_name(stem.name + "-spans.npz"))
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1))
    print_summary(report)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in reported.items()},
    }))
    return 0


def print_summary(report):
    machine, trace = report["machine"], report["trace"]
    print(f"# perfbench {report['workload']} seed={report['seed']} trace={trace} "
          f"requests={report['requests']} (closed loop, one caller)")
    print(f"machine: nproc={machine['nproc']} cpu={machine['cpu_model']!r} "
          + " ".join(f"{k}={v / 2 ** 20:g}MiB" for k, v in machine["cache_bytes_per_core"].items())
          + f" python={machine['python']} numpy={machine['numpy']} blas={machine['blas']}"
          f" blas_threads={machine['blas_threads']}")
    print("state size: " + ", ".join(f"{w} qubits = {mib:g} MiB"
                                     for w, mib in report["state_mib_by_width"].items()))
    scale = report["host_speed_scale"]
    print(f"host speed scale (reference kernel time / measured): median {scale['median']:.3f}, "
          f"range {scale['min']:.3f}-{scale['max']:.3f}")
    sections = [("per-layer, traced", report["reported"])] if trace else [
        ("raw wall clock", report["raw"]), ("at reference host speed", report["reported"])]
    for title, metrics in sections:
        print(f"-- {title}")
        for name, m in metrics.items():
            extra = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                             for k, v in m.items() if k not in ("value", "unit"))
            print(f"{name:42s} {m['value']:<12.6g} {m['unit']:8s} {extra}")
    if trace:
        print(f"self times incl. bench.self_ms: {report['self_time_accounted_s']:.3f} s of traced "
              f"wall {report['reported']['traced_wall_s']['value']:.3f} s")
    prints, stored = report["fingerprint"], report["fingerprint_store"]
    print(f"fingerprint outputs={prints['outputs']} ({stored['outputs']})"
          + (f" counters={prints['counters']} ({stored['counters']})" if "counters" in prints
             else " counters: collected by the traced run only"))
    if trace:
        same = len(set(report["job_fingerprints"])) == 1
        print("untraced, traced, untraced fingerprints: " + " ".join(report["job_fingerprints"])
              + (" (identical)" if same else " (DIFFERENT)"))
    for problem in report["wrong"][:5]:
        print(f"WRONG: {problem}")
    for error in report["errors"]:
        print(f"FAILED: {error}")
    print(f"report: {(OUT.name)}/{report['workload']}-seed{report['seed']}-trace{trace}.json")
    if not trace:
        print(f"result line below, scaled; raw beside (median scale {scale['median']:.3f}): "
              + ", ".join(f"{name} {report['reported'][name]['value']:.6g} (raw {raw:.6g})"
                          for name, raw in report["contract_raw"].items()))


if __name__ == "__main__":
    sys.exit(main())
