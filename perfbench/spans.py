"""Counters and spans recorded around sharq's public entry points.

The benchmark wraps library functions from the outside; nothing under
``src/`` is edited. Two kinds of record are kept:

* quantum-step durations, which the end-to-end step latencies need. Their
  wrapper is the only one an untimed job carries; it runs once per step;
* exact counters (gates applied per kernel class, amplitudes touched,
  measurements), which feed the determinism fingerprint, and spans (name,
  start, end, parent), kept only while ``timing`` is on. Their wrappers sit
  on every gate application, so they are installed for the traced job only
  (``install(layers=True)``) and no untraced timing pays for them.

No wrapper draws a random number or reorders a call, so switching spans on
cannot change a tally, a trace or a sample.
"""
from __future__ import annotations

import functools
import time
import weakref
from array import array
from contextlib import contextmanager

import numpy as np

KERNEL_CLASSES = ("dense", "diag", "perm")


def classify(op) -> str:
    """Kernel class of an operation, judged only from its action.

    ``perm``: a permutation of basis states (X, CNOT, Toffoli, Swap, U_f).
    ``diag``: a diagonal matrix that is not a permutation (Z, S, T, CR_k).
    ``dense``: everything else (H, rotations, Y).
    """
    if op.permutation is not None:
        return "perm"
    m = op.matrix
    nonzero = m != 0
    monomial = bool((nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all())
    if monomial and bool(np.all(m[nonzero] == 1)):
        return "perm"
    if not np.any(nonzero & ~np.eye(len(m), dtype=bool)):
        return "diag"
    return "dense"


class Recorder:
    """Span store (parallel arrays) plus exact counters for one process."""

    def __init__(self):
        self.timing = False
        self.counts: dict[str, int] = {}
        self.step_s: dict[int, list[float]] = {}  # quantum-step durations by state width
        self.peak_qubits = 0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def add(self, key: str, amount: int = 1):
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def discard_last(self):
        """Forget the newest span; its time then counts toward its parent."""
        for column in (self.name_of, self.parent, self.start, self.end):
            column.pop()

    def innermost(self) -> str | None:
        return self.names[self.name_of[self._stack[-1]]] if self._stack else None

    def call(self, name: str, function, *args, **kwargs):
        """``function(*args, **kwargs)`` inside a span when timing is on."""
        if not self.timing:
            return function(*args, **kwargs)
        idx = self.open(name)
        try:
            return function(*args, **kwargs)
        finally:
            self.close(idx)

    @contextmanager
    def span(self, name: str):
        if not self.timing:
            yield
            return
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (count, self seconds); self = duration minus children."""
        if not self.start:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        duration = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent],
                               minlength=len(start))
        own = duration - children
        counts = np.bincount(name_of, minlength=len(self.names))
        totals = np.bincount(name_of, weights=own, minlength=len(self.names))
        return {name: (int(counts[i]), float(totals[i]))
                for i, name in enumerate(self.names) if counts[i]}

    def save_spans(self, path):
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name_of, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


class Instrumentation:
    """Installs the wrappers on the sharq modules and removes them again."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self._patched: list[tuple[object, str, object]] = []
        self._kinds: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.caches: list = []
        self.semantic_uf = None

    def kind(self, op) -> str:
        kind = self._kinds.get(op)
        if kind is None:
            kind = self._kinds[op] = classify(op)
        return kind

    def _patch(self, owner, attr, make):
        original = owner.__dict__[attr]
        replacement = functools.wraps(original)(make(original))
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def _timed(self, owner, attr, name):
        rec = self.rec

        def make(original):
            def wrapper(*args, **kwargs):
                return rec.call(name, original, *args, **kwargs)
            return wrapper
        self._patch(owner, attr, make)

    def install(self, layers: bool):
        """Wrap ``shor_quantum_step`` and, with ``layers``, every other entry point."""
        from sharq import algorithms, arithmetic, cli, engine, gates, linalg, numtheory, shor

        rec = self.rec
        modules = (algorithms, arithmetic, cli, engine, gates, linalg, numtheory, shor)
        self.caches = [v for m in modules for v in vars(m).values() if hasattr(v, "cache_clear")]
        self.semantic_uf = algorithms.semantic_uf
        apply_names = {k: f"engine.apply.{k}" for k in KERNEL_CLASSES}
        kind_of = self.kind

        def make_apply(original):
            def _apply(ctx, op, physical_targets):
                kind = kind_of(op)
                rec.add(apply_names[kind] + ".count")
                rec.add(apply_names[kind] + ".amps", 1 << ctx._count)
                return rec.call(apply_names[kind], original, ctx, op, physical_targets)
            return _apply

        def make_measure(original):
            def _measure(ctx, physical):
                rec.add("engine.measure.count")
                rec.add("engine.measure.amps", 1 << ctx._count)
                return rec.call("engine.measure", original, ctx, physical)
            return _measure

        def make_step(original):
            def shor_quantum_step(ctx, n_value, m, *args, **kwargs):
                idx = rec.open("algorithms.step") if rec.timing else None
                began = time.perf_counter()
                try:
                    return original(ctx, n_value, m, *args, **kwargs)
                finally:
                    took = time.perf_counter() - began
                    rec.step_s.setdefault(3 * int(n_value).bit_length(), []).append(took)
                    if idx is not None:
                        rec.close(idx)
            return shor_quantum_step

        def make_uf(original):
            def semantic_uf(m, modulus):
                if not rec.timing:
                    return original(m, modulus)
                misses = original.cache_info().misses
                idx = rec.open("algorithms.uf_build")
                try:
                    return original(m, modulus)
                finally:
                    rec.close(idx)
                    if original.cache_info().misses == misses:
                        rec.discard_last()  # a cache hit builds nothing
            return semantic_uf

        def make_unitary(original):
            def require_unitary(op):
                rec.add("gates.require_unitary.count")
                if "_action_is_unitary" in op.__dict__:
                    rec.add("gates.require_unitary.cached")
                return original(op)
            return require_unitary

        def make_alloc(original):
            def wrapper(ctx, *args, **kwargs):
                if rec.innermost() == "engine.alloc":  # allocate_register calls the other one
                    return original(ctx, *args, **kwargs)
                try:
                    return rec.call("engine.alloc", original, ctx, *args, **kwargs)
                finally:
                    rec.peak_qubits = max(rec.peak_qubits, ctx.physical_count)
            return wrapper

        self._patch(algorithms, "shor_quantum_step", make_step)
        if not layers:
            return
        self._patch(engine.SimulationContext, "_apply", make_apply)
        self._patch(engine.SimulationContext, "_measure", make_measure)
        self._patch(engine.SimulationContext, "allocate_register", make_alloc)
        self._patch(engine.SimulationContext, "_allocate_with_amplitudes", make_alloc)
        self._timed(engine.SimulationContext, "__init__", "engine.context")
        self._timed(engine.RegisterView, "set_from_unsigned", "engine.reset")
        self._patch(gates.QuantumOperation, "require_unitary", make_unitary)
        self._timed(linalg, "is_unitary", "linalg.is_unitary")
        self._patch(algorithms, "semantic_uf", make_uf)
        self._timed(algorithms, "extract_period", "algorithms.extract_period")

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def cold_start(self):
        """Empty every lru_cache in sharq, as a fresh process would have them."""
        for cache in self.caches:
            cache.cache_clear()
