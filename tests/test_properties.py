"""Property tests: the basis tracer, the engine and the compiled oracle agree.

Hypothesis draws circuit sizes, qubit layouts and inputs; each property is
checked against an independent oracle (classical arithmetic, per-input
traces, the amplitude engine, the full-matrix expansion, or the semantic U_f).
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharq import SimulationContext, engine
from sharq.algorithms import circuit_uf, semantic_uf
from sharq.arithmetic import OperationPlan, add_n_ops, modular_add_ops, run_on_basis
from sharq.errors import NotUnitaryOperationError
from sharq.gates import (
    HARD_QUBIT_LIMIT,
    QuantumOperation,
    bit_runs,
    cnot,
    expand_to_full_matrix,
    fredkin,
    pauli_x,
    swap,
    toffoli,
    trace_words,
)

from conftest import bits_of, put_bits, random_state

# derandomized and without an example database, so every run checks the same cases
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def _fields(layout, sizes):
    """Split a qubit layout into consecutive fields of the given sizes."""
    out, start = [], 0
    for size in sizes:
        out.append(layout[start:start + size])
        start += size
    return out


def _trace_agrees(plan, width, inputs):
    """The array trace equals the per-int traces; returns the traced ints."""
    traced = run_on_basis(plan.ops, width, np.array(inputs, dtype=np.int64))
    singles = [run_on_basis(plan.ops, width, value) for value in inputs]
    assert traced.tolist() == singles
    return singles


@PROPERTY
@given(st.data())
def test_adder_array_trace_matches_ints_and_addition(data):
    n = data.draw(st.integers(1, 5), label="n")
    spare = data.draw(st.integers(0, 2), label="spare")
    width = 3 * n + 1 + spare
    layout = data.draw(st.permutations(range(width)), label="layout")
    x, y, anc = _fields(layout, (n, n, n + 1))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, (1 << n) - 1),
                                         st.integers(0, (1 << n) - 1)), min_size=1, max_size=8))
    inputs = [put_bits(put_bits(0, width, x, a), width, y, b) for a, b in pairs]
    outs = _trace_agrees(add_n_ops(x, y, anc), width, inputs)
    for (a, b), out in zip(pairs, outs):
        assert bits_of(out, width, [anc[0], *y]) == a + b
        assert bits_of(out, width, x) == a
        assert bits_of(out, width, anc[1:]) == 0


@PROPERTY
@given(st.data())
def test_modular_adder_array_trace_matches_ints_and_modular_addition(data):
    n = data.draw(st.integers(1, 4), label="n")
    modulus = data.draw(st.integers(1, (1 << n) - 1), label="modulus")
    width = 4 * n + 2
    layout = data.draw(st.permutations(range(width)), label="layout")
    x, y, held, scratch, (flag,) = _fields(layout, (n, n, n, n + 1, 1))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, modulus - 1),
                                         st.integers(0, modulus - 1)), min_size=1, max_size=8))
    inputs = [put_bits(put_bits(put_bits(0, width, x, a), width, y, b), width, held, modulus)
              for a, b in pairs]
    plan = modular_add_ops(x, y, held, scratch, flag, modulus)
    outs = _trace_agrees(plan, width, inputs)
    for (a, b), out in zip(pairs, outs):
        assert bits_of(out, width, y) == (a + b) % modulus
        assert bits_of(out, width, x) == a
        assert bits_of(out, width, held) == modulus
        assert bits_of(out, width, [*scratch, flag]) == 0


CATALOG_ARITY = {pauli_x: 1, cnot: 2, swap: 2, toffoli: 3, fredkin: 3}


@st.composite
def classical_gates(draw, n_qubits):
    """A catalog permutation gate, or a random permutation, on random targets."""
    factory = draw(st.sampled_from(
        [f for f, k in CATALOG_ARITY.items() if k <= n_qubits] + [None]))
    arity = CATALOG_ARITY[factory] if factory else draw(st.integers(1, min(3, n_qubits)))
    targets = draw(st.permutations(range(n_qubits)))[:arity]
    if factory:
        return factory(*targets)
    permutation = draw(st.permutations(range(1 << arity)))
    return QuantumOperation("perm", tuple(targets), permutation=np.array(permutation))


@PROPERTY
@given(st.data())
def test_engine_maps_each_basis_state_where_the_tracer_does(data):
    n = data.draw(st.integers(1, 6), label="n")
    op = data.draw(classical_gates(n), label="op")
    value = data.draw(st.integers(0, (1 << n) - 1), label="value")
    ctx = SimulationContext(seed=0, debug=True)
    reg = ctx.allocate_register(n)
    reg.set_from_unsigned(value)
    reg.apply_operation(op)
    expected = np.zeros(1 << n)
    expected[run_on_basis([op], n, value)] = 1.0
    assert np.abs(ctx._state - expected).max() < 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(st.data())
def test_compiled_oracle_is_the_semantic_permutation(data):
    modulus = data.draw(st.sampled_from([15, 21]), label="N")
    m = data.draw(st.sampled_from([c for c in range(2, modulus) if math.gcd(c, modulus) == 1]),
                  label="m")
    compiled = circuit_uf(m, modulus)
    compiled.require_unitary()
    assert np.array_equal(compiled.permutation, semantic_uf(m, modulus).permutation)


# --- gate kernels against the full-matrix and basis-trace oracles ------------

# "matrix01" is a basis permutation given as a 0/1 matrix, "permutation" one
# given as a basis map; both dispatch to the permutation kernel.
KINDS = ("dense", "diag", "matrix01", "permutation")
seeds = st.integers(0, 2**32 - 1)


@st.composite
def operations(draw, width):
    """An operation of any kernel class, arity 0-4, on random targets of a view.

    Permutations of every arity here move slices in place when their targets
    are scattered; ``test_nine_qubit_permutation_takes_the_axis_move`` covers
    the axis move of wider ones."""
    arity = draw(st.integers(0, min(4, width)), label="arity")
    targets = tuple(draw(st.permutations(range(width)), label="targets")[:arity])
    kind = draw(st.sampled_from(KINDS), label="kind")
    dim = 1 << arity
    rng = np.random.default_rng(draw(seeds, label="seed"))
    if kind == "dense":
        q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        return QuantumOperation(kind, targets, matrix=q * (np.diagonal(r) / np.abs(np.diagonal(r))))
    if kind == "diag":
        phases = np.exp(2j * np.pi * rng.random(dim))
        phases[rng.random(dim) < 0.3] = 1.0  # entries of 1 are skipped by the kernel
        return QuantumOperation(kind, targets, matrix=np.diag(phases))
    images = np.array(draw(st.permutations(range(dim)), label="images"))
    if kind == "permutation":
        return QuantumOperation(kind, targets, permutation=images)
    return QuantumOperation(kind, targets, matrix=np.eye(dim)[:, images])


@st.composite
def views(draw):
    """(context width, exposed order): a sliced, reordered view of one register."""
    n = draw(st.integers(1, 6), label="n")
    width = draw(st.integers(1, n), label="width")
    return n, tuple(draw(st.permutations(range(n)), label="order")[:width])


def _oracle(op, physical, n, state):
    """``op`` on ``physical`` of an n-qubit state, without the engine."""
    placed = op.retarget(physical)
    if op.matrix is not None:
        expected = expand_to_full_matrix(placed, n) @ state
    if op._basis_images is not None:
        moved = np.empty_like(state)
        moved[run_on_basis([placed], n, np.arange(1 << n))] = state
        if op.matrix is not None:
            assert np.abs(moved - expected).max() < 1e-12  # the two oracles agree
        expected = moved
    return expected


def _context(data, n):
    ctx = SimulationContext(seed=data.draw(seeds, label="ctx seed"), debug=True)
    reg = ctx.allocate_register(n)
    ctx._set_state(random_state(np.random.default_rng(data.draw(seeds, label="state")), n))
    return ctx, reg


@PROPERTY
@given(st.data())
def test_random_circuits_match_the_oracles_and_their_inverse_restores(data):
    n, order = data.draw(views())
    ops = data.draw(st.lists(operations(len(order)), min_size=1, max_size=6), label="ops")
    ctx, reg = _context(data, n)
    view = reg.slice(order)
    start = expected = ctx._state.copy()
    for op in ops:
        view.apply_operation(op)
        expected = _oracle(op, tuple(order[t] for t in op.targets), n, expected)
        assert np.abs(ctx._state - expected).max() < 1e-10
        assert abs(np.linalg.norm(ctx._state) - 1.0) < 1e-12
    view.apply_operations(OperationPlan(tuple(ops), ()).inverse().ops)
    assert np.abs(ctx._state - start).max() < 1e-10


@PROPERTY
@given(st.data())
def test_collapse_is_seen_through_every_aliasing_view(data):
    n, order = data.draw(views())
    ctx, reg = _context(data, n)
    view = reg.slice(order)
    view.apply_operations(data.draw(st.lists(operations(len(order)), max_size=3), label="ops"))
    subset = data.draw(st.permutations(range(len(order))), label="subset")
    subset = subset[:data.draw(st.integers(1, len(order)), label="k")]
    measured = tuple(order[i] for i in subset)
    before = ctx._state.copy()

    bits = view.measure(subset)

    # the projected, renormalized state, by explicit index arithmetic
    keep = np.array([bits_of(v, n, measured) == bits.to_unsigned() for v in range(1 << n)])
    projected = np.where(keep, before, 0)
    assert np.abs(ctx._state - projected / np.linalg.norm(projected)).max() < 1e-10
    for other in (reg, reg.slice_reverse(), view):
        positions = [other.exposed.index(q) for q in measured]
        assert other.measure(positions).bits == bits.bits
    assert abs(np.linalg.norm(ctx._state) - 1.0) < 1e-12


@PROPERTY
@given(st.data())
def test_one_pass_reset_equals_a_not_per_differing_bit(data):
    n, order = data.draw(views())
    ctx, reg = _context(data, n)
    view = reg.slice(order)
    have = view.measure().bits  # the view is collapsed; the other qubits stay superposed
    value = data.draw(st.integers(0, (1 << len(order)) - 1), label="value")
    reference = SimulationContext(debug=True)
    reference.allocate_register(n)
    reference._state = ctx._state.copy()
    for i, qubit in enumerate(order):
        if have[i] != (value >> (len(order) - 1 - i)) & 1:
            reference._apply(pauli_x(0), (qubit,))

    view.set_from_unsigned(value)

    assert np.array_equal(ctx._state, reference._state)
    assert ctx._state.flags.c_contiguous
    assert view.measure().to_unsigned() == value


def _not_unitary(kind, dim, rng):
    if kind == "dense":
        return {"matrix": rng.normal(size=(dim, dim)) + 0j}
    if kind == "diag":
        phases = np.ones(dim, dtype=complex)
        phases[rng.integers(dim)] = 0.5
        return {"matrix": np.diag(phases)}
    images = rng.permutation(dim)
    images[0] = images[1]  # two inputs share an image: not a bijection
    if kind == "permutation":
        return {"permutation": images}
    return {"matrix": np.eye(dim)[:, images]}


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY
@given(data=st.data())
def test_failed_unitarity_check_leaves_the_state_bit_identical(kind, data):
    n, order = data.draw(views())
    ctx, reg = _context(data, n)
    arity = data.draw(st.integers(1, min(3, len(order))), label="arity")
    targets = tuple(data.draw(st.permutations(range(len(order))), label="targets")[:arity])
    rng = np.random.default_rng(data.draw(seeds, label="seed"))
    op = QuantumOperation("bad", targets, **_not_unitary(kind, 1 << arity, rng))
    assert op._kernel == {"matrix01": "perm", "permutation": "perm"}.get(kind, kind)
    before = ctx._state.copy()
    with pytest.raises(NotUnitaryOperationError):
        reg.slice(order).apply_operation(op)
    assert np.array_equal(ctx._state, before)


def test_nine_qubit_permutation_takes_the_axis_move():
    # wider than engine._SLICE_MOVE_ARITY on scattered, reordered targets; between
    # fusable gates it stays a barrier of its own
    n, physical = 10, (9, 0, 3, 5, 1, 8, 6, 2, 7)
    rng = np.random.default_rng(9)
    wide = QuantumOperation("wide", physical, permutation=rng.permutation(1 << 9))
    ctx = SimulationContext(seed=0, debug=True)
    reg = ctx.allocate_register(n)
    ctx._set_state(random_state(rng, n))
    expected = _oracle(wide, physical, n, ctx._state)
    reg.apply_operation(wide)
    assert np.array_equal(ctx._state, expected)

    plan = (cnot(4, 7), pauli_x(0), wide, toffoli(4, 7, 0))
    fused = engine._fused(plan).ops
    assert [op.targets for op in fused] == [(0, 4, 7), physical, (4, 7, 0)]
    assert fused[1] is wide and fused[2] is plan[3]  # a lone gate is kept as it is
    for op in plan:
        expected = _oracle(op, op.targets, n, expected)
    reg.apply_operations(plan)
    assert np.array_equal(ctx._state, expected)


# --- fused plans against gate-by-gate application and tracing -----------------

@st.composite
def layouts(draw):
    """(context width, exposed order) of a scattered, reversed or adjacent view."""
    n = draw(st.integers(1, 10), label="n")
    width = draw(st.integers(1, n), label="width")
    kind = draw(st.sampled_from(("scattered", "reversed", "adjacent")), label="layout")
    if kind == "scattered":
        return n, tuple(draw(st.permutations(range(n)), label="order")[:width])
    start = draw(st.integers(0, n - width), label="start")
    order = tuple(range(start, start + width))
    return n, order[::-1] if kind == "reversed" else order


@st.composite
def zero_one_permutations(draw, width):
    """A random basis permutation on up to 4 targets, as a map or a 0/1 matrix."""
    arity = draw(st.integers(1, min(4, width)), label="arity")
    targets = tuple(draw(st.permutations(range(width)), label="targets")[:arity])
    images = np.array(draw(st.permutations(range(1 << arity)), label="images"))
    if draw(st.booleans(), label="as matrix"):
        return QuantumOperation("matrix01", targets, matrix=np.eye(1 << arity)[:, images])
    return QuantumOperation("permutation", targets, permutation=images)


def classical_plans(width, barriers):
    """Mostly catalog and random basis permutations; with ``barriers``, also dense,
    diagonal and zero-target gates between them."""
    gates = [classical_gates(width), zero_one_permutations(width)]
    if barriers:
        gates.append(operations(width))
    return st.lists(st.one_of(*gates), min_size=1, max_size=30)


@PROPERTY
@given(st.data())
def test_fused_plans_apply_bit_identically_to_gate_by_gate(data):
    n, order = data.draw(layouts())
    ops = data.draw(classical_plans(len(order), barriers=True), label="ops")
    fused_ctx, reg = _context(data, n)
    single_ctx = SimulationContext(debug=True)
    single = single_ctx.allocate_register(n)
    single_ctx._state = fused_ctx._state.copy()

    reg.slice(order).apply_operations(ops)
    for op in ops:
        single.slice(order).apply_operation(op)

    assert np.array_equal(fused_ctx._state, single_ctx._state)


@PROPERTY
@given(st.data())
def test_fused_traces_equal_gate_by_gate_traces(data):
    width = data.draw(st.integers(1, 12), label="width")
    ops = data.draw(classical_plans(width, barriers=False), label="ops")
    inputs = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=8),
                       label="inputs")
    expected = np.array(inputs, dtype=np.int64)
    for op in ops:
        expected = run_on_basis([op], width, expected)
    assert run_on_basis(ops, width, np.array(inputs)).tolist() == expected.tolist()
    assert [run_on_basis(ops, width, value) for value in inputs] == expected.tolist()


@PROPERTY
@given(st.data())
def test_classical_plans_on_sparse_states_apply_bit_identically_on_both_paths(data):
    n, order = data.draw(layouts())
    ops = data.draw(classical_plans(len(order), barriers=False), label="ops")
    # supports from one amplitude to past the share where the per-op passes take over
    limit = int((1 << n) * engine._SUPPORT_SHARE)
    size = data.draw(st.integers(1, min(1 << n, 2 * limit + 2)), label="support")
    rng = np.random.default_rng(data.draw(seeds, label="state"))
    state = np.zeros(1 << n, dtype=complex)
    state[rng.choice(1 << n, size, replace=False)] = rng.normal(size=size) + 1j * rng.normal(size=size)
    ctx = SimulationContext(debug=True)
    reg = ctx.allocate_register(n)
    ctx._set_state(state)
    single_ctx = SimulationContext(debug=True)
    single = single_ctx.allocate_register(n)
    single_ctx._state = ctx._state.copy()
    passes = []
    apply = ctx._apply
    ctx._apply = lambda op, physical: passes.append(op) or apply(op, physical)

    reg.slice(order).apply_operations(ops)
    for op in ops:
        single.slice(order).apply_operation(op)

    assert np.array_equal(ctx._state, single_ctx._state)
    assert (not passes) == (size <= limit)  # the support size alone picks the path


# --- bit runs against per-bit gathers and traces -------------------------------

@st.composite
def target_tuples(draw):
    """Distinct targets in a basis word: scattered, adjacent either way, one, or none."""
    kind = draw(st.sampled_from(("scattered", "ascending", "descending", "single", "empty")),
                label="kind")
    if kind == "empty":
        return ()
    if kind == "single":
        return (draw(st.integers(0, HARD_QUBIT_LIMIT - 1), label="target"),)
    k = draw(st.integers(2, 8), label="k")
    if kind == "scattered":
        return tuple(draw(st.permutations(range(HARD_QUBIT_LIMIT)), label="targets")[:k])
    start = draw(st.integers(0, HARD_QUBIT_LIMIT - k), label="start")
    targets = tuple(range(start, start + k))
    return targets if kind == "ascending" else targets[::-1]


def _bitwise_gather(word, shifts):
    """The big-endian sub-index of ``shifts``, one bit at a time."""
    sub = 0
    for shift in shifts:
        sub = (sub << 1) | ((word >> shift) & 1)
    return sub


def _run_gather(word, runs):
    sub = word & 0  # an array of zeros for an array, also with no runs
    for shift, mask, place in runs:
        sub |= ((word >> shift) & mask) << place
    return sub


def _run_scatter(sub, runs):
    word = sub & 0
    for shift, mask, place in runs:
        word |= ((sub >> place) & mask) << shift
    return word


def _bitwise_trace(ops, word: int) -> int:
    """Each gate's image of its targets written back one bit at a time, from
    ``_basis_images`` alone."""
    for op in ops:
        shifts = [HARD_QUBIT_LIMIT - 1 - t for t in op.targets]
        image = int(op._basis_images[_bitwise_gather(word, shifts)])
        for j, shift in enumerate(shifts):
            bit = (image >> (op.arity - 1 - j)) & 1
            word = (word & ~(1 << shift)) | (bit << shift)
    return word


words = st.lists(st.integers(0, (1 << HARD_QUBIT_LIMIT) - 1), min_size=1, max_size=8)


@PROPERTY
@given(target_tuples(), words)
def test_run_gathers_and_scatters_equal_per_bit_ones(targets, values):
    shifts = [HARD_QUBIT_LIMIT - 1 - t for t in targets]
    runs = bit_runs(shifts)
    assert sum(mask.bit_length() for _, mask, _ in runs) == len(targets)
    array = np.array(values, dtype=np.int64)
    gathered = [_bitwise_gather(value, shifts) for value in values]
    assert [_run_gather(value, runs) for value in values] == gathered
    assert np.array_equal(_run_gather(array, runs), gathered)
    on_targets = sum(1 << shift for shift in shifts)
    for value, sub in zip(values, gathered):
        assert _run_scatter(sub, runs) == value & on_targets
        assert _run_gather(_run_scatter(sub, runs), runs) == sub
    assert np.array_equal(_run_gather(_run_scatter(np.array(gathered, dtype=np.int64), runs), runs),
                          gathered)


@PROPERTY
@given(st.data())
def test_traced_words_equal_per_bit_traces_of_the_unfused_gates(data):
    width = data.draw(st.integers(1, 12), label="width")
    ops = data.draw(classical_plans(width, barriers=False), label="ops")
    values = data.draw(words, label="words")
    expected = [_bitwise_trace(ops, value) for value in values]
    for plan in (ops, engine._fused(tuple(ops)).ops):
        assert [trace_words(plan, value) for value in values] == expected
        assert trace_words(plan, np.array(values, dtype=np.int64)).tolist() == expected
