"""Property tests: the basis tracer, the engine and the compiled oracle agree.

Hypothesis draws circuit sizes, qubit layouts and inputs; each property is
checked against an independent oracle (classical arithmetic, per-input
traces, the amplitude engine, the full-matrix expansion, or the semantic U_f).
"""
import copy
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sharq
from sharq import SimulationContext, engine, gates, linalg
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
    gather_bits,
    hadamard,
    pauli_x,
    prepare_named_state,
    scatter_bits,
    swap,
    toffoli,
    trace_subindices,
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
    modulus = data.draw(st.sampled_from([15, 21, 33]), label="N")
    m = data.draw(st.sampled_from([c for c in range(2, modulus) if math.gcd(c, modulus) == 1]),
                  label="m")
    compiled = circuit_uf(m, modulus)
    compiled.require_unitary()
    assert np.array_equal(compiled.permutation, semantic_uf(m, modulus).permutation)


def _reference_round(ctx, physical, a, modulus, b, measured, i):
    """One Shor round as gates on ``ctx``: H on the control, ``semantic_uf(a, N)``
    on the register and the readout H * diag(1, exp(i theta)), then the control's
    marginal, summed over the flat indices, and its ``_measure``."""
    register = engine.RegisterView(ctx, physical)
    register.apply_operation(hadamard(0))
    register.apply_operation(semantic_uf(a, modulus))
    theta = 2 * np.pi * ((b << i) - measured) / (1 << (i + 1))
    readout = hadamard().matrix @ np.diag([1, np.exp(1j * theta)])
    register.apply_operation(QuantumOperation("readout", (0,), matrix=readout))
    squares = np.abs(ctx._state) ** 2
    bit = (np.arange(len(squares)) >> (ctx.physical_count - 1 - physical[0])) & 1
    marginal = (squares[bit == 0].sum(), squares[bit == 1].sum())
    return marginal, ctx._measure(physical[:1])[0]


@pytest.mark.parametrize("placement", ["alone", "after", "between", "shuffled"])
@settings(PROPERTY, max_examples=15)
@given(st.data())
def test_the_step_kernel_is_the_rounds_gates_then_the_work_read(placement, data):
    # _step against the gates on a twin context with the same generator, which
    # sets the register to 1 and then runs round by round, then the work
    # register's _measure: the probabilities agree to 1e-12, the bits and the work
    # value agree unless the uniform is within 1e-12 of a boundary, and the states
    # agree to rounding over the sampled path's probability; a = 1 and work
    # supports within the share and past it, on a register alone, after other
    # qubits, between them or shuffled among them (each placement its own 15
    # examples, so that none goes undrawn). The register starts at any classical
    # value, the other qubits at one value spread by Hadamards or dense, and the
    # support bound covers every nonzero amplitude after the read
    modulus = data.draw(st.integers(2, 77), label="N")
    coprime = [c for c in range(1, modulus) if math.gcd(c, modulus) == 1]
    n = modulus.bit_length()
    k = n + 1
    width = k if placement == "alone" else k + data.draw(st.integers(2, 4), label="others")
    if placement == "shuffled":
        physical = tuple(data.draw(st.permutations(range(width)), label="order")[:k])
    else:
        first = {"alone": 0, "after": width - k}.get(placement)
        if first is None:
            first = data.draw(st.integers(1, width - k - 1), label="first")
        physical = tuple(range(first, first + k))
    others = tuple(q for q in range(width) if q not in physical)
    seed = data.draw(seeds, label="seed")
    kernel_ctx, oracle_ctx = (SimulationContext(seed=seed, debug=True) for _ in range(2))
    start = data.draw(st.integers(0, (1 << k) - 1), label="register")
    if data.draw(st.booleans(), label="sparse"):
        spread = data.draw(st.lists(st.sampled_from(others), max_size=3, unique=True)
                           if others else st.just([]), label="H")
        rest = data.draw(st.integers(0, (1 << (width - k)) - 1), label="rest")
        for ctx in (kernel_ctx, oracle_ctx):
            full = ctx.allocate_register(width)
            engine.RegisterView(ctx, physical + others).set_from_unsigned(
                start << (width - k) | rest)
            full.apply_operations([hadamard(q) for q in spread])
    else:
        # a random state of the other qubits; a replaced array has no bound
        state = random_state(np.random.default_rng(seed), width)
        state[bits_of(np.arange(1 << width), width, physical) != start] = 0
        for ctx in (kernel_ctx, oracle_ctx):
            ctx.allocate_register(width)
            ctx._set_state(state)
            ctx._state = ctx._state.copy()
    rounds = data.draw(st.integers(1, 4), label="rounds")
    multipliers = data.draw(st.lists(st.sampled_from(coprime), min_size=rounds, max_size=rounds),
                            label="a")

    with mock.patch.object(engine, "_sample", wraps=engine._sample) as spy:
        measured, f = kernel_ctx._step(physical, modulus, multipliers)
    engine.RegisterView(oracle_ctx, physical).set_from_unsigned(1)
    draws = [call.args for call in spy.call_args_list]
    assert len(draws) == rounds + 1
    path, b = 1.0, 0  # the probability of the bits read, and the control's bit
    for i, a in enumerate(multipliers):
        (p0, p1), uniform = draws[i]
        marginal, expected = _reference_round(oracle_ctx, physical, a, modulus, b,
                                              measured & ((1 << i) - 1), i)
        assert abs(p0 - marginal[0]) <= 1e-12 and abs(p1 - marginal[1]) <= 1e-12
        if abs(uniform - marginal[0] / sum(marginal)) <= 1e-12:
            return  # within rounding of the boundary: either bit may come out
        b = measured >> i & 1
        assert b == expected
        path *= marginal[b]
    read, uniform = draws[-1]
    marginal = oracle_ctx._marginal_probabilities(engine._layout(width, physical[1:]))
    assert np.abs(read - marginal).max() <= 1e-12
    cumulative = np.cumsum(marginal * (marginal >= engine.PROBABILITY_FLOOR))
    if np.abs(uniform * cumulative[-1] - cumulative).min() <= 1e-12:
        return
    bits = oracle_ctx._measure(physical[1:])
    assert f == int("".join(map(str, bits)), 2)
    assert np.abs(kernel_ctx._state - oracle_ctx._state).max() <= 1e-12 / (path * marginal[f])
    _assert_inside_the_bound(kernel_ctx)


# --- gate kernels against the full-matrix and basis-trace oracles ------------

# "matrix01" is a basis permutation given as a 0/1 matrix, "permutation" one
# given as a basis map; both dispatch to the permutation kernel.
KINDS = ("dense", "diag", "matrix01", "permutation")
seeds = st.integers(0, 2**32 - 1)


def _random_unitary(rng, dim):
    """A Haar-random dim x dim unitary."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@st.composite
def operations(draw, width):
    """An operation of any kernel class, arity 0-4, on random targets of a view.

    Permutations of every arity here move slices in place when their targets
    are scattered; ``test_nine_qubit_permutation_takes_the_axis_move`` covers
    the axis move of wider ones."""
    arity = draw(st.integers(0, min(4, width)), label="arity")
    targets = tuple(draw(st.permutations(range(width)), label="targets")[:arity])
    return draw(actions(draw(st.sampled_from(KINDS), label="kind"), targets))


@st.composite
def actions(draw, kind, targets):
    """A random operation of ``kind``, one of KINDS, on ``targets``."""
    dim = 1 << len(targets)
    rng = np.random.default_rng(draw(seeds, label="seed"))
    if kind == "dense":
        return QuantumOperation(kind, targets, matrix=_random_unitary(rng, dim))
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
    generator = copy.deepcopy(ctx.rng)

    bits = view.measure(subset)

    # the sampler, by explicit index arithmetic: the marginal of the measured
    # qubits, the floor, the cumulative weights, the same uniform and a
    # right-side search, clamped; a draw at a boundary may go either way
    marginal = np.zeros(1 << len(measured))
    for v in range(1 << n):
        marginal[bits_of(v, n, measured)] += abs(before[v]) ** 2
    cumulative = np.cumsum(marginal * (marginal >= engine.PROBABILITY_FLOOR))
    draw = generator.random() * cumulative[-1]
    outcome = min(int(np.searchsorted(cumulative, draw, side="right")), len(marginal) - 1)
    if np.abs(cumulative - draw).min() > 1e-12 * cumulative[-1]:
        assert bits.to_unsigned() == outcome
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


ONE = QuantumOperation("one", (), matrix=np.eye(1))  # zero targets: a classical barrier


@PROPERTY
@given(st.data())
def test_plans_that_repeat_a_run_share_its_fused_ops_and_apply_as_gate_by_gate(data):
    n, order = data.draw(layouts())
    width = len(order)
    run = data.draw(classical_plans(width, barriers=False), label="run")
    sparse = data.draw(st.booleans(), label="sparse")
    barrier = st.just(ONE) if sparse else st.one_of(
        st.just(ONE), st.builds(hadamard, st.integers(0, width - 1)))
    barriers = data.draw(st.lists(barrier, min_size=1, max_size=3), label="barriers")
    ops = list(run)
    for op in barriers:
        ops += [op, *run]
    segments = [[]]
    for op in engine._fused(tuple(ops)).ops:
        if op in barriers:
            segments.append([])
        else:
            segments[-1].append(op)
    assert all(segment == segments[0] for segment in segments)  # the same instances

    rng = np.random.default_rng(data.draw(seeds, label="state"))
    state = random_state(rng, n)
    limit = int((1 << n) * engine._SUPPORT_SHARE)
    if sparse:  # a classical plan: the support path when the support is small enough
        size = data.draw(st.integers(1, max(1, limit)), label="support")
        state[rng.permutation(1 << n)[size:]] = 0
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
    assert (not passes) == (sparse and size <= limit)


# --- the support bound against the amplitudes ----------------------------------

def _assert_inside_the_bound(ctx):
    """Every nonzero amplitude sits inside the support bound, when there is one."""
    bound = ctx._bound()
    if bound is None:
        return
    base, free = bound.base.tolist(), bound.free
    assert len(set(base)) == len(base)
    allowed = {word & ~free for word in base}
    assert {index & ~free for index in np.flatnonzero(ctx._state).tolist()} <= allowed


def _passes_over_the_state(ctx, exposed, ops) -> bool:
    """Apply the plan ``ops`` to the view ``exposed``; whether it took per-op passes."""
    passes, apply = [], ctx._apply
    ctx._apply = lambda op, physical: passes.append(op) or apply(op, physical)
    try:
        engine.RegisterView(ctx, exposed).apply_operations(ops)
    finally:
        del ctx._apply
    return bool(passes)


# plans and single gates come up most, so plans often meet a bound that gates widened
STEPS = ("basis", "w", "gate", "gate", "reset", "measure", "plan", "plan", "plan",
         "set state", "assign")


@PROPERTY
@given(st.data())
def test_the_support_bound_holds_after_every_step_and_plans_apply_as_without_it(data):
    ctx = SimulationContext(seed=data.draw(seeds, label="ctx seed"), debug=True)
    ctx.allocate_register(data.draw(st.integers(1, 9), label="first"))
    rng = np.random.default_rng(data.draw(seeds, label="rng"))
    for step in data.draw(st.lists(st.sampled_from(STEPS), max_size=16), label="steps"):
        n = ctx.physical_count
        view = engine.RegisterView(ctx, tuple(data.draw(st.permutations(range(n)), label="order")
                                              [:data.draw(st.integers(1, n), label="width")]))
        if step == "basis" and n < 12:
            ctx.allocate_register(data.draw(st.integers(1, 12 - n), label="qubits"))
        elif step == "w" and n < 10:
            prepare_named_state(ctx, "w")
        elif step == "gate":
            view.apply_operation(data.draw(operations(len(view)), label="op"))
        elif step == "reset":
            view.measure()
            view.set_from_unsigned(data.draw(st.integers(0, (1 << len(view)) - 1), label="value"))
        elif step == "measure":
            value = view.measure().to_unsigned()
            bound = ctx._bound()
            if bound is not None:  # the bound pins the measured qubits to the outcome
                layout = engine._layout(n, view.exposed)
                assert not bound.free & layout.bits
                assert set(gates.gather_bits(layout.runs, bound.base).tolist()) == {value}
        elif step == "plan":
            ops = data.draw(classical_plans(len(view), barriers=False), label="ops")
            twin = SimulationContext(debug=True)
            twin.allocate_register(n)
            twin._state = ctx._state.copy()  # no bound: the state is dense
            # the plan makes no per-op pass exactly when the bound allows at most
            # the share, and the state ends as the dense passes leave it
            bound = ctx._bound()
            sparse = bound is not None and bound.candidates(1 << n) is not None
            assert _passes_over_the_state(ctx, view.exposed, ops) != sparse
            assert _passes_over_the_state(twin, view.exposed, ops)
            assert np.array_equal(ctx._state, twin._state)
        elif step == "set state":
            state = random_state(rng, n)
            state[rng.random(1 << n) < data.draw(st.sampled_from([0.0, 0.9, 1.0]))] = 0
            state[rng.integers(1 << n)] = 1.0
            ctx._set_state(state)
        elif step == "assign":
            ctx._state = ctx._state.copy()
        _assert_inside_the_bound(ctx)


def test_a_permutation_on_bits_no_word_leaves_free_keeps_a_loose_bound_exact():
    # H on qubits 0-8 of 12 leaves 512 candidates, past the share of 256, so each
    # gate below takes a dense pass. Qubits 9-11 are free in no word: the X and the
    # CNOT move the one base word and free nothing, and so does the reset's Not
    ctx = SimulationContext(seed=3, debug=True)
    reg = ctx.allocate_register(12).apply_operations([hadamard(q) for q in range(9)])
    free = ctx._bound().free
    assert ctx._bound().candidates(1 << 12) is None
    reg.apply_operation(pauli_x(9))  # bits 2, 1, 0 are qubits 9, 10, 11
    assert ctx._bound().free == free and ctx._bound().base.tolist() == [0b100]
    reg.apply_operation(cnot(9, 11))
    assert ctx._bound().free == free and ctx._bound().base.tolist() == [0b101]
    _assert_inside_the_bound(ctx)
    reg.slice_from(9).set_from_unsigned(0b111)
    assert ctx._bound().free == free and ctx._bound().base.tolist() == [0b111]
    # a read of the 9 pins them: the bound is one word again, and a classical plan
    # moves it alone
    value = reg.slice_to(8).measure().to_unsigned()
    base, free = ctx._bound()
    assert base.tolist() == [value << 3 | 0b111] and free == 0
    ops = [cnot(9, 10), toffoli(0, 11, 10), pauli_x(4)]
    assert not _passes_over_the_state(ctx, reg.exposed, ops)
    _assert_inside_the_bound(ctx)
    assert len(ctx._bound().base) == 1 and ctx._bound().free == 0
    assert reg.measure().to_unsigned() == ctx._bound().base[0]


def _unbounded_twin(ctx):
    """A context holding a copy of ``ctx``'s state with no support bound, so that
    its gates and reads take the dense paths, and a copy of its generator."""
    twin = SimulationContext(debug=True)
    twin.allocate_register(ctx.physical_count)
    twin._state = ctx._state.copy()
    twin.rng = copy.deepcopy(ctx.rng)
    return twin


@st.composite
def sparse_gates(draw, width, kind):
    """An operation of ``kind`` on 1-3 targets of ``width`` qubits, adjacent
    ascending or scattered."""
    k = draw(st.integers(1, 3), label="k")
    if draw(st.booleans(), label="adjacent"):
        start = draw(st.integers(0, width - k), label="start")
        targets = tuple(range(start, start + k))
    else:
        targets = tuple(draw(st.permutations(range(width)), label="targets")[:k])
    return draw(actions(kind, targets))


@PROPERTY
@given(st.data())
def test_dense_gates_and_reads_on_a_sparse_state_match_the_dense_paths(data):
    # a classical plan moves |0...0> to a random word, and each dense gate then
    # frees its targets' bits: the first gate always takes the sparse path, and the
    # later ones take it while the bound's groups stay within 1/16 of the state. A
    # permutation moves the candidates while they do and binds the indices it moves
    # them to; phases leave the bound as it was
    n = data.draw(st.integers(7, 12), label="n")
    ctx = SimulationContext(seed=data.draw(seeds, label="ctx seed"), debug=True)
    reg = ctx.allocate_register(n)
    reg.apply_operations(data.draw(classical_plans(n, barriers=False), label="plan"))
    steps = data.draw(st.lists(st.sampled_from(("dense", "dense", *KINDS[1:], "read")),
                               min_size=1, max_size=8), label="steps")
    for i, step in enumerate(["dense", *steps]):
        twin = _unbounded_twin(ctx)
        if step != "read":
            op = data.draw(sparse_gates(n, step), label="op")
            bound = ctx._bound()
            sparse = bound is not None and \
                bound.candidates(1 << n, engine._layout(n, op.targets).bits) is not None
            assert sparse or i > 0
            reg.apply_operation(op)
            twin._apply(op, op.targets)
            if step == "dense":
                # the two products sum in other orders, so they agree to rounding
                assert np.abs(ctx._state - twin._state).max() <= 1e-15
            else:  # moves and scalings are exact
                assert np.array_equal(ctx._state, twin._state)
            assert op._kernel != "diag" or ctx._bound() is bound
        else:
            subset = list(range(n))  # every qubit in order, or a random subset
            if data.draw(st.booleans(), label="subset"):
                subset = data.draw(st.permutations(range(n)), label="order")[
                    :data.draw(st.integers(1, n), label="width")]
            read = reg.measure(subset).bits
            assert read == engine.RegisterView(twin, tuple(subset)).measure().bits
            a, b = engine._layout(n, tuple(subset)).block or (0, 0)
            if 0 < a * b <= 2:
                # the dense read squares |amp| as the sparse one does, and sums at
                # most two squares per outcome: the same marginal, bit for bit
                assert np.array_equal(ctx._state, twin._state)
            assert np.abs(ctx._state - twin._state).max() <= 1e-15
        _assert_inside_the_bound(ctx)


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


@PROPERTY
@given(target_tuples(), words, st.data())
def test_gates_bit_run_helpers_gather_what_they_scatter(targets, values, data):
    shifts = [HARD_QUBIT_LIMIT - 1 - t for t in targets]
    runs = bit_runs(shifts)
    subs = data.draw(st.lists(st.integers(0, (1 << len(shifts)) - 1), min_size=1, max_size=8),
                     label="subs")
    for value, sub in zip(values, subs):
        assert gather_bits(runs, value) == _bitwise_gather(value, shifts)
        assert gather_bits(runs, scatter_bits(runs, sub)) == sub
    array = np.array(subs, dtype=np.int64)
    assert gather_bits(runs, scatter_bits(runs, array)).tolist() == subs
    assert array.tolist() == subs
    gathered = gather_bits(runs, np.array(values, dtype=np.int64))
    assert gathered.tolist() == [_bitwise_gather(value, shifts) for value in values]


@PROPERTY
@given(st.data())
def test_traced_subindices_equal_gate_by_gate_traces_of_their_padded_words(data):
    width = data.draw(st.integers(1, HARD_QUBIT_LIMIT), label="width")
    ops = data.draw(classical_plans(width, barriers=False), label="ops")
    # enough contents that the int and the array side of the trace both run
    values = data.draw(st.lists(st.integers(0, (1 << width) - 1),
                                min_size=gates._INT_TRACE_WORDS + 1, max_size=40), label="values")
    pad = HARD_QUBIT_LIMIT - width
    expected = []
    for value in values:
        word = value << pad
        for op in ops:
            word = trace_words([op], word)
        expected.append(word >> pad)
    assert trace_subindices(ops, values[0], width) == expected[0]
    for size in (1, gates._INT_TRACE_WORDS, gates._INT_TRACE_WORDS + 1, len(values)):
        array = np.array(values[:size], dtype=np.int64)
        assert trace_subindices(ops, array, width).tolist() == expected[:size]
        assert array.tolist() == values[:size]


@PROPERTY
@given(st.data())
def test_plans_with_a_gate_wider_than_a_fused_run_trace_alike_as_ints_and_arrays(data):
    # semantic_uf(m, N) with N >= 2**9 acts on at least 11 qubits, more than
    # engine._SLICE_MOVE_ARITY: fusion passes it through, and its int lookup
    # gathers into basis_flips rather than holding 2**k Python ints
    modulus = data.draw(st.integers(1 << 9, (1 << 12) - 1), label="modulus")
    m = data.draw(st.integers(2, modulus - 1).filter(lambda m: math.gcd(m, modulus) == 1),
                  label="m")
    oracle = semantic_uf(m, modulus)
    width = data.draw(st.integers(oracle.arity, 20), label="width")
    wide = oracle.retarget(data.draw(st.permutations(range(width)), label="order")[:oracle.arity])
    ops = (*data.draw(classical_plans(width, barriers=False), label="before"), wide,
           *data.draw(classical_plans(width, barriers=False), label="after"))
    fused = engine._fused(ops).ops
    assert any(op is wide for op in fused)
    assert [isinstance(op._word_flips[1], dict) for op in fused] == [
        op.arity <= gates._SLICE_MOVE_ARITY for op in fused]
    values = data.draw(st.lists(st.integers(0, (1 << width) - 1),
                                min_size=gates._INT_TRACE_WORDS + 1, max_size=40), label="values")
    pad = HARD_QUBIT_LIMIT - width
    expected = [_bitwise_trace(ops, value << pad) >> pad for value in values]
    gate_by_gate = []
    for value in values:
        word = value << pad
        for op in ops:
            word = trace_words([op], word)
        gate_by_gate.append(word >> pad)
    assert gate_by_gate == expected
    assert [run_on_basis(ops, width, value) for value in values] == expected
    for size in (gates._INT_TRACE_WORDS, gates._INT_TRACE_WORDS + 1):
        # the first size is traced one int at a time, the second as one array
        traced = run_on_basis(ops, width, np.array(values[:size], dtype=np.int64))
        assert traced.tolist() == expected[:size]


# --- sampling ------------------------------------------------------------------------

def _array_pick(marginal: np.ndarray, uniform: float) -> int:
    """The inverse-CDF rule on arrays: floored weights, ``cumsum``, a right-side
    search of ``uniform`` times the total, clamped to the last outcome."""
    cumulative = (marginal * (marginal >= engine.PROBABILITY_FLOOR)).cumsum()
    outcome = int(cumulative.searchsorted(uniform * cumulative[-1], side="right"))
    return min(outcome, len(marginal) - 1)


# zeros, entries below the floor and at it, and weights of any sum
probabilities = st.one_of(
    st.just(0.0),
    st.floats(0.0, engine.PROBABILITY_FLOOR, exclude_max=True),
    st.just(engine.PROBABILITY_FLOOR),
    st.floats(0.0, 3.0),
)


@settings(PROPERTY, max_examples=200)
@given(st.lists(probabilities, min_size=2, max_size=engine._SCALAR_OUTCOMES),
       st.floats(0.0, 1.0, exclude_max=True))
# draws exactly at the cumulative boundaries 0.25 and 0.5, then 0.5, 1 and 2 of 4
@example([0.25, 0.0, 0.25, 1e-13, 0.5], 0.5)
@example([0.5, 0.5, 1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 0.5)
@example([0.0, 0.0], 0.0)
def test_small_marginals_pick_on_python_floats_as_on_arrays(values, drawn):
    marginal = np.array(values)
    cumulative = (marginal * (marginal >= engine.PROBABILITY_FLOOR)).cumsum()
    uniforms = {0.0, drawn}
    if cumulative[-1] > 0:
        # uniforms that put the draw at each cumulative boundary and a step to either side
        for edge in cumulative / cumulative[-1]:
            for uniform in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
                if uniform < 1.0:
                    uniforms.add(float(uniform))
    for uniform in sorted(uniforms):
        expected = _array_pick(marginal, uniform)
        assert engine._sample(values, uniform) == expected
        assert engine._sample(marginal, uniform) == expected  # numpy scalars, the same sums


# --- per-trial generators ---------------------------------------------------------

@PROPERTY
@given(st.integers(0, 2**160), st.integers(0, 2**70), st.integers(1, 6))
def test_trial_generators_are_in_the_full_state_of_their_trial_seeds(master, start, count):
    # masters and trial indices of any width: past 4 words of entropy in all,
    # SeedSequence mixes the rest into its 4-word pool
    states = [rng.bit_generator.state
              for rng in engine._trial_generators(master, start, start + count)]
    assert states == [np.random.default_rng(engine.trial_seed(master, t)).bit_generator.state
                      for t in range(start, start + count)]


# --- typed refusals at every public entry point --------------------------------

def _seeded():
    return SimulationContext(seed=0)


def _three_qubits():
    return _seeded().allocate_register(3)


# each exported function and method with junk in one argument; the others are valid
ENTRY_POINTS = {
    **{call.__name__: call for call in (
        sharq.hadamard, sharq.pauli_x, sharq.pauli_y, sharq.pauli_z, sharq.phase_s,
        sharq.phase_t, sharq.identity_gate, sharq.walsh, sharq.rotation_k, sharq.rx,
        sharq.qft_ops, sharq.inverse_qft_ops, sharq.hadamard_all_ops, sharq.reverse_ops,
        sharq.bits_to_express, sharq.is_prime, sharq.is_prime_power, linalg.is_unitary,
        linalg.as_matrix, linalg.conjugate_transpose, linalg.identity)},
    "cnot target": lambda x: sharq.cnot(0, x),
    "swap": lambda x: sharq.swap(0, x),
    "toffoli target": lambda x: sharq.toffoli(0, 1, x),
    "fredkin target": lambda x: sharq.fredkin(0, 1, x),
    "rotation_k target": lambda x: sharq.rotation_k(2, x),
    "rz target": lambda x: sharq.rz(0.5, x),
    "controlled_u u": lambda x: sharq.controlled_u(x, (0,), 1),
    "controlled_u controls": lambda x: sharq.controlled_u(hadamard(0), x, 1),
    "retarget op": lambda x: sharq.retarget(x, (1,)),
    "retarget targets": lambda x: sharq.retarget(hadamard(0), x),
    "single_qubit_gate": sharq.single_qubit_gate,
    "GateSpec kind": lambda x: sharq.single_qubit_gate(sharq.GateSpec(x, 0.5)),
    "GateSpec parameter": lambda x: sharq.single_qubit_gate(sharq.GateSpec("Rx", x)),
    "single_qubit_gate target": lambda x: sharq.single_qubit_gate(sharq.GateSpec("H"), x),
    "QuantumOperation targets": lambda x: QuantumOperation("q", x, permutation=[1, 0]),
    "QuantumOperation matrix": lambda x: QuantumOperation("q", (0,), matrix=x),
    "QuantumOperation permutation": lambda x: QuantumOperation("q", (0,), permutation=x),
    "expand_to_full_matrix op": lambda x: expand_to_full_matrix(x, 2),
    "expand_to_full_matrix width": lambda x: expand_to_full_matrix(hadamard(0), x),
    "prepare_named_state": lambda x: prepare_named_state(_seeded(), x),
    "deutsch": lambda x: sharq.deutsch(_seeded(), x),
    "extract_period samples": lambda x: sharq.extract_period(x, 2, 15),
    "extract_period sample": lambda x: sharq.extract_period([x], 2, 15),
    "extract_period m": lambda x: sharq.extract_period([sharq.PeriodSample(3, 8)], x, 15),
    "extract_period n": lambda x: sharq.extract_period([sharq.PeriodSample(3, 8)], 2, x),
    "semantic_uf m": lambda x: semantic_uf(x, 15),
    "semantic_uf modulus": lambda x: semantic_uf(2, x),
    "shor_quantum_step n": lambda x: sharq.shor_quantum_step(_seeded(), x, 2),
    "shor_quantum_step m": lambda x: sharq.shor_quantum_step(_seeded(), 15, x),
    "shor_quantum_step oracle": lambda x: sharq.shor_quantum_step(_seeded(), 15, 2, oracle=x),
    "shor_factor n": lambda x: sharq.shor_factor(_seeded(), x),
    "shor_factor force_m": lambda x: sharq.shor_factor(_seeded(), 15, force_m=x),
    "add_n_ops": lambda x: add_n_ops(x, [1], [2]),
    "carry_ops": lambda x: sharq.carry_ops(x, 1, 2, 3),
    "carry_inverse_ops": lambda x: sharq.carry_inverse_ops(0, x, 2, 3),
    "sum_ops": lambda x: sharq.sum_ops(0, 1, x),
    "modular_add_ops": lambda x: modular_add_ops([0, 1], [2, 3], [4, 5], [6, 7], 8, x),
    "modular_exponentiation_ops": lambda x: sharq.modular_exponentiation_ops(
        [0], [1, 2, 3, 4], range(5, 19), x, 15),
    "controlled_modular_multiply_ops": lambda x: sharq.controlled_modular_multiply_ops(
        0, [1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12], [13, 14, 15, 16, 17], x, 15),
    "OperationPlan ops": lambda x: OperationPlan(x, (0,)).inverse(),
    "OperationPlan result_indices": lambda x: OperationPlan((pauli_x(0),), x).inverse(),
    "run_on_basis ops": lambda x: run_on_basis(x, 3, 1),
    "run_on_basis width": lambda x: run_on_basis([pauli_x(0)], x, 1),
    "run_on_basis value": lambda x: run_on_basis([pauli_x(0)], 3, x),
    "gcd": lambda x: sharq.gcd(x, 3),
    "mod_pow": lambda x: sharq.mod_pow(2, x, 15),
    "trial_seed": lambda x: sharq.trial_seed(0, x),
    "ClassicalResult bits": lambda x: sharq.ClassicalResult(x).to_unsigned(),
    "ClassicalResult bit": lambda x: sharq.ClassicalResult((1, x)).to_unsigned(),
    "SimulationContext seed": lambda x: SimulationContext(seed=x),
    "SimulationContext cap": lambda x: SimulationContext(qubit_cap=x),
    "allocate_register": lambda x: _seeded().allocate_register(x),
    "set_location": lambda x: _seeded().set_location(x),
    "slice": lambda x: _three_qubits().slice(x),
    "slice_range": lambda x: _three_qubits().slice_range(x, 1),
    "slice_reorder": lambda x: _three_qubits().slice_reorder(x),
    "set_from_unsigned": lambda x: _three_qubits().set_from_unsigned(x),
    "apply_operation": lambda x: _three_qubits().apply_operation(x),
    "apply_operations": lambda x: _three_qubits().apply_operations(x),
    "measure": lambda x: _three_qubits().measure(x),
    "is_unitary tol": lambda x: linalg.is_unitary(np.eye(2), x),
    "approx_equal": lambda x: linalg.approx_equal(x, np.eye(2)),
    "tensor": lambda x: linalg.tensor(x, np.eye(2)),
    "multiply": lambda x: linalg.multiply(np.eye(2), x),
}

# None, strings, lists, floats with inf and NaN, ints past 64 bits, complex numbers,
# NumPy scalars, bools and negatives. Ints stay small where they are valid, so no
# call allocates a wide state
junk = st.one_of(
    st.sampled_from([None, 2**70, -1, True, np.int64(2), np.float64(0.5), np.complex128(1j)]),
    st.text(max_size=3), st.lists(st.integers(-1, 8), max_size=3), st.floats(),
    st.complex_numbers(), st.integers(-2, 12))


@PROPERTY
@given(junk)
def test_every_entry_point_returns_or_raises_a_typed_refusal_on_junk(value):
    for name, call in ENTRY_POINTS.items():
        try:
            call(value)
        except sharq.SharqError:
            pass
        except Exception as exc:
            raise AssertionError(f"{name}({value!r}) raised {exc!r}") from exc
