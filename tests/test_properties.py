"""Property tests: the basis tracer, the engine and the compiled oracle agree.

Hypothesis draws circuit sizes, qubit layouts and inputs; each property is
checked against an independent oracle (classical arithmetic, per-input
traces, the amplitude engine, or the semantic U_f).
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sharq import SimulationContext
from sharq.algorithms import circuit_uf, semantic_uf
from sharq.arithmetic import add_n_ops, modular_add_ops, run_on_basis
from sharq.gates import QuantumOperation, cnot, fredkin, pauli_x, swap, toffoli

from conftest import bits_of, put_bits

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
