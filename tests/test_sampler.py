"""The one exact batched sampler against numpy's own `Generator.choice`.

`_sample(p, 1.0, u, scratch)` must return the index
`default_rng(s).choice(len(p), p=p)` returns when `u` is the first uniform
of stream `s`, for every stream. `run` must reproduce, table for table, the
per-repetition `choice` sampler it replaced, on terminal and on mid-circuit
measurement alike. Terminal sampling's two passes, `_born`'s total and
`_sample`'s blocked draw, must equal `probs.sum()` and the one-block
search over the whole CDF bit for bit.
"""

from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditsim import (
    Circuit,
    GateApplication,
    Measurement,
    MeasurementTable,
    StateVector,
    apply_gate,
    basis_state,
    mixed_radix_decode,
    resolve,
    run,
    simulate,
)
from quditsim import simulator
from quditsim.simulator import _born, _sample
from conftest import random_mixed_circuit

STREAMS = 500
SHAPES = ("random", "leading", "trailing", "interior", "one-hot")


@st.composite
def distributions(draw):
    """A normalized distribution of up to 2^12 outcomes, by shape: random
    weights, weights with leading, trailing or interior zeros, or one-hot."""
    size = draw(st.integers(1, 1 << 12))
    shape = draw(st.sampled_from(SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.random(size) ** int(rng.integers(1, 4))  # cubes skew the weights
    if shape == "one-hot":
        p = np.zeros(size)
        p[int(rng.integers(size))] = 1.0
    elif size > 1:
        cut = int(rng.integers(1, size))
        if shape == "leading":
            p[:cut] = 0
        elif shape == "trailing":
            p[cut:] = 0
        elif shape == "interior":
            p[1:-1][rng.random(size - 2) < rng.random()] = 0
    return p / p.sum()


@settings(max_examples=40, deadline=None)
@given(p=distributions(), seed=st.integers(0, 2**63 - 1))
def test_draw_equals_generator_choice(p, seed):
    streams = np.random.SeedSequence(seed).spawn(STREAMS)
    expected = [int(np.random.default_rng(s).choice(len(p), p=p)) for s in streams]
    uniforms = [np.random.default_rng(s).random() for s in streams]
    assert _sample(p.copy(), 1.0, uniforms, np.empty(p.size)).tolist() == expected
    one_at_a_time = [int(_sample(p.copy(), 1.0, [u], np.empty(p.size))[0]) for u in uniforms[:20]]
    assert one_at_a_time == expected[:20]


def test_draw_never_lands_on_a_zero_outcome_at_a_cdf_step():
    # choice picks the first outcome whose CDF exceeds u, so a uniform on a
    # step of the CDF, 0.0 included, skips every zero-probability outcome.
    def draw(p, uniforms):
        return _sample(np.array(p), 1.0, uniforms, np.empty(len(p)))

    assert draw([0.0, 0.0, 1.0], [0.0]).tolist() == [2]
    assert draw([0.5, 0.0, 0.5], [0.0, 0.5, 0.75]).tolist() == [0, 2, 2]
    p = np.array([0.0, 0.25, 0.0, 0.0, 0.5, 0.25, 0.0])
    steps = np.concatenate([[0.0], p.cumsum()])
    assert (p[draw(p, steps[steps < 1])] > 0).all()


# Of choice's refusals the sampler needs those of a non-finite total: it is
# given |psi|^2 or a marginal and their sum, so no weight is negative, and it
# divides by that sum, so any finite positive one sums p to 1. The ids number
# the cases as in the list of choice's five refusals that `_draw` checked.
@pytest.mark.parametrize("p", [[0.5, np.nan, 0.5], [0.5, np.inf]], ids=["p1", "p2"])
def test_draw_refuses_what_choice_refuses(p):
    p = np.array(p)
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(len(p), p=p)
    with pytest.raises(ValueError, match="probabilities"):
        _sample(p, p.sum(), [0.5], np.empty(p.size))


def _reference_run(circuit: Circuit, repetitions: int, seed: int) -> MeasurementTable:
    """The per-repetition sampler `run` replaced: a fresh `Generator.choice`
    per repetition over the final distribution of the gates when no gate
    acts on a measured wire, else the circuit replayed op by op with
    `choice` drawing each measurement's outcome."""
    dims = circuit.dims
    streams = np.random.SeedSequence(seed).spawn(repetitions)
    table = MeasurementTable()
    gates = [op for op in circuit.ops if isinstance(op, GateApplication)]
    measurements = [op for op in circuit.ops if isinstance(op, Measurement)]
    measured_before = [
        {m.wire.name for m in circuit.ops[:i] if isinstance(m, Measurement)} for i in range(len(circuit.ops))
    ]
    if not any(  # every measurement terminal: no gate acts on a measured wire
        isinstance(op, GateApplication) and {w.name for w in op.wires} & measured
        for op, measured in zip(circuit.ops, measured_before)
    ):
        bare = Circuit()
        for q in circuit.qudits:
            bare.add_qudit(q.name, q.dimension)
        final, _ = simulate(bare.extend(gates))
        probs = np.abs(final.amps) ** 2
        probs = probs / probs.sum()
        for stream in streams:
            index = int(np.random.default_rng(stream).choice(len(probs), p=probs))
            digits = mixed_radix_decode(index, dims)
            for m in measurements:
                wire = circuit.wire_index(m.wire)
                table.extend(m.key, dims[wire], [digits[wire]])
        return table
    for stream in streams:
        rng = np.random.default_rng(stream)
        state = basis_state(dims, [0] * len(dims))
        for op in circuit.ops:
            if isinstance(op, GateApplication):
                state = apply_gate(state, resolve(op.spec), [circuit.wire_index(w) for w in op.wires])
                continue
            wire = circuit.wire_index(op.wire)
            probs = np.abs(state.amps.reshape(dims)) ** 2
            others = tuple(a for a in range(len(dims)) if a != wire)
            if others:
                probs = probs.sum(axis=others)
            probs = probs / probs.sum()
            digit = int(rng.choice(dims[wire], p=probs))
            view = (prod(dims[:wire]), dims[wire], prod(dims[wire + 1:]))
            collapsed = np.zeros(view, dtype=complex)
            collapsed[:, digit] = state.amps.reshape(view)[:, digit] / np.sqrt(probs[digit])
            state = StateVector(dims, collapsed)
            table.extend(op.key, dims[wire], [digit])
    return table


def _measured(circuit: Circuit, rng, midcircuit: bool) -> Circuit:
    """The circuit with a random subset of its wires measured, in random
    order: all at the end, or each right after a random op."""
    ops = list(circuit.ops)
    wires = circuit.qudits
    chosen = rng.permutation(len(wires))[: int(rng.integers(1, len(wires) + 1))]
    for wire in chosen:
        at = int(rng.integers(len(ops) + 1)) if midcircuit else len(ops)
        ops.insert(at, Measurement(wires[wire], f"k{wire}"))
    out = Circuit()
    for q in wires:
        out.add_qudit(q.name, q.dimension)
    return out.extend(ops)


@pytest.mark.parametrize("midcircuit", [False, True], ids=["terminal", "midcircuit"])
def test_run_equals_per_repetition_choice(midcircuit):
    for case in range(40):
        rng = np.random.default_rng(9000 + case)
        circuit = _measured(random_mixed_circuit(rng, max_qudits=4, max_dim=7), rng, midcircuit)
        reps, seed = int(rng.integers(1, 300)), int(rng.integers(2**63))
        expected = _reference_run(circuit, reps, seed)
        got = run(circuit, reps, seed=seed).table
        assert got.lines() == expected.lines(), (case, str(circuit))
        assert got.key_dims == expected.key_dims


def test_extend_keeps_key_order_and_repetitions():
    table = MeasurementTable()
    table.extend("b", 3, np.array([2, 0, 1]))
    table.extend("a", 11, [10, 0, 7])
    assert list(table.records) == ["b", "a"]
    assert table.repetitions() == 3
    assert table.lines() == ["b=201", "a=10,0,7"]
    assert all(type(x) is int for digits in table.records.values() for x in digits)
    table.extend("b", 3, [1])
    table.extend("a", 11, [4])
    assert list(table.records) == ["b", "a"] and table.repetitions() == 4
    table.extend("b", 3, [])
    assert table.repetitions() == 4


# --- terminal sampling in two passes ---


def _amps_with_zero_runs(rng, size: int, block: int) -> np.ndarray:
    """Random amplitudes with runs of zeros: one ending a block, one starting
    the next, a whole block when there are three, and one at random."""
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    if size > 8:
        amps[block - 3:block] = 0
        amps[block:block + 2] = 0
        if size >= 3 * block:
            amps[block:2 * block] = 0
        start = int(rng.integers(size - 4))
        amps[start:start + 4] = 0
    return amps / np.linalg.norm(amps)


def _sizes(block: int) -> list[int]:
    return [1, 2, 7] + [k * block + offset for k in (1, 2, 5) for offset in (-1, 0, 1)]


@pytest.mark.parametrize("block", [8, 64, simulator.BORN_BLOCK])
def test_born_total_is_numpys_pairwise_sum(monkeypatch, block):
    monkeypatch.setattr(simulator, "BORN_BLOCK", block)
    rng = np.random.default_rng(block)
    for size in _sizes(block) + [1000, 3 * block + 129]:
        amps = _amps_with_zero_runs(rng, size, block)
        probs, total = _born(amps, np.empty(size, dtype=complex))
        assert np.array_equal(probs, np.abs(amps) ** 2), size
        assert total == probs.sum(), size


@pytest.mark.parametrize("block", [8, 64, simulator.BORN_BLOCK])
def test_blocked_draw_equals_draw_and_choice(monkeypatch, block):
    monkeypatch.setattr(simulator, "BORN_BLOCK", block)
    rng = np.random.default_rng(block + 1)
    for size in _sizes(block):
        amps = _amps_with_zero_runs(rng, size, block)
        probs, total = _born(amps, np.empty(size, dtype=complex))
        p = probs / total
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        steps = cdf[block - 1::block]  # every block's last CDF value, and values on zero runs
        uniforms = np.concatenate([[0.0, 1 - 2**-53], steps[steps < 1], cdf[cdf < 1][:50], rng.random(200)])
        expected = cdf.searchsorted(uniforms, side="right")
        got = _sample(probs.copy(), total, uniforms, np.full(size, np.nan))
        assert np.array_equal(got, expected), size
        for seed in range(20):  # and numpy's own sampler, one stream at a time
            u = np.random.default_rng(seed).random()
            assert _sample(probs.copy(), total, [u], np.empty(size)) == np.random.default_rng(seed).choice(size, p=p)


@pytest.mark.parametrize("size", [7, 8 * 5 + 1])
def test_blocked_draw_refuses_a_nan_state(monkeypatch, size):
    monkeypatch.setattr(simulator, "BORN_BLOCK", 8)
    for bad in (np.nan, np.inf):
        amps = np.full(size, size**-0.5, dtype=complex)
        amps[3] = bad
        probs, total = _born(amps, np.empty(size, dtype=complex))
        with pytest.raises(ValueError, match="probabilities"):
            _sample(probs, total, [0.5], np.empty(size))
