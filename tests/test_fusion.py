"""Plan-time fusion of runs of diagonal and of permutation gate ops.

A fused plan must give, on random mixed-dimension circuits, the state the
dense oracle gives and the state and table that evolving every op on its
own gives; a run must end at a measurement and at an op of another class;
and mid-circuit `run` must share a fused plan between equal runs.
"""

import tracemalloc
from math import prod

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quditsim import (
    MEASURE,
    Circuit,
    StateVector,
    apply_gate,
    build,
    custom,
    full_unitary,
    run,
    simulate,
    single,
    two_qudit,
)
from quditsim import simulator
from quditsim.circuit import Measurement
from quditsim.gates import is_prime, resolve
from quditsim.simulator import DENSE, DIAGONAL, PERMUTATION, GateKernel, MeasurementTable

CLASSES = (DIAGONAL, PERMUTATION, DENSE)


def _custom(rng, side: int, structure: str) -> np.ndarray:
    phases = np.exp(2j * np.pi * rng.random(side))
    if structure == DIAGONAL:
        return np.diag(phases)
    if structure == PERMUTATION:
        matrix = np.zeros((side, side), dtype=complex)
        matrix[rng.permutation(side), np.arange(side)] = phases
        return matrix
    matrix, _ = np.linalg.qr(rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side)))
    return matrix


def _gate(rng, dims, structure: str):
    """(spec, wires) for a built-in or CUSTOM gate of `structure` (by kind;
    a power may make a built-in one diagonal)."""
    n = len(dims)
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b and dims[a] == dims[b]]
    if rng.random() < 0.5:
        wires = tuple(int(w) for w in rng.permutation(n)[: int(rng.integers(1, min(3, n) + 1))])
        return custom(_custom(rng, prod(dims[w] for w in wires), structure), [dims[w] for w in wires]), wires
    wire = int(rng.integers(n))
    kinds = {DIAGONAL: ["Z", "S", "CZ"], PERMUTATION: ["X", "CNOT"], DENSE: ["H"]}[structure]
    kinds = [k for k in kinds if pairs or k not in ("CZ", "CNOT")]
    if structure == DIAGONAL and is_prime(dims[wire]):
        kinds.append("U8")
    kind = kinds[int(rng.integers(len(kinds)))]
    d = dims[wire]
    if kind in ("CZ", "CNOT"):
        wires = pairs[int(rng.integers(len(pairs)))]
        d = dims[wires[0]]
        return two_qudit(kind, d, int(rng.integers(-2 * d, 2 * d + 1))), wires
    power = 1 if kind == "H" else int(rng.integers(-2 * d, 2 * d + 1))
    return single(kind, d, power), (wire,)


@st.composite
def fusable_circuits(draw):
    """(circuit, its gates alone): runs of one to four ops of one class,
    with a measurement after some runs, on mixed dimensions 2-7."""
    dims = draw(st.lists(st.integers(2, 7), min_size=1, max_size=4).filter(lambda ds: prod(ds) <= 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    circuit, gates = Circuit(), Circuit()
    for c in (circuit, gates):
        for i, d in enumerate(dims):
            c.add_qudit(f"q{i}", d)
    for k in range(draw(st.integers(1, 6))):
        structure = draw(st.sampled_from(CLASSES))
        for _ in range(draw(st.integers(1, 4))):
            spec, wires = _gate(rng, dims, structure)
            for c in (circuit, gates):
                c.apply(spec, *(c.qudits[w] for w in wires))
        if draw(st.booleans()):
            circuit.measure(circuit.qudits[draw(st.integers(0, len(dims) - 1))], f"m{k}")
    return circuit, gates


def _per_op(circuit: Circuit, seed: int):
    """Every op on its own, in program order: gates through `apply_gate`,
    measurements with the uniforms `simulate(circuit, seed=seed)` takes."""
    dims, rng = circuit.dims, np.random.default_rng(seed)
    amps = np.zeros(prod(dims), dtype=complex)
    amps[0] = 1.0
    table = MeasurementTable()
    for op in circuit.ops:
        if isinstance(op, Measurement):
            wire, out = circuit.wire_index(op.wire), np.empty_like(amps)
            table.add(op.key, dims[wire], simulator._measure_digit(amps, out, dims, wire, rng.random()))
            amps = out
        else:
            wires = [circuit.wire_index(w) for w in op.wires]
            amps = apply_gate(StateVector(dims, amps), resolve(op.spec), wires).amps
    return amps, table


@settings(max_examples=200, deadline=None)
@given(circuits=fusable_circuits(), seed=st.integers(0, 2**32 - 1))
def test_fused_simulate_matches_the_oracle_and_per_op_evolution(circuits, seed):
    circuit, gates = circuits
    e0 = np.zeros(prod(gates.dims), dtype=complex)
    e0[0] = 1.0
    np.testing.assert_allclose(simulate(gates)[0].amps, full_unitary(gates) @ e0, rtol=0, atol=1e-10)
    final, table = simulate(circuit, seed=seed)
    amps, expected = _per_op(circuit, seed)
    assert table == expected
    np.testing.assert_allclose(final.amps, amps, rtol=0, atol=1e-12)


def _kinds(circuit: Circuit) -> list:
    return [step.kind if isinstance(step, GateKernel) else "M" for step in simulator._plan(circuit)]


def test_runs_of_one_class_fuse_and_dense_ops_never_do():
    circuit, _, _ = build(
        3,
        ("H", ["q0", "q1", "q2"]),
        ("Z", "q0"), ("S", "q2", -1), ("CZ", ["q2", "q0"]),
        ("X", "q1"), ("CNOT", ["q1", "q2"]), ("X", "q0", 2),
        ("H", "q1"), ("H", "q1"),
    )
    assert _kinds(circuit) == [DENSE] * 3 + [DIAGONAL, PERMUTATION] + [DENSE] * 2


def test_a_run_ends_at_a_measurement_and_at_the_union_bound(monkeypatch):
    # X; M; X on one wire: fused across the measurement it would read 0, not 1.
    circuit, _, _ = build(3, ("X", "q0"), (MEASURE, "q0", "first"), ("X", "q0"), ("Z", "q1"), ("Z", "q2"))
    assert _kinds(circuit) == [PERMUTATION, "M", PERMUTATION, DIAGONAL]
    final, table = simulate(circuit, seed=1)
    assert table.records == {"first": [1]}
    assert final.amplitude((2, 0, 0)) == 1
    # Phases over q1 and q2 would be 9 amplitudes.
    monkeypatch.setattr(simulator, "GATHER_MAX", 8)
    assert _kinds(circuit) == [PERMUTATION, "M", PERMUTATION, DIAGONAL, DIAGONAL]


def test_mid_circuit_run_shares_fused_plans():
    def call(n):
        circuit = Circuit()
        q = [circuit.add_qudit(f"q{i}", 2) for i in range(17)]
        circuit.apply(single("H", 2), q[1])
        for k in range(n):
            circuit.measure(q[1], f"m{k}")
            circuit.apply(single("X", 2), q[1])
            circuit.apply(two_qudit("CNOT", 2), q[1], q[16])
        circuit.measure(q[16], "last")
        plans = {}
        kernels = [step for step in simulator._plan(circuit, plans=plans) if isinstance(step, GateKernel)]
        assert len(plans) == 2 and len({id(k) for k in kernels}) == 2  # the H, and one fused X; CNOT
        run(circuit, 1, seed=1)  # warm-up
        simulator.release_buffers()
        tracemalloc.start()
        try:
            run(circuit, 1, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            simulator.release_buffers()

    gather_map = (1 << 16) * 8  # the fused run gathers over wires 1-16
    assert abs(call(200) - call(20)) < gather_map
