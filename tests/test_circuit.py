import time

import numpy as np
import pytest

from quditsim import (
    Circuit,
    CircuitParseError,
    GateApplication,
    GateKind,
    GateSpec,
    MEASURE,
    Measurement,
    QuditRef,
    build,
    full_unitary,
    ghz_circuit,
    h_matrix,
    is_unitary,
    kron,
    moments,
    parse_circuit,
    single,
    two_qudit,
)
from conftest import random_mixed_circuit


def test_append_single_gate_registers_wire():
    c = Circuit()
    c.apply(single("H", 3), QuditRef("q0", 3))
    assert len(c.ops) == 1
    assert [q.name for q in c.qudits] == ["q0"]
    assert c.dims == (3,)


def test_append_auto_registers_second_wire():
    c = Circuit()
    q0 = c.add_qudit("q0", 3)
    c.apply(two_qudit("CNOT", 3), q0, QuditRef("q1", 3))
    assert c.dims == (3, 3)
    assert c.qudits[1].ordinal == 1


def test_append_rejects_dimension_mismatch():
    c = Circuit()
    c.add_qudit("q0", 3)
    with pytest.raises(ValueError, match="3"):
        c.apply(two_qudit("CNOT", 4), QuditRef("q0", 4), QuditRef("q1", 4))


def test_gate_application_rejects_wire_spec_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        GateApplication(single("H", 3), (QuditRef("q0", 4),))


def test_append_rejects_duplicate_measurement_key():
    c = Circuit()
    q = c.add_qudit("q0", 3)
    c.measure(q, "k")
    with pytest.raises(ValueError, match="k"):
        c.measure(q, "k")


def test_many_measurement_keys_append_in_linear_time():
    text = "qudit q0 2\n" + "".join(f"M q0 k{i}\n" for i in range(40000))
    start = time.perf_counter()
    circuit, _, _ = parse_circuit(text)
    assert time.perf_counter() - start < 10
    assert circuit.measurement_keys() == [f"k{i}" for i in range(40000)]
    with pytest.raises(CircuitParseError, match="k39999"):
        parse_circuit(text + "M q0 k39999\n")


def test_append_rejects_repeated_wire():
    q = QuditRef("q0", 3)
    with pytest.raises(ValueError, match="repeated"):
        GateApplication(two_qudit("CZ", 3), (q, q))


# --- builder ---


def test_build_two_qutrit_circuit():
    circuit, names, order = build(
        3,
        ("H", "q0"),
        ("CNOT", ["q0", "q1"]),
        (MEASURE, "q0"),
        (MEASURE, "q1"),
    )
    assert [q.name for q in order] == ["q0", "q1"]
    assert set(names) == {"q0", "q1"}
    assert circuit.dims == (3, 3)
    assert circuit.measurement_keys() == ["m_q0", "m_q1"]


def test_build_matches_manual_construction():
    built, _, _ = build(
        3,
        ("H", "q0"),
        ("CNOT", ["q0", "q1"]),
        (MEASURE, "q0"),
        (MEASURE, "q1"),
    )
    manual = Circuit()
    q0 = manual.add_qudit("q0", 3)
    q1 = manual.add_qudit("q1", 3)
    manual.apply(single("H", 3), q0)
    manual.apply(two_qudit("CNOT", 3), q0, q1)
    manual.measure(q0)
    manual.measure(q1)
    assert built == manual


def test_build_with_per_step_dimensions():
    circuit, names, order = build((3, "H", "q0"), (4, "H", "q1"))
    assert circuit.dims == (3, 4)
    assert names["q1"].dimension == 4
    assert [q.name for q in order] == ["q0", "q1"]


def test_build_empty():
    circuit, names, order = build()
    assert circuit.ops == [] and names == {} and order == []


def test_build_requires_a_dimension():
    with pytest.raises(ValueError, match="dimension"):
        build(("H", "q0"))


def test_build_rejects_conflicting_dimensions():
    with pytest.raises(ValueError, match="conflict"):
        build((3, "H", "q0"), (4, "H", "q0"))


def test_build_fans_single_gate_over_names():
    circuit, _, _ = build(3, ("H", ["q0", "q1"]))
    assert len(circuit.ops) == 2


def test_build_gate_power_step():
    circuit, _, _ = build(3, ("Z", "q0", 2))
    assert circuit.ops[0].spec.power == 2


def test_build_measure_with_explicit_key():
    circuit, _, _ = build(3, ("H", "q0"), (MEASURE, "q0", "shot"))
    assert circuit.measurement_keys() == ["shot"]


# --- moments ---


def test_sequential_ops_on_same_wire_take_two_moments():
    circuit, _, _ = build(3, ("H", "q0"), ("CNOT", ["q0", "q1"]))
    assert [len(col) for col in moments(circuit)] == [1, 1]


def test_disjoint_ops_pack_into_one_moment():
    circuit, _, _ = build(3, ("H", "q0"), ("H", "q1"))
    cols = moments(circuit)
    assert len(cols) == 1 and len(cols[0]) == 2


def test_moments_of_empty_circuit():
    assert moments(Circuit()) == []


def test_moments_flatten_to_valid_topological_order():
    rng = np.random.default_rng(11)
    for _ in range(25):
        circuit = random_mixed_circuit(rng)
        for col in moments(circuit):
            touched = [w.name for op in col for w in op.wires]
            assert len(touched) == len(set(touched))
        flat = [op for col in moments(circuit) for op in col]
        assert sorted(map(id, flat)) == sorted(map(id, circuit.ops))
        # Per-wire program order must be preserved.
        for q in circuit.qudits:
            def on_wire(ops):
                return [
                    id(op)
                    for op in ops
                    if any(w.name == q.name for w in getattr(op, "wires", (getattr(op, "wire", None),)))
                ]
            assert on_wire(flat) == on_wire(circuit.ops)


# --- full unitary oracle ---


def test_full_unitary_of_empty_registry_circuit():
    c = Circuit()
    c.add_qudit("a", 3)
    c.add_qudit("b", 3)
    np.testing.assert_allclose(full_unitary(c), np.eye(9))


def test_full_unitary_embeds_single_gate():
    c = Circuit()
    a = c.add_qudit("a", 3)
    c.add_qudit("b", 3)
    c.apply(single("H", 3), a)
    np.testing.assert_allclose(full_unitary(c), kron(h_matrix(3), np.eye(3)), atol=1e-12)


def test_full_unitary_ghz_amplitudes():
    u = full_unitary(ghz_circuit(3, 3))
    state = u[:, 0]
    np.testing.assert_allclose(np.abs(state[[0, 13, 26]]), np.full(3, 1 / np.sqrt(3)), atol=1e-12)
    others = np.delete(state, [0, 13, 26])
    assert np.max(np.abs(others)) < 1e-12


def test_full_unitary_rejects_measurements():
    with pytest.raises(ValueError, match="measurement"):
        full_unitary(ghz_circuit(2, 3, measure=True))


def test_full_unitary_respects_cap():
    c = Circuit()
    for i in range(7):
        c.add_qudit(f"q{i}", 4)
    with pytest.raises(ValueError, match="cap"):
        full_unitary(c)


def test_full_unitary_is_unitary_on_random_circuits():
    rng = np.random.default_rng(5)
    for _ in range(20):
        circuit = random_mixed_circuit(rng, max_qudits=3, max_dim=4, max_depth=8)
        assert is_unitary(full_unitary(circuit), 1e-10)


def test_full_unitary_respects_composition():
    rng = np.random.default_rng(17)
    kinds = [GateKind.X, GateKind.Z, GateKind.H, GateKind.S]
    for _ in range(10):
        first = random_mixed_circuit(rng, max_qudits=3, max_dim=3, max_depth=5)
        wires = list(first.qudits)
        tail_ops = []
        for _ in range(4):
            w = wires[int(rng.integers(len(wires)))]
            kind = kinds[int(rng.integers(len(kinds)))]
            tail_ops.append(GateApplication(single(kind, w.dimension), (w,)))

        second = Circuit()
        combined = Circuit()
        for q in wires:
            second.add_qudit(q.name, q.dimension)
            combined.add_qudit(q.name, q.dimension)
        combined.extend(first.ops)
        second.extend(tail_ops)
        combined.extend(tail_ops)
        np.testing.assert_allclose(
            full_unitary(combined),
            full_unitary(second) @ full_unitary(first),
            atol=1e-10,
        )
