import csv
import io
from collections import Counter

import numpy as np
import pytest

from quditsim import simulator
from quditsim import BenchConfig, GateKind, Measurement, random_circuit, scaling_sweep
from quditsim.bench import CSV_COLUMNS, completed_frontier, frontier_is_monotonic, write_csv
from quditsim.circuit import GateApplication


def gate_kinds(circuit):
    return [op.spec.kind for op in circuit.ops if isinstance(op, GateApplication)]


def test_single_qudit_circuit_excludes_cx():
    circuit = random_circuit(1, 3, 10, seed=0)
    kinds = gate_kinds(circuit)
    assert len(kinds) == 10
    assert GateKind.CNOT not in kinds
    assert sum(isinstance(op, Measurement) for op in circuit.ops) == 1


def test_circuit_shape_and_replayability():
    a = random_circuit(3, 3, 10, seed=42)
    b = random_circuit(3, 3, 10, seed=42)
    assert a == b
    assert len(gate_kinds(a)) == 10
    assert sum(isinstance(op, Measurement) for op in a.ops) == 3
    assert a.dims == (3, 3, 3)


def test_different_seeds_differ():
    assert random_circuit(3, 3, 10, seed=1) != random_circuit(3, 3, 10, seed=2)


def test_gate_histogram_is_uniform():
    counts = Counter()
    for seed in range(1000):
        counts.update(gate_kinds(random_circuit(2, 2, 10, seed=seed)))
    total = sum(counts.values())
    assert total == 10_000
    for kind in (GateKind.X, GateKind.Z, GateKind.H, GateKind.CNOT):
        assert abs(counts[kind] / total - 0.25) < 0.03


def test_cx_wires_are_distinct():
    for seed in range(50):
        circuit = random_circuit(4, 2, 10, seed=seed)
        for op in circuit.ops:
            if isinstance(op, GateApplication) and op.spec.kind is GateKind.CNOT:
                assert op.wires[0].name != op.wires[1].name


def test_random_circuit_validates_arguments():
    with pytest.raises(ValueError):
        random_circuit(0, 3, 10, seed=0)
    with pytest.raises(ValueError):
        random_circuit(2, 1, 10, seed=0)


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(dims=())
    with pytest.raises(ValueError):
        BenchConfig(dims=(2,), depth=0)
    with pytest.raises(ValueError):
        BenchConfig(dims=(2,), budget_per_run=0)


def test_tiny_budget_marks_first_row_incomplete():
    config = BenchConfig(dims=(5, 7), budget_per_run=1e-9, seed=3, max_qudits=8)
    rows = scaling_sweep(config)
    assert [(r.dimension, r.n_qudits, r.completed) for r in rows] == [
        (5, 1, False),
        (7, 1, False),
    ]


def test_cell_over_physical_memory_is_recorded_incomplete_without_running(monkeypatch):
    # Two 2^3-amplitude buffers fit in 256 B; the 4-qubit cell would need 512 B.
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 2 * 8 * 16)
    rows = scaling_sweep(BenchConfig(dims=(2,), budget_per_run=60.0, seed=5, max_qudits=10))
    assert [(r.n_qudits, r.completed) for r in rows] == [(1, True), (2, True), (3, True), (4, False)]
    assert rows[-1].wall_seconds == 0.0
    out = io.StringIO()
    write_csv(rows, out)
    assert out.getvalue().splitlines()[0] == ",".join(CSV_COLUMNS)
    assert out.getvalue().splitlines()[-1] == "2,4,0.000000,false,5"


def test_sweep_respects_max_qudits_and_is_deterministic():
    config = BenchConfig(dims=(2, 3), budget_per_run=60.0, seed=7, max_qudits=3)
    rows_a = scaling_sweep(config)
    rows_b = scaling_sweep(config)
    cells = [(r.dimension, r.n_qudits, r.completed, r.seed) for r in rows_a]
    assert cells == [(d, n, True, 7) for d in (2, 3) for n in (1, 2, 3)]
    assert cells == [(r.dimension, r.n_qudits, r.completed, r.seed) for r in rows_b]
    assert all(r.wall_seconds >= 0 for r in rows_a)


def test_frontier_helpers():
    config = BenchConfig(dims=(2, 3), budget_per_run=60.0, seed=7, max_qudits=2)
    rows = scaling_sweep(config)
    assert completed_frontier(rows) == {2: 2, 3: 2}
    assert frontier_is_monotonic(rows)


def test_csv_schema():
    config = BenchConfig(dims=(2,), budget_per_run=60.0, seed=1, max_qudits=2)
    rows = scaling_sweep(config)
    out = io.StringIO()
    write_csv(rows, out)
    parsed = list(csv.reader(io.StringIO(out.getvalue())))
    assert parsed[0] == list(CSV_COLUMNS)
    assert len(parsed) == len(rows) + 1
    for record in parsed[1:]:
        assert record[3] in ("true", "false")
        float(record[2])
        int(record[0]), int(record[1]), int(record[4])
