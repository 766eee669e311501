"""Random-circuit scaling harness.

For each dimension, circuits of fixed gate count are grown one qudit at a
time and the wall time of a full run (state allocation through measurement)
is recorded; probing stops after the first run over budget, or at the first
cell whose state would not fit in physical memory, which is recorded
without being run (completed=False, wall_seconds 0). Circuits draw
each of `depth` gates uniformly from {X, Z, H, CX} (CX excluded on a single
wire) and measure every qudit at the end.

Everything is reproducible from the config seed: circuit and run seeds for
the (d, n) cell come from SeedSequence(seed, spawn_key=(d, n)). Timed runs
execute one at a time; within a run, the simulator splits passes over at
least `simulator.SPLIT_MIN` amplitudes across the usable cores.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .circuit import Circuit, GateSpec
from .gates import GateKind
from .simulator import StateTooLargeError, run

CSV_COLUMNS = ("dimension", "n_qudits", "wall_seconds", "completed", "seed")


@dataclass
class BenchConfig:
    dims: tuple[int, ...]
    depth: int = 10
    budget_per_run: float = 60.0
    max_qudits: int = 32
    seed: int = 0
    repetitions: int = 1

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        if not self.dims or any(d < 2 for d in self.dims):
            raise ValueError(f"dims must be a non-empty list of values >= 2, got {self.dims}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.budget_per_run <= 0:
            raise ValueError(f"budget must be positive, got {self.budget_per_run}")
        if self.max_qudits < 1:
            raise ValueError(f"max_qudits must be >= 1, got {self.max_qudits}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")


@dataclass(frozen=True)
class BenchRow:
    dimension: int
    n_qudits: int
    wall_seconds: float
    completed: bool
    seed: int


def random_circuit(n: int, d: int, depth: int, seed) -> Circuit:
    """`depth` gates drawn uniformly from {X, Z, H, CX} on uniform random
    wires (ordered distinct pair for CX), then a measurement on every qudit.
    Deterministic in `seed`."""
    if n < 1:
        raise ValueError(f"need at least one qudit, got {n}")
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    rng = np.random.default_rng(seed)
    pool = [GateKind.X, GateKind.Z, GateKind.H] + ([GateKind.CNOT] if n >= 2 else [])
    circuit = Circuit()
    wires = [circuit.add_qudit(f"q{i}", d) for i in range(n)]
    for _ in range(depth):
        kind = pool[rng.integers(len(pool))]
        if kind is GateKind.CNOT:
            control = int(rng.integers(n))
            target = int(rng.integers(n - 1))
            if target >= control:
                target += 1
            circuit.apply(GateSpec(kind, (d, d)), wires[control], wires[target])
        else:
            circuit.apply(GateSpec(kind, (d,)), wires[int(rng.integers(n))])
    for w in wires:
        circuit.measure(w)
    return circuit


def _cell_seeds(config_seed: int, d: int, n: int) -> tuple[int, int]:
    """Deterministic (circuit seed, run seed) for one sweep cell."""
    state = np.random.SeedSequence(config_seed, spawn_key=(d, n)).generate_state(2, np.uint64)
    return int(state[0]), int(state[1])


def scaling_sweep(config: BenchConfig, progress: Callable[[BenchRow], None] | None = None) -> list[BenchRow]:
    """Probe each dimension with growing qudit counts until a run exceeds the
    budget or its state would not fit in memory (that row is recorded with
    completed=False) or max_qudits is hit. One warm-up run per dimension is
    discarded before timing."""
    rows: list[BenchRow] = []
    for d in config.dims:
        circuit_seed, run_seed = _cell_seeds(config.seed, d, 0)
        warmup = random_circuit(1, d, config.depth, circuit_seed)
        run(warmup, config.repetitions, seed=run_seed)
        for n in range(1, config.max_qudits + 1):
            circuit_seed, run_seed = _cell_seeds(config.seed, d, n)
            circuit = random_circuit(n, d, config.depth, circuit_seed)
            start = time.perf_counter()
            try:
                run(circuit, config.repetitions, seed=run_seed)
            except StateTooLargeError:
                row = BenchRow(d, n, 0.0, False, config.seed)
            else:
                wall = time.perf_counter() - start
                row = BenchRow(d, n, wall, wall <= config.budget_per_run, config.seed)
            rows.append(row)
            if progress is not None:
                progress(row)
            if not row.completed:
                break
    return rows


def completed_frontier(rows: list[BenchRow]) -> dict[int, int]:
    """Largest completed qudit count per dimension (0 if none completed)."""
    frontier: dict[int, int] = {}
    for row in rows:
        frontier.setdefault(row.dimension, 0)
        if row.completed:
            frontier[row.dimension] = max(frontier[row.dimension], row.n_qudits)
    return frontier


def frontier_is_monotonic(rows: list[BenchRow]) -> bool:
    """True when larger dimensions never complete more qudits than smaller ones."""
    frontier = completed_frontier(rows)
    ordered = [frontier[d] for d in sorted(frontier)]
    return all(a >= b for a, b in zip(ordered, ordered[1:]))


def write_csv(rows: list[BenchRow], stream: io.TextIOBase) -> None:
    writer = csv.writer(stream)
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                row.dimension,
                row.n_qudits,
                f"{row.wall_seconds:.6f}",
                "true" if row.completed else "false",
                row.seed,
            ]
        )
