"""Self-tests of the benchmark (not of quditsim).

    python3 perfbench/selftest.py

Checks that one seed always gives the same `.qdc` text, which parses and
keeps the workload's cost structure; that every metric name is well formed
and agrees with BENCHMARK.json; that every workload has pinned answers for
every instance of both seed pools; that the final-state summary sees a
change of phase alone; and that a reduced configuration of every
workload runs end to end, untraced and traced, within seconds. Exits 0 when
all pass.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
import time

import numpy as np

import run
from workloads import KERNEL_CLASS, KERNEL_CLASSES, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SMOKE_SECONDS = 60


def spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def gate_slots(q, text: str) -> list[tuple[str, tuple[int, ...]]]:
    circuit, _, _ = q.parse_circuit(text)
    return [
        (KERNEL_CLASS[op.spec.kind.value], tuple(circuit.wire_index(w) for w in op.wires))
        for op in circuit.ops
        if isinstance(op, q.GateApplication)
    ]


def test_text_is_seeded(q) -> None:
    for name, w in WORKLOADS.items():
        text = w.text(5)
        assert text == w.text(5), f"{name}: one seed gave two texts"
        assert len({w.text(s) for s in range(8)}) == 8, f"{name}: seeds collide"
        assert w.text(5, held_out=True) not in {w.text(s) for s in range(8)}, f"{name}: held-out seed reused"
        circuit, _, _ = q.parse_circuit(text)
        assert circuit.dims == w.shape.dims and all(q.gates.is_prime(d) for d in circuit.dims)
        slots = gate_slots(q, text)
        assert len(slots) == w.shape.gates
        assert {c for c, _ in slots} == set(KERNEL_CLASSES), f"{name}: a kernel class is missing"
        assert slots == gate_slots(q, w.text(6)), f"{name}: the seed moved the cost structure"
        assert w.twin.amplitudes <= 4096 and q.parse_circuit(w.twin_text(5))[0].dims == w.twin.dims


def test_metric_names() -> None:
    declared = spec()
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names)), "duplicate metric name"
    for name in names:
        assert NAME.fullmatch(name), f"bad metric name {name!r}"
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(WORKLOADS)


def test_pins_cover_pools() -> None:
    pins = json.loads(run.DIGESTS.read_text())
    assert sorted(pins) == sorted(WORKLOADS), "digests.json does not match the workloads"
    pool = {run.seed_label(i, held_out) for held_out, size in run.POOL.items() for i in range(size)}
    for name, entries in pins.items():
        assert set(entries) == pool, f"{name}: pins do not cover the seed pools"
        assert all(len(e["table"]) == 64 and len(e["summary"]) == 2 for e in entries.values())


def test_summary_sees_phase() -> None:
    amps = np.full(run.SUMMARY_CHUNK + 3, (run.SUMMARY_CHUNK + 3) ** -0.5, dtype=complex)
    flipped = amps.copy()
    flipped[-1] *= -1  # same probabilities, one sign changed, in the last chunk
    assert abs(run.state_summary(amps) - run.state_summary(flipped)) > 1e3 * run.STATE_TOL


def test_smoke() -> None:
    declared = spec()
    start = time.perf_counter()
    for name, w in WORKLOADS.items():
        small = dataclasses.replace(w, shape=w.twin, reps=min(w.reps, 20))
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result = run.bench(name, seed=1, seconds=0.05, trace=trace, workload=small)
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            units = {m["name"]: m["unit"] for m in declared[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == units, f"{name} trace={trace}: metrics {sorted(got)} != {sorted(units)}"
    elapsed = time.perf_counter() - start
    assert elapsed < SMOKE_SECONDS, f"smoke run took {elapsed:.1f} s"


def main() -> int:
    q = run.load_program()
    tests = [lambda: test_text_is_seeded(q), test_metric_names, test_pins_cover_pools, test_summary_sees_phase,
             test_smoke]
    for test in tests:
        test()
    print(f"perfbench selftest: {len(tests)} passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
