"""Pin the answers the benchmark checks every run against.

    python3 perfbench/pin_digests.py

Writes perfbench/digests.json: for each workload and each instance of both
seed pools, the sha256 of `run(...).table.lines()` and the summary of the
full circuit's final state (run.state_summary), so a change to quditsim has
to reproduce the tables bit for bit and the state to within run.STATE_TOL.
Regenerate it only when a workload's generator or the pools change, never to
make a changed simulator pass.
"""

from __future__ import annotations

import json

import run
from workloads import WORKLOADS


def main() -> None:
    q = run.load_program()
    labels = [(i, held_out) for held_out, size in run.POOL.items() for i in range(size)]
    pins = {}
    for name, workload in WORKLOADS.items():
        pins[name] = {}
        for instance, held_out in labels:
            circuit, _, _ = q.parse_circuit(workload.text(instance, held_out))
            result = q.run(circuit, workload.reps, seed=workload.seeds(instance, held_out)[1])
            summary = run.final_state_summary(q, workload, instance, held_out)
            pins[name][run.seed_label(instance, held_out)] = {
                "table": run.table_digest(result),
                "summary": [summary.real, summary.imag],
            }
        print(f"{name}: {len(labels)} instances pinned", flush=True)
    run.DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
