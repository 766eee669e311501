"""Layered benchmark for quditsim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--held-out]

Builds one workload's `.qdc` text from the seed (see workloads.py), parses
it, checks a reduced twin against the dense oracle, then calls `run()` on it
for `--seconds`, checking every result. After timing, the full circuit's
final state is checked once against a pinned phase-sensitive summary. The
last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`, each metric with its value and unit. `quditsim` is imported from `src/` next to this
directory and treated as a black box: only its public functions are called
or wrapped.

End-to-end metrics (`--trace 0`), tracing off:
  setup_s       median time to generate the text and parse it to a Circuit,
                sampled in batches between the timed calls
  run_s         median wall time of one `run()` call
  shots_per_s   repetitions / run_s
  peak_rss_mib  peak resident memory of this process (one process per run)
  ok_frac       1 - failed / attempted, over the timed calls plus the twin
                and final-state checks; `failed` itself can be 0, which a
                metric may not be

Per-layer metrics (`--trace 1`), from spans around public calls. Each names
the end-to-end metric and workload it should move:
  textio.parse_s, textio.statements           setup_s, every workload
  gates.resolve_s, gates.resolve_calls        run_s on deep circuits; no
                                              change on gates_wide, where
                                              kernels dwarf resolve
  simulator.simulate_s, simulator.kernel_s.*, simulator.kernel_calls.*,
  simulator.kernel_frac (share of trace.run_s inside simulate() but not
  in resolve(): applying the gates)
                                              run_s on gates_wide; no
                                              change on shots_terminal
  simulator.kernel_gbps (computed as 2 x state bytes per gate),
  simulator.kernel_bw_frac (of machine.copy_gbps, measured in this run)
                                              run_s on gates_wide
  simulator.state_copies_peak                 peak_rss_mib on gates_wide
  simulator.sample_s (derived: run() less its simulate()),
  simulator.sample_frac, numerics.decode_s, numerics.decode_calls
                                              run_s, shots_per_s on
                                              shots_terminal
  simulator.self_s                            the simulator's self time;
                                              with gates.resolve_s and
                                              numerics.decode_s (leaf spans)
                                              it sums to trace.run_s by
                                              construction: spans nest
                                              strictly in one thread, so
                                              self times telescope to the
                                              top-level span
  trace.run_s, trace.overhead_s               traced run_s, and the spans of
                                              that call times the cost of one
                                              span, calibrated on a no-op in
                                              the same process
  machine.copy_gbps                           none: the machine's copy
                                              bandwidth, read plus write
Per-call figures come from the traced call with the median duration.
Kernel figures come from replaying the circuit's gates one `apply_gate` at a
time on the workload's state; `kernel_s.*` is the median per call. Spans are
written to perfbench/out/. The machine record (cores, LLC, numpy, BLAS
threads, and copy bandwidth when traced) is printed before the result.

`--seed` picks one of a fixed pool of input instances, `seed mod 64` (mod
16 with `--held-out`); every instance has its expected table digest and
final-state summary pinned in digests.json, so every seed is checked against
a pinned answer. A pool entry without a pin is refused with exit code 1.
Regenerate the pins with pin_digests.py only when a generator changes.
`--held-out` draws the inputs from a pool kept apart from the one used while
tuning a change, so a claimed gain can be checked on fresh inputs.
`python3 perfbench/selftest.py` tests the benchmark itself.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import machine  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import KERNEL_CLASS, KERNEL_CLASSES, WORKLOADS  # noqa: E402

DIGESTS = HERE / "digests.json"
TRACE_DIR = HERE / "out"
SETUP_BATCH = 10  # set-ups before the first call and between timed calls
MIN_CALLS = 3
LLC_FACTOR = 4  # the wide state must be this many times the last-level cache
ORACLE_TOL = 1e-10  # as criterion 6 of the acceptance suite
POOL = {False: 64, True: 16}  # input instances per seed stream, keyed by held_out
STATE_TOL = 1e-9  # on the final-state summary, which is of order 1
SUMMARY_SEED = 20250114  # fixes the vector the final state is projected on
SUMMARY_CHUNK = 1 << 22
SPAN_CALIBRATION = (5, 20_000)  # batches x no-op calls timed per batch

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "shots_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "ok_frac": "frac",
}


def load_program():
    """Import quditsim from this checkout's `src/`, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import quditsim
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import quditsim from {src}: {exc}")
    if not Path(quditsim.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: quditsim came from {quditsim.__file__}, not {src}")
    return quditsim


def pinned(workload: str, instance: int, held_out: bool) -> dict:
    """The pinned `table` digest and final-state `summary` of one instance;
    exits when digests.json has none, since the run could not be checked."""
    pins = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    entry = pins.get(workload, {}).get(seed_label(instance, held_out))
    if entry is None:
        raise SystemExit(f"perfbench: no pinned answer for {workload} {seed_label(instance, held_out)}")
    return entry


def state_summary(amps: np.ndarray) -> complex:
    """`np.vdot(r, amps)` for a fixed pseudo-random complex vector `r`, made
    in chunks so it never holds a second state. It moves with the phase of
    any amplitude, which the sampled table cannot show."""
    rng = np.random.default_rng(SUMMARY_SEED)
    total = 0j
    for start in range(0, amps.size, SUMMARY_CHUNK):
        part = amps[start:start + SUMMARY_CHUNK]
        r = rng.standard_normal(part.size) + 1j * rng.standard_normal(part.size)
        total += complex(np.vdot(r, part))
    return total


def final_state_summary(q, workload, instance: int, held_out: bool) -> complex:
    """`state_summary` of `simulate` on the full circuit's gates."""
    circuit, _, _ = q.parse_circuit(workload.text(instance, held_out, measure=False))
    final, _ = q.simulate(circuit)
    return state_summary(final.amps)


def seed_label(seed: int, held_out: bool) -> str:
    return f"held-out:{seed}" if held_out else str(seed)


def table_digest(result) -> str:
    return hashlib.sha256("\n".join(result.table.lines()).encode()).hexdigest()


class Checker:
    """Checks each `run()` result: every key present with one in-range digit
    per repetition, and the same table digest on every call, equal to the
    pinned digest (None only for the self-test's reduced workloads)."""

    def __init__(self, key_dims: dict[str, int], reps: int, pinned: str | None):
        self.key_dims = key_dims
        self.reps = reps
        self.pinned = pinned
        self.digest: str | None = None
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, why: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {why}", file=sys.stderr)

    def check(self, result) -> None:
        records = result.table.records
        if list(records) != list(self.key_dims):
            return self.record(False, f"keys {list(records)} != {list(self.key_dims)}")
        for key, digits in records.items():
            if len(digits) != self.reps or not all(0 <= x < self.key_dims[key] for x in digits):
                return self.record(False, f"key {key}: bad digit count or range")
        digest = table_digest(result)
        if self.digest is None:
            self.digest = digest
        if digest != self.digest:
            return self.record(False, "table differs between calls with one seed")
        if self.pinned is not None and digest != self.pinned:
            return self.record(False, f"table digest {digest} != pinned {self.pinned}")
        self.record(True, "")


def time_setup(workload, seed: int, held_out: bool, parse):
    """One set-up: generate the text and parse it to a Circuit. Returns the
    seconds it took, the text and the circuit."""
    start = time.perf_counter()
    text = workload.text(seed, held_out)
    circuit, _, _ = parse(text)
    return time.perf_counter() - start, text, circuit


def twin_matches_oracle(q, workload, seed: int, held_out: bool) -> bool:
    """`simulate` of the reduced twin against `full_unitary(...) @ e0`."""
    twin, _, _ = q.parse_circuit(workload.twin_text(seed, held_out))
    final, _ = q.simulate(twin)
    e0 = np.zeros(final.amps.size, dtype=complex)
    e0[0] = 1.0
    return bool(np.allclose(final.amps, q.full_unitary(twin) @ e0, rtol=0, atol=ORACLE_TOL))


def timed_calls(call, checker: Checker, seconds: float, min_calls: int, between=None) -> list[float]:
    """Durations of checked calls, repeated for `seconds` and at least
    `min_calls` times. A call that raises counts as failed. `between` runs
    untimed before each call."""
    durations = []
    deadline = time.perf_counter() + seconds
    while len(durations) < min_calls or time.perf_counter() < deadline:
        if between is not None:
            between()
        gc.collect()
        start = time.perf_counter()
        try:
            result = call()
        except Exception:
            durations.append(time.perf_counter() - start)
            checker.record(False, traceback.format_exc())
            continue
        durations.append(time.perf_counter() - start)
        checker.check(result)
    return durations


def wide_state_guard(workload, llc_bytes: int | None) -> None:
    """The wide workload must be memory-bound: its state >= 4x the LLC."""
    state = workload.shape.amplitudes * 16
    llc = "unknown" if llc_bytes is None else f"{llc_bytes / machine.MiB:.1f} MiB"
    print(f"perfbench: {workload.name} state {state / machine.MiB:.1f} MiB, LLC {llc}")
    if llc_bytes is not None and state < LLC_FACTOR * llc_bytes:
        raise SystemExit(f"perfbench: {workload.name} state is under {LLC_FACTOR}x the LLC")


def kernel_replay(q, circuit, seconds: float):
    """Apply the circuit's gates one `apply_gate` call at a time from |0...0>,
    in whole passes until `seconds` pass. Returns the call durations per
    kernel class, the pass count and the median time of one pass."""
    plan = [
        (q.resolve(op.spec), tuple(circuit.wire_index(w) for w in op.wires), KERNEL_CLASS[op.spec.kind.value])
        for op in circuit.ops
        if isinstance(op, q.GateApplication)
    ]
    per_class = {c: [] for c in KERNEL_CLASSES}
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        state = q.basis_state(circuit.dims, [0] * len(circuit.dims))
        total = 0.0
        for matrix, wires, kind in plan:
            start = time.perf_counter()
            state = q.apply_gate(state, matrix, wires)
            elapsed = time.perf_counter() - start
            per_class[kind].append(elapsed)
            total += elapsed
        passes.append(total)
        del state
    return per_class, len(passes), statistics.median(passes)


def untraced(q, workload, circuit, run_seed: int, checker: Checker, seconds: float, set_up) -> dict:
    """End-to-end figures but setup_s. `set_up` runs between timed calls, so
    set-up is sampled across the whole run, as the calls are."""
    reps = workload.reps
    checker.check(q.run(circuit, reps, seed=run_seed))  # warm-up, checked, not timed
    durations = timed_calls(lambda: q.run(circuit, reps, seed=run_seed), checker, seconds, MIN_CALLS, set_up)
    run_s = statistics.median(durations)
    print(f"perfbench: run_s over {len(durations)} calls: median {run_s:.4f} s, "
          f"min {min(durations):.4f} s, max {max(durations):.4f} s")
    return {
        "run_s": run_s,
        "shots_per_s": reps / run_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / machine.MiB,
    }


def traced(q, workload, text: str, circuit, run_seed: int, checker: Checker, seconds: float, tracer: Tracer,
           llc_bytes: int | None) -> dict:
    """Per-layer metrics as (value, unit). Spans go to `tracer`."""
    reps = workload.reps
    state_bytes = workload.shape.amplitudes * 16
    sim = q.simulator

    # Peak memory first, before anything else raises the high-water mark.
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    checker.check(q.run(circuit, reps, seed=run_seed))
    rss_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    # Untraced and traced calls alternate, so drift in machine speed falls
    # on both alike and their paired difference is the tracing overhead.
    plain, spanned = [], []
    deadline = time.perf_counter() + seconds
    while len(spanned) < MIN_CALLS or time.perf_counter() < deadline:
        plain += timed_calls(lambda: q.run(circuit, reps, seed=run_seed), checker, 0, 1)
        run_id = f"run{len(spanned)}"
        with tracer.patched(sim, "simulate", "simulator.simulate"), \
                tracer.patched(sim, "resolve", "gates.resolve"), \
                tracer.patched(sim, "mixed_radix_decode", "numerics.mixed_radix_decode"):
            spanned += timed_calls(
                lambda: tracer.call(run_id, "simulator.run", sim.run, circuit, reps, seed=run_seed), checker, 0, 1
            )

    # The traced call of median duration supplies every per-call figure.
    run_id = f"run{sorted(range(len(spanned)), key=spanned.__getitem__)[len(spanned) // 2]}"
    _, run_s = tracer.totals(run_id, "simulator.run")
    _, simulate_s = tracer.totals(run_id, "simulator.simulate")
    resolve_calls, resolve_s = tracer.totals(run_id, "gates.resolve")
    decode_calls, decode_s = tracer.totals(run_id, "numerics.mixed_radix_decode")
    layers = tracer.self_times(run_id)
    sample_s = run_s - simulate_s
    parse_s = statistics.median(s[2] - s[1] for s in tracer.of_run("setup"))

    per_class, passes, pass_s = kernel_replay(q, circuit, min(seconds / 4, 2.0))
    n_gates = sum(map(len, per_class.values())) // passes
    kernel_gbps = 2 * state_bytes * n_gates / pass_s / 1e9
    copy_gbps = machine.copy_gbps(max(LLC_FACTOR * (llc_bytes or 128 * machine.MiB), state_bytes))
    print(f"perfbench: {len(plain)} untraced and {len(spanned)} traced calls, {passes} kernel passes; "
          f"median traced - untraced: {statistics.median(t - p for p, t in zip(plain, spanned)):.4f} s")

    return {
        "textio.parse_s": (parse_s, "s"),
        "textio.statements": (len(q.parse_document(text).statements), "count"),
        "gates.resolve_s": (resolve_s, "s"),
        "gates.resolve_calls": (resolve_calls, "count"),
        "simulator.simulate_s": (simulate_s, "s"),
        "simulator.self_s": (layers["simulator"], "s"),
        "simulator.sample_s": (sample_s, "s"),
        "simulator.sample_frac": (sample_s / run_s, "frac"),
        **{f"simulator.kernel_s.{c}": (statistics.median(per_class[c]), "s") for c in KERNEL_CLASSES},
        **{f"simulator.kernel_calls.{c}": (len(per_class[c]) // passes, "count") for c in KERNEL_CLASSES},
        "simulator.kernel_frac": ((simulate_s - resolve_s) / run_s, "frac"),
        "simulator.kernel_gbps": (kernel_gbps, "GB/s"),
        "simulator.kernel_bw_frac": (kernel_gbps / copy_gbps, "frac"),
        "simulator.state_copies_peak": ((rss_peak - rss_before) / state_bytes, "copies"),
        "numerics.decode_s": (decode_s, "s"),
        "numerics.decode_calls": (decode_calls, "count"),
        "trace.run_s": (run_s, "s"),
        "trace.overhead_s": (len(tracer.of_run(run_id)) * span_cost(), "s"),
        "machine.copy_gbps": (copy_gbps, "GB/s"),
    }


def span_cost() -> float:
    """Seconds one span adds to a call: a traced no-op less a plain one, per
    call, median over batches."""
    tracer = Tracer()
    noop = lambda: None  # noqa: E731
    wrapped = tracer.wrap(noop, "calibration.noop")
    batches, calls = SPAN_CALIBRATION
    per_call = []
    for _ in range(batches):
        tracer.spans.clear()
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced_s = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        per_call.append((traced_s - (time.perf_counter() - start)) / calls)
    return statistics.median(per_call)


def bench(workload_name: str, seed: int, seconds: float, trace: bool, held_out: bool = False, workload=None) -> dict:
    """One benchmark run; returns the result object printed last. `workload`
    replaces the named one (the self-test passes reduced copies), which
    skips the pinned answers, the full final-state check and the LLC guard."""
    q = load_program()
    reduced = workload is not None
    workload = workload or WORKLOADS[workload_name]
    record = machine.record()
    if record["blas_threads"] is not None and record["blas_threads"] > record["nproc"]:
        raise SystemExit(f"perfbench: BLAS threads {record['blas_threads']} exceed nproc {record['nproc']}")
    if workload_name == "gates_wide" and not reduced:
        wide_state_guard(workload, record["llc_bytes"])

    instance = seed % POOL[held_out]
    _, run_seed = workload.seeds(instance, held_out)
    pins = None if reduced else pinned(workload_name, instance, held_out)
    tracer = Tracer()
    parse = tracer.wrap(q.parse_circuit, "textio.parse_circuit") if trace else q.parse_circuit
    setup_times = []

    def set_up():
        for _ in range(SETUP_BATCH):
            seconds_taken, text, circuit = time_setup(workload, instance, held_out, parse)
            setup_times.append(seconds_taken)
        return text, circuit

    tracer.run_id = "setup"
    text, circuit = set_up()
    tracer.run_id = None

    key_dims = {op.key: op.wire.dimension for op in circuit.ops if isinstance(op, q.Measurement)}
    checker = Checker(key_dims, workload.reps, pins and pins["table"])
    checker.record(twin_matches_oracle(q, workload, instance, held_out), "reduced twin differs from the dense oracle")

    if trace:
        values = traced(q, workload, text, circuit, run_seed, checker, seconds, tracer, record["llc_bytes"])
        record["copy_gbps"] = values["machine.copy_gbps"][0]
        label = seed_label(instance, held_out).replace(":", "-")
        path = TRACE_DIR / f"trace-{workload_name}-{label}.json"
        tracer.dump(path, workload=workload_name, seed=seed, held_out=held_out, machine=record)
        print(f"perfbench: {len(tracer.spans)} spans written to {path}")
    else:
        values = untraced(q, workload, circuit, run_seed, checker, seconds, set_up)
        values["setup_s"] = statistics.median(setup_times)

    # After timing, so the traced run's RSS figures are not disturbed.
    if pins is not None:
        summary = final_state_summary(q, workload, instance, held_out)
        expected = complex(*pins["summary"])
        checker.record(abs(summary - expected) <= STATE_TOL, f"final-state summary {summary} != pinned {expected}")
    if not trace:
        values["ok_frac"] = 1 - checker.failed / checker.attempted
        values = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}

    print(json.dumps({"machine": record, "workload": workload_name, "seed": seed,
                      "instance": seed_label(instance, held_out), "digest": checker.digest}))
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="draw inputs from the held-out seed stream, kept apart from the seeds used while tuning")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace), args.held_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
