import multiprocessing
import sys
import threading
import time
import tracemalloc
from math import prod

import numpy as np
import pytest

from quditsim import simulator
from quditsim.gates import resolve
from quditsim import (
    Circuit,
    StateTooLargeError,
    MEASURE,
    StateVector,
    apply_gate,
    basis_state,
    build,
    cnot_matrix,
    custom,
    full_unitary,
    ghz_circuit,
    h_matrix,
    run,
    simulate,
    single,
    two_qudit,
    x_matrix,
)
from conftest import random_mixed_circuit, random_unit_amps


# --- basis states ---


def test_basis_state_single_qudit():
    sv = basis_state((10,), (3,))
    assert sv.amps[3] == 1 and np.count_nonzero(sv.amps) == 1


def test_basis_state_all_zeros():
    sv = basis_state((3, 3), (0, 0))
    assert sv.amps[0] == 1


def test_basis_state_mixed_radix_index():
    sv = basis_state((2, 3), (1, 2))
    assert sv.amps[5] == 1


def test_basis_state_rejects_out_of_range_digit():
    with pytest.raises(ValueError):
        basis_state((3, 3), (0, 3))


def test_state_vector_rejects_unnormalized():
    with pytest.raises(ValueError, match="norm"):
        StateVector((2,), [1.0, 1.0])


def test_state_vector_rejects_non_finite_amplitudes():
    with pytest.raises(ValueError, match="norm"):
        StateVector((2,), [float("nan"), 0.0])
    with pytest.raises(ValueError, match="norm"):
        StateVector((2,), [float("inf"), 0.0])


# --- gate kernel ---


def test_h_on_zero_gives_uniform_column():
    sv = apply_gate(basis_state((3,), (0,)), h_matrix(3), (0,))
    np.testing.assert_allclose(sv.amps, np.full(3, 1 / np.sqrt(3)), atol=1e-12)


def test_cnot_entangles_fourier_control():
    sv = basis_state((3, 3), (0, 0))
    sv = apply_gate(sv, h_matrix(3), (0,))
    sv = apply_gate(sv, cnot_matrix(3), (0, 1))
    expected = np.zeros(9, dtype=complex)
    expected[[0, 4, 8]] = 1 / np.sqrt(3)
    np.testing.assert_allclose(sv.amps, expected, atol=1e-12)


def test_gate_then_adjoint_restores_state():
    rng = np.random.default_rng(3)
    for _ in range(20):
        dims = tuple(int(rng.integers(2, 5)) for _ in range(3))
        sv = StateVector(dims, random_unit_amps(rng, int(np.prod(dims))))
        w = int(rng.integers(3))
        m = h_matrix(dims[w])
        out = apply_gate(apply_gate(sv, m, (w,)), m.conj().T, (w,))
        np.testing.assert_allclose(out.amps, sv.amps, atol=1e-10)


def test_kernel_honors_reversed_wires():
    # CNOT with control on wire 1, target on wire 0.
    rng = np.random.default_rng(9)
    sv = StateVector((3, 3), random_unit_amps(rng, 9))
    out = apply_gate(sv, cnot_matrix(3), (1, 0))
    c = Circuit()
    q0 = c.add_qudit("q0", 3)
    q1 = c.add_qudit("q1", 3)
    c.apply(two_qudit("CNOT", 3), q1, q0)
    np.testing.assert_allclose(out.amps, full_unitary(c) @ sv.amps, atol=1e-12)


def test_kernel_honors_non_adjacent_wires():
    rng = np.random.default_rng(10)
    sv = StateVector((2, 3, 2), random_unit_amps(rng, 12))
    out = apply_gate(sv, cnot_matrix(2), (2, 0))
    c = Circuit()
    a = c.add_qudit("a", 2)
    c.add_qudit("b", 3)
    w = c.add_qudit("c", 2)
    c.apply(two_qudit("CNOT", 2), w, a)
    np.testing.assert_allclose(out.amps, full_unitary(c) @ sv.amps, atol=1e-12)


def test_apply_gate_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="match"):
        apply_gate(basis_state((3, 3), (0, 0)), h_matrix(2), (0,))


def test_apply_gate_rejects_repeated_wire():
    with pytest.raises(ValueError, match="repeated"):
        apply_gate(basis_state((3, 3), (0, 0)), cnot_matrix(3), (1, 1))


def test_apply_gate_rejects_bad_wire_index():
    with pytest.raises(ValueError, match="range"):
        apply_gate(basis_state((3,), (0,)), h_matrix(3), (1,))


# --- simulate ---


def test_ghz3_amplitudes():
    final, _ = simulate(ghz_circuit(3, 3))
    np.testing.assert_allclose(
        np.abs(final.amps[[0, 13, 26]]), np.full(3, 0.5773502), atol=1e-6
    )
    assert np.max(np.abs(np.delete(final.amps, [0, 13, 26]))) < 1e-6


def test_two_h_gates_give_nine_uniform_amplitudes():
    circuit, _, _ = build(3, ("H", "q0"), ("H", "q1"))
    final, _ = simulate(circuit)
    np.testing.assert_allclose(np.abs(final.amps), np.full(9, 0.3333333), atol=1e-6)


def test_empty_circuit_returns_initial_unchanged():
    rng = np.random.default_rng(0)
    c = Circuit()
    c.add_qudit("q0", 4)
    initial = StateVector((4,), random_unit_amps(rng, 4))
    final, table = simulate(c, initial=initial)
    assert final == initial
    assert table.records == {}


def test_simulate_rejects_profile_mismatch():
    c = Circuit()
    c.add_qudit("q0", 3)
    with pytest.raises(ValueError, match="dims"):
        simulate(c, initial=basis_state((4,), (0,)))


def test_mixed_dimension_superposition():
    circuit, _, _ = build((3, "H", "q0"), (4, "H", "q1"))
    final, _ = simulate(circuit)
    np.testing.assert_allclose(np.abs(final.amps), np.full(12, 1 / np.sqrt(12)), atol=1e-10)


def test_norm_preserved_after_every_op():
    rng = np.random.default_rng(21)
    for _ in range(10):
        circuit = random_mixed_circuit(rng)
        sv = basis_state(circuit.dims, (0,) * len(circuit.dims))
        from quditsim.gates import resolve

        for op in circuit.ops:
            wires = tuple(circuit.wire_index(w) for w in op.wires)
            sv = apply_gate(sv, resolve(op.spec), wires)
            assert abs(np.vdot(sv.amps, sv.amps).real - 1.0) <= 1e-8


def test_simulate_matches_dense_oracle():
    rng = np.random.default_rng(42)
    for _ in range(40):
        circuit = random_mixed_circuit(rng)
        size = int(np.prod(circuit.dims))
        initial = StateVector(circuit.dims, random_unit_amps(rng, size))
        final, _ = simulate(circuit, initial=initial)
        np.testing.assert_allclose(
            final.amps, full_unitary(circuit) @ initial.amps, atol=1e-10
        )


def test_collapse_consistency_for_repeated_measurement():
    circuit, _, _ = build(3, ("H", "q0"), (MEASURE, "q0", "first"), (MEASURE, "q0", "second"))
    for seed in range(20):
        _, table = simulate(circuit, seed=seed)
        assert table.records["first"] == table.records["second"]


def test_measured_state_collapses_to_observed_digit():
    circuit, _, _ = build(3, ("H", "q0"), (MEASURE, "q0"))
    final, table = simulate(circuit, seed=5)
    digit = table.records["m_q0"][0]
    expected = np.zeros(3, dtype=complex)
    expected[digit] = final.amps[digit]
    np.testing.assert_allclose(final.amps, expected, atol=1e-12)
    assert abs(abs(final.amps[digit]) - 1.0) <= 1e-10


def test_simulate_without_measuring_skips_every_measurement():
    measured, _, _ = build(3, ("H", "q0"), (MEASURE, "q0"), ("CNOT", ("q0", "q1")), (MEASURE, "q1"))
    bare, _, _ = build(3, ("H", "q0"), ("CNOT", ("q0", "q1")))
    final, table = simulate(measured, measure=False)
    assert final == simulate(bare)[0] and table.records == {}


# --- run ---


def test_run_requires_measurements():
    with pytest.raises(ValueError, match="measurement"):
        run(ghz_circuit(2, 3), 5)


def test_run_rejects_zero_repetitions():
    with pytest.raises(ValueError, match="repetitions"):
        run(ghz_circuit(2, 3, measure=True), 0)


def test_deterministic_permutation_always_yields_one():
    circuit, _, _ = build(4, ("X", "q0"), (MEASURE, "q0"))
    result = run(circuit, 25, seed=123)
    assert result.table.records["m_q0"] == [1] * 25


def test_ghz_registers_agree_every_repetition():
    for d, n in [(2, 2), (3, 3), (5, 4)]:
        result = run(ghz_circuit(n, d, measure=True), 50, seed=77)
        columns = list(result.table.records.values())
        for rep in range(50):
            assert len({col[rep] for col in columns}) == 1


def test_slow_path_keeps_ghz_correlation():
    # A gate after a measurement forces per-repetition re-execution.
    circuit = ghz_circuit(3, 3, measure=True)
    q0 = circuit.qudits[0]
    circuit.apply(single("X", 3), q0)
    circuit.measure(q0, "after")
    result = run(circuit, 30, seed=99)
    recs = result.table.records
    for rep in range(30):
        assert recs["m_q0"][rep] == recs["m_q1"][rep] == recs["m_q2"][rep]
        assert recs["after"][rep] == (recs["m_q0"][rep] + 1) % 3


def test_same_seed_reproduces_table_exactly():
    circuit = ghz_circuit(3, 3, measure=True)
    a = run(circuit, 40, seed=2024)
    b = run(circuit, 40, seed=2024)
    assert a.table == b.table and a.seed == b.seed


def test_derived_seed_is_replayable():
    circuit = ghz_circuit(2, 3, measure=True)
    first = run(circuit, 12)
    replay = run(circuit, 12, seed=first.seed)
    assert replay.table == first.table


def test_uniform_sampling_frequencies():
    circuit, _, _ = build(3, ("H", "q0"), (MEASURE, "q0"))
    result = run(circuit, 9000, seed=31)
    digits = result.table.records["m_q0"]
    for symbol in range(3):
        assert abs(digits.count(symbol) / 9000 - 1 / 3) < 0.03


def test_formatted_digits_concatenate_without_separator():
    circuit, _, _ = build(3, ("H", "q0"), (MEASURE, "q0"))
    result = run(circuit, 10, seed=4)
    text = result.table.formatted("m_q0")
    assert len(text) == 10 and set(text) <= set("012")


def test_formatted_digits_use_commas_above_base_ten():
    circuit, _, _ = build(12, ("H", "q0"), (MEASURE, "q0"))
    result = run(circuit, 6, seed=4)
    assert result.table.formatted("m_q0").count(",") == 5


# --- memory preflight ---


def _register(n, d=2) -> Circuit:
    c = Circuit()
    for i in range(n):
        c.add_qudit(f"q{i}", d)
    return c


def test_simulate_refuses_41_qubits_before_allocating():
    with pytest.raises(StateTooLargeError, match="physical memory") as info:
        simulate(_register(41))
    assert isinstance(info.value, ValueError)
    with pytest.raises(StateTooLargeError):
        basis_state((2,) * 41, (0,) * 41)


def test_preflight_counts_two_buffers(monkeypatch):
    # 2^6 amplitudes of 16 B: one buffer is 1 KiB, two are 2 KiB.
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 2048)
    final, _ = simulate(_register(6))
    assert final.amps[0] == 1
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 2047)
    with pytest.raises(StateTooLargeError):
        simulate(_register(6))
    basis_state((2,) * 6, (0,) * 6)  # one buffer still fits


def test_preflight_is_skipped_when_memory_is_unknown(monkeypatch):
    monkeypatch.setattr(simulator, "_physical_memory", lambda: None)
    final, _ = simulate(_register(3))
    assert final.amps[0] == 1


@pytest.mark.parametrize("midcircuit", [False, True], ids=["terminal", "midcircuit"])
def test_run_refuses_repetitions_whose_draws_and_table_do_not_fit(monkeypatch, midcircuit):
    # Per repetition, 8 B words: its uniforms (1 terminal, 4 mid-circuit),
    # a table entry per measurement (3 or 4), an index and a digit per wire (4).
    circuit = ghz_circuit(3, 3, measure=True)
    if midcircuit:
        circuit.apply(single("X", 3), circuit.qudits[0])
        circuit.measure(circuit.qudits[0], "after")
    need = 1000 * (12 if midcircuit else 8) * 8
    derived = []
    monkeypatch.setattr(simulator, "spawned_uniforms", lambda *args: derived.append(args))
    monkeypatch.setattr(simulator, "_physical_memory", lambda: need - 1)
    with pytest.raises(StateTooLargeError, match="1000 repetitions"):
        run(circuit, 1000, seed=1)
    with pytest.raises(StateTooLargeError, match="physical memory"):
        run(circuit, 10**12, seed=1)
    assert derived == []  # refused before any stream was derived
    monkeypatch.undo()
    monkeypatch.setattr(simulator, "_physical_memory", lambda: need)
    assert run(circuit, 1000, seed=1).repetitions == 1000


@pytest.mark.parametrize("seed", [-1, np.int64(-3)])
def test_run_refuses_a_negative_seed(seed):
    with pytest.raises(ValueError, match="non-negative"):
        run(ghz_circuit(2, 3, measure=True), 5, seed=seed)


def test_run_takes_a_numpy_integer_seed_as_its_value():
    circuit = ghz_circuit(2, 3, measure=True)
    assert run(circuit, 30, seed=np.uint64(2**64 - 1)).table == run(circuit, 30, seed=2**64 - 1).table


def test_multi_wire_dense_gate_runs_in_two_state_buffers(monkeypatch):
    # Targets in ascending order take the (L, D, R) matmul; reversed ones the
    # permuted copy and GEMM, which uses the spare buffer as scratch.
    rng = np.random.default_rng(2)
    unitary, _ = np.linalg.qr(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
    state_bytes = 9 * 16
    for wires in [(0, 1), (1, 0)]:
        circuit = _register(2, 3)
        circuit.apply(custom(unitary, (3, 3)), *(circuit.qudits[w] for w in wires))
        monkeypatch.setattr(simulator, "_physical_memory", lambda: 2 * state_bytes)
        final, _ = simulate(circuit)
        expected = unitary[:, 0].reshape(3, 3).transpose(np.argsort(wires)).reshape(-1)
        assert np.allclose(final.amps, expected, atol=1e-12), wires
        monkeypatch.setattr(simulator, "_physical_memory", lambda: 2 * state_bytes - 1)
        with pytest.raises(StateTooLargeError, match="2 state buffer"):
            simulate(circuit)


# --- peak memory ---


WIDE = 19  # numpy's fixed 128 KiB ufunc buffer, which a diagonal kernel may take, is 1.6% of this state


def _wide_circuit(mid_circuit: bool) -> Circuit:
    """H and Z gates on 2^WIDE amplitudes, measured at the end or mid-circuit."""
    circuit = _register(WIDE)
    q = circuit.qudits
    for w in (0, 5, WIDE - 1):
        circuit.apply(single("H", 2), q[w])
    circuit.apply(single("Z", 2), q[5])
    circuit.measure(q[0])
    if mid_circuit:
        circuit.apply(single("H", 2), q[0])
        circuit.apply(single("Z", 2), q[0])
    circuit.measure(q[WIDE - 1])
    return circuit


def _random_unitary(side: int) -> np.ndarray:
    rng = np.random.default_rng(side)
    unitary, _ = np.linalg.qr(rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side)))
    return unitary


def _dense_wide_circuit() -> Circuit:
    """A dense two-wire CUSTOM gate on non-adjacent wires, in descending
    order, of 2^WIDE amplitudes."""
    circuit = _register(WIDE)
    q = circuit.qudits
    circuit.apply(single("H", 2), q[3])
    circuit.apply(custom(_random_unitary(4), (2, 2)), q[WIDE - 2], q[3])
    return circuit


def _traced_peak(call) -> int:
    """Peak traced allocation of one call, in bytes, after a warm-up call
    and with no buffer kept."""
    call()
    simulator.release_buffers()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        simulator.release_buffers()


def _traced_peak_states(call) -> float:
    """`_traced_peak` in states of 2^WIDE amplitudes."""
    return _traced_peak(call) / ((1 << WIDE) * 16)


@pytest.mark.parametrize(
    "name, call",
    [
        ("mid-circuit simulate", lambda: simulate(_wide_circuit(True), seed=1)),
        ("mid-circuit run", lambda: run(_wide_circuit(True), 3, seed=1)),
        ("terminal run", lambda: run(_wide_circuit(False), 3, seed=1)),
        ("non-adjacent dense simulate", lambda: simulate(_dense_wide_circuit())),
    ],
)
def test_evolution_and_sampling_stay_in_two_state_buffers(name, call):
    assert _traced_peak_states(call) <= 2.05, name


def _plan_run(dims, ops):
    """The kernel `_plan` fuses from a run of (matrix, wires) ops of one class."""
    structures = [simulator._structure(matrix) for matrix, _ in ops]
    return simulator._fuse(dims, structures[0][0], [(wires, data) for (_, wires), (_, data) in zip(ops, structures)])


MAP, PHASES = 8, 16  # bytes per gather-map entry and per spelled-out phase


@pytest.mark.parametrize(
    "dims, make_ops, bound",
    [
        ((1 << 20, 2), lambda: [(resolve(single("Z", 2)), (1,))], MAP),
        ((40, 60, 40), lambda: [(resolve(two_qudit("CZ", 40)), (0, 2))], MAP),
        ((2,) * 20, lambda: [(_random_unitary(4), (17, 3))], MAP),
        ((2,) * 17, lambda: [(resolve(single("X", 2)), (1,))], MAP),
        # Fused: phases over 16 wires; a phased map over wires 1-16.
        ((2,) * 20, lambda: [(resolve(single("Z", 2)), (w,)) for w in range(4, 20)]
         + [(np.diag(np.exp(1j * np.arange(4))), (19, 4))], PHASES),
        ((2,) * 17, lambda: [(np.array([[0, 1j], [1, 0]]), (1,)), (resolve(two_qudit("CNOT", 2)), (16, 1))], MAP + PHASES),
    ],
    ids=["Z", "CZ", "dense", "X", "fused diagonal", "fused permutation"],
)
def test_what_a_plan_retains_depends_on_the_gate_not_on_the_register(dims, make_ops, bound):
    # At most GATHER_MAX amplitudes of gather map (an int64 index each) and,
    # for a fused run, of phases, plus a few small gate-sized arrays, on
    # registers of 1.5-32 MiB.
    _plan_run(dims, make_ops())  # warm-up: numpy caches what its first calls set up
    tracemalloc.start()
    try:
        kernel = _plan_run(dims, make_ops())  # the matrices are freed unless kept
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= simulator.GATHER_MAX * bound + (64 << 10), kernel.kind


def test_a_last_wire_diagonal_on_a_large_register_is_unbuffered():
    # Phases spelled out over fewer amplitudes than numpy's ufunc buffer make
    # the in-place multiply take the buffered iterator: a 128 KiB buffer per slab.
    dims = (2,) * 20
    assert prod(dims) >= simulator.SPLIT_MIN
    kernel = simulator.plan_gate(dims, resolve(single("Z", 2)), (19,))
    amps = np.ones(prod(dims), dtype=complex)
    simulator._apply(kernel, amps, amps)
    tracemalloc.start()
    try:
        simulator._apply(kernel, amps, amps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 10
    np.testing.assert_allclose(amps, 1, rtol=0, atol=1e-12)  # Z twice
    # Small registers keep MIN_INNER: Z on the last of 44100 amplitudes spells
    # its phases out over the last three wires' 1260.
    assert simulator.plan_gate((7, 5, 3, 2) * 2, resolve(single("Z", 2)), (7,)).row == 1260


def test_mid_circuit_run_shares_one_plan_between_identical_gate_ops():
    def call(n):
        circuit = _register(17)
        q1 = circuit.qudits[1]
        circuit.apply(single("H", 2), q1)
        circuit.measure(q1, "before")
        for _ in range(n):
            circuit.apply(single("X", 2), q1)
        circuit.measure(q1, "after")
        return _traced_peak(lambda: run(circuit, 1, seed=1))

    gather_map = (1 << 16) * 8  # X on wire 1 of 17 qubits gathers over 2^16 amplitudes
    assert abs(call(400) - call(50)) < gather_map


# --- buffers kept between calls ---


def test_kept_buffers_never_alias_a_state_handed_out():
    circuit = ghz_circuit(3, 3)
    measured, _, _ = build(3, ("H", ["q0", "q2"]), ("CNOT", ["q0", "q1"]), *[(MEASURE, f"q{i}") for i in range(3)])
    first, _ = simulate(circuit)
    expected = first.amps.copy()
    run(measured, 20, seed=3)
    second, _ = simulate(measured, measure=False)
    third, _ = simulate(circuit, initial=first)
    assert np.array_equal(first.amps, expected)
    for a, b in [(first, second), (first, third), (second, third)]:
        assert not np.shares_memory(a.amps, b.amps)


def test_at_most_two_buffers_of_one_size_are_kept():
    simulator.release_buffers()
    assert simulator._kept == []
    measured, _, _ = build(3, ("H", ["q0", "q1", "q2"]), (MEASURE, "q0"), ("H", "q0"), (MEASURE, "q1"))
    run(measured, 5, seed=1)  # mid-circuit path
    assert [b.size for b in simulator._kept] == [27, 27]
    simulate(ghz_circuit(2, 5))
    assert [b.size for b in simulator._kept] == [25]
    run(build(3, ("H", ["q0", "q1", "q2"]), (MEASURE, "q0"))[0], 5, seed=1)  # terminal path
    assert [b.size for b in simulator._kept] == [27, 27]
    simulator.release_buffers()
    assert simulator._kept == []


def test_kept_buffers_leave_tables_and_states_unchanged():
    rng = np.random.default_rng(11)
    circuit = random_mixed_circuit(rng)
    simulator.release_buffers()
    fresh, _ = simulate(circuit)
    reused, _ = simulate(circuit)
    assert fresh == reused
    measured, _, _ = build(3, ("H", "q0"), ("CNOT", ["q0", "q1"]), (MEASURE, "q0"), ("H", "q0"), (MEASURE, "q1"))
    simulator.release_buffers()
    tables = [run(measured, 50, seed=9).table.lines() for _ in range(3)]
    assert tables[0] == tables[1] == tables[2]


def test_kept_buffers_are_handed_to_one_thread_at_a_time():
    simulator.release_buffers()
    errors = []

    def work(tag):
        try:
            for _ in range(3000):
                buf = simulator._buffer(8)
                buf.fill(tag)
                if not (buf == tag).all():
                    errors.append(f"thread {tag} shares a buffer")
                simulator._keep(buf)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(tag,)) for tag in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(simulator._kept) <= 2
    simulator.release_buffers()


# --- passes split into row slabs ---


def _shots_terminal_sized() -> Circuit:
    """44100 amplitudes, well below the split threshold, measured at the end."""
    circuit = Circuit()
    q = [circuit.add_qudit(f"q{i}", d) for i, d in enumerate((7, 5, 3, 2) * 2)]
    for wire in q:
        circuit.apply(single("H", wire.dimension), wire)
    circuit.apply(two_qudit("CZ", 3), q[2], q[6])
    circuit.apply(two_qudit("CNOT", 5), q[1], q[5])
    for wire in q:
        circuit.measure(wire)
    return circuit


def test_small_registers_start_no_thread(monkeypatch):
    circuit = _shots_terminal_sized()
    assert prod(circuit.dims) == 44100 < simulator.SPLIT_MIN
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    before = threading.enumerate()
    run(circuit, 100, seed=1)
    simulate(circuit, seed=1)
    assert started == [] and threading.enumerate() == before


def test_an_exception_in_a_worker_slab_is_raised_in_the_caller(monkeypatch):
    class SlabError(Exception):
        pass

    plan = simulator._kernel

    def failing_plan(dims, kind, data, wires):
        kernel = plan(dims, kind, data, wires)

        def apply(src, dst):
            if threading.current_thread() is not threading.main_thread():
                raise SlabError("worker slab")
            kernel.apply(src, dst)

        return simulator.GateKernel(kernel.kind, apply, kernel.row)

    # The GHZ staircase fuses into one whole-state kernel; X on the last
    # wire is a kernel of 27 rows, which the worker slab takes some of.
    circuit = ghz_circuit(4, 3)
    circuit.apply(single("H", 3), circuit.qudits[0])
    circuit.apply(single("X", 3), circuit.qudits[3])
    assert min(step.row for step in simulator._plan(circuit)) < prod(circuit.dims)
    expected, _ = simulate(circuit)
    monkeypatch.setattr(simulator, "SPLIT_MIN", 0)
    monkeypatch.setattr(simulator, "WORKERS", 2)
    monkeypatch.setattr(simulator, "_kernel", failing_plan)
    before = threading.enumerate()
    with pytest.raises(SlabError, match="worker slab"):
        simulate(circuit)
    assert threading.enumerate() == before
    assert len(simulator._kept) <= 2
    monkeypatch.setattr(simulator, "_kernel", plan)
    assert simulate(circuit)[0] == expected


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform")
def test_a_forked_child_simulates_after_a_split_pass(monkeypatch):
    circuit = ghz_circuit(5, 3)
    monkeypatch.setattr(simulator, "SPLIT_MIN", 0)
    monkeypatch.setattr(simulator, "WORKERS", 2)
    expected, _ = simulate(circuit)  # split in the parent, before the fork

    def child():
        if simulate(circuit)[0] != expected:
            raise SystemExit(3)

    process = multiprocessing.get_context("fork").Process(target=child)
    process.start()
    process.join(timeout=60)
    if process.is_alive():
        process.kill()
        process.join()
    assert process.exitcode == 0


# --- BLAS's thread pool stays asleep ---


def _split_sized_circuit() -> Circuit:
    """SPLIT_MIN qubit amplitudes with dense gates whose whole GEMMs reach
    GEMM_MAX: on wire 0, on middle wires, on the last wire (folded) and on
    two non-adjacent wires (permuted); a diagonal on wire 0; every wire
    measured at the end."""
    n = 20
    circuit = _register(n)
    q = circuit.qudits
    for w in (0, 3, 10, n - 1):
        circuit.apply(single("H", 2), q[w])
    circuit.apply(custom(_random_unitary(4), (2, 2)), q[n - 2], q[5])
    circuit.apply(single("Z", 2), q[0])
    for wire in q:
        circuit.measure(wire)
    return circuit


def test_blas_never_threads_a_state_pass():
    # After a call BLAS threads, OpenBLAS's pool spins for ~0.1 s: 0.10-0.14 s
    # of CPU time over the sleep below on a 2-vCPU VM.
    circuit = _split_sized_circuit()
    assert prod(circuit.dims) == simulator.SPLIT_MIN
    time.sleep(0.3)  # spin left by earlier tests
    final, _ = simulate(circuit, measure=False)
    run(circuit, 3, seed=1)
    start = time.process_time()
    time.sleep(0.2)
    assert time.process_time() - start < 0.02
    with pytest.MonkeyPatch.context() as mp:  # the same gates without tiles, as BLAS would thread them
        mp.setattr(simulator, "GEMM_MAX", 1 << 62)
        mp.setattr(simulator, "WORKERS", 1)
        whole, _ = simulate(circuit, measure=False)
    np.testing.assert_allclose(final.amps, whole.amps, rtol=0, atol=1e-12)


def test_tiled_gemms_and_blocked_sampling_stay_in_two_state_buffers():
    peak = _traced_peak(lambda: run(_split_sized_circuit(), 3, seed=1))
    assert peak / (simulator.SPLIT_MIN * 16) <= 2.05
