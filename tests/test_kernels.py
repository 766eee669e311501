"""Property tests of the structure-classified gate kernels.

Every gate kind at every power in [-2d, 2d], and CUSTOM diagonal, monomial
and dense matrices, on mixed dimensions 2-7 with wires in any order, must
match the dense embedding `_embed(matrix) @ amps`, leave the input state
untouched, and be planned into the kernel class its structure calls for.
Each property also runs with the size thresholds forced to their other
side, so the slice permutation, the (L, D, R) matmul and the per-axis
diagonal broadcast are exercised on small registers too.

Every pass split into row slabs, forced on small registers by a zero split
threshold and 1-4 workers, must give the bits the one-slab pass gives.
"""

from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditsim import StateVector, apply_gate, full_unitary, run, simulate
from quditsim import simulator
from quditsim.circuit import _embed
from quditsim.gates import GateKind, GateSpec, is_prime, resolve
from quditsim.simulator import DENSE, DIAGONAL, PERMUTATION, GateKernel, MeasurementTable, plan_gate
from conftest import random_mixed_circuit, random_unit_amps

TOL = 1e-12
# (FOLD_MAX, GATHER_MAX, MIN_INNER): the defaults, then every size switch
# flipped, so small registers take the paths large ones take.
VARIANTS = {
    "default": (simulator.FOLD_MAX, simulator.GATHER_MAX, simulator.MIN_INNER),
    "flipped": (0, 0, 1),
}
DIAGONAL_KINDS = {"Z", "S", "U8", "CZ"}


def _expected_class(kind: str, d: int, power: int) -> str:
    """Kernel class of kind^power at dimension d."""
    if kind in DIAGONAL_KINDS:
        return DIAGONAL
    if kind in ("X", "CNOT"):
        return DIAGONAL if power % d == 0 else PERMUTATION
    k = abs(power) % 4  # H
    if k == 0 or (k == 2 and d == 2):  # H^2 is the parity map, the identity at d=2
        return DIAGONAL
    return PERMUTATION if k == 2 else DENSE


@st.composite
def registers(draw):
    dims = draw(st.lists(st.integers(2, 7), min_size=1, max_size=4).filter(lambda ds: prod(ds) <= 300))
    return tuple(dims)


@st.composite
def builtin_gates(draw):
    """(dims, matrix, wires, expected class) for a built-in kind and power."""
    dims = draw(registers())
    n = len(dims)
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b and dims[a] == dims[b]]
    kinds = ["X", "Z", "H", "S"] + (["CNOT", "CZ"] if pairs else [])
    wire = draw(st.integers(0, n - 1))
    if is_prime(dims[wire]):
        kinds.append("U8")
    kind = draw(st.sampled_from(kinds))
    if kind in ("CNOT", "CZ"):
        wires = draw(st.sampled_from(pairs))
    else:
        wires = (wire,)
    d = dims[wires[0]]
    power = draw(st.integers(-2 * d, 2 * d))
    spec = GateSpec(GateKind(kind), (d,) * len(wires), power=power)
    return dims, resolve(spec), wires, _expected_class(kind, d, power)


@st.composite
def custom_gates(draw):
    """(dims, matrix, wires, expected class) for CUSTOM diagonal, monomial
    (a non-identity permutation with phases) or dense matrices on one to
    three wires, in any order and positions."""
    dims = draw(registers())
    n = len(dims)
    arity = draw(st.integers(1, min(3, n)))
    wires = tuple(draw(st.permutations(range(n)))[:arity])
    side = prod(dims[w] for w in wires)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phases = np.exp(2j * np.pi * rng.random(side))
    structure = draw(st.sampled_from([DIAGONAL, PERMUTATION, DENSE]))
    if structure == DIAGONAL:
        matrix = np.diag(phases)
    elif structure == PERMUTATION:
        perm = np.roll(np.arange(side), 1 + int(rng.integers(side - 1)))[rng.permutation(side)]
        perm = perm if (perm != np.arange(side)).any() else np.roll(perm, 1)
        matrix = np.zeros((side, side), dtype=complex)
        matrix[perm, np.arange(side)] = phases
    else:
        matrix, _ = np.linalg.qr(rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side)))
    return dims, matrix, wires, structure


def _check(variant, gate, seed):
    dims, matrix, wires, expected = gate
    with pytest.MonkeyPatch.context() as mp:
        for name, value in zip(("FOLD_MAX", "GATHER_MAX", "MIN_INNER"), VARIANTS[variant]):
            mp.setattr(simulator, name, value)
        assert plan_gate(dims, matrix, wires).kind == expected
        state = StateVector(dims, random_unit_amps(np.random.default_rng(seed), prod(dims)))
        before = state.amps.copy()
        out = apply_gate(state, matrix, wires)
    assert np.array_equal(state.amps, before), "apply_gate mutated its input"
    np.testing.assert_allclose(out.amps, _embed(matrix, wires, dims) @ before, rtol=0, atol=TOL)


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=150, deadline=None)
@given(gate=builtin_gates(), seed=st.integers(0, 2**32 - 1))
def test_builtin_kernels_match_embedding(variant, gate, seed):
    _check(variant, gate, seed)


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=150, deadline=None)
@given(gate=custom_gates(), seed=st.integers(0, 2**32 - 1))
def test_custom_kernels_match_embedding(variant, gate, seed):
    _check(variant, gate, seed)


def test_non_adjacent_two_wire_dense_uses_the_permuted_gemm():
    rng = np.random.default_rng(2)
    dims = (3, 2, 5, 3)
    u, _ = np.linalg.qr(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
    _check("default", (dims, u, (3, 0), DENSE), seed=5)


@pytest.mark.parametrize("variant", VARIANTS)
def test_simulate_matches_oracle_with_in_place_diagonals(variant, monkeypatch):
    for name, value in zip(("FOLD_MAX", "GATHER_MAX", "MIN_INNER"), VARIANTS[variant]):
        monkeypatch.setattr(simulator, name, value)
    rng = np.random.default_rng(21)
    for _ in range(30):
        circuit = random_mixed_circuit(rng, max_qudits=4, max_dim=5, max_depth=16)
        final, _ = simulate(circuit)
        e0 = np.zeros(final.amps.size, dtype=complex)
        e0[0] = 1.0
        np.testing.assert_allclose(final.amps, full_unitary(circuit) @ e0, rtol=0, atol=1e-10)


# --- passes split into row slabs ---


def _split(mp, workers):
    """Split every pass, however small, among `workers` slabs."""
    mp.setattr(simulator, "SPLIT_MIN", 0)
    mp.setattr(simulator, "WORKERS", workers)


def _check_split(variant, gate, seed, workers):
    dims, matrix, wires, _ = gate
    amps = random_unit_amps(np.random.default_rng(seed), prod(dims))
    with pytest.MonkeyPatch.context() as mp:
        for name, value in zip(("FOLD_MAX", "GATHER_MAX", "MIN_INNER"), VARIANTS[variant]):
            mp.setattr(simulator, name, value)
        kernel = plan_gate(dims, matrix, wires)
        # Only the (L, D, R) matmul on small rows splits among dense kernels.
        row = prod(dims[min(wires):])
        dense_whole = kernel.kind == DENSE and not (
            simulator._ascending_run(wires) and simulator.FOLD_MAX < row <= simulator.GATHER_MAX
        )
        whole = np.empty_like(amps)
        kernel.apply(amps.copy(), whole)
        slabs = []

        def spy(src, dst):
            slabs.append(src.size)
            kernel.apply(src, dst)

        _split(mp, workers)
        src = amps.copy()
        out = src if kernel.kind == DIAGONAL else np.empty_like(amps)  # in place, as `_evolve` runs it
        simulator._apply(GateKernel(kernel.kind, spy, kernel.row), src, out)
    assert np.array_equal(out, whole), kernel.kind
    assert len(slabs) == min(workers, amps.size // kernel.row)
    assert all(size % kernel.row == 0 for size in slabs) and sum(slabs) == amps.size
    if dense_whole or min(wires) == 0:
        assert slabs == [amps.size]


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=100, deadline=None)
@given(gate=builtin_gates(), seed=st.integers(0, 2**32 - 1), workers=st.integers(1, 4))
def test_split_builtin_kernels_are_bit_identical(variant, gate, seed, workers):
    _check_split(variant, gate, seed, workers)


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=100, deadline=None)
@given(gate=custom_gates(), seed=st.integers(0, 2**32 - 1), workers=st.integers(1, 4))
def test_split_custom_kernels_are_bit_identical(variant, gate, seed, workers):
    _check_split(variant, gate, seed, workers)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("kind", ["Z", "X"])
def test_split_with_more_workers_than_rows(variant, kind):
    # Three rows before wire 1, four workers: one slab per row.
    spec = GateSpec(GateKind(kind), (5,), power=1)
    _check_split(variant, ((3, 5), resolve(spec), (1,), None), seed=4, workers=4)


@pytest.mark.parametrize("workers", [2, 3, 4])
@pytest.mark.parametrize("dims, wires", [((50, 3, 420), (1,)), ((9, 2, 3, 1000), (1, 2)), ((4, 7, 7, 2), (1,))])
def test_split_dense_matmul_is_bit_identical(dims, wires, workers):
    # Rows of 1260, 6000 and 98 amplitudes: BLAS-sized GEMMs run from several threads at once.
    side = prod(dims[w] for w in wires)
    rng = np.random.default_rng(side)
    matrix, _ = np.linalg.qr(rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side)))
    _check_split("default", (dims, matrix, wires, None), seed=9, workers=workers)


@settings(max_examples=100, deadline=None)
@given(
    dims=registers(),
    seed=st.integers(0, 2**32 - 1),
    workers=st.integers(1, 4),
    block=st.integers(1, 64),
)
def test_split_born_reset_and_draw_are_bit_identical(dims, seed, workers, block):
    rng = np.random.default_rng(seed)
    size = prod(dims)
    initial = StateVector(dims, random_unit_amps(rng, size))
    uniforms = np.concatenate([[0.0, 1 - 2**-53], rng.random(50)])

    def passes():
        # Kept buffers full of NaN: an amplitude a slab misses stays NaN.
        simulator.release_buffers()
        simulator._keep(np.full(size, np.nan, dtype=complex))
        simulator._keep(np.full(size, np.nan, dtype=complex))
        zero = simulator._evolve([], [iter(())], dims, None, MeasurementTable()).copy()
        copied = simulator._evolve([], [iter(())], dims, initial, MeasurementTable()).copy()
        probs = simulator._born(initial.amps, np.full(size, np.nan, dtype=complex)).copy()
        index = simulator._draw(probs.copy(), uniforms)
        simulator.release_buffers()
        return zero, copied, probs, index

    serial = passes()
    with pytest.MonkeyPatch.context() as mp:
        _split(mp, workers)
        mp.setattr(simulator, "BORN_BLOCK", block)
        split = passes()
    for name, a, b in zip(("reset", "copy", "born", "draw"), serial, split):
        assert np.array_equal(a, b), name


def test_split_simulate_and_run_are_bit_identical(monkeypatch):
    rng = np.random.default_rng(33)
    circuits = []
    for n in range(16):
        circuit = random_mixed_circuit(rng, max_qudits=4, max_dim=7, max_depth=16)
        for q in circuit.qudits:
            circuit.measure(q)
        if n % 2:  # mid-circuit: a gate after a measurement
            circuit.apply(GateSpec(GateKind.H, (circuit.qudits[0].dimension,)), circuit.qudits[0])
            circuit.measure(circuit.qudits[0], "again")
        circuits.append(circuit)

    def results():
        return [(simulate(c, seed=2)[0], run(c, 40, seed=5).table) for c in circuits]

    serial = results()
    _split(monkeypatch, 3)
    assert results() == serial
