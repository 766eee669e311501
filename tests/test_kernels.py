"""Property tests of the structure-classified gate kernels.

Every gate kind at every power in [-2d, 2d], and CUSTOM diagonal, monomial
and dense matrices, on mixed dimensions 2-7 with wires in any order, must
match the dense embedding `_embed(matrix) @ amps`, leave the input state
untouched, and be planned into the kernel class its structure calls for.
Each property also runs with the size thresholds forced to their other
side, so the slice permutation, the (L, D, R) matmul and the per-axis
diagonal broadcast are exercised on small registers too.

Every pass split into slabs, forced on small registers by a zero split
threshold and 1-4 workers, must give the bits the one-slab pass gives, and a
kernel computed over any contiguous partition of its tiles the bits of one
call over every tile.
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
from quditsim.simulator import DENSE, DIAGONAL, PERMUTATION, GateKernel, plan_gate
from conftest import random_mixed_circuit, random_unit_amps

TOL = 1e-12
# (FOLD_MAX, GATHER_MAX, MIN_INNER): the defaults; every size switch flipped,
# so small registers take the paths large ones take; and no folded GEMM, so
# the (L, D, R) matmul runs on the many-row slices of small registers.
VARIANTS = {
    "default": (simulator.FOLD_MAX, simulator.GATHER_MAX, simulator.MIN_INNER),
    "flipped": (0, 0, 1),
    "unfolded": (1, simulator.GATHER_MAX, simulator.MIN_INNER),
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


def _run_tiles(kernel, amps, slices):
    """The kernel's output on a copy of `amps`, its tiles computed one slice
    at a time; a diagonal runs in place, as `_evolve` runs it. Any other
    output starts as NaN, so an amplitude no tile wrote compares unequal."""
    src = amps.copy()
    out = src if kernel.kind == DIAGONAL else np.full_like(amps, np.nan)
    for s in slices:
        kernel.apply(src, out, s)
    return out


# Where to cut a kernel's tiles, as fractions of their count.
CUTS = st.lists(st.floats(0, 1), max_size=6)


def _partition(tiles, cuts):
    """Contiguous slices that cover range(tiles), cut at the given fractions."""
    points = sorted({0, tiles, *(int(c * tiles) for c in cuts)})
    return [slice(a, b) for a, b in zip(points, points[1:])]


def _check_split(variant, gate, seed, workers, cuts=(1 / 3, 2 / 3)):
    dims, matrix, wires, _ = gate
    amps = random_unit_amps(np.random.default_rng(seed), prod(dims))
    with pytest.MonkeyPatch.context() as mp:
        for name, value in zip(("FOLD_MAX", "GATHER_MAX", "MIN_INNER"), VARIANTS[variant]):
            mp.setattr(simulator, name, value)
        kernel = plan_gate(dims, matrix, wires)
        # Only the (L, D, R) matmul on small rows tiles at rows among dense kernels.
        row = prod(dims[min(wires):])
        dense_whole = kernel.kind == DENSE and not (
            simulator._ascending_run(wires) and simulator.FOLD_MAX < row <= simulator.GATHER_MAX
        )
        whole = _run_tiles(kernel, amps, [slice(0, kernel.tiles)])
        slabs = []

        def spy(src, dst, s):
            slabs.append(s)
            kernel.apply(src, dst, s)

        _split(mp, workers)
        src = amps.copy()
        out = src if kernel.kind == DIAGONAL else np.full_like(amps, np.nan)
        simulator._apply(GateKernel(kernel.kind, spy, kernel.tiles), src, out)
        # Planned with every pass split and a small GEMM budget, a diagonal on
        # wire 0 tiles at digit prefixes and a large GEMM at row or column tiles.
        mp.setattr(simulator, "GEMM_MAX", 128)
        tiled = plan_gate(dims, matrix, wires)
        tiled_whole = _run_tiles(tiled, amps, [slice(0, tiled.tiles)])
        tiled_cut = _run_tiles(tiled, amps, _partition(tiled.tiles, cuts))
    assert np.array_equal(out, whole), kernel.kind
    # A tile is a whole number of rows; the slabs cover the tiles in order.
    assert prod(dims) % kernel.tiles == 0 and (prod(dims) // kernel.tiles) % row == 0
    slabs.sort(key=lambda s: s.start)
    assert len(slabs) == min(workers, kernel.tiles)
    assert [s.start for s in slabs] == [0] + [s.stop for s in slabs[:-1]] and slabs[-1].stop == kernel.tiles
    if dense_whole or min(wires) == 0:
        assert kernel.tiles == 1
    assert np.array_equal(tiled_cut, tiled_whole), tiled.kind
    np.testing.assert_allclose(tiled_whole, whole, rtol=0, atol=TOL)


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=100, deadline=None)
@given(gate=builtin_gates(), seed=st.integers(0, 2**32 - 1), workers=st.integers(1, 4), cuts=CUTS)
def test_split_builtin_kernels_are_bit_identical(variant, gate, seed, workers, cuts):
    _check_split(variant, gate, seed, workers, cuts)


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=100, deadline=None)
@given(gate=custom_gates(), seed=st.integers(0, 2**32 - 1), workers=st.integers(1, 4), cuts=CUTS)
def test_split_custom_kernels_are_bit_identical(variant, gate, seed, workers, cuts):
    _check_split(variant, gate, seed, workers, cuts)


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
        zero = simulator._evolve([], np.empty((1, 0)), dims, None)[0].copy()
        copied = simulator._evolve([], np.empty((1, 0)), dims, initial)[0].copy()
        probs, total = simulator._born(initial.amps, np.full(size, np.nan, dtype=complex))
        probs = probs.copy()
        index = simulator._sample(probs.copy(), total, uniforms, np.full(size, np.nan))
        simulator.release_buffers()
        return zero, copied, probs, index, total

    serial = passes()
    with pytest.MonkeyPatch.context() as mp:
        _split(mp, workers)
        mp.setattr(simulator, "BORN_BLOCK", block)
        split = passes()
    for name, a, b in zip(("reset", "copy", "born", "draw", "total"), serial, split):
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


# --- GEMMs in tiles under GEMM_MAX, diagonals on wire 0 ---


def _gemm_sizes(mp, sizes):
    """Record m*n*k of every np.matmul call as (m*n*k, k)."""
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        sizes.append((a.shape[-2] * a.shape[-1] * b.shape[-1], a.shape[-1]))
        return matmul(a, b, *args, **kwargs)

    mp.setattr(np, "matmul", spy)


def _tiled(dims, matrix, wires, amps, budget, workers):
    """The gate's output, planned and run with every pass split among
    `workers` and GEMM_MAX = budget, and the sizes of its GEMMs."""
    sizes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "GEMM_MAX", budget)
        _split(mp, workers)
        kernel = plan_gate(dims, matrix, wires)
        out = np.empty_like(amps)
        _gemm_sizes(mp, sizes)
        simulator._apply(kernel, amps.copy(), out)
    return out, sizes


def _check_tiled(dims, matrix, wires, seed, budget, workers):
    amps = random_unit_amps(np.random.default_rng(seed), prod(dims))
    one, sizes = _tiled(dims, matrix, wires, amps, budget, 1)
    assert np.array_equal(_tiled(dims, matrix, wires, amps, budget, workers)[0], one)
    np.testing.assert_allclose(one, _embed(matrix, wires, dims) @ amps, rtol=0, atol=TOL)
    # Every GEMM stays under the budget, unless two rows (or columns) of the
    # gate reach it, when it keeps one call.
    assert sizes and all(mnk < budget or 2 * k * k >= budget for mnk, k in sizes), sizes
    return sizes


@settings(max_examples=150, deadline=None)
@given(
    gate=custom_gates().filter(lambda gate: gate[3] == DENSE),
    seed=st.integers(0, 2**32 - 1),
    budget=st.integers(8, 4096),
    workers=st.integers(2, 4),
)
def test_tiled_gemms_are_bit_identical(gate, seed, budget, workers):
    dims, matrix, wires, _ = gate
    _check_tiled(dims, matrix, wires, seed, budget, workers)


@pytest.mark.parametrize("workers", [2, 3, 4])
@pytest.mark.parametrize(
    "dims, wires, budget, expected",
    [
        # Folded GEMM of 35 rows of 2 at exactly its m*n*k: tiles of 33 rows
        # (34 would leave one over) and a remainder tile of 2.
        ((5, 7, 2), (2,), 140, [33 * 4, 2 * 4]),
        ((5, 7, 2), (2,), 141, [140]),  # one under the budget: one call
        # (L, D, R) matmul, D = 3, R = 24, at the budget: 22 and 2 columns a row.
        ((3, 3, 24), (1,), 216, [9 * 22, 9 * 2]),
        # 7 rows of 2, tiles of at most 2: the remainder is one row (m = 1).
        ((7, 2), (1,), 12, [8, 4]),
        # The permuted GEMM of one row (m = 1) of 6: too wide to tile.
        ((3, 2), (1, 0), 20, [36]),
    ],
)
def test_gemm_tiles_at_the_budget(dims, wires, budget, expected, workers):
    side = prod(dims[w] for w in wires)
    rng = np.random.default_rng(side)
    matrix, _ = np.linalg.qr(rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side)))
    sizes = _check_tiled(dims, matrix, wires, 3, budget, workers)
    assert sorted({mnk for mnk, _ in sizes}) == sorted(set(expected))


def _recorded_slabs(mp, slabs):
    """Record the slab sizes, in units, of every `_slabs` call, one list per call."""
    split = simulator._slabs

    def recorded(size, units, work):
        sizes = []
        slabs.append(sizes)
        return split(size, units, lambda s: sizes.append(s.stop - s.start) or work(s))

    mp.setattr(simulator, "_slabs", recorded)


def _reference(dims, matrix, wires, amps):
    """The gate applied to amps by contracting its tensor with theirs."""
    k = len(wires)
    gate = matrix.reshape([dims[w] for w in wires] * 2)
    out = np.tensordot(gate, amps.reshape(dims), axes=(list(range(k, 2 * k)), list(wires)))
    return np.moveaxis(out, list(range(k)), list(wires)).reshape(-1)


@pytest.mark.parametrize("workers", [2, 3, 4])
@pytest.mark.parametrize(
    "dims, kind, wires",
    [
        ((2,) * 20, "Z", (0,)),
        ((3,) * 13, "CZ", (0, 5)),
        ((3,) * 13, "CZ", (12, 0)),
        ((3,) * 13, "H", (0,)),  # (L, D, R) matmul in column tiles
        ((2,) * 20, "H", (19,)),  # folded GEMM in row tiles
    ],
)
def test_a_diagonal_on_wire_0_runs_on_every_worker(dims, kind, wires, workers):
    assert prod(dims) >= simulator.SPLIT_MIN
    matrix = resolve(GateSpec(GateKind(kind), (dims[wires[0]],) * len(wires)))
    kernel = plan_gate(dims, matrix, wires)
    # Not rows, which are the whole state or, folded, too small to split:
    # the kernel's tiles are a grid of its own, enough for every worker.
    assert kernel.tiles != prod(dims[:min(wires)]) and kernel.tiles >= 4
    amps = random_unit_amps(np.random.default_rng(len(wires)), prod(dims))

    def result(n):
        src, slabs = amps.copy(), []
        out = src if kernel.kind == DIAGONAL else np.empty_like(src)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "WORKERS", n)
            _recorded_slabs(mp, slabs)
            simulator._apply(kernel, src, out)
        return out, slabs

    one, _ = result(1)
    split, slabs = result(workers)
    assert np.array_equal(split, one)
    assert [len(sizes) for sizes in slabs] == [workers] and sum(slabs[0]) == kernel.tiles
    np.testing.assert_allclose(one, _reference(dims, matrix, wires, amps), rtol=0, atol=TOL)
