"""Mixed-radix statevector evolution, measurement with collapse, and
repetition sampling.

No kernel materializes a full-space unitary. Each gate op is planned once,
from the nonzero pattern of its resolved matrix, into one of three kernel
classes:

- diagonal: the diagonal becomes a phase tensor over the target axes that
  is broadcast into the state (Z, S, U8, CZ and their powers, and diagonal
  CUSTOM gates);
- permutation: a monomial matrix, exactly one nonzero in every row and
  column, sends each target basis state to its image, times its phase when
  that is not 1 (X, CNOT and their powers, H^2). When the trailing block of
  wires that holds every target is small, this is one gather with an index
  map over that block; otherwise it is one strided slice copy per target
  basis state;
- dense: a matmul over the (L, D, R) view when the targets are adjacent and
  ascending (any one wire), or one GEMM with kron(U, I_R) on the (L, D*R)
  view when D*R is small; otherwise a permuted copy puts the targets last,
  in gate order, for one GEMM with U^T, then the inverse permuted copy.

Each op is classified once. `_plan` then fuses a maximal run of consecutive
ops of one class into one kernel: diagonal ops into one phase vector over
the union of their wires, while that union spans at most GATHER_MAX
amplitudes; permutation ops into one image map with phases, while the
trailing block from the union's first wire is at most GATHER_MAX, so the
fused map stays a gather. Both compose in O(union) per op. A measurement or
an op of another class ends a run, and dense ops are never fused.

`_evolve`, the one driver behind `simulate` and both paths of `run`, takes
two flat amplitude buffers once, after checking that they fit in physical
memory. Permutation and dense kernels, and every collapse, read one buffer
and write the other, and the two swap roles; a diagonal kernel is
elementwise and runs in place. `_born` writes |psi|^2, for a collapse or
for terminal sampling, into the spare buffer. So no kernel allocates a
state, and no plan keeps more than its gates, one gather map and one
phase block of at most GATHER_MAX amplitudes each. Both buffers are kept
for the next call on a register of the same size, released when another
size asks for buffers or by `release_buffers()`: mapped memory costs no
page faults, and first-touch faults of a fresh state are as slow as a gate
and, on a shared host, erratic. `apply_gate` runs the same plan into a
fresh output buffer and never mutates its input.

Every state pass whose result does not depend on the order of its work runs
on all usable cores: `_slabs` splits it into contiguous slabs, the caller's
thread running one and a short-lived thread each of the others. The split
passes are the gate kernels, the reset to |0...0> or to `initial`, a
collapse, `_born` (abs then square, one cache-sized block at a time),
`StateVector`'s norm check and terminal sampling's divide. A gate never
touches the wires before its first target, so a kernel's rows are
independent; each gate is planned once and the same `GateKernel.apply` runs
on any whole number of its rows. A kernel of one row splits its own work: a
diagonal on wire 0 at digit prefixes, its phases sliced to match, and a
tiled GEMM at whole tiles. Usable cores are `len(os.sched_getaffinity(0))`,
else `os.cpu_count()`. A pass over fewer than SPLIT_MIN amplitudes starts no
thread. The sums whose bits tables pin stay serial: the CDF's running sum
and a collapse's marginal. The total terminal sampling divides by is
numpy's pairwise `probs.sum()` bit for bit, its leaves summed by `_born`'s
slabs. A slab computes on its amplitudes exactly what the whole pass
computes there, so every state, probability and table is bit for bit the
one-slab result, whatever the core count.

BLAS never threads a state pass. OpenBLAS wakes its thread pool for a GEMM
of m*n*k >= GEMM_MAX, and the pool then spins for ~0.1 s, taking a core
from the slabs that follow. So on a register of at least SPLIT_MIN
amplitudes a larger GEMM runs as tiles under GEMM_MAX, in a grid fixed from
the first amplitude, which `_slabs` cuts only at whole tiles: a tile's
shape does not depend on the core count. The norm check sums squares with
`einsum`, which does not call BLAS. Only a gate of 182 or more target
states, where two rows of its GEMM already reach GEMM_MAX, is left to BLAS.

Randomness is driven by numpy's SeedSequence/PCG64. Repetition i of `run`
draws from the stream of `Generator(PCG64(child))`, where `child` is the
i-th of `SeedSequence(seed).spawn(repetitions)`, so it sees the same stream
whether repetitions execute serially or concurrently. `run` takes the
uniforms of all repetitions from `numerics.spawned_uniforms`, which derives
every stream in one vectorized pass, equal to numpy's bit for bit, and
builds no SeedSequence or Generator per repetition. NumPy's stream
compatibility policy (NEP 19) keeps that arithmetic, and so every pinned
table, stable across numpy versions. Every sample is drawn by one exact
sampler, `_draw`, which does what `Generator.choice(len(p), p=p)` does, bit
for bit, with one CDF per distribution and one `searchsorted`. On a register
of more than BORN_BLOCK amplitudes terminal sampling (`_sample`) builds that
CDF in place over |psi|^2 and normalises and searches only the blocks its
uniforms fall in: two passes over the state after `_born`.
"""

from __future__ import annotations

import os
import secrets
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from math import prod
from typing import Callable

import numpy as np

from .circuit import Circuit, Measurement
from .gates import resolve
from .numerics import (
    StateTooLargeError,
    _physical_memory,
    check_dims,
    check_memory,
    mixed_radix_decode,  # noqa: F401  (perfbench's trace wraps it under this module)
    mixed_radix_encode,
    spawned_uniforms,
)

NORM_TOL = 1e-8
AMPLITUDE_BYTES = np.dtype(complex).itemsize
DIAGONAL, PERMUTATION, DENSE = "diagonal", "permutation", "dense"
# A dense gate on adjacent ascending targets whose trailing block D*R is at
# most this is one GEMM with kron(U, I_R): R-fold flops, no per-block BLAS call.
FOLD_MAX = 64
# A permutation whose targets lie in a trailing block of at most this many
# amplitudes is one gather with an index map over that block; otherwise it
# moves one slice per target basis state.
GATHER_MAX = 1 << 16
# On registers under SPLIT_MIN the diagonal kernel spells its phases out over
# a trailing block of at least this many amplitudes, so numpy's inner loop
# stays long on the last wires; larger registers take numpy's buffer size.
MIN_INNER = 1024
# A diagonal on wire 0 of a large register is split at digit prefixes of its
# first wires, at least this many of them.
PREFIXES = 64


# A state pass over at least this many amplitudes is split into row slabs, one
# per usable core; a smaller one starts no thread. Starting a thread costs
# ~0.1 ms; on a 2-vCPU VM two slabs won from 2^19 amplitudes for the gate
# kernels and from 2^20 for the reset and |psi|^2.
SPLIT_MIN = 1 << 20
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# `_born` squares and sums blocks of at most this many amplitudes while `abs`
# left them in cache; terminal sampling normalises and searches its CDF in
# blocks of this many.
BORN_BLOCK = 1 << 16
# OpenBLAS (0.3.31) runs a GEMM on the calling thread while m*n*k < GEMM_MAX; a
# larger one wakes its thread pool, which then spins for ~0.1 s. Measured on a
# 2-vCPU VM: m*n*k of 65,520 and 65,529 stay, 65,536 and 65,538 wake.
GEMM_MAX = 1 << 16
# numpy's pairwise summation adds runs of at most this many values serially.
PAIRWISE_LEAF = 128


# Generator.choice's tolerance on the sum of its probabilities.
PROBABILITY_SUM_TOL = float(np.sqrt(np.finfo(float).eps))


def _check_fits(dims, buffers: int) -> None:
    """Refuse, before allocating, `buffers` states over dims that would not
    fit in physical memory."""
    check_memory(prod(dims) * AMPLITUDE_BYTES * buffers, _physical_memory(),
                 f"{buffers} state buffer(s) of {prod(dims)} amplitudes")


_kept: list[np.ndarray] = []
_kept_lock = threading.Lock()


def _buffer(size: int) -> np.ndarray:
    """An uninitialized flat buffer of `size` amplitudes: a kept one when one
    of that size is kept, else a new one. Kept buffers of another size are
    released first."""
    with _kept_lock:
        if _kept and _kept[0].size == size:
            return _kept.pop()
        _kept.clear()
    return np.empty(size, dtype=complex)


def _keep(buf: np.ndarray) -> None:
    """Keep a buffer that nothing else refers to for the next `_buffer` call;
    at most two are kept, all of one size."""
    with _kept_lock:
        if _kept and _kept[0].size != buf.size:
            _kept.clear()
        if len(_kept) < 2:
            _kept.append(buf)


def release_buffers() -> None:
    """Free the state buffers `simulate` and `run` keep between calls."""
    with _kept_lock:
        _kept.clear()


def _slabs(size: int, row: int, work: Callable[[slice], object]) -> list:
    """`work`'s results on contiguous slices that cover range(size), in order,
    each a whole number of rows of `row` amplitudes but the last, which also
    takes any part row left over: one slice per worker, the caller's thread
    taking the first, when size >= SPLIT_MIN; else one slice. An exception in
    any slab is raised here once every slab ended."""
    rows = size // row
    slabs = min(WORKERS, rows) if size >= SPLIT_MIN else 1
    if slabs <= 1:
        return [work(slice(0, size))]
    cuts = [rows * i // slabs * row for i in range(slabs)] + [size]
    results, errors, started = [None] * slabs, [], []

    def run_slab(i):
        try:
            results[i] = work(slice(cuts[i], cuts[i + 1]))
        except BaseException as exc:  # raised in the caller below
            errors.append(exc)

    try:
        for i in range(1, slabs):
            thread = threading.Thread(target=run_slab, args=(i,))
            thread.start()
            started.append(thread)
        run_slab(0)
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    return results


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over the mixed-radix space of `dims`. Normalized
    within 1e-8; construction rejects anything else."""

    dims: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", check_dims(self.dims))
        amps = np.ascontiguousarray(self.amps, dtype=complex).reshape(-1)
        if amps.size != prod(self.dims):
            raise ValueError(
                f"{amps.size} amplitudes do not fill dims {self.dims}"
            )
        # Only the tolerance test reads the norm: squares of the float view,
        # summed in slabs by einsum, which does not call BLAS.
        x = amps.view(float)
        norm = np.sqrt(sum(_slabs(x.size, 1, lambda s: np.einsum("i,i->", x[s], x[s]))))
        if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails this too
            raise ValueError(f"state norm {norm} is not 1 within {NORM_TOL}")
        object.__setattr__(self, "amps", amps)

    def amplitude(self, digits) -> complex:
        return complex(self.amps[mixed_radix_encode(digits, self.dims)])

    def __eq__(self, other):
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.amps, other.amps)


@dataclass
class MeasurementTable:
    """Per-key digit sequences, one digit per repetition, plus each key's
    wire dimension for base-d rendering."""

    records: dict[str, list[int]] = field(default_factory=dict)
    key_dims: dict[str, int] = field(default_factory=dict)

    def add(self, key: str, dim: int, digit: int) -> None:
        self.records.setdefault(key, []).append(digit)
        self.key_dims[key] = dim

    def extend(self, key: str, dim: int, digits) -> None:
        """Append one digit per repetition to a key's column in one call."""
        self.records.setdefault(key, []).extend(np.asarray(digits).tolist())
        self.key_dims[key] = dim

    def repetitions(self) -> int:
        counts = {len(v) for v in self.records.values()}
        if len(counts) > 1:
            raise ValueError(f"uneven repetition counts per key: {counts}")
        return counts.pop() if counts else 0

    def formatted(self, key: str) -> str:
        """Digits of one key across repetitions, concatenated in base d;
        commas separate digits when the wire dimension exceeds 10."""
        digits = self.records[key]
        sep = "," if self.key_dims[key] > 10 else ""
        return sep.join(str(x) for x in digits)

    def lines(self) -> list[str]:
        return [f"{key}={self.formatted(key)}" for key in self.records]


@dataclass(frozen=True)
class RunResult:
    """Sampling outcome: replaying `run` with the recorded seed reproduces
    the table exactly."""

    table: MeasurementTable
    repetitions: int
    seed: int


def basis_state(dims, digits) -> StateVector:
    """|digits> over the given dims: amplitude 1 at the encoded index."""
    dims = check_dims(dims)
    index = mixed_radix_encode(digits, dims)
    _check_fits(dims, 1)
    amps = np.zeros(prod(dims), dtype=complex)
    amps[index] = 1.0
    return StateVector(dims, amps)


Kernel = Callable[[np.ndarray, np.ndarray], None]


@dataclass(frozen=True)
class GateKernel:
    """A gate planned for one register. `apply(src, dst)` writes the gate's
    action on the flat amplitudes `src` into `dst`, a buffer of the same
    size; `kind` is DIAGONAL, PERMUTATION or DENSE. `src` may also be any
    whole number of the `row`-amplitude rows the gate maps independently,
    with `dst` the same rows of the output; a kernel of one row may split its
    own work with `_slabs`. Only a DIAGONAL kernel, which is elementwise, may
    be given `dst is src`. Only a DENSE kernel on targets not adjacent and
    ascending overwrites `src`, its scratch."""

    kind: str
    apply: Kernel
    row: int


def _apply(kernel: GateKernel, src: np.ndarray, dst: np.ndarray) -> None:
    """Run a planned gate from `src` into `dst`, split into row slabs."""
    _slabs(src.size, kernel.row, lambda s: kernel.apply(src[s], dst[s]))


def _structure(matrix: np.ndarray) -> tuple[str, object]:
    """A gate's kernel class, from its matrix's nonzero pattern, with what
    that class's kernel takes: the diagonal; the image of each target basis
    state with its phase; or the matrix."""
    nonzero = matrix != 0
    if np.count_nonzero(nonzero) == np.count_nonzero(np.diagonal(nonzero)):
        return DIAGONAL, np.diagonal(matrix).copy()  # a view would keep the matrix alive
    if (nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all():
        images = np.argmax(nonzero, axis=0)
        return PERMUTATION, (images, matrix[images, np.arange(images.size)])
    return DENSE, matrix


def _kernel(dims, kind: str, data, wires) -> GateKernel:
    """The kernel of class `kind` for what `_structure` gives, or for a fused run."""
    if kind == DIAGONAL:
        return _diagonal_kernel(dims, data, wires)
    if kind == PERMUTATION:
        return _permutation_kernel(dims, *data, wires)
    return _dense_kernel(dims, data, wires)


def plan_gate(dims, matrix: np.ndarray, wires) -> GateKernel:
    """Classify a gate by its matrix's nonzero pattern and build its kernel."""
    return _kernel(tuple(dims), *_structure(matrix), tuple(wires))


def _diagonal_kernel(dims, diagonal: np.ndarray, wires) -> GateKernel:
    """Multiply by the diagonal as a phase tensor over the targeted axes. A
    row starts at the first target or, when the phases are spelled out over
    wires before it, at the first of those. On a register of at least
    SPLIT_MIN amplitudes the phases are spelled out over numpy's ufunc
    buffer size: a shorter broadcast inner loop takes the buffered iterator.
    There a kernel of one row, a diagonal on wire 0, runs as one multiply per
    digit prefix of its first wires (at least PREFIXES of them), each with
    its slice of the phases, so `_slabs` can cut it at any prefix."""
    n = len(dims)
    tensor = diagonal.reshape([dims[w] for w in wires]).transpose(np.argsort(wires))
    tensor = tensor.reshape([dims[a] if a in wires else 1 for a in range(n)])
    inner = np.getbufsize() if prod(dims) >= SPLIT_MIN else MIN_INNER
    split, cap = n, max(diagonal.size, GATHER_MAX)  # spelled-out phases stay gate-sized
    while split > 0 and prod(dims[split:]) < inner and prod(tensor.shape[:split - 1] + dims[split - 1:]) <= cap:
        split -= 1
    lead = min(min(wires), split)
    view = (-1,) + dims[lead:split] + (prod(dims[split:]),)
    phase = np.broadcast_to(tensor, tensor.shape[:split] + dims[split:]).reshape(tensor.shape[lead:split] + (-1,))
    if lead == 0 < split and prod(dims) >= SPLIT_MIN:
        cut = next(c for c in range(1, split + 1) if c == split or prod(dims[:c]) >= PREFIXES)
        shape, block = dims[cut:split] + (-1,), prod(dims[cut:])
        parts = [  # the phases of each prefix: its digits on targeted axes, 0 on the others
            phase[tuple(digit if size > 1 else 0 for digit, size in zip(digits, phase.shape))]
            for digits in np.ndindex(dims[:cut])
        ]

        def apply(src, dst):
            def work(s):
                for p in range(s.start // block, s.stop // block):
                    at = slice(p * block, (p + 1) * block)
                    np.multiply(src[at].reshape(shape), parts[p], out=dst[at].reshape(shape))

            _slabs(src.size, block, work)

        return GateKernel(DIAGONAL, apply, prod(dims))

    def apply(src, dst):
        np.multiply(src.reshape(view), phase, out=dst.reshape(view))

    return GateKernel(DIAGONAL, apply, prod(dims[lead:]))


def _at_digits(axes: int, wires, digits) -> tuple:
    """Index of the sub-array, of an array with `axes` axes, where each
    targeted axis holds its digit. The trailing Ellipsis keeps the result
    an array even when every axis is targeted."""
    index = [slice(None)] * axes
    for wire, digit in zip(wires, digits):
        index[wire] = int(digit)
    return (*index, Ellipsis)


def _permutation_kernel(dims, rows: np.ndarray, phases: np.ndarray, wires) -> GateKernel:
    """Send each target basis state `col` to its image `rows[col]`, times
    `phases[col]`: one gather over the trailing block that holds every
    target when that block is small, else one strided slice copy per target
    basis state. A row is that trailing block."""
    target_dims = tuple(dims[w] for w in wires)
    first = min(wires)
    block = prod(dims[first:])
    if block <= GATHER_MAX:
        # For every output position of the block, the position it comes from.
        digits = list(np.unravel_index(np.arange(block), dims[first:]))
        preimage = np.argsort(rows)[np.ravel_multi_index([digits[w - first] for w in wires], target_dims)]
        for w, digit in zip(wires, np.unravel_index(preimage, target_dims)):
            digits[w - first] = digit
        source = np.ravel_multi_index(digits, dims[first:])
        phase = None if (phases == 1).all() else phases[preimage]
        view = (-1, block)

        def apply(src, dst):
            out = dst.reshape(view)
            # mode="wrap" (indices are in range anyway): the default "raise"
            # buffers `out`, a hidden full-state copy.
            np.take(src.reshape(view), source, axis=1, out=out, mode="wrap")
            if phase is not None:
                np.multiply(out, phase, out=out)

        return GateKernel(PERMUTATION, apply, block)

    view = (-1,) + dims[first:]
    axes = [w - first + 1 for w in wires]
    moves = [
        (
            _at_digits(len(view), axes, np.unravel_index(row, target_dims)),
            _at_digits(len(view), axes, np.unravel_index(col, target_dims)),
            complex(phases[col]),
        )
        for col, row in enumerate(rows)
    ]

    def apply(src, dst):
        psi, out = src.reshape(view), dst.reshape(view)
        for to, frm, phase in moves:
            if phase == 1:
                out[to] = psi[frm]
            else:
                np.multiply(psi[frm], phase, out=out[to])

    return GateKernel(PERMUTATION, apply, block)


def _ascending_run(wires) -> bool:
    """True when the wires are adjacent and in ascending order."""
    return list(wires) == list(range(wires[0], wires[0] + len(wires)))


def _tile(count: int, cost: int) -> int:
    """GEMM rows (or columns) per tile when each costs `cost` of m*n*k: the
    most that stay under GEMM_MAX, fewer when that would leave a last tile
    of one, which numpy would run as a gemv."""
    most = (GEMM_MAX - 1) // cost
    return next((t for t in range(most, 1, -1) if count % t != 1), most)


def _gemm(src: np.ndarray, matrix: np.ndarray, dst: np.ndarray) -> None:
    """dst = src @ matrix on rows of len(matrix) amplitudes. On a register of
    at least SPLIT_MIN amplitudes a GEMM of m*n*k >= GEMM_MAX runs as tiles
    of `_tile` rows from the first amplitude, split at whole tiles, the last
    slab taking the part tile left over."""
    k = len(matrix)
    rows = src.size // k
    if src.size < SPLIT_MIN or rows * k * k < GEMM_MAX or (tile := _tile(rows, k * k)) < 2:
        np.matmul(src.reshape(-1, k), matrix, out=dst.reshape(-1, k))
        return

    def work(s):
        end = s.stop - (s.stop - s.start) % (tile * k)
        np.matmul(src[s.start:end].reshape(-1, tile, k), matrix, out=dst[s.start:end].reshape(-1, tile, k))
        if end < s.stop:
            np.matmul(src[end:s.stop].reshape(-1, k), matrix, out=dst[end:s.stop].reshape(-1, k))

    _slabs(src.size, tile * k, work)


def _dense_kernel(dims, matrix: np.ndarray, wires) -> GateKernel:
    """The module docstring's three dense paths; the permuted one runs its
    GEMM from `dst` back into `src`. The (L, D, R) matmul on rows whose GEMM
    stays under GEMM_MAX is split into row slabs; on a register of at least
    SPLIT_MIN amplitudes a larger one runs as (D, D) @ (D, C) tiles, C
    columns of one row at a time, and the folded and permuted GEMMs as row
    tiles (`_gemm`)."""
    whole = prod(dims)
    if not _ascending_run(wires):
        order = [a for a in range(len(dims)) if a not in wires] + list(wires)
        moved, inverse = tuple(dims[a] for a in order), tuple(np.argsort(order))
        gate_t = np.ascontiguousarray(matrix.T)

        def apply(src, dst):
            np.copyto(dst.reshape(moved), src.reshape(dims).transpose(order))
            _gemm(dst, gate_t, src)
            np.copyto(dst.reshape(dims), src.reshape(moved).transpose(inverse))

        return GateKernel(DENSE, apply, whole)
    row = prod(dims[wires[0]:])
    if row <= FOLD_MAX:
        folded = np.ascontiguousarray(np.kron(matrix, np.eye(row // len(matrix))).T)
        return GateKernel(DENSE, lambda src, dst: _gemm(src, folded, dst), whole)
    d, right = len(matrix), row // len(matrix)
    view = (-1, d, right)
    if whole >= SPLIT_MIN and d * d * right >= GEMM_MAX and (cols := _tile(right, d * d)) >= 2:
        per_row, tile = -(-right // cols), d * cols

        def apply(src, dst):
            a, b = src.reshape(view), dst.reshape(view)

            def work(s):
                for t in range(s.start // tile, s.stop // tile):
                    r, j = divmod(t, per_row)
                    c = slice(j * cols, (j + 1) * cols)
                    np.matmul(matrix, a[r, :, c], out=b[r, :, c])

            _slabs(len(a) * per_row * tile, tile, work)  # every tile counted as D*C amplitudes

        return GateKernel(DENSE, apply, whole)

    def apply(src, dst):
        np.matmul(matrix, src.reshape(view), out=dst.reshape(view))

    return GateKernel(DENSE, apply, row if row <= GATHER_MAX else whole)


def apply_gate(state: StateVector, matrix: np.ndarray, wires) -> StateVector:
    """Apply a unitary to the listed wires (any order, any positions)."""
    wires = tuple(int(w) for w in wires)
    if len(set(wires)) != len(wires):
        raise ValueError(f"repeated wire index in {wires}")
    for w in wires:
        if not 0 <= w < len(state.dims):
            raise ValueError(f"wire index {w} out of range for dims {state.dims}")
    matrix = np.asarray(matrix, dtype=complex)
    side = prod(state.dims[w] for w in wires)
    if matrix.shape != (side, side):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match target dims "
            f"{tuple(state.dims[w] for w in wires)}"
        )
    kernel, out = plan_gate(state.dims, matrix, wires), np.empty_like(state.amps)
    _apply(kernel, state.amps if kernel.kind != DENSE or _ascending_run(wires) else state.amps.copy(), out)
    return StateVector(state.dims, out)


def _draw(probs: np.ndarray, uniforms, out: np.ndarray | None = None):
    """Indices drawn from the distribution `probs` by the given uniforms in
    [0, 1), exactly as `Generator.choice(len(probs), p=probs)` draws from
    the uniform it takes from its stream. The checks on `probs` are
    choice's, made once per distribution however many uniforms there are.
    The CDF is built in `out` when given, a float array of len(probs)."""
    total = probs.sum()  # only the refusal reads it
    if not np.isfinite(total) or probs.min() < 0 or abs(total - 1.0) > PROBABILITY_SUM_TOL:
        raise ValueError(f"probabilities must be finite, non-negative and sum to 1, got sum {total}")
    cdf = np.cumsum(probs, out=out)
    cdf /= cdf[-1]
    return cdf.searchsorted(uniforms, side="right")


def _pairwise(start: int, n: int, leaf: Callable[[int, int], float]) -> float:
    """numpy's pairwise sum of the n values from `start`, its tree cut at
    leaves of at most max(BORN_BLOCK, PAIRWISE_LEAF) values, which numpy
    sums from their first value as it sums a whole array: `leaf(start,
    stop)` gives a leaf's sum, leaves in order."""
    if n <= max(BORN_BLOCK, PAIRWISE_LEAF):
        return leaf(start, start + n)
    half = n // 2 - n // 2 % 8
    return _pairwise(start, half, leaf) + _pairwise(start + half, n - half, leaf)


def _born(amps: np.ndarray, spare: np.ndarray) -> tuple[np.ndarray, float]:
    """|amps|^2, written into the first float half of `spare`, a complex
    buffer of the same size, and its sum, bit for bit numpy's pairwise
    `probs.sum()`: each leaf of the summation tree is summed while abs and
    square left it in cache."""
    probs = spare.view(float)[:amps.size]
    leaves = []
    _pairwise(0, amps.size, lambda a, b: leaves.append((a, b)) or 0.0)

    def work(s):  # the leaves that start in the slab
        sums = []
        for a, b in leaves:
            if s.start <= a < s.stop:
                np.square(np.abs(amps[a:b], out=probs[a:b]), out=probs[a:b])
                sums.append(probs[a:b].sum())
        return sums

    sums = iter([x for part in _slabs(amps.size, 1, work) for x in part])
    return probs, _pairwise(0, amps.size, lambda a, b: next(sums))


def _sample(probs: np.ndarray, total: float, uniforms, scratch: np.ndarray) -> np.ndarray:
    """`_draw(probs / total, uniforms)`, bit for bit, where `total` is
    probs.sum() and `scratch` a float array as long as probs. Up to
    BORN_BLOCK values this is `_draw`. Above, probs is divided in slabs and
    accumulated into its CDF in place. cdf / cdf[-1] is monotone, so a
    uniform's index lies in the first block of BORN_BLOCK values whose
    normalised last value exceeds it: only that block is normalised, into
    `scratch`, and searched."""
    if probs.size <= BORN_BLOCK:
        np.divide(probs, total, out=probs)
        return _draw(probs, uniforms, out=scratch)
    if not 0 < total < np.inf:  # |psi|^2 >= 0, and a finite positive total sums p to 1
        raise ValueError(f"probabilities must be finite, non-negative and sum to 1, got sum {total}")
    _slabs(probs.size, 1, lambda s: np.divide(probs[s], total, out=probs[s]))
    cdf = np.cumsum(probs, out=probs)
    # The last value of every block but the last, normalised, after one block of room.
    ends = cdf[BORN_BLOCK - 1:-1:BORN_BLOCK]
    ends = np.divide(ends, cdf[-1], out=scratch[BORN_BLOCK:BORN_BLOCK + ends.size])
    uniforms = np.asarray(uniforms, dtype=float)
    blocks = ends.searchsorted(uniforms, side="right")
    index = np.empty(blocks.shape, dtype=np.intp)
    order = np.argsort(blocks, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(blocks[order])) + 1):
        start = int(blocks[group[0]]) * BORN_BLOCK
        block = cdf[start:start + BORN_BLOCK]
        block = np.divide(block, cdf[-1], out=scratch[:block.size])
        index[group] = start + block.searchsorted(uniforms[group], side="right")
    return index


def _measure_digit(src: np.ndarray, dst: np.ndarray, dims, wire: int, uniform: float) -> int:
    """Sample the wire's marginal of `src` with a uniform in [0, 1); write
    the collapsed, renormalized state into `dst`."""
    probs = _born(src, dst)[0].reshape(dims)
    other_axes = tuple(a for a in range(len(dims)) if a != wire)
    if other_axes:
        probs = probs.sum(axis=other_axes)
    probs = probs / probs.sum()  # out of place: `dst` is cleared below
    digit = int(_draw(probs, uniform))
    view, scale = (-1, dims[wire], prod(dims[wire + 1:])), np.sqrt(probs[digit])

    def collapse(s):
        out = dst[s].reshape(view)
        out.fill(0)
        np.divide(src[s].reshape(view)[:, digit], scale, out=out[:, digit])

    _slabs(dst.size, prod(dims[wire:]), collapse)
    return digit


def _fits(dims, kind: str, wires) -> bool:
    """Whether a run of `kind` ops over the union `wires` may be one kernel:
    diagonal phases over at most GATHER_MAX amplitudes, or a permutation
    whose trailing block from the first wire keeps it on the gather path."""
    if kind == DIAGONAL:
        return prod(dims[w] for w in wires) <= GATHER_MAX
    return kind == PERMUTATION and prod(dims[min(wires):]) <= GATHER_MAX


def _fuse(dims, kind: str, ops) -> GateKernel:
    """One kernel for a run of (wires, data) ops of one class, in program
    order. Diagonals multiply as phase tensors over the union of their
    wires; permutations compose as an image map with phases over it. Both
    are O(union) per op."""
    if len(ops) == 1:
        return _kernel(dims, kind, ops[0][1], ops[0][0])
    union = sorted({w for wires, _ in ops for w in wires})
    shape = [dims[w] for w in union]
    if kind == DIAGONAL:
        phases = np.ones(shape, dtype=complex)
        for wires, diagonal in ops:
            tensor = diagonal.reshape([dims[w] for w in wires]).transpose(np.argsort(wires))
            phases *= tensor.reshape([dims[w] if w in wires else 1 for w in union])
        return _diagonal_kernel(dims, phases.reshape(-1), union)
    digits = np.unravel_index(np.arange(prod(shape)), shape)
    images, phases = np.arange(prod(shape)), np.ones(prod(shape), dtype=complex)
    for wires, (rows, gate_phases) in ops:
        axes, target_dims = [union.index(w) for w in wires], [dims[w] for w in wires]
        target = np.ravel_multi_index([digits[a] for a in axes], target_dims)
        moved = list(digits)
        for a, digit in zip(axes, np.unravel_index(rows[target], target_dims)):
            moved[a] = digit
        # Basis state j has gone to images[j]; this op sends that on.
        phases = phases * gate_phases[target[images]]
        images = np.ravel_multi_index(moved, shape)[images]
    return _permutation_kernel(dims, images, phases, union)


def _plan(circuit: Circuit, measure: bool = True, plans: dict | None = None):
    """Yield one step per run of ops in program order: a planned kernel, or
    a measurement's (wire index, key). A run is one op, or consecutive
    diagonal or permutation ops that `_fits` lets fuse; a measurement ends
    it. Measurements are left out unless `measure`. Only the open run is
    held. Given `plans`, runs of the same ops on the same wires share one
    kernel, kept in `plans`."""
    dims = circuit.dims
    kind, ops, keys, union = None, [], [], set()

    def close():
        if plans is None:
            return _fuse(dims, kind, ops)
        key = tuple(keys)
        if key not in plans:
            plans[key] = _fuse(dims, kind, ops)
        return plans[key]

    for op in circuit.ops:
        if isinstance(op, Measurement):
            if ops:
                yield close()
                ops, keys, union = [], [], set()
            if measure:
                yield circuit.wire_index(op.wire), op.key
            continue
        matrix, wires = resolve(op.spec), tuple(circuit.wire_index(w) for w in op.wires)
        op_kind, data = _structure(matrix)
        if ops and not (op_kind == kind and _fits(dims, kind, union | set(wires))):
            yield close()
            ops, keys, union = [], [], set()
        kind = op_kind
        ops.append((wires, data))
        union.update(wires)
        if plans is not None:
            keys.append((wires, matrix.tobytes()))
    if ops:
        yield close()


def _evolve(
    steps, repetitions: Iterable[Iterator[float]], dims, initial: StateVector | None, table: MeasurementTable
) -> np.ndarray:
    """For each repetition's iterator of uniforms, start from `initial`
    (|0...0> when None) and apply `steps` (reused, so a list when there are
    several) on the two state buffers; a measurement samples with the next
    uniform, records into `table` and collapses. Keeps the spare; returns
    the last state's buffer."""
    _check_fits(dims, 2)
    src, dst = _buffer(prod(dims)), _buffer(prod(dims))
    for uniforms in repetitions:
        if initial is None:
            _slabs(src.size, 1, lambda s: src[s].fill(0))
            src[0] = 1.0
        else:
            _slabs(src.size, 1, lambda s: np.copyto(src[s], initial.amps[s]))
        for step in steps:
            if isinstance(step, GateKernel):
                if step.kind == DIAGONAL:
                    _apply(step, src, src)  # elementwise, so it may run in place
                    continue
                _apply(step, src, dst)
            else:
                wire, key = step
                table.add(key, dims[wire], _measure_digit(src, dst, dims, wire, next(uniforms)))
            src, dst = dst, src
    _keep(dst)
    return src


def simulate(
    circuit: Circuit,
    initial: StateVector | None = None,
    seed: int | np.random.Generator | None = None,
    *,
    measure: bool = True,
) -> tuple[StateVector, MeasurementTable]:
    """Run ops in program order; measurements sample, record, and collapse.

    Returns the final state and the single-shot measurement record. `seed`
    only matters when the circuit measures; it may be an int or a Generator.
    With `measure=False` measurements are skipped: the state is the one the
    circuit's gates alone produce, and the record is empty.
    """
    dims = circuit.dims
    if initial is not None and initial.dims != dims:
        raise ValueError(f"initial state dims {initial.dims} do not match circuit dims {dims}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    table = MeasurementTable()
    return StateVector(dims, _evolve(_plan(circuit, measure), [iter(rng.random, None)], dims, initial, table)), table


def _measurements_are_terminal(circuit: Circuit) -> bool:
    """True when no gate follows a measurement on the same wire."""
    measured: set[str] = set()
    for op in circuit.ops:
        if isinstance(op, Measurement):
            measured.add(op.wire.name)
        elif any(w.name in measured for w in op.wires):
            return False
    return True


def run(circuit: Circuit, repetitions: int, seed: int | None = None) -> RunResult:
    """Sample the circuit's measurements over independent repetitions.

    Each repetition draws from its own SeedSequence child stream; `seed` is
    a non-negative integer. A repetition count whose uniforms and table
    would not fit in physical memory is refused with StateTooLargeError
    before anything is derived. When every measurement is terminal, the
    state is evolved once, the CDF of its joint distribution is built once,
    and one `searchsorted` places the first uniform of every repetition's
    stream: O(D + reps*log D) for D amplitudes. Otherwise the gates are
    planned once, identical gate ops sharing one plan, and each repetition
    replays them with mid-circuit collapse, its measurements taking its
    stream's uniforms in program order.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    measurements = [op for op in circuit.ops if isinstance(op, Measurement)]
    if not measurements:
        raise ValueError("circuit has no measurements to sample")
    if seed is None:
        seed = secrets.randbits(64)
    dims = circuit.dims
    terminal = _measurements_are_terminal(circuit)
    draws = 1 if terminal else len(measurements)
    # 8 B words per repetition: its uniforms, one table entry per
    # measurement, and (terminal path) its index with a digit per wire.
    check_memory(repetitions * (draws + len(measurements) + len(dims) + 1) * 8, _physical_memory(),
                 f"the draws and table of {repetitions} repetitions")
    uniforms = spawned_uniforms(seed, repetitions, draws)

    table = MeasurementTable()
    if terminal:
        amps = simulate(circuit, measure=False)[0].amps
        # |psi|^2, then its CDF, fills the first float half of the spare
        # buffer, and the sampler's scratch the second.
        spare = _buffer(amps.size)
        probs, total = _born(amps, spare)
        _keep(amps)
        index = _sample(probs, total, uniforms[:, 0], spare.view(float)[amps.size:])
        _keep(spare)
        digits = np.unravel_index(index, dims)
        for m in measurements:
            wire = circuit.wire_index(m.wire)
            table.extend(m.key, dims[wire], digits[wire])
    else:
        _keep(_evolve(list(_plan(circuit, plans={})), (iter(row.tolist()) for row in uniforms), dims, None, table))
    return RunResult(table=table, repetitions=repetitions, seed=seed)
