"""Circuit IR over named, individually-dimensioned qudits.

A circuit is an insertion-ordered registry of wires plus an ordered op list.
Wire order fixes the statevector index order: the first-registered qudit is
the most significant mixed-radix digit, so printed kets read |q0 q1 ...>.
Includes the step-based builder, greedy moment packing, the ASCII diagram
renderer, and a dense full-space unitary used as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Iterable, Union

import numpy as np

from .gates import GateKind, GateSpec, TWO_QUDIT_KINDS, resolve

#: Builder step token marking a measurement, e.g. (MEASURE, "q0").
MEASURE = "M"
#: Builder step token pre-declaring a wire, e.g. (DECLARE, "q2", 4).
DECLARE = "qudit"


@dataclass(frozen=True)
class QuditRef:
    """A named wire with a fixed dimension. The ordinal is the wire's
    insertion index within its circuit; refs compare by name and dimension."""

    name: str
    dimension: int
    ordinal: int = field(default=-1, compare=False)

    def __post_init__(self):
        if not self.name:
            raise ValueError("qudit name must be non-empty")
        if self.dimension < 2:
            raise ValueError(f"qudit dimension must be >= 2, got {self.dimension}")


@dataclass(frozen=True)
class GateApplication:
    spec: GateSpec
    wires: tuple[QuditRef, ...]

    def __post_init__(self):
        object.__setattr__(self, "wires", tuple(self.wires))
        if len(self.wires) != self.spec.arity:
            raise ValueError(
                f"{self.spec.kind} takes {self.spec.arity} wire(s), got {len(self.wires)}"
            )
        names = [w.name for w in self.wires]
        if len(set(names)) != len(names):
            raise ValueError(f"repeated wire in gate application: {names}")
        for wire, d in zip(self.wires, self.spec.dims):
            if wire.dimension != d:
                raise ValueError(
                    f"gate dimension {d} does not match qudit '{wire.name}' "
                    f"dimension {wire.dimension}"
                )


@dataclass(frozen=True)
class Measurement:
    wire: QuditRef
    key: str


CircuitOp = Union[GateApplication, Measurement]


def _op_wires(op: CircuitOp) -> tuple[QuditRef, ...]:
    return op.wires if isinstance(op, GateApplication) else (op.wire,)


class Circuit:
    """Ordered gate applications and measurements over a wire registry."""

    def __init__(self):
        self._registry: dict[str, QuditRef] = {}
        self.ops: list[CircuitOp] = []
        self._keys: set[str] = set()  # measurement keys, so append checks in O(1)

    @property
    def qudits(self) -> tuple[QuditRef, ...]:
        """Registered wires in insertion order, ordinals assigned."""
        return tuple(self._registry.values())

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(q.dimension for q in self._registry.values())

    def add_qudit(self, name: str, dimension: int) -> QuditRef:
        """Register a wire (or return the existing one if dimensions agree)."""
        return self._register(QuditRef(name, dimension))

    def _register(self, ref: QuditRef) -> QuditRef:
        known = self._registry.get(ref.name)
        if known is not None:
            if known.dimension != ref.dimension:
                raise ValueError(
                    f"qudit '{ref.name}' already has dimension {known.dimension}, "
                    f"cannot re-register at {ref.dimension}"
                )
            return known
        registered = QuditRef(ref.name, ref.dimension, ordinal=len(self._registry))
        self._registry[ref.name] = registered
        return registered

    def wire_index(self, ref: QuditRef) -> int:
        return self._registry[ref.name].ordinal

    def measurement_keys(self) -> list[str]:
        return [op.key for op in self.ops if isinstance(op, Measurement)]

    def append(self, op: CircuitOp) -> "Circuit":
        """Append an op, auto-registering any unknown wires at their declared
        dimension. Returns self for chaining."""
        for wire in _op_wires(op):
            self._register(wire)
        if isinstance(op, Measurement):
            if op.key in self._keys:
                raise ValueError(f"measurement key '{op.key}' already used")
            self._keys.add(op.key)
        self.ops.append(op)
        return self

    def apply(self, spec: GateSpec, *wires: QuditRef) -> "Circuit":
        return self.append(GateApplication(spec, wires))

    def measure(self, wire: QuditRef, key: str | None = None) -> "Circuit":
        return self.append(Measurement(wire, key if key is not None else f"m_{wire.name}"))

    def has_measurements(self) -> bool:
        return any(isinstance(op, Measurement) for op in self.ops)

    def extend(self, ops: Iterable[CircuitOp]) -> "Circuit":
        for op in ops:
            self.append(op)
        return self

    def __eq__(self, other):
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.qudits == other.qudits and self.ops == other.ops

    def __repr__(self):
        return f"Circuit(qudits={len(self._registry)}, ops={len(self.ops)})"

    def __str__(self):
        return render_diagram(self)


class _Builder:
    """Stepwise engine behind `build`; the text parser drives it directly so
    it can attach source locations to step failures."""

    def __init__(self):
        self.circuit = Circuit()
        self.ambient: int | None = None

    def _lookup(self, name: str, step_dim: int | None) -> QuditRef:
        known = self.circuit._registry.get(name)
        if known is not None:
            if step_dim is not None and step_dim != known.dimension:
                raise ValueError(
                    f"conflicting dimensions for qudit '{name}': "
                    f"{known.dimension} vs {step_dim}"
                )
            return known
        dim = step_dim if step_dim is not None else self.ambient
        if dim is None:
            raise ValueError(
                f"no dimension available for qudit '{name}': "
                "set an ambient dimension or give one in the step"
            )
        return self.circuit.add_qudit(name, dim)

    def step(self, step) -> None:
        if isinstance(step, int):
            if step < 2:
                raise ValueError(f"ambient dimension must be >= 2, got {step}")
            self.ambient = step
            return
        if not isinstance(step, tuple) or not step:
            raise ValueError(f"unrecognized builder step: {step!r}")

        parts = list(step)
        step_dim = None
        if isinstance(parts[0], int):
            step_dim = parts.pop(0)
            if step_dim < 2:
                raise ValueError(f"step dimension must be >= 2, got {step_dim}")
        if not parts:
            raise ValueError(f"unrecognized builder step: {step!r}")
        head = parts.pop(0)

        if head == DECLARE:
            if len(parts) != 1:
                raise ValueError(f"declare step takes one name: {step!r}")
            self._lookup(parts[0], step_dim)
            return

        if head == MEASURE:
            if not 1 <= len(parts) <= 2:
                raise ValueError(f"measure step takes a name and optional key: {step!r}")
            wire = self._lookup(parts[0], step_dim)
            key = parts[1] if len(parts) == 2 else None
            self.circuit.measure(wire, key)
            return

        kind = GateKind(head)
        power = 1
        if len(parts) == 2 and isinstance(parts[1], int):
            power = parts.pop()
        if len(parts) != 1:
            raise ValueError(f"unrecognized gate step: {step!r}")
        targets = parts[0]
        names = [targets] if isinstance(targets, str) else list(targets)

        if kind in TWO_QUDIT_KINDS:
            if len(names) != 2:
                raise ValueError(f"{kind} takes exactly two qudit names, got {names}")
            wires = tuple(self._lookup(n, step_dim) for n in names)
            spec = GateSpec(kind, (wires[0].dimension, wires[1].dimension), power=power)
            self.circuit.apply(spec, *wires)
        else:
            # A one-wire gate over several names fans out to each in turn.
            for n in names:
                wire = self._lookup(n, step_dim)
                self.circuit.apply(GateSpec(kind, (wire.dimension,), power=power), wire)

    def result(self) -> tuple[Circuit, dict[str, QuditRef], list[QuditRef]]:
        return self.circuit, dict(self.circuit._registry), list(self.circuit.qudits)


def build(*steps) -> tuple[Circuit, dict[str, QuditRef], list[QuditRef]]:
    """Assemble a circuit from declarative steps.

    Step forms:
      d                          set the ambient dimension (int)
      (kind, target)             gate at the ambient dimension
      (kind, [t1, t2, ...])      two-wire gate, or a one-wire gate fanned out
      (d, kind, targets)         gate with a per-step dimension for new wires
      (..., power)               trailing int raises the gate to that power
      (MEASURE, name[, key])     measure a wire (default key "m_<name>")
      (DECLARE, name[, d])       pre-register a wire without applying anything

    Per-step dimensions override the ambient default when registering new
    wires; already-registered wires keep their dimension, and an explicit
    per-step dimension that disagrees with it is an error.

    Returns the circuit, a name -> QuditRef mapping, and the wires in the
    order they were added.
    """
    builder = _Builder()
    for step in steps:
        builder.step(step)
    return builder.result()


def moments(circuit: Circuit) -> list[list[CircuitOp]]:
    """Greedy earliest-slot packing: each op lands in the first moment where
    all its wires are free. Ops within a moment are ordered by top wire."""
    next_free: dict[str, int] = {}
    cols: list[list[CircuitOp]] = []
    for op in circuit.ops:
        wires = _op_wires(op)
        slot = max((next_free.get(w.name, 0) for w in wires), default=0)
        while len(cols) <= slot:
            cols.append([])
        cols[slot].append(op)
        for w in wires:
            next_free[w.name] = slot + 1
    for col in cols:
        col.sort(key=lambda op: min(circuit.wire_index(w) for w in _op_wires(op)))
    return cols


def _glyphs(circuit: Circuit, op: CircuitOp) -> list[tuple[int, str]]:
    """(wire index, cell text) pairs for one op."""
    if isinstance(op, Measurement):
        return [(circuit.wire_index(op.wire), f"M('{op.key}')")]
    spec = op.spec

    def suffix(d: int) -> str:
        return f"(d={d})" if spec.power == 1 else f"^{spec.power}(d={d})"

    if spec.kind is GateKind.CNOT:
        control, target = (circuit.wire_index(w) for w in op.wires)
        return [(control, "C" + suffix(spec.dims[0])), (target, "X" + suffix(spec.dims[0]))]
    if spec.kind is GateKind.CZ:
        return [(circuit.wire_index(w), "C" + suffix(spec.dims[0])) for w in op.wires]
    name = spec.label or ("U" if spec.kind is GateKind.CUSTOM else spec.kind.value)
    return [(circuit.wire_index(w), name + suffix(w.dimension)) for w in op.wires]


def render_diagram(circuit: Circuit) -> str:
    """ASCII diagram: one row per wire in registry order, one column per
    moment. Cells are padded to column width with '-'; wire runs between
    cells are two dashes; connector lines carry '|' at the column center of
    any multi-wire gate spanning the adjacent rows."""
    qudits = circuit.qudits
    if not qudits:
        return ""
    cols = moments(circuit)

    labels = [f"{q.name} (d={q.dimension}): " for q in qudits]
    label_width = max(len(lab) for lab in labels)
    labels = [lab.ljust(label_width) for lab in labels]

    cells: dict[tuple[int, int], str] = {}
    spans: list[tuple[int, int, int]] = []  # (column, top wire, bottom wire)
    for col, ops in enumerate(cols):
        for op in ops:
            placed = _glyphs(circuit, op)
            for wire, text in placed:
                cells[(wire, col)] = text
            rows = [wire for wire, _ in placed]
            if len(rows) > 1:
                spans.append((col, min(rows), max(rows)))

    widths = [
        max((len(cells.get((w, col), "")) for w in range(len(qudits))), default=0)
        for col in range(len(cols))
    ]
    starts = []
    pos = label_width + 2
    for w in widths:
        starts.append(pos)
        pos += w + 2

    lines = []
    for r, label in enumerate(labels):
        row = label + "--"
        for col, width in enumerate(widths):
            row += cells.get((r, col), "").ljust(width, "-") + "--"
        lines.append(row)
        if r + 1 < len(labels):
            marks = sorted(
                starts[col] + (widths[col] - 1) // 2
                for col, top, bottom in spans
                if top <= r and bottom >= r + 1
            )
            if marks:
                connector = [" "] * (marks[-1] + 1)
                for m in marks:
                    connector[m] = "|"
                lines.append("".join(connector))
    return "\n".join(lines)


def _embed(matrix: np.ndarray, wires: tuple[int, ...], dims: tuple[int, ...]) -> np.ndarray:
    """Expand a k-wire gate matrix to the full space, honoring wire positions
    and mixed dimensions via explicit mixed-radix index permutation."""
    total = prod(dims)
    target_dims = tuple(dims[w] for w in wires)
    side = prod(target_dims)
    digit_rows = np.array(np.unravel_index(np.arange(total), dims))  # (n_wires, total)
    col_sub = np.ravel_multi_index(tuple(digit_rows[list(wires)]), target_dims)
    full = np.zeros((total, total), dtype=complex)
    cols = np.arange(total)
    for r in range(side):
        out_digits = digit_rows.copy()
        for axis, digit in zip(wires, np.unravel_index(r, target_dims)):
            out_digits[axis] = digit
        rows = np.ravel_multi_index(tuple(out_digits), dims)
        full[rows, cols] = matrix[r, col_sub]
    return full


def full_unitary(circuit: Circuit, cap: int = 4096) -> np.ndarray:
    """Dense product, in program order, of every op embedded into the full
    space. Rejects measurements and spaces larger than `cap` amplitudes."""
    dims = circuit.dims
    total = prod(dims)
    if total > cap:
        raise ValueError(f"full unitary over {total} amplitudes exceeds cap {cap}")
    u = np.eye(total, dtype=complex)
    for op in circuit.ops:
        if isinstance(op, Measurement):
            raise ValueError("full_unitary does not support measurements")
        wires = tuple(circuit.wire_index(w) for w in op.wires)
        u = _embed(resolve(op.spec), wires, dims) @ u
    return u


def ghz_circuit(n: int, d: int, measure: bool = False) -> Circuit:
    """Staircase preparing (1/sqrt(d)) * sum_j |j>^n: H on the first wire,
    then a CNOT from each wire to the next."""
    if n < 1:
        raise ValueError(f"need at least one qudit, got {n}")
    circuit = Circuit()
    wires = [circuit.add_qudit(f"q{i}", d) for i in range(n)]
    circuit.apply(GateSpec(GateKind.H, (d,)), wires[0])
    for i in range(1, n):
        circuit.apply(GateSpec(GateKind.CNOT, (d, d)), wires[i - 1], wires[i])
    if measure:
        for w in wires:
            circuit.measure(w)
    return circuit
