"""Circuit text format (.qdc), state and matrix pretty-printers.

Grammar, one statement per line, '#' starts a comment anywhere:

    dim <d>                set the ambient dimension
    qudit <name> [<d>]     pre-declare a wire (ambient dimension if omitted)
    <GATE> <name>...       apply a gate; GATE in {X, Z, H, S, U8, CNOT, CZ}
    <GATE>^<k> <name>...   integer gate power
    M <name> [<key>]       measure (default key "m_<name>")

A one-wire gate listed with several names fans out to each. Parsing feeds
the circuit builder, so dimension resolution matches `circuit.build`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, MEASURE, DECLARE, QuditRef, _Builder
from .gates import GateKind
from .simulator import StateVector

_GATE_TOKEN = re.compile(r"^([A-Z][A-Z0-9]*)(?:\^(-?\d+))?$")
_VALID_KINDS = {k.value for k in GateKind if k is not GateKind.CUSTOM}


class CircuitParseError(ValueError):
    """Parse or validation failure with a 1-based source location."""

    def __init__(self, message: str, line: int, column: int | None = None):
        self.line = line
        self.column = column
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True)
class DimStatement:
    value: int
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class QuditStatement:
    name: str
    dimension: int | None = None
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class GateStatement:
    kind: GateKind
    targets: tuple[str, ...]
    power: int = 1
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class MeasureStatement:
    name: str
    key: str | None = None
    line: int = field(default=0, compare=False)


Statement = DimStatement | QuditStatement | GateStatement | MeasureStatement


@dataclass(frozen=True)
class CircuitDocument:
    """Parsed statement list; `default_dimension` holds a leading `dim` line."""

    default_dimension: int | None = None
    statements: tuple[Statement, ...] = ()


def _tokens(raw: str) -> list[tuple[str, int]]:
    """(token, 1-based column) pairs of one line, comments stripped."""
    line = raw.split("#", 1)[0]
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]


def _parse_int(token: str, lineno: int, column: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise CircuitParseError(f"{what} must be an integer, got '{token}'", lineno, column)


def parse_document(text: str) -> CircuitDocument:
    statements: list[Statement] = []
    default_dimension = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokens(raw)
        if not tokens:
            continue
        head, head_col = tokens[0]
        args = tokens[1:]

        if head == "dim":
            if len(args) != 1:
                raise CircuitParseError("dim takes exactly one value", lineno, head_col)
            value = _parse_int(args[0][0], lineno, args[0][1], "dimension")
            if value < 2:
                raise CircuitParseError(f"dimension must be >= 2, got {value}", lineno, args[0][1])
            if default_dimension is None and not statements:
                default_dimension = value
            else:
                statements.append(DimStatement(value, line=lineno))
            continue

        if head == "qudit":
            if not 1 <= len(args) <= 2:
                raise CircuitParseError("qudit takes a name and optional dimension", lineno, head_col)
            dim = None
            if len(args) == 2:
                dim = _parse_int(args[1][0], lineno, args[1][1], "dimension")
                if dim < 2:
                    raise CircuitParseError(f"dimension must be >= 2, got {dim}", lineno, args[1][1])
            statements.append(QuditStatement(args[0][0], dim, line=lineno))
            continue

        if head == "M":
            if not 1 <= len(args) <= 2:
                raise CircuitParseError("M takes a name and optional key", lineno, head_col)
            key = args[1][0] if len(args) == 2 else None
            statements.append(MeasureStatement(args[0][0], key, line=lineno))
            continue

        match = _GATE_TOKEN.match(head)
        if not match or match.group(1) not in _VALID_KINDS:
            raise CircuitParseError(f"unknown gate name '{head}'", lineno, head_col)
        kind = GateKind(match.group(1))
        power = int(match.group(2)) if match.group(2) else 1
        if not args:
            raise CircuitParseError(f"{kind} needs at least one qudit name", lineno, head_col)
        names = tuple(tok for tok, _ in args)
        if kind in (GateKind.CNOT, GateKind.CZ) and len(names) != 2:
            raise CircuitParseError(
                f"{kind} takes exactly two qudit names, got {len(names)}", lineno, head_col
            )
        statements.append(GateStatement(kind, names, power, line=lineno))
    return CircuitDocument(default_dimension, tuple(statements))


def render_document(doc: CircuitDocument) -> str:
    """Canonical text for a document; parse(render(doc)) == doc."""
    lines = []
    if doc.default_dimension is not None:
        lines.append(f"dim {doc.default_dimension}")
    for st in doc.statements:
        if isinstance(st, DimStatement):
            lines.append(f"dim {st.value}")
        elif isinstance(st, QuditStatement):
            lines.append(f"qudit {st.name}" + (f" {st.dimension}" if st.dimension else ""))
        elif isinstance(st, MeasureStatement):
            lines.append(f"M {st.name}" + (f" {st.key}" if st.key else ""))
        else:
            head = st.kind.value if st.power == 1 else f"{st.kind.value}^{st.power}"
            lines.append(f"{head} " + " ".join(st.targets))
    return "\n".join(lines) + ("\n" if lines else "")


def _build_step(st: Statement):
    if isinstance(st, DimStatement):
        return st.value
    if isinstance(st, QuditStatement):
        return (DECLARE, st.name) if st.dimension is None else (st.dimension, DECLARE, st.name)
    if isinstance(st, MeasureStatement):
        return (MEASURE, st.name) if st.key is None else (MEASURE, st.name, st.key)
    return (st.kind, list(st.targets), st.power)


def parse_circuit(text: str) -> tuple[Circuit, dict[str, QuditRef], list[QuditRef]]:
    """Parse .qdc text into a circuit (plus name mapping and wire order).
    Validation failures are reported with the offending statement's line."""
    doc = parse_document(text)
    builder = _Builder()
    if doc.default_dimension is not None:
        builder.step(doc.default_dimension)
    for st in doc.statements:
        try:
            builder.step(_build_step(st))
        except ValueError as exc:
            raise CircuitParseError(str(exc), st.line) from exc
    return builder.result()


def format_state(state: StateVector, labels=None, threshold: float = 1e-6) -> str:
    """Ket listing of every amplitude at or above `threshold` in magnitude.

    Digits are the mixed-radix decomposition of each index; they are joined
    with commas when any wire dimension exceeds 10 (single digits otherwise).
    `labels`, when given, must name every wire; it documents the digit order.
    """
    if labels is not None and len(tuple(labels)) != len(state.dims):
        raise ValueError(
            f"{len(tuple(labels))} labels for {len(state.dims)} wires"
        )
    sep = "," if any(d > 10 for d in state.dims) else ""
    shape = state.dims if state.dims else (1,)
    lines = ["Final state vector:"]
    block = 1 << 16  # amplitudes screened at a time, so no state-sized temporary
    for start in range(0, state.amps.size, block):
        shown = start + np.flatnonzero(np.abs(state.amps[start:start + block]) >= threshold)
        for index, digits in zip(shown, np.column_stack(np.unravel_index(shown, shape)).tolist()):
            ket = sep.join(map(str, digits)) if state.dims else ""
            lines.append(f"|{ket}⟩: {complex_text(complex(state.amps[index]))}")
    return "\n".join(lines)


def complex_text(z: complex) -> str:
    """Parenthesized a+bj rendering at full double precision."""
    if z.real == 0 and z.imag != 0:
        bare = str(complex(z))  # Python prints pure-imaginary values without parens
        return f"(0{bare})" if bare.startswith("-") else f"(0+{bare})"
    return str(complex(z))


def format_matrix(m: np.ndarray, style: str = "float") -> str:
    """Grid text for a matrix or vector.

    Style 'int' prints bare integers for entries whose imaginary magnitude is
    below 1e-12, 'float' prints full complex values, 'str' prints each
    entry's own text form.
    """
    if style not in ("float", "int", "str"):
        raise ValueError(f"style must be 'float', 'int', or 'str', got '{style}'")
    m = np.asarray(m)

    def render(entry) -> str:
        if style == "str":
            return str(entry)
        z = complex(entry)
        if style == "int" and abs(z.imag) < 1e-12:
            return str(int(round(z.real)))
        return complex_text(z)

    return str(np.array([render(e) for e in m.reshape(-1)]).reshape(m.shape))
