import tracemalloc
from math import prod

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quditsim import (
    CircuitParseError,
    GateKind,
    MEASURE,
    StateVector,
    basis_state,
    build,
    format_matrix,
    format_state,
    ghz_circuit,
    h_matrix,
    parse_circuit,
    parse_document,
    render_document,
    simulate,
)
from quditsim.textio import (
    CircuitDocument,
    DimStatement,
    GateStatement,
    MeasureStatement,
    QuditStatement,
    complex_text,
)


# --- parsing ---


def test_parse_two_qutrit_file():
    circuit, names, order = parse_circuit("dim 3\nH q0\nCNOT q0 q1\nM q0\nM q1")
    expected, _, _ = build(
        3, ("H", "q0"), ("CNOT", ["q0", "q1"]), (MEASURE, "q0"), (MEASURE, "q1")
    )
    assert circuit == expected
    assert [q.name for q in order] == ["q0", "q1"]
    assert names["q0"].dimension == 3


def test_parse_reports_missing_dimension_with_line():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("H q0")
    assert err.value.line == 1
    assert "dimension" in str(err.value)


def test_parse_accepts_prime_u8_and_rejects_composite():
    circuit, _, _ = parse_circuit("dim 3\nU8 q0")
    assert circuit.ops[0].spec.kind is GateKind.U8
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("dim 4\nU8 q0")
    assert err.value.line == 2 and "prime" in str(err.value)


def test_parse_unknown_gate_has_location():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("dim 3\nFOO q0")
    assert err.value.line == 2 and err.value.column == 1


def test_parse_bad_arity():
    with pytest.raises(CircuitParseError, match="two qudit names"):
        parse_circuit("dim 3\nCNOT q0")


def test_parse_malformed_dim():
    with pytest.raises(CircuitParseError, match="integer"):
        parse_circuit("dim x")


def test_parse_comments_and_blank_lines():
    circuit, _, _ = parse_circuit("# header\n\ndim 3  # ambient\nH q0 # gate\n")
    assert len(circuit.ops) == 1


def test_parse_qudit_declaration_and_powers():
    circuit, names, _ = parse_circuit("dim 3\nqudit a 4\nqudit b\nZ^2 a\nH b")
    assert names["a"].dimension == 4 and names["b"].dimension == 3
    assert circuit.ops[0].spec.power == 2


def test_parse_measurement_key_and_collision():
    circuit, _, _ = parse_circuit("dim 3\nH q0\nM q0 shots")
    assert circuit.measurement_keys() == ["shots"]
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("dim 3\nH q0\nM q0 k\nM q0 k")
    assert err.value.line == 4


def test_parse_single_gate_fans_over_names():
    circuit, _, _ = parse_circuit("dim 3\nH q0 q1 q2")
    assert len(circuit.ops) == 3


# --- document round trip ---


_NAMES = st.sampled_from(["q0", "q1", "alpha", "w7"])


def _statements():
    dims = st.builds(DimStatement, st.integers(2, 9))
    qudits = st.builds(QuditStatement, _NAMES, st.one_of(st.none(), st.integers(2, 9)))
    measures = st.builds(MeasureStatement, _NAMES, st.one_of(st.none(), st.sampled_from(["k1", "out"])))
    single_gates = st.builds(
        GateStatement,
        st.sampled_from([GateKind.X, GateKind.Z, GateKind.H, GateKind.S, GateKind.U8]),
        st.lists(_NAMES, min_size=1, max_size=3).map(tuple),
        st.sampled_from([1, 1, 2, -1, 3]),
    )
    pair_gates = st.builds(
        GateStatement,
        st.sampled_from([GateKind.CNOT, GateKind.CZ]),
        st.lists(_NAMES, min_size=2, max_size=2, unique=True).map(tuple),
        st.sampled_from([1, 1, 2]),
    )
    return st.one_of(dims, qudits, measures, single_gates, pair_gates)


@st.composite
def _documents(draw):
    default = draw(st.one_of(st.none(), st.integers(2, 9)))
    statements = tuple(draw(st.lists(_statements(), max_size=8)))
    # Canonical form: a leading dim statement lives in default_dimension.
    if default is None and statements and isinstance(statements[0], DimStatement):
        default = statements[0].value
        statements = statements[1:]
    return CircuitDocument(default, statements)


@given(_documents())
def test_parse_render_round_trip(doc):
    assert parse_document(render_document(doc)) == doc


def test_round_trip_of_concrete_file():
    text = "dim 3\nqudit a 4\nZ^2 a\nH q0\nCNOT q0 q1\nM q0\nM q1 out\n"
    assert render_document(parse_document(text)) == text


# --- state formatting ---


def test_format_state_ghz_lines():
    final, _ = simulate(ghz_circuit(3, 3))
    text = format_state(final)
    lines = text.splitlines()
    assert lines[0] == "Final state vector:"
    assert [ln.split(":")[0] for ln in lines[1:]] == ["|000⟩", "|111⟩", "|222⟩"]
    assert "0.577350" in lines[1]


def test_format_state_uniform_two_qutrits():
    circuit, _, _ = build(3, ("H", "q0"), ("H", "q1"))
    final, _ = simulate(circuit)
    lines = format_state(final).splitlines()
    assert len(lines) == 10
    assert lines[1].startswith("|00⟩: (0.333333")
    assert lines[-1].startswith("|22⟩: (0.333333")


def test_format_state_zero_threshold_includes_zero_amplitude():
    lines = format_state(basis_state((2,), (0,)), threshold=0.0).splitlines()
    assert len(lines) == 3
    assert lines[2] == "|1⟩: 0j"


def test_format_state_line_count_tracks_threshold():
    final, _ = simulate(ghz_circuit(2, 4))
    assert len(format_state(final, threshold=0.6).splitlines()) == 1
    assert len(format_state(final, threshold=0.4).splitlines()) == 5


def test_format_state_commas_for_wide_dimensions():
    sv = basis_state((12, 3), (11, 2))
    assert "|11,2⟩" in format_state(sv)


def test_format_state_validates_labels():
    sv = basis_state((3, 3), (0, 0))
    assert "|00⟩" in format_state(sv, labels=["q0", "q1"])
    with pytest.raises(ValueError, match="labels"):
        format_state(sv, labels=["q0"])


def _format_state_decoding_every_index(state, threshold):
    # The implementation format_state replaced: an (n_wires x N) digit table
    # and a Python loop over all N amplitudes.
    sep = "," if any(d > 10 for d in state.dims) else ""
    shape = state.dims if state.dims else (1,)
    lines = ["Final state vector:"]
    digits = np.array(np.unravel_index(np.arange(state.amps.size), shape))
    for index, amp in enumerate(state.amps):
        if abs(amp) >= threshold:
            ket = sep.join(str(d) for d in digits[:, index]) if state.dims else ""
            lines.append(f"|{ket}⟩: {complex_text(complex(amp))}")
    return "\n".join(lines)


def test_format_state_matches_decoding_every_index():
    rng = np.random.default_rng(5)
    states = [StateVector((), np.ones(1)), StateVector((2,) * 17, np.eye(1, 1 << 17, (1 << 16) + 3).ravel())]
    for _ in range(150):
        dims = tuple(int(d) for d in rng.integers(2, 14, size=int(rng.integers(1, 4))))
        amps = rng.normal(size=prod(dims)) + 1j * rng.normal(size=prod(dims))
        amps[rng.random(amps.size) < 0.5] = 0
        amps[0] += 1  # never all zero
        states.append(StateVector(dims, amps / np.linalg.norm(amps)))
    for state in states:
        for threshold in (0.0, 1e-6, 0.3):
            assert format_state(state, threshold=threshold) == _format_state_decoding_every_index(state, threshold)


def test_format_state_of_a_large_sparse_state_allocates_less_than_one_state():
    amps = np.zeros(1 << 20, dtype=complex)
    amps[[0, -1]] = 2 ** -0.5
    state = StateVector((2,) * 20, amps)
    tracemalloc.start()
    try:
        text = format_state(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.splitlines()[1:] == ["|00000000000000000000⟩: (0.7071067811865476+0j)",
                                     "|11111111111111111111⟩: (0.7071067811865476+0j)"]
    assert peak < amps.nbytes


# --- matrix formatting ---


def test_format_matrix_int_style_matches_published_block():
    m = np.array([[1 + 0j, 0 + 0j], [0 + 0j, -1 + 0j]])
    assert format_matrix(m, "int") == "[['1' '0']\n ['0' '-1']]"


def test_format_matrix_identity_int():
    text = format_matrix(np.eye(3), "int")
    assert text.count("'1'") == 3 and text.count("'0'") == 6


def test_format_matrix_float_shows_sqrt_half():
    text = format_matrix(h_matrix(2), "float")
    assert "0.7071067811865475" in text
    assert "(-0.7071067811865475" in text or "-0.7071067811865475" in text


def test_format_matrix_int_keeps_complex_entries():
    text = format_matrix(np.array([[1j]]), "int")
    assert "1j" in text


def test_format_matrix_str_style():
    assert "'x'" in format_matrix(np.array([["x"]]), "str")


def test_format_matrix_rejects_unknown_style():
    with pytest.raises(ValueError, match="style"):
        format_matrix(np.eye(2), "hex")


def test_complex_text_always_parenthesizes_nonreal():
    assert complex_text(complex(1 / 3, 0)) == "(0.3333333333333333+0j)"
    assert complex_text(0.5j) == "(0+0.5j)"
    assert complex_text(complex(0, -0.5)) == "(0-0.5j)"
