"""Hostile `.qdc` text through `parse_circuit` and the CLI: every input ends
in exit code 0, 1 or 2 with a one-line error, never a traceback.

Physical memory is presented as 64 MiB while these run, so any register or
gate matrix above that is refused by the program's own preflight: the
largest state that may be allocated is two buffers of 2^21 amplitudes.
"""

import contextlib
import io
from datetime import timedelta
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from quditsim import CircuitParseError, gates, parse_circuit, simulator
from quditsim.cli import cli

MEMORY = 64 << 20

names = st.sampled_from(["q0", "q1", "q2", "a"])
hostile_dims = st.one_of(
    st.sampled_from([0, 1, -1, -7]),  # refused by the parser
    st.just(10**6),  # a gate on it needs a 16 TB matrix
    st.sampled_from([10**12, 10**15]),  # its state alone is refused
)


@st.composite
def dims(draw):
    """A small dimension, or one time in ten a hostile one."""
    return draw(hostile_dims) if draw(st.integers(0, 9)) == 7 else draw(st.integers(2, 5))


powers = st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30))
gate_names = st.sampled_from(["X", "Z", "H", "S", "U8", "CNOT", "CZ"] * 3 + ["Y", "x", "M^2", "CUSTOM"])
junk = st.text(alphabet="XZHMq01^-_ #\t,dimqudit", max_size=12)


@st.composite
def lines(draw):
    kind = draw(st.sampled_from(["gate"] * 6 + ["measure"] * 3 + ["dim", "qudit", "comment", "junk"]))
    if kind == "dim":
        return f"dim {draw(dims())}"
    if kind == "qudit":
        return f"qudit {draw(names)}" + draw(st.sampled_from(["", f" {draw(dims())}"]))
    if kind == "gate":
        head = draw(gate_names)
        if draw(st.booleans()):
            head += f"^{draw(powers)}"
        return " ".join([head, *draw(st.lists(names, min_size=1, max_size=2, unique=True))])
    if kind == "measure":
        return " ".join(["M", draw(names), *draw(st.lists(st.sampled_from(["k", "q0"]), max_size=1))])
    if kind == "comment":
        return "# " + draw(junk)
    return draw(junk)


@st.composite
def programs(draw):
    """Mostly well-formed text: an ambient dimension and some declared wires,
    then gates and measurements, with hostile values and junk mixed in."""
    head = [f"qudit {name} {draw(dims())}" for name in draw(st.lists(names, max_size=3, unique=True))]
    if draw(st.integers(0, 3)):
        head.insert(0, f"dim {draw(dims())}")
    return "\n".join(head + draw(st.lists(lines(), max_size=8))) + "\n"


commands = st.one_of(
    st.just(["diagram"]),
    st.tuples(st.just("simulate"), st.sampled_from([[], ["--initial", "0"], ["--initial", "01,x"]])).map(
        lambda t: [t[0], "--seed", "7", *t[1]]
    ),
    # 10**12 repetitions: their draws alone are refused before any is derived.
    st.one_of(st.integers(-1, 50), st.just(10**12)).map(lambda reps: ["run", "--reps", str(reps), "--seed", "7"]),
)


@pytest.fixture(scope="module")
def qdc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.qdc"


def _bounded_memory():
    stack = contextlib.ExitStack()
    for module in (simulator, gates):
        stack.enter_context(mock.patch.object(module, "_physical_memory", lambda: MEMORY))
    return stack


@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(text=programs())
def test_parse_circuit_accepts_or_refuses_with_a_located_error(text):
    try:
        parse_circuit(text)
    except CircuitParseError as exc:
        assert str(exc).startswith("line ")


@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(text=programs(), command=commands)
@example(text="", command=["simulate", "--seed", "7"])
@example(text="# only a comment\n\n", command=["run", "--reps", "5", "--seed", "7"])
@example(text="qudit q0 1000000000000\nM q0\n", command=["run", "--reps", "5", "--seed", "7"])
@example(text="qudit q0 1000000\nX q0\nM q0\n", command=["simulate", "--seed", "7"])
@example(text="dim 3\nH^-1000000000000000000000000000000 q0\nM q0\n", command=["run", "--reps", "50", "--seed", "7"])
@example(text="dim 3\nH q0\nM q0\n", command=["run", "--reps", str(10**12), "--seed", "7"])
@example(text="qudit q0 1000000000000\nqudit q1 2\nqudit q2 2\nM q0\nZ q1 q0\n", command=["run", "--reps", "1", "--seed", "7"])
def test_cli_exits_0_1_or_2_without_a_traceback(qdc_path, text, command):
    qdc_path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with _bounded_memory(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli([command[0], str(qdc_path), *command[1:]])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().startswith("error: ")
