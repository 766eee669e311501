"""Property tests of the structure-classified gate kernels.

Every gate kind at every power in [-2d, 2d], and CUSTOM diagonal, monomial
and dense matrices, on mixed dimensions 2-7 with wires in any order, must
match the dense embedding `_embed(matrix) @ amps`, leave the input state
untouched, and be planned into the kernel class its structure calls for.
Each property also runs with the size thresholds forced to their other
side, so the slice permutation, the (L, D, R) matmul and the per-axis
diagonal broadcast are exercised on small registers too.
"""

from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditsim import StateVector, apply_gate, full_unitary, simulate
from quditsim import simulator
from quditsim.circuit import _embed
from quditsim.gates import GateKind, GateSpec, is_prime, resolve
from quditsim.simulator import DENSE, DIAGONAL, PERMUTATION, plan_gate
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
