import time
from itertools import product

import numpy as np
import pytest

from quditsim import gates
from quditsim.gates import gate_order
from quditsim import (
    GateKind,
    GateSpec,
    StateTooLargeError,
    cnot_matrix,
    custom,
    cz_matrix,
    h_matrix,
    is_unitary,
    kron,
    resolve,
    root_of_unity,
    s_matrix,
    single,
    two_qudit,
    u8_matrix,
    u8_phase_exponents,
    x_matrix,
    z_matrix,
)

DIMS = list(range(2, 13))
PRIMES = [2, 3, 5, 7, 11]


def matpow(m, k):
    return np.linalg.matrix_power(m, k)


def phase_times_pauli(m, d, tol=1e-10):
    """Brute-force search for (a, b, c) with m = omega_{2d}^c X^a Z^b."""
    x_powers = [matpow(x_matrix(d), a) for a in range(d)]
    z_powers = [matpow(z_matrix(d), b) for b in range(d)]
    for a, b, c in product(range(d), range(d), range(2 * d)):
        candidate = np.exp(2j * np.pi * c / (2 * d)) * x_powers[a] @ z_powers[b]
        if np.max(np.abs(candidate - m)) <= tol:
            return a, b, c
    return None


# --- X ---


def test_x_is_qubit_not_at_d2():
    np.testing.assert_allclose(x_matrix(2), [[0, 1], [1, 0]])


def test_x_wraps_around():
    state = np.zeros(3)
    state[2] = 1
    np.testing.assert_allclose(x_matrix(3) @ state, [1, 0, 0])


def test_x_fourth_power_is_identity_at_d4():
    x = x_matrix(4)
    np.testing.assert_allclose(x @ x @ x @ x, np.eye(4), atol=1e-12)
    for s in range(4):
        col = x[:, s]
        assert col[(s + 1) % 4] == 1


# --- Z ---


def test_z_is_qubit_phase_flip():
    np.testing.assert_allclose(z_matrix(2), np.diag([1, -1]), atol=1e-15)


def test_z_diagonal_of_roots():
    w = root_of_unity(3, 1)
    np.testing.assert_allclose(z_matrix(3), np.diag([1, w, w**2]), atol=1e-12)


def test_z_order_five():
    np.testing.assert_allclose(matpow(z_matrix(5), 5), np.eye(5), atol=1e-12)


# --- H ---


def test_h_is_qubit_hadamard():
    np.testing.assert_allclose(
        h_matrix(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15
    )


def test_two_h_gates_give_uniform_superposition():
    # Matches the printed two-qutrit uniform state to single precision.
    state = kron(h_matrix(3)[:, 0], h_matrix(3)[:, 0])
    np.testing.assert_allclose(state, np.full(9, 0.3333333), atol=1e-6)


def test_h_times_adjoint_is_identity():
    h = h_matrix(4)
    np.testing.assert_allclose(h @ h.conj().T, np.eye(4), atol=1e-12)


# --- S ---


def test_s_is_qubit_phase_gate():
    np.testing.assert_allclose(s_matrix(2), np.diag([1, 1j]), atol=1e-12)


def test_s_qutrit_diagonal():
    # Exponents s(s+1)/2 = 0, 1, 3; 3 = 0 mod 3.
    w = root_of_unity(3, 1)
    np.testing.assert_allclose(s_matrix(3), np.diag([1, w, 1]), atol=1e-12)


def test_s_order_d_for_odd_d():
    np.testing.assert_allclose(matpow(s_matrix(5), 5), np.eye(5), atol=1e-12)


# --- CZ / CNOT ---


def test_cz_is_qubit_cz():
    np.testing.assert_allclose(cz_matrix(2), np.diag([1, 1, 1, -1]), atol=1e-15)


def test_cz_phase_wraps_mod_d():
    m = cz_matrix(5)
    index = 2 * 5 + 3
    assert m[index, index] == pytest.approx(root_of_unity(5, 1), abs=1e-12)


def swap_wires(m, d):
    perm = [s * d + r for r in range(d) for s in range(d)]
    return m[np.ix_(perm, perm)]


@pytest.mark.parametrize("d", DIMS)
def test_cz_symmetric_under_wire_swap(d):
    m = cz_matrix(d)
    np.testing.assert_allclose(swap_wires(m, d), m, atol=1e-12)


@pytest.mark.parametrize("d", DIMS)
def test_cnot_not_symmetric_under_wire_swap(d):
    m = cnot_matrix(d)
    assert np.max(np.abs(swap_wires(m, d) - m)) > 0.5


def test_cnot_is_standard_at_d2():
    np.testing.assert_allclose(
        cnot_matrix(2),
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    )


def test_cnot_adds_control_into_target():
    state = np.zeros(16)
    state[1 * 4 + 3] = 1
    out = cnot_matrix(4) @ state
    assert out[1 * 4 + 0] == 1  # |1>|3> -> |1>|0>


@pytest.mark.parametrize("d", range(2, 8))
def test_cz_conjugated_by_fourier_gives_cnot(d):
    h = h_matrix(d)
    lhs = kron(np.eye(d), h.conj().T) @ cz_matrix(d) @ kron(np.eye(d), h)
    np.testing.assert_allclose(lhs, cnot_matrix(d), atol=1e-12)


# --- U8 ---


def test_u8_is_t_gate_at_d2():
    np.testing.assert_allclose(u8_matrix(2), np.diag([1, np.exp(1j * np.pi / 4)]), atol=1e-15)


def test_u8_rejects_composite_dimension():
    with pytest.raises(ValueError, match="prime"):
        u8_matrix(4)
    with pytest.raises(ValueError, match="prime"):
        u8_phase_exponents(9)


def test_u8_phase_table_is_pinned():
    assert u8_phase_exponents(2) == (8, (0, 1))
    assert u8_phase_exponents(3) == (9, (0, 1, 8))
    assert u8_phase_exponents(5) == (5, (0, 1, 3, 2, 4))
    assert u8_phase_exponents(7) == (7, (0, 6, 6, 1, 6, 1, 1))
    assert u8_phase_exponents(11) == (11, (0, 2, 5, 10, 7, 8, 3, 4, 1, 6, 9))


@pytest.mark.parametrize("d", PRIMES)
def test_u8_is_diagonal_and_unitary(d):
    u = u8_matrix(d)
    assert is_unitary(u, 1e-12)
    assert np.max(np.abs(u - np.diag(np.diag(u)))) == 0


@pytest.mark.parametrize("d", PRIMES)
def test_u8_conjugate_of_x_is_clifford(d):
    u = u8_matrix(d)
    c = u @ x_matrix(d) @ u.conj().T
    for p in (x_matrix(d), z_matrix(d)):
        assert phase_times_pauli(c @ p @ c.conj().T, d) is not None


# --- invariants across the gate set ---


@pytest.mark.parametrize("d", DIMS)
def test_all_builders_produce_unitaries(d):
    assert is_unitary(x_matrix(d), 1e-12)
    assert is_unitary(z_matrix(d), 1e-12)
    assert is_unitary(h_matrix(d), 1e-12)
    assert is_unitary(s_matrix(d), 1e-12)
    assert is_unitary(cz_matrix(d), 1e-12)
    assert is_unitary(cnot_matrix(d), 1e-12)


@pytest.mark.parametrize("d", DIMS)
def test_order_relations(d):
    np.testing.assert_allclose(matpow(x_matrix(d), d), np.eye(d), atol=1e-12)
    np.testing.assert_allclose(matpow(z_matrix(d), d), np.eye(d), atol=1e-12)
    np.testing.assert_allclose(matpow(h_matrix(d), 4), np.eye(d), atol=1e-12)
    s = s_matrix(d)
    if d % 2:
        np.testing.assert_allclose(matpow(s, d), np.eye(d), atol=1e-12)
    else:
        np.testing.assert_allclose(matpow(s, 2 * d), np.eye(d), atol=1e-12)


@pytest.mark.parametrize("d", DIMS)
def test_weyl_commutation(d):
    x, z = x_matrix(d), z_matrix(d)
    np.testing.assert_allclose(z @ x, root_of_unity(d, 1) * x @ z, atol=1e-12)


@pytest.mark.parametrize("d", range(2, 10))
def test_fourier_conjugation(d):
    h, x, z = h_matrix(d), x_matrix(d), z_matrix(d)
    np.testing.assert_allclose(h @ x @ h.conj().T, z, atol=1e-12)
    np.testing.assert_allclose(h @ z @ h.conj().T, matpow(x, d - 1), atol=1e-12)


# --- specs and resolve ---


def test_resolve_x_to_dimension_power_is_identity():
    np.testing.assert_allclose(resolve(single("X", 3, power=3)), np.eye(3), atol=1e-12)


def test_resolve_negative_power_is_adjoint():
    w = root_of_unity(4, 1)
    np.testing.assert_allclose(
        resolve(single("Z", 4, power=-1)),
        np.diag([1, w**-1, w**-2, w**-3]),
        atol=1e-12,
    )


def test_resolve_huge_power_is_exact_and_fast():
    start = time.perf_counter()
    m = resolve(single("Z", 5, power=100000))
    assert time.perf_counter() - start < 0.05
    assert np.array_equal(m, np.eye(5))
    assert np.array_equal(resolve(single("X", 7, power=-7 * 10**30 - 1)), resolve(single("X", 7, power=-1)))


def _spec(kind, d, power):
    if kind in ("CNOT", "CZ"):
        return two_qudit(kind, d, power=power)
    return single(kind, d, power=power)


@pytest.mark.parametrize(
    "kind, d",
    [(k, d) for k in ("X", "Z", "H", "S", "CNOT", "CZ") for d in (2, 3, 4, 5, 6)]
    + [("U8", d) for d in (2, 3, 5, 7)],
)
def test_resolve_equals_repeated_product(kind, d):
    base = resolve(_spec(kind, d, 1))
    order = gate_order(GateKind(kind), d)
    assert np.array_equal(resolve(_spec(kind, d, order)), np.eye(base.shape[0]))
    for k in range(-2 * order, 2 * order + 1):
        factor = base if k > 0 else base.conj().T
        expected = np.eye(base.shape[0], dtype=complex)
        for _ in range(abs(k)):
            expected = factor @ expected
        np.testing.assert_allclose(resolve(_spec(kind, d, k)), expected, rtol=0, atol=1e-12, err_msg=f"{kind}^{k}")


def test_resolve_custom_power_and_adjoint():
    rng = np.random.default_rng(4)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    spec = GateSpec(GateKind.CUSTOM, (3,), power=-5, custom_matrix=u)
    np.testing.assert_allclose(resolve(spec), matpow(u.conj().T, 5), atol=1e-12)
    assert np.array_equal(resolve(GateSpec(GateKind.CUSTOM, (3,), power=0, custom_matrix=u)), np.eye(3))


def test_resolve_custom_passes_through():
    np.testing.assert_allclose(resolve(custom(np.eye(2), (2,))), np.eye(2))


def test_resolve_rejects_non_unitary_custom():
    with pytest.raises(ValueError, match="unitary"):
        resolve(custom(np.ones((2, 2)), (2,)))


@pytest.mark.parametrize("kind", ["X", "Z", "H", "S"])
@pytest.mark.parametrize("d", DIMS)
def test_resolved_single_specs_are_unitary(kind, d):
    assert is_unitary(resolve(single(kind, d)), 1e-12)


@pytest.mark.parametrize("kind", ["CNOT", "CZ"])
@pytest.mark.parametrize("d", DIMS)
def test_resolved_two_wire_specs_are_unitary(kind, d):
    assert is_unitary(resolve(two_qudit(kind, d)), 1e-12)


@pytest.mark.parametrize("d", PRIMES)
def test_resolved_u8_specs_are_unitary(d):
    assert is_unitary(resolve(single("U8", d)), 1e-12)


def test_spec_rejects_wrong_arity():
    with pytest.raises(ValueError):
        GateSpec(GateKind.H, (3, 3))
    with pytest.raises(ValueError):
        GateSpec(GateKind.CNOT, (3,))


def test_spec_rejects_mixed_dims_for_two_wire_gates():
    with pytest.raises(ValueError):
        GateSpec(GateKind.CNOT, (3, 4))


def test_spec_rejects_composite_u8():
    with pytest.raises(ValueError, match="prime"):
        single("U8", 6)


def test_spec_rejects_tiny_dimension():
    with pytest.raises(ValueError):
        single("X", 1)


def test_resolve_refuses_a_matrix_over_physical_memory(monkeypatch):
    # Every gate below is a 100 x 100 complex matrix: 160,000 B.
    specs = [single("X", 100), single("H", 100, power=3), two_qudit("CZ", 10), custom(np.eye(100), (100,))]
    monkeypatch.setattr(gates, "_physical_memory", lambda: 160_000)
    assert all(resolve(spec).shape == (100, 100) for spec in specs)
    monkeypatch.setattr(gates, "_physical_memory", lambda: 159_999)
    for spec in specs:
        with pytest.raises(StateTooLargeError, match="100x100 matrix .* physical memory"):
            resolve(spec)
    monkeypatch.setattr(gates, "_physical_memory", lambda: None)  # unknown: no check
    assert resolve(specs[0]).shape == (100, 100)
