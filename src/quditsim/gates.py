"""Unitary constructions for the generalized gate set at arbitrary dimension.

Single-qudit gates: the cyclic shift X, the phase gate Z, the Fourier gate H,
the quadratic phase gate S, and the diagonal third-level gate U8 (prime
dimensions only). Two-qudit gates: CNOT and CZ at uniform dimension. All
builders use the primitive root of unity omega_d = exp(2*pi*i/d); with this
convention H is the discrete Fourier transform and H X H^dag = Z holds.

Powers of built-in gates are reduced modulo the gate's order and built
exactly: phase exponents and index shifts are integers taken mod the order,
so no power drifts and every power costs as much as the base gate.
`resolve` refuses, before building it, a matrix larger than physical
memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import prod

import numpy as np

from .numerics import _physical_memory, check_memory, is_unitary

UNITARY_TOL = 1e-12


class GateKind(str, Enum):
    X = "X"
    Z = "Z"
    H = "H"
    S = "S"
    U8 = "U8"
    CNOT = "CNOT"
    CZ = "CZ"
    CUSTOM = "CUSTOM"

    def __str__(self) -> str:
        return self.value


TWO_QUDIT_KINDS = frozenset({GateKind.CNOT, GateKind.CZ})


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, int(n**0.5) + 1):
        if n % p == 0:
            return False
    return True


def _require_dim(d: int) -> None:
    if d < 2:
        raise ValueError(f"gate dimension must be >= 2, got {d}")


def _shift_power(d: int, k: int) -> np.ndarray:
    """X^k: |s> -> |s+k mod d>."""
    m = np.zeros((d, d), dtype=complex)
    s = np.arange(d)
    m[(s + k) % d, s] = 1.0
    return m


def _phase_power(denominator: int, exponents, k: int) -> np.ndarray:
    """diag(exp(2*pi*i * k*e / denominator)) with k*e reduced exactly first."""
    e = (np.asarray(exponents) * (k % denominator)) % denominator
    return np.diag(np.exp(2j * np.pi * e / denominator))


def _z_phases(d: int) -> tuple[int, np.ndarray]:
    return d, np.arange(d)


def _s_phases(d: int) -> tuple[int, np.ndarray]:
    s = np.arange(d)
    return 2 * d, (s * (s + d % 2)) % (2 * d)


def _cz_phases(d: int) -> tuple[int, np.ndarray]:
    r, s = np.divmod(np.arange(d * d), d)
    return d, (r * s) % d


def _cnot_power(d: int, k: int) -> np.ndarray:
    """CNOT^k: |r>|s> -> |r>|s + k*r mod d>."""
    m = np.zeros((d * d, d * d), dtype=complex)
    r, s = np.divmod(np.arange(d * d), d)
    m[r * d + (s + k * r) % d, r * d + s] = 1.0
    return m


def x_matrix(d: int) -> np.ndarray:
    """Cyclic shift |s> -> |s+1 mod d>."""
    _require_dim(d)
    return _shift_power(d, 1)


def z_matrix(d: int) -> np.ndarray:
    """Diagonal phase |s> -> omega^s |s>."""
    _require_dim(d)
    return _phase_power(*_z_phases(d), 1)


def h_matrix(d: int) -> np.ndarray:
    """Fourier gate: entry (j, s) = omega^(j*s) / sqrt(d)."""
    _require_dim(d)
    idx = np.arange(d)
    exponents = np.outer(idx, idx) % d
    return np.exp(2j * np.pi * exponents / d) / np.sqrt(d)


def s_matrix(d: int) -> np.ndarray:
    """Quadratic phase |s> -> exp(2*pi*i * s(s+p)/(2d)) |s>, p = d mod 2.

    For odd d the exponent s(s+1)/2 is an integer, so entries are d-th roots
    of unity and S^d = I; for even d the half-integer exponents make S^(2d) = I.
    """
    _require_dim(d)
    return _phase_power(*_s_phases(d), 1)


def cz_matrix(d: int) -> np.ndarray:
    """Diagonal two-qudit gate |r>|s> -> omega^(r*s) |r>|s>."""
    _require_dim(d)
    return _phase_power(*_cz_phases(d), 1)


def cnot_matrix(d: int) -> np.ndarray:
    """Permutation |r>|s> -> |r>|r+s mod d>; wire 0 controls, wire 1 is target."""
    _require_dim(d)
    return _cnot_power(d, 1)


def u8_phase_exponents(d: int) -> tuple[int, tuple[int, ...]]:
    """Phase table for the U8 gate: (denominator, exponents).

    Diagonal entry j of u8_matrix(d) is exp(2*pi*i * exponents[j] / denominator).
    The table is the package's pinned representative of the diagonal
    third-level-Clifford-hierarchy family:

      d = 2      -> denominator 8,  exponents (0, 1)        (the qubit T gate)
      d = 3      -> denominator 9,  exponents (0, 1, 8)
      prime d>=5 -> denominator d,  exponents 6^-1 * k^3 mod d

    For d >= 5 the cubic exponent polynomial makes U X U^dag a Clifford
    (its conjugation phases are quadratic in the basis index) while U itself
    stays outside the Clifford group; 6 is invertible mod every prime >= 5,
    which is why d = 2 and d = 3 need the enlarged denominators.
    """
    if not is_prime(d):
        raise ValueError(f"U8 requires a prime dimension, got d={d}")
    if d == 2:
        return 8, (0, 1)
    if d == 3:
        return 9, (0, 1, 8)
    inv6 = pow(6, -1, d)
    return d, tuple((inv6 * k**3) % d for k in range(d))


def u8_matrix(d: int) -> np.ndarray:
    """Diagonal non-Clifford gate at prime dimension; see u8_phase_exponents."""
    return _phase_power(*u8_phase_exponents(d), 1)


def _h_power(d: int, k: int) -> np.ndarray:
    """H^k for 0 <= k < 4: H^2 is the parity permutation |s> -> |-s mod d>,
    and H^3 = H^dag, which is conj(H) because H is symmetric."""
    if k == 0:
        return np.eye(d, dtype=complex)
    if k == 2:
        m = np.zeros((d, d), dtype=complex)
        s = np.arange(d)
        m[(-s) % d, s] = 1.0
        return m
    h = h_matrix(d)
    return h if k == 1 else h.conj()


def gate_order(kind: GateKind, d: int) -> int:
    """A period of the gate: kind^order = I. d for X, Z, CNOT and CZ; d (odd
    d) or 2d (even d) for S; the phase denominator for U8; 4 for H."""
    if kind is GateKind.H:
        return 4
    if kind is GateKind.S:
        return d if d % 2 else 2 * d
    if kind is GateKind.U8:
        return u8_phase_exponents(d)[0]
    return d


# kind -> (d, k) -> kind^k for 0 <= k < gate_order(kind, d), built exactly.
_POWERS = {
    GateKind.X: _shift_power,
    GateKind.Z: lambda d, k: _phase_power(*_z_phases(d), k),
    GateKind.H: _h_power,
    GateKind.S: lambda d, k: _phase_power(*_s_phases(d), k),
    GateKind.U8: lambda d, k: _phase_power(*u8_phase_exponents(d), k),
    GateKind.CNOT: _cnot_power,
    GateKind.CZ: lambda d, k: _phase_power(*_cz_phases(d), k),
}


@dataclass(frozen=True, eq=False)
class GateSpec:
    """A gate kind plus its per-wire dimensions, an integer power, and an
    optional diagram label. CUSTOM gates carry their matrix explicitly."""

    kind: GateKind
    dims: tuple[int, ...]
    power: int = 1
    label: str | None = None
    custom_matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "kind", GateKind(self.kind))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        for d in self.dims:
            _require_dim(d)
        if self.kind is GateKind.CUSTOM:
            if self.custom_matrix is None:
                raise ValueError("CUSTOM gate requires custom_matrix")
            m = np.asarray(self.custom_matrix, dtype=complex)
            side = prod(self.dims)
            if m.shape != (side, side):
                raise ValueError(
                    f"custom matrix shape {m.shape} does not match dims {self.dims}"
                )
            object.__setattr__(self, "custom_matrix", m)
            return
        if self.custom_matrix is not None:
            raise ValueError(f"custom_matrix is only valid for CUSTOM, not {self.kind}")
        arity = 2 if self.kind in TWO_QUDIT_KINDS else 1
        if len(self.dims) != arity:
            raise ValueError(
                f"{self.kind} acts on {arity} wire(s), got dims {self.dims}"
            )
        if arity == 2 and self.dims[0] != self.dims[1]:
            raise ValueError(
                f"{self.kind} requires equal wire dimensions, got {self.dims}"
            )
        if self.kind is GateKind.U8 and not is_prime(self.dims[0]):
            raise ValueError(f"U8 requires a prime dimension, got d={self.dims[0]}")

    @property
    def arity(self) -> int:
        return len(self.dims)

    def __eq__(self, other):
        if not isinstance(other, GateSpec):
            return NotImplemented
        if (self.kind, self.dims, self.power, self.label) != (
            other.kind,
            other.dims,
            other.power,
            other.label,
        ):
            return False
        if (self.custom_matrix is None) != (other.custom_matrix is None):
            return False
        return self.custom_matrix is None or np.array_equal(
            self.custom_matrix, other.custom_matrix
        )


def single(kind: GateKind | str, d: int, power: int = 1) -> GateSpec:
    """Spec for a one-wire gate at dimension d."""
    return GateSpec(GateKind(kind), (d,), power=power)


def two_qudit(kind: GateKind | str, d: int, power: int = 1) -> GateSpec:
    """Spec for a two-wire gate at uniform dimension d."""
    return GateSpec(GateKind(kind), (d, d), power=power)


def custom(matrix: np.ndarray, dims, label: str | None = None) -> GateSpec:
    """Spec wrapping an explicit unitary over the given wire dimensions."""
    return GateSpec(GateKind.CUSTOM, tuple(dims), label=label, custom_matrix=matrix)


def resolve(spec: GateSpec) -> np.ndarray:
    """Concrete unitary for a spec: the base matrix raised to spec.power,
    negative powers via the adjoint. Built-in kinds reduce the power modulo
    the gate's order and build the result exactly, so any power costs as
    much as the base gate; CUSTOM powers use repeated squaring. A matrix
    that would not fit in physical memory raises StateTooLargeError before
    it is built."""
    side = prod(spec.dims)
    check_memory(side * side * np.dtype(complex).itemsize, _physical_memory(),
                 f"the {side}x{side} matrix of {spec.kind}")
    power = spec.power
    if spec.kind is GateKind.CUSTOM:
        base = spec.custom_matrix
        if not is_unitary(base, UNITARY_TOL):
            raise ValueError("custom matrix is not unitary")
        if power < 0:
            base = base.conj().T
        return np.linalg.matrix_power(base, abs(power)).copy()
    d = spec.dims[0]
    out = _POWERS[spec.kind](d, abs(power) % gate_order(spec.kind, d))
    return out.conj().T if power < 0 else out
