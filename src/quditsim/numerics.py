"""Dense complex linear algebra helpers shared by the whole package.

Roots of unity, Kronecker products, unitarity checks, and mixed-radix index
arithmetic over per-wire dimensions. Matrices are plain numpy complex arrays;
a "radix profile" is just a tuple of per-wire dimensions whose product equals
the length of any flat amplitude array it indexes. The memory check here
refuses a state or gate matrix that would not fit in physical memory
before anything allocates it.
"""

from __future__ import annotations

import os
from functools import reduce
from math import prod

import numpy as np


class StateTooLargeError(ValueError):
    """A state or gate matrix would need more bytes than physical memory."""


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the OS does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def check_memory(need: int, cap: int | None, what: str) -> None:
    """Refuse, before allocating, `need` bytes for `what` when they exceed
    `cap`, the physical memory (None when unknown, which skips the check)."""
    if cap is not None and need > cap:
        raise StateTooLargeError(
            f"{what} would take {need / 2**30:.3g} GiB, more than the "
            f"{cap / 2**30:.3g} GiB of physical memory"
        )


def check_dims(dims) -> tuple[int, ...]:
    """Normalize a dimension profile to a tuple of ints, each >= 2."""
    out = tuple(int(d) for d in dims)
    for d in out:
        if d < 2:
            raise ValueError(f"every dimension must be >= 2, got {d}")
    return out


def root_of_unity(d: int, k: int) -> complex:
    """exp(2*pi*i*k/d). k is reduced mod d first so large exponents stay exact."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return complex(np.exp(2j * np.pi * (k % d) / d))


def kron(*factors: np.ndarray) -> np.ndarray:
    """Left-associated Kronecker product of matrices or vectors.

    A single factor is returned as-is (as an array). Row/column counts
    multiply across factors; 1-D inputs stay 1-D, matching column vectors.
    """
    if not factors:
        raise ValueError("kron requires at least one factor")
    return reduce(np.kron, (np.asarray(f) for f in factors))


def is_unitary(m: np.ndarray, tol: float = 1e-12) -> bool:
    """True iff max|m^dag m - I| <= tol. Raises on non-square input."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    gram = m.conj().T @ m
    return bool(np.max(np.abs(gram - np.eye(m.shape[0]))) <= tol)


def mixed_radix_encode(digits, dims) -> int:
    """Flat index of a most-significant-first digit sequence over dims."""
    dims = tuple(dims)
    digits = tuple(int(x) for x in digits)
    if len(digits) != len(dims):
        raise ValueError(f"expected {len(dims)} digits, got {len(digits)}")
    index = 0
    for digit, d in zip(digits, dims):
        if not 0 <= digit < d:
            raise ValueError(f"digit {digit} out of range for dimension {d}")
        index = index * d + digit
    return index


def mixed_radix_decode(index: int, dims) -> tuple[int, ...]:
    """Most-significant-first digits of a flat index over dims."""
    dims = tuple(dims)
    total = prod(dims)
    if not 0 <= index < total:
        raise ValueError(f"index {index} out of range for dims {dims}")
    digits = [0] * len(dims)
    for i in range(len(dims) - 1, -1, -1):
        index, digits[i] = divmod(index, dims[i])
    return tuple(digits)
