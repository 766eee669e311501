"""Dense complex linear algebra helpers shared by the whole package.

Roots of unity, Kronecker products, unitarity checks, and mixed-radix index
arithmetic over per-wire dimensions. Matrices are plain numpy complex arrays;
a "radix profile" is just a tuple of per-wire dimensions whose product equals
the length of any flat amplitude array it indexes. The memory check here
refuses a state or gate matrix that would not fit in physical memory
before anything allocates it.

`spawned_uniforms` derives the uniforms of every child stream of
`SeedSequence(seed).spawn(n)`, each feeding `Generator(PCG64(child))`, in
one vectorized pass and bit for bit. SeedSequence's hash and PCG64's
XSL-RR generator are fixed arithmetic that NumPy keeps stable (NEP 19), so
the per-child work needs no Python object per stream: every child shares
the parent's entropy pool and mixes in only its spawn-key word.
"""

from __future__ import annotations

import operator
import os
from functools import reduce
from math import prod

import numpy as np


# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier (pcg64.h).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64 = (1 << 32) - 1, (1 << 64) - 1
# Streams are derived this many at a time, which bounds the temporaries.
STREAM_BLOCK = 1 << 16


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


# Every constant is a numpy scalar of the array's width: numpy 1.x promotes
# uint64 combined with a Python int to float64.
def _u32(x: int) -> np.uint32:
    return np.uint32(x & _M32)


def _u64(x: int) -> np.uint64:
    return np.uint64(x & _M64)


def _hash_constants(init: int, mult: int, first: int, count: int) -> list[np.uint32]:
    """init * mult**j mod 2**32 for first <= j < first + count: SeedSequence's
    j-th hash of a word xors with constant j and multiplies by constant j+1."""
    return [_u32(init * pow(mult, j, 1 << 32)) for j in range(first, first + count)]


def _xorshift16(v: np.ndarray) -> np.ndarray:
    return v ^ (v >> np.uint32(16))


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of a * b, through 32-bit limbs."""
    lo32, shift = np.uint64(_M32), np.uint64(32)
    a0, a1 = a & lo32, a >> shift
    b0, b1 = _u64(b & _M32), _u64(b >> 32)
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> shift) + (p01 & lo32) + (p10 & lo32)
    return a1 * b1 + (p01 >> shift) + (p10 >> shift) + (mid >> shift)


def _add128(hi, lo, add_hi, add_lo):
    out_lo = lo + add_lo
    return hi + add_hi + (out_lo < lo).astype(np.uint64), out_lo


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One step of PCG64's LCG: state * _PCG_MULT + inc, mod 2**128."""
    m_hi, m_lo = _PCG_MULT >> 64, _PCG_MULT & _M64
    prod_hi = hi * _u64(m_lo) + lo * _u64(m_hi) + _mulhi64(lo, m_lo)
    return _add128(prod_hi, lo * _u64(m_lo), inc_hi, inc_lo)


def _pcg_output(hi, lo) -> np.ndarray:
    """PCG64's XSL-RR output: the state's two halves xored, rotated right
    by its top six bits."""
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    return (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))


def spawned_uniforms(seed, n: int, draws: int = 1) -> np.ndarray:
    """float64[n, draws]: row i holds the first `draws` values of
    `Generator(PCG64(child)).random()` for the i-th child of
    `SeedSequence(seed).spawn(n)`, bit for bit, without building any child.
    `seed` is a non-negative integer, Python or numpy."""
    seed, n, draws = operator.index(seed), operator.index(n), operator.index(draws)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if not 0 <= n <= 1 << 32 or draws < 0:
        raise ValueError(f"cannot derive {draws} draws of {n} streams (at most 2**32 streams)")
    pool = [int(w) for w in np.random.SeedSequence(seed).pool]
    # A child's entropy is the seed's words, padded to the pool size, then its
    # spawn-key word. Before that last word SeedSequence has hashed 4 pool
    # words, 12 in the all-pairs mix and 4 per seed word beyond the fourth.
    words = max(1, -(-seed.bit_length() // 32))
    k = 16 + _POOL_SIZE * max(0, words - _POOL_SIZE)
    hash_a = _hash_constants(_INIT_A, _MULT_A, k, _POOL_SIZE + 1)
    hash_b = _hash_constants(_INIT_B, _MULT_B, 0, 2 * _POOL_SIZE + 1)
    mixed_pool = [_u32(_MIX_MULT_L * word) for word in pool]
    out = np.empty((n, draws))
    for start in range(0, n, STREAM_BLOCK):
        key = np.arange(start, min(n, start + STREAM_BLOCK), dtype=np.uint32)
        # The pool each child ends with: every pool word mixed with the
        # hashed spawn-key word.
        mixer = []
        for j in range(_POOL_SIZE):
            hashed = _xorshift16((key ^ hash_a[j]) * hash_a[j + 1])
            mixer.append(_xorshift16(mixed_pool[j] - _u32(_MIX_MULT_R) * hashed))
        # generate_state(4, uint64): 8 hashed words, paired little-endian.
        state = [
            _xorshift16((mixer[t % _POOL_SIZE] ^ hash_b[t]) * hash_b[t + 1]).astype(np.uint64)
            for t in range(2 * _POOL_SIZE)
        ]
        seed_hi, seed_lo, seq_hi, seq_lo = (state[2 * q] | (state[2 * q + 1] << np.uint64(32)) for q in range(4))
        # PCG64's set_seed: state = 0, inc = initseq << 1 | 1, step,
        # state += initstate, step.
        inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
        inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
        hi, lo = _pcg_step(*_add128(inc_hi, inc_lo, seed_hi, seed_lo), inc_hi, inc_lo)
        for d in range(draws):
            hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
            out[start:start + key.size, d] = _pcg_output(hi, lo) >> np.uint64(11)
    out *= 2.0**-53
    return out
