"""Machine record: core count, last-level cache, copy bandwidth, numpy build
and BLAS threads. Only the calling process is measured; nothing is tuned."""

from __future__ import annotations

import ctypes
import os
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

MiB = 1 << 20


def _command_output(*argv: str) -> str:
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout if done.returncode == 0 else ""


def llc_bytes() -> int | None:
    """Size of the last-level (L3) cache, from getconf, else lscpu."""
    out = _command_output("getconf", "LEVEL3_CACHE_SIZE").strip()
    if out.isdigit() and int(out) > 0:
        return int(out)
    for line in _command_output("lscpu", "-B").splitlines():
        name, _, value = line.partition(":")
        if name.strip() == "L3 cache":
            digits = value.split()[0] if value.split() else ""
            if digits.isdigit():
                return int(digits)
    return None


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it has one."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def copy_gbps(nbytes: int) -> float:
    """Median bandwidth of five `np.copyto` calls between two `nbytes`
    arrays, counting the bytes read and written."""
    src = np.ones(nbytes // 8)
    dst = np.zeros_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - start)
    return 2 * src.nbytes / statistics.median(times) / 1e9


def record() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": llc_bytes(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
    }
