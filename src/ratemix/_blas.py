"""Scoped single-threaded OpenBLAS for the sampler's chains.

A chain's dense algebra is many small Cholesky factorizations and triangular
solves, for which OpenBLAS's hand-off to worker threads costs far more than
the arithmetic. `single_blas_thread` sets every OpenBLAS copy mapped into the
process to one thread for the duration of a block and restores the previous
counts on exit, as threadpoolctl does, with ctypes alone. It changes nothing
when the user chose a count through OPENBLAS_NUM_THREADS or OMP_NUM_THREADS,
and nothing when no loaded OpenBLAS exports a known setter (an MKL build, or
a platform without /proc/self/maps).
"""

from __future__ import annotations

import contextlib
import ctypes
import os

_MAPS = "/proc/self/maps"
# environment variables through which the user sets OpenBLAS's thread count
_USER_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# (setter, getter) names in the OpenBLAS copies bundled with numpy (64-bit
# indices) and with scipy
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


def _loaded_openblas():
    """(setter, getter) pairs of every OpenBLAS mapped into this process."""
    try:
        with open(_MAPS) as fh:
            lines = [line for line in fh if "openblas" in line]
    except OSError:
        return []
    # a maps line is "address perms offset dev inode path"
    paths = sorted({line.split(maxsplit=5)[-1].strip() for line in lines})
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                found.append((setter, getter))
                break
    return found


def _pinned_openblas():
    """The copies a chain sets to one thread: none when the user set a count."""
    if any(os.environ.get(name) for name in _USER_VARS):
        return []
    return _loaded_openblas()


@contextlib.contextmanager
def single_blas_thread():
    """Run the block with OpenBLAS on one thread; restore the counts on exit."""
    pinned = _pinned_openblas()
    saved = [getter() for _, getter in pinned]
    for setter, _ in pinned:
        setter(1)
    try:
        yield
    finally:
        for (setter, _), count in zip(pinned, saved):
            setter(count)


def chain_blas_threads():
    """OpenBLAS thread count a chain runs with, read back from the libraries
    inside `single_blas_thread`: the largest over the loaded copies, or None
    when no OpenBLAS is found."""
    with single_blas_thread():
        counts = [getter() for _, getter in _loaded_openblas()]
    return max(counts, default=None)
