"""OpenBLAS thread counts, and the product that runs next to LAPACK.

NumPy and SciPy each map their own OpenBLAS into the process, and each
starts a thread pool sized to the machine. :func:`one_thread` sets every
OpenBLAS mapped into the process to one thread while its block runs and
then restores each library's previous count, on return and on an
exception alike. The count is process-wide: while the block runs, BLAS
calls from other Python threads run on one thread too. Without
``/proc/self/maps``, or without an OpenBLAS that exports a thread-count
pair, it does nothing.

One pool next to LAPACK. LAPACK exists only on SciPy's OpenBLAS, so the
dense products around it run there too, through :func:`matmul`. After a
SciPy call returns, its idle worker spins for about 0.1 s (OpenBLAS's
thread timeout), and a threaded NumPy product issued in that window shares
the cores with it: on a 2-core host ``fitcore.fit_logistic_ova`` on the
``digits_ova`` design took 0.117 s alone and 0.173 s right after
``fitcore.pca_fit`` with NumPy's products, and 0.112-0.119 s alone, right
after it or 0.1-0.2 s later with SciPy's (medians of 27 calls,
``BENCH_23_one_pool.json``). ``fitcore.predict``'s ``expand(...) @ coef``
runs here for a PCA model, right after its ``pca_transform``: on NumPy's
pool, asleep by then, the 600-row ``digits_ova`` predict took 9.7-11.7 ms
where it had taken 3.4-4.0 ms; right after the fit it takes 3.0 ms here
against 6.7 ms there (medians of 30 calls, ``BENCH_24_direct_encode.json``).
A model without PCA runs no LAPACK before
its product, which follows the ingest and stays NumPy's: the benchmark's
bit-for-bit reload checks compare its rounding. The MLP training loop
(``mlp.train_mlp``) runs every product here too, on the default threads.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple

import numpy as np
from scipy.linalg.blas import dgemm

#: Lists the shared libraries mapped into this process (Linux).
MAPS = "/proc/self/maps"

#: (get, set) thread-count symbols; a library takes the first pair it exports.
SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


class ThreadControl(NamedTuple):
    """The thread-count getter and setter of one mapped OpenBLAS."""

    path: str
    get: Callable[[], int]
    set: Callable[[int], None]


def mapped_openblas() -> list[str]:
    """Paths of the OpenBLAS shared libraries mapped into this process;
    empty when the maps file cannot be read."""
    try:
        with open(MAPS, encoding="utf-8") as fh:
            return sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        return []


@functools.cache
def controls() -> tuple[ThreadControl, ...]:
    """The thread controls of every mapped OpenBLAS, found once per process.
    A library that cannot be loaded or exports no symbol pair is left out."""
    found = []
    for path in mapped_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        pair = next(((g, s) for g, s in SYMBOLS if hasattr(lib, g) and hasattr(lib, s)), None)
        if pair is None:
            continue
        get, set_ = getattr(lib, pair[0]), getattr(lib, pair[1])
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        found.append(ThreadControl(path, get, set_))
    return tuple(found)


# Entries from any thread share one pin: the first entry saves the counts and
# the last exit restores them, so overlapping blocks that do not exit in the
# reverse order of entry still leave the counts they found.
_lock = threading.Lock()
_depth = 0
_saved: tuple[int, ...] = ()


@contextmanager
def one_thread() -> Iterator[None]:
    """Run the block with every mapped OpenBLAS on one thread; restore each
    library's previous count when the last enclosing block exits."""
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = tuple(c.get() for c in controls())
            for c in controls():
                c.set(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for c, count in zip(controls(), _saved):
                    c.set(count)


def _fortran(m: np.ndarray) -> tuple[np.ndarray, int]:
    """m as a Fortran-ordered array and dgemm's transpose flag for it: m
    itself, or the Fortran view of a C-ordered m's transpose; a copy only
    when m is neither."""
    if m.flags.f_contiguous:
        return m, 0
    if not m.flags.c_contiguous:
        m = np.ascontiguousarray(m)
    return m.T, 1


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` of two 2-D float64 matrices, C-ordered, by SciPy's ``dgemm``.

    It forms ``(a @ b)' = b' a'`` column-major, which is ``a @ b``
    row-major, as NumPy does. A C- or Fortran-ordered operand is read in
    place, as itself or as its transpose under dgemm's transpose flag; any
    other operand is copied to C order first. A zero inner dimension gives
    exact zeros (BLAS with beta 0).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
    (x, tx), (y, ty) = _fortran(b.T), _fortran(a.T)
    return dgemm(1.0, x, y, trans_a=tx, trans_b=ty).T
