"""A scoped OpenBLAS thread count.

NumPy and SciPy each map their own OpenBLAS into the process, and each
starts a thread pool sized to the machine. :func:`one_thread` sets every
OpenBLAS mapped into the process to one thread while its block runs and
then restores each library's previous count, on return and on an
exception alike. The count is process-wide: while the block runs, BLAS
calls from other Python threads run on one thread too. Without
``/proc/self/maps``, or without an OpenBLAS that exports a thread-count
pair, it does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple

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


def thread_counts() -> dict[str, int]:
    """The current thread count of each controlled OpenBLAS, by path."""
    return {c.path: c.get() for c in controls()}


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
