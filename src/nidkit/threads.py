"""The thread plan: the CPUs a process may use and numpy's BLAS threads.

A process gets a CPU budget: the CPUs it may run on, shared out among the
grid workers that run beside it (``plan`` sets it in each worker).
:func:`each` is the one way work fans out over that many threads: the row
blocks of a CNN or FT-transformer forward (:func:`nidkit.nn.rowwise`), the
views of a training step and the sweeps of their sub-tapes
(:func:`nidkit.tensor.branches`). The calling thread takes indices too.
numpy's OpenBLAS thread count is read and set through ``ctypes``; with no
OpenBLAS that exports the calls, the budget is 1 and every forward and
every view runs on the calling thread. ``cpus`` is the budget without that
gate, for work that runs no BLAS: ``data.load_csv`` cuts a large CSV into
one byte range per CPU. Both settings are process-wide, as the BLAS thread
count itself is, and so is the one malloc arena that row and view threads
share under glibc.
"""

from __future__ import annotations

import ctypes
import glob
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

# (get, set) symbol pairs: the OpenBLAS that numpy 2 wheels bundle, the one
# numpy 1.x wheels bundle, and an OpenBLAS under its own names
_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"))


@lru_cache(maxsize=None)
def _openblas_calls():
    """The (get, set) thread-count functions of the OpenBLAS numpy loaded,
    or None. Opening a library numpy already loaded returns its handle."""
    root = os.path.dirname(np.__file__)
    paths = (glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))
             + glob.glob(os.path.join(root, ".dylibs", "*openblas*")))
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


_planned: Optional[int] = None      # set by ``plan``; None means every usable CPU


def cpus() -> int:
    """CPUs this process may keep busy: the plan's share, else every
    usable CPU. Work that runs no BLAS, such as CSV parsing, uses this."""
    return usable_cpus() if _planned is None else _planned


def budget() -> int:
    """Threads a row-threaded forward may use in this process."""
    if _openblas_calls() is None:
        return 1
    return cpus()


def blas_threads() -> Optional[int]:
    """numpy's OpenBLAS thread count in force; None without the control."""
    calls = _openblas_calls()
    return calls[0]() if calls else None


def set_blas_threads(n: int) -> None:
    calls = _openblas_calls()
    if calls:
        calls[1](n)


@contextmanager
def blas_held(n: int):
    """Hold numpy's BLAS at ``n`` threads for the block, then restore it. A
    count already at ``n`` is not written, so a branch's hold inside the
    caller's sets nothing and cannot race another thread's."""
    before = blas_threads()
    if before not in (None, n):
        set_blas_threads(n)
    try:
        yield
    finally:
        if before not in (None, n):
            set_blas_threads(before)


# glibc's mallopt parameter for the most malloc arenas a process may have
_M_ARENA_MAX = -8


@lru_cache(maxsize=None)
def one_malloc_arena() -> None:
    """Have every thread allocate from glibc's main malloc arena.

    A thread that allocates otherwise gets an arena of its own, which
    glibc trims back whenever a block's arrays are freed; the next block
    faults the pages in again: about 160,000 minor faults per 2,244 FT rows
    scored right after training. Memory a thread's arena keeps is also lost
    to the main thread: the arrays a process pool's result thread unpickled
    for ``data.load_csv`` left 5 MB there, which raised the peak RSS of
    the preprocessing after it. Without glibc's ``mallopt`` nothing
    changes.
    """
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):    # no process-wide symbol table to open
        return
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(_M_ARENA_MAX, 1)


def each(fn: Callable, n: int) -> list:
    """``[fn(i) for i in range(n)]`` on up to :func:`budget` threads: the
    calling thread and a pool made for the call take the next index in
    turn. With a budget of 1 or one call, all run on the calling thread."""
    workers = min(budget(), n)
    if workers < 2:
        return [fn(i) for i in range(n)]
    one_malloc_arena()
    results = [None] * n
    todo = iter(range(n))          # each next() is atomic under the GIL

    def drain():
        for i in todo:
            results[i] = fn(i)

    with ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        drain()
        for helper in helpers:
            helper.result()
    return results


def share(workers: int) -> int:
    """The CPU budget of each of ``workers`` processes on this machine."""
    return max(1, usable_cpus() // workers)


def plan(cpus: int) -> None:
    """Give this process a budget of ``cpus``: its row threads and its BLAS
    threads. A grid runs it first in every worker process."""
    global _planned
    _planned = cpus
    set_blas_threads(cpus)
