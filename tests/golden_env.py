"""The OpenBLAS state that the golden fixtures' bytes depend on.

A draw passes through LAPACK and BLAS, whose kernels round differently on
different CPUs, and, from m of about 50 on, differently with one OpenBLAS
thread and with more: the threaded code splits the work another way.  The
fixtures store the core names (:func:`fingerprint`), and their tests skip
where the core differs.  The thread count is not stored; the fixtures were
made with ``GOLDEN_THREADS`` threads, and a test that checks their bytes runs
inside :func:`golden_threads`, whatever the environment asked for.  The
library itself never sets a thread count.
"""

import contextlib
import ctypes

import numpy as np
import scipy

# OpenBLAS's default on the 2-CPU machine the draw fixtures were made on.
GOLDEN_THREADS = 2


def _openblas_libraries():
    """The OpenBLAS libraries loaded in this process (numpy's and scipy's
    each bring their own), loaded again through ctypes by path."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return []
    return [ctypes.CDLL(path) for path in paths]


def _function(lib, name):
    """lib's ``name`` under the symbol suffixes scipy-openblas builds use,
    or None."""
    for full in (f"scipy_{name}64_", f"scipy_{name}", f"{name}64_", name):
        fn = getattr(lib, full, None)
        if fn is not None:
            return fn
    return None


def openblas_cores():
    """The sorted core names of the OpenBLAS libraries loaded in this
    process, each read through ctypes from the library itself."""
    cores = set()
    for lib in _openblas_libraries():
        get_corename = _function(lib, "openblas_get_corename")
        if get_corename is not None:
            get_corename.restype = ctypes.c_char_p
            cores.add(get_corename().decode())
    return sorted(cores)


def fingerprint():
    return {"openblas_cores": openblas_cores(), "numpy": np.__version__,
            "scipy": scipy.__version__}


@contextlib.contextmanager
def golden_threads():
    """Run every loaded OpenBLAS with ``GOLDEN_THREADS`` threads inside the
    block, and restore each one's own count afterwards."""
    pins = []
    for lib in _openblas_libraries():
        get, put = _function(lib, "openblas_get_num_threads"), _function(lib, "openblas_set_num_threads")
        if get is not None and put is not None:
            pins.append((put, get()))
    try:
        for put, _ in pins:
            put(GOLDEN_THREADS)
        yield
    finally:
        for put, old in pins:
            put(old)
