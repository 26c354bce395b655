"""One OpenBLAS thread per library call.

numpy's and scipy's wheels each bundle their own OpenBLAS, and each starts
one thread per core. The thread count changes how a blocked product or
factorisation splits its sums, so it changes the last bits of results, and
two pools on the same cores spin against each other. ``one_thread`` sets
every such pool already loaded in the process to one thread for the body
of a ``with`` statement, then restores the count it found, as
``pde._pinf_values`` does with numpy's ufunc buffer.

It loads no library: ``ctypes.CDLL`` with RTLD_NOLOAD fails unless the
library is already in the process, and loading scipy's would start its
threads. So a caller that will use scipy's BLAS imports scipy.linalg
before it enters. A library that is not found or lacks these symbols, as
in another BLAS build, is left alone.

Each library is looked up once per process: the ``<package>.libs``
directory is globbed the first time its package is loaded, and a pool's
(path, get, set) handles are kept once it is found. A library not yet
loaded is looked up again on the next call, so scipy's pool is found
once scipy.linalg has been imported, even after a call that missed it.

The thread count is a setting of the whole process. Each pool counts the
calls that pin it, under one lock, and the last of them to leave restores
the count the first one found, so nested calls, calls from several Python
threads and a pool first loaded inside an outer call all end with the
caller's count.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import threading

# Package, its bundled OpenBLAS in ``<package>.libs`` and the symbol suffix
# of that build (numpy's is the 64-bit integer interface).
_BUILDS = (("numpy", "libscipy_openblas64_*.so", "64_"),
           ("scipy", "libscipy_openblas-*.so", ""))
_lock = threading.Lock()
_pinned: dict = {}  # library path -> [calls pinning it, count found by the first]
_found: dict = {}  # library path -> its (path, get, set), once the pool is loaded


@functools.cache
def _library_paths(libs: str, pattern: str) -> tuple:
    """The bundled libraries in the directory ``libs``, globbed once."""
    import glob

    return tuple(glob.glob(os.path.join(libs, pattern)))


def _pool(path: str, suffix: str):
    """(path, get, set) of the library at ``path``, or None if it is not
    loaded or lacks the symbols."""
    import ctypes

    try:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
        put = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
    except (OSError, AttributeError):  # not loaded, or another build
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return path, get, put


def _loaded_pools():
    """(path, get, set) of the thread-count functions of each known
    OpenBLAS that is loaded in the process."""
    pools = []
    for package, pattern, suffix in _BUILDS:
        module = sys.modules.get(package)
        if getattr(module, "__file__", None) is None:
            continue
        site = os.path.dirname(os.path.dirname(module.__file__))
        for path in _library_paths(os.path.join(site, package + ".libs"), pattern):
            pool = _found.get(path) or _pool(path, suffix)
            if pool is not None:
                _found[path] = pool
                pools.append(pool)
    return pools


@contextlib.contextmanager
def one_thread():
    """Run the body with every loaded OpenBLAS pool on one thread."""
    entered = []
    try:
        with _lock:
            for path, get, put in _loaded_pools():
                entry = _pinned.setdefault(path, [0, 0])
                if entry[0] == 0:
                    entry[1] = get()
                    put(1)
                entry[0] += 1
                entered.append((path, put))
        yield
    finally:
        with _lock:
            for path, put in entered:
                entry = _pinned[path]
                entry[0] -= 1
                if entry[0] == 0:
                    put(entry[1])
