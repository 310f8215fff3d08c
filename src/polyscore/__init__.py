"""polyscore: desk-scale candidate-selection engine with Bi-, Cross- and
Poly-encoder scoring, training, candidate caching and latency benchmarking."""

import ctypes
import os

__version__ = "0.1.0"

# Cap math-library thread pools before numpy is first imported so the env
# var actually takes effect. Best effort: a prior numpy import wins.
_threads = os.environ.get("POLYSCORE_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)


def _fix_malloc_thresholds():
    """Fix glibc malloc's mmap threshold at 32 MiB (its 64-bit maximum) and its
    trim threshold at 256 MiB; returns what was applied, None if glibc is left
    alone. Left to itself, glibc raises the mmap threshold to the last freed
    mmapped chunk and trims the heap top above twice that, so a training step's
    tens of MB of temporaries go back to the OS and are faulted in again by the
    next step. Setting both values turns that adjustment off; a user who sets
    glibc's own variables keeps them."""
    if ("MALLOC_MMAP_THRESHOLD_" in os.environ or "MALLOC_TRIM_THRESHOLD_" in os.environ
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return None
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return None
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return None
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    wanted = (("mmap_threshold", -3, 32 << 20), ("trim_threshold", -1, 256 << 20))
    return {name: value for name, param, value in wanted if mallopt(param, value) == 1} or None


MALLOC = _fix_malloc_thresholds()  # the thresholds set at import, or None
