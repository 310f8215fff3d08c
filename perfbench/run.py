"""polyscore benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload serve-bigcache --seed 1 --seconds 22 --trace 0

and every workload, end to end, in one command:

    for w in serve-bigcache rerank-longctx train-finetune; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 22 --trace 0; done

Run it from the root of a checkout; it imports polyscore from ./src. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. The lines before it are
a human-readable table and a JSON report with the environment, the input
properties, sample counts and the failure ratio with its base. Work files
and traces go to perfbench/out/.

BLAS is pinned to one thread through POLYSCORE_THREADS before numpy is
imported; the effective count is read back from numpy's bundled OpenBLAS and
the run refuses to report unless it is 1.
"""

from __future__ import annotations

import time

_START = time.perf_counter()  # setup_s counts from here

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# thread-count getters of numpy's bundled OpenBLAS, 64-bit-int build first
GET_THREADS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
               "openblas_get_num_threads64_", "openblas_get_num_threads")
GET_CONFIG = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
              "openblas_get_config64_", "openblas_get_config")


def pin_blas_threads() -> None:
    """Set the program's documented knob; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before BLAS threads could be pinned")
    for var in BLAS_THREAD_VARS:  # let POLYSCORE_THREADS decide, not a stray setting
        os.environ.pop(var, None)
    os.environ["POLYSCORE_THREADS"] = "1"


def _openblas():
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in GET_THREADS:
            if hasattr(lib, name):
                return lib, name
    raise RuntimeError(f"no bundled OpenBLAS with a thread-count getter under {libdir}")


def blas_environment() -> dict:
    """Effective BLAS thread count and the versions that go with each result."""
    import numpy as np

    lib, name = _openblas()
    get_threads = getattr(lib, name)
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    config = "unknown"
    for cname in GET_CONFIG:
        if hasattr(lib, cname):
            get_config = getattr(lib, cname)
            get_config.argtypes = []
            get_config.restype = ctypes.c_char_p
            config = get_config().decode()
            break
    return {
        "blas_threads": get_threads(),
        "openblas": config,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def _table(result: dict) -> str:
    return "\n".join(f"{name:<42} {m['value']:>16.6g} {m['unit']}"
                     for name, m in result["metrics"].items())


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (SRC / "polyscore" / "__init__.py").is_file():
        print(f"error: polyscore sources not found under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import polyscore  # noqa: F401  -- reads POLYSCORE_THREADS before numpy loads

    env = blas_environment()
    if env["blas_threads"] != 1:
        print(f"error: effective BLAS thread count is {env['blas_threads']}, not 1",
              file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START
    result, report = harness.run(WORKLOADS[args.workload], args.seed, args.seconds,
                                 bool(args.trace), import_s, HERE / "out", env)
    print(_table(result))
    for name, m in report.get("latency_p50", {}).items():
        print(f"{name:<42} {m['value']:>16.6g} {m['unit']} (reported, not gated)")
    for name, value in report.get("throughput_mean", {}).items():
        print(f"{name:<42} {value:>16.6g} 1/s (whole-run mean, reported, not gated)")
    fr = report["fail_ratio"]
    print(f"{'fail_ratio':<42} {fr['value']:>16.6g} {fr['unit']} "
          f"({fr['failed']} of {fr['attempted']} operations)")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
