"""Latency harness: per-query scoring time by architecture and candidate count.

Bi/Poly are timed against a prebuilt cache (cache build reported separately);
Cross timing includes the joint forwards of every candidate. Cross runs at large
candidate counts can be measured at a sub-count and linearly extrapolated;
extrapolated cells are always flagged, never silently mixed with measured
ones. All cells are timed round-robin, one query each in turn. The timed
region runs single-threaded Python with a monotonic clock,
and numpy's bundled OpenBLAS is pinned to one thread for it: on small GEMMs
extra BLAS threads cost more in hand-off than they save.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import platform
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import MALLOC
from .encoder import ModelConfig
from .errors import ConfigError, ContractError
from .heads import parse_arch
from .model import Model, Scorer
from .retrieval import build_cache, rank
from .text import Vocabulary


@dataclass
class BenchSpec:
    """What `polyscore bench` times; its settings table holds the defaults."""

    architectures: list[str]
    candidate_counts: list[int]
    n_queries: int
    warmup_queries: int
    context_tokens: int
    candidate_tokens: int
    extrapolate_cross_from: int | None = None
    top_k: int = 5
    seed: int = 0

    def __post_init__(self):
        for arch in self.architectures:
            parse_arch(arch)
        if any(c < 1 for c in self.candidate_counts):
            raise ConfigError("candidate counts must be positive")
        if self.n_queries < 1 or self.warmup_queries < 0:
            raise ConfigError("need n_queries >= 1 and warmup_queries >= 0")
        if self.extrapolate_cross_from is not None and self.extrapolate_cross_from < 1:
            raise ConfigError(f"extrapolate_cross_from must be >= 1, "
                              f"got {self.extrapolate_cross_from}")


@dataclass
class BenchCell:
    arch: str
    candidates: int
    n_queries: int
    mean_ms: float
    median_ms: float
    p95_ms: float
    min_ms: float
    max_ms: float
    extrapolated: bool
    cache_build_s: float | None


@dataclass
class BenchReport:
    cells: list[BenchCell]
    threads: int | None  # None: BLAS could not be reached, so the count is unknown
    precision: str


def _check_timer():
    resolution = time.get_clock_info("perf_counter").resolution
    if resolution > 1e-6:
        raise ContractError(
            f"perf_counter resolution {resolution}s is too coarse for ms-scale timing"
        )


def _openblas_thread_calls():
    """(get, set) thread-count functions of the OpenBLAS bundled with numpy,
    or None when numpy links a BLAS this cannot reach."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # the copy numpy already loaded
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            names = (f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
            if hasattr(lib, names[0]) and hasattr(lib, names[1]):
                get, put = (getattr(lib, n) for n in names)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def environment() -> dict:
    """Python and numpy versions, the thread count BLAS runs with (None: unknown)
    and the malloc thresholds fixed at import (None: glibc left alone)."""
    calls = _openblas_thread_calls()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": calls[0]() if calls else None, "malloc": MALLOC}


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with BLAS pinned to one thread, restoring the previous
    count afterwards. Yields the effective count read back from BLAS; where
    BLAS cannot be reached, nothing is pinned and None (unknown) is yielded."""
    calls = _openblas_thread_calls()
    if calls is None:
        yield None
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield get()
    finally:
        put(before)


def _stats(times_s: list[float], arch, count, extrapolated, cache_s) -> BenchCell:
    ms = np.asarray(times_s) * 1e3
    return BenchCell(
        arch=arch,
        candidates=count,
        n_queries=len(times_s),
        mean_ms=float(ms.mean()),
        median_ms=float(np.median(ms)),
        p95_ms=float(np.percentile(ms, 95)),
        min_ms=float(ms.min()),
        max_ms=float(ms.max()),
        extrapolated=extrapolated,
        cache_build_s=cache_s,
    )


def run_bench(spec: BenchSpec, models: dict[str, Model], vocab: Vocabulary,
              candidate_pool: list[str], queries: list[list[str]]) -> BenchReport:
    """Time every (architecture, candidate count) pair in the spec.

    The pairs are timed round-robin, query i of each pair in turn, so a slow
    spell of the machine lands on all of them alike, not on whichever ran then.
    Each round shuffles the pairs (seeded), else a pair always run right after
    the heaviest one would pay for the caches that one left cold.
    """
    _check_timer()
    if len(candidate_pool) < max(spec.candidate_counts, default=0):
        raise ContractError(
            f"candidate pool has {len(candidate_pool)} entries, "
            f"need {max(spec.candidate_counts)}"
        )
    with _one_blas_thread() as threads:
        runs = {}
        for arch in spec.architectures:
            scorer = Scorer(models[arch], vocab)
            for count in spec.candidate_counts:
                runs[arch, count] = _query_run(spec, arch, scorer, candidate_pool[:count])
        keys = list(runs)
        times = {key: [] for key in keys}
        order_rng = np.random.Generator(np.random.PCG64(spec.seed))
        for i in range(spec.warmup_queries + spec.n_queries):
            q = queries[i % len(queries)]
            order_rng.shuffle(keys)
            for key in keys:
                t0 = time.perf_counter()
                runs[key][0](q)
                times[key].append(time.perf_counter() - t0)
    cells = []
    for (arch, count), (_, sub, cache_s) in runs.items():
        measured = times[arch, count][spec.warmup_queries:]
        if sub < count:
            measured = [t * count / sub for t in measured]
        cells.append(_stats(measured, arch, count, sub < count, cache_s))
    return BenchReport(cells=cells, threads=threads, precision="float32")


def _query_run(spec: BenchSpec, arch: str, scorer: Scorer, cands: list[str]):
    """(query fn, candidates it scores, cache build seconds) for one cell.
    Cross scores a sub-count when extrapolating; bi/poly build their cache."""
    sub, cache_s = len(cands), None
    if parse_arch(arch)[0] == "cross":
        if spec.extrapolate_cross_from:
            sub = min(sub, spec.extrapolate_cross_from)
        pool = cands[:sub]
    else:
        t0 = time.perf_counter()
        pool = build_cache(cands, scorer)
        cache_s = time.perf_counter() - t0
    k = min(spec.top_k, sub)
    return (lambda q: rank(scorer, q, pool, k)), sub, cache_s


def make_bench_models(cfg: ModelConfig, architectures: list[str], seed: int,
                      dtype=np.float32) -> dict[str, Model]:
    """Random-init models per architecture; weights are shared-origin like a
    fine-tune start so towers are comparable across architectures. Like a
    loaded checkpoint, the models are inference-only: scoring records no tape."""
    rng = np.random.Generator(np.random.PCG64(seed))
    base = Model.init_pretrain(cfg, rng, dtype=dtype)
    models = {}
    for arch in architectures:
        kind, variant, m = parse_arch(arch)
        models[arch] = base.derive(kind, rng, poly_variant=variant, poly_m=m)
        for t in models[arch].named_parameters().values():
            t.requires_grad = False
    return models


def synthetic_texts(vocab: Vocabulary, n: int, tokens: int,
                    rng: np.random.Generator) -> list[str]:
    """n texts of `tokens` words each, drawn uniformly from vocab's non-special words."""
    words = [vocab.token_of(i) for i in range(4, len(vocab))]
    return [" ".join(words[int(t)] for t in rng.choice(len(words), size=tokens))
            for _ in range(n)]


# ---- rendering ----

def report_to_jsonl(report: BenchReport) -> str:
    lines = []
    for cell in report.cells:
        row = {**asdict(cell), "threads": report.threads, "precision": report.precision}
        lines.append(json.dumps(row, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def report_table(report: BenchReport) -> str:
    header = f"{'arch':<12} {'C':>8} {'mean ms':>12} {'median ms':>12} {'p95 ms':>12} {'flags':>14}"
    lines = [header, "-" * len(header)]
    for cell in report.cells:
        flags = []
        if cell.extrapolated:
            flags.append("extrapolated")
        if cell.cache_build_s is not None:
            flags.append(f"cache {cell.cache_build_s:.2f}s")
        lines.append(
            f"{cell.arch:<12} {cell.candidates:>8} {cell.mean_ms:>12.3f} "
            f"{cell.median_ms:>12.3f} {cell.p95_ms:>12.3f} {' '.join(flags):>14}"
        )
    lines.append(f"threads={report.threads} precision={report.precision}")
    return "\n".join(lines)
