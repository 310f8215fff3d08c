"""In-memory spans and counts around the calls into each polyscore module.

`Tracer.install()` swaps the public functions listed in TARGETS for
wrappers, in every loaded polyscore module namespace that binds them (so the
`forward` that model.py imported from encoder.py is wrapped too), and
`uninstall()` puts the originals back. No file under src/ changes.

A span is [name, layer, start, end, parent, op]. `op` identifies the query,
training step or set-up stage the span belongs to, and `op_kinds[op]` is one
of "setup", "index", "query.<arch>" or "step.<loop>". A layer's self time is
the sum over its spans of the span's duration minus the time its child spans
cover. Work the tracer does for itself (walking the autodiff tape) runs in
spans of layer "trace", so it is subtracted from the enclosing span and
charged to no layer. Spans stay in memory until `write` dumps them once.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

import numpy as np
from polyscore import encoder, heads, losses, model, optim, retrieval, tensor, text, training

TRACE_LAYER = "trace"
CACHED_ARCHS = ("bi", "poly16", "poly64", "poly360")

# (layer, owner, attribute); the owner is a module or a class. `losses` is
# folded into the training layer.
TARGETS = (
    ("text", text, "encode_single"),
    ("text", text, "encode_pair"),
    ("encoder", encoder, "forward"),
    ("heads", heads, "reduce_output"),
    ("heads", heads, "poly_context_vectors"),
    ("heads", heads, "cross_score"),
    ("model", model, "load_checkpoint"),
    ("model", model, "save_checkpoint"),
    ("model", model.Scorer, "context_vector"),
    ("model", model.Scorer, "candidate_vector"),
    ("model", model.Scorer, "poly_vectors"),
    ("model", model.Scorer, "score_cross"),
    ("retrieval", retrieval, "build_cache"),
    ("retrieval", retrieval, "save_cache"),
    ("retrieval", retrieval, "load_cache"),
    ("retrieval", retrieval, "rank_bi"),
    ("retrieval", retrieval, "rank_poly"),
    ("retrieval", retrieval, "rank_cross"),
    ("tensor", tensor, "backward"),
    ("optim", optim.Optimizer, "step"),
    ("training", training, "finetune_loop"),
    ("training", training, "pretrain_loop"),
    ("training", training, "bi_batch_loss"),
    ("training", training, "poly_batch_loss"),
    ("training", training, "cross_batch_loss"),
    ("training", training, "mlm_batch_loss"),
    ("training", training, "next_batch_loss"),
    ("training", losses, "cross_entropy_rows"),
    ("training", losses, "in_batch_loss"),
    ("training", losses, "external_neg_loss"),
    ("training", losses, "binary_choice_loss"),
    ("training", losses, "masked_token_loss"),
)

# each training loop calls exactly one of these per optimizer step
STEP_LOSSES = frozenset({
    "training.bi_batch_loss", "training.poly_batch_loss", "training.cross_batch_loss",
    "training.mlm_batch_loss", "training.next_batch_loss",
})
LOSS_SPANS = STEP_LOSSES | {
    "losses.cross_entropy_rows", "losses.in_batch_loss", "losses.external_neg_loss",
    "losses.binary_choice_loss", "losses.masked_token_loss",
}


def _span_name(owner, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


def tape_nodes(t) -> int:
    """Autodiff nodes reachable from `t` that record gradients (0 if none)."""
    if not t.requires_grad:
        return 0
    seen = {id(t)}
    work = [t]
    while work:
        for parent in work.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                work.append(parent)
    return len(seen)


class Tracer:
    """Spans, op ids and the counts the per-layer metrics need."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False  # ops are only counted while the wrappers are installed
        self.op = 0
        self.op_kinds = {0: "none"}
        self.encodes: list[tuple] = []  # (op, is_pair, args, kwargs, TokenizedPair)
        self.forwards: list[tuple] = []  # (op, TokenizedPair)
        self.tapes: list[tuple[int, int]] = []  # (op, reachable tape nodes)
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def begin_op(self, kind: str) -> None:
        if not self.active:
            return
        self.op += 1
        self.op_kinds[self.op] = kind

    # ---- recording ----

    def _open(self, name: str, layer: str) -> list:
        stack = self._stack
        span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, layer: str, before=None, after=None):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if before is not None:
                before(args)
            span = self._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapped

    def _count_tape(self, t) -> None:
        span = self._open("trace.tape_nodes", TRACE_LAYER)
        try:
            n = tape_nodes(t)
        finally:
            self._close(span)
        self.tapes.append((self.op, n))

    def _hooks(self, name: str):
        """(before, after) callbacks that collect counts for one target."""
        if name in ("text.encode_single", "text.encode_pair"):
            is_pair = name == "text.encode_pair"
            return None, lambda a, kw, out: self.encodes.append((self.op, is_pair, a, kw, out))
        if name == "encoder.forward":
            return None, lambda a, kw, out: self.forwards.append((self.op, a[0]))
        if name in ("model.Scorer.context_vector", "model.Scorer.poly_vectors"):
            def after(a, kw, out):
                if self.op_kinds[self.op].startswith("query."):
                    self._count_tape(out)
            return None, after
        if name == "tensor.backward":
            return lambda a: self._count_tape(a[0]), None
        if name in STEP_LOSSES:
            return lambda a: self.begin_op(self.op_kinds[self.op]), None
        return None, None

    def install(self) -> None:
        """Wrap every target, in every polyscore namespace that binds it."""
        mods = [m for n, m in sys.modules.items()
                if n == "polyscore" or n.startswith("polyscore.")]
        for layer, owner, attr in TARGETS:
            original = getattr(owner, attr)
            name = _span_name(owner, attr)
            wrapped = self._wrap(original, name, layer, *self._hooks(name))
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                self._patched.append((owner, attr, original))
                continue
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        self._patched.append((m, key, original))
        self.active = True

    def uninstall(self) -> None:
        """Put every original back."""
        self.active = False
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    # ---- analysis ----

    def self_times(self) -> np.ndarray:
        """Per span: duration minus the durations of its direct children.

        Calls are single-threaded and properly nested, so the children of a
        span never overlap and their durations add up to the time they cover.
        """
        if not self.spans:
            return np.zeros(0)
        start = np.array([s[2] for s in self.spans])
        dur = np.array([s[3] for s in self.spans]) - start
        parent = np.array([s[4] for s in self.spans])
        has = parent >= 0
        covered = np.bincount(parent[has], weights=dur[has], minlength=len(self.spans))
        return dur - covered

    def write(self, path, meta: dict) -> None:
        """Dump every span as one JSON line, after a header line with `meta`."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"meta": meta, "op_kinds": self.op_kinds,
                                "columns": ["name", "layer", "start", "end", "parent", "op"]})
                    + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _ratio(num: float, den: float, what: str) -> float:
    if den <= 0:
        raise ValueError(f"no {what} in the traced run")
    return float(num) / den


def per_layer_metrics(tr: Tracer, cache_bytes: dict[str, float],
                      overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).

    `cache_bytes` maps each cached architecture to the bytes of cache-sized
    arrays its rank call reads and writes, computed from tensor sizes by the
    caller; `overhead_ratio` is traced over untraced wall time of the same ops.
    """
    self_t = tr.self_times()
    kind_of = tr.op_kinds
    span_kind = [kind_of[s[5]] for s in tr.spans]
    n_ops: dict[str, int] = {}
    for kind in kind_of.values():
        n_ops[kind] = n_ops.get(kind, 0) + 1
    cached_kinds = {f"query.{a}" for a in CACHED_ARCHS}
    inference_kinds = cached_kinds | {"query.cross", "index"}

    def layer_self(layer: str, kinds) -> float:
        return sum(t for s, k, t in zip(tr.spans, span_kind, self_t)
                   if s[1] == layer and k in kinds)

    def per_query(layer: str, kinds, scale: float) -> float:
        ops = sum(n_ops.get(k, 0) for k in kinds)
        return _ratio(layer_self(layer, kinds) * scale, ops, f"{sorted(kinds)} queries")

    def forward_calls(kinds) -> int:
        return sum(1 for op, _ in tr.forwards if kind_of[op] in kinds)

    step_kinds = {k for k in n_ops if k.startswith("step.")}
    n_steps = sum(1 for s in tr.spans if s[0] in STEP_LOSSES)

    def per_step(total: float, what: str) -> float:
        return _ratio(total, n_steps, f"training steps for {what}")

    m: dict[str, tuple[float, str]] = {}

    # text: inference-path encodes (index build and queries)
    served = [e for e in tr.encodes if kind_of[e[0]] in inference_kinds]
    truncated = unk = word_ids = seq_tokens = 0
    for _, is_pair, args, kwargs, tp in served:
        if is_pair:
            n = (len(text.tokenize(_arg(args, kwargs, 0, "input_text")))
                 + len(text.tokenize(_arg(args, kwargs, 1, "label_text"))))
            cap = _arg(args, kwargs, 3, "max_len") - 2
        else:
            n = len(text.tokenize(_arg(args, kwargs, 0, "text")))
            cap = _arg(args, kwargs, 2, "max_len") - 1
        truncated += n > cap
        seq_tokens += len(tp)
        unk += tp.token_ids.count(text.UNK_ID)
        word_ids += sum(1 for i in tp.token_ids if i >= text.UNK_ID)
    encode_self = layer_self("text", inference_kinds)
    m["text.encode_us_per_seq"] = (_ratio(encode_self * 1e6, len(served), "encodes"), "us")
    m["text.tokens_per_seq"] = (_ratio(seq_tokens, len(served), "encodes"), "tokens")
    m["text.truncated_share"] = (_ratio(truncated, len(served), "encodes"), "ratio")
    m["text.unk_share"] = (_ratio(unk, word_ids, "word tokens"), "ratio")

    # encoder
    m["encoder.self_ms_per_query"] = (per_query("encoder", cached_kinds, 1e3), "ms")
    for arch in (*CACHED_ARCHS, "cross"):
        m[f"encoder.self_ms_per_query.{arch}"] = (
            per_query("encoder", {f"query.{arch}"}, 1e3), "ms")
    m["encoder.forward_calls_per_query"] = (
        _ratio(forward_calls(cached_kinds), sum(n_ops.get(k, 0) for k in cached_kinds),
               "cached queries"), "count")
    m["encoder.forward_calls_per_query.cross"] = (
        _ratio(forward_calls({"query.cross"}), n_ops.get("query.cross", 0),
               "cross queries"), "count")
    index_tokens = sum(len(tp) for op, tp in tr.forwards if kind_of[op] == "index")
    m["encoder.us_per_token"] = (
        _ratio(layer_self("encoder", {"index"}) * 1e6, index_tokens, "index tokens"), "us")
    m["encoder.useful_token_share"] = (
        _ratio(sum(tp.n_real for _, tp in tr.forwards),
               sum(len(tp) for _, tp in tr.forwards), "forward tokens"), "ratio")
    m["encoder.forward_calls_per_step"] = (per_step(forward_calls(step_kinds), "forwards"),
                                           "count")

    # heads
    m["heads.self_us_per_query"] = (per_query("heads", cached_kinds, 1e6), "us")
    for arch in CACHED_ARCHS:
        m[f"heads.self_us_per_query.{arch}"] = (per_query("heads", {f"query.{arch}"}, 1e6),
                                                "us")

    # retrieval: rank_* self time, i.e. without the Scorer calls inside it
    m["retrieval.self_ms_per_query"] = (per_query("retrieval", cached_kinds, 1e3), "ms")
    for arch in (*CACHED_ARCHS, "cross"):
        m[f"retrieval.self_ms_per_query.{arch}"] = (
            per_query("retrieval", {f"query.{arch}"}, 1e3), "ms")
    m["retrieval.cache_bytes_per_query"] = (
        float(np.mean([cache_bytes[a] for a in CACHED_ARCHS])), "bytes")
    for arch in CACHED_ARCHS:
        m[f"retrieval.cache_bytes_per_query.{arch}"] = (float(cache_bytes[arch]), "bytes")

    def mean_duration(name: str) -> float:
        durs = [s[3] - s[2] for s in tr.spans if s[0] == name]
        return _ratio(sum(durs) * 1e3, len(durs), f"{name} calls")

    m["retrieval.load_cache_ms"] = (mean_duration("retrieval.load_cache"), "ms")
    m["model.load_checkpoint_ms"] = (mean_duration("model.load_checkpoint"), "ms")

    # tensor
    query_tapes = [n for op, n in tr.tapes if kind_of[op] in cached_kinds]
    m["tensor.tape_nodes_per_query"] = (
        _ratio(sum(query_tapes), len(query_tapes), "cached-query tapes"), "count")
    m["tensor.tape_nodes_per_step"] = (
        per_step(sum(n for op, n in tr.tapes if kind_of[op] in step_kinds), "tapes"), "count")
    m["tensor.backward_ms_per_step"] = (per_step(layer_self("tensor", step_kinds) * 1e3,
                                                 "backward"), "ms")

    m["optim.step_ms_per_step"] = (per_step(layer_self("optim", step_kinds) * 1e3, "optim"),
                                   "ms")
    loss_self = sum(t for s, k, t in zip(tr.spans, span_kind, self_t)
                    if s[0] in LOSS_SPANS and k in step_kinds)
    m["training.loss_self_ms_per_step"] = (per_step(loss_self * 1e3, "losses"), "ms")
    m["trace.overhead_ratio"] = (float(overhead_ratio), "ratio")
    return m


def self_time_table(tr: Tracer) -> dict[str, dict[str, float]]:
    """Self milliseconds per op, by op kind and layer, for the human report."""
    self_t = tr.self_times()
    totals: dict[str, dict[str, float]] = {}
    for span, t in zip(tr.spans, self_t):
        kind = tr.op_kinds[span[5]]
        row = totals.setdefault(kind.split(".")[0] if kind.startswith("step.") else kind, {})
        row[span[1]] = row.get(span[1], 0.0) + t
    n_ops: dict[str, int] = {}
    for kind in tr.op_kinds.values():
        key = kind.split(".")[0] if kind.startswith("step.") else kind
        n_ops[key] = n_ops.get(key, 0) + 1
    n_ops["step"] = sum(1 for s in tr.spans if s[0] in STEP_LOSSES)
    return {kind: {layer: 1e3 * t / max(n_ops.get(kind, 1), 1) for layer, t in sorted(row.items())}
            for kind, row in sorted(totals.items())}
