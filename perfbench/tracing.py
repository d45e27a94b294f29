"""Per-layer tracing from outside the engine.

Spans are recorded by wrapping the public names the pipeline calls, at the
place where the caller looks them up (``rolegnn.training.sample_batch`` rather
than ``rolegnn.sampler.sample_batch``, because ``training`` imports it by
name). Nothing inside ``src/`` is timed. Spans stay in memory, each with its
parent, and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Nested spans (name, start, end, parent) plus additive counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"id": sid, "name": name, "parent": parent,
                           "start": self.clock(), "end": None})
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        """Close span `sid` and any span still open inside it (an exception
        can leave a hook-delimited span open)."""
        if sid not in self._stack:
            raise RuntimeError(f"span {sid} is not open")
        now = self.clock()
        while True:
            top = self._stack.pop()
            self.spans[top]["end"] = now
            if top == sid:
                return

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def write(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _span_self_times(spans: list[dict]) -> list[float]:
    """Per span: its duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: the sum of its spans' self times."""
    out: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, _span_self_times(spans)):
        out[s["name"]] += own
    return out


def coverage(spans: list[dict], root: str, glue: tuple[str, ...] = ()) -> float:
    """Share of the `root` spans' wall time spent inside named function spans.

    The self time of `root` itself and of `glue` spans inside it (intervals
    marked by hooks rather than by a function call, and the tracer's own
    bookkeeping) counts as not covered.
    """
    own = _span_self_times(spans)
    inside = [False] * len(spans)
    total = uncovered = 0.0
    for s in spans:
        parent = s["parent"]
        if s["name"] == root and not (parent is not None and inside[parent]):
            total += s["end"] - s["start"]
        inside[s["id"]] = s["name"] == root or (parent is not None and inside[parent])
        if inside[s["id"]] and s["name"] in (root, *glue):
            uncovered += own[s["id"]]
    return 1.0 - uncovered / total if total > 0.0 else 0.0


def distinct_rows(batch) -> tuple[int, int]:
    """(distinct (table, row) pairs, local nodes) of one sampled batch."""
    import numpy as np

    distinct = sum(len(np.unique(tn.rows)) for tn in batch.nodes.values())
    local = sum(len(tn.rows) for tn in batch.nodes.values())
    return distinct, local


# ---------------------------------------------------------------------------
# the layer metrics a traced run reports; BENCHMARK.json lists the same names
# ---------------------------------------------------------------------------

PHASE_SPANS = ("training.phase_a", "training.phase_b")
# The tracer's own work inside a traced call (counting, np.unique of sampled
# rows); in no layer metric, and uncovered in trace.coverage.
BOOKKEEPING = "trace.bookkeeping"

# metric name -> (unit, kind, source); kind "self" is a span's self time,
# "count" a counter, "max" a peak value.
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "sampler.sample_batch_s": ("s", "self", "sampler.sample_batch"),
    "sampler.calls": ("count", "count", "sampler.calls"),
    "sampler.local_nodes": ("count", "count", "sampler.local_nodes"),
    "sampler.neighbor_count": ("count", "count", "sampler.neighbor_count"),
    "sampler.path_count": ("count", "count", "sampler.path_count"),
    "kernels.admissible_counts_s": ("s", "self", "kernels.admissible_counts"),
    "kernels.admissible_counts.queries": ("count", "count", "kernels.admissible_counts.queries"),
    "kernels.segment_sum_s": ("s", "self", "kernels.segment_sum"),
    "kernels.segment_sum.calls": ("count", "count", "kernels.segment_sum.calls"),
    "kernels.segment_sum.rows": ("count", "count", "kernels.segment_sum.rows"),
    "kernels.segment_sum.bytes": ("bytes", "count", "kernels.segment_sum.bytes"),
    "kernels.segment_mean_s": ("s", "self", "kernels.segment_mean"),
    "kernels.segment_mean.calls": ("count", "count", "kernels.segment_mean.calls"),
    "kernels.segment_mean.rows": ("count", "count", "kernels.segment_mean.rows"),
    "kernels.segment_mean.bytes": ("bytes", "count", "kernels.segment_mean.bytes"),
    "tensor.backward_s": ("s", "self", "tensor.backward"),
    "tensor.tape_nodes_peak": ("count", "max", "tensor.tape_nodes_peak"),
    "tensor.adam_step_s": ("s", "self", "tensor.adam_step"),
    "model.forward_s": ("s", "self", "model.forward"),
    "model.forward.calls": ("count", "count", "model.forward.calls"),
    "model.encode_s": ("s", "self", "model.encode"),
    "fd.fd_losses_s": ("s", "self", "fd.fd_losses"),
    "fd.negatives_s": ("s", "self", "fd.negatives"),
    "fd.pairs": ("count", "count", "fd.pairs"),
    "fd.negative_draws": ("count", "count", "fd.negative_draws"),
    "training.phase_a_s": ("s", "self", "training.phase_a"),
    "training.phase_b_s": ("s", "self", "training.phase_b"),
    "training.validate_s": ("s", "self", "training.validate"),
    "training.evaluate_s": ("s", "self", "training.evaluate"),
    "training.self_s": ("s", "self", "training.train"),
    "training.build_state_s": ("s", "self", "training.build_state"),
    "training.checkpoint_save_s": ("s", "self", "training.checkpoint_save"),
    "training.checkpoint_load_s": ("s", "self", "training.checkpoint_load"),
    "rdb.ingest_s": ("s", "self", "rdb.ingest"),
    "rdb.load_task_s": ("s", "self", "rdb.load_task"),
    "rdb.fd_violations_s": ("s", "self", "rdb.fd_violations"),
    "rdb.canonical_form_s": ("s", "self", "rdb.canonical_form"),
    "rdb.export_s": ("s", "self", "rdb.export"),
    "rdb.rows": ("count", "count", "rdb.rows"),
    "schema_graph.construct_reg_s": ("s", "self", "schema_graph.construct_reg"),
    "schema_graph.invert_reg_s": ("s", "self", "schema_graph.invert_reg"),
    "schema_graph.path_instances": ("count", "count", "schema_graph.path_instances"),
}
# Derived ratios, computed in layer_metrics() and by the worker.
RATIO_METRICS = ("sampler.distinct_row_ratio", "fd.negative_fallbacks",
                 "trace.coverage", "trace.overhead")


def layer_metrics(tracer: Tracer, n_ops: int, root: str) -> dict[str, float]:
    """Per-operation layer figures of a traced run (trace.overhead excluded)."""
    own = self_times(tracer.spans)
    out = {}
    for name, (_, kind, source) in LAYER_METRICS.items():
        if kind == "self":
            out[name] = own.get(source, 0.0) / n_ops
        elif kind == "count":
            out[name] = tracer.counters.get(source, 0.0) / n_ops
        else:
            out[name] = tracer.maxima.get(source, 0.0)
    c = tracer.counters
    out["sampler.distinct_row_ratio"] = (
        c["sampler.distinct_rows"] / c["sampler.local_nodes"]
        if c.get("sampler.local_nodes") else 0.0)
    out["fd.negative_fallbacks"] = (c["fd.negative_none"] / c["fd.negative_calls"]
                                    if c.get("fd.negative_calls") else 0.0)
    out["trace.coverage"] = coverage(tracer.spans, root, (*PHASE_SPANS, BOOKKEEPING))
    return out


# ---------------------------------------------------------------------------
# wrapping the engine
# ---------------------------------------------------------------------------

def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _on_batch(tr: Tracer, args, kwargs, batch) -> None:
    distinct, local = distinct_rows(batch)
    tr.count("sampler.calls")
    tr.count("sampler.local_nodes", local)
    tr.count("sampler.distinct_rows", distinct)
    tr.count("sampler.neighbor_count", batch.neighbor_count)
    tr.count("sampler.path_count", batch.path_count)


def _on_admissible(tr: Tracer, args, kwargs, result) -> None:
    tr.count("kernels.admissible_counts.queries", len(result))


def _segment_counter(prefix: str):
    def on_result(tr: Tracer, args, kwargs, result) -> None:
        values = _arg(args, kwargs, 0, "values")
        num_segments = _arg(args, kwargs, 2, "num_segments")
        cols = values.shape[1] if values.ndim > 1 else 1
        tr.count(f"{prefix}.calls")
        tr.count(f"{prefix}.rows", values.shape[0])
        tr.count(f"{prefix}.bytes", (values.shape[0] + num_segments) * cols * 8)
    return on_result


def _on_forward(tr: Tracer, args, kwargs, result) -> None:
    tr.count("model.forward.calls")


def _on_fd_losses(tr: Tracer, args, kwargs, result) -> None:
    tr.count("fd.pairs", sum(d.n_pairs for d in result[3]))


def _on_negatives(tr: Tracer, args, kwargs, result) -> None:
    tr.count("fd.negative_calls")
    if result is None:
        tr.count("fd.negative_none")
    else:
        tr.count("fd.negative_draws", result.size)


def _on_construct(tr: Tracer, args, kwargs, reg) -> None:
    tr.count("schema_graph.path_instances",
             sum(p.n_instances for p in reg.paths.values()))


def _on_ingest(tr: Tracer, args, kwargs, db) -> None:
    tr.count("rdb.rows", sum(db.row_count(n) for n in db.table_names))


def _eval_span(args, kwargs) -> str:
    split = _arg(args, kwargs, 1, "split")
    return "training.validate" if split == "val" else "training.evaluate"


def install(tracer: Tracer):
    """Wrap the engine's entry points; returns a function that unwraps them."""
    from rolegnn import fd, kernels, model, rdb, sampler, schema_graph, tensor, training

    def before_backward(tr: Tracer, args, kwargs) -> None:
        tr.peak("tensor.tape_nodes_peak", tensor.tape_size())

    targets = [
        (training, "sample_batch", "sampler.sample_batch", None, _on_batch),
        (sampler, "admissible_counts", "kernels.admissible_counts", None, _on_admissible),
        (kernels, "segment_sum", "kernels.segment_sum", None,
         _segment_counter("kernels.segment_sum")),
        (kernels, "segment_mean", "kernels.segment_mean", None,
         _segment_counter("kernels.segment_mean")),
        (tensor, "backward", "tensor.backward", before_backward, None),
        (tensor.Adam, "step", "tensor.adam_step", None, None),
        (model.Model, "forward", "model.forward", None, _on_forward),
        (model.FeatureEncoder, "encode", "model.encode", None, None),
        (training, "fd_losses", "fd.fd_losses", None, _on_fd_losses),
        (fd, "sample_negative_targets", "fd.negatives", None, _on_negatives),
        (training, "evaluate_state", _eval_span, None, None),
        (training, "build_state", "training.build_state", None, None),
        (training, "train", "training.train", None, None),
        (training, "save_checkpoint", "training.checkpoint_save", None, None),
        (training, "load_checkpoint", "training.checkpoint_load", None, None),
        (training, "construct_reg", "schema_graph.construct_reg", None, _on_construct),
        (schema_graph, "construct_reg", "schema_graph.construct_reg", None, _on_construct),
        (schema_graph, "invert_reg", "schema_graph.invert_reg", None, None),
        (rdb, "ingest_bundle", "rdb.ingest", None, _on_ingest),
        (rdb, "load_task", "rdb.load_task", None, None),
        (rdb, "fd_violations", "rdb.fd_violations", None, None),
        (rdb, "canonical_form", "rdb.canonical_form", None, None),
        (rdb, "export_bundle", "rdb.export", None, None),
    ]
    originals = []
    for owner, attr, name, before, after in targets:
        orig = getattr(owner, attr)
        setattr(owner, attr, _wrap(tracer, orig, name, before, after))
        originals.append((owner, attr, orig))

    def uninstall() -> None:
        for owner, attr, orig in reversed(originals):
            setattr(owner, attr, orig)
    return uninstall


def _wrap(tracer: Tracer, fn, name, before, after):
    """The callbacks run in a BOOKKEEPING span of their own, so the tracer's
    own work is charged to no layer."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            sid = tracer.begin(BOOKKEEPING)
            before(tracer, args, kwargs)
            tracer.end(sid)
        sid = tracer.begin(name(args, kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(sid)
        if after is not None:
            sid = tracer.begin(BOOKKEEPING)
            after(tracer, args, kwargs, result)
            tracer.end(sid)
        return result
    return wrapper
