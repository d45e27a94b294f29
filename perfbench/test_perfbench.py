"""Self-tests of the benchmark's own arithmetic, plus a smoke run of each
workload at a tiny size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from itertools import count
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import run as bench
import stats
import tracing
from workloads import SPEC_WORKLOADS, WORKLOADS

HERE = Path(__file__).resolve().parent


# ---------------------------------------------------------------------------
# medians and percentiles
# ---------------------------------------------------------------------------

def test_median_and_percentile_interpolate_like_numpy():
    xs = [5.0, 1.0, 4.0, 2.0]
    assert stats.median(xs) == 3.0
    assert stats.median([7.0]) == 7.0
    for q in (0, 10, 25, 50, 90, 100):
        assert stats.percentile(xs, q) == pytest.approx(np.percentile(xs, q))
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_summarize_reports_sample_count():
    assert stats.summarize([3.0, 1.0, 2.0]) == {"n": 3, "median": 2.0}
    assert stats.summarize([4.0, 1.0]) == {"n": 2, "median": 2.5}


# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------

def _tracer(times):
    it = iter(times)
    return tracing.Tracer(clock=lambda: next(it))


def test_self_time_subtracts_direct_children_only():
    tr = _tracer([0, 1, 2, 4, 5, 6, 7, 10])
    a = tr.begin("a")        # 0
    b = tr.begin("b")        # 1
    c = tr.begin("c")        # 2
    tr.end(c)                # 4
    tr.end(b)                # 5
    d = tr.begin("d")        # 6
    tr.end(d)                # 7
    tr.end(a)                # 10
    own = tracing.self_times(tr.spans)
    assert own == {"a": 5.0, "b": 2.0, "c": 2.0, "d": 1.0}
    assert sum(own.values()) == 10.0
    assert [s["parent"] for s in tr.spans] == [None, 0, 1, 0]
    assert tracing.coverage(tr.spans, "a") == 0.5
    assert tracing.coverage(tr.spans, "a", glue=("d",)) == 0.4
    assert tracing.coverage(tr.spans, "missing") == 0.0


def test_self_time_sums_repeated_names():
    tr = _tracer(count())
    for _ in range(3):
        outer = tr.begin("outer")
        tr.end(tr.begin("inner"))
        tr.end(outer)
    own = tracing.self_times(tr.spans)
    assert own == {"outer": 6.0, "inner": 3.0}


def test_callbacks_are_charged_to_bookkeeping_not_the_caller():
    tr = _tracer(count())

    def after(tracer, args, kwargs, result):
        tracer.clock(), tracer.clock()  # two ticks of callback work

    wrapped = tracing._wrap(tr, lambda: None, "inner", None, after)
    root = tr.begin("root")   # 0
    wrapped()                 # inner 1-2, bookkeeping 3-6
    tr.end(root)              # 7
    wrapped()                 # outside root: ignored by coverage
    own = tracing.self_times(tr.spans)
    assert own["root"] == 3.0 and own["inner"] == 2.0
    assert own[tracing.BOOKKEEPING] == 6.0
    glue = (tracing.BOOKKEEPING,)
    assert tracing.coverage(tr.spans, "root", glue) == pytest.approx(1 / 7)


def test_end_closes_spans_left_open_inside():
    tr = _tracer(count())
    root = tr.begin("root")
    tr.begin("phase")  # a hook-delimited span an exception left open
    tr.end(root)
    assert all(s["end"] is not None for s in tr.spans)
    assert tr.spans[1]["end"] == tr.spans[0]["end"]
    with pytest.raises(RuntimeError):
        tr.end(root)


# ---------------------------------------------------------------------------
# distinct_row_ratio
# ---------------------------------------------------------------------------

def _batch(**rows):
    return SimpleNamespace(nodes={t: SimpleNamespace(rows=np.asarray(r))
                                  for t, r in rows.items()})


def test_distinct_rows_counts_per_table():
    # the same row under two seeds is one distinct row; equal row numbers
    # in different tables are different rows
    assert tracing.distinct_rows(_batch(user=[1, 1, 2], review=[5, 6, 5, 5])) == (4, 7)
    assert tracing.distinct_rows(_batch(user=[3], review=[3])) == (2, 2)


def test_layer_metrics_ratios_pool_over_batches():
    tr = _tracer(count())
    root = tr.begin("training.train")
    for b in (_batch(user=[1, 1, 1, 1]), _batch(user=[1, 2, 3, 4, 5, 6])):
        sid = tr.begin("sampler.sample_batch")
        tr.end(sid)
        tracing._on_batch(tr, (), {}, SimpleNamespace(
            nodes=b.nodes, neighbor_count=1, path_count=2))
    tr.end(root)
    out = tracing.layer_metrics(tr, n_ops=2, root="training.train")
    assert out["sampler.distinct_row_ratio"] == pytest.approx(7 / 10)
    assert out["sampler.calls"] == 1.0  # per operation
    assert out["sampler.local_nodes"] == 5.0
    assert out["fd.negative_fallbacks"] == 0.0
    assert 0.0 < out["trace.coverage"] < 1.0


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ---------------------------------------------------------------------------

def test_benchmark_json_lists_what_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(SPEC_WORKLOADS)
    assert set(SPEC_WORKLOADS) <= set(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == bench.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {n: bench.layer_unit(n)
                         for n in [*tracing.LAYER_METRICS, *tracing.RATIO_METRICS]}


# ---------------------------------------------------------------------------
# smoke runs: tiny inputs, every check still applies
# ---------------------------------------------------------------------------

def _run(*args: str) -> dict:
    res = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke",
                          "--seed", "7", *args],
                         capture_output=True, text=True, timeout=170)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.strip().splitlines()[-1])


def test_smoke_all_workloads_untraced():
    out = _run("--workload", "all")
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 3
    names = {k.split("/")[1] for k in out["metrics"]}
    assert names == set(bench.END_TO_END)
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", ["twohop-x10-l1-fd", "bundle-x10-roundtrip"])
def test_smoke_traced(workload):
    out = _run("--workload", workload, "--trace", "1")
    assert out["correct"]
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert m["trace.coverage"] >= 0.9
    if workload == "bundle-x10-roundtrip":
        assert all(m[k] == 0 for k in m
                   if k.split(".")[0] in ("sampler", "model", "tensor", "fd"))
        assert m["rdb.canonical_form_s"] > 0
    else:
        assert m["fd.negatives_s"] > 0 and m["sampler.calls"] > 0
        assert 0 < m["sampler.distinct_row_ratio"] <= 1
