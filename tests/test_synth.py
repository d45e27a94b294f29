import numpy as np
import pytest

from conftest import random_node_edge_roles
from rolegnn.rdb import canonical_form, fd_violations, ingest_bundle
from rolegnn.schema_graph import (build_schema_graph, construct_reg,
                                  enumerate_edge_triples, invert_reg)
from rolegnn.synth import (emit, gen_completion_chain, gen_future_leak,
                           gen_random_bundle, gen_subspace, gen_twohop)

ALL_GENERATORS = [
    lambda s: gen_twohop(40, 15, 120, 1.0, s)[0],
    lambda s: gen_subspace(60, 6, 2, s)[0],
    lambda s: gen_future_leak(30, s)[0],
    lambda s: gen_completion_chain((80, 40, 20), s)[0],
    gen_random_bundle,
]


@pytest.mark.parametrize("gen_idx", range(len(ALL_GENERATORS)))
def test_generators_pure_functions(gen_idx):
    gen = ALL_GENERATORS[gen_idx]
    assert canonical_form(gen(5)) == canonical_form(gen(5))
    assert canonical_form(gen(5)) != canonical_form(gen(6))


@pytest.mark.parametrize("gen_idx", range(len(ALL_GENERATORS)))
def test_generated_bundles_validate_and_roundtrip(gen_idx):
    db = ALL_GENERATORS[gen_idx](3)
    assert fd_violations(db) == []
    sg = build_schema_graph(db)
    triples = enumerate_edge_triples(sg)
    reg = construct_reg(db, sg, random_node_edge_roles(triples, 3))
    assert canonical_form(invert_reg(reg)) == canonical_form(db)


def test_twohop_label_recomputation_oracle():
    db, task = gen_twohop(50, 15, 150, 1.0, 9)
    review = db.table("review")
    product = db.table("product")
    quality = {int(product.pk[i]): product.cols["quality"].values[i]
               for i in range(product.n_rows)}
    sums, counts = {}, {}
    for i in range(review.n_rows):
        u = int(review.cols["user_id"].values[i])
        p = int(review.cols["product_id"].values[i])
        sums[u] = sums.get(u, 0.0) + quality[p]
        counts[u] = counts.get(u, 0) + 1
    for split in ("train", "val", "test"):
        recs = task.labels[split]
        for j in range(len(recs)):
            u = int(recs.entity[j])
            expected = 1.0 if sums[u] / counts[u] > 0 else 0.0
            assert recs.label[j] == expected


def test_twohop_signal_strength_zero_randomizes():
    _, strong = gen_twohop(200, 30, 600, 1.0, 1)
    _, weak = gen_twohop(200, 30, 600, 0.0, 1)
    same = np.concatenate([strong.labels[s].label for s in ("train", "val", "test")])
    rand = np.concatenate([weak.labels[s].label for s in ("train", "val", "test")])
    agree = (same == rand).mean()
    assert 0.3 < agree < 0.7  # half the labels flip on average


def test_subspace_spectrum_oracle():
    db, meta = gen_subspace(300, 10, 3, 4, sigma=0.0)
    diffs = meta["diffs"] - meta["diffs"].mean(axis=0)
    svals = np.linalg.svd(diffs, compute_uv=False)
    assert svals[2] > 1.0
    assert svals[3] < 1e-9  # exactly rank d_true after centering


def test_subspace_containment_and_dimension_counting():
    db, meta = gen_subspace(200, 8, 3, 5, sigma=0.0)
    basis = meta["basis"]
    centered = meta["diffs"] - meta["shift"]
    residual = centered - centered @ basis @ basis.T
    assert np.abs(residual).max() < 1e-9  # optimal residual 0 at d >= d_true
    # best (d_true - 1)-dim approximation must leave energy behind
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    trunc = (u[:, :2] * s[:2]) @ vt[:2]
    assert np.mean(np.sum((centered - trunc) ** 2, axis=1)) > 1e-2


def test_future_leak_signal_strictly_future():
    db, task = gen_future_leak(40, 2)
    event = db.table("event")
    times = event.cols["happened_at"].values
    activity = event.cols["activity"].values
    max_t_predict = max(task.labels[s].t_predict.max()
                        for s in ("train", "val", "test"))
    signal_rows = activity != 0.0
    assert (times[signal_rows] > max_t_predict).all()
    # label recomputation from future rows
    sums, counts = {}, {}
    for i in range(event.n_rows):
        if times[i] <= max_t_predict:
            continue
        u = int(event.cols["user_id"].values[i])
        sums[u] = sums.get(u, 0.0) + activity[i]
        counts[u] = counts.get(u, 0) + 1
    for split in ("train", "val", "test"):
        recs = task.labels[split]
        for j in range(len(recs)):
            u = int(recs.entity[j])
            assert recs.label[j] == (1.0 if sums[u] / counts[u] > 0 else 0.0)


def test_completion_chain_gate_modes():
    db1, task1 = gen_completion_chain((120, 60, 30), 3, gate_mode="one")
    source = db1.table("source")
    mid = db1.table("mid")
    mid_sink = {int(mid.pk[i]): int(mid.cols["sink_id"].values[i])
                for i in range(mid.n_rows)}
    sums, counts = {}, {}
    for i in range(source.n_rows):
        s = mid_sink[int(source.cols["mid_id"].values[i])]
        sums[s] = sums.get(s, 0.0) + source.cols["strength"].values[i]
        counts[s] = counts.get(s, 0) + 1
    for split in ("train", "val", "test"):
        recs = task1.labels[split]
        for j in range(len(recs)):
            sid = int(recs.entity[j])
            expected = sums.get(sid, 0.0) / max(counts.get(sid, 0), 1)
            assert abs(recs.label[j] - expected) < 1e-12

    db0, task0 = gen_completion_chain((120, 60, 30), 3, gate_mode="zero")
    for split in ("train", "val", "test"):
        assert (task0.labels[split].label == 0.0).all()


def test_completion_chain_random_gate_oracle():
    db, task = gen_completion_chain((100, 50, 25), 7, gate_mode="random")
    source, mid = db.table("source"), db.table("mid")
    mid_info = {int(mid.pk[i]): (int(mid.cols["sink_id"].values[i]),
                                 mid.cols["gate"].values[i])
                for i in range(mid.n_rows)}
    sums, counts = {}, {}
    for i in range(source.n_rows):
        sink, gate = mid_info[int(source.cols["mid_id"].values[i])]
        sums[sink] = sums.get(sink, 0.0) + source.cols["strength"].values[i] * gate
        counts[sink] = counts.get(sink, 0) + 1
    for split in ("train", "val", "test"):
        recs = task.labels[split]
        for j in range(len(recs)):
            sid = int(recs.entity[j])
            expected = sums.get(sid, 0.0) / max(counts.get(sid, 0), 1)
            assert abs(recs.label[j] - expected) < 1e-12


def test_emit_writes_ingestible_bundles(tmp_path):
    out = emit("twohop", {"n_users": 30, "n_products": 12, "n_reviews": 90,
                          "seed": 4}, tmp_path / "b")
    db = ingest_bundle(out)
    assert db.row_count("user") == 30
    assert (out / "user-positive" / "task.json").exists()

    out2 = emit("subspace", {"n": 40, "channels_hint": 6, "d_true": 2,
                             "seed": 1}, tmp_path / "s")
    assert ingest_bundle(out2).row_count("entry") == 40

    with pytest.raises(ValueError):
        emit("nonesuch", {}, tmp_path / "x")


def test_twohop_requires_minimum_sizes():
    with pytest.raises(ValueError):
        gen_twohop(5, 20, 50, 1.0, 0)
