import warnings

import numpy as np
import pytest

from conftest import finite_diff_max_rel, review_fixture_rows, review_fixture_specs
from rolegnn import tensor as T
from rolegnn.model import (Model, ModelConfig, completion_message,
                           compute_gate, cooccurrence_message, fuse,
                           link_scores, relation_message)
from rolegnn.rdb import build_database
from rolegnn.sampler import SamplerConfig, sample_batch
from rolegnn.schema_graph import (RoleAssignment, build_schema_graph,
                                  construct_reg, enumerate_edge_triples)
from rolegnn.synth import gen_completion_chain, gen_twohop
from rolegnn.tensor import Tensor
from rolegnn.training import roles_for_mode

TRAIN_CUT = 1_600_000_000 + 100 * 86400.0


def _reg_for(db, role="learn"):
    sg = build_schema_graph(db)
    triples = enumerate_edge_triples(sg)
    return construct_reg(db, sg, RoleAssignment.uniform(triples, role))


def _batch_for(reg, table, seeds, hops=1, budget=32, seed=0):
    cfg = SamplerConfig(neighbor_samples=budget, num_hops=hops, seed=seed)
    return sample_batch(reg, seeds, cfg, table)


@pytest.fixture
def twohop_setup():
    db, task = gen_twohop(40, 12, 120, 1.0, 0)
    reg = _reg_for(db)
    recs = task.labels["train"]
    seeds = [(int(recs.entity[i]), float(recs.t_predict[i])) for i in range(10)]
    return db, task, reg, seeds


# --- feature encoding -------------------------------------------------------

def test_encoder_stats_match_oracle(twohop_setup):
    db, task, reg, seeds = twohop_setup
    model = Model(reg, ModelConfig(channels=8, layers=1, seed=0),
                  "classification", train_cut=task.split[0])
    stats = model.encoder.stats["tables"]["product"]["columns"]["quality"]
    vals = np.asarray(reg.nodes["product"].attrs["quality"].values, float)
    visible = reg.nodes["product"].times <= task.split[0]
    assert abs(stats["mean"] - vals[visible].mean()) < 1e-12
    assert abs(stats["std"] - vals[visible].std()) < 1e-12
    standardized = (vals[visible] - stats["mean"]) / stats["std"]
    assert abs(standardized.mean()) < 1e-9
    assert abs(standardized.std() - 1.0) < 1e-9


def test_zero_projection_gives_zero_embedding(twohop_setup):
    db, task, reg, seeds = twohop_setup
    model = Model(reg, ModelConfig(channels=8, layers=1, seed=0),
                  "classification", train_cut=task.split[0])
    for name, p in model.encoder.params.items():
        p.values[:] = 0.0
    batch = _batch_for(reg, "user", seeds)
    h = model.encoder.encode(batch)
    for t, emb in h.items():
        np.testing.assert_array_equal(emb.values, 0.0)


def test_unseen_category_maps_to_unknown_index():
    from rolegnn.model import FeatureEncoder
    from rolegnn.rdb import ColumnSpec, TableSpec

    specs = [TableSpec("item", (ColumnSpec("item_id", "integer"),
                                ColumnSpec("color", "categorical", nullable=True)),
                       primary_key="item_id")]
    db_a = build_database(specs, {"item": [
        {"item_id": 1, "color": "red"}, {"item_id": 2, "color": "blue"}]})
    db_b = build_database(specs, {"item": [
        {"item_id": 1, "color": "green"},   # unseen at training time
        {"item_id": 2, "color": None},      # missing
        {"item_id": 3, "color": "red"}]})
    reg_a, reg_b = _reg_for(db_a), _reg_for(db_b)
    cfg = ModelConfig(channels=4, layers=1, cat_dim=3, seed=0)
    stats = FeatureEncoder(reg_a, cfg, train_cut=np.inf).stats
    assert stats["tables"]["item"]["vocab"]["color"] == ["blue", "red"]
    # reg_b encoded with the vocabulary frozen on reg_a, as a checkpoint does
    enc = FeatureEncoder(reg_b, cfg, train_cut=np.inf, stats=stats)
    batch = _batch_for(reg_b, "item", [(1, 1e12), (2, 1e12), (3, 1e12)])
    h = enc.encode(batch)["item"].values
    # unseen and missing share the reserved index, the known value does not
    np.testing.assert_array_equal(h[batch.seed_locals[0]], h[batch.seed_locals[1]])
    assert not np.array_equal(h[batch.seed_locals[0]], h[batch.seed_locals[2]])


def _category_codes_loop(enc, table, column, cd, rows):
    """The per-batch-row dict lookup the store-wide code arrays replaced."""
    index = {v: i + 1
             for i, v in enumerate(enc.stats["tables"][table]["vocab"][column])}
    codes = np.zeros(len(rows), dtype=np.int64)
    for i, row in enumerate(rows):
        v = cd.values[int(row)] if cd.mask[int(row)] else None
        codes[i] = index.get(v, 0)
    return codes


def test_category_codes_match_row_loop_on_random_schemas():
    from rolegnn.model import FeatureEncoder
    from rolegnn.synth import gen_random_bundle

    rng = np.random.default_rng(5)
    checked = 0
    for seed in range(12):
        reg = _reg_for(gen_random_bundle(seed))
        cfg = ModelConfig(channels=4, layers=1, cat_dim=2, seed=0)
        # a finite cut: given statistics are checked, and the time scale
        # of an infinite one is infinite
        full = FeatureEncoder(reg, cfg, train_cut=TRAIN_CUT)
        # a vocabulary missing some values, as one frozen on other data
        stats = {"time_scale": full.stats["time_scale"], "tables": {
            name: {"columns": t["columns"],
                   "vocab": {c: v[::2] for c, v in t["vocab"].items()}}
            for name, t in full.stats["tables"].items()}}
        thin = FeatureEncoder(reg, cfg, train_cut=TRAIN_CUT, stats=stats)
        for name, store in sorted(reg.nodes.items()):
            for col, cd in sorted(store.attrs.items()):
                if cd.kind != "categorical":
                    continue
                rows = rng.integers(0, store.n_rows, size=3 * store.n_rows)
                for enc in (full, thin):
                    got = enc.inputs[name].codes[col][rows]
                    assert got.dtype == np.int64
                    np.testing.assert_array_equal(
                        got, _category_codes_loop(enc, name, col, cd, rows))
                checked += 1
                assert (thin.inputs[name].codes[col] == 0).any()
    assert checked >= 5


def _encode_per_column(enc, batch):
    """The encoder's per-batch loop that the per-table input blocks
    replaced: every numeric column standardized again for each batch."""
    reg, out = enc.reg, {}
    for name in sorted(batch.nodes):
        tn, store, spec = batch.nodes[name], reg.nodes[name], reg.specs[name]
        tstats = enc.stats["tables"][name]
        cols, categorical = [np.ones((tn.n, 1))], []
        for col_name in sorted(store.attrs):
            cd = store.attrs[col_name]
            if cd.kind == "categorical":
                categorical.append(col_name)
                continue
            vals = np.asarray(cd.values, dtype=np.float64)[tn.rows]
            mask = cd.mask[tn.rows]
            st = tstats["columns"][col_name]
            cols.append(np.where(mask, (vals - st["mean"]) / st["std"], 0.0)[:, None])
            if spec.column(col_name).nullable:
                cols.append(mask.astype(np.float64)[:, None])
        if spec.time_column is not None:
            times = store.times[tn.rows]
            present = np.isfinite(times)
            dt = np.where(present, (batch.seed_t_predict[tn.seed_of] - times)
                          / enc.stats["time_scale"], 0.0)
            cols += [dt[:, None], present.astype(np.float64)[:, None]]
        parts = [Tensor(np.concatenate(cols, axis=1))]
        for col_name in categorical:
            cd = store.attrs[col_name]
            parts.append(T.take_rows(enc.params[f"enc.{name}.cat.{col_name}"],
                                     _category_codes_loop(enc, name, col_name,
                                                          cd, tn.rows)))
        raw = parts[0] if len(parts) == 1 else T.concat(parts, axis=1)
        out[name] = T.linear(raw, enc.params[f"enc.{name}.proj.W"],
                             enc.params[f"enc.{name}.proj.b"])
    return out


def test_encode_matches_per_column_loop_bit_for_bit():
    """Gathering rows of the blocks built once gives the bytes of
    standardizing each column per batch, forward and backward, with
    computed statistics and with statistics read back from JSON."""
    import json
    from types import SimpleNamespace

    from rolegnn.model import FeatureEncoder
    from rolegnn.sampler import TypeNodes
    from rolegnn.synth import BASE_TIME, DAY, gen_random_bundle

    rng = np.random.default_rng(11)
    cut = float(BASE_TIME + 200 * DAY)
    # two prediction times, one before the cut and one after it
    seed_t = np.array([cut - 50 * DAY, cut + 100 * DAY])
    seen = {"nullable numeric": 0, "categorical": 0, "time": 0}
    for seed in range(12):
        reg = _reg_for(gen_random_bundle(seed))
        for name, store in reg.nodes.items():
            spec = reg.specs[name]
            seen["time"] += spec.time_column is not None
            for col, cd in store.attrs.items():
                seen["categorical"] += cd.kind == "categorical"
                seen["nullable numeric"] += (cd.kind != "categorical"
                                             and spec.column(col).nullable)
        # every store row twice, at each prediction time, shuffled
        nodes = {}
        for name, store in reg.nodes.items():
            rows = np.tile(np.arange(store.n_rows), 2)
            seed_of = np.repeat([0, 1], store.n_rows)
            order = rng.permutation(len(rows))
            nodes[name] = TypeNodes(rows[order], seed_of[order])
        batch = SimpleNamespace(nodes=nodes, seed_t_predict=seed_t)
        cfg = ModelConfig(channels=5, layers=1, cat_dim=3, seed=seed)
        computed = FeatureEncoder(reg, cfg, train_cut=cut)
        stored = json.loads(json.dumps(computed.stats))
        for enc in (computed, FeatureEncoder(reg, cfg, cut, stats=stored)):
            runs = []
            for encode in (enc.encode, lambda b: _encode_per_column(enc, b)):
                for p in enc.params.values():
                    p.grad[:] = 0.0
                T.clear_tape()
                h = encode(batch)
                loss = Tensor(np.array(0.0))
                for hc in h.values():
                    loss = T.add(loss, T.sum_(T.mul(hc, hc)))
                T.backward(loss)
                runs.append(({c: hc.values.tobytes() for c, hc in h.items()},
                              {n: p.grad.tobytes() for n, p in enc.params.items()}))
            assert runs[0] == runs[1]
    assert min(seen.values()) >= 2, seen


def test_identical_rows_identical_embeddings():
    rows = review_fixture_rows()
    rows["user"] = [{"user_id": 1, "age": 30.0}, {"user_id": 2, "age": 30.0}]
    rows["review"] = [r for r in rows["review"] if r["user_id"] <= 2]
    db = build_database(review_fixture_specs(), rows)
    reg = _reg_for(db)
    model = Model(reg, ModelConfig(channels=6, layers=1, seed=1),
                  "classification", train_cut=TRAIN_CUT)
    batch = _batch_for(reg, "user", [(1, TRAIN_CUT), (2, TRAIN_CUT)])
    h = model.encoder.encode(batch)
    locs = batch.seed_locals
    np.testing.assert_array_equal(h["user"].values[locs[0]],
                                  h["user"].values[locs[1]])


# --- branch primitives ------------------------------------------------------

def test_relation_message_zero_neighbors_is_zero():
    """Destinations without a neighbour get no message row, so the self
    term they are added onto stays as it is."""
    W = Tensor(np.eye(2))
    h_src = Tensor(np.ones((3, 2)))
    rows, msg = relation_message(W, h_src, np.array([0, 1], dtype=np.int64),
                                 np.array([1, 1], dtype=np.int64))
    np.testing.assert_array_equal(rows, [1])
    np.testing.assert_array_equal(msg.values, [[1.0, 1.0]])
    total = T.add_rows(Tensor(np.zeros((4, 2))), rows, msg)
    np.testing.assert_array_equal(total.values, [[0, 0], [1, 1], [0, 0], [0, 0]])


def test_node_update_identity_maps_adds_neighbor():
    """Single neighbor, identity maps, non-negative inputs (where relu is
    the identity): h_w <- h_w + h_v."""
    rows = review_fixture_rows(reviews=[(1, 1, 1)])
    db = build_database(review_fixture_specs(), rows)
    reg = _reg_for(db, role="node")
    cfg = ModelConfig(channels=4, layers=1, seed=0)
    model = Model(reg, cfg, "classification", train_cut=TRAIN_CUT)
    batch = _batch_for(reg, "review", [(1, TRAIN_CUT)])
    encode = model.encoder.encode
    model.encoder.encode = lambda b: {c: Tensor(np.abs(h.values))
                                      for c, h in encode(b).items()}
    h0 = model.encoder.encode(batch)
    for name, p in model.params.items():
        if ".self." in name and name.endswith(".W"):
            p.values[:] = np.eye(4)
        elif ".rel." in name and name.endswith(".W"):
            p.values[:] = np.eye(4)
        elif name.endswith(".b"):
            p.values[:] = 0.0
    res = model.forward(batch, model.init_gates(), train=False)
    w_local = batch.seed_locals[0]
    expected = h0["review"].values[w_local].copy()
    # the review seed has exactly two neighbors: its user and its product
    for t in ("user", "product"):
        expected = expected + h0[t].values[0]
    np.testing.assert_allclose(res.embeddings["review"].values[w_local],
                               expected, rtol=1e-12)


def test_zero_neighbors_self_transform_only(twohop_setup):
    db, task, reg, seeds = twohop_setup
    cfg = ModelConfig(channels=5, layers=1, seed=2)
    # a prediction time before all review rows: nothing is admissible
    reg_node = _reg_for(db, "node")
    batch = _batch_for(reg_node, "product", [(1, 1.0)])
    model_node = Model(reg_node, cfg, "classification",
                       train_cut=task.split[0])
    res = model_node.forward(batch, model_node.init_gates(), train=False)
    h0 = model_node.encoder.encode(batch)
    W = model_node.params["L0.self.product.W"].values
    b = model_node.params["L0.self.product.b"].values
    expected = np.maximum(h0["product"].values @ W + b, 0.0)
    np.testing.assert_allclose(res.embeddings["product"].values, expected,
                               rtol=1e-10)


def test_node_branch_matches_dense_oracle(twohop_setup):
    db, task, reg, seeds = twohop_setup
    reg_node = _reg_for(db, "node")
    cfg = ModelConfig(channels=6, layers=1, seed=3)
    model = Model(reg_node, cfg, "classification", train_cut=task.split[0])
    batch = _batch_for(reg_node, "user", seeds, hops=2, budget=8)
    res = model.forward(batch, model.init_gates(), train=False)
    h0 = {t: v.values for t, v in
          model.encoder.encode(batch).items()}

    # dense oracle: explicit mean aggregation, one layer
    for c in sorted(batch.nodes):
        S = h0[c] @ model.params[f"L0.self.{c}.W"].values \
            + model.params[f"L0.self.{c}.b"].values
        total = S.copy()
        for key in model.relations:
            if key.dst_table != c or key.id not in batch.edges:
                continue
            src, dst = batch.edges[key.id]
            mapped = h0[key.src_table][src] @ model.params[f"L0.rel.{key.id}.W"].values
            agg = np.zeros_like(S)
            counts = np.zeros(len(S))
            for m, d in zip(mapped, dst):
                agg[d] += m
                counts[d] += 1
            total += agg / np.maximum(counts, 1.0)[:, None]
        np.testing.assert_allclose(res.embeddings[c].values,
                                   np.maximum(total, 0.0), rtol=1e-9,
                                   atol=1e-12)


def test_cooccurrence_message_linear_sum():
    W = Tensor(np.ones((3, 1)))
    m = cooccurrence_message(W, Tensor([[2.0]]), Tensor([[3.0]]), Tensor([[5.0]]))
    assert m.values.tolist() == [[10.0]]
    z = cooccurrence_message(W, Tensor([[0.0]]), Tensor([[0.0]]), Tensor([[0.0]]))
    assert z.values.tolist() == [[0.0]]


def test_cooccurrence_matches_concat_matmul_oracle():
    rng = np.random.default_rng(5)
    hw, hv, hu = (rng.normal(size=(7, 4)) for _ in range(3))
    W = rng.normal(size=(12, 4))
    got = cooccurrence_message(Tensor(W), Tensor(hw), Tensor(hv), Tensor(hu))
    oracle = np.concatenate([hw, hv, hu], axis=1) @ W
    np.testing.assert_allclose(got.values, oracle, rtol=1e-12)


def test_completion_gate_zero_map():
    rng = np.random.default_rng(6)
    ch = 3
    hw, hv, hu = (rng.normal(size=(4, ch)) for _ in range(3))
    W1 = rng.normal(size=(2 * ch, ch))
    W2 = rng.normal(size=(2 * ch, ch))
    fW = np.zeros((2 * ch, 1))
    fb = np.zeros(1)
    got = completion_message(Tensor(W1), Tensor(W2), Tensor(fW), Tensor(fb),
                             Tensor(hw), Tensor(hv), Tensor(hu))
    vu = np.concatenate([hv, hu], axis=1)
    oracle = np.concatenate([hw, 0.5 * (vu @ W1)], axis=1) @ W2
    np.testing.assert_allclose(got.values, oracle, rtol=1e-12)


def test_completion_w1_zero():
    rng = np.random.default_rng(7)
    ch = 2
    hw, hv, hu = (rng.normal(size=(3, ch)) for _ in range(3))
    W2 = rng.normal(size=(2 * ch, ch))
    got = completion_message(Tensor(np.zeros((2 * ch, ch))), Tensor(W2),
                             Tensor(rng.normal(size=(2 * ch, 1))),
                             Tensor(rng.normal(size=(1,))),
                             Tensor(hw), Tensor(hv), Tensor(hu))
    oracle = np.concatenate([hw, np.zeros((3, ch))], axis=1) @ W2
    np.testing.assert_allclose(got.values, oracle, rtol=1e-12)


def test_completion_matches_stepwise_oracle():
    rng = np.random.default_rng(8)
    ch = 3
    hw, hv, hu = (rng.normal(size=(5, ch)) for _ in range(3))
    W1, W2 = rng.normal(size=(2 * ch, ch)), rng.normal(size=(2 * ch, ch))
    fW, fb = rng.normal(size=(2 * ch, 1)), rng.normal(size=(1,))
    got = completion_message(Tensor(W1), Tensor(W2), Tensor(fW), Tensor(fb),
                             Tensor(hw), Tensor(hv), Tensor(hu))
    # scalar step-by-step
    oracle = np.zeros((5, ch))
    for i in range(5):
        vu = np.concatenate([hv[i], hu[i]])
        gate = 1.0 / (1.0 + np.exp(-(vu @ fW + fb)))
        inner = gate * (vu @ W1)
        oracle[i] = np.concatenate([hw[i], inner.reshape(-1)]) @ W2
    np.testing.assert_allclose(got.values, oracle, rtol=1e-10)


# --- gating -----------------------------------------------------------------

def test_zero_gate_head_gives_half():
    hn = Tensor(np.random.default_rng(0).normal(size=(6, 4)))
    he = Tensor(np.random.default_rng(1).normal(size=(6, 4)))
    g_tilde, g, g_used = compute_gate(Tensor(np.zeros((8, 1))),
                                      Tensor(np.zeros(1)), hn, he,
                                      gbar=0.5, alpha=0.9, mu=0.9, train=False)
    np.testing.assert_array_equal(g_tilde.values, 0.5)
    assert float(g_used.values) == 0.5


def test_alpha_one_blend_ignores_adaptive_gate():
    rng = np.random.default_rng(2)
    hn, he = Tensor(rng.normal(size=(5, 3))), Tensor(rng.normal(size=(5, 3)))
    _, g, _ = compute_gate(Tensor(rng.normal(size=(6, 1))),
                           Tensor(rng.normal(size=(1,))), hn, he,
                           gbar=0.37, alpha=1.0, mu=0.9, train=False)
    np.testing.assert_allclose(g.values, 0.37, rtol=1e-12)


def _run_gate_recurrence(c, alpha, mu, steps, g0):
    """Drive compute_gate with a constant adaptive-gate stream."""
    logit = np.log(c / (1 - c))
    head_W = Tensor(np.zeros((4, 1)))
    head_b = Tensor(np.array([logit]))
    hn = Tensor(np.zeros((8, 2)))
    he = Tensor(np.zeros((8, 2)))
    gbar = g0
    trace = [gbar]
    for _ in range(steps):
        _, _, g_used = compute_gate(head_W, head_b, hn, he, gbar, alpha, mu,
                                    train=True)
        gbar = float(g_used.values)
        trace.append(gbar)
    return trace


def test_gate_recurrence_contracts_by_mu_at_alpha_zero():
    c, mu = 0.8, 0.9
    trace = _run_gate_recurrence(c, alpha=0.0, mu=mu, steps=30, g0=0.2)
    dist = [abs(g - c) for g in trace]
    for a, b in zip(dist, dist[1:]):
        assert abs(b - mu * a) < 1e-12
    assert dist[-1] < dist[0] * (mu ** 29) * 1.01


def test_gate_recurrence_matches_independent_evaluation():
    c, alpha, mu, g0 = 0.7, 0.9, 0.9, 0.5
    trace = _run_gate_recurrence(c, alpha, mu, steps=20, g0=g0)
    g = g0
    for t in range(20):
        blended = (1 - alpha) * c + alpha * g
        g = mu * g + (1 - mu) * blended
        assert abs(trace[t + 1] - g) < 1e-12
    # converges geometrically to the blend fixed point c
    assert abs(trace[-1] - c) < abs(g0 - c)


def test_gates_frozen_at_evaluation():
    c = 0.9
    trace = _run_gate_recurrence(c, alpha=0.0, mu=0.9, steps=1, g0=0.5)
    assert trace[1] != 0.5  # training updates
    logit = np.log(c / (1 - c))
    _, _, g_used = compute_gate(Tensor(np.zeros((4, 1))),
                                Tensor(np.array([logit])),
                                Tensor(np.zeros((8, 2))), Tensor(np.zeros((8, 2))),
                                0.5, 0.0, 0.9, train=False)
    assert float(g_used.values) == 0.5  # evaluation does not


# --- fusion -----------------------------------------------------------------

def test_fuse_endpoints():
    hn = Tensor(np.array([[1.0, 2.0]]))
    he = Tensor(np.array([[3.0, 4.0]]))
    lo = fuse([(hn, he, Tensor(np.array(0.0)))])
    hi = fuse([(hn, he, Tensor(np.array(1.0)))])
    np.testing.assert_array_equal(lo.values, hn.values)
    np.testing.assert_array_equal(hi.values, he.values)


def test_fuse_hand_example():
    pairs = [(Tensor(np.array([[1.0]])), Tensor(np.array([[3.0]])),
              Tensor(np.array(0.5))),
             (Tensor(np.array([[2.0]])), Tensor(np.array([[6.0]])),
              Tensor(np.array(0.25)))]
    assert fuse(pairs).values.item() == 5.0


def test_fuse_convexity_per_relation():
    rng = np.random.default_rng(9)
    hn = Tensor(rng.normal(size=(10, 4)))
    he = Tensor(rng.normal(size=(10, 4)))
    for g in (0.13, 0.5, 0.77):
        out = fuse([(hn, he, Tensor(np.array(g)))]).values
        lo = np.minimum(hn.values, he.values)
        hi = np.maximum(hn.values, he.values)
        assert (out >= lo - 1e-12).all() and (out <= hi + 1e-12).all()


# --- full forward -----------------------------------------------------------

def test_forward_without_paths_reduces_to_node_only():
    rows = review_fixture_rows()
    rows["review"] = []  # no instances -> edge branch has nothing to do
    db = build_database(review_fixture_specs(), rows)
    reg_learn = _reg_for(db, "learn")
    reg_node = _reg_for(db, "node")
    cfg = ModelConfig(channels=6, layers=2, seed=4)
    m_learn = Model(reg_learn, cfg, "classification", train_cut=TRAIN_CUT)
    m_node = Model(reg_node, cfg, "classification", train_cut=TRAIN_CUT)
    seeds = [(1, TRAIN_CUT), (2, TRAIN_CUT)]
    b_learn = _batch_for(reg_learn, "user", seeds, hops=2)
    b_node = _batch_for(reg_node, "user", seeds, hops=2)
    r1 = m_learn.forward(b_learn, m_learn.init_gates(), train=False)
    r2 = m_node.forward(b_node, m_node.init_gates(), train=False)
    np.testing.assert_array_equal(r1.output.values, r2.output.values)


def test_forward_deterministic_repeat(twohop_setup):
    db, task, reg, seeds = twohop_setup
    cfg = ModelConfig(channels=8, layers=2, seed=5)
    model = Model(reg, cfg, "classification", train_cut=task.split[0])
    batch = _batch_for(reg, "user", seeds, hops=2)
    a = model.forward(batch, model.init_gates(), train=False)
    b = model.forward(batch, model.init_gates(), train=False)
    np.testing.assert_array_equal(a.output.values, b.output.values)


def test_forward_matches_unrolled_oracle(twohop_setup):
    """One layer with co-occurrence branches and eval-mode gates against an
    explicit numpy unroll."""
    db, task, reg, seeds = twohop_setup
    cfg = ModelConfig(channels=4, layers=1, seed=6)
    model = Model(reg, cfg, "classification", train_cut=task.split[0])
    batch = _batch_for(reg, "user", seeds[:4], hops=1, budget=8)
    gates = model.init_gates()
    res = model.forward(batch, gates, train=False)
    h0 = {t: v.values for t, v in model.encoder.encode(batch).items()}
    P = {k: v.values for k, v in model.params.items()}

    def seg_mean(values, segs, n):
        out = np.zeros((n, values.shape[1]))
        cnt = np.zeros(n)
        for m, s in zip(values, segs):
            out[s] += m
            cnt[s] += 1
        return out / np.maximum(cnt, 1.0)[:, None]

    expected = {}
    for c in sorted(batch.nodes):
        n_c = batch.nodes[c].n
        S = h0[c] @ P[f"L0.self.{c}.W"] + P[f"L0.self.{c}.b"]
        msgs = {}
        for key in model.relations:
            if key.dst_table != c or key.id not in batch.edges:
                continue
            src, dst = batch.edges[key.id]
            msgs[key.id] = seg_mean(h0[key.src_table][src] @ P[f"L0.rel.{key.id}.W"],
                                    dst, n_c)
        node_full = np.maximum(S + sum(msgs.values()), 0.0) if msgs \
            else np.maximum(S, 0.0)
        pairs = []
        for tr in model.active_triples:
            if tr.w_table != c or tr.id not in batch.paths:
                continue
            u_idx, v_idx, w_idx = batch.paths[tr.id]
            cat = np.concatenate([h0[c][w_idx], h0[tr.v_table][v_idx],
                                  h0[tr.u_table][u_idx]], axis=1)
            e_agg = seg_mean(cat @ P[f"L0.co.{tr.id}.W"], w_idx, n_c)
            h_e = np.maximum(S + e_agg, 0.0)
            match = tr.matching_relation().id
            h_n = np.maximum(S + msgs[match], 0.0) if match in msgs \
                else np.maximum(S, 0.0)
            g = gates[tr.id]
            pairs.append((1 - g) * h_n + g * h_e)
        expected[c] = sum(pairs) if pairs else node_full
    for c in expected:
        np.testing.assert_allclose(res.embeddings[c].values, expected[c],
                                   rtol=1e-9, atol=1e-12)
    head = expected["user"][batch.seed_locals] @ P["head.W"] + P["head.b"]
    np.testing.assert_allclose(res.output.values, head.reshape(-1), rtol=1e-9)


def test_gate_ranges_during_training(twohop_setup):
    db, task, reg, seeds = twohop_setup
    cfg = ModelConfig(channels=4, layers=1, seed=7)
    model = Model(reg, cfg, "classification", train_cut=task.split[0])
    gates = model.init_gates()
    batch = _batch_for(reg, "user", seeds, hops=1)
    for step in range(3):
        res = model.forward(batch, gates, train=True)
        for tid, (gt_mean, g_mean) in res.gate_diag.items():
            assert 0.0 < gt_mean < 1.0
            assert 0.0 < g_mean < 1.0
        for v in res.gates_after.values():
            assert 0.0 < v < 1.0
        gates = res.gates_after


def test_composite_forward_gradients(twohop_setup):
    db, task, reg, seeds = twohop_setup
    cfg = ModelConfig(channels=3, layers=1, seed=8)
    model = Model(reg, cfg, "classification", train_cut=task.split[0])
    batch = _batch_for(reg, "user", seeds[:3], hops=1, budget=4)
    labels = task.labels["train"].label[:3]
    gates = model.init_gates()

    def build_loss():
        res = model.forward(batch, gates, train=True)
        return T.bce_with_logits(res.output, labels)

    params = [model.params[k] for k in sorted(model.params)]
    worst = finite_diff_max_rel(build_loss, params)
    assert worst <= 1e-3, f"composite gradient error {worst:.2e}"


def test_link_scores_inner_product():
    rng = np.random.default_rng(10)
    a, b = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    got = link_scores(Tensor(a), Tensor(b))
    np.testing.assert_allclose(got.values, (a * b).sum(axis=1), rtol=1e-12)


# --- seeds-only forward -----------------------------------------------------

def _seeds_only_setup(mode, layers, gen="twohop", budget=16):
    db, task = (gen_twohop(120, 30, 400, 1.0, 0) if gen == "twohop"
                else gen_completion_chain((200, 100, 60), 1))
    sg = build_schema_graph(db)
    roles = roles_for_mode(enumerate_edge_triples(sg), mode, seed=3)
    reg = construct_reg(db, sg, roles)
    model = Model(reg, ModelConfig(channels=8, layers=layers, seed=2),
                  task.task_type, train_cut=task.split[0])
    recs = task.labels["test"]
    seeds = [(int(recs.entity[i]), float(recs.t_predict[i]))
             for i in range(min(24, len(recs.entity)))]
    batch = _batch_for(reg, task.entity_table, seeds, hops=layers,
                       budget=budget, seed=layers)
    return model, batch


def _assert_seeds_only_matches_full(model, batch):
    gates = model.init_gates()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. a mean of an empty slice
        full = model.forward(batch, gates, train=False)
        trimmed = model.forward(batch, gates, train=False, seeds_only=True)
    assert np.array_equal(trimmed.output.values, full.output.values)
    for c, emb in trimmed.embeddings.items():
        assert emb.shape[0] == batch.reach[c][0]
        assert np.array_equal(emb.values, full.embeddings[c].values[:emb.shape[0]])


def test_embeddings_are_gathered_on_first_read():
    """Full-mode embeddings hold one row per local, gathered from the shared
    last-hop rows on first read: until then the tape holds no gather."""
    model, batch = _seeds_only_setup("learn", 2)
    expand = model.share(batch).expand
    assert expand
    with T.tape_scope():
        res = model.forward(batch, model.init_gates(), train=True)
        T.sumsq(res.output)
        recorded = T.tape_size()
        emb = res.embeddings
        assert T.tape_size() == recorded + len(expand)
        assert res.embeddings is emb
        assert T.tape_size() == recorded + len(expand)
    for c, tn in batch.nodes.items():
        assert emb[c].shape[0] == tn.n
        if c not in expand:
            continue
        # copies of one (row, prediction time) hold one embedding
        firsts = {}
        times = batch.seed_t_predict[tn.seed_of]
        for i, key in enumerate(zip(tn.rows.tolist(), times.tolist())):
            if i >= batch.reach[c][-2]:
                j = firsts.setdefault(key, i)
                assert np.array_equal(emb[c].values[i], emb[c].values[j])


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("mode", ["learn", "all-edge", "all-node", "random"])
def test_seeds_only_forward_equals_full(mode, layers):
    model, batch = _seeds_only_setup(mode, layers)
    if layers > 1:  # some rows are left out
        assert sum(r[layers - 1] for r in batch.reach.values()) < \
            sum(tn.n for tn in batch.nodes.values())
    _assert_seeds_only_matches_full(model, batch)


def test_seeds_only_fuses_triples_with_no_path_into_kept_rows():
    """Paths into users only beyond hop 1: the last two layers keep users
    but aggregate no path of the triple, and still fuse its zero message."""
    model, batch = _seeds_only_setup("learn", 3)
    tid = next(t.id for t in model.active_triples if t.w_table == "user")
    kept_users = batch.reach["user"][1]
    u, v, w = batch.paths[tid]
    deep = w >= kept_users
    assert deep.any() and not deep.all()
    batch.paths[tid] = (u[deep], v[deep], w[deep])
    _assert_seeds_only_matches_full(model, batch)


def _train_step(model, batch, seeds_only):
    """Output, committed gates, gate diagnostics, final-layer row counts and
    every parameter gradient of one training forward/backward."""
    with T.tape_scope():
        res = model.forward(batch, model.init_gates(), train=True,
                            seeds_only=seeds_only)
        T.backward(T.sumsq(T.tanh(res.output)))
    grads = {}
    for name, p in model.params.items():
        grads[name] = p.grad.copy()
        p.grad[:] = 0.0
    rows = {c: hc.shape[0] for c, hc in res.rows.items()}
    return res.output.values, res.gates_after, res.gate_diag, rows, grads


@pytest.mark.parametrize("budget", [4, 64])
@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("mode", ["learn", "all-edge", "all-node", "random"])
@pytest.mark.parametrize("gen", ["twohop", "completion"])
def test_seeds_only_training_forward_equals_full(gen, mode, layers, budget):
    """A training forward that reads only the seeds' rows computes only the
    live rows, yet its output, running gates, gate diagnostics and every
    gradient equal the full forward's bit for bit."""
    model, batch = _seeds_only_setup(mode, layers, gen, budget)
    out, gates, diag, rows, grads = _train_step(model, batch, False)
    t_out, t_gates, t_diag, t_rows, t_grads = _train_step(model, batch, True)
    assert np.array_equal(t_out, out)
    assert t_gates == gates
    learned = {tr.id for tr in model.active_triples
               if tr.id not in model._constant_gates}
    assert diag.keys() <= learned and t_diag == diag
    assert any(np.any(g) for g in grads.values())
    for name, g in grads.items():
        assert np.array_equal(t_grads[name], g), name
    assert any(t_rows[c] < n for c, n in rows.items())  # some rows left out


def test_only_read_relation_messages_are_built(monkeypatch):
    """A table that fuses reads only its triples' matching relations; the
    plain update of any other table reads every relation into it. No other
    message is built."""
    import rolegnn.model as model_mod
    from rolegnn.synth import gen_random_bundle

    real = model_mod.relation_message
    skipped = 0
    for seed in range(30):
        reg = _reg_for(gen_random_bundle(seed))
        model = Model(reg, ModelConfig(channels=4, layers=1, seed=0),
                      "classification", train_cut=1e18)
        key_of = {id(model.params[f"L0.rel.{key.id}.W"]): key.id
                  for key in model.relations}
        built = []

        def record(W, h_src, src, dst, classes=None, key_of=key_of):
            built.append(key_of[id(W)])
            return real(W, h_src, src, dst, classes)

        monkeypatch.setattr(model_mod, "relation_message", record)
        for table in sorted({tr.w_table for tr in model.active_triples}):
            store = reg.nodes[table]
            seeds = [(int(pk), 1e18) for pk in store.pk[:12]]
            batch = _batch_for(reg, table, seeds, hops=1, budget=8)
            built.clear()
            model.forward(batch, model.init_gates(), train=False)
            fusing = [tr for tr in model.active_triples
                      if tr.id in batch.paths]
            fused = {tr.w_table for tr in fusing}
            read = {tr.matching_relation().id for tr in fusing}
            wanted = {key.id for key in model.relations
                      if key.id in batch.edges
                      and (key.dst_table not in fused or key.id in read)}
            assert sorted(built) == sorted(wanted), (seed, table)
            skipped += sum(key.id in batch.edges and key.id not in wanted
                           for key in model.relations)
    assert skipped >= 5
