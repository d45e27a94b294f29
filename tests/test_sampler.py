import numpy as np
import pytest

from rolegnn.config import hop_budget
from rolegnn.errors import GraphError
from rolegnn.rdb import (ColumnSpec, ForeignKeySpec, LabelRecords, TableSpec,
                         build_database)
from rolegnn.sampler import SamplerConfig, make_epoch_batches, sample_batch
from rolegnn.schema_graph import (RoleAssignment, build_schema_graph,
                                  construct_reg, enumerate_edge_triples)
from rolegnn.synth import gen_twohop


def _chain_db(n_mid=200, n_leaf_per_mid=1, mid_time=1_000):
    """seeded table w <- v <- u with controllable fan-in and timestamps."""
    specs = [
        TableSpec("w", (ColumnSpec("w_id", "integer"),), primary_key="w_id"),
        TableSpec("v", (ColumnSpec("v_id", "integer"),
                        ColumnSpec("w_id", "integer"),
                        ColumnSpec("at", "datetime")),
                  primary_key="v_id",
                  foreign_keys=(ForeignKeySpec("w_id", "w"),),
                  time_column="at"),
        TableSpec("u", (ColumnSpec("u_id", "integer"),
                        ColumnSpec("v_id", "integer")),
                  primary_key="u_id",
                  foreign_keys=(ForeignKeySpec("v_id", "v"),)),
    ]
    v_rows = [{"v_id": i + 1, "w_id": 1, "at": mid_time + i} for i in range(n_mid)]
    u_rows = []
    uid = 1
    for i in range(n_mid):
        for _ in range(n_leaf_per_mid):
            u_rows.append({"u_id": uid, "v_id": i + 1})
            uid += 1
    db = build_database(specs, {"w": [{"w_id": 1}], "v": v_rows, "u": u_rows})
    sg = build_schema_graph(db)
    return db, construct_reg(db, sg, RoleAssignment.uniform(
        enumerate_edge_triples(sg), "node"))


def _reg(db, role="learn"):
    sg = build_schema_graph(db)
    triples = enumerate_edge_triples(sg)
    return construct_reg(db, sg, RoleAssignment.uniform(triples, role))


def test_future_neighbor_excluded():
    _, reg = _chain_db(n_mid=3, mid_time=5_000)
    cfg = SamplerConfig(neighbor_samples=8, num_hops=1, seed=0)
    batch = sample_batch(reg, [(1, 100.0)], cfg, "w")  # before every v row
    assert "v" not in batch.nodes
    batch = sample_batch(reg, [(1, 10_000.0)], cfg, "w")
    assert batch.nodes["v"].n > 0


def test_hop_budget_rule():
    """200 admissible neighbors at each hop: <= 64 at hop one, <= 32 at hop two."""
    _, reg = _chain_db(n_mid=200, n_leaf_per_mid=40)
    cfg = SamplerConfig(neighbor_samples=64, num_hops=2, seed=1)
    batch = sample_batch(reg, [(1, 1e12)], cfg, "w")
    src, dst = batch.edges["v.w_id->w"]
    assert len(dst) <= 64  # hop one into the seed
    counts = np.bincount(batch.edges["u.v_id->v"][1])
    assert counts.max() <= 32  # hop two per v node
    assert hop_budget(64, 0) == 64 and hop_budget(64, 1) == 32


def test_small_neighborhood_taken_exactly_once():
    db, reg = _chain_db(n_mid=10)
    cfg = SamplerConfig(neighbor_samples=64, num_hops=1, seed=2)
    batch = sample_batch(reg, [(1, 1e12)], cfg, "w")
    sampled_rows = sorted(batch.nodes["v"].rows.tolist())
    admissible = sorted(range(10))  # all 10 v rows, one local copy each
    assert sampled_rows == admissible
    src, dst = batch.edges["v.w_id->w"]
    assert len(src) == 10 and len(set(src.tolist())) == 10


def test_bit_identical_determinism():
    db, task = gen_twohop(60, 20, 300, 1.0, 0)
    reg = _reg(db)
    recs = task.labels["train"]
    seeds = [(int(recs.entity[i]), float(recs.t_predict[i])) for i in range(16)]
    cfg = SamplerConfig(neighbor_samples=16, num_hops=2, seed=5)
    a = sample_batch(reg, seeds, cfg, "user")
    b = sample_batch(reg, seeds, cfg, "user")
    assert sorted(a.nodes) == sorted(b.nodes)
    for t in a.nodes:
        np.testing.assert_array_equal(a.nodes[t].rows, b.nodes[t].rows)
        np.testing.assert_array_equal(a.nodes[t].t_predict, b.nodes[t].t_predict)
    assert sorted(a.edges) == sorted(b.edges)
    for k in a.edges:
        np.testing.assert_array_equal(a.edges[k][0], b.edges[k][0])
        np.testing.assert_array_equal(a.edges[k][1], b.edges[k][1])
    for k in a.paths:
        for col in range(3):
            np.testing.assert_array_equal(a.paths[k][col], b.paths[k][col])


def test_causality_invariant_all_elements():
    db, task = gen_twohop(60, 20, 300, 1.0, 1)
    reg = _reg(db)
    recs = task.labels["train"]
    # tighten prediction times so plenty of reviews are inadmissible
    seeds = [(int(recs.entity[i]), 1_600_000_000 + 40 * 86400.0)
             for i in range(20)]
    cfg = SamplerConfig(neighbor_samples=32, num_hops=2, seed=3)
    batch = sample_batch(reg, seeds, cfg, "user")
    for t, tn in batch.nodes.items():
        times = reg.nodes[t].times[tn.rows]
        finite = np.isfinite(times)
        assert (times[finite] <= tn.t_predict[finite]).all()
    for tid, (u_idx, v_idx, w_idx) in batch.paths.items():
        pr = reg.paths[tid]
        tn_v = batch.nodes[pr.triple.v_table]
        times = reg.nodes[pr.triple.v_table].times[tn_v.rows[v_idx]]
        cut = tn_v.t_predict[v_idx]
        finite = np.isfinite(times)
        assert (times[finite] <= cut[finite]).all()


def test_exchangeable_sampling_chi_square():
    _, reg = _chain_db(n_mid=20)
    counts = np.zeros(20)
    trials = 400
    budget = 10
    for s in range(trials):
        cfg = SamplerConfig(neighbor_samples=budget, num_hops=1, seed=1000 + s)
        batch = sample_batch(reg, [(1, 1e12)], cfg, "w")
        for row in batch.nodes["v"].rows:
            counts[row] += 1
    expected = trials * budget / 20.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # df = 19; generous bound (p < 1e-4 would be ~50)
    assert chi2 < 60.0, chi2


def test_unknown_seed_entity():
    db, task = gen_twohop(20, 10, 60, 1.0, 0)
    reg = _reg(db)
    with pytest.raises(GraphError, match="999999"):
        sample_batch(reg, [(999999, 1e12)],
                     SamplerConfig(neighbor_samples=4, num_hops=1, seed=0),
                     "user")


def test_epoch_batches_sizes_and_determinism():
    recs = LabelRecords(entity=np.arange(10), t_predict=np.zeros(10),
                        label=np.zeros(10))
    batches = make_epoch_batches(recs, 4, seed=3)
    assert [len(b) for b in batches] == [4, 4, 2]
    again = make_epoch_batches(recs, 4, seed=3)
    np.testing.assert_array_equal(np.concatenate(batches),
                                  np.concatenate(again))


def test_epoch_batches_distinct_seeds_distinct_orders():
    recs = LabelRecords(entity=np.arange(20), t_predict=np.zeros(20),
                        label=np.zeros(20))
    perms = set()
    for seed in range(100):
        order = tuple(np.concatenate(make_epoch_batches(recs, 20, seed)).tolist())
        perms.add(order)
    assert len(perms) == 100


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(neighbor_samples=0, num_hops=1, seed=0)
    with pytest.raises(ValueError):
        SamplerConfig(neighbor_samples=4, num_hops=0, seed=0)


def test_allow_future_switch_sees_everything():
    _, reg = _chain_db(n_mid=5, mid_time=5_000)
    cfg = SamplerConfig(neighbor_samples=8, num_hops=1, seed=0,
                        allow_future=True)
    batch = sample_batch(reg, [(1, 100.0)], cfg, "w")
    assert batch.nodes["v"].n == 5


def _bfs_hops(reg, batch) -> dict[str, np.ndarray]:
    """Per table, each local's hop distance from the seeds over the drawn
    edges (dst -> src) and paths (w -> u, v); -1 where unreached."""
    keys = {k.id: k for k in reg.relation_keys}
    triples = {t.id: t for t in reg.triples}
    nbrs: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for kid, (src, dst) in batch.edges.items():
        key = keys[kid]
        for s, d in zip(src.tolist(), dst.tolist()):
            nbrs.setdefault((key.dst_table, d), []).append((key.src_table, s))
    for tid, (u, v, w) in batch.paths.items():
        tr = triples[tid]
        for a, b, c in zip(u.tolist(), v.tolist(), w.tolist()):
            nbrs.setdefault((tr.w_table, c), []).extend(
                [(tr.u_table, a), (tr.v_table, b)])
    hops = {t: np.full(tn.n, -1) for t, tn in batch.nodes.items()}
    frontier = [(batch.entity_table, int(s)) for s in batch.seed_locals]
    for node in frontier:
        hops[node[0]][node[1]] = 0
    hop = 0
    while frontier:
        hop += 1
        fresh = []
        for node in frontier:
            for t, i in nbrs.get(node, []):
                if hops[t][i] < 0:
                    hops[t][i] = hop
                    fresh.append((t, i))
        frontier = fresh
    return hops


@pytest.mark.parametrize("role,num_hops", [("learn", 1), ("learn", 2),
                                           ("learn", 3), ("node", 3)])
def test_reach_prefixes_are_first_reached_per_hop(role, num_hops):
    db, task = gen_twohop(60, 20, 300, 1.0, 0)
    reg = _reg(db, role)
    recs = task.labels["train"]
    seeds = [(int(recs.entity[i]), float(recs.t_predict[i])) for i in range(12)]
    seeds.append(seeds[0])  # a repeated seed gets its own tree
    batch = sample_batch(reg, seeds, SamplerConfig(8, num_hops, 4), "user")
    hops = _bfs_hops(reg, batch)
    assert sorted(batch.reach) == sorted(batch.nodes)
    for t, reach in batch.reach.items():
        assert len(reach) == num_hops + 1
        assert reach[-1] == batch.nodes[t].n
        for k in range(num_hops + 1):
            lo = reach[k - 1] if k else 0
            assert (hops[t][lo:reach[k]] == k).all(), (t, k)
            assert int((hops[t] == k).sum()) == reach[k] - lo, (t, k)


def _expected_complete(reg, batch, cfg) -> dict[str, np.ndarray]:
    """Per table, True per local unless some draw from it had more
    admissible neighbours or paths than its budget, counted one by one."""
    out = {}
    for t, tn in batch.nodes.items():
        done = np.ones(tn.n, dtype=bool)
        reach = batch.reach[t]
        for hop in range(cfg.num_hops):  # locals [reach[hop-1], reach[hop])
            lo = reach[hop - 1] if hop else 0
            budget = max(hop_budget(cfg.neighbor_samples, hop), 1)
            for i in range(lo, reach[hop]):
                row, when = tn.rows[i], tn.t_predict[i]
                for key in reg.relation_keys:
                    if key.dst_table == t:
                        indptr, _, times = reg.adjacency(key)
                        seg = times[indptr[row]:indptr[row + 1]]
                        n = len(seg) if cfg.allow_future else np.count_nonzero(seg <= when)
                        done[i] &= n <= budget
                for tr in reg.active_triples:
                    if tr.w_table == t:
                        pr = reg.paths[tr.id]
                        mine = pr.w_pos == row
                        if not cfg.allow_future:
                            mine &= pr.t_admissible <= when
                        done[i] &= np.count_nonzero(mine) <= cfg.neighbor_samples
        out[t] = done
    return out


@pytest.mark.parametrize("num_hops,allow_future", [(1, False), (2, False),
                                                   (3, False), (2, True)])
def test_complete_matches_brute_force_admissible_counts(num_hops, allow_future):
    db, task = gen_twohop(60, 20, 300, 1.0, 0)
    reg = _reg(db)
    recs = task.labels["train"]
    seeds = [(int(recs.entity[i]), float(recs.t_predict[i])) for i in range(16)]
    cfg = SamplerConfig(8, num_hops, 2, allow_future=allow_future)
    batch = sample_batch(reg, seeds, cfg, "user")
    want = _expected_complete(reg, batch, cfg)
    assert sorted(batch.complete) == sorted(batch.nodes)
    for t, done in batch.complete.items():
        np.testing.assert_array_equal(done, want[t], err_msg=t)
    flags = np.concatenate([d[:batch.reach[t][-2]] for t, d in want.items()])
    assert flags.any() and not flags.all()  # both kinds are drawn


def test_draws_unchanged_by_the_completeness_record():
    """Node, edge and path counts as drawn before `complete` was recorded."""
    db, task = gen_twohop(120, 30, 400, 1.0, 0)
    reg = _reg(db)
    recs = task.labels["train"]
    seeds = [(int(recs.entity[i]), float(recs.t_predict[i])) for i in range(24)]
    for hops, neighbors, paths, sizes in [
            (1, 80, 80, (80, 80, 24)),
            (2, 880, 1139, (80, 1098, 887)),
            (3, 5766, 4502, (695, 3473, 917))]:
        batch = sample_batch(reg, seeds, SamplerConfig(16, hops, 7), "user")
        assert (batch.neighbor_count, batch.path_count) == (neighbors, paths)
        assert tuple(batch.nodes[t].n for t in ("product", "review", "user")) == sizes
