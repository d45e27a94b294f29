import hashlib

import numpy as np
import pytest

from rolegnn.config import hop_budget
from rolegnn.errors import GraphError
from rolegnn.rdb import (ColumnSpec, ForeignKeySpec, LabelRecords, TableSpec,
                         build_database)
from rolegnn.sampler import SamplerConfig, make_epoch_batches, sample_batch
from rolegnn.schema_graph import (RoleAssignment, build_schema_graph,
                                  construct_reg, enumerate_edge_triples)
from rolegnn.synth import (BASE_TIME, DAY, gen_completion_chain,
                           gen_random_bundle, gen_twohop)
from rolegnn.training import roles_for_mode


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
        np.testing.assert_array_equal(a.nodes[t].seed_of, b.nodes[t].seed_of)
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
        assert (times[finite] <= batch.seed_t_predict[tn.seed_of][finite]).all()
    for tid, (u_idx, v_idx, w_idx) in batch.paths.items():
        pr = reg.paths[tid]
        tn_v = batch.nodes[pr.triple.v_table]
        times = reg.nodes[pr.triple.v_table].times[tn_v.rows[v_idx]]
        cut = batch.seed_t_predict[tn_v.seed_of[v_idx]]
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
                row, when = tn.rows[i], batch.seed_t_predict[tn.seed_of[i]]
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


# ---------------------------------------------------------------------------
# pinned output: every array of sampled batches, byte for byte
# ---------------------------------------------------------------------------

# (role, num_hops, neighbor_samples, allow_future); 8 truncates, 2**20 does not
_PINNED_CASES = [("learn", 1, 8, False), ("learn", 2, 8, False),
                 ("learn", 3, 8, False), ("learn", 2, 8, True),
                 ("learn", 1, 2 ** 20, False), ("learn", 2, 2 ** 20, False),
                 ("learn", 3, 2 ** 20, True), ("node", 3, 8, False)]


def _pinned_batch(role, num_hops, neighbor_samples, allow_future):
    db, task = gen_twohop(60, 20, 300, 1.0, 0)
    recs = task.labels["train"]
    seeds = [(int(recs.entity[i]), float(recs.t_predict[i])) for i in range(16)]
    seeds.append(seeds[3])  # a repeated seed gets its own tree
    cfg = SamplerConfig(neighbor_samples, num_hops, 5, allow_future=allow_future)
    return sample_batch(_reg(db, role), seeds, cfg, "user")


def _digest(named: list[tuple[str, np.ndarray]]) -> str:
    h = hashlib.sha256()
    for name, arr in named:
        arr = np.ascontiguousarray(arr)
        h.update(f"{name}|{arr.dtype.str}|{arr.shape}|".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _batch_digests(b) -> dict[str, str]:
    nodes = [("seed_rows", b.seed_rows), ("seed_t_predict", b.seed_t_predict),
             ("seed_locals", b.seed_locals),
             ("counts", np.asarray([b.neighbor_count, b.path_count]))]
    for t in sorted(b.nodes):
        tn = b.nodes[t]
        nodes += [(f"{t}.rows", tn.rows),
                  (f"{t}.t_predict", b.seed_t_predict[tn.seed_of]),
                  (f"{t}.seed_of", tn.seed_of)]
    return {
        "nodes": _digest(nodes),
        "edges": _digest([(f"{k}.{i}", a) for k in sorted(b.edges)
                          for i, a in enumerate(b.edges[k])]),
        "paths": _digest([(f"{k}.{i}", a) for k in sorted(b.paths)
                          for i, a in enumerate(b.paths[k])]),
        "reach": _digest([(t, np.asarray(b.reach[t], dtype=np.int64))
                          for t in sorted(b.reach)]),
        "complete": _digest([(t, b.complete[t]) for t in sorted(b.complete)]),
    }


_PINNED_DIGESTS = {  # recorded before the sampler kept its keys in local order
    ('learn', 1, 8, False): {
        "nodes": "3dd9235ed77acbe4957080dabd5bdae5d352baa10603b3923c1b3b41a8e48d1b",
        "edges": "cc0364fb341bccd6fb1d3622e7656b538c4c7bea12c807857ae11750a1e15a10",
        "paths": "4170724d4e85be123d06d59d6fc71e8f60bcdeed96400736dc7b67a5052592fc",
        "reach": "4bb6c5a5a24592882e98e17ab01dcec0daa29964d8dcec593b89e45bab272f03",
        "complete": "95be8d4bade113d3f20d71ca961f1eb2fa3a91f68e5b2c3bde129961dc0603fc",
    },
    ('learn', 2, 8, False): {
        "nodes": "7277ab030e33fe4bea9ae847f07cbf0127be0d5a9b3a12ed319c848eb1e9722e",
        "edges": "18a55b6d29beb8a1e910735b3c4028ce3d99cd307f5ff1521d219f34b1ec7020",
        "paths": "fe7938f86b27cb23cb3ad67303134ac2567879cc08fb8a2f34874b038665dd69",
        "reach": "dfb37becfb0914e207d25be807154bb2ebcaeae12041bc58c3b0688a6245d541",
        "complete": "18ed4b79e30767c862ab9893491171dc373df6341fcb35737921690136c4d5b8",
    },
    ('learn', 3, 8, False): {
        "nodes": "f451d4099b704319e22ada2bc344881530bb088ed4270d35f9ce749f4a34d4fd",
        "edges": "b7d5ff1e39a9ddaa2af4e4050a2a2407025a0d18a7d43514817075f855c4538f",
        "paths": "562b1a29dc2e4711c2525e97c01bda3d38499e57d8b69711158bb27375e1878a",
        "reach": "738f8cf41734abf1153bf56405ceb527a95dbdfcb1dae519028a6ee87c6c04e8",
        "complete": "c7bdcb60d31ffd38c418e4ee086a7fdb670a550f9f230cb6704654ba8df244b9",
    },
    ('learn', 2, 8, True): {
        "nodes": "7277ab030e33fe4bea9ae847f07cbf0127be0d5a9b3a12ed319c848eb1e9722e",
        "edges": "18a55b6d29beb8a1e910735b3c4028ce3d99cd307f5ff1521d219f34b1ec7020",
        "paths": "fe7938f86b27cb23cb3ad67303134ac2567879cc08fb8a2f34874b038665dd69",
        "reach": "dfb37becfb0914e207d25be807154bb2ebcaeae12041bc58c3b0688a6245d541",
        "complete": "18ed4b79e30767c862ab9893491171dc373df6341fcb35737921690136c4d5b8",
    },
    ('learn', 1, 1048576, False): {
        "nodes": "75bfac2c5f83c3d9f39b2562cb8e2e585b0b6e1d1ca8c9f59263cd229c6c5dbb",
        "edges": "938eca6dd4a5a8aa7a31948f8e7f79c17a2d98f656544f661c960b118a423ffd",
        "paths": "19c947c552bc97bf6ddd61891dd0d2270b12aa6e220e961e05e890d1a1b1a84e",
        "reach": "169d2449a1c1f6ff12a9701f76f317fec6d8869607182d3749dcaddf553e10bc",
        "complete": "d15f5ca214f6f22bb35f0f81401c124ebdb55018b75f164478b684b4aeda592b",
    },
    ('learn', 2, 1048576, False): {
        "nodes": "6746d1147fb697bbbafbce133dcef1d11fa5eaa0786f05f2d992013c1bbe281a",
        "edges": "d843228379296b02e337da49c6c41c5be7f2b4646d4dc9631a147c662f417d00",
        "paths": "4863168066b3457e87f35b90668cca61cb4de5a864f1ef3153d9a39ee639fb1a",
        "reach": "5a1820ea5b903aeb2db5684e455bbeaf2d26bd5d1a7a795f0fed864abaf4cd44",
        "complete": "efd2c5522062fd6ec154d6db01d5a004b439ea5f9f764cb6ceab8d3febf8c9bd",
    },
    ('learn', 3, 1048576, True): {
        "nodes": "9a642051a6d4037b29fa5b9a098da4d29f266895051531579bfc15e8632e84dc",
        "edges": "54091542961976d7acc4460888240f5bc35de6dd4ba32c6e88d91bc9b2e479f0",
        "paths": "bb73aecb3bfade0ac75948d97a94c6805e6f8e7c6c77b8c5c481283a306618fe",
        "reach": "dfef61a380358d4defb874d0db440c5d942ae2c783b744fa29c05ac715bb3a2b",
        "complete": "cc0dc839e9c278699ba70d052ecf8ea244fc7835e444abe9c2c0e19d380f1d06",
    },
    ('node', 3, 8, False): {
        "nodes": "b0b43a0b2da855f4ee1e2bedb1c67dc707ab86f43db28efeb7f942d599b9af20",
        "edges": "872675669f20d1c095a4b40599b84a232c09797f9a9793c270c1d7db2353e0b3",
        "paths": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "reach": "8bf0c570b703e8cfa6458a8481b7aa7b84d190f020c2f56fc1729004139a4357",
        "complete": "f66f578478edfa9baccb605199bbc223d10c047c75cbcdb65132f5b0d874da28",
    },
}


@pytest.mark.parametrize("case", _PINNED_CASES, ids=lambda c: "{}-{}hop-n{}{}".format(
    *c[:3], "-future" if c[3] else ""))
def test_sampled_arrays_pinned_byte_for_byte(case):
    """Node, edge, path, reach and completeness arrays equal those recorded
    when each table's keys were sorted into local order at the end."""
    batch = _pinned_batch(*case)
    assert _batch_digests(batch) == _PINNED_DIGESTS[case]
    for src, dst in batch.edges.values():  # packed (src, dst) strictly increasing
        packed = src * (int(dst.max()) + 1) + dst
        assert (np.diff(packed) > 0).all()
    assert batch.neighbor_count > 0 and (batch.path_count > 0) == (case[0] == "learn")
    truncated = not all(done.all() for done in batch.complete.values())
    assert truncated == (case[2] == 8)


def _generator_batch_inputs(gen):
    """A generator's database and 24 (pk, prediction time) seeds of one of
    its tables. A random bundle seeds the w table of its first triple."""
    if gen == "twohop":
        db, task = gen_twohop(120, 30, 400, 1.0, 0)
    elif gen == "completion_chain":
        db, task = gen_completion_chain((200, 100, 60), 1)
    else:
        db = gen_random_bundle(int(gen[len("random-"):]))
        table = enumerate_edge_triples(build_schema_graph(db))[0].w_table
        pk = db.table(table).pk[:24]
        return db, table, [(int(p), float(BASE_TIME + 400 * DAY)) for p in pk]
    recs = task.labels["test"]
    return db, task.entity_table, [
        (int(recs.entity[i]), float(recs.t_predict[i]))
        for i in range(min(24, len(recs)))]


@pytest.mark.parametrize("budget", [4, 64])
@pytest.mark.parametrize("mode", ["learn", "all-edge", "all-node", "random"])
@pytest.mark.parametrize("gen", ["twohop", "completion_chain", "random-3",
                                 "random-29"])
def test_every_w_local_with_a_path_has_a_matching_edge(gen, mode, budget):
    """A drawn path (u, v, w) has t_v <= t_predict and v references w, so
    the same draw finds v admissible for the matching relation: each w local
    a path ends in also has an edge of that relation, which the model's node
    branch reads."""
    db, table, seeds = _generator_batch_inputs(gen)
    sg = build_schema_graph(db)
    roles = roles_for_mode(enumerate_edge_triples(sg), mode, seed=3)
    reg = construct_reg(db, sg, roles)
    checked = 0
    for hops in (1, 2, 3):
        cfg = SamplerConfig(neighbor_samples=budget, num_hops=hops, seed=hops)
        batch = sample_batch(reg, seeds, cfg, table)
        for tr in reg.active_triples:
            if tr.id not in batch.paths:
                continue
            w_with_path = np.unique(batch.paths[tr.id][2])
            _, dst = batch.edges[tr.matching_relation().id]
            assert np.isin(w_with_path, dst).all(), (tr.id, hops)
            checked += len(w_with_path)
    assert checked or mode == "all-node"
