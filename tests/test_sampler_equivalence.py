"""The array-per-hop sampler against the per-node loop it replaced.

Where no draw truncates, both take every admissible slot, so the sampled
sets must agree exactly. Where draws truncate, the RNG streams differ; the
checks there are the draw contract (min(count, budget) distinct admissible
slots per target) and causality.
"""

from collections import Counter

import numpy as np
import pytest

from rolegnn import sampler
from rolegnn.config import hop_budget
from rolegnn.errors import GraphError
from rolegnn.kernels import admissible_counts, lookup_positions
from rolegnn.sampler import BatchSubgraph, SamplerConfig, TypeNodes, sample_batch
from rolegnn.schema_graph import (RoleAssignment, build_schema_graph,
                                  construct_reg, enumerate_edge_triples)
from rolegnn.synth import gen_twohop


# ---------------------------------------------------------------------------
# the replaced implementation, kept as the oracle
# ---------------------------------------------------------------------------

class _Builder:
    def __init__(self):
        self.index = {}
        self.rows = {}
        self.seed_of = {}

    def local(self, table, seed_idx, row):
        idx = self.index.setdefault(table, {})
        key = (seed_idx, row)
        if key in idx:
            return idx[key], False
        local = len(self.rows.setdefault(table, []))
        idx[key] = local
        self.rows[table].append(row)
        self.seed_of.setdefault(table, []).append(seed_idx)
        return local, True

    def freeze(self):
        return {t: TypeNodes(np.asarray(self.rows[t], dtype=np.int64),
                             np.asarray(self.seed_of[t], dtype=np.int64))
                for t in self.rows}


def _sample_prefix(rng, lo, count, budget):
    if count <= budget:
        return np.arange(lo, lo + count, dtype=np.int64)
    return lo + np.sort(rng.choice(count, size=budget, replace=False).astype(np.int64))


def _oracle_sample_batch(reg, seeds, cfg, entity_table, rng=None):
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    store = reg.nodes[entity_table]
    seed_pk = np.asarray([s[0] for s in seeds], dtype=np.int64)
    seed_t = np.asarray([s[1] for s in seeds], dtype=np.float64)
    seed_rows = lookup_positions(store.pk, seed_pk)
    if (seed_rows < 0).any():
        missing = int(seed_pk[int(np.flatnonzero(seed_rows < 0)[0])])
        raise GraphError(f"seed entity {missing} not in graph table {entity_table!r}")

    builder = _Builder()
    seed_locals = np.empty(len(seeds), dtype=np.int64)
    frontier = []
    for si in range(len(seeds)):
        local, _ = builder.local(entity_table, si, int(seed_rows[si]))
        seed_locals[si] = local
        frontier.append((entity_table, int(seed_rows[si]), local))

    relation_keys = sorted(reg.relation_keys, key=lambda k: k.id)
    active_triples = sorted(
        (t for t in reg.triples if reg.roles.role(t.id) != "node"),
        key=lambda t: t.id)

    edges, paths = {}, {}
    neighbor_count = path_count = 0
    for hop in range(cfg.num_hops):
        budget = max(hop_budget(cfg.neighbor_samples, hop), 1)
        path_budget = cfg.neighbor_samples
        next_frontier = []
        by_type = {}
        for table, row, local in frontier:
            by_type.setdefault(table, []).append((row, local))

        for key in relation_keys:
            targets = by_type.get(key.dst_table)
            if not targets:
                continue
            indptr, nbr_rows, nbr_times = reg.adjacency(key)
            t_rows = np.asarray([r for r, _ in targets], dtype=np.int64)
            t_locals = [l for _, l in targets]
            seed_of = builder.seed_of[key.dst_table]
            t_cut = seed_t[[seed_of[l] for l in t_locals]]
            if cfg.allow_future:
                counts = (indptr[t_rows + 1] - indptr[t_rows]).astype(np.int64)
            else:
                counts = admissible_counts(indptr, nbr_times, t_rows, t_cut)
            for i, local in enumerate(t_locals):
                c = int(counts[i])
                if c == 0:
                    continue
                slots = _sample_prefix(rng, int(indptr[t_rows[i]]), c, budget)
                si = seed_of[local]
                eset = edges.setdefault(key.id, set())
                for s in slots:
                    src_local, fresh = builder.local(key.src_table, si,
                                                     int(nbr_rows[s]))
                    if (src_local, local) not in eset:
                        eset.add((src_local, local))
                        neighbor_count += 1
                    if fresh:
                        next_frontier.append((key.src_table, int(nbr_rows[s]), src_local))

        for triple in active_triples:
            targets = by_type.get(triple.w_table)
            if not targets:
                continue
            pr = reg.paths[triple.id]
            indptr, inst_idx, inst_times = reg.path_adjacency(triple.id)
            t_rows = np.asarray([r for r, _ in targets], dtype=np.int64)
            t_locals = [l for _, l in targets]
            seed_of = builder.seed_of[triple.w_table]
            t_cut = seed_t[[seed_of[l] for l in t_locals]]
            if cfg.allow_future:
                counts = (indptr[t_rows + 1] - indptr[t_rows]).astype(np.int64)
            else:
                counts = admissible_counts(indptr, inst_times, t_rows, t_cut)
            plist = paths.setdefault(triple.id, [])
            for i, local in enumerate(t_locals):
                c = int(counts[i])
                if c == 0:
                    continue
                slots = _sample_prefix(rng, int(indptr[t_rows[i]]), c, path_budget)
                si = seed_of[local]
                for s in slots:
                    inst = int(inst_idx[s])
                    u_local, fresh_u = builder.local(triple.u_table, si,
                                                     int(pr.u_pos[inst]))
                    v_local, fresh_v = builder.local(triple.v_table, si,
                                                     int(pr.v_pos[inst]))
                    plist.append((u_local, v_local, local))
                    path_count += 1
                    if fresh_u:
                        next_frontier.append((triple.u_table, int(pr.u_pos[inst]), u_local))
                    if fresh_v:
                        next_frontier.append((triple.v_table, int(pr.v_pos[inst]), v_local))
        frontier = next_frontier

    edge_arrays = {}
    for key_id, eset in edges.items():
        if eset:
            arr = np.asarray(sorted(eset), dtype=np.int64)
            edge_arrays[key_id] = (arr[:, 0], arr[:, 1])
    path_arrays = {}
    for tid, plist in paths.items():
        if plist:
            arr = np.asarray(plist, dtype=np.int64)
            path_arrays[tid] = (arr[:, 0], arr[:, 1], arr[:, 2])
    return BatchSubgraph(
        entity_table=entity_table, seed_rows=seed_rows.astype(np.int64),
        seed_t_predict=seed_t, seed_locals=seed_locals,
        nodes=builder.freeze(), edges=edge_arrays, paths=path_arrays,
        neighbor_count=neighbor_count, path_count=path_count)


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def _twohop_reg():
    db, task = gen_twohop(60, 20, 300, 1.0, 0)
    sg = build_schema_graph(db)
    reg = construct_reg(
        db, sg, RoleAssignment.uniform(enumerate_edge_triples(sg), "learn"))
    recs = task.labels["train"]
    seeds = [(int(recs.entity[i]), float(recs.t_predict[i])) for i in range(24)]
    seeds.append(seeds[0])  # a repeated seed gets its own tree
    return reg, seeds


def _max_degree(reg) -> int:
    csrs = [reg.adjacency(k)[0] for k in reg.relation_keys]
    csrs += [reg.path_adjacency(t.id)[0] for t in reg.triples]
    return max(int(np.diff(indptr).max()) for indptr in csrs if len(indptr) > 1)


def _node_set(b):
    return {(t, int(s), int(r)) for t, tn in b.nodes.items()
            for s, r in zip(tn.seed_of, tn.rows)}


def _edge_sets(reg, b):
    keys = {k.id: k for k in reg.relation_keys}
    out = {}
    for kid, (src, dst) in b.edges.items():
        s_nodes, d_nodes = b.nodes[keys[kid].src_table], b.nodes[keys[kid].dst_table]
        assert (d_nodes.seed_of[dst] == s_nodes.seed_of[src]).all()
        out[kid] = {(int(s_nodes.seed_of[s]), int(s_nodes.rows[s]), int(d_nodes.rows[d]))
                    for s, d in zip(src, dst)}
    return out


def _path_multisets(reg, b):
    out = {}
    for tid, (u, v, w) in b.paths.items():
        tr = reg.paths[tid].triple
        nu, nv, nw = (b.nodes[t] for t in (tr.u_table, tr.v_table, tr.w_table))
        out[tid] = Counter(zip(nw.seed_of[w].tolist(), nu.rows[u].tolist(),
                               nv.rows[v].tolist(), nw.rows[w].tolist()))
    return out


@pytest.mark.parametrize("num_hops,allow_future", [(1, False), (2, False),
                                                   (3, False), (2, True)])
def test_set_exact_where_no_draw_truncates(num_hops, allow_future):
    reg, seeds = _twohop_reg()
    deepest = hop_budget(2 ** 20, num_hops - 1)
    assert deepest >= _max_degree(reg)  # every admissible count fits its budget
    cfg = SamplerConfig(neighbor_samples=2 ** 20, num_hops=num_hops, seed=4,
                        allow_future=allow_future)
    got = sample_batch(reg, seeds, cfg, "user")
    want = _oracle_sample_batch(reg, seeds, cfg, "user")

    assert _node_set(got) == _node_set(want)
    assert _edge_sets(reg, got) == _edge_sets(reg, want)
    assert _path_multisets(reg, got) == _path_multisets(reg, want)
    assert (got.neighbor_count, got.path_count) == (want.neighbor_count, want.path_count)
    assert got.path_count > 0 and got.neighbor_count > 0
    assert sorted(got.nodes) == sorted(want.nodes)
    np.testing.assert_array_equal(got.nodes["user"].rows[got.seed_locals],
                                  got.seed_rows)
    np.testing.assert_array_equal(got.nodes["user"].seed_of[got.seed_locals],
                                  np.arange(len(seeds)))
    for tn in got.nodes.values():  # each local's time is its seed's
        assert ((tn.seed_of >= 0) & (tn.seed_of < len(seeds))).all()
    for src, dst in got.edges.values():  # sorted by (src, dst), no repeats
        order = np.lexsort((dst, src))
        np.testing.assert_array_equal(order, np.arange(len(src)))
        assert len(set(zip(src.tolist(), dst.tolist()))) == len(src)


def test_truncated_draws_take_min_count_budget_distinct_admissible_slots(monkeypatch):
    reg, seeds = _twohop_reg()
    calls = []
    real = sampler._draw

    def spy(rng, lo, counts, budget):
        owner, slot = real(rng, lo, counts, budget)
        calls.append((lo, counts, budget, owner, slot))
        return owner, slot

    monkeypatch.setattr(sampler, "_draw", spy)
    cfg = SamplerConfig(neighbor_samples=4, num_hops=2, seed=9)
    batch = sample_batch(reg, seeds, cfg, "user")
    assert len(calls) > 2
    truncated = 0
    for lo, counts, budget, owner, slot in calls:
        truncated += int((counts > budget).sum())
        np.testing.assert_array_equal(np.bincount(owner, minlength=len(counts)),
                                      np.minimum(counts, budget))
        assert (slot >= lo[owner]).all() and (slot < (lo + counts)[owner]).all()
        assert len(set(zip(owner.tolist(), slot.tolist()))) == len(slot)
    assert truncated > 0

    # hop one into the seeds, checked from the batch alone
    for key in reg.relation_keys:
        if key.dst_table != "user" or key.id not in batch.edges:
            continue
        indptr, nbr_rows, nbr_times = reg.adjacency(key)
        src, dst = batch.edges[key.id]
        is_seed = np.isin(dst, batch.seed_locals)
        per_seed = np.bincount(dst[is_seed], minlength=len(seeds))[batch.seed_locals]
        admissible = admissible_counts(indptr, nbr_times, batch.seed_rows,
                                       batch.seed_t_predict)
        np.testing.assert_array_equal(per_seed, np.minimum(admissible, 4))
        src_times = reg.nodes[key.src_table].times[batch.nodes[key.src_table].rows[src]]
        user_t = batch.seed_t_predict[batch.nodes["user"].seed_of]
        assert (src_times <= user_t[dst]).all()
