"""Temporal neighbor sampling and mini-batch subgraph assembly.

Batches are disjoint unions of per-seed trees: a row pulled in by two seeds
gets one local copy per seed, so the causality constraint (element timestamp
<= that seed's prediction time) is checked per element. Hop budgets follow
B // 2**hop with the path budget independent of the node budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import hop_budget
from .errors import GraphError
from .kernels import admissible_counts, lookup_positions
from .rdb import LabelRecords
from .schema_graph import RelationalEntityGraph


@dataclass(frozen=True)
class SamplerConfig:
    neighbor_samples: int
    num_hops: int
    seed: int
    allow_future: bool = False  # test-only switch: disables causality

    def __post_init__(self):
        if self.neighbor_samples < 1:
            raise ValueError("neighbor_samples must be >= 1")
        if self.num_hops < 1:
            raise ValueError("num_hops must be >= 1")


@dataclass
class TypeNodes:
    rows: np.ndarray       # positions into the node store
    t_predict: np.ndarray  # owning seed's prediction time per local node
    seed_of: np.ndarray    # owning seed index per local node

    @property
    def n(self) -> int:
        return len(self.rows)


@dataclass
class BatchSubgraph:
    entity_table: str
    seed_rows: np.ndarray
    seed_t_predict: np.ndarray
    seed_locals: np.ndarray
    nodes: dict[str, TypeNodes]
    edges: dict[str, tuple[np.ndarray, np.ndarray]]          # key id -> (src, dst)
    paths: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]  # triple -> (u, v, w)
    neighbor_count: int = 0
    path_count: int = 0


class _Builder:
    def __init__(self):
        self.index: dict[str, dict[tuple[int, int], int]] = {}
        self.rows: dict[str, list[int]] = {}
        self.t_predict: dict[str, list[float]] = {}
        self.seed_of: dict[str, list[int]] = {}

    def local(self, table: str, seed_idx: int, row: int, t_pred: float) -> tuple[int, bool]:
        idx = self.index.setdefault(table, {})
        key = (seed_idx, row)
        if key in idx:
            return idx[key], False
        local = len(self.rows.setdefault(table, []))
        idx[key] = local
        self.rows[table].append(row)
        self.t_predict.setdefault(table, []).append(t_pred)
        self.seed_of.setdefault(table, []).append(seed_idx)
        return local, True

    def freeze(self) -> dict[str, TypeNodes]:
        return {t: TypeNodes(np.asarray(self.rows[t], dtype=np.int64),
                             np.asarray(self.t_predict[t], dtype=np.float64),
                             np.asarray(self.seed_of[t], dtype=np.int64))
                for t in self.rows}


def _sample_prefix(rng: np.random.Generator, lo: int, count: int, budget: int) -> np.ndarray:
    """Uniform without replacement from adjacency slots [lo, lo+count)."""
    if count <= budget:
        return np.arange(lo, lo + count, dtype=np.int64)
    return lo + np.sort(rng.choice(count, size=budget, replace=False).astype(np.int64))


def sample_batch(reg: RelationalEntityGraph, seeds: list[tuple[int, float]],
                 cfg: SamplerConfig, entity_table: str,
                 rng: np.random.Generator | None = None) -> BatchSubgraph:
    """Assemble one mini-batch subgraph for the given (entity pk, t_predict) seeds."""
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
    frontier: list[tuple[str, int, int]] = []  # (table, row, local) per new node
    for si in range(len(seeds)):
        local, _ = builder.local(entity_table, si, int(seed_rows[si]), float(seed_t[si]))
        seed_locals[si] = local
        frontier.append((entity_table, int(seed_rows[si]), local))

    relation_keys = sorted(reg.relation_keys, key=lambda k: k.id)
    active_triples = sorted(
        (t for t in reg.triples if reg.roles.role(t.id) != "node"),
        key=lambda t: t.id)

    edges: dict[str, set[tuple[int, int]]] = {}
    paths: dict[str, list[tuple[int, int, int]]] = {}
    neighbor_count = 0
    path_count = 0

    for hop in range(cfg.num_hops):
        budget = max(hop_budget(cfg.neighbor_samples, hop), 1)
        path_budget = cfg.neighbor_samples  # independent of the node budget
        next_frontier: list[tuple[str, int, int]] = []

        by_type: dict[str, list[tuple[int, int]]] = {}
        for table, row, local in frontier:
            by_type.setdefault(table, []).append((row, local))

        for key in relation_keys:
            targets = by_type.get(key.dst_table)
            if not targets:
                continue
            indptr, nbr_rows, nbr_times = reg.adjacency(key)
            t_rows = np.asarray([r for r, _ in targets], dtype=np.int64)
            t_locals = [l for _, l in targets]
            t_pred = builder.t_predict[key.dst_table]
            t_cut = np.asarray([t_pred[l] for l in t_locals], dtype=np.float64)
            if cfg.allow_future:
                counts = (indptr[t_rows + 1] - indptr[t_rows]).astype(np.int64)
            else:
                counts = admissible_counts(indptr, nbr_times, t_rows, t_cut)
            seed_of = builder.seed_of[key.dst_table]
            for i, local in enumerate(t_locals):
                c = int(counts[i])
                if c == 0:
                    continue
                slots = _sample_prefix(rng, int(indptr[t_rows[i]]), c, budget)
                si = seed_of[local]
                tp = t_pred[local]
                eset = edges.setdefault(key.id, set())
                for s in slots:
                    src_local, fresh = builder.local(key.src_table, si,
                                                     int(nbr_rows[s]), tp)
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
            t_pred = builder.t_predict[triple.w_table]
            t_cut = np.asarray([t_pred[l] for l in t_locals], dtype=np.float64)
            if cfg.allow_future:
                counts = (indptr[t_rows + 1] - indptr[t_rows]).astype(np.int64)
            else:
                counts = admissible_counts(indptr, inst_times, t_rows, t_cut)
            seed_of = builder.seed_of[triple.w_table]
            plist = paths.setdefault(triple.id, [])
            for i, local in enumerate(t_locals):
                c = int(counts[i])
                if c == 0:
                    continue
                slots = _sample_prefix(rng, int(indptr[t_rows[i]]), c, path_budget)
                si = seed_of[local]
                tp = t_pred[local]
                for s in slots:
                    inst = int(inst_idx[s])
                    u_local, fresh_u = builder.local(triple.u_table, si,
                                                     int(pr.u_pos[inst]), tp)
                    v_local, fresh_v = builder.local(triple.v_table, si,
                                                     int(pr.v_pos[inst]), tp)
                    plist.append((u_local, v_local, local))
                    path_count += 1
                    if fresh_u:
                        next_frontier.append((triple.u_table, int(pr.u_pos[inst]), u_local))
                    if fresh_v:
                        next_frontier.append((triple.v_table, int(pr.v_pos[inst]), v_local))

        frontier = next_frontier

    edge_arrays = {}
    for key_id, eset in edges.items():
        if not eset:
            continue
        arr = np.asarray(sorted(eset), dtype=np.int64)
        edge_arrays[key_id] = (arr[:, 0], arr[:, 1])
    path_arrays = {}
    for tid, plist in paths.items():
        if not plist:
            continue
        arr = np.asarray(plist, dtype=np.int64)
        path_arrays[tid] = (arr[:, 0], arr[:, 1], arr[:, 2])

    return BatchSubgraph(
        entity_table=entity_table, seed_rows=seed_rows.astype(np.int64),
        seed_t_predict=seed_t, seed_locals=seed_locals,
        nodes=builder.freeze(), edges=edge_arrays, paths=path_arrays,
        neighbor_count=neighbor_count, path_count=path_count)


def make_epoch_batches(labels: LabelRecords, batch_size: int,
                       seed: int) -> list[np.ndarray]:
    """Deterministically shuffled index batches; the last partial batch is kept."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(labels))
    return [order[i:i + batch_size]
            for i in range(0, len(order), batch_size)]
