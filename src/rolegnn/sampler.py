"""Temporal neighbor sampling and mini-batch subgraph assembly.

Batches are disjoint unions of per-seed trees: a row pulled in by two seeds
gets one local copy per seed, so the causality constraint (element timestamp
<= that seed's prediction time) is checked per element. Hop budgets follow
B // 2**hop with the path budget independent of the node budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import hop_budget
from .errors import GraphError
from .kernels import (admissible_counts, lookup_positions, unique_inverse,
                      unique_pairs)
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
    rows: np.ndarray     # positions into the node store
    seed_of: np.ndarray  # owning seed index per local node; its prediction
                         # time is the batch's seed_t_predict[seed_of]

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
    # table -> [locals reached by hop 0, 1, ..., num_hops]. Locals are numbered
    # in discovery order, so the rows reached by hop k are a prefix.
    reach: dict[str, list[int]] = field(default_factory=dict)
    # table -> per local, True unless one of its draws took fewer than all
    # its admissible neighbours or paths (a last-hop local draws none)
    complete: dict[str, np.ndarray] = field(default_factory=dict)


_NO_NODES = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def _draw(rng: np.random.Generator, lo: np.ndarray, counts: np.ndarray,
          budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform draw without replacement of min(count, budget) adjacency slots
    from each target's admissible prefix [lo, lo + count).

    Returns (target index, slot) per drawn slot, grouped by target. A target
    over budget keeps the `budget` slots with the smallest i.i.d. random keys.
    """
    owner = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    rank = np.arange(len(owner), dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    slot = lo[owner] + rank
    over = np.flatnonzero(counts[owner] > budget)
    if len(over):
        shuffled = over[np.lexsort((rng.random(len(over)), owner[over]))]
        rank[shuffled] = rank[over]  # rank within the target, in key order
    keep = rank < budget
    return owner[keep], slot[keep]


def _localize(index: tuple[np.ndarray, np.ndarray], keys: np.ndarray,
              grow: bool = True
              ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Local ids of (seed, row) keys given a table's sorted (keys, locals)
    index. Keys not yet in the batch get the next ids in key order.

    Returns (local per key, the fresh keys, the index with them added, or
    the index as it was when not `grow`).
    """
    known, known_locals = index
    uniq, inverse = unique_inverse(keys)
    pos = np.searchsorted(known, uniq)
    fresh = np.append(known, -1)[pos] != uniq  # keys are >= 0
    locals_ = np.empty(len(uniq), dtype=np.int64)
    locals_[~fresh] = known_locals[pos[~fresh]]
    locals_[fresh] = len(known) + np.arange(int(fresh.sum()), dtype=np.int64)
    if grow:
        index = (np.insert(known, pos[fresh], uniq[fresh]),
                 np.insert(known_locals, pos[fresh], locals_[fresh]))
    return locals_[inverse], uniq[fresh], index


def sample_batch(reg: RelationalEntityGraph, seeds: list[tuple[int, float]],
                 cfg: SamplerConfig, entity_table: str,
                 rng: np.random.Generator | None = None) -> BatchSubgraph:
    """Assemble one mini-batch subgraph for the given (entity pk, t_predict) seeds.

    Each hop expands the frontier it started from: one admissible-count call
    and one draw per relation key and per active triple, then one dedup per
    table of the drawn (seed, row) pairs, keyed `seed_idx * n_rows + row`.
    Pairs new to the batch form the next frontier, so each is expanded once.
    Each table keeps its keys in local order as they are numbered (the
    seeds, then each hop's fresh keys in key order) beside a sorted index
    for lookups; the last hop's fresh keys are not indexed, since nothing
    looks them up.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    store = reg.nodes[entity_table]
    seed_pk = np.asarray([s[0] for s in seeds], dtype=np.int64)
    seed_t = np.asarray([s[1] for s in seeds], dtype=np.float64)
    seed_rows = lookup_positions(store.pk, seed_pk)
    if (seed_rows < 0).any():
        missing = int(seed_pk[int(np.flatnonzero(seed_rows < 0)[0])])
        raise GraphError(f"seed entity {missing} not in graph table {entity_table!r}")

    n_rows = {t: s.n_rows for t, s in reg.nodes.items()}
    seed_locals = np.arange(len(seeds), dtype=np.int64)
    seed_keys = seed_locals * n_rows[entity_table] + seed_rows  # ascending
    index = {entity_table: (seed_keys, seed_locals)}  # table -> sorted (keys, locals)
    numbered = {entity_table: [seed_keys]}  # table -> key chunks in local order
    frontier = {entity_table: (seed_rows, seed_locals, seed_locals)}  # (rows, seed, local)

    edges: dict[str, list[tuple[np.ndarray, ...]]] = {}
    paths: dict[str, list[tuple[np.ndarray, ...]]] = {}
    truncated: dict[str, list[np.ndarray]] = {}  # table -> locals over budget

    def expand(table, indptr, times, budget):
        rows, seed_of, locals_ = frontier[table]
        if cfg.allow_future:
            counts = indptr[rows + 1] - indptr[rows]
        else:
            counts = admissible_counts(indptr, times, rows, seed_t[seed_of])
        truncated.setdefault(table, []).append(locals_[counts > budget])
        owner, slot = _draw(rng, indptr[rows], counts, budget)
        return seed_of[owner], locals_[owner], slot

    def want(table, seed_of, rows):
        chunks = wanted.setdefault(table, [])
        chunks.append(seed_of * n_rows[table] + rows)
        return table, len(chunks) - 1

    path_budget = cfg.neighbor_samples  # independent of the node budget
    reached = [{entity_table: len(seeds)}]  # per hop: table -> locals so far
    for hop in range(cfg.num_hops):
        budget = max(hop_budget(cfg.neighbor_samples, hop), 1)
        wanted: dict[str, list[np.ndarray]] = {}  # table -> drawn key chunks
        drawn = []  # (edges or paths, id, [(table, chunk)], dst locals)

        for key in reg.relation_keys:
            if key.dst_table in frontier:
                indptr, nbr_rows, nbr_times = reg.adjacency(key)
                seed_of, dst, slot = expand(key.dst_table, indptr, nbr_times, budget)
                drawn.append((edges, key.id,
                              [want(key.src_table, seed_of, nbr_rows[slot])], dst))
        for triple in reg.active_triples:
            if triple.w_table in frontier:
                pr = reg.paths[triple.id]
                indptr, inst_idx, inst_times = reg.path_adjacency(triple.id)
                seed_of, w, slot = expand(triple.w_table, indptr, inst_times,
                                          path_budget)
                inst = inst_idx[slot]
                drawn.append((paths, triple.id,
                              [want(triple.u_table, seed_of, pr.u_pos[inst]),
                               want(triple.v_table, seed_of, pr.v_pos[inst])], w))

        last = hop == cfg.num_hops - 1
        frontier = {}
        resolved = {}  # table -> local ids per drawn chunk
        for table, chunks in wanted.items():
            known = index.get(table, _NO_NODES)
            locals_, fresh, index[table] = _localize(known, np.concatenate(chunks),
                                                     grow=not last)
            resolved[table] = np.split(locals_, np.cumsum([len(c) for c in chunks])[:-1])
            numbered.setdefault(table, []).append(fresh)
            if len(fresh) and not last:
                frontier[table] = (fresh % n_rows[table], fresh // n_rows[table],
                                   len(known[0]) + np.arange(len(fresh), dtype=np.int64))
        for out, ident, refs, dst in drawn:
            out.setdefault(ident, []).append(
                tuple(resolved[t][c] for t, c in refs) + (dst,))
        reached.append({t: sum(map(len, chunks)) for t, chunks in numbered.items()})

    nodes = {}
    complete = {}
    for table, chunks in numbered.items():
        keys = np.concatenate(chunks)
        if len(keys):
            nodes[table] = TypeNodes(keys % n_rows[table], keys // n_rows[table])
            complete[table] = np.ones(len(keys), dtype=bool)
            if table in truncated:
                complete[table][np.concatenate(truncated[table])] = False
    edge_arrays = {}
    for key_id, parts in edges.items():
        src, dst = (np.concatenate(col) for col in zip(*parts))
        if len(src):
            edge_arrays[key_id] = unique_pairs(src, dst)  # sorted by (src, dst)
    path_arrays = {}
    for tid, parts in paths.items():
        cols = tuple(np.concatenate(col) for col in zip(*parts))
        if len(cols[0]):
            path_arrays[tid] = cols

    return BatchSubgraph(
        entity_table=entity_table, seed_rows=seed_rows.astype(np.int64),
        seed_t_predict=seed_t, seed_locals=seed_locals,
        nodes=nodes, edges=edge_arrays, paths=path_arrays,
        neighbor_count=sum(len(s) for s, _ in edge_arrays.values()),
        path_count=sum(len(u) for u, _, _ in path_arrays.values()),
        reach={t: [r.get(t, 0) for r in reached] for t in nodes},
        complete=complete)


def make_epoch_batches(labels: LabelRecords, batch_size: int,
                       seed: int) -> list[np.ndarray]:
    """Deterministically shuffled index batches; the last partial batch is kept."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(labels))
    return [order[i:i + batch_size]
            for i in range(0, len(order), batch_size)]
