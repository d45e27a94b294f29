"""Schema graph, relation triples, and the full-resolution entity graph.

Tables become typed node sets; each foreign key becomes a pair of directed
typed edge sets (forward = referencing row to referenced row, plus a tagged
reverse). Three-table join patterns are materialized as path relations:

    CoOccurrence  u <- v -> w   (v references both endpoints)
    Completion    u -> v -> w   (v mediates)

The u -> v <- w pattern is never generated. Each fact is kept once: a path
relation holds only the join (row positions and admissibility times), and
every table's attributes live in its node store, whatever its role. The
entity graph carries enough provenance (primary keys per row, per-edge origin
rows, direction tags) that the originating database is reconstructed exactly,
whatever the role assignment; `strip_provenance` demonstrates the failure
mode without it.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import PathCapExceeded, ProvenanceError, RoleError
from .kernels import lookup_positions
from .rdb import ColumnData, RelationalDatabase, TableSpec, from_columns


# ---------------------------------------------------------------------------
# schema graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchemaArc:
    """One declared foreign key: src table holds the column, arrow points FK -> PK."""
    src_table: str
    fk_column: str
    dst_table: str


@dataclass(frozen=True)
class SchemaGraph:
    vertices: tuple[str, ...]
    arcs: tuple[SchemaArc, ...]


def build_schema_graph(db: RelationalDatabase) -> SchemaGraph:
    arcs = []
    for name in db.table_names:
        for fk in db.specs[name].foreign_keys:
            arcs.append(SchemaArc(name, fk.column, fk.references))
    return SchemaGraph(tuple(db.table_names), tuple(arcs))


# ---------------------------------------------------------------------------
# relation keys (directed typed edge sets) and triples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelationKey:
    """A directed message relation derived from one foreign key."""
    holder: str       # table holding the foreign key
    fk_column: str
    referenced: str
    reverse: bool = False  # False: messages flow holder -> referenced

    @property
    def src_table(self) -> str:
        return self.referenced if self.reverse else self.holder

    @property
    def dst_table(self) -> str:
        return self.holder if self.reverse else self.referenced

    def flipped(self) -> "RelationKey":
        return replace(self, reverse=not self.reverse)

    @property
    def id(self) -> str:
        arrow = "<-" if self.reverse else "->"
        return f"{self.holder}.{self.fk_column}{arrow}{self.referenced}"


@dataclass(frozen=True)
class EdgeRelationTriple:
    """A three-table message pattern with v as the intermediate."""
    pattern: str  # "cooccurrence" | "completion"
    u_table: str
    v_table: str
    w_table: str
    # cooccurrence: both columns live on v (fk_u -> u_table, fk_w -> w_table)
    # completion:   fk_u lives on u (-> v_table), fk_w lives on v (-> w_table)
    fk_u: str
    fk_w: str

    @property
    def id(self) -> str:
        if self.pattern == "cooccurrence":
            return (f"co:{self.u_table}<~{self.v_table}.{self.fk_u}"
                    f"|{self.v_table}.{self.fk_w}~>{self.w_table}")
        return (f"comp:{self.u_table}.{self.fk_u}~>{self.v_table}"
                f"|{self.v_table}.{self.fk_w}~>{self.w_table}")

    def orientation_partner_id(self) -> str | None:
        """Id of the same CoOccurrence pair traversed in the other direction."""
        if self.pattern != "cooccurrence":
            return None
        return replace(self, u_table=self.w_table, w_table=self.u_table,
                       fk_u=self.fk_w, fk_w=self.fk_u).id

    def matching_relation(self) -> RelationKey:
        """The one-hop node relation (v -> w) this triple competes with."""
        return RelationKey(self.v_table, self.fk_w, self.w_table, reverse=False)


def enumerate_edge_triples(sg: SchemaGraph) -> list[EdgeRelationTriple]:
    """All CoOccurrence (both orientations) and Completion triples.

    Self-referential arcs never participate; the u -> v <- w pattern is never
    generated.
    """
    triples: list[EdgeRelationTriple] = []
    usable = [a for a in sg.arcs if a.src_table != a.dst_table]
    by_src: dict[str, list[SchemaArc]] = {}
    for arc in usable:
        by_src.setdefault(arc.src_table, []).append(arc)

    for v, arcs in by_src.items():
        for a1, a2 in itertools.permutations(arcs, 2):
            triples.append(EdgeRelationTriple(
                "cooccurrence", u_table=a1.dst_table, v_table=v,
                w_table=a2.dst_table, fk_u=a1.fk_column, fk_w=a2.fk_column))
    for a1 in usable:
        for a2 in by_src.get(a1.dst_table, []):
            triples.append(EdgeRelationTriple(
                "completion", u_table=a1.src_table, v_table=a1.dst_table,
                w_table=a2.dst_table, fk_u=a1.fk_column, fk_w=a2.fk_column))
    return triples


def is_gate(value) -> bool:
    """Whether `value` is a number in [0, 1]: not a bool, NaN or infinity."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and 0.0 <= value <= 1.0)


@dataclass
class RoleAssignment:
    """Role per relation triple: "node", "edge" (gate 1.0), "learn", or a
    fixed gate, a number in [0, 1]. A triple without a role is "node", and
    plain FK relations always are."""
    roles: dict[str, str | float] = field(default_factory=dict)

    @staticmethod
    def uniform(triples: list[EdgeRelationTriple],
                role: str | float) -> "RoleAssignment":
        return RoleAssignment({t.id: role for t in triples})

    def role(self, triple_id: str) -> str | float:
        return self.roles.get(triple_id, "node")

    def fixed_gate(self, triple_id: str) -> float | None:
        """The gate a triple's role fixes: 1.0 for "edge", a fixed gate's
        number; None for "node" and "learn"."""
        role = self.role(triple_id)
        if role == "edge":
            return 1.0
        return None if isinstance(role, str) else float(role)

    def validate(self, triples: list[EdgeRelationTriple]) -> None:
        """RoleError naming the first triple that is not one of `triples`
        or whose role is none of the four kinds."""
        known = {t.id for t in triples}
        for tid in sorted(self.roles):
            role = self.roles[tid]
            if tid not in known:
                raise RoleError(f"role assignment references unknown "
                                f"triple {tid!r}")
            if not (role in ("node", "edge", "learn") if isinstance(role, str)
                    else is_gate(role)):
                raise RoleError(f"role of triple {tid!r} must be 'node', "
                                f"'edge', 'learn' or a number in [0, 1], "
                                f"got {role!r}")


# ---------------------------------------------------------------------------
# entity graph storage
# ---------------------------------------------------------------------------

class NodeStore:
    """Rows of one table, ordered by primary key.

    Attributes hold non-key columns only; key structure lives on the edges.
    """

    def __init__(self, pk: np.ndarray, times: np.ndarray,
                 attrs: dict[str, ColumnData]):
        self.pk = pk
        self.times = times
        self.attrs = attrs

    @property
    def n_rows(self) -> int:
        return len(self.times)


class EdgeSet:
    """Instances of one foreign key: positions into the two node stores."""

    def __init__(self, key: RelationKey, holder_rows: np.ndarray,
                 ref_rows: np.ndarray):
        self.key = key
        self.holder_rows = holder_rows
        self.ref_rows = ref_rows

    @property
    def n_edges(self) -> int:
        return len(self.ref_rows)


class PathRelation:
    """Materialized exact join of one triple: positions into the u, v and w
    node stores. The intermediate rows' attributes (the edge features) stay
    in v's node store, whatever the triple's role.
    """

    def __init__(self, triple: EdgeRelationTriple, u_pos: np.ndarray,
                 v_pos: np.ndarray, w_pos: np.ndarray, t_admissible: np.ndarray):
        self.triple = triple
        self.u_pos = u_pos
        self.v_pos = v_pos
        self.w_pos = w_pos
        self.t_admissible = t_admissible  # max(u, v) timestamps per instance

    @property
    def n_instances(self) -> int:
        return len(self.v_pos)


class RelationalEntityGraph:
    def __init__(self, specs: dict[str, TableSpec], triples: list[EdgeRelationTriple],
                 roles: RoleAssignment, nodes: dict[str, NodeStore],
                 edges: dict[str, EdgeSet], paths: dict[str, PathRelation],
                 null_link_counts: dict[str, int]):
        self.specs = specs
        self.triples = triples
        self.roles = roles
        self.nodes = nodes
        self.edges = edges
        self.paths = paths
        self.null_link_counts = null_link_counts
        self._adjacency: dict[str, tuple] = {}
        self._path_adjacency: dict[str, tuple] = {}
        # both directions of every foreign key, and the triples with paths
        # (role other than "node"); each in id order, the order sampling
        # and the model visit them in
        self.relation_keys: list[RelationKey] = sorted(
            (k for es in edges.values() for k in (es.key, es.key.flipped())),
            key=lambda k: k.id)
        self.active_triples: list[EdgeRelationTriple] = sorted(
            (t for t in triples if roles.role(t.id) != "node"),
            key=lambda t: t.id)

    @property
    def provenance(self) -> bool:
        """Whether every node store keeps its rows' primary keys."""
        return all(s.pk is not None for s in self.nodes.values())

    def summary(self) -> dict:
        return {
            "nodes": {t: s.n_rows for t, s in self.nodes.items()},
            "edges": {k: es.n_edges for k, es in self.edges.items()},
            "paths": {k: p.n_instances for k, p in self.paths.items()},
            "null_links": dict(self.null_link_counts),
            "provenance": self.provenance,
        }

    def strip_provenance(self) -> "RelationalEntityGraph":
        """Copy with row identities removed; reconstruction becomes impossible."""
        nodes = {t: NodeStore(None, s.times, s.attrs)  # type: ignore[arg-type]
                 for t, s in self.nodes.items()}
        return RelationalEntityGraph(self.specs, self.triples, self.roles,
                                     nodes, self.edges, self.paths,
                                     self.null_link_counts)

    # -- adjacency caches for the sampler ---------------------------------

    def adjacency(self, key: RelationKey) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR over dst nodes: (indptr, src rows, src timestamps), each dst
        segment sorted by (timestamp, src row)."""
        if key.id in self._adjacency:
            return self._adjacency[key.id]
        es = self.edges[RelationKey(key.holder, key.fk_column, key.referenced).id]
        if key.reverse:
            src, dst = es.ref_rows, es.holder_rows
        else:
            src, dst = es.holder_rows, es.ref_rows
        src_times = self.nodes[key.src_table].times[src] if len(src) else np.empty(0)
        adj = _csr(dst, src_times, src, self.nodes[key.dst_table].n_rows)
        self._adjacency[key.id] = adj
        return adj

    def path_adjacency(self, triple_id: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR over w nodes: (indptr, instance indices, admissibility times)."""
        if triple_id in self._path_adjacency:
            return self._path_adjacency[triple_id]
        pr = self.paths[triple_id]
        adj = _csr(pr.w_pos, pr.t_admissible,
                   np.arange(pr.n_instances, dtype=np.int64),
                   self.nodes[pr.triple.w_table].n_rows)
        self._path_adjacency[triple_id] = adj
        return adj


def _csr(segments: np.ndarray, times: np.ndarray, items: np.ndarray,
         n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR over `n` segments of (item, time) entries: (indptr, items,
    times), each segment sorted by (time, item)."""
    order = np.lexsort((items, times, segments))
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(segments, minlength=n))
    return (indptr, items[order].astype(np.int64, copy=False),
            times[order].astype(np.float64, copy=False))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _node_store(db: RelationalDatabase, name: str) -> tuple[NodeStore, np.ndarray]:
    spec = db.specs[name]
    data = db.data[name]
    order = np.argsort(data.pk, kind="stable")
    pk = data.pk[order].astype(np.int64)
    times = db.timestamps(name)[order]
    attrs = {}
    for col in spec.columns:
        if col.name == spec.primary_key or col.name in spec.fk_columns:
            continue
        cd = data.cols[col.name]
        if cd.kind == "categorical":
            values = [cd.values[int(i)] for i in order]
        else:
            values = cd.values[order]
        attrs[col.name] = ColumnData(cd.kind, values, cd.mask[order],
                                     list(cd.vocab) if cd.vocab is not None else None)
    return NodeStore(pk, times, attrs), order


def construct_reg(db: RelationalDatabase, sg: SchemaGraph, roles: RoleAssignment,
                  path_cap: int = 5_000_000) -> RelationalEntityGraph:
    """Materialize node sets, both FK edge directions, and exact path joins."""
    triples = enumerate_edge_triples(sg)
    roles.validate(triples)

    # FK columns reordered to node-store (pk-sorted) row order
    nodes: dict[str, NodeStore] = {}
    fk_cols: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}
    for name in db.table_names:
        nodes[name], order = _node_store(db, name)
        for fk in db.specs[name].foreign_keys:
            cd = db.data[name].cols[fk.column]
            fk_cols[(name, fk.column)] = (cd.values[order].astype(np.int64),
                                          cd.mask[order].copy())

    edges: dict[str, EdgeSet] = {}
    null_links: dict[str, int] = {}
    for arc in sg.arcs:
        key = RelationKey(arc.src_table, arc.fk_column, arc.dst_table)
        values, mask = fk_cols[(arc.src_table, arc.fk_column)]
        holder_rows = np.flatnonzero(mask).astype(np.int64)
        ref_rows = lookup_positions(nodes[arc.dst_table].pk, values[holder_rows])
        if (ref_rows < 0).any():
            bad = int(holder_rows[int(np.flatnonzero(ref_rows < 0)[0])])
            raise ProvenanceError(
                f"dangling key during construction: {arc.src_table}.{arc.fk_column}"
                f" row {bad}")
        edges[key.id] = EdgeSet(key, holder_rows, ref_rows)
        null_links[key.id] = int((~mask).sum())

    paths: dict[str, PathRelation] = {}
    for triple in triples:
        if triple.pattern == "cooccurrence":
            vals_u, mask_u = fk_cols[(triple.v_table, triple.fk_u)]
            vals_w, mask_w = fk_cols[(triple.v_table, triple.fk_w)]
            both = mask_u & mask_w
            projected = int(both.sum())
            if projected > path_cap:
                raise PathCapExceeded(triple.id, projected, path_cap)
            v_pos = np.flatnonzero(both).astype(np.int64)
            u_pos = lookup_positions(nodes[triple.u_table].pk, vals_u[v_pos])
            w_pos = lookup_positions(nodes[triple.w_table].pk, vals_w[v_pos])
        else:
            vals_uv, mask_uv = fk_cols[(triple.u_table, triple.fk_u)]
            vals_vw, mask_vw = fk_cols[(triple.v_table, triple.fk_w)]
            u_all = np.flatnonzero(mask_uv).astype(np.int64)
            v_of_u = lookup_positions(nodes[triple.v_table].pk, vals_uv[u_all])
            keep = mask_vw[v_of_u]
            projected = int(keep.sum())
            if projected > path_cap:
                raise PathCapExceeded(triple.id, projected, path_cap)
            u_pos = u_all[keep]
            v_pos = v_of_u[keep]
            w_pos = lookup_positions(nodes[triple.w_table].pk, vals_vw[v_pos])

        t_admissible = np.maximum(nodes[triple.v_table].times[v_pos],
                                  nodes[triple.u_table].times[u_pos])
        paths[triple.id] = PathRelation(triple, u_pos, v_pos, w_pos,
                                        t_admissible)

    return RelationalEntityGraph(dict(db.specs), triples, roles, nodes, edges,
                                 paths, null_links)


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def invert_reg(reg: RelationalEntityGraph) -> RelationalDatabase:
    """Reconstruct the database; exact under canonical_form.

    Every table, whatever its role, reads its attributes from its node store
    and its foreign keys from the edge sets.
    """
    if not reg.provenance:
        raise ProvenanceError("entity graph carries no provenance; the original "
                              "database cannot be reconstructed")

    columns: dict[str, dict[str, ColumnData]] = {}
    for name, spec in reg.specs.items():
        store = reg.nodes[name]
        n = store.n_rows
        cols = {spec.primary_key: ColumnData("integer", store.pk.copy(),
                                             np.ones(n, dtype=bool))}
        for col_name, cd in store.attrs.items():  # includes the time column
            values = (list(cd.values) if cd.kind == "categorical"
                      else cd.values.copy())
            cols[col_name] = ColumnData(cd.kind, values, cd.mask.copy())
        for fk in spec.foreign_keys:
            es = reg.edges[RelationKey(name, fk.column, fk.references).id]
            values = np.zeros(n, dtype=np.int64)
            mask = np.zeros(n, dtype=bool)
            values[es.holder_rows] = reg.nodes[fk.references].pk[es.ref_rows]
            mask[es.holder_rows] = True
            cols[fk.column] = ColumnData("integer", values, mask)
        columns[name] = cols
    return from_columns(list(reg.specs.values()), columns)


# ---------------------------------------------------------------------------
# structure-learning incompatibility demos (pruning / addition)
# ---------------------------------------------------------------------------

Graph = tuple[frozenset, frozenset]


def _graph(vertices, edges) -> Graph:
    return (frozenset(vertices), frozenset(frozenset(e) for e in edges))


def demo_prune_counterexample() -> tuple[Graph, Graph, Graph]:
    """Two distinct graphs whose pruned images coincide.

    The criterion 'drop edges outside the kept core' is not recorded in the
    output, so the pruning map cannot be inverted.
    """
    v = ("a", "b", "c")
    core = [("a", "b")]
    g1 = _graph(v, core + [("b", "c")])
    g2 = _graph(v, core + [("a", "c")])
    pruned = _graph(v, core)
    assert g1 != g2 and prune_to_core(g1, pruned[1]) == prune_to_core(g2, pruned[1])
    return g1, g2, pruned


def prune_to_core(g: Graph, core: frozenset) -> Graph:
    return (g[0], g[1] & core)


def close_common_neighbors(g: Graph) -> Graph:
    """Deterministic edge addition: connect vertices sharing a neighbor."""
    verts, edges = g
    adj = {x: set() for x in verts}
    for e in edges:
        x, y = tuple(e)
        adj[x].add(y)
        adj[y].add(x)
    added = set()
    for x, y in itertools.combinations(sorted(verts), 2):
        if frozenset((x, y)) not in edges and adj[x] & adj[y]:
            added.add(frozenset((x, y)))
    return (verts, edges | added)


def demo_add_counterexample() -> tuple[Graph, Graph, Graph]:
    """Two distinct originals producing the same augmented graph when the
    inferred edges are not tagged."""
    v = ("a", "b", "c")
    g1 = _graph(v, [("a", "b"), ("b", "c")])
    g2 = _graph(v, [("a", "b"), ("b", "c"), ("a", "c")])
    aug1 = close_common_neighbors(g1)
    aug2 = close_common_neighbors(g2)
    assert g1 != g2 and aug1 == aug2
    return g1, g2, aug1


def all_three_node_graphs() -> list[frozenset]:
    """Edge sets of every labeled graph on {a, b, c}."""
    pairs = [frozenset(p) for p in itertools.combinations(("a", "b", "c"), 2)]
    out = []
    for r in range(len(pairs) + 1):
        for combo in itertools.combinations(pairs, r):
            out.append(frozenset(combo))
    return out


def enumerate_pruning_maps() -> tuple[int, int]:
    """Check every pruning map on 3-node graphs for collisions.

    A pruning map sends each edge set E to some subset of E. Returns
    (number of non-identity maps, number of those with a collision); the two
    counts must match - only the identity (which prunes nothing and is
    excluded by the strict-subset precondition) is collision-free.
    """
    graphs = all_three_node_graphs()
    choices_per_graph = []
    for g in graphs:
        subsets = []
        for r in range(len(g) + 1):
            for combo in itertools.combinations(sorted(g, key=sorted), r):
                subsets.append(frozenset(combo))
        choices_per_graph.append(subsets)

    non_identity = 0
    collisions = 0
    for assignment in itertools.product(*choices_per_graph):
        if all(img == g for img, g in zip(assignment, graphs)):
            continue  # identity: prunes nothing, excluded
        non_identity += 1
        if len(set(assignment)) < len(assignment):
            collisions += 1
    return non_identity, collisions
