"""The two-branch relational GNN with learnable table roles.

Per layer, each node type gets a self transform plus mean-aggregated messages
over every foreign-key relation (node branch), while each active triple
contributes a path-convolution message (edge branch): a concatenation map for
co-occurring endpoints, a multiplicative gate for mediated chains. A
relation-conditioned gate blended with a running table-level average weighs
the two branches; fusion sums the blended pairs over triples, and node types
with no active triple keep the plain node-branch update.

Messages are aggregated first where the message map is linear: a mean of
linear maps is the map of the mean, so relation and co-occurrence messages
average the neighbours of each destination row and map only those means.
Each message is then added onto the self term at the rows that received one.

Last-hop rows are computed once per distinct (row, prediction time): they
receive no message, so every layer's embedding of one depends on that pair
alone, and the copies that the per-seed trees hold share one compute row.
The copies of a complete local (one that drew all its admissible neighbours
and paths) hold the same neighbour pairs, so they form a class: layer 0
computes one row per class, its inputs being encodings of those pairs, and
later layers sum each class's neighbours once, correcting each copy for the
few neighbours that differ from it.
"""

from __future__ import annotations

import json
import math
import numbers
import zlib
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import tensor as T
from .config import DEFAULTS, integral, real
from .errors import ShapeError
from .kernels import group_ids
from .sampler import BatchSubgraph, TypeNodes
from .schema_graph import RelationalEntityGraph
from .tensor import Tensor

ACTIVATIONS = {
    "relu": T.relu,
    "tanh": T.tanh,
    "identity": lambda t: t,
}


@dataclass(frozen=True)
class ModelConfig:
    channels: int = DEFAULTS["channels"]
    layers: int = DEFAULTS["layers"]
    dropout: float = DEFAULTS["dropout"]
    alpha: float = DEFAULTS["alpha"]
    mu: float = DEFAULTS["mu"]
    activation: str = "relu"
    cat_dim: int = DEFAULTS["cat_dim"]
    seed: int = 0

    def __post_init__(self):
        for name in ("channels", "layers", "cat_dim", "seed"):
            object.__setattr__(self, name, integral(name, getattr(self, name)))
        for name in ("dropout", "alpha", "mu"):
            object.__setattr__(self, name, real(name, getattr(self, name)))
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        if self.layers < 1:
            raise ValueError(f"layers must be >= 1, got {self.layers}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        for name in ("alpha", "mu"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got "
                                 f"{getattr(self, name)}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class GateState:
    """Running table-level gates, one per active triple; the learned
    structure. Their smoothing settings, alpha and mu, are `ModelConfig`'s."""
    values: dict[str, float]

    def copy(self) -> "GateState":
        return GateState(dict(self.values))

    def to_json(self) -> str:
        return json.dumps({"gates": self.values}, sort_keys=True, indent=2)

    @staticmethod
    def from_dict(d: dict) -> "GateState":
        """Inverse of the parsed `to_json` text; other keys are ignored."""
        return GateState(dict(d["gates"]))


def _param_seed(master: int, name: str) -> int:
    """Stable per-parameter seed: independent of creation order."""
    ss = np.random.SeedSequence([master, zlib.crc32(name.encode())])
    return int(ss.generate_state(1)[0])


# ---------------------------------------------------------------------------
# feature encoding
# ---------------------------------------------------------------------------

class FeatureEncoder:
    """Raw rows to layer-0 embeddings.

    Numeric columns are standardized by statistics over train-visible rows
    (timestamp <= train cut), categorical columns go through learned embedding
    lookups (index 0 reserved for unknown/missing), the row timestamp becomes
    a scaled distance to the prediction time, and nullable columns contribute
    presence bits. Everything is concatenated and linearly projected.
    """

    def __init__(self, reg: RelationalEntityGraph, cfg: ModelConfig,
                 train_cut: float, stats: dict | None = None):
        self.cfg = cfg
        self.train_cut = train_cut
        self.params: dict[str, Tensor] = {}
        self.reg = reg
        self.stats = stats if stats is not None else self._compute_stats(reg)
        self._build_params(reg)
        self.codes = self._category_codes(reg)

    def _compute_stats(self, reg: RelationalEntityGraph) -> dict:
        stats: dict = {"tables": {}, "time_scale": 1.0}
        max_span = 1.0
        for name in sorted(reg.nodes):
            store = reg.nodes[name]
            spec = reg.specs[name]
            visible = store.times <= self.train_cut
            tstats: dict = {"columns": {}, "vocab": {}}
            for col_name in sorted(store.attrs):
                cd = store.attrs[col_name]
                if cd.kind == "categorical":
                    # vocabulary frozen here; unseen values map to index 0
                    tstats["vocab"][col_name] = list(cd.vocab or [])
                    continue
                sel = visible & cd.mask
                vals = np.asarray(cd.values, dtype=np.float64)[sel]
                mean = float(vals.mean()) if len(vals) else 0.0
                std = float(vals.std()) if len(vals) else 0.0
                tstats["columns"][col_name] = {"mean": mean,
                                               "std": std if std > 0 else 1.0}
            if spec.time_column is not None:
                finite = np.isfinite(store.times) & visible
                if finite.any():
                    span = self.train_cut - float(store.times[finite].min())
                    max_span = max(max_span, span)
            stats["tables"][name] = tstats
        stats["time_scale"] = max_span
        return stats

    def _feature_plan(self, reg: RelationalEntityGraph, name: str):
        """Ordered numeric/mask/time slots and categorical columns for a table."""
        spec = reg.specs[name]
        store = reg.nodes[name]
        numeric, categorical = [], []
        for col_name in sorted(store.attrs):
            cd = store.attrs[col_name]
            if cd.kind == "categorical":
                categorical.append(col_name)
            else:
                numeric.append(col_name)
        has_time = spec.time_column is not None
        return numeric, categorical, has_time

    def _raw_dim(self, reg: RelationalEntityGraph, name: str) -> int:
        numeric, categorical, has_time = self._feature_plan(reg, name)
        store = reg.nodes[name]
        dim = 1  # constant slot
        for col_name in numeric:
            dim += 1
            if self._nullable(reg, name, col_name):
                dim += 1
        if has_time:
            dim += 2  # scaled distance to prediction time + presence bit
        for col_name in categorical:
            dim += self.cfg.cat_dim
        return dim

    @staticmethod
    def _nullable(reg: RelationalEntityGraph, table: str, column: str) -> bool:
        return reg.specs[table].column(column).nullable

    def vocab(self, table: str, column: str) -> list[str]:
        return self.stats["tables"][table]["vocab"][column]

    def _build_params(self, reg: RelationalEntityGraph):
        ch = self.cfg.channels
        for name in sorted(reg.nodes):
            _, categorical, _ = self._feature_plan(reg, name)
            for col_name in categorical:
                vocab = self.vocab(name, col_name)
                pname = f"enc.{name}.cat.{col_name}"
                self.params[pname] = T.init_param(
                    (len(vocab) + 1, self.cfg.cat_dim), fan_in=1,
                    seed=_param_seed(self.cfg.seed, pname))
            raw = self._raw_dim(reg, name)
            wname = f"enc.{name}.proj.W"
            self.params[wname] = T.init_param((raw, ch), fan_in=raw,
                                              seed=_param_seed(self.cfg.seed, wname))
            self.params[f"enc.{name}.proj.b"] = T.zeros_param((ch,))

    def _category_codes(self, reg: RelationalEntityGraph) -> dict[tuple[str, str], np.ndarray]:
        """Embedding index of every store row, per categorical (table,
        column): 1 + its position in the frozen vocabulary, 0 if missing or
        unknown. Batches gather from these."""
        codes = {}
        for name in sorted(reg.nodes):
            _, categorical, _ = self._feature_plan(reg, name)
            for col_name in categorical:
                cd = reg.nodes[name].attrs[col_name]
                index = {v: i + 1 for i, v in enumerate(self.vocab(name, col_name))}
                codes[(name, col_name)] = np.fromiter(
                    (index.get(v, 0) if present else 0
                     for v, present in zip(cd.values, cd.mask)),
                    dtype=np.int64, count=len(cd.mask))
        return codes

    def encode(self, batch: BatchSubgraph) -> dict[str, Tensor]:
        """Input embeddings of the batch's nodes, rows of the graph the
        encoder was built with."""
        reg = self.reg
        out: dict[str, Tensor] = {}
        for name in sorted(batch.nodes):
            tn = batch.nodes[name]
            store = reg.nodes[name]
            numeric, categorical, has_time = self._feature_plan(reg, name)
            tstats = self.stats["tables"][name]["columns"]
            cols = [np.ones((tn.n, 1))]
            for col_name in numeric:
                cd = store.attrs[col_name]
                vals = np.asarray(cd.values, dtype=np.float64)[tn.rows]
                mask = cd.mask[tn.rows]
                st = tstats[col_name]
                std_vals = np.where(mask, (vals - st["mean"]) / st["std"], 0.0)
                cols.append(std_vals[:, None])
                if self._nullable(reg, name, col_name):
                    cols.append(mask.astype(np.float64)[:, None])
            if has_time:
                times = store.times[tn.rows]
                present = np.isfinite(times)
                dt = np.where(present,
                              (tn.t_predict - times) / self.stats["time_scale"],
                              0.0)
                cols.append(dt[:, None])
                cols.append(present.astype(np.float64)[:, None])
            parts = [Tensor(np.concatenate(cols, axis=1))]
            for col_name in categorical:
                codes = self.codes[(name, col_name)][tn.rows]
                parts.append(T.take_rows(self.params[f"enc.{name}.cat.{col_name}"],
                                         codes))
            raw = parts[0] if len(parts) == 1 else T.concat(parts, axis=1)
            out[name] = T.linear(raw, self.params[f"enc.{name}.proj.W"],
                                 self.params[f"enc.{name}.proj.b"])
        return out


# ---------------------------------------------------------------------------
# branch primitives (also unit-test surfaces)
# ---------------------------------------------------------------------------

def _finite(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


# what each kind of encoder statistic must be, and the test of it. A value
# within +-1e150, less a mean within +-1e150, over a std or time scale
# within [1e-150, 1e150] stands at most 2e300 from 0: finite
STATS_KINDS = {
    "a number in [1e-150, 1e150]": lambda v: _finite(v) and 1e-150 <= v <= 1e150,
    "a number in [-1e150, 1e150]": lambda v: _finite(v) and abs(v) <= 1e150,
    "a list of strings": lambda v: (isinstance(v, list)
                                    and all(isinstance(s, str) for s in v)),
    "an object": lambda v: isinstance(v, dict),
}


def encoder_stats_paths(reg: RelationalEntityGraph) -> list[tuple[tuple[str, ...], str]]:
    """Key paths into FeatureEncoder.stats that encoding this graph reads,
    each with the STATS_KINDS entry its value must be."""
    paths = [(("time_scale",), "a number in [1e-150, 1e150]")]
    for name in sorted(reg.nodes):
        paths.append((("tables", name, "columns"), "an object"))
        for col_name, cd in sorted(reg.nodes[name].attrs.items()):
            if cd.kind == "categorical":
                paths.append((("tables", name, "vocab", col_name),
                              "a list of strings"))
            else:
                col = ("tables", name, "columns", col_name)
                paths += [(col + ("mean",), "a number in [-1e150, 1e150]"),
                          (col + ("std",), "a number in [1e-150, 1e150]")]
    return paths


def relation_message(W: Tensor, h_src: Tensor, src_idx: np.ndarray,
                     dst_idx: np.ndarray, classes: tuple | None = None
                     ) -> tuple[np.ndarray, Tensor]:
    """Mean of a relation-specific linear map of neighbor embeddings, as
    (destination rows with a neighbor, one message row each). `classes`
    goes to `class_neighbor_mean`."""
    rows, mean = class_neighbor_mean(h_src, src_idx, dst_idx, classes)
    return rows, T.matmul(mean, W)


def class_neighbor_mean(h: Tensor, src: np.ndarray, dst: np.ndarray,
                        classes: tuple[np.ndarray, np.ndarray] | None = None
                        ) -> tuple[np.ndarray, Tensor]:
    """`T.neighbor_mean(h, src, dst)`, summing each class of copies once.

    `classes` = (target, twin). `target` maps every destination local to
    the first copy of its class, one outside a class to itself; the copies
    of a class hold the same neighbour (row, prediction time) keys. `twin`
    maps each non-leaf source, the first len(twin) rows of `h`, to the leaf
    row holding its key, or -1. A leaf row is shared by every copy that
    reaches its key, so a class's sum with each non-leaf source replaced by
    its twin is the same for all its copies: it is taken once, over the
    first copy's edges, and every copy adds h[s] - h[twin[s]] for its own
    non-leaf sources s, then divides by its own count. A class with a
    non-leaf source that has no twin is summed per copy.
    """
    if classes is None:
        return T.neighbor_mean(h, src, dst)
    target, twin = classes
    n = len(target)
    member = (np.bincount(target, minlength=n) > 1)[target]
    fix = member[dst] & (src < len(twin))  # edges whose source differs per copy
    lone = twin[src[fix]] < 0
    if lone.any():
        member &= ~np.isin(target, target[dst[fix][lone]])
        fix &= member[dst]
    if not member[dst].any():
        return T.neighbor_mean(h, src, dst)
    rep = np.where(member, target, np.arange(n))
    present = np.bincount(dst, minlength=n) > 0
    number = np.cumsum(present & (rep == np.arange(n))) - 1  # class of a first copy
    keep = rep[dst] == dst  # the first copies' edges
    own, stand_in = src[fix], twin[src[fix]]
    canon = src.copy()
    canon[fix] = stand_in
    at = (np.cumsum(present) - 1)[dst[fix]]
    return T.neighbor_mean(h, src, dst, (
        canon[keep], number[dst[keep]], number[rep[np.flatnonzero(present)]],
        (np.concatenate([own, stand_in]), np.concatenate([at, at]),
         np.repeat([1.0, -1.0], len(own)))))


def cooccurrence_message(W: Tensor, h_w: Tensor, h_v: Tensor, h_u: Tensor) -> Tensor:
    """Joint message for u <- v -> w instances: W (h_w || h_v || h_u)."""
    return T.matmul(T.concat([h_w, h_v, h_u], axis=1), W)


def completion_message(W1: Tensor, W2: Tensor, fW: Tensor, fb: Tensor,
                       h_w: Tensor, h_v: Tensor, h_u: Tensor) -> Tensor:
    """Mediated message for u -> v -> w: W2 (h_w || sig(f(h_v||h_u)) * W1(h_v||h_u))."""
    vu = T.concat([h_v, h_u], axis=1)
    gate = T.sigmoid(T.linear(vu, fW, fb))
    return T.matmul(T.concat([h_w, T.mul(gate, T.matmul(vu, W1))], axis=1), W2)


def compute_gate(att_W: Tensor, att_b: Tensor, h_n: Tensor, h_e: Tensor,
                 gbar: float, alpha: float, mu: float, train: bool,
                 rows: np.ndarray | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """Per-node adaptive gate, blended gate, and the table-level gate to use.

    During training the returned table-level gate is the freshly updated
    running mean (kept on the tape so the gate head receives gradient); at
    evaluation it is the stored constant. `rows`, when given, lists the row
    of g behind each node the mean runs over, a shared row once per node.
    """
    logits = T.linear(T.concat([h_n, h_e], axis=1), att_W, att_b)
    g_tilde = T.sigmoid(logits)
    g = T.add(T.scale(g_tilde, 1.0 - alpha), Tensor(np.array(alpha * gbar)))
    if train:
        g_all = g if rows is None else T.take_rows(g, rows)
        g_used = T.add(T.scale(T.mean(g_all), 1.0 - mu), Tensor(np.array(mu * gbar)))
    else:
        g_used = Tensor(np.array(gbar))
    return g_tilde, g, g_used


def _first_equal(values: np.ndarray) -> np.ndarray:
    """Per element, the index of the first element equal to it."""
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    starts = np.concatenate(([True], ranked[1:] != ranked[:-1]))
    out = np.empty(len(values), dtype=np.int64)
    out[order] = order[starts][np.cumsum(starts) - 1]
    return out


def fuse(pairs: list[tuple[Tensor, Tensor, Tensor]]) -> Tensor:
    """Sum over relations of (1 - gate) * node branch + gate * edge branch."""
    total = None
    for h_n, h_e, gate in pairs:
        one_minus = T.add(T.scale(gate, -1.0), Tensor(np.array(1.0)))
        term = T.add(T.mul(one_minus, h_n), T.mul(gate, h_e))
        total = term if total is None else T.add(total, term)
    if total is None:
        raise ShapeError("fuse needs at least one branch pair")
    return total


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

@dataclass
class ForwardResult:
    output: Tensor                       # per-seed head output (logit / value)
    rows: dict[str, Tensor]              # final layer, one row per compute row
    gates_after: dict[str, float]        # committed running gates
    gate_diag: dict[str, tuple[float, float]]  # triple -> (mean g~, mean g)
    # table -> the compute row of each local, where rows are shared
    expand: dict[str, np.ndarray] = field(default_factory=dict)

    @cached_property
    def embeddings(self) -> dict[str, Tensor]:
        """Final-layer embeddings per type, one row per local: gathered on
        first read, so a caller that reads none records no gather."""
        return {c: T.take_rows(hc, self.expand[c]) if c in self.expand else hc
                for c, hc in self.rows.items()}


class Model:
    """Parameters plus the layered forward pass for one schema and task."""

    def __init__(self, reg: RelationalEntityGraph, cfg: ModelConfig,
                 task_type: str, train_cut: float = np.inf,
                 fixed_gates: dict[str, float] | None = None,
                 encoder_stats: dict | None = None):
        self.reg = reg
        self.cfg = cfg
        self.task_type = task_type
        self.fixed_gates = fixed_gates or {}
        self.encoder = FeatureEncoder(reg, cfg, train_cut=train_cut,
                                      stats=encoder_stats)
        self.params: dict[str, Tensor] = dict(self.encoder.params)
        self.relations = reg.relation_keys
        self.active_triples = reg.active_triples
        # the gate of every active triple that learns none: 1.0 for an edge
        # role, else its fixed (random or transferred) gate
        self._constant_gates = {
            t.id: float(self.fixed_gates.get(t.id, 1.0))
            for t in self.active_triples
            if t.id in self.fixed_gates or reg.roles.role(t.id) == "edge"}
        self.node_types = sorted(reg.nodes)
        self._build_params()

    def _p(self, name: str, shape: tuple[int, ...], fan_in: int,
           zero: bool = False) -> Tensor:
        if name not in self.params:
            if zero:
                self.params[name] = T.zeros_param(shape)
            else:
                self.params[name] = T.init_param(
                    shape, fan_in, seed=_param_seed(self.cfg.seed, name))
        return self.params[name]

    def _build_params(self):
        ch = self.cfg.channels
        for l in range(self.cfg.layers):
            for c in self.node_types:
                self._p(f"L{l}.self.{c}.W", (ch, ch), ch)
                self._p(f"L{l}.self.{c}.b", (ch,), ch, zero=True)
            for key in self.relations:
                self._p(f"L{l}.rel.{key.id}.W", (ch, ch), ch)
            for tr in self.active_triples:
                if tr.pattern == "cooccurrence":
                    self._p(f"L{l}.co.{tr.id}.W", (3 * ch, ch), 3 * ch)
                else:
                    self._p(f"L{l}.comp.{tr.id}.W1", (2 * ch, ch), 2 * ch)
                    self._p(f"L{l}.comp.{tr.id}.W2", (2 * ch, ch), 2 * ch)
                    self._p(f"L{l}.comp.{tr.id}.f.W", (2 * ch, 1), 2 * ch)
                    self._p(f"L{l}.comp.{tr.id}.f.b", (1,), 1, zero=True)
                if tr.id not in self._constant_gates:
                    self._p(f"L{l}.gate.{tr.id}.W", (2 * ch, 1), 2 * ch, zero=True)
                    self._p(f"L{l}.gate.{tr.id}.b", (1,), 1, zero=True)
        if self.task_type in ("classification", "regression"):
            self._p("head.W", (ch, 1), ch)
            self._p("head.b", (1,), 1, zero=True)

    def init_gates(self) -> GateState:
        values = {tr.id: self._constant_gates.get(tr.id, 0.5)
                  for tr in self.active_triples}
        return GateState(values)

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def _row_time_keys(self, batch: BatchSubgraph):
        """(`key(table, idx)`, `space(table)`): one integer in
        [0, space(table)) per local of `table` in `idx`, equal exactly when
        two locals hold the same (row, prediction time)."""
        # a local's prediction time is its seed's: classes from B seed times
        times, t_class = np.unique(batch.seed_t_predict, return_inverse=True)

        def key(table: str, idx: np.ndarray | slice) -> np.ndarray:
            tn = batch.nodes[table]
            return (t_class[tn.seed_of[idx]] * self.reg.nodes[table].n_rows
                    + tn.rows[idx])

        def space(table: str) -> int:
            return len(times) * self.reg.nodes[table].n_rows
        return key, space

    def share_leaves(self, batch: BatchSubgraph
                     ) -> tuple[BatchSubgraph, dict[str, np.ndarray]]:
        """The batch with each table's last-hop locals merged per distinct
        (row, prediction time), and per merged table the compute row of
        every local.

        Last-hop locals, `[reach[c][-2], n)`, are never expanded, so no edge
        or path ends in one, and each layer's embedding of one depends on
        its (row, t_predict) alone. The other locals keep their numbering;
        one member per merged class follows them. Edge sources and path u/v
        ends are renumbered, in batch order. A table without `reach` or
        with nothing to merge is left as it is.
        """
        row_time, space = self._row_time_keys(batch)
        nodes = dict(batch.nodes)
        expand: dict[str, np.ndarray] = {}
        for c, tn in batch.nodes.items():
            reach = batch.reach.get(c)
            if reach is None or reach[-2] == tn.n:
                continue
            lo = reach[-2]
            inverse = group_ids(row_time(c, slice(lo, None)), space(c))
            k = int(inverse.max()) + 1
            if k == tn.n - lo:
                continue
            member = np.empty(k, dtype=np.int64)
            member[inverse] = np.arange(lo, tn.n)  # any copy of a class will do
            own = np.arange(lo, dtype=np.int64)
            keep = np.concatenate([own, member])
            nodes[c] = TypeNodes(tn.rows[keep], tn.t_predict[keep],
                                 tn.seed_of[keep])
            expand[c] = np.concatenate([own, lo + inverse])
        if not expand:
            return batch, expand

        def renumber(table, idx):
            return expand[table][idx] if table in expand else idx

        edges = dict(batch.edges)
        for key in self.relations:
            if key.id in edges:
                src, dst = edges[key.id]
                edges[key.id] = (renumber(key.src_table, src), dst)
        paths = dict(batch.paths)
        for tr in self.active_triples:
            if tr.id in paths:
                u, v, w = paths[tr.id]
                paths[tr.id] = (renumber(tr.u_table, u),
                                renumber(tr.v_table, v), w)
        return replace(batch, nodes=nodes, edges=edges, paths=paths), expand

    def share_classes(self, batch: BatchSubgraph) -> dict[str, np.ndarray]:
        """Per table whose complete non-leaf locals repeat a (row, prediction
        time), the class map: each such local of the leaf-shared `batch`
        points to the first copy of its (row, t), every other local to
        itself.

        A complete local (`batch.complete`) drew all its admissible
        neighbours and paths, so the copies of one (row, t) hold the same
        neighbour keys. Every input of layer 0 is an encoding of (row, t),
        so layer 0 computes one row per class (`_first_layer`); later
        layers sum each class's neighbours once (`class_neighbor_mean`).
        Non-leaf locals, `[0, reach[c][-2])`, keep their numbering in a
        leaf-shared batch.
        """
        row_time, _ = self._row_time_keys(batch)
        classes = {}
        for c, tn in batch.nodes.items():
            if c not in batch.complete:
                continue
            merge = np.flatnonzero(batch.complete[c][:batch.reach[c][-2]])
            if len(merge) < 2:
                continue
            rep = _first_equal(row_time(c, merge))
            if (rep == np.arange(len(merge))).all():
                continue
            target = np.arange(tn.n)
            target[merge] = merge[rep]  # the first copy of its class
            classes[c] = target
        return classes

    def _first_layer(self, batch: BatchSubgraph, classes: dict[str, np.ndarray]
                     ) -> tuple[BatchSubgraph, dict[str, np.ndarray]]:
        """The batch layer 0 computes, with one local per class, and per
        classed table the layer-0 row of every local of `batch`.

        The first copy of each class keeps its edges and paths, in batch
        order; those of the other copies are dropped. Every edge source and
        path u/v end is renumbered to its class.
        """
        if not classes:
            return batch, {}
        nodes = dict(batch.nodes)
        reach = dict(batch.reach)
        is_first: dict[str, np.ndarray] = {}
        first: dict[str, np.ndarray] = {}
        for c, target in classes.items():
            tn = batch.nodes[c]
            is_first[c] = target == np.arange(tn.n)
            below = np.concatenate([[0], np.cumsum(is_first[c])])
            first[c] = below[target]
            keep = np.flatnonzero(is_first[c])
            nodes[c] = TypeNodes(tn.rows[keep], tn.t_predict[keep],
                                 tn.seed_of[keep])
            reach[c] = [int(below[min(r, tn.n)]) for r in batch.reach[c]]

        def kept(table, end):  # edges or paths into first copies only
            return is_first[table][end] if table in is_first else slice(None)

        def renumber(table, idx):
            return first[table][idx] if table in first else idx

        edges = dict(batch.edges)
        for key in self.relations:
            if key.id in batch.edges:
                src, dst = batch.edges[key.id]
                keep = kept(key.dst_table, dst)
                edges[key.id] = (renumber(key.src_table, src[keep]),
                                 renumber(key.dst_table, dst[keep]))
        paths = dict(batch.paths)
        for tr in self.active_triples:
            if tr.id in batch.paths:
                u, v, w = batch.paths[tr.id]
                keep = kept(tr.w_table, w)
                paths[tr.id] = (renumber(tr.u_table, u[keep]),
                                renumber(tr.v_table, v[keep]),
                                renumber(tr.w_table, w[keep]))
        return replace(batch, nodes=nodes, edges=edges, paths=paths, reach=reach,
                       seed_locals=renumber(batch.entity_table, batch.seed_locals),
                       complete={}), first

    def _leaf_twins(self, batch: BatchSubgraph, table: str) -> np.ndarray:
        """Per non-leaf local of `table` in the leaf-shared `batch`, the leaf
        row that holds the same (row, prediction time), or -1."""
        row_time, space = self._row_time_keys(batch)
        lo = batch.reach[table][-2]
        ids = group_ids(row_time(table, slice(None)), space(table))
        leaf = np.full(len(ids), -1, dtype=np.int64)  # per class, its leaf
        leaf[ids[lo:]] = np.arange(lo, len(ids))  # leaves are distinct here
        return leaf[ids[:lo]]

    # -- forward ----------------------------------------------------------

    def forward(self, batch: BatchSubgraph, gates: GateState, train: bool,
                rng: np.random.Generator | None = None,
                seeds_only: bool = False) -> ForwardResult:
        """Run every layer and the head over one sampled batch.

        With `seeds_only`, layer l of L computes only the rows each table
        reached within L-1-l hops of the seeds (`batch.reach`): the rows the
        next layer or the head reads. Only the edges and paths into those
        rows are aggregated, in their batch order, so `output` is
        bit-identical to the full forward's, while `embeddings` and
        `gate_diag` cover the kept rows only. Training needs every row (the
        running gate averages over all of them, FD reads every linked pair),
        so `seeds_only` is for evaluation alone.

        Last-hop copies of one (row, prediction time) share one compute row
        (`share_leaves`). Complete non-leaf copies of one pair form a class
        (`share_classes`), built once and used by every layer:
        - Layer 0 computes one row per class: each of its inputs is an
          encoding of a pair, and the copies hold the same pairs. The rows
          are gathered back to one per copy before layer 1.
        - From layer 1 on the copies' inputs differ: a copy's own seed
          reaches some of its neighbours as non-leaf locals, the others'
          seeds reach them as shared leaves. But a mean is linear, so
          `class_neighbor_mean` sums each class's neighbours once and
          corrects each copy for the neighbours it holds as non-leaf
          locals; the matmul, gate and fusion stay per copy. Rows the head
          reads (within L-1-l hops at layer l) are aggregated per copy, so
          `output` stays bit-identical to the seeds-only forward's.
        The running gate and `gate_diag` average over every copy, and
        full-mode `embeddings` hold one row per local again, gathered on
        first read. Class sums add in another order, so results match
        computing every copy within rounding, not bit for bit. Under
        training dropout each copy keeps its own mask, so nothing is shared.
        """
        if seeds_only and train:
            raise ValueError("seeds_only forward is for evaluation: training "
                             "reads every row")
        expand: dict[str, np.ndarray] = {}
        classes: dict[str, np.ndarray] = {}
        if not (train and self.cfg.dropout > 0):
            batch, expand = self.share_leaves(batch)
            classes = self.share_classes(batch)
        layer_batch, first = self._first_layer(batch, classes)
        layers = self.cfg.layers
        if seeds_only:  # layer 0 computes the locals within L-1 hops
            first = {c: f[:batch.reach[c][layers - 1]] for c, f in first.items()}
        twins: dict[str, np.ndarray] = {}
        far: dict[tuple[int, str], np.ndarray] = {}

        def shared(l: int, src_table: str, dst_table: str, dst: np.ndarray):
            """`class_neighbor_mean`'s classes for layer l's messages. Rows
            within L-1-l hops, which the head reads, stay per copy, so the
            output equals the seeds-only forward's bit for bit; a seeds-only
            layer past 0 holds no leaf row to stand in anyway."""
            if (l == 0 or seeds_only or dst_table not in classes
                    or not len(dst)):
                return None
            if (l, dst_table) not in far:
                target = classes[dst_table]
                local = np.arange(len(target))
                near = local < batch.reach[dst_table][layers - 1 - l]
                far[l, dst_table] = _first_equal(
                    np.where(near, local, target + len(target)))
            if src_table not in twins:
                twins[src_table] = self._leaf_twins(batch, src_table)
            return far[l, dst_table], twins[src_table]

        act = ACTIVATIONS[self.cfg.activation]
        h = self.encoder.encode(layer_batch)
        running = dict(gates.values)
        gate_diag: dict[str, tuple[float, float]] = {}
        # a table fuses when a triple into it has paths; it reads only the
        # triples' matching relations, so no other message into it is built
        fused_triples = [tr for tr in self.active_triples
                         if tr.id in batch.paths and tr.w_table in h]
        fused = {tr.w_table for tr in fused_triples}
        read = {tr.matching_relation().id for tr in fused_triples}

        for l in range(layers):
            if seeds_only:
                n_out = {c: layer_batch.reach[c][layers - 1 - l] for c in h}
            else:
                n_out = {c: hc.shape[0] for c, hc in h.items()}

            self_term = {}
            for c, hc in h.items():
                if n_out[c] < hc.shape[0]:
                    hc = T.take_rows(hc, np.arange(n_out[c]))
                self_term[c] = T.linear(hc, self.params[f"L{l}.self.{c}.W"],
                                        self.params[f"L{l}.self.{c}.b"])

            messages: dict[str, tuple[np.ndarray, Tensor]] = {}
            for key in self.relations:
                pair = layer_batch.edges.get(key.id)
                if pair is None or key.dst_table not in h or key.src_table not in h:
                    continue
                if key.dst_table in fused and key.id not in read:
                    continue
                src, dst = pair
                if seeds_only:
                    keep = dst < n_out[key.dst_table]
                    src, dst = src[keep], dst[keep]
                messages[key.id] = relation_message(
                    self.params[f"L{l}.rel.{key.id}.W"], h[key.src_table],
                    src, dst, shared(l, key.src_table, key.dst_table, dst))

            by_dst: dict[str, list[str]] = {}
            for key in self.relations:
                if key.id in messages:
                    by_dst.setdefault(key.dst_table, []).append(key.id)

            fusion_pairs: dict[str, list[tuple[Tensor, Tensor, Tensor]]] = {}
            for tr in fused_triples:
                c = tr.w_table
                u_idx, v_idx, w_idx = layer_batch.paths[tr.id]
                if seeds_only:
                    # kept even when no path lands in a kept row: those rows
                    # still fuse, with no edge message, as in the full pass
                    keep = w_idx < n_out[c]
                    u_idx, v_idx, w_idx = u_idx[keep], v_idx[keep], w_idx[keep]
                if tr.pattern == "cooccurrence":
                    # a w row's mean of its own embedding is that embedding
                    rows, mean_v = class_neighbor_mean(
                        h[tr.v_table], v_idx, w_idx,
                        shared(l, tr.v_table, c, w_idx))
                    _, mean_u = class_neighbor_mean(
                        h[tr.u_table], u_idx, w_idx,
                        shared(l, tr.u_table, c, w_idx))
                    msg = cooccurrence_message(
                        self.params[f"L{l}.co.{tr.id}.W"],
                        T.take_rows(h[c], rows), mean_v, mean_u)
                else:
                    # the gated message is not linear: map every path first
                    path_msg = completion_message(
                        self.params[f"L{l}.comp.{tr.id}.W1"],
                        self.params[f"L{l}.comp.{tr.id}.W2"],
                        self.params[f"L{l}.comp.{tr.id}.f.W"],
                        self.params[f"L{l}.comp.{tr.id}.f.b"],
                        T.take_rows(h[c], w_idx),
                        T.take_rows(h[tr.v_table], v_idx),
                        T.take_rows(h[tr.u_table], u_idx))
                    rows, msg = T.neighbor_mean(path_msg, np.arange(len(w_idx)),
                                                w_idx)
                h_e = act(T.add_rows(self_term[c], rows, msg))

                match_id = tr.matching_relation().id
                if match_id in messages:
                    h_n = act(T.add_rows(self_term[c], *messages[match_id]))
                else:
                    h_n = act(self_term[c])

                if tr.id in self._constant_gates:
                    g_used = Tensor(np.array(self._constant_gates[tr.id]))
                else:
                    # seeds-only layers keep no last-hop row
                    copies = None if seeds_only else expand.get(c)
                    if l == 0 and c in first:
                        copies = first[c] if copies is None else first[c][copies]
                    g_tilde, g, g_used = compute_gate(
                        self.params[f"L{l}.gate.{tr.id}.W"],
                        self.params[f"L{l}.gate.{tr.id}.b"],
                        h_n, h_e, running[tr.id], self.cfg.alpha, self.cfg.mu,
                        train, copies)
                    if n_out[c]:
                        every = slice(None) if copies is None else copies
                        gate_diag[tr.id] = (float(g_tilde.values[every].mean()),
                                            float(g.values[every].mean()))
                    if train:
                        running[tr.id] = float(g_used.values)
                fusion_pairs.setdefault(c, []).append((h_n, h_e, g_used))

            h_next = {}
            for c in h:
                if c in fusion_pairs:
                    h_next[c] = fuse(fusion_pairs[c])
                else:  # the plain node-branch update
                    total = self_term[c]
                    for kid in by_dst.get(c, []):
                        total = T.add_rows(total, *messages[kid])
                    h_next[c] = act(total)
                if self.cfg.dropout > 0:
                    h_next[c] = T.dropout(h_next[c], self.cfg.dropout, train, rng)
            if l == 0:  # back to one row per leaf-shared local
                h_next = {c: T.take_rows(hc, first[c]) if c in first else hc
                          for c, hc in h_next.items()}
                layer_batch = batch
            h = h_next

        seed_h = T.take_rows(h[batch.entity_table], batch.seed_locals)
        if self.task_type in ("classification", "regression"):
            out = T.reshape(T.linear(seed_h, self.params["head.W"],
                                     self.params["head.b"]),
                            (len(batch.seed_locals),))
        else:
            out = seed_h
        return ForwardResult(out, h, running, gate_diag,
                             {} if seeds_only else expand)


def link_scores(src_emb: Tensor, dst_emb: Tensor) -> Tensor:
    """Pairwise link score: inner product of final embeddings (row-aligned)."""
    return T.sum_(T.mul(src_emb, dst_emb), axis=1)
