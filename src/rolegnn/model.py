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
A co-occurrence triple u <- v -> w whose drawn (v, w) pairs are the drawn
edges of its matching relation v -> w reads that relation's neighbour mean
as its v-mean, so each such edge set is aggregated once per layer.

The per-seed trees hold many copies of one (row, prediction time). One
pass per forward (`Model.share`) labels each table's locals by that pair and
derives all sharing from the labels. Last-hop copies receive no message, so
every layer's embedding of one depends on the pair alone: they share one
compute row. The copies of a complete local (one that drew all its
admissible neighbours and paths) hold the same neighbour pairs, so they form
a class: layer 0 computes one row per class, its inputs being encodings of
those pairs, and later layers sum each class's neighbours once, correcting
each copy for the few neighbours that differ from it.
"""

from __future__ import annotations

import numbers
import zlib
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import kernels
from . import tensor as T
from .config import DEFAULTS, MAX_CHANNELS, MAX_LAYERS, integral, real
from .errors import CheckpointMismatch, ShapeError
from .sampler import BatchSubgraph, TypeNodes
from .schema_graph import RelationalEntityGraph
from .tensor import Tensor


@dataclass(frozen=True)
class ModelConfig:
    channels: int = DEFAULTS["channels"]
    layers: int = DEFAULTS["layers"]
    dropout: float = DEFAULTS["dropout"]
    alpha: float = DEFAULTS["alpha"]
    mu: float = DEFAULTS["mu"]
    cat_dim: int = DEFAULTS["cat_dim"]
    seed: int = 0

    def __post_init__(self):
        for name in ("channels", "layers", "cat_dim", "seed"):
            object.__setattr__(self, name, integral(name, getattr(self, name)))
        for name in ("dropout", "alpha", "mu"):
            object.__setattr__(self, name, real(name, getattr(self, name)))
        if not 1 <= self.channels <= MAX_CHANNELS:
            raise ValueError(f"channels must lie in [1, {MAX_CHANNELS}], "
                             f"got {self.channels}")
        if not 1 <= self.layers <= MAX_LAYERS:
            raise ValueError(f"layers must lie in [1, {MAX_LAYERS}], "
                             f"got {self.layers}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        for name in ("alpha", "mu"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got "
                                 f"{getattr(self, name)}")


def _param_seed(master: int, name: str) -> int:
    """Stable per-parameter seed: independent of creation order."""
    ss = np.random.SeedSequence([master, zlib.crc32(name.encode())])
    return int(ss.generate_state(1)[0])


# ---------------------------------------------------------------------------
# feature encoding
# ---------------------------------------------------------------------------

# what each kind of encoder statistic must be, and the test of it. A value
# within +-1e150, less a mean within +-1e150, over a std or time scale
# within [1e-150, 1e150] stands at most 2e300 from 0: finite. NaN fails
# every bound
_SCALE = ("a number in [1e-150, 1e150]",
          lambda v: _number(v) and 1e-150 <= v <= 1e150)
_CENTRE = ("a number in [-1e150, 1e150]", lambda v: _number(v) and abs(v) <= 1e150)
_WORDS = ("a list of strings",
          lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v))


def _number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class TableInputs:
    """A table's encoder inputs per store row, built once."""
    # the constant slot, then per numeric column in name order its
    # standardized value (0 at NULL) and, if nullable, its presence bit
    block: np.ndarray
    # categorical column -> embedding index: 1 + the value's position in
    # the frozen vocabulary, 0 if missing or unknown
    codes: dict[str, np.ndarray]
    times: np.ndarray | None  # row times, for a table with a time column


class FeatureEncoder:
    """Raw rows to layer-0 embeddings.

    Numeric columns are standardized by statistics over train-visible rows
    (timestamp <= train cut), categorical columns go through learned embedding
    lookups (index 0 reserved for unknown/missing), the row timestamp becomes
    a scaled distance to the prediction time, and nullable columns contribute
    presence bits. Everything is concatenated and linearly projected.

    Only the time distance depends on the prediction time, so each table's
    other inputs are built once, with the encoder (`inputs`), and a batch
    gathers its rows of them.
    """

    def __init__(self, reg: RelationalEntityGraph, cfg: ModelConfig,
                 train_cut: float, stats: dict | None = None):
        self.cfg = cfg
        self.train_cut = train_cut
        self.params: dict[str, Tensor] = {}
        self.reg = reg
        self._given = stats is not None
        self.stats = stats if stats is not None else self._compute_stats(reg)
        self.time_scale = self._stat(_SCALE, "time_scale")
        self.inputs = {name: self._table_inputs(name) for name in sorted(reg.nodes)}

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
                # a std under the scale bound is a constant column
                tstats["columns"][col_name] = {
                    "mean": mean, "std": std if std >= 1e-150 else 1.0}
            if spec.time_column is not None:
                finite = np.isfinite(store.times) & visible
                if finite.any():
                    span = self.train_cut - float(store.times[finite].min())
                    max_span = max(max_span, span)
            stats["tables"][name] = tstats
        stats["time_scale"] = max_span
        return stats

    def _stat(self, kind: tuple, *path: str):
        """The statistic at key `path` in `stats`. Given statistics (a
        checkpoint's) are checked before use: CheckpointMismatch naming
        `encoder_stats.<path>` unless the value is there and passes `kind`,
        a (description, test) pair."""
        value = self.stats
        for i, key in enumerate(path):
            if self._given and (not isinstance(value, dict) or key not in value):
                raise CheckpointMismatch(
                    f"lacks key 'encoder_stats.{'.'.join(path[:i + 1])}'")
            value = value[key]
        described, test = kind
        if self._given and not test(value):
            raise CheckpointMismatch(f"encoder_stats.{'.'.join(path)} must be "
                                     f"{described}, got {value!r}")
        return value

    def _table_inputs(self, name: str) -> TableInputs:
        """One pass over a table's columns: its inputs and its parameters."""
        store, spec = self.reg.nodes[name], self.reg.specs[name]
        seed, cat_dim = self.cfg.seed, self.cfg.cat_dim
        slots, codes = [np.ones(store.n_rows)], {}
        for col_name in sorted(store.attrs):
            cd = store.attrs[col_name]
            if cd.kind == "categorical":
                vocab = self._stat(_WORDS, "tables", name, "vocab", col_name)
                index = {v: i + 1 for i, v in enumerate(vocab)}
                codes[col_name] = np.fromiter(
                    (index.get(v, 0) if present else 0
                     for v, present in zip(cd.values, cd.mask)),
                    dtype=np.int64, count=len(cd.mask))
                pname = f"enc.{name}.cat.{col_name}"
                self.params[pname] = T.init_param(
                    (len(vocab) + 1, cat_dim), fan_in=1,
                    seed=_param_seed(seed, pname))
                continue
            column = ("tables", name, "columns", col_name)
            mean = self._stat(_CENTRE, *column, "mean")
            std = self._stat(_SCALE, *column, "std")
            vals = np.asarray(cd.values, dtype=np.float64)
            slots.append(np.where(cd.mask, (vals - mean) / std, 0.0))
            if spec.column(col_name).nullable:
                slots.append(cd.mask.astype(np.float64))
        timed = spec.time_column is not None
        raw = len(slots) + 2 * timed + cat_dim * len(codes)
        wname = f"enc.{name}.proj.W"
        self.params[wname] = T.init_param((raw, self.cfg.channels), fan_in=raw,
                                          seed=_param_seed(seed, wname))
        self.params[f"enc.{name}.proj.b"] = T.zeros_param((self.cfg.channels,))
        return TableInputs(np.stack(slots, axis=1), codes,
                           store.times if timed else None)

    def encode(self, batch: BatchSubgraph) -> dict[str, Tensor]:
        """Input embeddings of the batch's nodes, rows of the graph the
        encoder was built with."""
        out: dict[str, Tensor] = {}
        for name in sorted(batch.nodes):
            tn = batch.nodes[name]
            inputs = self.inputs[name]
            x = inputs.block[tn.rows]
            if inputs.times is not None:
                # scaled distance to the prediction time + presence bit
                times = inputs.times[tn.rows]
                present = np.isfinite(times)
                dt = np.where(present,
                              (batch.seed_t_predict[tn.seed_of] - times)
                              / self.time_scale,
                              0.0)
                x = np.concatenate([x, dt[:, None],
                                    present.astype(np.float64)[:, None]], axis=1)
            parts = [Tensor(x)]
            for col_name, codes in inputs.codes.items():
                parts.append(T.take_rows(self.params[f"enc.{name}.cat.{col_name}"],
                                         codes[tn.rows]))
            raw = parts[0] if len(parts) == 1 else T.concat(parts, axis=1)
            out[name] = T.linear(raw, self.params[f"enc.{name}.proj.W"],
                                 self.params[f"enc.{name}.proj.b"])
        return out


# ---------------------------------------------------------------------------
# branch primitives (also unit-test surfaces)
# ---------------------------------------------------------------------------

def relation_message(W: Tensor, h_src: Tensor, src_idx: np.ndarray,
                     dst_idx: np.ndarray, classes: tuple | None = None
                     ) -> tuple[np.ndarray, Tensor, Tensor]:
    """Mean of a relation-specific linear map of neighbor embeddings, as
    (destination rows with a neighbor, their neighbour means, one message
    row each). `classes` goes to `class_neighbor_mean`."""
    rows, mean = class_neighbor_mean(h_src, src_idx, dst_idx, classes)
    return rows, mean, T.matmul(mean, W)


def _same_pairs(a: tuple[np.ndarray, np.ndarray],
                b: tuple[np.ndarray, np.ndarray]) -> bool:
    """Whether two (source, destination) index arrays hold the same pairs
    as multisets."""
    if len(a[0]) != len(b[0]):
        return False
    if not len(a[0]):
        return True
    n = int(max(a[1].max(), b[1].max())) + 1
    return np.array_equal(np.sort(a[0] * n + a[1]), np.sort(b[0] * n + b[1]))


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


def _first_copies(ids: np.ndarray, done: np.ndarray, start: int,
                  n: int) -> np.ndarray:
    """Per local of `n`, the first local of the ascending `done` at or past
    `start` with its id; every other local maps to itself."""
    done = done[np.searchsorted(done, start):]
    lowest = np.full(len(ids), n)  # per id; ids are < len(ids)
    np.minimum.at(lowest, ids[done], done)
    target = np.arange(n)
    target[done] = lowest[ids[done]]
    return target


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


@dataclass
class SharedBatch:
    """What `Model.share` derives from a sampled batch: `batch`, the
    leaf-shared batch that layers past 0 run over, and `layer0`, with one
    local per class, that layer 0 runs over."""
    batch: BatchSubgraph
    layer0: BatchSubgraph
    # table -> per sampled local, its leaf-shared local
    expand: dict[str, np.ndarray] = field(default_factory=dict)
    # table -> per leaf-shared local, its layer-0 local
    first: dict[str, np.ndarray] = field(default_factory=dict)
    # table -> per non-leaf local, the leaf-shared leaf holding its pair, or -1
    twins: dict[str, np.ndarray] = field(default_factory=dict)
    # table with classes -> (pair id per local, complete non-leaf locals)
    labels: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def class_map(self, table: str, start: int = 0) -> np.ndarray:
        """Per leaf-shared local of `table`, the first complete non-leaf copy
        of its pair at or past `start`; a local before `start` or outside a
        class maps to itself. `start` 0 gives layer 0's classes."""
        ids, done = self.labels[table]
        return _first_copies(ids, done, start, self.batch.nodes[table].n)


class Model:
    """Parameters plus the layered forward pass for one schema and task."""

    def __init__(self, reg: RelationalEntityGraph, cfg: ModelConfig,
                 task_type: str, train_cut: float = np.inf,
                 encoder_stats: dict | None = None):
        self.reg = reg
        self.cfg = cfg
        self.task_type = task_type
        self.encoder = FeatureEncoder(reg, cfg, train_cut=train_cut,
                                      stats=encoder_stats)
        self.params: dict[str, Tensor] = dict(self.encoder.params)
        self.relations = reg.relation_keys
        self.active_triples = reg.active_triples
        # the gate of every active triple that learns none: 1.0 for an edge
        # role, else its fixed (random or transferred) gate
        self._constant_gates = {
            t.id: g for t in self.active_triples
            if (g := reg.roles.fixed_gate(t.id)) is not None}
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

    def init_gates(self) -> dict[str, float]:
        """The running gates before training: one per active triple, its
        constant gate or 0.5."""
        return {tr.id: self._constant_gates.get(tr.id, 0.5)
                for tr in self.active_triples}

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def share(self, batch: BatchSubgraph) -> SharedBatch:
        """The sharing pass: each table's locals labelled once by their
        (row, prediction time), and every shared row derived from the labels.

        - Leaves: last-hop locals, `[reach[c][-2], n)`, are never expanded,
          so no edge or path ends in one, and each layer's embedding of one
          depends on its pair alone. Each distinct leaf pair keeps one
          member (any copy will do), numbered in pair order after the
          non-leaf locals, which keep theirs.
        - Twins: a non-leaf local's twin is the leaf-shared leaf holding its
          pair, or -1.
        - Classes: a complete local (`batch.complete`) drew all its
          admissible neighbours and paths, so the complete non-leaf copies
          of one pair hold the same neighbour pairs. Layer 0 computes one
          row per class, over the first copy's edges and paths, so its
          batch is the leaf-shared one renumbered through `first`.

        Edge sources and path u/v ends are renumbered, in batch order. When
        nothing merges, the batch comes back unchanged with empty maps.
        """
        # a local's prediction time is its seed's: classes from B seed times
        times, t_class = kernels.unique_inverse(batch.seed_t_predict)
        expand, first, twins, labels = {}, {}, {}, {}
        nodes, nodes0, reach0, heads = {}, {}, {}, {}
        for c, tn in batch.nodes.items():
            n_rows = self.reg.nodes[c].n_rows
            key = (t_class * n_rows)[tn.seed_of] + tn.rows
            ids = kernels.group_ids(key, len(times) * n_rows)
            n, lo, k = tn.n, batch.reach[c][-2], int(ids.max()) + 1
            if k == n:  # every pair is held once: nothing shared
                twins[c] = np.full(lo, -1, dtype=np.int64)
                continue
            in_leaves = np.bincount(ids[lo:], minlength=k) > 0  # per pair id
            at = lo + np.cumsum(in_leaves) - 1  # per leaf pair, its merged leaf
            kept = np.arange(n)  # per leaf-shared local, its sampled local
            if at[-1] + 1 < n:
                expand[c] = at[ids]
                expand[c][:lo] = kept[:lo]
                member = kept[:at[-1] + 1].copy()
                member[expand[c][lo:]] = kept[lo:]  # any copy will do
                kept = member
                nodes[c] = TypeNodes(tn.rows[kept], tn.seed_of[kept])
            else:  # the leaves are distinct and keep their places
                at[ids[lo:]] = kept[lo:]
            twins[c] = np.where(in_leaves[ids[:lo]], at[ids[:lo]], -1)

            if c not in batch.complete or lo < 2:
                continue
            done = np.flatnonzero(batch.complete[c][:lo])
            target = _first_copies(ids, done, 0, len(kept))
            if (target[done] == done).all():
                continue
            labels[c] = (ids, done)
            heads[c] = target == np.arange(len(kept))
            below = np.concatenate([[0], np.cumsum(heads[c])])
            first[c] = below[target]
            keep = kept[heads[c]]
            nodes0[c] = TypeNodes(tn.rows[keep], tn.seed_of[keep])
            reach0[c] = [int(below[min(r, len(kept))]) for r in batch.reach[c]]
        if not expand and not first:
            return SharedBatch(batch, batch)
        leaf = batch
        if expand:
            leaf = replace(batch, nodes={**batch.nodes, **nodes},
                           **self._renumbered(batch, expand, {}))
        layer0 = leaf
        if first:
            seeds = batch.seed_locals
            layer0 = replace(
                leaf, nodes={**leaf.nodes, **nodes0},
                **self._renumbered(leaf, first, heads),
                reach={**batch.reach, **reach0}, complete={},
                seed_locals=first[batch.entity_table][seeds]
                if batch.entity_table in first else seeds)
        return SharedBatch(leaf, layer0, expand, first, twins, labels)

    def reused_means(self, batch: BatchSubgraph) -> set[str]:
        """The co-occurrence triples whose drawn (v, w) path ends are their
        matching relation's (src, dst) edges as a multiset: their v-mean is
        that relation's neighbour mean. `share` maps both alike and keeps
        the edges and paths into the same locals, so this holds on its
        batches too."""
        return {tr.id for tr in self.active_triples
                if tr.pattern == "cooccurrence" and tr.id in batch.paths
                and (edges := batch.edges.get(tr.matching_relation().id))
                and _same_pairs(edges, batch.paths[tr.id][1:])}

    def _renumbered(self, batch: BatchSubgraph, maps: dict[str, np.ndarray],
                    heads: dict[str, np.ndarray]) -> dict:
        """`batch`'s edges and paths, in batch order, with each edge source
        and path u/v end renumbered through `maps`. Into a table of `heads`
        (per local, whether it is kept) only the edges and paths into kept
        locals remain, their ends renumbered too."""
        def renumber(table, idx):
            return maps[table][idx] if table in maps else idx

        edges = dict(batch.edges)
        for key in self.relations:
            if key.id in edges:
                src, dst = edges[key.id]
                if key.dst_table in heads:
                    keep = heads[key.dst_table][dst]
                    src, dst = src[keep], maps[key.dst_table][dst[keep]]
                edges[key.id] = (renumber(key.src_table, src), dst)
        paths = dict(batch.paths)
        for tr in self.active_triples:
            if tr.id in paths:
                u, v, w = paths[tr.id]
                if tr.w_table in heads:
                    keep = heads[tr.w_table][w]
                    u, v, w = u[keep], v[keep], maps[tr.w_table][w[keep]]
                paths[tr.id] = (renumber(tr.u_table, u),
                                renumber(tr.v_table, v), w)
        return {"edges": edges, "paths": paths}

    # -- forward ----------------------------------------------------------

    def forward(self, batch: BatchSubgraph, gates: dict[str, float],
                train: bool, rng: np.random.Generator | None = None,
                seeds_only: bool = False) -> ForwardResult:
        """Run every layer and the head over one sampled batch.

        Per layer, a table is live when it computes every row; any other
        table computes only the rows within L-1-l hops of the seeds
        (`batch.reach`), the rows the next layer or the head reads, and
        aggregates only the edges and paths into them, in their batch
        order. Without `seeds_only` the caller reads every row, so every
        table is live. With it the caller reads only the seeds' rows: in
        training the w-tables of learned gates stay live, since a running
        gate averages over every row, and with them every table at the
        layers before the last. `output` is bit-identical either way, and in
        training so are the running gates, `gate_diag` and every gradient;
        otherwise `gate_diag` and `embeddings` cover the computed rows.

        One sharing pass (`share`) labels the batch's (row, prediction
        time) pairs once. Last-hop copies of one pair share one compute
        row. Complete non-leaf copies of one pair form a class, used by
        every layer:
        - Layer 0 computes one row per class: each of its inputs is an
          encoding of a pair, and the copies hold the same pairs. The rows
          are gathered back to one per copy before layer 1.
        - From layer 1 on the copies' inputs differ: a copy's own seed
          reaches some of its neighbours as non-leaf locals, the others'
          seeds reach them as shared leaves. But a mean is linear, so
          `class_neighbor_mean` sums each class's neighbours once and
          corrects each copy for the neighbours it holds as non-leaf
          locals; the matmul, gate and fusion stay per copy. Layer l's
          class map (`SharedBatch.class_map`) starts past the rows the
          head reads (within L-1-l hops), which are aggregated per copy,
          so `output` stays bit-identical to the seeds-only forward's.
        The running gate and `gate_diag` average over every copy, and
        full-mode `embeddings` hold one row per local again, gathered on
        first read. Class sums add in another order, so results match
        computing every copy within rounding, not bit for bit. Under
        training dropout each copy keeps its own mask, so nothing is shared.
        A co-occurrence triple matched on the sampled batch
        (`reused_means`) reads its relation message's mean as its v-mean
        at every layer, which adds the rows in the edges' order: within
        rounding of a separate v-mean, not bit for bit.
        """
        reused = self.reused_means(batch)
        sharing = (SharedBatch(batch, batch) if train and self.cfg.dropout > 0
                   else self.share(batch))
        batch, layer_batch = sharing.batch, sharing.layer0
        expand, first = sharing.expand, sharing.first
        layers = self.cfg.layers
        classes: dict[str, np.ndarray] = {}  # this layer's class maps

        def shared(src_table: str, dst_table: str, dst: np.ndarray):
            """`class_neighbor_mean`'s classes for a message into `dst`."""
            if dst_table not in classes or not len(dst):
                return None
            return classes[dst_table], sharing.twins[src_table]

        h = self.encoder.encode(layer_batch)
        running = dict(gates)
        gate_diag: dict[str, tuple[float, float]] = {}
        # a table fuses when a triple into it has paths; it reads only the
        # triples' matching relations, so no other message into it is built
        fused_triples = [tr for tr in self.active_triples
                         if tr.id in batch.paths and tr.w_table in h]
        fused = {tr.w_table for tr in fused_triples}
        read = {tr.matching_relation().id for tr in fused_triples}
        gated = {tr.w_table for tr in fused_triples
                 if train and tr.id not in self._constant_gates}
        live = [set(h) if not seeds_only or (gated and l < layers - 1)
                else gated for l in range(layers)]
        # layer 0 computes the locals of a table not live there within L-1 hops
        first = {c: f if c in live[0] else f[:batch.reach[c][layers - 1]]
                 for c, f in first.items()}

        for l in range(layers):
            n_out = {c: hc.shape[0] if c in live[l]
                     else layer_batch.reach[c][layers - 1 - l]
                     for c, hc in h.items()}
            if l:
                # rows within L-1-l hops, which the head reads, stay per
                # copy, so the output equals the seeds-only forward's bit
                # for bit; a table not live holds no leaf row to stand in
                classes = {c: sharing.class_map(c, batch.reach[c][layers - 1 - l])
                           for c in first if c in live[l]}

            self_term = {}
            for c, hc in h.items():
                if n_out[c] < hc.shape[0]:
                    hc = T.take_rows(hc, np.arange(n_out[c]))
                self_term[c] = T.linear(hc, self.params[f"L{l}.self.{c}.W"],
                                        self.params[f"L{l}.self.{c}.b"])

            messages: dict[str, tuple[np.ndarray, Tensor]] = {}
            means: dict[str, Tensor] = {}  # relation -> its neighbour mean
            for key in self.relations:
                pair = layer_batch.edges.get(key.id)
                if pair is None or key.dst_table not in h or key.src_table not in h:
                    continue
                if key.dst_table in fused and key.id not in read:
                    continue
                src, dst = pair
                if key.dst_table not in live[l]:
                    keep = dst < n_out[key.dst_table]
                    src, dst = src[keep], dst[keep]
                rows, means[key.id], msg = relation_message(
                    self.params[f"L{l}.rel.{key.id}.W"], h[key.src_table],
                    src, dst, shared(key.src_table, key.dst_table, dst))
                messages[key.id] = rows, msg

            by_dst: dict[str, list[str]] = {}
            for key in self.relations:
                if key.id in messages:
                    by_dst.setdefault(key.dst_table, []).append(key.id)

            fusion_pairs: dict[str, list[tuple[Tensor, Tensor, Tensor]]] = {}
            for tr in fused_triples:
                c = tr.w_table
                u_idx, v_idx, w_idx = layer_batch.paths[tr.id]
                if c not in live[l]:
                    # kept even when no path lands in a kept row: those rows
                    # still fuse, with no edge message, as in the full pass
                    keep = w_idx < n_out[c]
                    u_idx, v_idx, w_idx = u_idx[keep], v_idx[keep], w_idx[keep]
                if tr.pattern == "cooccurrence":
                    # a w row's mean of its own embedding is that embedding
                    if tr.id in reused:  # the node branch's v -> w links
                        match = tr.matching_relation().id
                        rows, mean_v = messages[match][0], means[match]
                    else:
                        rows, mean_v = class_neighbor_mean(
                            h[tr.v_table], v_idx, w_idx,
                            shared(tr.v_table, c, w_idx))
                    _, mean_u = class_neighbor_mean(
                        h[tr.u_table], u_idx, w_idx,
                        shared(tr.u_table, c, w_idx))
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
                h_e = T.relu(T.add_rows(self_term[c], rows, msg))

                # a drawn path's v row is also drawn as a neighbour of w
                h_n = T.relu(T.add_rows(self_term[c],
                                        *messages[tr.matching_relation().id]))

                if tr.id in self._constant_gates:
                    g_used = Tensor(np.array(self._constant_gates[tr.id]))
                else:
                    # a table not live keeps no last-hop row
                    copies = expand.get(c) if c in live[l] else None
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
                    h_next[c] = T.relu(total)
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
                             {c: e for c, e in expand.items() if c in live[-1]})


def link_scores(src_emb: Tensor, dst_emb: Tensor) -> Tensor:
    """Pairwise link score: inner product of final embeddings (row-aligned)."""
    return T.sum_(T.mul(src_emb, dst_emb), axis=1)
