"""Functional-dependency regularization on embeddings.

Per foreign-key relation, embedding differences of linked pairs are pulled
toward a learnable low-rank affine subspace (table level), and a relation
scoring head is trained contrastively to rank the true referenced row above
in-batch mismatches (entity level).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .kernels import unique_inverse, unique_pairs
from .sampler import BatchSubgraph
from .schema_graph import RelationalEntityGraph, RelationKey
from .tensor import Tensor

log = logging.getLogger(__name__)


@dataclass
class FdDiagnostics:
    relation: str
    n_pairs: int
    loss_emb: float
    loss_pair: float
    pos_score_mean: float
    neg_score_mean: float


def subspace_size(channels: int, subspace_dim: int) -> int:
    """The subspace dimension of an FdModule: `subspace_dim`, or channels // 4
    (at least 1) when that is 0 or less. ValueError unless below `channels`."""
    if subspace_dim <= 0:
        subspace_dim = max(channels // 4, 1)
    if subspace_dim >= channels:
        raise ValueError(f"subspace_dim must be < channels, got "
                         f"{subspace_dim} >= {channels}")
    return subspace_dim


class FdModule:
    """Per-relation subspace parameters and scoring heads."""

    def __init__(self, reg: RelationalEntityGraph, channels: int,
                 subspace_dim: int = 0, seed: int = 0):
        from .model import _param_seed  # shared stable seeding

        subspace_dim = subspace_size(channels, subspace_dim)
        self.channels = channels
        self.subspace_dim = subspace_dim
        self.relations = sorted(
            (es.key for es in reg.edges.values()), key=lambda k: k.id)
        self.params: dict[str, Tensor] = {}
        for key in self.relations:
            rid = key.id
            self.params[f"fd.{rid}.P"] = T.init_param(
                (channels, subspace_dim), fan_in=channels,
                seed=_param_seed(seed, f"fd.{rid}.P"))
            self.params[f"fd.{rid}.s"] = T.zeros_param((channels,))
            self.params[f"fd.{rid}.ms.W1"] = T.init_param(
                (channels, channels), fan_in=channels,
                seed=_param_seed(seed, f"fd.{rid}.ms.W1"))
            self.params[f"fd.{rid}.ms.b1"] = T.zeros_param((channels,))
            self.params[f"fd.{rid}.ms.W2"] = T.init_param(
                (channels, 1), fan_in=channels,
                seed=_param_seed(seed, f"fd.{rid}.ms.W2"))
            self.params[f"fd.{rid}.ms.b2"] = T.zeros_param((1,))

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def subspace(self, relation_id: str) -> tuple[Tensor, Tensor]:
        return self.params[f"fd.{relation_id}.P"], self.params[f"fd.{relation_id}.s"]


def _linked_pairs(batch: BatchSubgraph, embeddings: dict[str, Tensor],
                  relations: list[RelationKey]
                  ) -> list[tuple[RelationKey, Tensor, Tensor, np.ndarray]]:
    """(key, h_holder, h_referenced, referenced locals) over the distinct FK
    links present in the batch, for each forward relation in `relations`
    order that has links. Every gather is taped before any score, which
    fixes the order of the gradient sum of a table two relations share."""
    out = []
    for key in relations:
        links = []  # (holder, referenced) locals
        fwd = batch.edges.get(key.id)
        if fwd is not None:
            links.append(fwd)
        rev = batch.edges.get(key.flipped().id)
        if rev is not None:
            links.append(rev[::-1])
        if not links or key.holder not in embeddings \
                or key.referenced not in embeddings:
            continue
        holder, ref = (np.concatenate(col) for col in zip(*links))
        holder_locals, ref_locals = unique_pairs(holder, ref)
        out.append((key, T.take_rows(embeddings[key.holder], holder_locals),
                    T.take_rows(embeddings[key.referenced], ref_locals),
                    ref_locals))
    return out


def loss_emb(diffs: Tensor, P: Tensor, s: Tensor) -> Tensor:
    """Mean squared residual of (diff - s) against its P P^T image."""
    if diffs.shape[0] == 0:
        log.info("loss_emb: no pairs in batch, contributing zero")
        return Tensor(np.array(0.0))
    centered = T.sub(diffs, s)
    projected = T.matmul(T.matmul(centered, P), T.transpose(P))
    return T.mean(T.sumsq(T.sub(centered, projected), axis=1))


def score_pairs(fd: FdModule, relation_id: str, h_i: Tensor, h_ref: Tensor,
                ref_idx: np.ndarray | None = None) -> Tensor:
    """Relation scoring head applied to holder-minus-referenced differences,
    as one `T.pair_mlp` node.

    With `ref_idx` None, row i of `h_i` is scored against row i of `h_ref`
    and the scores have shape (n,). With an (n, k) array of `h_ref` rows,
    row i is scored against each of `h_ref[ref_idx[i]]` and the scores are
    (n, k); the node gathers those rows itself and scatters their gradient
    back onto `h_ref`.
    """
    p = fd.params
    return T.pair_mlp(h_i, h_ref, ref_idx,
                      p[f"fd.{relation_id}.ms.W1"], p[f"fd.{relation_id}.ms.b1"],
                      p[f"fd.{relation_id}.ms.W2"], p[f"fd.{relation_id}.ms.b2"])


def loss_pair(pos: Tensor, negs: Tensor, tau: float) -> Tensor:
    """Contrastive ranking loss of one positive against k negatives.

    -log d(pos) / (d(pos) + sum_k d(neg_k)), d(x) = exp(x / tau), computed via
    logsumexp.
    """
    if negs.shape[1] < 1:
        raise ValueError("loss_pair needs at least one negative per positive")
    n = pos.shape[0]
    stacked = T.scale(T.concat([T.reshape(pos, (n, 1)), negs], axis=1), 1.0 / tau)
    return T.mean(T.sub(T.logsumexp(stacked, axis=1), T.scale(pos, 1.0 / tau)))


def sample_negative_targets(batch: BatchSubgraph, target_table: str,
                            true_target_locals: np.ndarray, k: int,
                            rng: np.random.Generator) -> np.ndarray | None:
    """In-batch negatives: an (n, k) array of locals of the target type.

    Each pair's k negatives are drawn uniformly from the locals whose
    underlying row differs from the pair's true row (its alternatives),
    without replacement when the pair has at least k alternatives and with
    replacement otherwise. Returns None when some pair has no alternative,
    which happens only when every local of the type holds the same row.

    One uniform draw covers the whole (n, k) block; only the slots that hit
    the true row, or repeat an earlier slot of their pair, are drawn again.
    """
    rows = batch.nodes[target_table].rows
    n_local = len(rows)
    if n_local <= 1:
        return None
    true_locals = np.asarray(true_target_locals, dtype=np.int64)
    inverse = unique_inverse(rows)[1]
    counts = np.bincount(inverse)
    alternatives = n_local - counts[inverse[true_locals]]
    if (alternatives == 0).any():
        return None
    true_rows = rows[true_locals]
    distinct = alternatives >= k
    out = rng.integers(0, n_local, size=(len(true_locals), k))
    todo = np.arange(len(true_locals))
    while len(todo):
        draws = out[todo]
        bad = rows[draws] == true_rows[todo, None]
        # a repeat is a slot whose local already appears at an earlier slot;
        # the stable sort keeps equal locals in slot order
        order = np.argsort(draws, axis=1, kind="stable")
        ranked = np.take_along_axis(draws, order, axis=1)
        seen = np.zeros_like(bad)
        seen[:, 1:] = ranked[:, 1:] == ranked[:, :-1]
        repeat = np.empty_like(bad)
        np.put_along_axis(repeat, order, seen, axis=1)
        bad |= repeat & distinct[todo, None]
        hit = bad.any(axis=1)
        todo, draws, bad = todo[hit], draws[hit], bad[hit]
        draws[bad] = rng.integers(0, n_local, size=int(bad.sum()))
        out[todo] = draws
    return out


def fd_losses(batch: BatchSubgraph, embeddings: dict[str, Tensor], fd: FdModule,
              beta: float, gamma: float, tau: float, negatives: int,
              rng: np.random.Generator) -> tuple[Tensor, Tensor, Tensor, list[FdDiagnostics]]:
    """Combined regularizer beta * L_emb + gamma * L_pair, each averaged over
    the relations that have pairs in the batch.

    L_pair ranks each linked pair against `negatives` in-batch negatives from
    `sample_negative_targets`: uniform over the referenced-type locals whose
    row differs from the pair's true row, without replacement when the pair
    has at least that many alternatives. A relation whose batch offers no
    alternative (None from the sampler) contributes no pair term. All k
    negatives are scored in one (n, k) block against the holder embeddings,
    gathered from the referenced table's embeddings by the scoring node.
    """
    emb_terms: list[Tensor] = []
    pair_terms: list[Tensor] = []
    diagnostics: list[FdDiagnostics] = []
    for key, h_i, h_j, ref_locals in _linked_pairs(batch, embeddings,
                                                   fd.relations):
        rid = key.id
        P, s = fd.subspace(rid)
        n = len(ref_locals)
        l_emb = loss_emb(T.sub(h_j, h_i), P, s)
        emb_terms.append(l_emb)

        pos = score_pairs(fd, rid, h_i, h_j)
        neg_locals = sample_negative_targets(batch, key.referenced, ref_locals,
                                             negatives, rng)
        if neg_locals is None:
            log.info("fd: no negative targets available for %s, pair loss skipped", rid)
            diagnostics.append(FdDiagnostics(rid, n, l_emb.item(), float("nan"),
                                             float(pos.values.mean()), float("nan")))
            continue
        negs = score_pairs(fd, rid, h_i, embeddings[key.referenced], neg_locals)
        l_pair = loss_pair(pos, negs, tau)
        pair_terms.append(l_pair)
        diagnostics.append(FdDiagnostics(rid, n, l_emb.item(), l_pair.item(),
                                         float(pos.values.mean()),
                                         float(negs.values.mean())))

    zero = Tensor(np.array(0.0))
    l_emb_mean = (T.scale(_sum_tensors(emb_terms), 1.0 / len(emb_terms))
                  if emb_terms else zero)
    l_pair_mean = (T.scale(_sum_tensors(pair_terms), 1.0 / len(pair_terms))
                   if pair_terms else zero)
    total = T.add(T.scale(l_emb_mean, beta), T.scale(l_pair_mean, gamma))
    return total, l_emb_mean, l_pair_mean, diagnostics


def _sum_tensors(terms: list[Tensor]) -> Tensor:
    total = terms[0]
    for t in terms[1:]:
        total = T.add(total, t)
    return total
