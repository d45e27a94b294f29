"""Alternating training loop, evaluation metrics, and structure export.

Each epoch runs phase A (representation parameters trained on task loss plus
the FD regularizer, FD parameters frozen) then phase B (FD parameters trained
on the regularizer alone, representation frozen, gates frozen). Running gates
update only in phase A. With beta = gamma = 0 the FD machinery is skipped
entirely, which makes the trajectory bit-identical to a task-only run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
import shutil
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .config import DEFAULTS, MAX_NEGATIVES, integral, real
from .errors import CheckpointMismatch, RoleError, TrainingDiverged
from .fd import FdModule, fd_losses, subspace_size
from .model import ForwardResult, Model, ModelConfig, link_scores
from .rdb import RelationalDatabase, TaskSpec, canonical_form
from .sampler import BatchSubgraph, SamplerConfig, make_epoch_batches, sample_batch
from .schema_graph import (EdgeRelationTriple, RelationalEntityGraph,
                           RoleAssignment, build_schema_graph, construct_reg,
                           enumerate_edge_triples, is_gate)
from .tensor import Adam, Tensor

log = logging.getLogger(__name__)

ROLE_MODES = ("learn", "all-node", "all-edge", "random", "transfer")
LINK_NEGATIVES = 10  # sampled negative targets per positive link
# training batches of seeds per evaluation batch. An evaluation forward keeps
# no tape and computes only the rows the head reads, so four training
# batches of seeds peak below a training step while paying less per-batch
# cost and sharing more (row, time) classes; a whole split in one batch
# would have no such bound
EVAL_BATCH_FACTOR = 4


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = DEFAULTS["epochs"]
    batch_size: int = DEFAULTS["batch_size"]
    lr: float = DEFAULTS["lr"]
    beta: float = DEFAULTS["beta"]
    gamma: float = DEFAULTS["gamma"]
    tau: float = DEFAULTS["tau"]
    negatives: int = DEFAULTS["negatives"]
    neighbor_samples: int = DEFAULTS["neighbor_samples"]
    seed: int = 0
    patience: int = DEFAULTS["patience"]
    subspace_dim: int = DEFAULTS["subspace_dim"]
    path_cap: int = DEFAULTS["path_cap"]
    disable_fd: bool = False
    allow_future: bool = False  # test-only causality switch, forwarded to sampling

    def __post_init__(self):
        for name in ("epochs", "batch_size", "negatives", "neighbor_samples",
                     "seed", "patience", "subspace_dim", "path_cap"):
            object.__setattr__(self, name, integral(name, getattr(self, name)))
        for name in ("lr", "beta", "gamma", "tau"):
            object.__setattr__(self, name, real(name, getattr(self, name)))
        for name in ("epochs", "batch_size", "neighbor_samples", "path_cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if not 1 <= self.negatives <= MAX_NEGATIVES:
            raise ValueError(f"negatives must lie in [1, {MAX_NEGATIVES}], "
                             f"got {self.negatives}")
        if min(self.beta, self.gamma) < 0:
            raise ValueError("beta and gamma must be >= 0")

    @property
    def fd_enabled(self) -> bool:
        return not self.disable_fd and (self.beta > 0 or self.gamma > 0)


def make_configs(model: dict, train: dict) -> tuple[ModelConfig, TrainConfig]:
    """The model and training configs of their fields' values. An unknown
    key, a value of the wrong type or out of range, or an FD subspace the
    channels cannot hold raises ValueError naming the key."""
    for key, cls, values in (("model_config", ModelConfig, model),
                             ("train_config", TrainConfig, train)):
        unknown = sorted(set(values) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown {key} key {unknown[0]!r}")
    model_cfg, train_cfg = ModelConfig(**model), TrainConfig(**train)
    if train_cfg.fd_enabled:
        subspace_size(model_cfg.channels, train_cfg.subspace_dim)
    return model_cfg, train_cfg


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share their mean rank. A NaN equals
    nothing, so each NaN ranks alone."""
    order = np.argsort(x, kind="mergesort")
    xs = x[order]
    start = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    end = np.r_[start[1:], len(x)] - 1
    ranks = np.empty(len(x), dtype=np.float64)
    ranks[order] = np.repeat((start + end + 2) / 2.0, end - start + 1)
    return ranks


def roc_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Rank-statistic AUC with average ranks on ties; NaN when single-class."""
    labels = np.asarray(labels, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    ranks = _average_ranks(scores)
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0)
                 / (n_pos * n_neg))


def mae(pred: np.ndarray, target: np.ndarray) -> float:
    return float(np.abs(np.asarray(pred) - np.asarray(target)).mean())


def map_at_k(scores: np.ndarray, candidate_ids: np.ndarray,
             relevant: list[set], k: int) -> float:
    """Mean over sources of average precision of the top-k ranked candidates.

    Candidate columns must be in ascending id order; ties rank lower ids
    first. Sources with no relevant candidates are skipped.
    """
    order = np.argsort(-scores, axis=1, kind="mergesort")
    aps = []
    for i in range(scores.shape[0]):
        rel = relevant[i]
        if not rel:
            continue
        ranked = candidate_ids[order[i, :k]]
        hits = 0
        total = 0.0
        for rank, cid in enumerate(ranked, start=1):
            if int(cid) in rel:
                hits += 1
                total += hits / rank
        aps.append(total / min(k, len(rel)))
    return float(np.mean(aps)) if aps else float("nan")


# ---------------------------------------------------------------------------
# training state
# ---------------------------------------------------------------------------

@dataclass
class TrainState:
    reg: RelationalEntityGraph
    model: Model
    fdmod: FdModule | None
    gates: dict[str, float]  # running gate per active triple: the structure
    task: TaskSpec
    train_cfg: TrainConfig
    history: list[dict] = field(default_factory=list)
    fd_diag_rows: list[dict] = field(default_factory=list)

    def parameters(self) -> dict[str, Tensor]:
        out = dict(self.model.parameters())
        if self.fdmod is not None:
            out.update(self.fdmod.parameters())
        return out


def param_hash(params: dict[str, Tensor]) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name].values, dtype="<f8").tobytes())
    return h.hexdigest()


def roles_for_mode(triples, mode: str, seed: int,
                   transfer_gates: dict[str, float] | None = None
                   ) -> RoleAssignment:
    """The role assignment of a ROLE_MODES entry. `random` fixes each
    triple's gate at a uniform draw, `transfer` at its source gate."""
    if mode in ("all-node", "all-edge", "learn"):
        return RoleAssignment.uniform(triples, mode.removeprefix("all-"))
    if mode == "random":
        rng = np.random.default_rng([seed, 0x5EED])
        return RoleAssignment({t.id: float(rng.uniform(0.0, 1.0))
                               for t in triples})
    if mode == "transfer":
        if transfer_gates is None:
            raise CheckpointMismatch("transfer mode needs source gates")
        return RoleAssignment(dict(transfer_gates))
    raise ValueError(f"unknown roles mode {mode!r}")


def _check_triple_ids(triples: list, ids: set, holder: str) -> None:
    """CheckpointMismatch unless `ids`, the triple ids `holder` has, are
    those of `triples`."""
    have = {t.id for t in triples}
    if ids != have:
        raise CheckpointMismatch(
            f"triple sets differ: {holder} lack {sorted(have - ids)} and "
            f"have extra {sorted(ids - have)}")


def build_state(db: RelationalDatabase, task: TaskSpec, model_cfg: ModelConfig,
                train_cfg: TrainConfig, roles_mode: str = "learn",
                transfer_gates: dict[str, float] | None = None) -> TrainState:
    sg = build_schema_graph(db)
    triples = enumerate_edge_triples(sg)
    if transfer_gates is not None:
        _check_triple_ids(triples, set(transfer_gates), "the source gates")
    roles = roles_for_mode(triples, roles_mode, train_cfg.seed, transfer_gates)
    return _assemble_state(db, sg, task, model_cfg, train_cfg, roles)


def _assemble_state(db: RelationalDatabase, sg, task: TaskSpec,
                    model_cfg: ModelConfig, train_cfg: TrainConfig,
                    roles: RoleAssignment, encoder_stats: dict | None = None,
                    gates: dict[str, float] | None = None) -> TrainState:
    """The entity graph of `roles` over `db` (schema graph `sg`), the model,
    the FD module if FD is on, and `gates` (default: the initial ones)."""
    reg = construct_reg(db, sg, roles, path_cap=train_cfg.path_cap)
    model = Model(reg, model_cfg, task.task_type, train_cut=task.split[0],
                  encoder_stats=encoder_stats)
    fdmod = (FdModule(reg, model_cfg.channels, train_cfg.subspace_dim,
                      seed=model_cfg.seed) if train_cfg.fd_enabled else None)
    return TrainState(reg, model, fdmod, gates or model.init_gates(), task,
                      train_cfg)


# ---------------------------------------------------------------------------
# batch construction and losses
# ---------------------------------------------------------------------------

def _seed_list(task: TaskSpec, split: str, idx: np.ndarray):
    recs = task.labels[split]
    entity = recs.entity[idx].astype(np.int64, copy=False).tolist()
    t_predict = recs.t_predict[idx].astype(np.float64, copy=False).tolist()
    return (list(zip(entity, t_predict)),
            recs.label[idx],
            recs.target[idx] if recs.target is not None else None)


def _sample_forward(state: TrainState, seeds: list[tuple[int, float]],
                    table: str, rng: np.random.Generator,
                    gates: dict[str, float], train: bool,
                    seeds_only: bool = False
                    ) -> tuple[BatchSubgraph, ForwardResult]:
    """Sample the batch of `seeds`, (pk of `table`, prediction time) pairs,
    and run the model over it. The sampler's own seed is drawn from `rng`
    first; sampling and dropout then draw from `rng` itself."""
    cfg = SamplerConfig(neighbor_samples=state.train_cfg.neighbor_samples,
                        num_hops=state.model.cfg.layers,
                        seed=int(rng.integers(2 ** 62)),
                        allow_future=state.train_cfg.allow_future)
    batch = sample_batch(state.reg, seeds, cfg, table, rng=rng)
    return batch, state.model.forward(batch, gates, train=train, rng=rng,
                                      seeds_only=seeds_only)


def _task_loss(state: TrainState, idx: np.ndarray, split: str, train: bool,
               gates: dict[str, float], rng: np.random.Generator
               ) -> tuple[Tensor, ForwardResult, BatchSubgraph,
                          dict[str, float]]:
    task = state.task
    seeds, labels, targets = _seed_list(task, split, idx)
    # only FD reads rows past the seeds'
    seeds_only = state.fdmod is None
    batch, result = _sample_forward(state, seeds, task.entity_table, rng,
                                    gates, train, seeds_only)
    new_gates = result.gates_after

    if task.task_type == "classification":
        loss = T.bce_with_logits(result.output, labels)
    elif task.task_type == "regression":
        loss = T.mean(T.abs_(T.sub(result.output, Tensor(labels))))
    else:
        n = len(seeds)
        k = LINK_NEGATIVES
        target_pk = state.reg.nodes[task.target_table].pk
        neg_pk = target_pk[rng.integers(0, len(target_pk), size=n * k)]
        dst_seeds = [(int(p), seeds[i % n][1])
                     for i, p in enumerate(np.concatenate([targets, neg_pk]))]
        dst_batch, dst_res = _sample_forward(state, dst_seeds,
                                             task.target_table, rng,
                                             new_gates, train, seeds_only)
        new_gates = dst_res.gates_after
        h_dst = T.take_rows(dst_res.embeddings[task.target_table],
                            dst_batch.seed_locals)
        h_src = T.take_rows(result.embeddings[task.entity_table],
                            batch.seed_locals)
        src_rep = T.take_rows(h_src, np.tile(np.arange(n), 1 + k))
        logits = link_scores(src_rep, h_dst)
        y = np.concatenate([np.ones(n), np.zeros(n * k)])
        loss = T.bce_with_logits(logits, y)
    return loss, result, batch, new_gates


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

@contextmanager
def _overflow_diverges(epoch: int, batch: int | None = None):
    """Run the block with floating-point overflow raising TrainingDiverged
    instead of warning: past the float range, training has diverged."""
    where = f"epoch {epoch}" + ("" if batch is None else f" batch {batch}")
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise TrainingDiverged(f"{exc} at {where}",
                               {"epoch": epoch, "batch": batch}) from None


def train(state: TrainState, out_dir: str | Path | None = None,
          phase_hook=None) -> dict:
    """Run the alternating loop; returns a summary with history and report.

    Each epoch's validation metric is logged at INFO on this module's logger.

    `phase_hook(event, epoch, state)` fires at "epoch_start", "after_phase_a"
    and "after_phase_b"; tests use it to audit the freezing contract.
    """
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    cfg = state.train_cfg
    task = state.task
    names = sorted(state.model.params)
    opt_model = Adam([state.model.params[k] for k in names], lr=cfg.lr,
                     names=names)
    opt_fd = None
    fd_params = []
    if state.fdmod is not None:
        names = sorted(state.fdmod.params)
        fd_params = [state.fdmod.params[k] for k in names]
        opt_fd = Adam(fd_params, lr=cfg.lr, names=names)

    direction = "min" if task.task_type == "regression" else "max"
    best = None
    best_metric = None
    bad_epochs = 0
    t0 = time.time()

    for epoch in range(cfg.epochs):
        if phase_hook is not None:
            phase_hook("epoch_start", epoch, state)
        # phase A: representation on task + FD, FD parameters frozen
        batches = make_epoch_batches(task.labels["train"], cfg.batch_size,
                                     seed=_mix(cfg.seed, epoch, 0))
        sums = {"l_task": 0.0, "l_emb": 0.0, "l_pair": 0.0}
        for bi, idx in enumerate(batches):
            rng = np.random.default_rng([cfg.seed, epoch, 1, bi])
            opt_model.zero_grad()
            # FD parameters are frozen in phase A: they stay off the tape
            with (T.tape_scope(), T.frozen(fd_params),
                  _overflow_diverges(epoch, bi)):
                loss, result, batch, new_gates = _task_loss(
                    state, idx, "train", True, state.gates, rng)
                l_task = loss.item()
                l_emb_v = l_pair_v = 0.0
                if state.fdmod is not None:
                    total, l_emb, l_pair, diag = fd_losses(
                        batch, result.embeddings, state.fdmod, cfg.beta,
                        cfg.gamma, cfg.tau, cfg.negatives, rng)
                    loss = T.add(loss, total)
                    l_emb_v, l_pair_v = l_emb.item(), l_pair.item()
                if not np.isfinite(loss.item()):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch} batch {bi}",
                        {"epoch": epoch, "batch": bi, "l_task": l_task,
                         "l_emb": l_emb_v, "l_pair": l_pair_v})
                T.backward(loss)
            opt_model.step()
            state.gates = new_gates
            sums["l_task"] += l_task
            sums["l_emb"] += l_emb_v
            sums["l_pair"] += l_pair_v
        if phase_hook is not None:
            phase_hook("after_phase_a", epoch, state)

        # phase B: FD parameters on the regularizer, representation frozen
        if state.fdmod is not None:
            batches_b = make_epoch_batches(task.labels["train"], cfg.batch_size,
                                           seed=_mix(cfg.seed, epoch, 2))
            for bi, idx in enumerate(batches_b):
                rng = np.random.default_rng([cfg.seed, epoch, 3, bi])
                opt_fd.zero_grad()
                seeds, _, _ = _seed_list(task, "train", idx)
                # the representation is frozen: only FD nodes go on the tape
                with T.no_grad(), _overflow_diverges(epoch, bi):
                    batch, result = _sample_forward(
                        state, seeds, task.entity_table, rng, state.gates,
                        False)
                with T.tape_scope(), _overflow_diverges(epoch, bi):
                    total, l_emb, l_pair, diag = fd_losses(
                        batch, result.embeddings, state.fdmod, cfg.beta,
                        cfg.gamma, cfg.tau, cfg.negatives, rng)
                    if not np.isfinite(total.item()):
                        raise TrainingDiverged(
                            f"non-finite FD loss at epoch {epoch} batch {bi}",
                            {"epoch": epoch, "batch": bi})
                    T.backward(total)
                opt_fd.step()
                for d in diag:
                    state.fd_diag_rows.append({
                        "epoch": epoch, "relation": d.relation,
                        "l_emb": d.loss_emb, "l_pair": d.loss_pair,
                        "pos_score_mean": d.pos_score_mean,
                        "neg_score_mean": d.neg_score_mean})
        if phase_hook is not None:
            phase_hook("after_phase_b", epoch, state)

        n_batches = max(len(batches), 1)
        with _overflow_diverges(epoch):
            val = evaluate_state(state, "val")
        row = {"epoch": epoch, "split": "val", "metric": val["metric"],
               "l_task": sums["l_task"] / n_batches,
               "l_emb": sums["l_emb"] / n_batches,
               "l_pair": sums["l_pair"] / n_batches}
        state.history.append(row)
        log.info("epoch %d: val %s=%.4f l_task=%.4f", epoch, val["name"],
                 val["metric"], row["l_task"])

        metric = val["metric"]
        strictly_better = (best_metric is None or
                           (direction == "max" and metric > best_metric) or
                           (direction == "min" and metric < best_metric))
        tie = best_metric is not None and metric == best_metric
        if (strictly_better or tie) and np.isfinite(metric):
            # ties refresh the snapshot: equal validation, more training
            best_metric = metric
            best = _snapshot(state)
        if strictly_better and np.isfinite(metric):
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > cfg.patience:
                break

    if best is not None:
        _restore(state, best)

    summary = {
        "best_val_metric": best_metric,
        "metric_name": _metric_name(task.task_type),
        "epochs_run": len(state.history),
        "wall_clock_s": time.time() - t0,
        "structure": structure_report(state.reg.triples, state.gates,
                                      state.model.cfg),
        "history": state.history,
    }
    if out_dir is not None:
        save_checkpoint(out_dir / "checkpoint", state)
        _write_csv(out_dir / "metrics.csv", state.history,
                   ["epoch", "split", "metric", "l_task", "l_emb", "l_pair"])
        _write_csv(out_dir / "fd_diagnostics.csv", state.fd_diag_rows,
                   ["epoch", "relation", "l_emb", "l_pair", "pos_score_mean",
                    "neg_score_mean"])
        with open(out_dir / "structure.json", "w", encoding="utf-8") as fh:
            json.dump(summary["structure"], fh, indent=2)
        summary["checkpoint"] = str(out_dir / "checkpoint")
        summary["structure_path"] = str(out_dir / "structure.json")
    return summary


def _mix(*parts: int) -> int:
    h = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(h[:8], "little") % (2 ** 62)


def _snapshot(state: TrainState) -> dict:
    return {
        "params": {k: v.values.copy() for k, v in state.parameters().items()},
        "gates": state.gates.copy(),
    }


def _restore(state: TrainState, snap: dict) -> None:
    params = state.parameters()
    for k, v in snap["params"].items():
        params[k].values[:] = v
    state.gates = snap["gates"].copy()


def _metric_name(task_type: str) -> str:
    return {"classification": "auc", "regression": "mae",
            "link_prediction": "map"}[task_type]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate_state(state: TrainState, split: str) -> dict:
    task = state.task
    if split not in task.labels:
        return {"name": _metric_name(task.task_type), "metric": float("nan"),
                "defined": False, "note": f"split {split!r} has no labels"}
    with T.no_grad():
        if task.task_type == "link_prediction":
            return _evaluate_links(state, split)
        recs = task.labels[split]
        outputs = _split_outputs(state, split)
        if task.task_type == "classification":
            value = roc_auc(recs.label, outputs)
            return {"name": "auc", "metric": value,
                    "defined": bool(np.isfinite(value)),
                    "note": None if np.isfinite(value)
                    else "undefined: single-class labels"}
        return {"name": "mae", "metric": mae(outputs, recs.label),
                "defined": True}


def _split_outputs(state: TrainState, split: str) -> np.ndarray:
    """The model's output per seed of `split`, in record order, from
    no-grad forwards over batches of EVAL_BATCH_FACTOR training batches of
    seeds, each sampled from its own generator `[seed, 99, first row]`."""
    n = len(state.task.labels[split])
    step = EVAL_BATCH_FACTOR * state.train_cfg.batch_size
    outputs = np.empty(n, dtype=np.float64)
    for lo in range(0, n, step):
        idx = np.arange(lo, min(lo + step, n))
        seeds, _, _ = _seed_list(state.task, split, idx)
        rng = np.random.default_rng([state.train_cfg.seed, 99, lo])
        _, res = _sample_forward(state, seeds, state.task.entity_table, rng,
                                 state.gates, False, seeds_only=True)
        outputs[idx] = res.output.values
    return outputs


def _evaluate_links(state: TrainState, split: str) -> dict:
    task = state.task
    recs = task.labels[split]
    target_store = state.reg.nodes[task.target_table]
    by_source: dict[tuple[int, float], set] = {}
    for i in range(len(recs)):
        key = (int(recs.entity[i]), float(recs.t_predict[i]))
        if recs.label[i] == 1:
            by_source.setdefault(key, set()).add(int(recs.target[i]))
        else:
            by_source.setdefault(key, set())

    sources = sorted(by_source)
    rng = np.random.default_rng([state.train_cfg.seed, 98])
    src_batch, src_res = _sample_forward(state, sources, task.entity_table,
                                         rng, state.gates, False,
                                         seeds_only=True)
    h_src = src_res.embeddings[task.entity_table].values[src_batch.seed_locals]

    aps = []  # per source with a relevant target, its average precision
    cand_cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    for si, (pk, t_pred) in enumerate(sources):
        if t_pred not in cand_cache:
            cand_pk = target_store.pk[target_store.times <= t_pred]
            seeds = [(int(p), t_pred) for p in cand_pk]
            rng = np.random.default_rng([state.train_cfg.seed, 97, int(t_pred)])
            tb, tres = _sample_forward(state, seeds, task.target_table, rng,
                                       state.gates, False, seeds_only=True)
            h_t = tres.embeddings[task.target_table].values[tb.seed_locals]
            cand_cache[t_pred] = (cand_pk, h_t)
        cand_pk, h_t = cand_cache[t_pred]
        relevant = by_source[(pk, t_pred)]
        if relevant:
            aps.append(map_at_k((h_src[si] @ h_t.T)[None, :], cand_pk,
                                [relevant], task.eval_k))
    value = float(np.mean(aps)) if aps else float("nan")
    return {"name": "map", "metric": value, "defined": bool(np.isfinite(value))}


# ---------------------------------------------------------------------------
# structure report, checkpoints, transfer
# ---------------------------------------------------------------------------

def structure_report(triples: list, gates: dict[str, float],
                     cfg: ModelConfig) -> dict:
    by_id = {t.id: t for t in triples}
    entries = []
    for tid in sorted(gates):
        triple = by_id[tid]
        g = gates[tid]
        partner = triple.orientation_partner_id()
        consistency = None
        if partner is not None and partner in gates:
            consistency = ("same" if abs(g - gates[partner]) < 0.1
                           else "diff")
        entries.append({
            "triple": tid,
            "pattern": triple.pattern,
            "tables": [triple.u_table, triple.v_table, triple.w_table],
            "gate": g,
            "dominant_role": "node" if g < 0.5 else "edge",
            "orientation_consistency": consistency,
        })
    return {"triples": entries, "alpha": cfg.alpha, "mu": cfg.mu}


def export_structure(checkpoint_dir: str | Path,
                     output: str | Path | None = None) -> dict:
    """Build the structure report from a checkpoint alone."""
    meta, gates = _read_checkpoint_meta(checkpoint_dir)
    report = structure_report(meta["triples"], gates, meta["model_config"])
    if output is not None:
        Path(output).parent.mkdir(parents=True, exist_ok=True)
        with open(output, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
    return report


def dataset_digest(db: RelationalDatabase) -> str:
    return hashlib.sha256(canonical_form(db)).hexdigest()


def save_checkpoint(path: str | Path, state: TrainState) -> Path:
    """Write the checkpoint directory `path`: params.bin, gates.json and
    meta.json. The files go into a sibling temp directory that is then
    renamed into place, so a save that fails leaves `path` as it was, and
    `path` is only briefly absent between moving the old checkpoint aside
    and renaming the new one in. Whatever else `path` held is replaced."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # mkdir, unlike tempfile.mkdtemp, gives the directory the umask's mode
    sibling = f".{path.name}.{os.urandom(8).hex()}"
    tmp = path.with_name(sibling + ".tmp")
    tmp.mkdir()
    try:
        _write_checkpoint_files(tmp, state)
        if path.exists():
            # a rename replaces only an empty directory: move the old aside
            old = path.with_name(sibling + ".old")
            os.replace(path, old)
            try:
                os.replace(tmp, path)
            except BaseException:
                os.replace(old, path)
                raise
            if old.is_dir():
                shutil.rmtree(old, ignore_errors=True)
            else:
                old.unlink(missing_ok=True)
        else:
            os.replace(tmp, path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return path


def _write_checkpoint_files(path: Path, state: TrainState) -> None:
    T.save_tensors(path / "params.bin", state.parameters())
    with open(path / "gates.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"gates": state.gates}, sort_keys=True, indent=2))
    meta = {
        "model_config": asdict(state.model.cfg),
        "encoder_stats": state.model.encoder.stats,
        "task": {
            "name": state.task.name,
            "task_type": state.task.task_type,
            "entity_table": state.task.entity_table,
            "target_table": state.task.target_table,
            "eval_k": state.task.eval_k,
            "split": list(state.task.split),
        },
        "train_config": asdict(state.train_cfg),
        "roles": dict(state.reg.roles.roles),
        "triples": [{"pattern": t.pattern, "u_table": t.u_table,
                     "v_table": t.v_table, "w_table": t.w_table,
                     "fk_u": t.fk_u, "fk_w": t.fk_w}
                    for t in state.reg.triples],
        "schema_digest": schema_digest(state.reg.specs),
    }
    with open(path / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)


def schema_digest(specs: dict) -> str:
    """Hash of the table specs (a name -> TableSpec mapping) a model was
    built on; checkpoints store it, loading and transfer compare it."""
    payload = json.dumps([specs[n].to_dict() for n in sorted(specs)],
                         sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


_META_KEYS = {
    "meta.json": ("model_config", "encoder_stats.tables",
                  "encoder_stats.time_scale", "task.name", "task.task_type",
                  "task.entity_table", "task.target_table", "task.eval_k",
                  "task.split", "train_config", "roles", "triples",
                  "schema_digest"),
    "gates.json": ("gates",),
}


def _check_gates(where: Path, gates, roles: RoleAssignment,
                 triples: list) -> None:
    """CheckpointMismatch naming the triple unless `gates` maps each triple
    whose role is not "node", and no other key, to a gate (`is_gate`) that
    equals any gate the role fixes."""
    if not isinstance(gates, dict):
        raise CheckpointMismatch(f"{where}: gates must be an object, "
                                 f"got {gates!r}")
    gated = {t.id for t in triples if roles.role(t.id) != "node"}
    for tid in sorted(gated | set(gates)):
        if tid not in gates:
            raise CheckpointMismatch(f"{where} lacks the gate of triple {tid!r}")
        g, fixed = gates[tid], roles.fixed_gate(tid)
        if not is_gate(g):
            raise CheckpointMismatch(f"{where}: gates.{tid} must be a number "
                                     f"in [0, 1], got {g!r}")
        if tid not in gated:
            raise CheckpointMismatch(f"{where} has a gate for triple {tid!r}, "
                                     f"which meta.json's roles do not gate")
        if fixed is not None and g != fixed:
            raise CheckpointMismatch(
                f"{where}: the gate of triple {tid!r} is {g!r}, but its role "
                f"in meta.json fixes it at {fixed!r}")


def _first_absent(data, paths) -> str | None:
    """The first of the key paths (tuples) missing from the nested dicts
    `data`, dotted up to its first missing key."""
    for path in paths:
        node = data
        for i, key in enumerate(path):
            if not isinstance(node, dict) or key not in node:
                return ".".join(path[:i + 1])
            node = node[key]
    return None


def _read_checkpoint_meta(path: str | Path, db: RelationalDatabase | None = None
                          ) -> tuple[dict, dict[str, float]]:
    """meta.json and the gates of gates.json of a checkpoint directory.

    In the returned meta, "model_config", "train_config", "triples" and
    "roles" are ModelConfig, TrainConfig, EdgeRelationTriple and
    RoleAssignment objects. A missing file, invalid JSON, a missing key, an
    unknown config key or a config value the configs or the FD module
    reject raises CheckpointMismatch naming the file and the key, and so
    do a schema other than `db`'s, a role `RoleAssignment.validate`
    refuses, and gates that disagree with the roles (`_check_gates`).
    """
    path = Path(path)
    parsed = {}
    for name, keys in _META_KEYS.items():
        try:
            with open(path / name, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise CheckpointMismatch(
                f"no checkpoint at {path}: cannot read {name} "
                f"({exc.strerror})") from None
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise CheckpointMismatch(f"invalid JSON in {path / name}: {exc}") from None
        absent = _first_absent(data, [k.split(".") for k in keys])
        if absent:
            raise CheckpointMismatch(f"{path / name} lacks key {absent!r}")
        parsed[name] = data
    meta = parsed["meta.json"]
    where = path / "meta.json"
    if not isinstance(meta["roles"], dict):
        raise CheckpointMismatch(f"{where}: roles must be an object, "
                                 f"got {meta['roles']!r}")
    try:
        meta["model_config"], meta["train_config"] = make_configs(
            meta["model_config"], meta["train_config"])
        meta["triples"] = [EdgeRelationTriple(**d) for d in meta["triples"]]
    except (TypeError, ValueError) as exc:
        raise CheckpointMismatch(f"unreadable checkpoint in {path}: {exc}") from None
    meta["roles"] = RoleAssignment(meta["roles"])
    try:
        meta["roles"].validate(meta["triples"])
    except RoleError as exc:
        raise CheckpointMismatch(f"{where}: {exc}") from None
    gates = parsed["gates.json"]["gates"]
    _check_gates(path / "gates.json", gates, meta["roles"], meta["triples"])
    if db is not None and meta["schema_digest"] != schema_digest(db.specs):
        raise CheckpointMismatch(f"{path / 'meta.json'}: checkpoint schema "
                                 f"does not match the database")
    return meta, gates


def load_checkpoint(path: str | Path, db: RelationalDatabase,
                    task: TaskSpec) -> TrainState:
    """The state a checkpoint holds over `db` and `task`. A task of another
    type or tables, or another schema, raises CheckpointMismatch naming it."""
    path = Path(path)
    meta, gates = _read_checkpoint_meta(path, db)
    for key in ("task_type", "entity_table", "target_table"):
        if meta["task"][key] != getattr(task, key):
            raise CheckpointMismatch(
                f"{path / 'meta.json'}: task.{key} is {meta['task'][key]!r}, "
                f"the task's is {getattr(task, key)!r}")
    sg = build_schema_graph(db)
    _check_triple_ids(enumerate_edge_triples(sg),
                      {t.id for t in meta["triples"]}, "the checkpoint's triples")
    try:  # the encoder checks each statistic it reads
        state = _assemble_state(
            db, sg, task, meta["model_config"], meta["train_config"],
            meta["roles"], meta["encoder_stats"], gates)
    except CheckpointMismatch as exc:
        raise CheckpointMismatch(f"{path / 'meta.json'}: {exc}") from None
    stored = T.load_tensors(path / "params.bin")
    params = state.parameters()
    missing = sorted(set(params) - set(stored))
    if missing:
        raise CheckpointMismatch(f"checkpoint lacks parameters: {missing[:5]}")
    for name, arr in stored.items():
        if name in params:
            if params[name].values.shape != arr.shape:
                raise CheckpointMismatch(
                    f"parameter {name} shape {arr.shape} != "
                    f"{params[name].values.shape}")
            params[name].values[:] = arr
    return state


def evaluate(checkpoint_dir: str | Path, db: RelationalDatabase,
             task: TaskSpec, split: str) -> dict:
    state = load_checkpoint(checkpoint_dir, db, task)
    return evaluate_state(state, split)


def transfer_structure(source_checkpoint: str | Path, db: RelationalDatabase,
                       task: TaskSpec, model_cfg: ModelConfig,
                       train_cfg: TrainConfig,
                       out_dir: str | Path | None = None) -> dict:
    """Train task B with table-level gates copied from checkpoint A and frozen."""
    meta, gates = _read_checkpoint_meta(source_checkpoint, db)
    state = build_state(db, task, model_cfg, train_cfg, roles_mode="transfer",
                        transfer_gates=gates)
    summary = train(state, out_dir=out_dir)
    summary["transfer"] = {"source_task": meta["task"]["name"],
                           "target_task": task.name}
    return summary


# ---------------------------------------------------------------------------
# CSV reports
# ---------------------------------------------------------------------------

def _write_csv(path: Path, rows: list[dict], fieldnames: list[str]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
