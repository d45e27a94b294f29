"""Aggregate-first message passing against the per-path pipeline it replaced.

The oracle below is the earlier `Model.forward`: every edge and path row is
gathered and mapped, and the mapped rows are then averaged into dense
per-table message arrays. The engine now averages first and maps one row
per destination, so sums run in another order: forward outputs and
gradients agree within a tolerance, not bit for bit. The oracle also
computes every last-hop copy of a (row, prediction time) on its own, so it
checks the engine's shared last-hop rows as well.
"""

import dataclasses
import hashlib
from collections import Counter

import numpy as np
import pytest

from rolegnn import kernels
from rolegnn import tensor as T
from rolegnn.fd import fd_losses
from rolegnn.model import (ForwardResult, Model, ModelConfig, SharedBatch,
                           _same_pairs, class_neighbor_mean,
                           completion_message, compute_gate,
                           cooccurrence_message)
from rolegnn.sampler import SamplerConfig, sample_batch
from rolegnn.schema_graph import (build_schema_graph, construct_reg,
                                  enumerate_edge_triples)
from rolegnn.synth import gen_completion_chain, gen_twohop
from rolegnn.tensor import Tensor
from rolegnn.training import (TrainConfig, _seed_list, _task_loss,
                              build_state, roles_for_mode, train)

RTOL = 1e-10


def _segment_mean(a: Tensor, segments: np.ndarray, num_segments: int) -> Tensor:
    """The replaced tape op: per-bucket mean of rows, zero rows for empty
    buckets."""
    segments = np.asarray(segments, dtype=np.int64)
    means, counts = kernels.segment_mean(a.values, segments, num_segments)
    out = Tensor(means)
    inv = 1.0 / np.maximum(counts, 1)

    def bwd(g):
        T._accum(a, (g * inv[:, None])[segments])
    return T._record(out, (a,), bwd)


def _per_path_forward(self: Model, batch, gates, train: bool, rng=None,
                      seeds_only: bool = False) -> ForwardResult:
    """`Model.forward` as it was before aggregate-first messages."""
    h = self.encoder.encode(batch)
    running = dict(gates)
    gate_diag = {}
    layers = self.cfg.layers

    for l in range(layers):
        if seeds_only:
            n_out = {c: batch.reach[c][layers - 1 - l] for c in h}
        else:
            n_out = {c: hc.shape[0] for c, hc in h.items()}

        self_term = {}
        for c, hc in h.items():
            if n_out[c] < hc.shape[0]:
                hc = T.take_rows(hc, np.arange(n_out[c]))
            self_term[c] = T.linear(hc, self.params[f"L{l}.self.{c}.W"],
                                    self.params[f"L{l}.self.{c}.b"])

        messages = {}
        for key in self.relations:
            pair = batch.edges.get(key.id)
            if pair is None or key.dst_table not in h or key.src_table not in h:
                continue
            src, dst = pair
            if seeds_only:
                keep = dst < n_out[key.dst_table]
                src, dst = src[keep], dst[keep]
            mapped = T.matmul(T.take_rows(h[key.src_table], src),
                              self.params[f"L{l}.rel.{key.id}.W"])
            messages[key.id] = _segment_mean(mapped, dst, n_out[key.dst_table])

        by_dst = {}
        for key in self.relations:
            if key.id in messages:
                by_dst.setdefault(key.dst_table, []).append(key.id)

        node_full = {}
        for c in h:
            total = self_term[c]
            for kid in by_dst.get(c, []):
                total = T.add(total, messages[kid])
            node_full[c] = T.relu(total)

        fusion_pairs = {}
        for tr in self.active_triples:
            c = tr.w_table
            trip = batch.paths.get(tr.id)
            if trip is None or c not in h:
                continue
            u_idx, v_idx, w_idx = trip
            if seeds_only:
                keep = w_idx < n_out[c]
                u_idx, v_idx, w_idx = u_idx[keep], v_idx[keep], w_idx[keep]
            h_w = T.take_rows(h[c], w_idx)
            h_v = T.take_rows(h[tr.v_table], v_idx)
            h_u = T.take_rows(h[tr.u_table], u_idx)
            if tr.pattern == "cooccurrence":
                msg = cooccurrence_message(
                    self.params[f"L{l}.co.{tr.id}.W"], h_w, h_v, h_u)
            else:
                msg = completion_message(
                    self.params[f"L{l}.comp.{tr.id}.W1"],
                    self.params[f"L{l}.comp.{tr.id}.W2"],
                    self.params[f"L{l}.comp.{tr.id}.f.W"],
                    self.params[f"L{l}.comp.{tr.id}.f.b"],
                    h_w, h_v, h_u)
            e_agg = _segment_mean(msg, w_idx, n_out[c])
            h_e = T.relu(T.add(self_term[c], e_agg))

            match_id = tr.matching_relation().id
            if match_id in messages:
                h_n = T.relu(T.add(self_term[c], messages[match_id]))
            else:
                h_n = T.relu(self_term[c])

            role = self.reg.roles.role(tr.id)
            if role == "edge":
                g_used = Tensor(np.array(1.0))
            elif role != "learn":  # a fixed gate
                g_used = Tensor(np.array(role))
            else:
                g_tilde, g, g_used = compute_gate(
                    self.params[f"L{l}.gate.{tr.id}.W"],
                    self.params[f"L{l}.gate.{tr.id}.b"],
                    h_n, h_e, running[tr.id], self.cfg.alpha, self.cfg.mu,
                    train)
                if n_out[c]:
                    gate_diag[tr.id] = (float(g_tilde.values.mean()),
                                        float(g.values.mean()))
                if train:
                    running[tr.id] = float(g_used.values)
            fusion_pairs.setdefault(c, []).append((h_n, h_e, g_used))

        h_next = {}
        for c in h:
            if c in fusion_pairs:
                h_next[c] = T.gated_sum(fusion_pairs[c])
            else:
                h_next[c] = node_full[c]
            if self.cfg.dropout > 0:
                h_next[c] = T.dropout(h_next[c], self.cfg.dropout, train, rng)
        h = h_next

    seed_h = T.take_rows(h[batch.entity_table], batch.seed_locals)
    if self.task_type in ("classification", "regression"):
        out = T.reshape(T.linear(seed_h, self.params["head.W"],
                                 self.params["head.b"]),
                        (len(batch.seed_locals),))
    else:
        out = seed_h
    return ForwardResult(out, h, running, gate_diag)


def _setup(gen, mode: str, layers: int):
    db, task = gen()
    sg = build_schema_graph(db)
    roles = roles_for_mode(enumerate_edge_triples(sg), mode, seed=3)
    reg = construct_reg(db, sg, roles)
    model = Model(reg, ModelConfig(channels=8, layers=layers, seed=2),
                  task.task_type, train_cut=task.split[0])
    recs = task.labels["test"]
    seeds = [(int(recs.entity[i]), float(recs.t_predict[i]))
             for i in range(min(24, len(recs.entity)))]
    cfg = SamplerConfig(neighbor_samples=16, num_hops=layers, seed=layers)
    return model, sample_batch(reg, seeds, cfg, task.entity_table)


def _run(model: Model, forward, batch, seeds_only: bool):
    """Output, committed gates, gate diagnostics and every parameter
    gradient of one forward/backward; training mode unless `seeds_only`."""
    res = forward(model, batch, model.init_gates(), train=not seeds_only,
                  seeds_only=seeds_only)
    T.backward(T.sumsq(T.tanh(res.output)))
    grads = {}
    for name, p in model.params.items():
        grads[name] = p.grad.copy()
        p.grad[:] = 0.0
    return res.output.values, res.gates_after, res.gate_diag, grads


def _assert_equivalent(model: Model, batch, seeds_only: bool) -> None:
    out, gates, diag, grads = _run(model, Model.forward, batch, seeds_only)
    ref_out, ref_gates, ref_diag, ref_grads = _run(
        model, _per_path_forward, batch, seeds_only)
    np.testing.assert_allclose(out, ref_out, rtol=RTOL, atol=0)
    assert gates.keys() == ref_gates.keys()
    for tid in gates:
        np.testing.assert_allclose(gates[tid], ref_gates[tid], rtol=RTOL)
    assert diag.keys() == ref_diag.keys()
    for tid in diag:
        np.testing.assert_allclose(diag[tid], ref_diag[tid], rtol=RTOL)
    assert any(np.any(g) for g in ref_grads.values())
    for name, g in ref_grads.items():
        np.testing.assert_allclose(grads[name], g, rtol=RTOL, atol=0,
                                   err_msg=name)


@pytest.mark.parametrize("seeds_only", [False, True])
@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("mode", ["learn", "all-edge", "all-node", "random"])
def test_aggregate_first_matches_per_path(mode, layers, seeds_only):
    model, batch = _setup(lambda: gen_twohop(120, 30, 400, 1.0, 0), mode,
                          layers)
    _assert_equivalent(model, batch, seeds_only)


@pytest.mark.parametrize("seeds_only", [False, True])
@pytest.mark.parametrize("layers", [1, 2])
def test_completion_chain_matches_per_path(layers, seeds_only):
    model, batch = _setup(lambda: gen_completion_chain((200, 100, 60), 1),
                          "learn", layers)
    assert any(t.pattern == "completion" and t.id in batch.paths
               and len(batch.paths[t.id][0]) for t in model.active_triples)
    _assert_equivalent(model, batch, seeds_only)


def _assert_two_epoch_history_matches(monkeypatch, dropout: float) -> None:
    def history(forward):
        monkeypatch.setattr(Model, "forward", forward)
        db, task = gen_twohop(120, 30, 400, 1.0, 4)
        state = build_state(db, task,
                            ModelConfig(channels=8, layers=2, dropout=dropout,
                                        seed=5),
                            TrainConfig(epochs=2, batch_size=32, lr=0.005,
                                        neighbor_samples=16, seed=5))
        return train(state)["history"]

    new = history(Model.forward)
    ref = history(_per_path_forward)
    assert len(new) == len(ref) == 2
    for row, ref_row in zip(new, ref):
        for key, value in ref_row.items():
            if isinstance(value, float):
                np.testing.assert_allclose(row[key], value, rtol=1e-9,
                                           err_msg=key)
            else:
                assert row[key] == value, key


def test_two_epoch_history_matches_per_path(monkeypatch):
    # training dropout keeps every last-hop copy apart
    _assert_two_epoch_history_matches(monkeypatch, dropout=0.1)


def test_two_epoch_history_with_shared_leaves_matches_per_path(monkeypatch):
    _assert_two_epoch_history_matches(monkeypatch, dropout=0.0)


# --- shared last-hop rows -----------------------------------------------------

def _two_time_setup(mode: str, layers: int):
    """A batch whose seeds are the same users under two prediction times,
    so one leaf row is reached under both. The gate heads start away from
    zero, so each row has its own gate."""
    model, _ = _setup(lambda: gen_twohop(120, 30, 400, 1.0, 0), mode, layers)
    rng = np.random.default_rng(1)
    for name, p in model.params.items():
        if ".gate." in name:
            p.values[...] = rng.normal(scale=0.5, size=p.shape)
    _, task = gen_twohop(120, 30, 400, 1.0, 0)
    users = task.labels["test"].entity[:12]
    times = [float(task.labels[s].t_predict[0]) for s in ("train", "test")]
    assert times[0] != times[1]
    seeds = [(int(u), t) for t in times for u in users]
    cfg = SamplerConfig(neighbor_samples=16, num_hops=layers, seed=layers)
    return model, sample_batch(model.reg, seeds, cfg, task.entity_table)


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_shared_leaves_are_one_per_row_and_time(layers):
    model, batch = _two_time_setup("learn", layers)
    sharing = model.share(batch)
    compact, expand = sharing.batch, sharing.expand
    assert expand, "nothing was shared"
    across_times = 0
    for c, tn in batch.nodes.items():
        lo = batch.reach[c][-2]
        times = batch.seed_t_predict[tn.seed_of]
        leaves = set(zip(tn.rows[lo:].tolist(), times[lo:].tolist()))
        across_times += len(leaves) - len({r for r, _ in leaves})
        if c not in expand:
            assert len(leaves) == tn.n - lo
            assert compact.nodes[c] is tn
            continue
        # non-leaf locals keep their numbering and are never merged
        np.testing.assert_array_equal(expand[c][:lo], np.arange(lo))
        assert compact.nodes[c].n == lo + len(leaves)
        assert set(expand[c][lo:].tolist()) == set(range(lo, lo + len(leaves)))
        # each local's compute row holds its own (row, prediction time)
        np.testing.assert_array_equal(compact.nodes[c].rows[expand[c]], tn.rows)
        np.testing.assert_array_equal(
            compact.seed_t_predict[compact.nodes[c].seed_of[expand[c]]], times)
    assert across_times > 0, "no leaf row was reached under both times"
    for key in model.relations:
        if key.id in batch.edges:
            src, dst = batch.edges[key.id]
            new_src, new_dst = compact.edges[key.id]
            assert new_dst is dst
            if key.src_table in expand:
                np.testing.assert_array_equal(new_src, expand[key.src_table][src])


def _leaf_reference(model: Model, batch):
    """The leaf sharing and the twins as first written, by `np.unique`
    classes and an argsort lookup: (nodes, expand, twins) per merged table."""
    _, t_class = np.unique(batch.seed_t_predict, return_inverse=True)

    def key(tn, c, idx):
        return t_class[tn.seed_of[idx]] * model.reg.nodes[c].n_rows + tn.rows[idx]

    out = {}
    for c, tn in batch.nodes.items():
        lo = batch.reach[c][-2]
        _, inverse = np.unique(key(tn, c, slice(lo, None)), return_inverse=True)
        k = int(inverse.max()) + 1 if tn.n > lo else 0
        if k == tn.n - lo:
            continue
        member = np.empty(k, dtype=np.int64)
        member[inverse] = np.arange(lo, tn.n)
        keep = np.concatenate([np.arange(lo), member])
        merged = dataclasses.replace(tn, rows=tn.rows[keep],
                                     seed_of=tn.seed_of[keep])
        leaves = key(merged, c, slice(lo, None))
        keys = key(merged, c, slice(0, lo))
        order = np.argsort(leaves)
        at = order[np.minimum(np.searchsorted(leaves, keys, sorter=order),
                              len(leaves) - 1)]
        out[c] = (merged, np.concatenate([np.arange(lo), lo + inverse]),
                  np.where(leaves[at] == keys, lo + at, -1))
    return out


@pytest.mark.parametrize("count_factor", [kernels.COUNT_FACTOR, 0])
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_leaf_classes_byte_equal_to_np_unique(monkeypatch, layers, count_factor):
    """Counted leaf classes and twins (and, with a count factor of 0, the
    sorted fallback) give the very arrays the `np.unique` passes gave."""
    monkeypatch.setattr(kernels, "COUNT_FACTOR", count_factor)
    model, batch = _two_time_setup("learn", layers)
    want = _leaf_reference(model, batch)
    sharing = model.share(batch)
    compact, expand = sharing.batch, sharing.expand
    assert sorted(expand) == sorted(want)
    times = batch.seed_t_predict
    for c, (nodes, renumber, twins) in want.items():
        for got, ref in [(compact.nodes[c].rows, nodes.rows),
                         (times[compact.nodes[c].seed_of], times[nodes.seed_of]),
                         (compact.nodes[c].seed_of, nodes.seed_of),
                         (expand[c], renumber), (sharing.twins[c], twins)]:
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), c
    for key in model.relations:
        if key.id in batch.edges and key.src_table in want:
            src = compact.edges[key.id][0]
            assert src.tobytes() == want[key.src_table][1][batch.edges[key.id][0]].tobytes()


@pytest.mark.parametrize("seeds_only", [False, True])
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_shared_leaves_across_times_match_per_path(layers, seeds_only):
    model, batch = _two_time_setup("learn", layers)
    _assert_equivalent(model, batch, seeds_only)


@pytest.mark.parametrize("layers", [1, 2])
def test_fd_first_step_gradients_match_per_path(monkeypatch, layers):
    """FD on: the FD losses read every local's embedding through the
    gathered-back embeddings. With two layers they read shared last-hop
    users; with one, the shared rows (products) are linked to nothing."""
    def first_step(forward):
        monkeypatch.setattr(Model, "forward", forward)
        db, task = gen_twohop(120, 30, 400, 1.0, 4)
        state = build_state(db, task,
                            ModelConfig(channels=8, layers=layers, seed=5),
                            TrainConfig(batch_size=32, neighbor_samples=16,
                                        beta=0.5, gamma=0.5, seed=5))
        cfg = state.train_cfg
        rng = np.random.default_rng([cfg.seed, 0, 1, 0])
        with T.tape_scope(), T.frozen(list(state.fdmod.params.values())):
            loss, result, batch, gates = _task_loss(
                state, np.arange(32), "train", True, state.gates, rng)
            total, _, _, _ = fd_losses(batch, result.embeddings, state.fdmod,
                                       cfg.beta, cfg.gamma, cfg.tau,
                                       cfg.negatives, rng)
            T.backward(T.add(loss, total))
        return gates, {n: p.grad.copy()
                              for n, p in state.model.params.items()}

    gates, grads = first_step(Model.forward)
    ref_gates, ref_grads = first_step(_per_path_forward)
    assert gates.keys() == ref_gates.keys()
    for tid in gates:
        np.testing.assert_allclose(gates[tid], ref_gates[tid], rtol=RTOL)
    assert any(np.any(g) for g in ref_grads.values())
    for name, g in ref_grads.items():
        np.testing.assert_allclose(grads[name], g, rtol=RTOL, atol=0,
                                   err_msg=name)


# --- classes of complete copies -------------------------------------------

def _repeated_seed_setup(mode: str, layers: int):
    """`_two_time_setup` with four seeds repeated, so that with one layer
    some non-leaf (row, prediction time) is held twice as well."""
    model, batch = _two_time_setup(mode, layers)
    seeds = list(zip(batch.seed_rows.tolist(), batch.seed_t_predict.tolist()))
    pk = model.reg.nodes[batch.entity_table].pk
    seeds = [(int(pk[r]), t) for r, t in seeds + seeds[:4]]
    cfg = SamplerConfig(neighbor_samples=16, num_hops=layers, seed=layers)
    return model, sample_batch(model.reg, seeds, cfg, batch.entity_table)


# SHA-256 of a forward's output, committed gates, gate diagnostics, full-mode
# embeddings and, in training, every parameter gradient of one backward
# pass; recorded before the sharing passes were merged into one. The cases
# where a co-occurrence triple's path pairs match its relation's edges were
# re-taken when its v-mean began to read the relation's mean
_FORWARD_PINNED = {
    ("learn", 1, "train"):
        "57dd9c4d1511b688a7d177225a0c2edcc497c3fe2dda284a4d5b5b3920ff26cd",
    ("learn", 1, "full"):
        "3defb00b89bc65fda1fbfc709dc74c5c1f09dc661fb750e8725b3798246bd366",
    ("learn", 1, "seeds-only"):
        "bf5c60207910e0d42480224b5fb03da045dd313f311e1a253e035c575c9256b4",
    ("learn", 2, "train"):
        "75f1ea650066c186bbb554ac8ca0edc5501fb019393a19d56d7cd836f139beb1",
    ("learn", 2, "full"):
        "cd0feb5845050f3c043579f3684c72ed79bfb8596ab9ca7eb1df87ef127dd50d",
    ("learn", 2, "seeds-only"):
        "92d5825c0ef5e0024322ede9091ffdbd52fad9eaa83109ea6c42293c4ae60b24",
    ("learn", 3, "train"):
        "949af33961ea2922c3d145076b97085b55b7dafed4143c52dcc79ac0f939db25",
    ("learn", 3, "full"):
        "23f473221f08e5fba73daddc5352470532b3bb3e6ab4124a6e33664dbac4988b",
    ("learn", 3, "seeds-only"):
        "e358b695805deff83d42781a286a6587c0819b05ed06efa61226589c0aaed89d",
    ("all-edge", 1, "train"):
        "f5289a7cde250183094e67127cc4a5bfb4d5ea4e745e14875176140446223641",
    ("all-edge", 1, "full"):
        "638d925aea700fc985d1e17420042293e4f97f68b3554e63097e7171cc659bd1",
    ("all-edge", 1, "seeds-only"):
        "80dad97003ba46db1c5642f8c4bb70ee265a845f0f4dea40327401d3f223f23e",
    ("all-edge", 2, "train"):
        "690ce209b1859af12f3870cddd8169aff33f53f6b03cef8b78c4e8b98b43b4a9",
    ("all-edge", 2, "full"):
        "4a6e89570859efae1d6eaf442677ef4f15e8f7f1808fa2af1640b938ae51cd55",
    ("all-edge", 2, "seeds-only"):
        "0bd9dfe422e4b17ec26b0c1d98f4c340d772efc465484d1329d0982f7e20f410",
    ("all-edge", 3, "train"):
        "62139cbc6808601491b314cda015824ced1322903739a2173ebc1dd4d02712e1",
    ("all-edge", 3, "full"):
        "5f9002b40ba2242b345164334e891be99b4715ff206aef7be17fb8c2012daac9",
    ("all-edge", 3, "seeds-only"):
        "ff0538c7f67d57b5785883a31e5b51bfe862b8007b020ec307f3ab1b7f0eebcc",
}


def _forward_digest(model: Model, batch, how: str) -> str:
    train, seeds_only = how == "train", how == "seeds-only"
    digest = hashlib.sha256()
    with T.tape_scope():
        res = model.forward(batch, model.init_gates(), train=train,
                            seeds_only=seeds_only)
        digest.update(res.output.values.tobytes())
        digest.update(repr(sorted(res.gates_after.items())).encode())
        digest.update(repr(sorted(res.gate_diag.items())).encode())
        if not seeds_only:
            for c, emb in sorted(res.embeddings.items()):
                digest.update(c.encode() + emb.values.tobytes())
        if train:
            T.backward(T.sumsq(T.tanh(res.output)))
            for name, p in sorted(model.params.items()):
                digest.update(name.encode() + p.grad.tobytes())
                p.grad[:] = 0.0
    return digest.hexdigest()


@pytest.mark.parametrize("how", ["train", "full", "seeds-only"])
@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("mode", ["learn", "all-edge"])
def test_forward_matches_pinned_digests(mode, layers, how):
    model, batch = _repeated_seed_setup(mode, layers)
    assert _forward_digest(model, batch, how) == \
        _FORWARD_PINNED[mode, layers, how]


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_first_layer_classes_are_complete_locals_per_row_and_time(layers):
    """The class maps of every layer, the layer-0 batch, and the leaf twins
    the later layers' class sums stand in for non-leaf sources."""
    model, batch = _repeated_seed_setup("learn", layers)
    sharing = model.share(batch)
    leaf, layer, first = sharing.batch, sharing.layer0, sharing.first
    classes = {c: sharing.class_map(c) for c in first}
    assert classes and first.keys() == classes.keys(), "nothing was shared"
    seed_t = batch.seed_t_predict
    later = 0  # copies that a layer past 0 sums as a class
    over_budget = []  # repeated product locals that drew part of their reviews
    for c, tn in leaf.nodes.items():
        if c not in first:
            assert layer.nodes[c] is tn
            continue
        lo = batch.reach[c][-2]
        done = batch.complete[c][:lo]
        # each local points to the first complete copy of its pair
        for i, target in enumerate(classes[c]):
            if i < lo and done[i]:
                same = [j for j in range(lo) if done[j]
                        and tn.rows[j] == tn.rows[i]
                        and seed_t[tn.seed_of[j]] == seed_t[tn.seed_of[i]]]
                assert target == same[0], (c, i)
            else:
                assert target == i, (c, i)
        # layer l >= 1: the first complete copy at or past reach[L-1-l]
        for l in range(1, layers):
            start = batch.reach[c][layers - 1 - l]
            firsts = {}
            for j in range(start, lo):
                if done[j]:
                    firsts.setdefault((tn.rows[j], seed_t[tn.seed_of[j]]), j)
            got = sharing.class_map(c, start)
            later += int((got != np.arange(tn.n)).sum())
            for i in range(tn.n):
                want = i
                if start <= i < lo and done[i]:
                    want = firsts[tn.rows[i], seed_t[tn.seed_of[i]]]
                assert got[i] == want, (c, l, i)
        # each row's layer-0 row holds its own (row, prediction time)
        np.testing.assert_array_equal(layer.nodes[c].rows[first[c]], tn.rows)
        np.testing.assert_array_equal(
            seed_t[layer.nodes[c].seed_of[first[c]]], seed_t[tn.seed_of])
        shared = np.bincount(first[c])[first[c]] > 1
        assert not shared[lo:].any()  # leaf classes stay as they are
        assert not shared[:lo][~done].any()  # an incomplete local stays alone
        pairs = list(zip(tn.rows[:lo].tolist(),
                         seed_t[tn.seed_of[:lo]].tolist()))
        held = Counter(pairs)
        complete_held = Counter(p for p, d in zip(pairs, done) if d)
        for i in range(lo):
            assert shared[i] == (done[i] and complete_held[pairs[i]] > 1), (c, i)
            if c == "product" and not done[i] and held[pairs[i]] > 1:
                over_budget.append(pairs[i])
        # the first copy of a class keeps its in-edges, the others none;
        # a source's layer-0 row is that of its leaf-shared row
        is_first = np.zeros(tn.n, dtype=bool)
        is_first[np.unique(first[c], return_index=True)[1]] = True
        for key in model.relations:
            if key.dst_table == c and key.id in leaf.edges:
                src, dst = leaf.edges[key.id]
                kept = is_first[dst]
                if key.src_table in first:
                    src = first[key.src_table][src]
                np.testing.assert_array_equal(layer.edges[key.id][0], src[kept])
                np.testing.assert_array_equal(layer.edges[key.id][1],
                                              first[c][dst[kept]])
    assert bool(later) == (layers > 1)
    if layers == 2:  # products are hop-1 locals, drawing at most 16 // 2
        assert over_budget
        key = next(k for k in model.relations if k.id == "review.product_id->product")
        indptr, _, times = model.reg.adjacency(key)
        for row, t in over_budget:
            assert np.count_nonzero(times[indptr[row]:indptr[row + 1]] <= t) > 8
    twinned = 0
    for c, tn in leaf.nodes.items():
        lo = batch.reach[c][-2]
        twin = sharing.twins[c]
        assert len(twin) == lo
        tn_times = seed_t[tn.seed_of]
        leaves = {(r, t): lo + i for i, (r, t) in enumerate(
            zip(tn.rows[lo:].tolist(), tn_times[lo:].tolist()))}
        for i in range(lo):
            assert twin[i] == leaves.get((tn.rows[i], tn_times[i]), -1)
        twinned += int((twin >= 0).sum())
    assert twinned or layers == 1  # one layer reaches no user as a leaf


def _class_sums(monkeypatch) -> list[list]:
    """Record each neighbour mean taken from class sums: (rows, classes,
    corrections, whether backward handed it a nonzero gradient)."""
    real = T.neighbor_mean
    sums = []

    def spy(h, src, dst, classes=None):
        rows, out = real(h, src, dst, classes)
        if classes is not None:
            _, _, copies, fix = classes
            record = [len(copies), len(np.unique(copies)), len(fix[0]), False]
            sums.append(record)
            inner = out._bwd

            def bwd(g):
                record[3] = record[3] or bool(np.any(g))
                inner(g)
            out._bwd = bwd
        return rows, out
    monkeypatch.setattr(T, "neighbor_mean", spy)
    return sums


def _assert_matches_unshared(run, ref_run) -> None:
    out, gates, diag, grads = run
    ref_out, ref_gates, ref_diag, ref_grads = ref_run
    np.testing.assert_allclose(out, ref_out, rtol=1e-9, atol=0)
    assert gates.keys() == ref_gates.keys() and diag.keys() == ref_diag.keys()
    for tid in gates:
        np.testing.assert_allclose(gates[tid], ref_gates[tid], rtol=1e-9)
    for tid in diag:
        np.testing.assert_allclose(diag[tid], ref_diag[tid], rtol=1e-9)
    assert any(np.any(g) for g in ref_grads.values())
    for name, g in ref_grads.items():
        np.testing.assert_allclose(grads[name], g, rtol=1e-9, atol=0,
                                   err_msg=name)


@pytest.mark.parametrize("seeds_only", [False, True])
@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("mode", ["learn", "all-edge"])
def test_shared_first_layer_matches_unshared(monkeypatch, mode, layers,
                                             seeds_only):
    """Train outputs, gates, gate diagnostics and gradients, and seeds-only
    outputs, against the same batch with no local marked complete. Layer 0
    computes one row per class; from layer 1 on a training forward sums
    each class's neighbours once, and with three layers gradients flow
    through those sums. Sums run in another order: equal within rtol."""
    model, batch = _repeated_seed_setup(mode, layers)
    assert model.share(batch).first
    unshared = dataclasses.replace(batch, complete={})
    assert not model.share(unshared).first
    sums = _class_sums(monkeypatch)
    run = _run(model, Model.forward, batch, seeds_only)
    merged = [s for s in sums if s[1] < s[0]]
    # a seeds-only layer past 0 keeps no leaf row to stand in
    assert bool(merged) == (layers > 1 and not seeds_only)
    if layers == 3 and not seeds_only:
        assert any(s[3] for s in merged)
    sums.clear()
    ref_run = _run(model, Model.forward, unshared, seeds_only)
    assert not sums
    _assert_matches_unshared(run, ref_run)


def test_fd_gradients_flow_through_class_sums(monkeypatch):
    """Two layers with FD on: the FD losses read every linked local, so
    the layer-1 class sums of repeated products carry gradient."""
    def first_step(clear: bool):
        db, task = gen_twohop(120, 30, 400, 1.0, 4)
        state = build_state(db, task, ModelConfig(channels=8, layers=2, seed=5),
                            TrainConfig(batch_size=64, neighbor_samples=64,
                                        beta=0.5, gamma=0.5, seed=5))
        cfg = state.train_cfg
        rng = np.random.default_rng([cfg.seed, 0, 1, 0])
        seeds, labels, _ = _seed_list(task, "train", np.arange(64))
        batch = sample_batch(state.reg, seeds,
                             SamplerConfig(64, 2, cfg.seed), task.entity_table,
                             rng=rng)
        if clear:
            batch = dataclasses.replace(batch, complete={})
        with T.tape_scope(), T.frozen(list(state.fdmod.params.values())):
            res = state.model.forward(batch, state.gates, train=True)
            total, _, _, _ = fd_losses(batch, res.embeddings, state.fdmod,
                                       cfg.beta, cfg.gamma, cfg.tau,
                                       cfg.negatives, rng)
            loss = T.add(T.bce_with_logits(res.output, labels), total)
            T.backward(loss)
        return (res.output.values, res.gates_after, res.gate_diag,
                {n: p.grad.copy() for n, p in state.model.params.items()})

    sums = _class_sums(monkeypatch)
    run = first_step(clear=False)
    assert any(s[1] < s[0] and s[3] for s in sums)
    sums.clear()
    ref_run = first_step(clear=True)
    assert not sums
    _assert_matches_unshared(run, ref_run)


def test_class_with_a_twinless_source_stays_per_copy(monkeypatch):
    """Destinations 0-2 form one class, 3-4 another. Sources 0-3 are
    non-leaf and 4-7 leaves: 0 and 1 hold the key of leaf 6, 2 and 3 one
    that no leaf holds. So the class {3, 4} is summed per copy, bit for bit
    as without classes, while {0, 1, 2} sums once and corrects each copy."""
    rng = np.random.default_rng(0)
    values = rng.normal(size=(8, 3))
    src = np.array([4, 5, 0, 4, 5, 6, 1, 4, 5, 7, 2, 3, 7])
    dst = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4, 4])
    twin = np.array([6, 6, -1, -1])
    target = np.array([0, 0, 0, 3, 3])
    sums = _class_sums(monkeypatch)
    results = []
    for classes in ((target, twin), None):
        h = Tensor(values.copy(), requires_grad=True)
        rows, mean = class_neighbor_mean(h, src, dst, classes)
        T.backward(T.sumsq(T.sigmoid(mean)))
        results.append((rows, mean.values, h.grad))
    (rows, mean, grad), (ref_rows, ref_mean, ref_grad) = results
    # five rows in three classes; sources 0 and 1 each correct their copy
    assert [s[:3] for s in sums] == [[5, 3, 4]] and sums[0][3]
    np.testing.assert_array_equal(rows, ref_rows)
    np.testing.assert_allclose(mean, ref_mean, rtol=1e-12)
    np.testing.assert_array_equal(mean[3:], ref_mean[3:])
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-12)


def test_shared_first_layer_leaves_the_batch_and_its_counts():
    model, batch = _repeated_seed_setup("learn", 2)
    counts = (batch.neighbor_count, batch.path_count)
    edges = {k: tuple(a.copy() for a in v) for k, v in batch.edges.items()}
    model.forward(batch, model.init_gates(), train=True)
    assert (batch.neighbor_count, batch.path_count) == counts
    assert counts == (sum(len(s) for s, _ in edges.values()),
                      sum(len(p[0]) for p in batch.paths.values()))
    for k, (src, dst) in edges.items():
        np.testing.assert_array_equal(batch.edges[k][0], src)
        np.testing.assert_array_equal(batch.edges[k][1], dst)


def test_training_dropout_shares_nothing(monkeypatch):
    model, batch = _repeated_seed_setup("learn", 2)
    model = Model(model.reg, dataclasses.replace(model.cfg, dropout=0.2),
                  model.task_type, train_cut=model.encoder.train_cut)
    calls = []
    real = Model.share
    monkeypatch.setattr(Model, "share", lambda self, b:
                        calls.append("share") or real(self, b))
    sums = _class_sums(monkeypatch)
    sizes = []
    real_encode = model.encoder.encode
    monkeypatch.setattr(model.encoder, "encode", lambda b: sizes.append(
        {c: tn.n for c, tn in b.nodes.items()}) or real_encode(b))
    model.forward(batch, model.init_gates(), train=True,
                  rng=np.random.default_rng(0))
    assert calls == [] and not sums
    assert sizes == [{c: tn.n for c, tn in batch.nodes.items()}]
    model.forward(batch, model.init_gates(), train=False)  # evaluation shares
    assert calls == ["share"]
    assert sum(sizes[1].values()) < sum(sizes[0].values())
    assert any(s[1] < s[0] for s in sums)


def test_one_labelling_per_table_per_forward(monkeypatch):
    """The sharing pass labels each table's (row, prediction time) pairs
    with one `group_ids` call, and a forward runs the pass once."""
    model, batch = _repeated_seed_setup("learn", 3)
    calls = []
    real = kernels.group_ids
    monkeypatch.setattr(kernels, "group_ids", lambda keys, space:
                        calls.append(len(keys)) or real(keys, space))
    for train, seeds_only in [(True, False), (False, False), (False, True)]:
        calls.clear()
        model.forward(batch, model.init_gates(), train=train,
                      seeds_only=seeds_only)
        assert sorted(calls) == sorted(tn.n for tn in batch.nodes.values())


def test_batch_with_distinct_pairs_comes_back_unchanged():
    """Seeds at distinct prediction times hold distinct (row, prediction
    time) pairs in every table: nothing merges and no map is built."""
    model, batch = _two_time_setup("learn", 2)
    seeds = [(int(model.reg.nodes[batch.entity_table].pk[r]), t + i)
             for i, (r, t) in enumerate(zip(batch.seed_rows.tolist(),
                                            batch.seed_t_predict.tolist()))]
    cfg = SamplerConfig(neighbor_samples=16, num_hops=2, seed=2)
    distinct = sample_batch(model.reg, seeds, cfg, batch.entity_table)
    sharing = model.share(distinct)
    assert sharing.batch is distinct and sharing.layer0 is distinct
    assert not (sharing.expand or sharing.first or sharing.twins
                or sharing.labels)
    assert model.share(batch).expand  # the same rows at two times do merge


# --- the co-occurrence v-mean read from the matching relation --------------

def _aggregations(monkeypatch) -> list[tuple]:
    """Record each neighbour mean a forward takes through
    `class_neighbor_mean` as (the aggregated tensor, its (src, dst) pairs
    as a multiset)."""
    import rolegnn.model as model_mod

    real = model_mod.class_neighbor_mean
    calls = []

    def spy(h, src, dst, classes=None):
        calls.append((h, Counter(zip(src.tolist(), dst.tolist()))))
        return real(h, src, dst, classes)
    monkeypatch.setattr(model_mod, "class_neighbor_mean", spy)
    return calls


def _repeats(calls: list[tuple]) -> int:
    """How many recorded means repeat an earlier one's tensor and pairs;
    a mean over no pairs (a seeds-only layer's table that computes no row)
    repeats nothing."""
    return sum(bool(pairs) and any(h is h2 and pairs == pairs2
                                   for h2, pairs2 in calls[:i])
               for i, (h, pairs) in enumerate(calls))


def test_same_pairs_compares_multisets():
    a = (np.array([0, 1, 1, 2]), np.array([3, 0, 0, 1]))
    assert _same_pairs(a, (np.array([1, 2, 0, 1]), np.array([0, 1, 3, 0])))
    assert not _same_pairs(a, (np.array([1, 2, 0, 2]), np.array([0, 1, 3, 1])))
    assert not _same_pairs(a, (a[0][:3], a[1][:3]))
    assert not _same_pairs(a, (a[1], a[0]))  # (3, 0) is not (0, 3)
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    assert _same_pairs(empty, empty)


@pytest.mark.parametrize("sharing", [True, False])
@pytest.mark.parametrize("how", ["train", "full", "seeds-only"])
@pytest.mark.parametrize("layers", [1, 2])
def test_matched_cooccurrence_reads_the_relation_mean(monkeypatch, layers, how,
                                                      sharing):
    """A co-occurrence triple whose drawn (v, w) pairs are its matching
    relation's edges takes no v-mean of its own at any layer: every mean a
    forward takes is of a distinct (tensor, pairs). With the match ignored,
    the same forward takes one more mean per matched triple and layer, and
    repeats the matched ones."""
    model, batch = _repeated_seed_setup("learn", layers)
    reused = model.reused_means(batch)
    assert reused
    shared = model.share(batch)
    assert shared.expand and shared.first
    if not sharing:
        monkeypatch.setattr(Model, "share",
                            lambda self, b: SharedBatch(b, b))
    calls = _aggregations(monkeypatch)
    train, seeds_only = how == "train", how == "seeds-only"
    model.forward(batch, model.init_gates(), train=train, seeds_only=seeds_only)
    assert calls and not _repeats(calls)
    taken = len(calls)
    calls.clear()
    monkeypatch.setattr(Model, "reused_means", lambda self, b: set())
    model.forward(batch, model.init_gates(), train=train, seeds_only=seeds_only)
    assert len(calls) - taken == len(reused) * layers
    assert _repeats(calls) >= len(reused)


def test_unmatched_draws_take_their_own_v_mean(monkeypatch):
    """At two layers a hop-1 product draws at most 16 // 2 reviews as
    edges but 16 as paths, so the triple into products falls back: its
    v-mean aggregates its own path pairs, once per layer, while the triple
    into users reads its relation's mean. Both match the per-path oracle."""
    model, batch = _setup(lambda: gen_twohop(120, 30, 400, 1.0, 0), "learn", 2)
    cooccurring = {tr.id: tr for tr in model.active_triples
                   if tr.pattern == "cooccurrence" and tr.id in batch.paths}
    reused = model.reused_means(batch)
    apart = cooccurring.keys() - reused
    assert reused and apart
    tr = cooccurring[apart.pop()]
    edges = batch.edges[tr.matching_relation().id]
    v, w = batch.paths[tr.id][1:]
    assert not _same_pairs(edges, (v, w))
    monkeypatch.setattr(Model, "share", lambda self, b: SharedBatch(b, b))
    calls = _aggregations(monkeypatch)
    model.forward(batch, model.init_gates(), train=False)
    path_pairs = Counter(zip(v.tolist(), w.tolist()))
    edge_pairs = Counter(zip(*(a.tolist() for a in edges)))
    assert sum(pairs == path_pairs for _, pairs in calls) == 2
    assert sum(pairs == edge_pairs for _, pairs in calls) == 2
    assert not _repeats(calls)
    monkeypatch.undo()
    for seeds_only in (False, True):
        _assert_equivalent(model, batch, seeds_only)


@pytest.mark.parametrize("layers", [1, 2])
def test_match_carries_over_to_the_shared_batches(layers):
    """`share` maps edge sources and path v ends alike and keeps the edges
    and paths into the same locals, so a match found on the sampled batch
    holds on the leaf-shared batch and the layer-0 batch."""
    model, batch = _repeated_seed_setup("learn", layers)
    reused = model.reused_means(batch)
    sharing = model.share(batch)
    assert reused and sharing.expand and sharing.first
    for shared in (sharing.batch, sharing.layer0):
        assert shared is not batch
        for tid in reused:
            tr = next(t for t in model.active_triples if t.id == tid)
            assert _same_pairs(shared.edges[tr.matching_relation().id],
                               shared.paths[tid][1:])
