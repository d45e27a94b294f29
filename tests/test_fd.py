import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import finite_diff_max_rel
from rolegnn import fd as fd_module
from rolegnn import tensor as T
from rolegnn.fd import (FdModule, fd_losses, loss_emb, loss_pair,
                        sample_negative_targets, score_pairs)
from rolegnn.errors import ShapeError
from rolegnn.model import ModelConfig
from rolegnn.sampler import SamplerConfig, sample_batch
from rolegnn.schema_graph import (RoleAssignment, build_schema_graph,
                                  construct_reg, enumerate_edge_triples)
from rolegnn.synth import gen_subspace, gen_twohop
from rolegnn.tensor import Adam, Tensor
from rolegnn.training import TrainConfig, build_state


def _subspace_setup(n=120, ch=8, d=3, sigma=0.0, seed=0):
    db, meta = gen_subspace(n, ch, d, seed, sigma=sigma)
    sg = build_schema_graph(db)
    reg = construct_reg(db, sg,
                        RoleAssignment.uniform(enumerate_edge_triples(sg), "learn"))
    fd = FdModule(reg, channels=ch, subspace_dim=d, seed=seed)
    return db, meta, reg, fd


def _identity_embeddings(reg, table, ch):
    cols = [np.asarray(reg.nodes[table].attrs[f"a{j}"].values, float)
            for j in range(ch)]
    return np.stack(cols, axis=1)


def test_diff_pairs_values_and_counts():
    db, task = gen_twohop(30, 10, 90, 1.0, 0)
    sg = build_schema_graph(db)
    reg = construct_reg(db, sg,
                        RoleAssignment.uniform(enumerate_edge_triples(sg), "learn"))
    recs = task.labels["train"]
    seeds = [(int(recs.entity[i]), float(recs.t_predict[i])) for i in range(6)]
    batch = sample_batch(reg, seeds,
                         SamplerConfig(neighbor_samples=16, num_hops=1, seed=0),
                         "user")
    emb = {t: Tensor(np.random.default_rng(1).normal(size=(tn.n, 4)))
           for t, tn in batch.nodes.items()}
    relations = sorted((es.key for es in reg.edges.values()), key=lambda k: k.id)
    pairs = fd_module._linked_pairs(batch, emb, relations)
    keys = [key for key, *_ in pairs]
    assert keys and keys == [k for k in relations if k in keys]
    for key, h_i, h_j, j_idx in pairs:
        diffs = T.sub(h_j, h_i)
        # oracle: distinct in-batch FK links, whichever direction sampled
        # them, sorted by (holder, referenced)
        links = set()
        fwd = batch.edges.get(key.id)
        if fwd is not None:
            links |= set(zip(fwd[0].tolist(), fwd[1].tolist()))
        rev = batch.edges.get(key.flipped().id)
        if rev is not None:
            links |= set(zip(rev[1].tolist(), rev[0].tolist()))
        i_idx, want_j = (np.array(col) for col in zip(*sorted(links)))
        assert diffs.shape[0] == len(links)
        assert j_idx.tolist() == want_j.tolist()
        oracle = emb[key.referenced].values[j_idx] - emb[key.holder].values[i_idx]
        np.testing.assert_allclose(diffs.values, oracle, rtol=1e-12)


def test_diff_simple_values():
    hi = Tensor(np.array([[1.0, 2.0]]))
    hj = Tensor(np.array([[4.0, 6.0]]))
    assert T.sub(hj, hi).values.tolist() == [[3.0, 4.0]]
    assert T.sub(hi, hi).values.tolist() == [[0.0, 0.0]]


def test_loss_emb_zero_when_diff_equals_shift():
    s = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
    diffs = Tensor(np.tile(s.values, (7, 1)))
    P = Tensor(np.zeros((3, 1)), requires_grad=True)
    assert loss_emb(diffs, P, s).item() == 0.0


def test_loss_emb_projection_arithmetic():
    # channels=2, d=1, P = e1, s = 0, diff = (3,4): residual (0,4), loss 16
    P = Tensor(np.array([[1.0], [0.0]]))
    s = Tensor(np.zeros(2))
    diffs = Tensor(np.array([[3.0, 4.0]]))
    assert abs(loss_emb(diffs, P, s).item() - 16.0) < 1e-12


def test_loss_emb_vanishes_inside_planted_subspace():
    rng = np.random.default_rng(3)
    basis, _ = np.linalg.qr(rng.normal(size=(6, 2)))
    shift = rng.normal(size=6)
    diffs = Tensor(shift + rng.normal(size=(40, 2)) @ basis.T)
    assert loss_emb(diffs, Tensor(basis), Tensor(shift)).item() < 1e-20


def test_loss_emb_empty_is_zero():
    out = loss_emb(Tensor(np.zeros((0, 4))), Tensor(np.zeros((4, 2))),
                   Tensor(np.zeros(4)))
    assert out.item() == 0.0


def test_score_pairs_zero_head_and_constant():
    db, meta, reg, fd = _subspace_setup()
    rid = fd.relations[0].id
    for name, p in fd.params.items():
        if ".ms." in name:
            p.values[:] = 0.0
    h = Tensor(np.random.default_rng(0).normal(size=(5, 8)))
    assert (score_pairs(fd, rid, h, h).values == 0.0).all()

    # identical pairs score the same constant under any head
    fd2 = FdModule(reg, channels=8, subspace_dim=3, seed=9)
    same = score_pairs(fd2, rid, h, h).values
    assert np.allclose(same, same[0])


def test_score_pairs_matches_mlp_oracle():
    db, meta, reg, fd = _subspace_setup()
    rid = fd.relations[0].id
    rng = np.random.default_rng(4)
    hi, hj = Tensor(rng.normal(size=(6, 8))), Tensor(rng.normal(size=(6, 8)))
    got = score_pairs(fd, rid, hi, hj).values
    x = hi.values - hj.values
    hidden = np.maximum(x @ fd.params[f"fd.{rid}.ms.W1"].values
                        + fd.params[f"fd.{rid}.ms.b1"].values, 0.0)
    oracle = hidden @ fd.params[f"fd.{rid}.ms.W2"].values \
        + fd.params[f"fd.{rid}.ms.b2"].values
    np.testing.assert_allclose(got, oracle.reshape(-1), rtol=1e-12)


def test_loss_pair_values():
    pos = Tensor(np.array([0.0]))
    negs = Tensor(np.array([[0.0]]))
    assert abs(loss_pair(pos, negs, 1.0).item() - math.log(2.0)) < 1e-12

    pos = Tensor(np.array([2.0]))
    assert abs(loss_pair(pos, negs, 1.0).item()
               - math.log(1 + math.exp(-2.0))) < 1e-12

    # loss -> 0+ as the positive score grows
    val = loss_pair(Tensor(np.array([20.0])), negs, 1.0).item()
    assert 0.0 < val < 1e-8
    assert loss_pair(Tensor(np.array([1e4])), negs, 1.0).item() < 1e-12


def test_loss_pair_monotonicity():
    rng = np.random.default_rng(5)
    pos = rng.normal(size=4)
    negs = rng.normal(size=(4, 3))
    base = loss_pair(Tensor(pos), Tensor(negs), 0.5).item()
    up = loss_pair(Tensor(pos + 0.1), Tensor(negs), 0.5).item()
    assert up < base  # strictly decreasing in the positive score
    for k in range(3):
        bumped = negs.copy()
        bumped[:, k] += 0.1
        assert loss_pair(Tensor(pos), Tensor(bumped), 0.5).item() > base


def test_loss_pair_requires_negative():
    with pytest.raises(ValueError):
        loss_pair(Tensor(np.array([0.0])), Tensor(np.zeros((1, 0))), 1.0)


def test_negative_sampling_excludes_true_row_and_falls_back():
    db, task = gen_twohop(30, 10, 90, 1.0, 2)
    sg = build_schema_graph(db)
    reg = construct_reg(db, sg,
                        RoleAssignment.uniform(enumerate_edge_triples(sg), "learn"))
    recs = task.labels["train"]
    seeds = [(int(recs.entity[i]), float(recs.t_predict[i])) for i in range(5)]
    batch = sample_batch(reg, seeds,
                         SamplerConfig(neighbor_samples=8, num_hops=1, seed=1),
                         "user")
    rows = batch.nodes["product"].rows
    true_locals = np.arange(min(4, len(rows)))
    negs = sample_negative_targets(batch, "product", true_locals, k=6,
                                   rng=np.random.default_rng(0))
    for i, j in enumerate(true_locals):
        assert (rows[negs[i]] != rows[j]).all()


def test_negative_sampling_none_when_no_alternative():
    db, task = gen_twohop(30, 10, 90, 1.0, 2)
    sg = build_schema_graph(db)
    reg = construct_reg(db, sg,
                        RoleAssignment.uniform(enumerate_edge_triples(sg), "learn"))
    batch = sample_batch(reg, [(1, 1.0)],
                         SamplerConfig(neighbor_samples=4, num_hops=1, seed=0),
                         "user")  # nothing admissible, user type only
    assert sample_negative_targets(batch, "user", np.array([0]), 4,
                                   np.random.default_rng(0)) is None


def test_fd_losses_combination():
    db, task = gen_twohop(40, 12, 120, 1.0, 3)
    sg = build_schema_graph(db)
    reg = construct_reg(db, sg,
                        RoleAssignment.uniform(enumerate_edge_triples(sg), "learn"))
    fd = FdModule(reg, channels=6, subspace_dim=2, seed=0)
    recs = task.labels["train"]
    seeds = [(int(recs.entity[i]), float(recs.t_predict[i])) for i in range(8)]
    batch = sample_batch(reg, seeds,
                         SamplerConfig(neighbor_samples=8, num_hops=1, seed=2),
                         "user")
    emb = {t: Tensor(np.random.default_rng(7).normal(size=(tn.n, 6)))
           for t, tn in batch.nodes.items()}

    total0, e0, p0, _ = fd_losses(batch, emb, fd, 0.0, 0.0, 0.1, 4,
                                  np.random.default_rng(11))
    assert total0.item() == 0.0

    tot_emb, e1, _, _ = fd_losses(batch, emb, fd, 1.0, 0.0, 0.1, 4,
                                  np.random.default_rng(11))
    assert abs(tot_emb.item() - e1.item()) < 1e-12

    beta, gamma = 1e-6, 0.1
    tot, le, lp, diag = fd_losses(batch, emb, fd, beta, gamma, 0.1, 4,
                                  np.random.default_rng(11))
    assert abs(tot.item() - (beta * le.item() + gamma * lp.item())) < 1e-15
    assert all(np.isfinite(d.loss_emb) for d in diag)


def test_fd_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    ch, d = 5, 2
    diffs = Tensor(rng.normal(size=(6, ch)))
    P = T.init_param((ch, d), fan_in=ch, seed=1)
    s = T.zeros_param((ch,))
    worst = finite_diff_max_rel(lambda: loss_emb(diffs, P, s), [P, s])
    assert worst <= 1e-4

    pos_in = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    negs_in = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    worst = finite_diff_max_rel(
        lambda: loss_pair(T.sum_(pos_in, axis=1), negs_in, 0.3),
        [pos_in, negs_in])
    assert worst <= 1e-4


def test_planted_subspace_training_property():
    """Short FD-phase run: planted diffs reach tiny residual; the scorer ranks
    true targets above mismatches."""
    db, meta, reg, fd = _subspace_setup(n=200, ch=8, d=3, sigma=0.0, seed=1)
    rid = fd.relations[0].id
    diffs = Tensor(meta["diffs"])
    P, s = fd.subspace(rid)
    opt = Adam([P, s], lr=0.02)
    for _ in range(1500):
        T.backward(loss_emb(diffs, P, s))
        opt.step()
    assert loss_emb(diffs, P, s).item() < 1e-3

    h_entry = _identity_embeddings(reg, "entry", 8)
    h_anchor = _identity_embeddings(reg, "anchor", 8)
    es = reg.edges[rid]
    i_pos, j_pos = es.holder_rows, es.ref_rows
    rng = np.random.default_rng(2)
    scorer = [fd.params[p] for p in sorted(fd.params) if ".ms." in p]
    opt = Adam(scorer, lr=0.01)
    n_anchor = h_anchor.shape[0]
    for _ in range(400):
        b = rng.choice(len(i_pos), size=64)
        hi, hj = Tensor(h_entry[i_pos[b]]), Tensor(h_anchor[j_pos[b]])
        pos = score_pairs(fd, rid, hi, hj)
        cols = []
        for _k in range(4):
            jn = rng.integers(0, n_anchor, size=64)
            jn = np.where(jn == j_pos[b], (jn + 1) % n_anchor, jn)
            cols.append(T.reshape(score_pairs(fd, rid, hi, Tensor(h_anchor[jn])),
                                  (64, 1)))
        T.backward(loss_pair(pos, T.concat(cols, axis=1), 0.1))
        opt.step()
    hi, hj = Tensor(h_entry[i_pos]), Tensor(h_anchor[j_pos])
    pos = score_pairs(fd, rid, hi, hj).values
    jn = rng.integers(0, n_anchor, size=len(i_pos))
    jn = np.where(jn == j_pos, (jn + 1) % n_anchor, jn)
    neg = score_pairs(fd, rid, hi, Tensor(h_anchor[jn])).values
    assert (pos > neg).mean() > 0.9


# --- the stacked FD step against the per-column oracle ----------------------

def _rows_batch(rows):
    """A stand-in batch holding one node type "t" with the given rows."""
    return SimpleNamespace(
        nodes={"t": SimpleNamespace(rows=np.asarray(rows, dtype=np.int64))})


# chi-square critical values at p = 1e-3, by degrees of freedom
_CHI2_CRIT = {4: 18.467, 11: 31.264, 12: 32.909}


def test_negative_draws_uniform_over_alternatives():
    # row 3 fills 9 of 14 locals: pairs on it have 5 alternatives (< k, drawn
    # with replacement); the pairs on rows 7 and 1 have 12 and 13 (>= k)
    rows = np.array([3, 1, 3, 7, 3, 3, 2, 3, 7, 3, 4, 3, 3, 3])
    true_locals = np.array([0, 3, 1, 9])
    k, draws = 6, 3000
    batch = _rows_batch(rows)
    rng = np.random.default_rng(0)
    counts = np.zeros((len(true_locals), len(rows)))
    for _ in range(draws):
        negs = sample_negative_targets(batch, "t", true_locals, k, rng)
        assert negs.shape == (len(true_locals), k)
        for i, j in enumerate(true_locals):
            assert (rows[negs[i]] != rows[j]).all()
            alternatives = int((rows != rows[j]).sum())
            if alternatives >= k:
                assert len(set(negs[i].tolist())) == k
        np.add.at(counts, (np.repeat(np.arange(len(true_locals)), k),
                           negs.reshape(-1)), 1)
    for i, j in enumerate(true_locals):
        alt = rows != rows[j]
        assert (counts[i, ~alt] == 0).all()
        observed = counts[i, alt]
        expected = draws * k / alt.sum()
        stat = float(((observed - expected) ** 2 / expected).sum())
        assert stat < _CHI2_CRIT[int(alt.sum()) - 1], (i, stat)


def test_negative_draws_none_contract():
    rng = np.random.default_rng(1)
    # every local holds the true row: no pair has an alternative
    assert sample_negative_targets(_rows_batch([4, 4, 4]), "t",
                                   np.array([0, 2]), 3, rng) is None
    assert sample_negative_targets(_rows_batch([4]), "t", np.array([0]), 3,
                                   rng) is None
    # one alternative suffices; it is drawn with replacement
    negs = sample_negative_targets(_rows_batch([4, 4, 5]), "t",
                                   np.array([0, 1, 2]), 3, rng)
    assert negs[:2].tolist() == [[2, 2, 2], [2, 2, 2]]
    assert set(negs[2].tolist()) <= {0, 1}


def _fd_setup(seed=3):
    db, task = gen_twohop(40, 12, 120, 1.0, seed)
    sg = build_schema_graph(db)
    reg = construct_reg(db, sg,
                        RoleAssignment.uniform(enumerate_edge_triples(sg), "learn"))
    fd = FdModule(reg, channels=6, subspace_dim=2, seed=0)
    recs = task.labels["train"]
    seeds = [(int(recs.entity[i]), float(recs.t_predict[i])) for i in range(8)]
    batch = sample_batch(reg, seeds,
                         SamplerConfig(neighbor_samples=8, num_hops=1, seed=2),
                         "user")
    emb = {t: Tensor(np.random.default_rng(7).normal(size=(tn.n, 6)),
                     requires_grad=True)
           for t, tn in batch.nodes.items()}
    return batch, emb, fd


def _fd_losses_per_column(batch, embeddings, fd, beta, gamma, tau, negatives,
                          draw):
    """The FD loss as it was computed before the stacked block: one gather
    pair per relation for L_pair, and one scoring call per negative column."""
    emb_terms, pair_terms = [], []
    for key, h_i, h_j, ref_locals in fd_module._linked_pairs(
            batch, embeddings, fd.relations):
        rid = key.id
        P, s = fd.subspace(rid)
        emb_terms.append(loss_emb(T.sub(h_j, h_i), P, s))
        pos = score_pairs(fd, rid, h_i, h_j)
        neg_locals = draw(batch, key.referenced, ref_locals, negatives)
        cols = [T.reshape(score_pairs(fd, rid, h_i,
                                      T.take_rows(embeddings[key.referenced],
                                                  neg_locals[:, kk])),
                          (pos.shape[0], 1))
                for kk in range(negatives)]
        pair_terms.append(loss_pair(pos, T.concat(cols, axis=1), tau))
    l_emb = T.scale(functools.reduce(T.add, emb_terms), 1.0 / len(emb_terms))
    l_pair = T.scale(functools.reduce(T.add, pair_terms), 1.0 / len(pair_terms))
    return T.add(T.scale(l_emb, beta), T.scale(l_pair, gamma))


def test_stacked_negatives_match_per_column_oracle(monkeypatch):
    """Same negatives, same loss within 1e-12; gradients differ only by the
    order of float64 sums, so they agree within rtol 1e-10."""
    batch, emb, fd = _fd_setup()
    real_draw = fd_module.sample_negative_targets

    def fixed_draw(batch, table, true_locals, k, rng=None):
        return real_draw(batch, table, true_locals, k, np.random.default_rng(5))

    monkeypatch.setattr(fd_module, "sample_negative_targets", fixed_draw)
    params = {**fd.params, **{f"emb.{t}": e for t, e in emb.items()}}

    def loss_and_grads(build):
        for p in params.values():
            p.grad[:] = 0.0
        loss = build()
        T.backward(loss)
        return loss.item(), {n: p.grad.copy() for n, p in params.items()}

    beta, gamma, tau, k = 0.3, 0.7, 0.1, 4
    got, got_g = loss_and_grads(lambda: fd_losses(
        batch, emb, fd, beta, gamma, tau, k, np.random.default_rng(0))[0])
    want, want_g = loss_and_grads(lambda: _fd_losses_per_column(
        batch, emb, fd, beta, gamma, tau, k, fixed_draw))
    assert abs(got - want) <= 1e-12
    for name in params:
        np.testing.assert_allclose(got_g[name], want_g[name], rtol=1e-10,
                                   atol=1e-14, err_msg=name)
    assert any(g.any() for n, g in want_g.items() if ".ms.W1" in n)


def test_fd_gradients_identical_with_forward_off_the_tape():
    """Phase B's forward under no_grad leaves the FD-parameter gradients
    bit-identical to a grad-enabled forward, and the model's untouched."""
    db, task = gen_twohop(60, 20, 200, 1.0, 0)
    state = build_state(db, task, ModelConfig(channels=8, layers=1, seed=0),
                        TrainConfig(epochs=1, batch_size=32, seed=0,
                                    neighbor_samples=16))
    recs = task.labels["train"]
    seeds = [(int(recs.entity[i]), float(recs.t_predict[i]))
             for i in range(32)]
    batch = sample_batch(state.reg, seeds,
                         SamplerConfig(neighbor_samples=16, num_hops=1, seed=4),
                         task.entity_table)
    cfg = state.train_cfg

    def fd_grads(forward_on_tape: bool):
        if forward_on_tape:
            result = state.model.forward(batch, state.gates, train=False)
        else:
            with T.no_grad():
                result = state.model.forward(batch, state.gates, train=False)
        total, _, _, _ = fd_losses(batch, result.embeddings, state.fdmod,
                                   cfg.beta, cfg.gamma, cfg.tau, cfg.negatives,
                                   np.random.default_rng(6))
        T.backward(total)
        grads = {n: p.grad.copy() for n, p in state.fdmod.params.items()}
        model_moved = any(p.grad.any() for p in state.model.params.values())
        for p in (*state.fdmod.params.values(), *state.model.params.values()):
            p.grad[:] = 0.0
        return grads, model_moved

    on_tape, model_moved = fd_grads(True)
    assert model_moved
    off_tape, model_moved = fd_grads(False)
    assert not model_moved
    for name in on_tape:
        assert np.array_equal(on_tape[name], off_tape[name]), name
    assert any(g.any() for g in on_tape.values())


# --- the fused scoring node against the composed chain ----------------------

def _composed_score_pairs(fd, relation_id, h_i, h_ref, ref_idx=None):
    """`score_pairs` as the chain of primitives it was before it became one
    `T.pair_mlp` node; in fd_losses the (n, k) block took `h_ref`'s rows
    first, then shaped both sides for the broadcast difference."""
    if ref_idx is not None:
        (n, k), c = ref_idx.shape, h_i.shape[1]
        gathered = T.take_rows(h_ref, ref_idx.reshape(-1))
        h_i = T.reshape(h_i, (n, 1, c))
        h_ref = T.reshape(gathered, (n, k, c))
    x = T.sub(h_i, h_ref)
    flat = T.reshape(x, (-1, x.shape[-1]))
    hidden = T.relu(T.linear(flat, fd.params[f"fd.{relation_id}.ms.W1"],
                             fd.params[f"fd.{relation_id}.ms.b1"]))
    raw = T.linear(hidden, fd.params[f"fd.{relation_id}.ms.W2"],
                   fd.params[f"fd.{relation_id}.ms.b2"])
    return T.reshape(raw, x.shape[:-1])


def _run_mode(mode, fd, embeddings, build):
    """Output and gradient bytes of `build()` under one phase's freezing:
    "a" freezes the FD parameters, "b" makes the embeddings constants,
    "all" trains both."""
    emb = {t: Tensor(e.copy(), requires_grad=mode != "b")
           for t, e in embeddings.items()}
    for p in fd.params.values():
        p.grad[:] = 0.0
    frozen = fd.params.values() if mode == "a" else ()
    with T.frozen(frozen):
        out, loss = build(emb)
        T.backward(loss)
    grads = {n: p.grad.tobytes() for n, p in fd.params.items()}
    grads.update({t: e.grad.tobytes() for t, e in emb.items() if mode != "b"})
    return out.values.tobytes(), loss.values.tobytes(), grads


@pytest.mark.parametrize("mode", ["a", "b", "all"])
@pytest.mark.parametrize("form", ["rows", "block"])
def test_pair_mlp_bit_equal_to_composed_chain(mode, form):
    db, meta, reg, fd = _subspace_setup(seed=2)
    rid = fd.relations[0].id
    rng = np.random.default_rng(8)
    embeddings = {"holder": rng.normal(size=(6, 8)),
                  "ref": rng.normal(size=(5, 8))}
    holder_locals = np.array([0, 2, 2, 5])
    ref_locals = np.array([1, 1, 3, 0])
    # local 1 repeats within pair 0 and across pairs 0, 1 and 3
    ref_idx = np.array([[1, 1, 3], [3, 0, 1], [4, 4, 4], [1, 2, 0]])

    def build(score):
        def run(emb):
            h_i = T.take_rows(emb["holder"], holder_locals)
            if form == "rows":
                out = score(fd, rid, h_i, T.take_rows(emb["ref"], ref_locals))
            else:
                out = score(fd, rid, h_i, emb["ref"], ref_idx)
            # h_i also feeds a second term, so its gradient is written twice
            return out, T.add(T.sumsq(T.tanh(out)), T.sumsq(h_i))
        return run

    fused = _run_mode(mode, fd, embeddings, build(score_pairs))
    chain = _run_mode(mode, fd, embeddings, build(_composed_score_pairs))
    assert fused == chain
    trained = ([n for n in fd.params if ".ms." in n] if mode != "a"
               else list(embeddings))
    assert all(np.frombuffer(fused[2][n]).any() for n in trained)


@pytest.mark.parametrize("mode", ["a", "b", "all"])
def test_fd_losses_bit_equal_to_composed_chain(monkeypatch, mode):
    """The whole FD step, positives and the negative block, keeps its loss
    and every gradient byte for byte."""
    batch, emb, fd = _fd_setup()
    embeddings = {t: e.values for t, e in emb.items()}

    def build(e):
        total = fd_losses(batch, e, fd, 0.3, 0.7, 0.1, 4,
                          np.random.default_rng(0))[0]
        return total, total

    fused = _run_mode(mode, fd, embeddings, build)
    monkeypatch.setattr(fd_module, "score_pairs", _composed_score_pairs)
    chain = _run_mode(mode, fd, embeddings, build)
    assert fused == chain


def test_pair_mlp_shape_errors_name_shapes():
    h = Tensor(np.zeros((3, 4)))
    head = [Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)),
            Tensor(np.zeros((2, 1))), Tensor(np.zeros(1))]
    for h_ref, idx in [(Tensor(np.zeros((2, 4))), None),
                       (Tensor(np.zeros((5, 4))), np.zeros(3, dtype=int)),
                       (Tensor(np.zeros((5, 4))), np.zeros((2, 2), dtype=int)),
                       (Tensor(np.zeros((5, 3))), np.zeros((3, 2), dtype=int))]:
        with pytest.raises(ShapeError, match=r"\(3, 4\)"):
            T.pair_mlp(h, h_ref, idx, *head)
