"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Planted-signal experiments average over 5 seeds.
"""

import math
import time

import numpy as np
import pytest

from conftest import finite_diff_max_rel, rand_tensor, random_node_edge_roles
from test_tensor import _primitive_cases
from test_training import ap_at_k_oracle, mann_whitney_auc_oracle

from rolegnn import tensor as T
from rolegnn.config import defaults_self_test, hop_budget
from rolegnn.fd import FdModule, loss_emb, loss_pair, score_pairs
from rolegnn.model import (ModelConfig, completion_message,
                           compute_gate, cooccurrence_message)
from rolegnn.rdb import canonical_form
from rolegnn.schema_graph import (RoleAssignment, build_schema_graph,
                                  close_common_neighbors, construct_reg,
                                  demo_add_counterexample,
                                  demo_prune_counterexample,
                                  enumerate_edge_triples,
                                  enumerate_pruning_maps, invert_reg,
                                  prune_to_core)
from rolegnn.synth import gen_future_leak, gen_random_bundle, gen_subspace, gen_twohop
from rolegnn.tensor import Adam, Tensor
from rolegnn.training import (TrainConfig, build_state, evaluate_state, map_at_k,
                              param_hash, roc_auc, train)

SEEDS = range(5)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --------------------------------------------------------------------------
# 1. full-resolution round-trip over 100 random bundles, mixed roles
# --------------------------------------------------------------------------

def test_criterion_1_full_resolution_roundtrip():
    t0 = time.time()
    modes = ["edge", "node", "random", "learn"]
    failures = 0
    for seed in range(100):
        db = gen_random_bundle(seed)
        sg = build_schema_graph(db)
        triples = enumerate_edge_triples(sg)
        mode = modes[seed % 4]
        if mode == "random":
            roles = random_node_edge_roles(triples, seed)
        else:
            roles = RoleAssignment.uniform(triples, mode)
        reg = construct_reg(db, sg, roles)
        if canonical_form(invert_reg(reg)) != canonical_form(db):
            failures += 1
    elapsed = time.time() - t0
    _report(1, failures == 0 and elapsed < 60.0,
            f"100 bundles, {failures} round-trip failures, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. structure-learning incompatibility demos
# --------------------------------------------------------------------------

def test_criterion_2_gsl_counterexamples():
    t0 = time.time()
    g1, g2, pruned = demo_prune_counterexample()
    prune_ok = (g1 != g2
                and prune_to_core(g1, pruned[1]) == pruned
                and prune_to_core(g2, pruned[1]) == pruned)
    a1, a2, aug = demo_add_counterexample()
    add_ok = (a1 != a2 and close_common_neighbors(a1) == aug
              and close_common_neighbors(a2) == aug)
    non_identity, collisions = enumerate_pruning_maps()
    elapsed = time.time() - t0
    _report(2, prune_ok and add_ok and collisions == non_identity
            and elapsed < 5.0,
            f"demos verified; {collisions}/{non_identity} pruning maps "
            f"collide, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 3. gradient correctness: primitives at 1e-4, composites at 1e-3
# --------------------------------------------------------------------------

def test_criterion_3_gradient_correctness():
    t0 = time.time()
    n_prim = 0
    worst_prim = 0.0
    for trial in range(4):
        rng = np.random.default_rng(500 + trial)
        for name, params, fn in _primitive_cases(rng):
            worst_prim = max(worst_prim, finite_diff_max_rel(fn, params))
            n_prim += 1

    worst_comp = 0.0
    n_comp = 0
    for trial in range(20):
        rng = np.random.default_rng(900 + trial)
        ch = 3

        # joint co-occurrence message pipeline: average each w row's v and
        # u neighbours, map the means, add them onto the w rows (the
        # engine's ReLU update)
        W = T.init_param((3 * ch, ch), fan_in=3 * ch, seed=trial)
        hw, hv, hu = (rand_tensor(rng, (4, ch)) for _ in range(3))
        u_idx, v_idx, w_idx = (rng.integers(0, 4, size=6) for _ in range(3))

        def cooccurrence_loss():
            rows, mean_v = T.neighbor_mean(hv, v_idx, w_idx)
            _, mean_u = T.neighbor_mean(hu, u_idx, w_idx)
            msg = cooccurrence_message(W, T.take_rows(hw, rows), mean_v, mean_u)
            return T.sumsq(T.relu_update(hw, [(rows, msg)]))

        worst_comp = max(worst_comp, finite_diff_max_rel(
            cooccurrence_loss, [W, hw, hv, hu]))
        n_comp += 1

        # mediated completion message pipeline
        W1 = T.init_param((2 * ch, ch), fan_in=2 * ch, seed=trial + 50)
        W2 = T.init_param((2 * ch, ch), fan_in=2 * ch, seed=trial + 90)
        fW = T.init_param((2 * ch, 1), fan_in=2 * ch, seed=trial + 130)
        fb = T.zeros_param((1,))
        worst_comp = max(worst_comp, finite_diff_max_rel(
            lambda: T.sumsq(completion_message(W1, W2, fW, fb, hw, hv, hu)),
            [W1, W2, fW, fb, hw, hv, hu]))
        n_comp += 1

        # gate + blend + running update + fusion pipeline
        att_W = T.init_param((2 * ch, 1), fan_in=2 * ch, seed=trial + 170)
        att_b = T.zeros_param((1,))
        hn, he = rand_tensor(rng, (5, ch)), rand_tensor(rng, (5, ch))

        def gate_fuse_loss():
            _, _, g_used = compute_gate(att_W, att_b, hn, he, 0.4, 0.9, 0.9,
                                        train=True)
            return T.sumsq(T.gated_sum([(hn, he, g_used)]))

        worst_comp = max(worst_comp, finite_diff_max_rel(
            gate_fuse_loss, [att_W, att_b, hn, he]))
        n_comp += 1

        # table-level subspace residual
        P = T.init_param((ch, 1), fan_in=ch, seed=trial + 210)
        s = T.zeros_param((ch,))
        diffs = rand_tensor(rng, (6, ch))
        worst_comp = max(worst_comp, finite_diff_max_rel(
            lambda: loss_emb(diffs, P, s), [P, s, diffs]))
        n_comp += 1

        # contrastive ranking loss
        pos = rand_tensor(rng, (4,))
        negs = rand_tensor(rng, (4, 3))
        worst_comp = max(worst_comp, finite_diff_max_rel(
            lambda: loss_pair(pos, negs, 0.5), [pos, negs]))
        n_comp += 1

    elapsed = time.time() - t0
    _report(3, worst_prim <= 1e-4 and worst_comp <= 1e-3 and elapsed < 120.0
            and n_prim >= 100 and n_comp >= 100,
            f"{n_prim} primitive instances (max rel {worst_prim:.2e}), "
            f"{n_comp} composite instances (max rel {worst_comp:.2e}), "
            f"{elapsed:.1f}s")


# --------------------------------------------------------------------------
# 4 & 5. planted two-hop signal: branch separation and learned gating
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def twohop_runs():
    results = {"all-node": [], "all-edge": [], "learn": [], "gate": []}
    t0 = time.time()
    for seed in SEEDS:
        db, task = gen_twohop(2000, 300, 8000, 1.0, seed)
        for mode in ("all-node", "all-edge", "learn"):
            mcfg = ModelConfig(channels=32, layers=1, seed=seed)
            tcfg = TrainConfig(epochs=30, batch_size=256, lr=0.005, seed=seed,
                               patience=30)
            state = build_state(db, task, mcfg, tcfg, roles_mode=mode)
            train(state)
            results[mode].append(evaluate_state(state, "test")["metric"])
            if mode == "learn":
                gate = [v for k, v in state.gates.items()
                        if k.endswith("~>user")]
                results["gate"].append(gate[0])
    results["elapsed"] = time.time() - t0
    return results


def test_criterion_4_branch_separation(twohop_runs):
    node_auc = float(np.mean(twohop_runs["all-node"]))
    edge_auc = float(np.mean(twohop_runs["all-edge"]))
    elapsed = twohop_runs["elapsed"]
    _report(4, node_auc <= 0.60 and edge_auc >= 0.90 and elapsed < 600.0,
            f"1-layer node-only AUC {node_auc:.3f} <= 0.60, "
            f"1-layer edge-enabled AUC {edge_auc:.3f} >= 0.90 "
            f"(5 seeds, shared runs {elapsed:.0f}s)")


def test_criterion_5_gating_recovers_role(twohop_runs):
    gates = twohop_runs["gate"]
    edge_dominant = sum(g >= 0.6 for g in gates)
    learn_auc = float(np.mean(twohop_runs["learn"]))
    node_auc = float(np.mean(twohop_runs["all-node"]))
    _report(5, edge_dominant >= 4 and learn_auc >= node_auc - 0.01,
            f"gate >= 0.6 in {edge_dominant}/5 seeds "
            f"(gates {[round(g, 3) for g in gates]}), learned AUC "
            f"{learn_auc:.3f} >= node AUC {node_auc:.3f} - 0.01")


# --------------------------------------------------------------------------
# 6. table-level FD loss recovers the planted subspace dimension
# --------------------------------------------------------------------------

def _fit_subspace(diffs: np.ndarray, d: int, seed: int) -> float:
    ch = diffs.shape[1]
    P = T.init_param((ch, d), fan_in=ch, seed=seed)
    s = T.zeros_param((ch,))
    opt = Adam([P, s], lr=0.02)
    target = Tensor(diffs)
    for _ in range(3000):
        T.backward(loss_emb(target, P, s))
        opt.step()
    return loss_emb(target, P, s).item()


def test_criterion_6_fd_table_loss():
    t0 = time.time()
    ok = True
    details = []
    for seed in SEEDS:
        db, meta = gen_subspace(400, 16, 4, seed, sigma=0.0)
        at_d = _fit_subspace(meta["diffs"], 4, seed)
        below_d = _fit_subspace(meta["diffs"], 3, seed)
        ok &= at_d < 1e-3 and below_d >= 10.0 * max(at_d, 1e-12)
        details.append((at_d, below_d))
    worst_at = max(d[0] for d in details)
    least_ratio = min(d[1] / max(d[0], 1e-12) for d in details)
    _report(6, ok,
            f"L_emb at d=d_true < 1e-3 (worst {worst_at:.1e}); "
            f"d_true-1 exceeds it >= 10x (least ratio {least_ratio:.1e}), "
            f"5 seeds, {time.time() - t0:.0f}s")


# --------------------------------------------------------------------------
# 7. entity-level FD loss: scorer separates true from mismatched targets
# --------------------------------------------------------------------------

def test_criterion_7_fd_entity_loss():
    t0 = time.time()
    k = 8
    db, meta = gen_subspace(600, 16, 4, 0, sigma=0.0)
    sg = build_schema_graph(db)
    reg = construct_reg(db, sg,
                        RoleAssignment.uniform(enumerate_edge_triples(sg), "learn"))
    fd = FdModule(reg, channels=16, subspace_dim=4, seed=0)
    rid = fd.relations[0].id
    h_entry = np.stack([np.asarray(reg.nodes["entry"].attrs[f"a{j}"].values,
                                   float) for j in range(16)], axis=1)
    h_anchor = np.stack([np.asarray(reg.nodes["anchor"].attrs[f"a{j}"].values,
                                    float) for j in range(16)], axis=1)
    es = reg.edges[rid]
    i_pos, j_pos = es.holder_rows, es.ref_rows
    n = len(i_pos)
    n_anchor = h_anchor.shape[0]
    rng = np.random.default_rng(0)
    split = int(0.8 * n)
    train_idx = np.arange(split)
    test_idx = np.arange(split, n)

    def negatives(idx):
        cols = []
        for _ in range(k):
            jn = rng.integers(0, n_anchor, size=len(idx))
            jn = np.where(jn == j_pos[idx], (jn + 1) % n_anchor, jn)
            cols.append(jn)
        return cols

    scorer = [fd.params[p] for p in sorted(fd.params) if ".ms." in p]
    opt = Adam(scorer, lr=0.005)
    for step in range(800):
        b = rng.choice(train_idx, size=128)
        hi, hj = Tensor(h_entry[i_pos[b]]), Tensor(h_anchor[j_pos[b]])
        pos = score_pairs(fd, rid, hi, hj)
        negs = T.concat([T.reshape(score_pairs(fd, rid, hi, Tensor(h_anchor[jn])),
                                   (len(b), 1)) for jn in negatives(b)], axis=1)
        T.backward(loss_pair(pos, negs, 0.1))
        opt.step()

    hi = Tensor(h_entry[i_pos[test_idx]])
    hj = Tensor(h_anchor[j_pos[test_idx]])
    pos = score_pairs(fd, rid, hi, hj)
    jn = rng.integers(0, n_anchor, size=len(test_idx))
    jn = np.where(jn == j_pos[test_idx], (jn + 1) % n_anchor, jn)
    neg1 = score_pairs(fd, rid, hi, Tensor(h_anchor[jn]))
    accuracy = float((pos.values > neg1.values).mean())
    negs = T.concat([T.reshape(score_pairs(fd, rid, hi, Tensor(h_anchor[jn])),
                               (len(test_idx), 1))
                     for jn in negatives(test_idx)], axis=1)
    held_out = loss_pair(pos, negs, 0.1).item()
    bound = math.log(1 + k)
    _report(7, accuracy > 0.9 and held_out < bound,
            f"held-out ranking accuracy {accuracy:.3f} > 0.9, "
            f"L_pair {held_out:.4f} < ln(1+k) = {bound:.4f}, "
            f"{time.time() - t0:.0f}s")


# --------------------------------------------------------------------------
# 8. temporal causality: chance when causal, leak detected when disabled
# --------------------------------------------------------------------------

def test_criterion_8_temporal_causality():
    t0 = time.time()
    causal, leaky = [], []
    for seed in SEEDS:
        db, task = gen_future_leak(3000, seed)
        for allow_future in (False, True):
            mcfg = ModelConfig(channels=32, layers=1, seed=seed)
            tcfg = TrainConfig(epochs=8, batch_size=256, lr=0.005, seed=seed,
                               allow_future=allow_future)
            state = build_state(db, task, mcfg, tcfg, roles_mode="learn")
            train(state)
            metric = evaluate_state(state, "test")["metric"]
            (leaky if allow_future else causal).append(metric)
    causal_ok = all(0.45 <= a <= 0.55 for a in causal)
    leaky_ok = all(a > 0.9 for a in leaky)
    _report(8, causal_ok and leaky_ok,
            f"causal AUC {[round(a, 3) for a in causal]} in [0.45, 0.55]; "
            f"causality-off AUC {[round(a, 3) for a in leaky]} > 0.9, "
            f"{time.time() - t0:.0f}s")


# --------------------------------------------------------------------------
# 9. alternating-optimization freezing contract
# --------------------------------------------------------------------------

def test_criterion_9_alternating_contract():
    db, task = gen_twohop(60, 20, 200, 1.0, 1)
    mcfg = ModelConfig(channels=8, layers=1, seed=1)

    tcfg = TrainConfig(epochs=2, batch_size=32, lr=0.005, seed=1,
                       neighbor_samples=16, beta=1e-3, gamma=0.1)
    state = build_state(db, task, mcfg, tcfg)
    hashes = []

    def hook(event, epoch, st):
        hashes.append((event, param_hash(st.model.params),
                       param_hash(st.fdmod.params)))

    train(state, phase_hook=hook)
    by_event = {}
    for ev, mh, fh in hashes:
        by_event.setdefault(ev, []).append((mh, fh))
    phase_a_ok = all(s[1] == a[1] and s[0] != a[0] for s, a in
                     zip(by_event["epoch_start"], by_event["after_phase_a"]))
    phase_b_ok = all(a[0] == b[0] and a[1] != b[1] for a, b in
                     zip(by_event["after_phase_a"], by_event["after_phase_b"]))

    def run(**kw):
        cfg = TrainConfig(epochs=3, batch_size=32, lr=0.005, seed=2,
                          neighbor_samples=16, **kw)
        st = build_state(db, task, mcfg, cfg)
        summary = train(st)
        return summary["history"], param_hash(st.model.params)

    h_zero, p_zero = run(beta=0.0, gamma=0.0)
    h_task, p_task = run(beta=0.7, gamma=0.7, disable_fd=True)
    bit_exact = h_zero == h_task and p_zero == p_task
    _report(9, phase_a_ok and phase_b_ok and bit_exact,
            "phase A froze FD parameters, phase B froze model parameters, "
            "beta=gamma=0 reproduced the task-only trajectory bit-exactly")


# --------------------------------------------------------------------------
# 10. metric oracles on 1000 random instances each
# --------------------------------------------------------------------------

def test_criterion_10_metric_oracles():
    t0 = time.time()
    rng = np.random.default_rng(42)
    auc_checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 21))
        labels = rng.integers(0, 2, size=n).astype(float)
        scores = np.round(rng.normal(size=n), 1)
        got = roc_auc(labels, scores)
        want = mann_whitney_auc_oracle(labels, scores)
        if np.isnan(want):
            assert np.isnan(got)
        else:
            assert abs(got - want) < 1e-12
        auc_checked += 1

    map_checked = 0
    for _ in range(1000):
        n_src = int(rng.integers(1, 11))
        n_cand = int(rng.integers(1, 11))
        k = int(rng.integers(1, 11))
        ids = np.sort(rng.choice(500, size=n_cand, replace=False))
        scores = np.round(rng.normal(size=(n_src, n_cand)), 1)
        relevant = [set(rng.choice(ids, size=int(rng.integers(0, n_cand + 1)),
                                   replace=False).tolist())
                    for _ in range(n_src)]
        got = map_at_k(scores, ids, relevant, k)
        vals = [ap_at_k_oracle(scores[i], ids.tolist(), relevant[i], k)
                for i in range(n_src) if relevant[i]]
        if vals:
            assert abs(got - float(np.mean(vals))) < 1e-12
        else:
            assert np.isnan(got)
        map_checked += 1
    elapsed = time.time() - t0
    _report(10, auc_checked == 1000 and map_checked == 1000 and elapsed < 30.0,
            f"AUC == Mann-Whitney oracle on {auc_checked} instances, "
            f"MAP@K == brute-force oracle on {map_checked} instances, "
            f"{elapsed:.1f}s")


# --------------------------------------------------------------------------
# 11. shipped defaults and the hop-budget rule
# --------------------------------------------------------------------------

def test_criterion_11_defaults_provenance():
    checks = defaults_self_test()
    failed = [c for c in checks if not c[1]]
    budgets = [hop_budget(128, i) for i in range(3)]
    _report(11, not failed and budgets == [128, 64, 32],
            f"beta=1e-6, gamma=0.1, hop budgets {budgets}; "
            f"self-test: {len(checks) - len(failed)}/{len(checks)} checks pass")
