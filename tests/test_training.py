import json
import os
import subprocess
import sys

import numpy as np
import pytest

from rolegnn import tensor as T
from rolegnn import training
from rolegnn.errors import CheckpointMismatch, TrainingDiverged
from rolegnn.model import Model, ModelConfig
from rolegnn.fd import fd_losses
from rolegnn.sampler import make_epoch_batches
from rolegnn.training import (ROLE_MODES, TrainConfig, _average_ranks, _mix,
                              _task_loss, build_state, evaluate,
                              evaluate_state, export_structure,
                              load_checkpoint, mae, map_at_k, param_hash,
                              roc_auc, roles_for_mode, save_checkpoint,
                              structure_report, train, transfer_structure)
from rolegnn.rdb import LabelRecords, TaskSpec
from rolegnn.schema_graph import build_schema_graph, enumerate_edge_triples
from rolegnn.synth import gen_completion_chain, gen_twohop

SMALL = dict(n_users=60, n_products=20, n_reviews=200, signal_strength=1.0)


def _small_state(seed=0, roles="learn", layers=1, **overrides):
    db, task = gen_twohop(seed=seed, **SMALL)
    mcfg = ModelConfig(channels=8, layers=layers, seed=seed)
    defaults = dict(epochs=2, batch_size=32, lr=0.005, seed=seed,
                    neighbor_samples=16)
    defaults.update(overrides)
    tcfg = TrainConfig(**defaults)
    return db, task, build_state(db, task, mcfg, tcfg, roles_mode=roles)


# --- metric oracles ---------------------------------------------------------

def mann_whitney_auc_oracle(labels, scores):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        return float("nan")
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def ap_at_k_oracle(scores, candidate_ids, relevant, k):
    ranked = sorted(zip(scores, candidate_ids), key=lambda t: (-t[0], t[1]))
    hits, total = 0, 0.0
    for rank, (_, cid) in enumerate(ranked[:k], start=1):
        if cid in relevant:
            hits += 1
            total += hits / rank
    return total / min(k, len(relevant))


def test_auc_perfect_and_ties():
    assert roc_auc(np.array([1, 0]), np.array([0.9, 0.1])) == 1.0
    assert roc_auc(np.array([1, 0, 1, 0]), np.array([0.5] * 4)) == 0.5


def test_auc_single_class_undefined():
    assert np.isnan(roc_auc(np.ones(4), np.arange(4.0)))


def test_auc_matches_mann_whitney_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 20))
        labels = rng.integers(0, 2, size=n).astype(float)
        scores = np.round(rng.normal(size=n), 1)  # coarse values force ties
        got = roc_auc(labels, scores)
        want = mann_whitney_auc_oracle(labels, scores)
        if np.isnan(want):
            assert np.isnan(got)
        else:
            assert abs(got - want) < 1e-12


def _average_ranks_loop(x):
    """The per-group loop `_average_ranks` replaced."""
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(len(x), dtype=np.float64)
    xs = x[order]
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and xs[j + 1] == xs[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j + 2) / 2.0
        i = j + 1
    return ranks


@pytest.mark.parametrize("seed", range(5))
def test_average_ranks_match_loop(seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 20, size=500).astype(np.float64)  # heavy ties
    x[rng.choice(500, size=3, replace=False)] = np.nan
    x[rng.integers(500)] = -0.0
    assert np.array_equal(_average_ranks(x), _average_ranks_loop(x))
    for small in (x[:0], x[:1], np.array([np.nan, np.nan, 1.0, 1.0])):
        assert np.array_equal(_average_ranks(small), _average_ranks_loop(small))


def test_mae():
    assert mae(np.array([1.0, 2.0]), np.array([2.0, 0.0])) == 1.5


def test_map_at_k_hand_instance():
    # 3 sources, 4 candidates, known hit patterns
    ids = np.array([10, 20, 30, 40])
    scores = np.array([[4.0, 3.0, 2.0, 1.0],
                       [1.0, 2.0, 3.0, 4.0],
                       [1.0, 1.0, 1.0, 1.0]])
    relevant = [{10, 30}, {10}, {40}]
    got = map_at_k(scores, ids, relevant, k=2)
    want = np.mean([ap_at_k_oracle(scores[i], ids.tolist(), relevant[i], 2)
                    for i in range(3)])
    assert abs(got - want) < 1e-12
    # first source: hits at ranks 1 and ... 30 is rank 3 -> only rank1 counts
    assert abs(ap_at_k_oracle(scores[0], ids.tolist(), {10, 30}, 2) - 0.5) < 1e-12


def test_map_at_k_matches_bruteforce_oracle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n_src = int(rng.integers(1, 10))
        n_cand = int(rng.integers(1, 10))
        k = int(rng.integers(1, 10))
        ids = np.sort(rng.choice(1000, size=n_cand, replace=False))
        scores = np.round(rng.normal(size=(n_src, n_cand)), 1)
        relevant = []
        for _i in range(n_src):
            n_rel = int(rng.integers(0, n_cand + 1))
            relevant.append(set(rng.choice(ids, size=n_rel, replace=False).tolist()))
        got = map_at_k(scores, ids, relevant, k)
        oracle_vals = [ap_at_k_oracle(scores[i], ids.tolist(), relevant[i], k)
                       for i in range(n_src) if relevant[i]]
        if oracle_vals:
            assert abs(got - np.mean(oracle_vals)) < 1e-12
        else:
            assert np.isnan(got)


# --- alternating optimization contract ---------------------------------------

def test_phase_isolation_hashes():
    db, task, state = _small_state(seed=1, epochs=2, beta=1e-3, gamma=0.1)
    fd_names = set(state.fdmod.params)
    events = []

    def hook(event, epoch, st):
        model_h = param_hash(st.model.params)
        fd_h = param_hash(st.fdmod.params)
        events.append((event, epoch, model_h, fd_h))

    train(state, phase_hook=hook)
    by_key = {(e, ep): (m, f) for e, ep, m, f in events}
    for epoch in range(2):
        start = by_key[("epoch_start", epoch)]
        after_a = by_key[("after_phase_a", epoch)]
        after_b = by_key[("after_phase_b", epoch)]
        assert start[1] == after_a[1]      # phase A froze FD parameters
        assert start[0] != after_a[0]      # ... while training the model
        assert after_a[0] == after_b[0]    # phase B froze model parameters
        assert after_a[1] != after_b[1]    # ... while training FD parameters
    # parameter sets are disjoint and exhaustive
    assert not (fd_names & set(state.model.params))


def test_phase_a_keeps_fd_parameters_off_the_tape(monkeypatch):
    """A phase-A step produces no FD-parameter gradient, and its model
    gradients equal those of the same step with FD parameters on the tape."""
    overrides = dict(epochs=1, batch_size=1000, beta=1e-3, gamma=0.1)
    _, task, state = _small_state(seed=6, **overrides)
    _, _, oracle = _small_state(seed=6, **overrides)
    cfg = state.train_cfg
    real_backward = T.backward
    seen = []

    def spy(loss):
        real_backward(loss)
        if not seen:  # one batch, so the first backward is the phase-A step
            seen.append(({n: p.grad.copy() for n, p in state.model.params.items()},
                         {n: p.grad.copy() for n, p in state.fdmod.params.items()}))

    monkeypatch.setattr(T, "backward", spy)
    train(state)
    model_grads, fd_grads = seen[0]
    assert not any(g.any() for g in fd_grads.values())

    idx, = make_epoch_batches(task.labels["train"], cfg.batch_size,
                              seed=_mix(cfg.seed, 0, 0))
    rng = np.random.default_rng([cfg.seed, 0, 1, 0])
    loss, result, batch, _ = _task_loss(oracle, idx, "train", True,
                                        oracle.gates, rng)
    total, _, _, _ = fd_losses(batch, result.embeddings, oracle.fdmod, cfg.beta,
                               cfg.gamma, cfg.tau, cfg.negatives, rng)
    real_backward(T.add(loss, total))
    assert any(p.grad.any() for p in oracle.fdmod.params.values())
    for name, p in oracle.model.params.items():
        assert np.array_equal(model_grads[name], p.grad), name


@pytest.mark.parametrize("layers", [1, 2])
def test_adopted_gradient_buffers_keep_parameter_gradients(monkeypatch, layers):
    """A first gradient write adopts an array its backward rule computed
    for that parent alone instead of copying it. The copy only turned -0.0
    into +0.0, which no parameter gradient tells apart: over the first 12
    backward passes (phases A and B, FD on) every parameter gradient has
    the bytes it has when every first write is copied."""
    def gradient_bytes():
        _, _, state = _small_state(seed=4, layers=layers, batch_size=16,
                                   beta=0.5, gamma=0.5)
        seen = []
        real_backward = T.backward

        def spy(loss):
            real_backward(loss)
            seen.append(b"".join(p.grad.tobytes() for _, p in
                                 sorted(state.parameters().items())))
        monkeypatch.setattr(T, "backward", spy)
        train(state)
        monkeypatch.undo()
        assert len(seen) >= 12
        return seen[:12]

    adopted = gradient_bytes()
    real_accum = T._accum
    monkeypatch.setattr(T, "_accum", lambda t, grad, own=False:
                        real_accum(t, grad))
    copied = gradient_bytes()
    assert adopted == copied


# SHA-256 of (parameter hash, history) after training, and of every parameter
# gradient of the first 12 backward passes, with BLAS at one thread; recorded
# after the FD scoring head began to map before it pairs, and re-taken when a
# matched co-occurrence v-mean began to read its relation's mean. The training
# runs in a child process with the count pinned, as for the x1 digest below.
_FD_PINNED = {
    1: ("f34c7827ffa2b61646d563561869b2a4478324a567920b486d9be0a8ce47cc0d",
        "a5271abd04dacb5fc158a17420aa14d49272c8e906fd6aa6e0389efc519a0bdb"),
    2: ("b034fb70e6044e7533519eb0979e342ef3f301b8a0dcd12af89df271a73e1979",
        "541eb9cb2559f84c6be047b5de727f9ab931bfb674a27d073fd091484a2fb575"),
}
_FD_TRAINING = """
import hashlib, sys
from rolegnn import tensor as T
from rolegnn.model import ModelConfig
from rolegnn.synth import gen_twohop
from rolegnn.training import TrainConfig, build_state, param_hash, train
layers = int(sys.argv[1])
db, task = gen_twohop(60, 20, 200, 1.0, 4)
state = build_state(db, task, ModelConfig(channels=8, layers=layers, seed=4),
                    TrainConfig(epochs=2, batch_size=16, lr=0.005, seed=4,
                                neighbor_samples=16, beta=0.5, gamma=0.5))
grads = hashlib.sha256()
passes = []
real_backward = T.backward

def spy(loss):
    real_backward(loss)
    if len(passes) < 12:
        passes.append(loss.item())
        for _, p in sorted(state.parameters().items()):
            grads.update(p.grad.tobytes())

T.backward = spy
history = train(state)["history"]
assert len(passes) == 12
run = hashlib.sha256(
    f"{param_hash(state.parameters())}|{history!r}".encode()).hexdigest()
print(run, grads.hexdigest())
"""


def _pinned_child(script: str, *args: str) -> str:
    """stdout of `script` run with BLAS at one thread, whose bytes depend
    on the thread count."""
    src = os.path.dirname(os.path.dirname(training.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script, *args], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


@pytest.mark.parametrize("layers", [1, 2])
def test_fd_training_matches_pinned_digests(layers):
    """A fixed-seed FD training (phases A and B) keeps its bytes."""
    assert tuple(_pinned_child(_FD_TRAINING, str(layers)).split()) == \
        _FD_PINNED[layers]


# SHA-256 of (parameter hash, history) after a 2-epoch training at the x1
# benchmark shape (two-hop 2000/300/8000, 2 layers, 32 channels, 256 seeds
# per batch, 128 neighbours, FD off) with BLAS at one thread; recorded while
# path relations still carried a copy of the intermediate table's attributes,
# and re-taken when a matched co-occurrence v-mean began to read its
# relation's mean. The bytes depend on the BLAS thread count, so the training
# runs in a child process with the count pinned, as the benchmark pins it.
_X1_PINNED = ("224e42e33c9921b543187ba6297a5ca6"
              "a6ca7344134bba27af7c75f0867ae8e5")
_X1_TRAINING = """
import hashlib
from rolegnn.model import ModelConfig
from rolegnn.synth import gen_twohop
from rolegnn.training import TrainConfig, build_state, param_hash, train
db, task = gen_twohop(2000, 300, 8000, 1.0, 7)
state = build_state(db, task, ModelConfig(channels=32, layers=2, seed=7),
                    TrainConfig(epochs=2, batch_size=256, lr=0.005,
                                neighbor_samples=128, patience=2, seed=7,
                                beta=0.0, gamma=0.0))
history = train(state)["history"]
assert state.fdmod is None and len(history) == 2
print(hashlib.sha256(
    f"{param_hash(state.parameters())}|{history!r}".encode()).hexdigest())
"""


def test_x1_training_matches_pinned_digest():
    assert _pinned_child(_X1_TRAINING) == _X1_PINNED


class _Fault(Exception):
    pass


class _Adam(T.Adam):
    """Adam that lists its instances and, at each step's `zero_grad` (the
    first thing a training step does), calls `_Adam.on_step`."""
    made: list = []
    on_step = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _Adam.made.append(self)

    def zero_grad(self):
        if _Adam.on_step is not None:
            _Adam.on_step()
        super().zero_grad()


def _facts(state):
    """Everything a training step may change: parameter values and flags,
    every optimizer's moments and step count, the gates, the FD rows and
    the history."""
    params = sorted(state.parameters().items())
    return ([p.values.copy() for _, p in params],
            [p.requires_grad for _, p in params],
            [([m.copy() for m in opt.m], [v.copy() for v in opt.v], opt.t)
             for opt in _Adam.made],
            dict(state.gates), list(state.fd_diag_rows), list(state.history))


def _same(a, b) -> bool:
    """Bit equality of nested facts."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


@pytest.mark.parametrize("phase", ["a", "b"])
def test_failed_step_leaves_nothing_behind(monkeypatch, phase):
    """A fault inside the second training step of phase A or of phase B (FD
    on): at each of its tape records in turn, at the start of Adam.step, and
    in Adam.step at the last parameter. After each, the tape is empty with
    recording on, and the parameter values and flags, every optimizer's
    moments and step count, the gates and the FD rows are as they were when
    the step began. Training the faulted state again is then bit-equal to
    training an untouched state set to those values."""
    def fresh():
        _Adam.made.clear()
        return _small_state(seed=5, batch_size=16, beta=0.5, gamma=0.5,
                            epochs=1)[2]

    def outcome(state):
        history = train(state)["history"]
        return param_hash(state.parameters()), history, state.gates

    records, fail_at = [0], [None]
    real_record = T._record

    def record(out, parents, bwd):
        before = T.tape_size()
        real_record(out, parents, bwd)
        if T.tape_size() > before:
            records[0] += 1
            if records[0] == fail_at[0]:
                raise _Fault(records[0])
        return out
    monkeypatch.setattr(T, "_record", record)
    monkeypatch.setattr(training, "Adam", _Adam)

    # an untouched run: the facts and the tape records at each step start
    steps = []
    monkeypatch.setattr(_Adam, "on_step", lambda: steps.append(
        (records[0], _facts(state))))
    state = fresh()
    train(state)
    n_a = len(steps) // 2  # phase A and phase B take the same batches
    assert n_a == 3 and len(steps) == 2 * n_a
    j = 1 if phase == "a" else n_a + 1
    (first, before), (last, _) = steps[j], steps[j + 1]
    assert last - first > 10
    monkeypatch.setattr(_Adam, "on_step", None)

    # training from the step's start, on a state never faulted
    state = fresh()
    for p, values in zip((p for _, p in sorted(state.parameters().items())),
                         before[0]):
        p.values[...] = values
    state.gates = dict(before[3])
    state.fd_diag_rows = list(before[4])
    want = outcome(state)

    def check(fault):
        state = fresh()
        records[0] = 0
        with pytest.raises(fault):
            train(state)
        assert T.tape_size() == 0 and T._GRAD_ENABLED
        assert _same(_facts(state), before)
        return outcome(state)

    for k in range(first + 1, last + 1):
        fail_at[0] = k
        assert check(_Fault) == want
    fail_at[0] = None

    real_step, calls = T.Adam.step, [0]

    def failing_step(self):
        calls[0] += 1
        if calls[0] == j + 1:
            raise _Fault("adam")
        real_step(self)
    monkeypatch.setattr(T.Adam, "step", failing_step)
    assert check(_Fault) == want
    monkeypatch.setattr(T.Adam, "step", real_step)

    real_backward = T.backward

    def poisoned_backward(loss):
        real_backward(loss)
        calls[0] += 1
        if calls[0] == j + 1:
            _Adam.made[-1 if phase == "b" else 0].params[-1].grad[...] = np.inf
    monkeypatch.setattr(T, "backward", poisoned_backward)
    calls[0] = 0
    assert check(TrainingDiverged) == want


def test_beta_gamma_zero_matches_task_only_run():
    db, task, state_a = _small_state(seed=2, epochs=3, beta=0.0, gamma=0.0)
    _, _, state_b = _small_state(seed=2, epochs=3, beta=0.5, gamma=0.5,
                                 disable_fd=True)
    sum_a = train(state_a)
    sum_b = train(state_b)
    assert state_a.fdmod is None and state_b.fdmod is None
    assert sum_a["history"] == sum_b["history"]
    assert param_hash(state_a.model.params) == param_hash(state_b.model.params)


def test_reproducible_history():
    _, _, s1 = _small_state(seed=3, epochs=2, beta=1e-4, gamma=0.05)
    _, _, s2 = _small_state(seed=3, epochs=2, beta=1e-4, gamma=0.05)
    h1 = train(s1)["history"]
    h2 = train(s2)["history"]
    assert h1 == h2
    assert param_hash(s1.parameters()) == param_hash(s2.parameters())


def test_divergence_guard():
    db, task, state = _small_state(seed=4, epochs=1)
    state.model.params["head.W"].values[:] = np.nan
    with pytest.raises(TrainingDiverged) as err:
        train(state)
    assert "epoch" in err.value.diagnostics


@pytest.mark.parametrize("phase", ["a", "b"])
def test_divergence_leaves_tape_empty(phase):
    db, task, state = _small_state(seed=4, epochs=1)

    def poison_fd_head(event, epoch, st):
        if event == "after_phase_a":
            for name, p in st.fdmod.params.items():
                if name.endswith(".ms.b2"):
                    p.values[:] = np.nan

    if phase == "a":
        state.model.params["head.b"].values[:] = np.nan
    with pytest.raises(TrainingDiverged) as err:
        train(state, phase_hook=poison_fd_head if phase == "b" else None)
    assert ("FD" in str(err.value)) == (phase == "b")
    assert T.tape_size() == 0


def test_gates_update_only_in_phase_a():
    db, task, state = _small_state(seed=5, epochs=1, beta=1e-4, gamma=0.05)
    seen = {}

    def hook(event, epoch, st):
        seen[event] = dict(st.gates)

    train(state, phase_hook=hook)
    assert seen["epoch_start"] != seen["after_phase_a"]
    assert seen["after_phase_a"] == seen["after_phase_b"]


# --- structure report / export / transfer -----------------------------------

def test_structure_report_initial_gates():
    db, task, state = _small_state(seed=6)
    report = structure_report(state.reg.triples, state.gates, state.model.cfg)
    assert report["triples"], "two-hop schema has co-occurrence triples"
    for entry in report["triples"]:
        assert entry["gate"] == 0.5
        assert entry["dominant_role"] == "edge"  # boundary: 0.5 counts as edge
        assert entry["orientation_consistency"] == "same"


def test_structure_report_consistency_flag():
    db, task, state = _small_state(seed=6)
    tids = sorted(state.gates)
    state.gates[tids[0]] = 0.9
    state.gates[tids[1]] = 0.2
    report = structure_report(state.reg.triples, state.gates, state.model.cfg)
    flags = {e["triple"]: e["orientation_consistency"]
             for e in report["triples"]}
    assert set(flags.values()) == {"diff"}
    roles = {e["triple"]: e["dominant_role"] for e in report["triples"]}
    assert roles[tids[0]] == "edge" and roles[tids[1]] == "node"


def test_checkpoint_roundtrip_and_eval(tmp_path):
    db, task, state = _small_state(seed=7, epochs=2, beta=1e-5, gamma=0.05)
    summary = train(state, out_dir=tmp_path)
    assert (tmp_path / "metrics.csv").exists()
    assert (tmp_path / "fd_diagnostics.csv").exists()
    ckpt = tmp_path / "checkpoint"

    loaded = load_checkpoint(ckpt, db, task)
    assert param_hash(loaded.parameters()) == param_hash(state.parameters())
    assert loaded.gates == state.gates

    direct = evaluate_state(state, "test")
    via_ckpt = evaluate(ckpt, db, task, "test")
    assert direct["metric"] == via_ckpt["metric"]

    report = export_structure(ckpt, tmp_path / "structure_out.json")
    parsed = json.loads((tmp_path / "structure_out.json").read_text())
    assert parsed == report


@pytest.mark.parametrize("mode", ROLE_MODES)
def test_every_role_mode_survives_a_checkpoint(tmp_path, mode):
    """A checkpoint gives back its run's roles, a fixed role's gate
    included, its gates, its parameters and its test metric."""
    source = None
    if mode == "transfer":  # the gates of a learned run, frozen
        _, _, learned = _small_state(seed=4, epochs=1)
        train(learned)
        source = learned.gates
    db, task = gen_twohop(seed=4, **SMALL)
    state = build_state(db, task, ModelConfig(channels=8, layers=1, seed=4),
                        TrainConfig(epochs=1, batch_size=32, lr=0.005, seed=4,
                                    neighbor_samples=16),
                        roles_mode=mode, transfer_gates=source)
    train(state)
    if source is not None:
        assert state.gates == source
    save_checkpoint(tmp_path / "ckpt", state)
    loaded = load_checkpoint(tmp_path / "ckpt", db, task)
    assert loaded.reg.roles.roles == state.reg.roles.roles
    assert loaded.gates == state.gates
    assert param_hash(loaded.parameters()) == param_hash(state.parameters())
    assert evaluate_state(loaded, "test") == evaluate_state(state, "test")


def test_roles_for_mode_refuses_an_unknown_mode():
    db, _ = gen_twohop(seed=0, **SMALL)
    triples = enumerate_edge_triples(build_schema_graph(db))
    with pytest.raises(ValueError, match="unknown roles mode 'bogus'"):
        roles_for_mode(triples, "bogus", 0)


def test_build_state_keeps_the_gate_settings_of_the_model_config():
    db, task = gen_twohop(seed=0, **SMALL)
    mcfg = ModelConfig(channels=8, layers=1, alpha=0.5, mu=0.3)
    state = build_state(db, task, mcfg, TrainConfig(epochs=1))
    report = structure_report(state.reg.triples, state.gates, state.model.cfg)
    assert (report["alpha"], report["mu"]) == (0.5, 0.3)
    assert state.model.cfg == mcfg


def test_checkpoint_keeps_the_path_cap_it_was_built_with(tmp_path, monkeypatch):
    db, task, state = _small_state(seed=1, epochs=1, path_cap=123_456)
    save_checkpoint(tmp_path / "ckpt", state)
    meta = json.loads((tmp_path / "ckpt" / "meta.json").read_text())
    assert meta["train_config"]["path_cap"] == 123_456
    caps = []
    real = training.construct_reg

    def spy(*args, **kwargs):
        caps.append(kwargs["path_cap"])
        return real(*args, **kwargs)
    monkeypatch.setattr(training, "construct_reg", spy)
    loaded = load_checkpoint(tmp_path / "ckpt", db, task)
    assert caps == [123_456] and loaded.train_cfg.path_cap == 123_456


@pytest.mark.parametrize("cells", ["tiny-spread", "extremes"])
def test_computed_encoder_stats_pass_checkpoint_bounds(tmp_path, cells):
    """Statistics the encoder computes over cells within [-1e150, 1e150]
    are read back from its checkpoint: a std under 1e-150 (every cell 0
    but one 1e-160) is a constant column, as 0 is, and cells at the bound
    keep the mean and std inside theirs."""
    db, task = gen_twohop(seed=3, n_users=30, n_products=10, n_reviews=80,
                          signal_strength=1.0)
    quality = db.data["product"].cols["quality"].values
    if cells == "tiny-spread":
        quality[:] = 0.0
        quality[4] = 1e-160
    else:
        quality[:] = np.where(np.arange(len(quality)) % 3, 1e150, -1e150)
    state = build_state(db, task, ModelConfig(channels=8, layers=1, seed=3),
                        TrainConfig(epochs=1, batch_size=32, seed=3,
                                    neighbor_samples=16))
    stats = state.model.encoder.stats["tables"]["product"]["columns"]["quality"]
    if cells == "tiny-spread":
        assert stats["std"] == 1.0
    else:
        assert abs(stats["mean"]) <= 1e150 and 1e-150 <= stats["std"] <= 1e150
    train(state)
    save_checkpoint(tmp_path / "ckpt", state)
    loaded = load_checkpoint(tmp_path / "ckpt", db, task)
    assert loaded.model.encoder.stats == state.model.encoder.stats
    assert evaluate_state(loaded, "test") == evaluate_state(state, "test")


def test_checkpoint_rejects_other_schema(tmp_path):
    db, task, state = _small_state(seed=8, epochs=1)
    train(state, out_dir=tmp_path)
    other_db, other_task = gen_completion_chain((60, 30, 20), 0)
    with pytest.raises(CheckpointMismatch):
        load_checkpoint(tmp_path / "checkpoint", other_db, other_task)


def test_transfer_same_schema_and_mismatch(tmp_path):
    db, task, state = _small_state(seed=9, epochs=2)
    train(state, out_dir=tmp_path / "source")
    mcfg = ModelConfig(channels=8, layers=1, seed=10)
    tcfg = TrainConfig(epochs=2, batch_size=32, lr=0.005, seed=10,
                       neighbor_samples=16)
    summary = transfer_structure(tmp_path / "source" / "checkpoint", db, task,
                                 mcfg, tcfg, out_dir=tmp_path / "target")
    assert summary["transfer"]["source_task"] == task.name
    assert summary["transfer"]["target_task"] == task.name
    # transferred gates are frozen at the source values
    target_state = load_checkpoint(tmp_path / "target" / "checkpoint", db, task)
    assert target_state.gates == state.gates

    other_db, other_task = gen_completion_chain((60, 30, 20), 0)
    with pytest.raises(CheckpointMismatch):
        transfer_structure(tmp_path / "source" / "checkpoint", other_db,
                           other_task, mcfg, tcfg)


def test_transfer_metric_close_to_fresh(tmp_path):
    fresh, moved = [], []
    for seed in range(2):
        db, task = gen_twohop(150, 40, 500, 1.0, seed)
        mcfg = ModelConfig(channels=16, layers=1, seed=seed)
        tcfg = TrainConfig(epochs=8, batch_size=64, lr=0.005, seed=seed,
                           neighbor_samples=32)
        state = build_state(db, task, mcfg, tcfg, roles_mode="learn")
        train(state, out_dir=tmp_path / f"src{seed}")
        fresh.append(evaluate_state(state, "test")["metric"])
        summary = transfer_structure(tmp_path / f"src{seed}" / "checkpoint",
                                     db, task, mcfg,
                                     TrainConfig(epochs=8, batch_size=64,
                                                 lr=0.005, seed=seed + 100,
                                                 neighbor_samples=32))
        moved.append(summary["best_val_metric"])
    assert np.mean(moved) > np.mean(fresh) - 0.1


def test_planted_subspace_l_emb_decreases():
    """Monitored run: on a database with planted low-rank link differences the
    recorded table-level FD loss falls across the first epochs."""
    from rolegnn.synth import _assign_splits, _split_cuts, gen_subspace

    db, meta = gen_subspace(300, 8, 2, 0, sigma=0.0)
    rng = np.random.default_rng(0)
    entry = db.table("entry")
    labels = (entry.cols["a0"].values > 0).astype(float)
    cuts = _split_cuts()
    task = TaskSpec(name="probe", task_type="classification",
                    entity_table="entry", split=cuts)
    for split, cut, idx in zip(("train", "val", "test"), cuts,
                               _assign_splits(rng, entry.n_rows).values()):
        task.labels[split] = LabelRecords(
            entity=entry.pk[idx], t_predict=np.full(len(idx), float(cut)),
            label=labels[idx])
    mcfg = ModelConfig(channels=8, layers=1, seed=0)
    tcfg = TrainConfig(epochs=5, batch_size=64, lr=0.005, seed=0, beta=1.0,
                       gamma=0.0, neighbor_samples=32, patience=10)
    state = build_state(db, task, mcfg, tcfg)
    history = train(state)["history"]
    l_emb = [row["l_emb"] for row in history]
    assert all(b < a for a, b in zip(l_emb, l_emb[1:])), l_emb


def test_early_stopping_respects_patience():
    db, task, state = _small_state(seed=11, epochs=40, patience=2)
    summary = train(state)
    assert summary["epochs_run"] <= 40


def test_regression_task_trains():
    db, task = gen_completion_chain((200, 100, 60), 1)
    mcfg = ModelConfig(channels=8, layers=1, seed=1)
    tcfg = TrainConfig(epochs=3, batch_size=32, lr=0.005, seed=1,
                       neighbor_samples=16)
    state = build_state(db, task, mcfg, tcfg, roles_mode="learn")
    summary = train(state)
    res = evaluate_state(state, "test")
    assert res["name"] == "mae" and np.isfinite(res["metric"])


def _link_state(layers=1):
    db, task = gen_twohop(60, 15, 200, 1.0, 12)
    # derive a tiny link task: users link to products they reviewed
    review = db.table("review")
    cut = task.split
    lp = TaskSpec(name="user-product", task_type="link_prediction",
                  entity_table="user", target_table="product", eval_k=5,
                  split=cut)
    rng = np.random.default_rng(0)
    for split, t_pred in zip(("train", "val", "test"), cut):
        idx = rng.choice(review.n_rows, size=40, replace=False)
        lp.labels[split] = LabelRecords(
            entity=review.cols["user_id"].values[idx].astype(np.int64),
            target=review.cols["product_id"].values[idx].astype(np.int64),
            t_predict=np.full(40, float(t_pred)),
            label=np.ones(40))
    mcfg = ModelConfig(channels=8, layers=layers, seed=2)
    tcfg = TrainConfig(epochs=2, batch_size=16, lr=0.005, seed=2,
                       neighbor_samples=16)
    return build_state(db, lp, mcfg, tcfg, roles_mode="learn")


def test_link_prediction_trains_and_maps():
    state = _link_state()
    train(state)
    res = evaluate_state(state, "test")
    assert res["name"] == "map"
    assert 0.0 <= res["metric"] <= 1.0


@pytest.mark.parametrize("previous", [False, True])
def test_checkpoint_save_failing_midway_leaves_target_intact(tmp_path,
                                                             monkeypatch,
                                                             previous):
    db, task, state = _small_state(seed=7, epochs=1)
    ckpt = tmp_path / "checkpoint"
    if previous:
        save_checkpoint(ckpt, state)
        saved_hash = param_hash(state.parameters())
    state.model.params["head.b"].values += 1.0  # the save that fails differs

    def fail(*args, **kwargs):
        raise OSError("disk full")
    monkeypatch.setattr(json, "dump", fail)  # meta.json, the last file
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(ckpt, state)
    monkeypatch.undo()

    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["checkpoint"] if previous else [])
    if previous:
        loaded = load_checkpoint(ckpt, db, task)
        assert param_hash(loaded.parameters()) == saved_hash
    save_checkpoint(ckpt, state)  # a later save replaces it
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint"]
    assert sorted(p.name for p in ckpt.iterdir()) == [
        "gates.json", "meta.json", "params.bin"]
    loaded = load_checkpoint(ckpt, db, task)
    assert param_hash(loaded.parameters()) == param_hash(state.parameters())


def test_checkpoint_save_failing_at_the_swap_restores_previous(tmp_path,
                                                              monkeypatch):
    db, task, state = _small_state(seed=7, epochs=1)
    ckpt = tmp_path / "checkpoint"
    save_checkpoint(ckpt, state)
    saved_hash = param_hash(state.parameters())
    state.model.params["head.b"].values += 1.0

    real_replace = os.replace
    calls = []

    def replace(src, dst):
        calls.append((src, dst))
        if len(calls) == 2:  # old moved aside; renaming the new one in fails
            raise OSError("rename failed")
        real_replace(src, dst)
    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="rename failed"):
        save_checkpoint(ckpt, state)
    monkeypatch.undo()

    assert len(calls) == 3  # the third moved the old checkpoint back
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint"]
    loaded = load_checkpoint(ckpt, db, task)
    assert param_hash(loaded.parameters()) == saved_hash


def test_checkpoint_save_replaces_a_file(tmp_path):
    db, task, state = _small_state(seed=7, epochs=1)
    ckpt = tmp_path / "checkpoint"
    ckpt.write_text("not a checkpoint")
    save_checkpoint(ckpt, state)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint"]
    loaded = load_checkpoint(ckpt, db, task)
    assert param_hash(loaded.parameters()) == param_hash(state.parameters())


# --- seeds-only evaluation --------------------------------------------------

def _force_full_forward(monkeypatch) -> list:
    """Make every Model.forward call run the full forward; returns the
    `seeds_only` value each call asked for."""
    orig = Model.forward
    asked = []

    def forward(self, *args, seeds_only=False, **kwargs):
        asked.append(seeds_only)
        return orig(self, *args, **kwargs)
    monkeypatch.setattr(Model, "forward", forward)
    return asked


def test_seeds_only_evaluation_keeps_training_results(monkeypatch):
    def run(disable_fd):
        _, _, state = _small_state(seed=4, layers=2, epochs=3,
                                   disable_fd=disable_fd)
        summary = train(state)
        return param_hash(state.parameters()), summary["history"]

    for disable_fd in (False, True):
        trimmed = run(disable_fd)
        asked = _force_full_forward(monkeypatch)
        assert run(disable_fd) == trimmed
        # evaluation trims; phase A trims exactly when FD is off, since FD
        # reads every linked pair
        assert True in asked and (False in asked) != disable_fd
        monkeypatch.undo()


def test_seeds_only_link_evaluation_keeps_map(monkeypatch):
    state = _link_state(layers=2)
    train(state)
    trimmed = evaluate_state(state, "test")
    assert np.isfinite(trimmed["metric"])
    asked = _force_full_forward(monkeypatch)
    assert evaluate_state(state, "test") == trimmed
    assert asked == [True, True]  # the source and the candidate forward


# --- evaluation batches ----------------------------------------------------

def _per_training_batch_outputs(state, split):
    """The oracle loop: one sampled batch per training batch of seeds,
    `batch_size` of them, each from its own generator
    `[seed, 99, first row]`."""
    task, step = state.task, state.train_cfg.batch_size
    outputs = np.empty(len(task.labels[split]))
    for lo in range(0, len(outputs), step):
        idx = np.arange(lo, min(lo + step, len(outputs)))
        seeds, _, _ = training._seed_list(task, split, idx)
        rng = np.random.default_rng([state.train_cfg.seed, 99, lo])
        with T.no_grad():
            _, res = training._sample_forward(state, seeds, task.entity_table,
                                              rng, state.gates, False,
                                              seeds_only=True)
        outputs[idx] = res.output.values
    return outputs


def _uncut_state(layers):
    """A trained state whose draws are never cut: every edge budget
    (`neighbor_samples // 2**hop`) and the path budget cover the largest
    admissible degree, so a batch's outputs do not depend on its stream."""
    db, task = gen_twohop(seed=5, n_users=90, n_products=20, n_reviews=300,
                          signal_strength=1.0)
    tcfg = TrainConfig(epochs=1, batch_size=2, lr=0.005, seed=5,
                       neighbor_samples=4096)
    state = build_state(db, task, ModelConfig(channels=8, layers=layers, seed=5),
                        tcfg)
    reg = state.reg
    degrees = [np.diff(reg.adjacency(key)[0]).max() for key in reg.relation_keys]
    degrees += [np.diff(reg.path_adjacency(tr.id)[0]).max()
                for tr in reg.active_triples]
    assert max(degrees) <= tcfg.neighbor_samples // 2 ** (layers - 1)
    train(state)
    return state


@pytest.mark.parametrize("layers", [1, 2])
def test_evaluation_batches_match_per_training_batch_loop(layers):
    """Evaluation batches of EVAL_BATCH_FACTOR training batches give every
    seed the output the per-training-batch loop gave it, up to the order
    of a layer-0 class sum (a class's first copy moves with the batch),
    and the same metric."""
    state = _uncut_state(layers)
    for split in ("val", "test"):
        want = _per_training_batch_outputs(state, split)
        with T.no_grad():
            got = training._split_outputs(state, split)
        assert len(got) > training.EVAL_BATCH_FACTOR * state.train_cfg.batch_size
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
        labels = state.task.labels[split].label
        assert evaluate_state(state, split)["metric"] == roc_auc(labels, want)


@pytest.mark.parametrize("batch_size", [1, 4, 7])
def test_evaluation_samples_once_per_evaluation_batch(monkeypatch, batch_size):
    _, task, state = _small_state(seed=2, epochs=1, batch_size=batch_size)
    sizes = []
    real = training.sample_batch

    def spy(reg, seeds, *args, **kwargs):
        sizes.append(len(seeds))
        return real(reg, seeds, *args, **kwargs)
    monkeypatch.setattr(training, "sample_batch", spy)
    step = training.EVAL_BATCH_FACTOR * batch_size
    for split in ("val", "test"):
        sizes.clear()
        evaluate_state(state, split)
        n = len(task.labels[split])
        assert len(sizes) == -(-n // step)
        assert sizes == [min(step, n - lo) for lo in range(0, n, step)]


def test_link_evaluation_ignores_the_evaluation_batch_factor(monkeypatch):
    state = _link_state()
    train(state)
    real = training.sample_batch

    def run(factor):
        monkeypatch.setattr(training, "EVAL_BATCH_FACTOR", factor)
        seeds = []

        def spy(reg, batch_seeds, *args, **kwargs):
            seeds.append(list(batch_seeds))
            return real(reg, batch_seeds, *args, **kwargs)
        monkeypatch.setattr(training, "sample_batch", spy)
        return evaluate_state(state, "test"), seeds

    assert run(training.EVAL_BATCH_FACTOR) == run(1)


# --- fused linear node ------------------------------------------------------

def _step_gradients(monkeypatch, layers, fd_on, steps=3):
    """Raw bytes of every parameter gradient after each of the first
    `steps` backward passes of a fixed-seed training run (phase A and, with
    FD on, phase B)."""
    overrides = dict(epochs=1, batch_size=16)
    if not fd_on:
        overrides["disable_fd"] = True
    _, _, state = _small_state(seed=5, layers=layers, **overrides)
    real_backward = T.backward
    seen = []

    def spy(loss):
        real_backward(loss)
        if len(seen) < steps:
            seen.append({n: p.grad.tobytes()
                         for n, p in state.parameters().items()})

    monkeypatch.setattr(T, "backward", spy)
    train(state)
    monkeypatch.setattr(T, "backward", real_backward)
    return seen


@pytest.mark.parametrize("layers,fd_on", [(1, True), (1, False),
                                          (2, True), (2, False)])
def test_linear_node_gradients_bit_equal_to_add_of_matmul(monkeypatch,
                                                          layers, fd_on):
    fused = _step_gradients(monkeypatch, layers, fd_on)
    monkeypatch.setattr(T, "linear",
                        lambda x, W, b: T.add(T.matmul(x, W), b))
    unfused = _step_gradients(monkeypatch, layers, fd_on)
    assert len(fused) == 3 and fused == unfused
    assert any(np.frombuffer(g).any() for step in fused for g in step.values())


def test_checkpoint_parameter_of_another_shape_is_refused(tmp_path):
    db, task, state = _small_state(seed=7, epochs=1)
    ckpt = save_checkpoint(tmp_path / "checkpoint", state)
    stored = T.load_tensors(ckpt / "params.bin")
    stored["head.b"] = np.zeros(stored["head.b"].size + 2)
    T.save_tensors(ckpt / "params.bin", stored)
    with pytest.raises(CheckpointMismatch,
                       match=r"parameter head\.b shape \(3,\) != \(1,\)"):
        load_checkpoint(ckpt, db, task)


def test_evaluating_a_split_without_labels_is_undefined():
    db, task, state = _small_state(seed=7, epochs=1)
    del task.labels["val"]
    assert evaluate_state(state, "val") == {
        "name": "auc", "metric": pytest.approx(float("nan"), nan_ok=True),
        "defined": False, "note": "split 'val' has no labels"}
