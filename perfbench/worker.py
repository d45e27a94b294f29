"""One workload in its own process; started by run.py, never imported by it.

    worker.py generate --workload W --seed N --bundle DIR [--smoke]
    worker.py setup    --workload W --seed N --bundle DIR --out FILE [--smoke]
    worker.py run      --workload W --seed N --bundle DIR --out FILE
                       --seconds S --trace 0|1 --work DIR [--spans FILE] [--smoke]

`generate` writes the input bundle with synth and is never timed. `setup`
imports the engine and prepares the first operation, then reports the
monotonic time at which it was ready; `run` does the same and then repeats
the workload's operation for --seconds. run.py sets BLAS to one thread
before this interpreter starts, so numpy reads the setting at import.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

from workloads import MIN_TEST_AUC, TRAIN, WORKLOADS, size_of

PINNED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TASK_NAME = "user-positive"
# Each phase hook of an untraced run evaluates the test split repeatedly
# for at least this long (at least once; smoke runs, which check plumbing
# over many short epochs, evaluate once).
HOOK_EVAL_S = 1.0


class Ctx:
    """Arguments plus what setup produced."""

    def __init__(self, args):
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.bundle = Path(args.bundle)
        self.work = Path(args.work) if args.work else None
        self.db = self.task = self.state = None


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------

def _configs(ctx: Ctx, seed: int):
    from rolegnn.model import ModelConfig
    from rolegnn.training import TrainConfig

    spec = ctx.spec
    epochs = spec["smoke_epochs"] if ctx.args.smoke else spec["epochs"]
    fd = {} if spec["fd"] else {"beta": 0.0, "gamma": 0.0}
    # patience >= epochs: early stopping never shortens a run
    train_cfg = TrainConfig(epochs=epochs, batch_size=TRAIN["batch_size"],
                            lr=TRAIN["lr"], neighbor_samples=TRAIN["neighbor_samples"],
                            patience=epochs, seed=seed, **fd)
    model_cfg = ModelConfig(channels=TRAIN["channels"], layers=spec["layers"],
                            seed=seed)
    return model_cfg, train_cfg


def _op_seed(ctx: Ctx, i: int) -> int:
    return ctx.args.seed * 1000 + i


def train_setup(ctx: Ctx) -> None:
    from rolegnn import rdb, training

    ctx.db = rdb.ingest_bundle(ctx.bundle)
    ctx.task = rdb.load_task(ctx.bundle / TASK_NAME, ctx.db)
    model_cfg, train_cfg = _configs(ctx, _op_seed(ctx, 0))
    ctx.state = training.build_state(ctx.db, ctx.task, model_cfg, train_cfg,
                                     TRAIN["roles"])


def train_op(ctx: Ctx, i: int, tracer=None) -> tuple[dict, list[str]]:
    """Train a fresh model for the workload's epochs, evaluate on the test
    split and check the result. With a tracer the whole pipeline from
    ingest runs traced.

    Samples: training-split seeds and the phase A + phase B wall time of
    each epoch ("train_seeds", "train_s"), and test-split seeds and the
    wall time of each whole test evaluation ("eval_seeds", "eval_s")."""
    from rolegnn import rdb, training

    if tracer is not None:
        ctx.db = rdb.ingest_bundle(ctx.bundle)
        ctx.task = rdb.load_task(ctx.bundle / TASK_NAME, ctx.db)
    state = ctx.state
    ctx.state = None  # the set-up state serves the first operation only
    if state is None:
        model_cfg, train_cfg = _configs(ctx, _op_seed(ctx, i))
        state = training.build_state(ctx.db, ctx.task, model_cfg, train_cfg,
                                     TRAIN["roles"])
    n_train = len(ctx.task.labels["train"])
    n_test = len(ctx.task.labels["test"])

    samples: dict[str, list[float]] = {"train_seeds": [], "train_s": [],
                                       "eval_seeds": [], "eval_s": []}

    def timed_eval() -> dict:
        t0 = time.perf_counter()
        result = training.evaluate_state(state, "test")
        samples["eval_s"].append(time.perf_counter() - t0)
        samples["eval_seeds"].append(n_test)
        return result

    # (entered, left) per hook call: epoch_start, after_phase_a, after_phase_b
    marks: list[tuple[float, float]] = []
    phase = [None]

    window = 0.0 if ctx.args.smoke else HOOK_EVAL_S

    def hook(event: str, epoch: int, _state) -> None:
        entered = time.perf_counter()
        if tracer is not None:
            if phase[0] is not None:
                tracer.end(phase[0])
                phase[0] = None
            if event == "epoch_start":
                phase[0] = tracer.begin("training.phase_a")
            elif event == "after_phase_a":
                phase[0] = tracer.begin("training.phase_b")
        elif event != "after_phase_b":
            # Untraced runs time test evaluations here, between the phases
            # and outside their intervals: evaluation samples then spread
            # over the whole run, as the training samples do, rather than
            # bunching after training. They read the state and change nothing.
            timed_eval()
            while time.perf_counter() - entered < window:
                timed_eval()
        marks.append((entered, time.perf_counter()))

    training.train(state, phase_hook=hook)
    for start, mid, end in zip(marks[0::3], marks[1::3], marks[2::3]):
        samples["train_s"].append((mid[0] - start[1]) + (end[0] - mid[1]))
        samples["train_seeds"].append(n_train)

    problems = []
    losses = [row[k] for row in state.history for k in ("l_task", "l_emb", "l_pair")]
    if not all(math.isfinite(v) for v in losses):
        problems.append("non-finite loss in history")

    auc = timed_eval()["metric"]
    samples["test_auc"] = [auc]
    if not auc >= MIN_TEST_AUC:
        problems.append(f"test AUC {auc:.4f} < {MIN_TEST_AUC}")

    if ctx.spec["checkpoint"]:
        path = ctx.work / "checkpoint"
        training.save_checkpoint(path, state)
        loaded = training.load_checkpoint(path, ctx.db, ctx.task)
        again = training.evaluate_state(loaded, "test")["metric"]
        if again != auc:
            problems.append(f"checkpoint reload gives test AUC {again!r}, "
                            f"in memory {auc!r}")
    return samples, problems


def rate(samples: dict, work: str, seconds: str) -> tuple[float, int]:
    """All the work of a run over all its timed seconds, and the number of
    timed intervals. A ratio of sums rather than a median of ratios: the
    machine's speed drifts over tens of seconds, and the sums average that
    drift over the whole run."""
    total = math.fsum(samples[seconds])
    if not total > 0.0:
        raise ValueError(f"no time measured for {work}")
    return math.fsum(samples[work]) / total, len(samples[seconds])


def train_metrics(samples: dict) -> dict:
    """Training seeds per second of the phases, test seeds per second of
    the evaluations."""
    return {"throughput_per_s": rate(samples, "train_seeds", "train_s"),
            "output_per_s": rate(samples, "eval_seeds", "eval_s")}


# ---------------------------------------------------------------------------
# bundle round trip
# ---------------------------------------------------------------------------

EXPORTS_PER_CYCLE = 2


def roundtrip_setup(ctx: Ctx) -> None:
    from rolegnn import rdb, schema_graph  # noqa: F401  (import is set-up)


def roundtrip_op(ctx: Ctx, i: int, tracer=None) -> tuple[dict, list[str]]:
    """ingest -> fd_violations -> construct_reg(all-edge) -> invert_reg ->
    canonical equality, then export of the rebuilt database, then a check
    that the export re-ingests to the same canonical bytes.

    Samples: seconds of each cycle up to the canonical equality
    ("cycle_s") and of each export ("export_s"), with the database rows each handled
    ("cycle_rows", "export_rows"). The rebuilt database is exported
    EXPORTS_PER_CYCLE times, for more export samples per run; the check
    reads the last export."""
    from rolegnn import rdb, schema_graph

    sid = tracer.begin("bench.cycle") if tracer is not None else None
    try:
        t0 = time.perf_counter()
        db = rdb.ingest_bundle(ctx.bundle)
        violations = rdb.fd_violations(db)
        sg = schema_graph.build_schema_graph(db)
        roles = schema_graph.RoleAssignment.uniform(
            schema_graph.enumerate_edge_triples(sg), "edge")
        reg = schema_graph.construct_reg(db, sg, roles)
        rebuilt = schema_graph.invert_reg(reg)
        original = rdb.canonical_form(db)
        same = rdb.canonical_form(rebuilt) == original
        cycle_s = time.perf_counter() - t0
        out = ctx.work / "export"
        exports = []
        for _ in range(EXPORTS_PER_CYCLE):
            t0 = time.perf_counter()
            rdb.export_bundle(rebuilt, out)
            exports.append(time.perf_counter() - t0)
        reread = rdb.canonical_form(rdb.ingest_bundle(out)) == original
    finally:
        if sid is not None:
            tracer.end(sid)

    rows = sum(db.row_count(n) for n in db.table_names)
    samples = {"cycle_s": [cycle_s], "cycle_rows": [rows],
               "export_s": exports, "export_rows": [rows] * len(exports)}
    problems = []
    if violations:
        problems.append(f"{len(violations)} FD violations in a generated bundle")
    if not same:
        problems.append("canonical form differs after invert_reg")
    if not reread:
        problems.append("canonical form differs after export and re-ingest")
    return samples, problems


def roundtrip_metrics(samples: dict) -> dict:
    """Rows per second through the stages, and written by the exports."""
    return {"throughput_per_s": rate(samples, "cycle_rows", "cycle_s"),
            "output_per_s": rate(samples, "export_rows", "export_s")}


KINDS = {"train": (train_setup, train_op, train_metrics, "training.train"),
         "roundtrip": (roundtrip_setup, roundtrip_op, roundtrip_metrics, "bench.cycle")}


# ---------------------------------------------------------------------------
# one worker process
# ---------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}

    def run(self, op, ctx: Ctx, i: int, tracer=None) -> dict:
        from rolegnn import tensor
        from rolegnn.errors import EngineError

        self.attempted += 1
        samples: dict = {}
        try:
            samples, problems = op(ctx, i, tracer)
        except EngineError as exc:  # engine errors count as failed operations
            problems = [f"{type(exc).__name__}: {exc}"]
            tensor.clear_tape()
        if problems:
            self.failed += 1
            self.failures.extend(f"op {i}: {p}" for p in problems)
        _merge(self.samples, samples)
        return samples


def _merge(into: dict, samples: dict) -> None:
    for k, v in samples.items():
        into.setdefault(k, []).extend(v)


def more(t0: float, last: float, seconds: float) -> bool:
    """Whether to start another operation, given when the previous one
    started (`last`): the run ends at the operation boundary nearest to
    `seconds` after t0, so it neither stops short nor overruns by a whole
    operation."""
    now = time.perf_counter()
    return now - t0 + (now - last) / 2 < seconds


def run(ctx: Ctx, setup_done: float) -> dict:
    """One warm-up operation, then repeat the workload's operation for about
    --seconds (at least once)."""
    from tracing import Tracer, install, layer_metrics

    args = ctx.args
    _, op, metrics, root = KINDS[ctx.spec["kind"]]
    tally = Tally()
    out = {"setup_done": setup_done}
    # The first operation warms the process up: it is checked and counted
    # but not timed. A fresh process's first operation page-faults in the
    # memory that later ones reuse, and the cost of that varied between
    # processes by more than the rest of the run did.
    tally.run(op, ctx, 0)
    tally.samples.clear()
    t0 = time.perf_counter()
    if not args.trace:
        i, last = 1, t0
        while i == 1 or more(t0, last, args.seconds):
            last = time.perf_counter()
            tally.run(op, ctx, i)
            i += 1
        try:
            out["metrics"] = metrics(tally.samples)
        except (KeyError, ValueError):  # no operation got as far as timing
            out["metrics"] = None
        out["test_auc"] = tally.samples.get("test_auc", [])
    else:
        # Traced and untraced operations alternate, so drift in machine
        # speed affects both sides alike.
        tracer = Tracer()
        traced: dict[str, list[float]] = {}
        untraced: dict[str, list[float]] = {}
        i, last = 1, t0
        while i == 1 or more(t0, last, args.seconds):
            last = time.perf_counter()
            uninstall = install(tracer)
            try:
                _merge(traced, tally.run(op, ctx, i, tracer))
            finally:
                uninstall()
            _merge(untraced, tally.run(op, ctx, i + 1))
            i += 2
        out["layers"] = layers = layer_metrics(tracer, i // 2, root)
        try:
            layers["trace.overhead"] = (metrics(untraced)["throughput_per_s"][0]
                                        / metrics(traced)["throughput_per_s"][0] - 1.0)
        except (KeyError, ValueError):  # no operation got as far as timing
            layers["trace.overhead"] = 0.0
        if args.spans:
            tracer.write(args.spans)
    out.update(attempted=tally.attempted, failed=tally.failed,
               failures=tally.failures,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               facts=_facts())
    return out


def _facts() -> dict:
    import numpy
    from rolegnn import kernels

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "has_numba": bool(getattr(kernels, "HAS_NUMBA", False)),
            # read without calling into the backend switch, which may go away
            "kernel_backend": getattr(kernels, "_backend", "numpy"),
            "blas_threads": {k: os.environ.get(k) for k in PINNED_ENV}}


def generate(args) -> None:
    from rolegnn import synth

    params = size_of(args.workload, args.smoke)
    params["seed"] = args.seed
    synth.emit("twohop", params, args.bundle)


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("generate", "setup", "run"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--bundle", required=True)
    p.add_argument("--out")
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work")
    p.add_argument("--spans")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    unpinned = [k for k in PINNED_ENV if os.environ.get(k) != "1"]
    if unpinned:
        print(f"worker: {', '.join(unpinned)} must be 1 (start it through run.py)",
              file=sys.stderr)
        return 2
    if args.mode == "generate":
        generate(args)
        return 0

    ctx = Ctx(args)
    KINDS[ctx.spec["kind"]][0](ctx)
    setup_done = time.monotonic()
    result = {"setup_done": setup_done} if args.mode == "setup" else run(ctx, setup_done)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
