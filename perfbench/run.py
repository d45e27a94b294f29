"""End-to-end benchmark of the rolegnn pipeline, bundle to trained model.

    python3 perfbench/run.py                       # all workloads, untraced
    python3 perfbench/run.py --workload twohop-x10-l1-fd --seed 3 \
        --trace 1                                  # one workload, traced
    python3 perfbench/run.py --smoke               # tiny inputs, seconds

Each workload's operations repeat for --seconds, by default the
run_seconds of BENCHMARK.json (--smoke: SMOKE_SECONDS).

Each workload runs in its own single-threaded subprocess (worker.py), one at
a time; inputs are generated from --seed with synth before any timing, and
the engine sees only the bundle on disk. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, from a traced run. A fuller record
(sample counts, machine facts, failures) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import stats
from tracing import LAYER_METRICS, RATIO_METRICS
from workloads import MIN_TEST_AUC, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
WORK = HERE / "_work"
SPEC = ROOT / "BENCHMARK.json"
SMOKE_SECONDS = 1.0

# name -> (unit, better); BENCHMARK.json lists the same metrics with bounds.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "output_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
# What the two throughput metrics measure on each kind of workload.
ALIASES = {
    "train": {"throughput_per_s": "train_seeds_per_s",
              "output_per_s": "eval_seeds_per_s"},
    "roundtrip": {"throughput_per_s": "roundtrip_rows_per_s",
                  "output_per_s": "export_rows_per_s"},
}
# Set-up samples per run: this many set-up-only processes plus the main one.
SETUP_PROBES = 4
# Everything a run starts must end well inside the 180 s a run may take.
DEADLINE_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def layer_unit(name: str) -> str:
    return "ratio" if name in RATIO_METRICS else LAYER_METRICS[name][0]


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Starts worker processes against one shared deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = worker_env()

    def worker(self, *args: str) -> None:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("benchmark deadline passed")
        # stdout of the worker goes to stderr: our stdout carries the result
        subprocess.run([sys.executable, str(WORKER), *args], env=self.env,
                       stdout=sys.stderr, check=True, timeout=remaining)

    def timed_worker(self, out: Path, *args: str) -> dict:
        """Run a worker that reports when its set-up ended, on the same
        system-wide monotonic clock, and add the set-up time to its result."""
        spawned = time.monotonic()
        self.worker(*args, "--out", str(out))
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        result["setup_s"] = result["setup_done"] - spawned
        return result


def run_workload(runner: Runner, name: str, seed: int, seconds: float,
                 trace: int, smoke: bool) -> dict:
    """Generate the inputs, sample set-up time, run the workload; returns
    the metrics and a record of how they were obtained."""
    kind = WORKLOADS[name]["kind"]
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    bundle = work / "bundle"
    common = ["--workload", name, "--seed", str(seed), "--bundle", str(bundle)]
    if smoke:
        common.append("--smoke")
    OUT.mkdir(parents=True, exist_ok=True)
    spans = OUT / f"{name}-seed{seed}-trace{trace}-spans.jsonl"
    try:
        work.mkdir(parents=True, exist_ok=True)
        runner.worker("generate", *common)
        setup = []
        if not trace:
            for k in range(1 if smoke else SETUP_PROBES):
                probe = runner.timed_worker(work / f"setup{k}.json", "setup", *common)
                setup.append(probe["setup_s"])
        main = runner.timed_worker(
            work / "run.json", "run", *common, "--seconds", repr(seconds),
            "--trace", str(trace), "--work", str(work),
            *(["--spans", str(spans)] if trace else []))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not trace and main["metrics"] is None:
        raise RuntimeError(f"no operation completed: {main['failures']}")
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "smoke": smoke, "attempted": main["attempted"],
              "failed": main["failed"], "failures": main["failures"],
              "facts": {**main["facts"], **machine_facts()}}
    if trace:
        record["metrics"] = {k: {"value": v, "unit": layer_unit(k)}
                             for k, v in sorted(main["layers"].items())}
        record["spans"] = str(spans.relative_to(ROOT))
        return record

    setup.append(main["setup_s"])
    summary = record["summary"] = {"setup_s": stats.summarize(setup)}
    values = {"setup_s": summary["setup_s"]["median"],
              "peak_rss_mb": main["peak_rss_mb"]}
    # rates are total work over total timed seconds, from n timed intervals
    for k, (value, n) in main["metrics"].items():
        summary[k] = {"n": n, "rate": value}
        values[k] = value
    summary["peak_rss_mb"] = {"n": 1, "max": main["peak_rss_mb"]}
    record["metrics"] = {k: {"value": values[k], "unit": unit}
                         for k, (unit, _) in END_TO_END.items()}
    record["aliases"] = ALIASES[kind]
    if main["test_auc"]:
        record["summary"]["test_auc"] = stats.summarize(main["test_auc"])
    return record


def machine_facts() -> dict:
    src = ROOT / "src" / "rolegnn"
    lines = 0
    for path in sorted(src.glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "git_commit": git_commit(), "src_rolegnn_lines": lines}


def git_commit() -> str | None:
    """HEAD of the repository this file sits in, or None outside one."""
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    parts = res.stdout.split()
    if res.returncode != 0 or len(parts) != 2 or Path(parts[0]).resolve() != ROOT:
        return None
    return parts[1]


def print_record(rec: dict) -> None:
    print(f"== {rec['workload']}  seed {rec['seed']}  {rec['seconds']:g} s  "
          f"trace {rec['trace']}  attempted {rec['attempted']}  "
          f"failed {rec['failed']}")
    for msg in rec["failures"]:
        print(f"   FAILED {msg}")
    summary = rec.get("summary", {})
    aliases = rec.get("aliases", {})
    for name, m in rec["metrics"].items():
        s = summary.get(name)
        how = f"{next(iter(s.keys() - {'n'}))} of {s['n']} samples" if s else ""
        if name in aliases:
            how = f"{aliases[name]}, {how}"
        print(f"   {name:36s} {m['value']:14.6g} {m['unit']:6s} {how}")
    if "test_auc" in summary:
        s = summary["test_auc"]
        print(f"   {'(test_auc)':36s} {s['median']:14.6g} {'':6s} "
              f"median of {s['n']}, check >= {MIN_TEST_AUC}")
    facts = rec["facts"]
    print("   facts: " + ", ".join(f"{k}={v}" for k, v in sorted(facts.items())))


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs: checks the plumbing in seconds")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "rolegnn" / "__init__.py").is_file():
        print(f"run.py: no rolegnn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.smoke:
        seconds = SMOKE_SECONDS
    elif args.seconds is not None:
        seconds = args.seconds
    else:
        with open(SPEC, encoding="utf-8") as fh:
            seconds = float(json.load(fh)["run_seconds"])

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runner = Runner(time.monotonic() + DEADLINE_S * len(names))
    records = []
    for name in names:
        try:
            rec = run_workload(runner, name, args.seed, seconds, args.trace,
                               args.smoke)
        except (subprocess.SubprocessError, TimeoutError, RuntimeError) as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 1
        with open(OUT / f"{name}-seed{args.seed}-trace{args.trace}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(rec, fh, indent=2)
        print_record(rec)
        records.append(rec)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records
                   for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
