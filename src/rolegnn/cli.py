"""Command-line surface: validate, roundtrip, demo-gsl, synth, train, eval,
export-structure.

Every run prints exactly one JSON report to stdout (and writes it next to the
other outputs when an output directory is involved). Exit codes: 0 success,
2 usage, 3 invalid bundle, 4 incompatible checkpoint/schema/roles, 5 failed
round-trip, 6 divergence, 7 other engine error or out of memory.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path

from . import synth
from .config import DEFAULTS, default_seed
from .errors import (BundleError, CheckpointMismatch, EngineError, RoleError,
                     SchemaError, TrainingDiverged)
from .fd import subspace_size
from .model import ModelConfig
from .rdb import canonical_form, fd_violations, ingest_bundle, load_task
from .schema_graph import (build_schema_graph, construct_reg,
                           demo_add_counterexample, demo_prune_counterexample,
                           enumerate_edge_triples, enumerate_pruning_maps,
                           invert_reg)
from .training import (ROLE_MODES, TrainConfig, build_state, dataset_digest,
                       evaluate, export_structure, roles_for_mode, train,
                       transfer_structure)

EXIT_USAGE = 2
EXIT_BUNDLE = 3
EXIT_INCOMPATIBLE = 4
EXIT_ROUNDTRIP = 5
EXIT_DIVERGED = 6
EXIT_ENGINE = 7

TRAIN_FLAGS = {
    "lr": float, "channels": int, "layers": int, "dropout": float,
    "neighbor_samples": int, "beta": float, "gamma": float, "alpha": float,
    "mu": float, "tau": float, "negatives": int, "epochs": int,
    "batch_size": int, "seed": int,
}


def _emit_report(command: str, seed: int, config: dict, t0: float,
                 fields: dict, out_dir: Path | None = None) -> None:
    """Print the run report of a command that started at `t0` (Unix time)
    and, given `out_dir`, write it there as run_report.json."""
    report = {"command": command, "seed": seed, "config": config,
              "started_unix": t0, **fields, "wall_clock_s": time.time() - t0}
    text = json.dumps(report, indent=2, default=str)
    print(text)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "run_report.json", "w", encoding="utf-8") as fh:
            fh.write(text)


def _resolve_config(args: argparse.Namespace) -> dict:
    """flags > --config file > defaults. An unreadable --config file, or one
    that is not a JSON object, raises ValueError naming it."""
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read --config file {args.config}: "
                             f"{exc.strerror}") from None
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValueError(f"--config file {args.config} is not valid "
                             f"JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ValueError(f"--config file {args.config} must hold a JSON "
                             f"object")
        unknown = sorted(set(loaded) - set(DEFAULTS) - set(TRAIN_FLAGS))
        if unknown:
            raise ValueError(f"--config file {args.config} has unknown key "
                             f"{unknown[0]!r}")
        cfg.update(loaded)
    for name in TRAIN_FLAGS:
        val = getattr(args, name, None)
        if val is not None:
            cfg[name] = val
    if cfg.get("seed") is None:
        cfg["seed"] = default_seed()
    return cfg


def _edge_list(g) -> list:
    return sorted(sorted(e) for e in g[1])


def cmd_validate(args, t0: float) -> int:
    db = ingest_bundle(args.bundle)
    violations = fd_violations(db)
    _emit_report("validate", default_seed(), {}, t0, {
        "bundle": str(args.bundle),
        "dataset_digest": dataset_digest(db),
        "tables": {n: db.row_count(n) for n in db.table_names},
        "fd_violations": [{"table": v.table, "row": v.row, "column": v.column,
                           "value": v.value} for v in violations],
    })
    return 0


def cmd_roundtrip(args, t0: float) -> int:
    db = ingest_bundle(args.bundle)
    sg = build_schema_graph(db)
    triples = enumerate_edge_triples(sg)
    seed = args.seed if args.seed is not None else default_seed()
    roles, _ = roles_for_mode(triples, args.roles, seed)
    reg = construct_reg(db, sg, roles)
    rebuilt = invert_reg(reg)
    verdict = canonical_form(rebuilt) == canonical_form(db)
    _emit_report("roundtrip", seed, {"roles": args.roles}, t0, {
        "bundle": str(args.bundle),
        "dataset_digest": dataset_digest(db),
        "graph_summary": reg.summary(),
        "verdict": "PASS" if verdict else "FAIL",
    })
    return 0 if verdict else EXIT_ROUNDTRIP


def cmd_demo_gsl(args, t0: float) -> int:
    g1, g2, pruned = demo_prune_counterexample()
    a1, a2, aug = demo_add_counterexample()
    non_identity, collisions = enumerate_pruning_maps()
    print("pruning counterexample:")
    print(f"  original A edges: {_edge_list(g1)}")
    print(f"  original B edges: {_edge_list(g2)}")
    print(f"  both prune to:    {_edge_list(pruned)}  (A != B, images equal)")
    print("addition counterexample:")
    print(f"  original A edges: {_edge_list(a1)}")
    print(f"  original B edges: {_edge_list(a2)}")
    print(f"  both augment to:  {_edge_list(aug)}  (inferred edges untagged)")
    print(f"exhaustive 3-node check: {collisions}/{non_identity} "
          f"non-identity pruning maps collide")
    _emit_report("demo-gsl", default_seed(), {}, t0, {
        "prune": {"g1": _edge_list(g1), "g2": _edge_list(g2),
                  "pruned": _edge_list(pruned)},
        "add": {"g1": _edge_list(a1), "g2": _edge_list(a2),
                "augmented": _edge_list(aug)},
        "exhaustive": {"non_identity_maps": non_identity,
                       "maps_with_collision": collisions},
    })
    return 0 if collisions == non_identity else EXIT_ENGINE


def cmd_synth(args, t0: float) -> int:
    params = {}
    for kv in args.params:
        if "=" not in kv:
            raise BundleError(f"synth params must be key=value, got {kv!r}")
        k, v = kv.split("=", 1)
        try:
            params[k] = int(v)
        except ValueError:
            try:
                params[k] = float(v)
            except ValueError:
                params[k] = v
    if args.seed is not None:
        params.setdefault("seed", args.seed)
    params.setdefault("seed", default_seed())
    out = Path(args.output)
    try:
        synth.emit(args.generator, params, out)
    except ValueError as exc:  # a bad or out-of-range generator parameter
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    db = ingest_bundle(out)
    _emit_report("synth", int(params["seed"]),
                 {"generator": args.generator, "params": params}, t0, {
                     "output": str(out),
                     "dataset_digest": dataset_digest(db),
                     "tables": {n: db.row_count(n) for n in db.table_names},
                 }, out)
    return 0


def _model_and_train_cfg(cfg: dict) -> tuple[ModelConfig, TrainConfig]:
    """The typed configs of a resolved config dict, each built from its own
    fields. A value of the wrong type or out of range raises ValueError
    naming its key."""
    mcfg, tcfg = (cls(**{k: cfg[k] for k in cls.__dataclass_fields__ if k in cfg})
                  for cls in (ModelConfig, TrainConfig))
    if tcfg.fd_enabled:
        subspace_size(mcfg.channels, tcfg.subspace_dim)
    return mcfg, tcfg


def cmd_train(args, t0: float) -> int:
    try:
        cfg = _resolve_config(args)
        mcfg, tcfg = _model_and_train_cfg(cfg)
    except ValueError as exc:  # a bad flag, config key or --config file
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    db = ingest_bundle(args.bundle)
    task = load_task(args.task, db)
    if not len(task.labels.get("train", ())):
        raise SchemaError("task_train.csv is missing or holds no rows: "
                          "nothing to train on")
    out_dir = Path(args.output) if args.output else None
    if args.transfer_from:
        summary = transfer_structure(args.transfer_from, db, task, mcfg, tcfg,
                                     out_dir=out_dir)
    else:
        state = build_state(db, task, mcfg, tcfg, roles_mode=args.roles)
        summary = train(state, out_dir=out_dir)
    _emit_report("train", int(cfg["seed"]), cfg, t0, {
        "bundle": str(args.bundle),
        "task": task.name,
        "roles": args.roles if not args.transfer_from else "transfer",
        "dataset_digest": dataset_digest(db),
        "best_val_metric": summary["best_val_metric"],
        "metric_name": summary["metric_name"],
        "epochs_run": summary["epochs_run"],
        "structure_path": summary.get("structure_path"),
        "checkpoint": summary.get("checkpoint"),
    }, out_dir)
    return 0


def cmd_eval(args, t0: float) -> int:
    db = ingest_bundle(args.bundle)
    task = load_task(args.task, db)
    metrics = evaluate(args.checkpoint, db, task, args.split)
    _emit_report("eval", default_seed(), {"split": args.split}, t0, {
        "checkpoint": str(args.checkpoint),
        "bundle": str(args.bundle),
        "task": task.name,
        "dataset_digest": dataset_digest(db),
        "metrics": metrics,
    })
    return 0


def cmd_export_structure(args, t0: float) -> int:
    structure = export_structure(args.checkpoint, args.output)
    _emit_report("export-structure", default_seed(), {}, t0, {
        "checkpoint": str(args.checkpoint),
        "output": str(args.output),
        "structure": structure,
    })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rolegnn",
        description="Relational deep learning with learnable table roles")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="ingest a bundle and report FD checks")
    p.add_argument("bundle")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("roundtrip",
                       help="entity-graph construction + inversion equality")
    p.add_argument("bundle")
    p.add_argument("--roles", default="learn", choices=ROLE_MODES)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_roundtrip)

    p = sub.add_parser("demo-gsl",
                       help="pruning/addition invertibility counterexamples")
    p.set_defaults(fn=cmd_demo_gsl)

    p = sub.add_parser("synth", help="emit a synthetic bundle")
    p.add_argument("generator")
    p.add_argument("params", nargs="*", help="key=value generator parameters")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="alternating training run")
    p.add_argument("bundle")
    p.add_argument("task", help="task directory (task.json + task_*.csv)")
    for name, typ in TRAIN_FLAGS.items():
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=typ,
                       default=None)
    p.add_argument("--roles", default="learn", choices=ROLE_MODES)
    p.add_argument("--transfer-from", dest="transfer_from", default=None)
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("checkpoint")
    p.add_argument("bundle")
    p.add_argument("task")
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("export-structure",
                       help="write the learned-structure report")
    p.add_argument("checkpoint")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_export_structure)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(format="%(name)s: %(message)s")  # stderr
    logging.getLogger("rolegnn").setLevel(
        logging.WARNING if getattr(args, "quiet", False) else logging.INFO)
    try:
        default_seed()
        if (getattr(args, "seed", None) or 0) < 0:
            raise ValueError(f"seed must be >= 0, got {args.seed}")
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    t0 = time.time()  # the command's start, its report's started_unix
    try:
        return args.fn(args, t0)
    except BundleError as exc:
        print(f"bundle error: {exc}", file=sys.stderr)
        return EXIT_BUNDLE
    except (CheckpointMismatch, RoleError) as exc:
        print(f"incompatible inputs: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except TrainingDiverged as exc:
        print(f"diverged: {exc} {exc.diagnostics}", file=sys.stderr)
        return EXIT_DIVERGED
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except MemoryError:
        print(f"error: out of memory running {args.command}", file=sys.stderr)
        return EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())
