import dataclasses
import json
import re
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rolegnn import cli
from rolegnn.cli import main
from rolegnn.config import DEFAULTS, SEED_ENV_VAR
from rolegnn.errors import CheckpointMismatch
from rolegnn.model import ModelConfig
from rolegnn.rdb import ingest_bundle, load_task
from rolegnn.training import (ROLE_MODES, TrainConfig, build_state,
                              load_checkpoint)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _last_json(stdout: str) -> dict:
    start = stdout.index("{")
    return json.loads(stdout[start:])


@pytest.fixture(scope="module")
def twohop_bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundle") / "twohop"
    code = main(["synth", "twohop", "n_users=60", "n_products=20",
                 "n_reviews=200", "seed=3", "-o", str(path)])
    assert code == 0
    return path


# each command's arguments; none is read before the seeds are checked
_COMMANDS = {
    "validate": ["validate", "b"],
    "roundtrip": ["roundtrip", "b", "--roles", "random"],
    "demo-gsl": ["demo-gsl"],
    "synth": ["synth", "twohop", "-o", "out"],
    "train": ["train", "b", "t"],
    "eval": ["eval", "c", "b", "t"],
    "export-structure": ["export-structure", "c", "-o", "s.json"],
}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@pytest.mark.parametrize("raw", ["abc", "-1", "2.5", ""])
def test_bad_seed_env_var_exits_2(capsys, monkeypatch, tmp_path, command, raw):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(SEED_ENV_VAR, raw)
    code, out, err = _run(capsys, *_COMMANDS[command])
    assert code == 2
    assert f"usage error: {SEED_ENV_VAR} must be" in err
    assert "Traceback" not in err and out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["roundtrip", "synth", "train"])
def test_negative_seed_flag_exits_2(capsys, monkeypatch, tmp_path, command):
    monkeypatch.chdir(tmp_path)
    code, out, err = _run(capsys, *_COMMANDS[command], "--seed", "-1")
    assert code == 2
    assert "seed must be >= 0, got -1" in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("command", ["validate", "demo-gsl"])
def test_started_unix_is_the_start_time(capsys, monkeypatch, twohop_bundle,
                                        command):
    ticks = []

    def clock():  # a fake clock one second further at each reading
        ticks.append(1000.0 + len(ticks))
        return ticks[-1]

    argv = [command] + ([str(twohop_bundle)] if command == "validate" else [])
    monkeypatch.setattr(cli.time, "time", clock)
    code, out, _ = _run(capsys, *argv)
    monkeypatch.undo()
    assert code == 0
    report = _last_json(out)
    assert report["started_unix"] == ticks[0]
    assert report["wall_clock_s"] == ticks[-1] - ticks[0] > 0


def test_each_setting_has_one_home(capsys, monkeypatch, tmp_path):
    """Every shipped default is a field of exactly one config, with that
    default, and `train --config` takes exactly those keys and the seed."""
    fields = {cls: {f.name: f.default for f in dataclasses.fields(cls)}
              for cls in (ModelConfig, TrainConfig)}
    for key, default in DEFAULTS.items():
        homes = [cls for cls, names in fields.items() if key in names]
        assert len(homes) == 1, (key, homes)
        assert fields[homes[0]][key] == default, key
    monkeypatch.chdir(tmp_path)  # no bundle "b": an accepted config exits 3
    accepted = set()
    for key in set(DEFAULTS) | {"seed"} | set().union(*fields.values()):
        value = DEFAULTS.get(key, fields[TrainConfig].get(key, "relu"))
        Path("cfg.json").write_text(json.dumps({key: value}))
        code, _, err = _run(capsys, "train", "b", "t", "--config", "cfg.json")
        assert code in (2, 3) and "Traceback" not in err
        if code == 3:
            accepted.add(key)
        else:
            assert f"unknown key {key!r}" in err
    assert accepted == set(DEFAULTS) | {"seed"}


def _damage_schema(bundle, case: str) -> str:
    """Damage a copied bundle's schema.json; returns the key or value the
    error must name besides the file."""
    path = bundle / "schema.json"
    if case == "invalid-json":
        path.write_text('{"tables": [')
        return "not valid JSON"
    if case == "not-object":
        path.write_text("[]")
        return "'tables'"
    schema = json.loads(path.read_text())
    product = schema["tables"][1]
    named = {"no-tables": "'tables'", "table-name": "'name'",
             "table-columns": "'columns'", "table-primary-key": "'primary_key'",
             "column-name": "'name'", "column-kind": "'kind'",
             "column-kind-text": "'text'", "fk-references": "'references'"}[case]
    if case == "no-tables":
        schema = {"table": schema["tables"]}
    elif case.startswith("table-"):
        del product[named.strip("'")]
    elif case == "column-kind-text":
        product["columns"][1]["kind"] = "text"
    elif case.startswith("column-"):
        del product["columns"][1][named.strip("'")]
    else:
        del schema["tables"][2]["foreign_keys"][0]["references"]
    path.write_text(json.dumps(schema))
    return named


@pytest.mark.parametrize("value", ["yes", "false", 1])
def test_non_boolean_nullable_exits_3(capsys, twohop_bundle, tmp_path, value):
    """`nullable` is a JSON boolean: text and numbers are refused, naming
    the table and column, rather than read as true."""
    bundle = tmp_path / "bundle"
    shutil.copytree(twohop_bundle, bundle)
    schema = json.loads((bundle / "schema.json").read_text())
    column = schema["tables"][1]["columns"][1]
    column["nullable"] = value
    (bundle / "schema.json").write_text(json.dumps(schema))
    code, _, err = _run(capsys, "validate", str(bundle))
    assert code == 3
    assert "nullable must be true or false" in err
    assert f"table={schema['tables'][1]['name']}" in err
    assert f"column={column['name']}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", [
    "invalid-json", "not-object", "no-tables", "table-name", "table-columns",
    "table-primary-key", "column-name", "column-kind", "column-kind-text",
    "fk-references"])
def test_malformed_schema_exits_3(capsys, twohop_bundle, tmp_path, case):
    bundle = tmp_path / "bundle"
    shutil.copytree(twohop_bundle, bundle)
    named = _damage_schema(bundle, case)
    code, out, err = _run(capsys, "validate", str(bundle))
    assert code == 3
    assert "schema.json" in err and named in err
    if case.startswith("column-") or case.startswith("fk-"):
        assert "table=" in err
    assert "Traceback" not in err and out == ""


def test_synth_and_validate(capsys, twohop_bundle):
    code, out, _ = _run(capsys, "validate", str(twohop_bundle))
    assert code == 0
    report = _last_json(out)
    assert report["tables"] == {"user": 60, "product": 20, "review": 200}
    assert report["fd_violations"] == []
    assert (twohop_bundle / "run_report.json").exists()


@pytest.mark.parametrize("argv,message", [
    (["twohop", "n_users=5"], "sizes must be >= 10"),
    (["twohop", "n_reviews=many"], "n_reviews must be an integer, got 'many'"),
    (["nosuch"], "unknown generator 'nosuch'"),
    (["twohop", "n_users=20.7"], "n_users must be an integer, got 20.7"),
    (["twohop", "signal_strength=NaN"], "signal_strength must be a finite"),
    (["completion_chain", "gate_mode=bogus"],
     "gate_mode must be one of ['one', 'random', 'zero'], got 'bogus'"),
    (["twohop", "foo"], "generator 'twohop' has no parameter 'foo'"),
    (["twohop", "n_users"], "n_users must be an integer, got ''"),
    (["twohop", "seed=-1"], "seed must be >= 0, got -1"),
    (["completion_chain", "n_mid=-5"], "n_mid must be >= 0, got -5"),
    (["subspace", "sigma=-1"], "sigma must be >= 0, got -1.0"),
    (["twohop", "n_products=3"], "sizes must be >= 10, got n_products=3"),
])
def test_synth_bad_parameters_exit_2(capsys, tmp_path, argv, message):
    code, out, err = _run(capsys, "synth", *argv, "-o", str(tmp_path / "out"))
    assert code == 2 and out == ""
    assert message in err
    assert "Traceback" not in err


def test_synth_reports_the_parameters_it_used(capsys, tmp_path):
    """Parameter text is read as JSON: a whole float is an integer, and the
    report echoes the values the generator ran with."""
    out_dir = tmp_path / "out"
    code, out, _ = _run(capsys, "synth", "twohop", "n_users=20.0",
                        "n_products=10", "n_reviews=8e1", "-o", str(out_dir))
    assert code == 0
    report = json.loads(out)
    assert report["config"]["params"] == {
        "n_users": 20, "n_products": 10, "n_reviews": 80,
        "signal_strength": 1.0, "seed": 0}
    assert report["tables"] == {"user": 20, "product": 10, "review": 80}


@pytest.mark.parametrize("argv,seed", [
    (["--seed", "4"], 4),
    (["seed=6", "--seed", "4"], 6),  # a seed parameter wins
])
def test_synth_seed_flag(capsys, tmp_path, argv, seed):
    small = ["n_users=20", "n_products=10", "n_reviews=60"]
    digests = []
    for name, extra in (("flag", argv), ("param", [f"seed={seed}"])):
        code, out, _ = _run(capsys, "synth", "twohop", *small, *extra,
                            "-o", str(tmp_path / name))
        assert code == 0
        report = json.loads(out)
        assert report["seed"] == report["config"]["params"]["seed"] == seed
        digests.append(report["dataset_digest"])
    assert digests[0] == digests[1]


@pytest.mark.parametrize("argv,unknown", [
    (["twohop", "n_user=50", "n_products=20", "n_reviews=3000"], "n_user"),
    (["future_leak", "n=40", "siz=3"], "siz"),
    (["random", "n_rows=4"], "n_rows"),
])
def test_synth_refuses_unknown_parameter(capsys, tmp_path, argv, unknown):
    """A misspelt generator parameter is named and refused, not ignored in
    favour of its default."""
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, "synth", *argv, "seed=1", "-o", str(out_dir))
    assert code == 2 and out == ""
    assert f"no parameter {unknown!r}" in err
    assert not out_dir.exists()


def test_roundtrip_pass_all_role_flags(capsys, twohop_bundle):
    for roles in ("learn", "all-node", "all-edge", "random"):
        code, out, _ = _run(capsys, "roundtrip", str(twohop_bundle),
                            "--roles", roles, "--seed", "5")
        assert code == 0
        assert _last_json(out)["verdict"] == "PASS"


@pytest.mark.parametrize("mode", [m for m in ROLE_MODES if m != "transfer"])
def test_roundtrip_checks_the_graph_train_builds(capsys, twohop_bundle,
                                                 monkeypatch, mode):
    seen = []
    real = cli.construct_reg

    def spy(db, sg, roles, **kwargs):
        seen.append(dict(roles.roles))
        return real(db, sg, roles, **kwargs)

    monkeypatch.setattr(cli, "construct_reg", spy)
    code, _, _ = _run(capsys, "roundtrip", str(twohop_bundle),
                      "--roles", mode, "--seed", "0")
    assert code == 0
    db = ingest_bundle(twohop_bundle)
    task = load_task(twohop_bundle / "user-positive", db)
    state = build_state(db, task, ModelConfig(channels=8, layers=1),
                        TrainConfig(seed=0), roles_mode=mode)
    assert seen == [state.reg.roles.roles]


def test_transfer_roles_without_source_exit_4(capsys, twohop_bundle):
    code, _, err = _run(capsys, "roundtrip", str(twohop_bundle),
                        "--roles", "transfer")
    assert code == 4
    assert "transfer" in err


def test_demo_gsl(capsys):
    code, out, _ = _run(capsys, "demo-gsl")
    assert code == 0
    report = json.loads(out)
    assert report["prune"]["g1"] != report["prune"]["g2"]
    assert report["add"]["g1"] != report["add"]["g2"]
    ex = report["exhaustive"]
    assert ex["maps_with_collision"] == ex["non_identity_maps"]


def test_train_eval_export_structure(capsys, twohop_bundle, tmp_path):
    task_dir = twohop_bundle / "user-positive"
    out_dir = tmp_path / "run_learn"
    code, out, _ = _run(capsys, "train", str(twohop_bundle), str(task_dir),
                        "--epochs", "2", "--channels", "8", "--layers", "1",
                        "--batch-size", "32", "--neighbor-samples", "16",
                        "--seed", "1", "--roles", "learn", "-o", str(out_dir))
    assert code == 0
    report = _last_json(out)
    assert report["metric_name"] == "auc"
    assert (out_dir / "checkpoint" / "params.bin").exists()
    assert (out_dir / "metrics.csv").exists()
    assert (out_dir / "run_report.json").exists()

    out_dir2 = tmp_path / "run_node"
    code, out, _ = _run(capsys, "train", str(twohop_bundle), str(task_dir),
                        "--epochs", "2", "--channels", "8", "--layers", "1",
                        "--batch-size", "32", "--neighbor-samples", "16",
                        "--seed", "1", "--roles", "all-node", "-o", str(out_dir2))
    assert code == 0
    r1 = json.loads((out_dir / "run_report.json").read_text())
    r2 = json.loads((out_dir2 / "run_report.json").read_text())
    assert isinstance(r1["best_val_metric"], float)
    assert isinstance(r2["best_val_metric"], float)

    code, out, _ = _run(capsys, "eval", str(out_dir / "checkpoint"),
                        str(twohop_bundle), str(task_dir), "--split", "test")
    assert code == 0
    assert _last_json(out)["metrics"]["name"] == "auc"

    sj = tmp_path / "structure.json"
    code, out, _ = _run(capsys, "export-structure", str(out_dir / "checkpoint"),
                        "-o", str(sj))
    assert code == 0
    parsed = json.loads(sj.read_text())
    assert parsed["triples"]
    roundtripped = json.loads(json.dumps(parsed))
    assert roundtripped == parsed


def test_train_ablation_role_flags(capsys, twohop_bundle, tmp_path):
    task_dir = twohop_bundle / "user-positive"
    for roles in ("all-edge", "random"):
        code, out, _ = _run(capsys, "train", str(twohop_bundle), str(task_dir),
                            "--epochs", "1", "--channels", "8", "--layers", "1",
                            "--batch-size", "32", "--neighbor-samples", "16",
                            "--seed", "6", "--roles", roles,
                            "-o", str(tmp_path / roles))
        assert code == 0
        assert _last_json(out)["roles"] == roles


def test_train_transfer_flag(capsys, twohop_bundle, tmp_path):
    task_dir = twohop_bundle / "user-positive"
    src = tmp_path / "src"
    _run(capsys, "train", str(twohop_bundle), str(task_dir), "--epochs", "1",
         "--channels", "8", "--layers", "1", "--batch-size", "32",
         "--neighbor-samples", "16", "--seed", "2", "-o", str(src))
    code, out, _ = _run(capsys, "train", str(twohop_bundle), str(task_dir),
                        "--epochs", "1", "--channels", "8", "--layers", "1",
                        "--batch-size", "32", "--neighbor-samples", "16",
                        "--seed", "3", "--transfer-from",
                        str(src / "checkpoint"), "-o", str(tmp_path / "dst"))
    assert code == 0
    assert _last_json(out)["roles"] == "transfer"


def test_invalid_bundle_exit_code(capsys, tmp_path):
    code, _, err = _run(capsys, "validate", str(tmp_path))
    assert code == 3
    assert "schema.json" in err


def _refused_quality_cell(capsys, twohop_bundle, tmp_path, cell) -> list[str]:
    """Each command's stderr after `validate` and `train` exited 3 on a
    bundle whose product.csv holds `cell` at row 2, column "quality"."""
    bundle = tmp_path / "bundle"
    shutil.copytree(twohop_bundle, bundle)
    lines = (bundle / "product.csv").read_text().splitlines()
    fields = lines[3].split(",")
    fields[1] = cell  # row 2, column "quality"
    lines[3] = ",".join(fields)
    (bundle / "product.csv").write_text("\n".join(lines) + "\n")
    errs = []
    for argv in (["validate", str(bundle)],
                 ["train", str(bundle), str(bundle / "user-positive"),
                  "--epochs", "1", "--channels", "8", "--layers", "1"]):
        code, _, err = _run(capsys, *argv)
        assert code == 3
        assert "table=product, row=2, column=quality" in err
        assert "Traceback" not in err
        errs.append(err)
    return errs


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_real_cell_exit_code(capsys, twohop_bundle, tmp_path, cell):
    _refused_quality_cell(capsys, twohop_bundle, tmp_path, cell)


@pytest.mark.parametrize("cell", ["1e308", "1e151", "-5e151"])
def test_real_cell_past_the_bound_exits_3(capsys, twohop_bundle, tmp_path, cell):
    """A finite real cell outside [-1e150, 1e150] is refused at the input:
    once, 1e308 overflowed the encoder's std, and 1e151 trained and saved
    a checkpoint that `eval` then refused."""
    for err in _refused_quality_cell(capsys, twohop_bundle, tmp_path, cell):
        assert "real cell outside [-1e150, 1e150]" in err


def _set_task_cell(task_dir, fname, row, column, text):
    lines = (task_dir / fname).read_text().splitlines()
    col = lines[0].split(",").index(column)
    fields = lines[row + 1].split(",")
    fields[col] = text
    lines[row + 1] = ",".join(fields)
    (task_dir / fname).write_text("\n".join(lines) + "\n")


def _drop_task_key(task_dir, key):
    meta = json.loads((task_dir / "task.json").read_text())
    del meta[key]
    (task_dir / "task.json").write_text(json.dumps(meta))


@pytest.mark.parametrize("damage,where", [
    (lambda d: _set_task_cell(d, "task_train.csv", 4, "entity_id", "4.5"),
     "task_train.csv: unparseable cell '4.5' (row=4, column=entity_id)"),
    (lambda d: _set_task_cell(d, "task_val.csv", 1, "timestamp", "soon"),
     "task_val.csv: unparseable cell 'soon' (row=1, column=timestamp)"),
    (lambda d: _set_task_cell(d, "task_test.csv", 2, "timestamp", "nan"),
     "task_test.csv: non-finite cell (row=2, column=timestamp)"),
    (lambda d: _set_task_cell(d, "task_test.csv", 0, "label", "inf"),
     "task_test.csv: non-finite cell (row=0, column=label)"),
    (lambda d: _set_task_cell(d, "task_train.csv", 2, "entity_id", "9" * 20),
     "task_train.csv: id out of the int64 range (row=2, column=entity_id)"),
    (lambda d: _set_task_cell(d, "task_val.csv", 3, "entity_id", "99999"),
     "task_val.csv: label entity 99999 not in user (row=3, column=entity_id)"),
    (lambda d: _set_task_cell(d, "task_train.csv", 5, "label", "0.5"),
     "task_train.csv: classification labels must be 0/1 (row=5, column=label)"),
    (lambda d: (d / "task.json").write_text("{"), "task.json is not valid JSON"),
    (lambda d: _drop_task_key(d, "split"), "task.json lacks required key 'split'"),
], ids=["int-entity", "text-timestamp", "nan-timestamp", "inf-label",
        "huge-entity", "dangling-entity", "non-binary-label", "invalid-json", "missing-key"])
def test_damaged_task_exit_code(capsys, twohop_bundle, tmp_path, damage, where):
    bundle = tmp_path / "bundle"
    shutil.copytree(twohop_bundle, bundle)
    damage(bundle / "user-positive")
    code, _, err = _run(capsys, "train", str(bundle), str(bundle / "user-positive"),
                        "--epochs", "1", "--channels", "8", "--layers", "1")
    assert code == 3
    assert where in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["1e300", "-1e300", "9.3e18"])
def test_task_timestamp_out_of_int64_exits_3(capsys, twohop_bundle, tmp_path,
                                             text):
    """A finite task timestamp past the int64 range is refused at the input,
    as table datetime cells are; it once overflowed in the loss and exited 6."""
    bundle = tmp_path / "bundle"
    shutil.copytree(twohop_bundle, bundle)
    _set_task_cell(bundle / "user-positive", "task_train.csv", 3, "timestamp",
                   text)
    code, out, err = _run(capsys, "train", str(bundle),
                          str(bundle / "user-positive"), "--epochs", "1",
                          "--channels", "8", "--layers", "1")
    assert code == 3
    assert ("task_train.csv: timestamp out of the int64 range "
            "(row=3, column=timestamp)") in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("text", ["1e308", "-1e151"])
def test_huge_regression_label_exits_3(capsys, twohop_bundle, tmp_path, text):
    """A regression label whose square could overflow is refused at the
    input; 1e308 once overflowed in the loss and exited 6."""
    bundle = tmp_path / "bundle"
    shutil.copytree(twohop_bundle, bundle)
    task_dir = bundle / "user-positive"
    meta = json.loads((task_dir / "task.json").read_text())
    (task_dir / "task.json").write_text(json.dumps({**meta,
                                                    "task_type": "regression"}))
    _set_task_cell(task_dir, "task_train.csv", 2, "label", text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, "train", str(bundle), str(task_dir),
                              "--epochs", "1", "--channels", "8",
                              "--layers", "1")
    assert code == 3
    assert ("task_train.csv: regression label outside [-1e150, 1e150] "
            "(row=2, column=label)") in err
    assert "Traceback" not in err and out == ""
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("case", ["header-only", "absent"])
def test_empty_train_split_exits_3(capsys, twohop_bundle, trained_checkpoint,
                                   tmp_path, case):
    """Training on no rows is refused before anything is built or written;
    evaluating on such a task still works."""
    bundle = tmp_path / "bundle"
    shutil.copytree(twohop_bundle, bundle)
    train_csv = bundle / "user-positive" / "task_train.csv"
    if case == "absent":
        train_csv.unlink()
    else:
        train_csv.write_text(train_csv.read_text().splitlines()[0] + "\n")
    run = tmp_path / "run"
    code, out, err = _run(capsys, "train", str(bundle),
                          str(bundle / "user-positive"), "--epochs", "1",
                          "--channels", "8", "--layers", "1", "-o", str(run))
    assert code == 3
    assert "task_train.csv is missing or holds no rows" in err
    assert "Traceback" not in err and out == "" and not run.exists()
    code, out, err = _run(capsys, "eval", str(trained_checkpoint), str(bundle),
                          str(bundle / "user-positive"))
    assert code == 0, err
    assert _last_json(out)["metrics"]


def test_incompatible_checkpoint_exit_code(capsys, twohop_bundle, tmp_path):
    chain = tmp_path / "chain"
    main(["synth", "completion_chain", "n_src=80", "n_mid=40", "n_sink=20",
          "seed=0", "-o", str(chain)])
    run = tmp_path / "run"
    main(["train", str(chain), str(chain / "mediated-target"), "--epochs", "1",
          "--channels", "8", "--layers", "1", "--batch-size", "16",
          "--neighbor-samples", "8", "--seed", "0", "-o", str(run)])
    code, _, err = _run(capsys, "eval", str(run / "checkpoint"),
                        str(twohop_bundle),
                        str(twohop_bundle / "user-positive"))
    assert code == 4
    assert "schema" in err


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory, twohop_bundle):
    run = tmp_path_factory.mktemp("run")
    code = main(["train", str(twohop_bundle),
                 str(twohop_bundle / "user-positive"), "--epochs", "1", "--channels", "8", "--layers", "1",
                 "--batch-size", "32", "--neighbor-samples", "16",
                 "--seed", "0", "-o", str(run)])
    assert code == 0
    return run / "checkpoint"


@pytest.fixture(scope="module")
def edge_checkpoint(tmp_path_factory, twohop_bundle):
    run = tmp_path_factory.mktemp("edge-run")
    code = main(["train", str(twohop_bundle),
                 str(twohop_bundle / "user-positive"), "--epochs", "1",
                 "--channels", "8", "--layers", "1", "--batch-size", "32",
                 "--neighbor-samples", "16", "--seed", "0", "--roles",
                 "all-edge", "-o", str(run)])
    assert code == 0
    return run / "checkpoint"


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_stdout_is_one_json_document(capsys, tmp_path, twohop_bundle,
                                     trained_checkpoint, command):
    """Every command prints its report to stdout and nothing else."""
    bundle, ckpt = str(twohop_bundle), str(trained_checkpoint)
    task = str(twohop_bundle / "user-positive")
    argv = {
        "validate": [bundle],
        "roundtrip": [bundle, "--roles", "random"],
        "demo-gsl": [],
        "synth": ["twohop", "n_users=30", "n_products=10", "n_reviews=80",
                  "-o", str(tmp_path / "out")],
        "train": [bundle, task, "--epochs", "1", "--channels", "8",
                  "--layers", "1", "--batch-size", "32",
                  "--neighbor-samples", "16", "-o", str(tmp_path / "run")],
        "eval": [ckpt, bundle, task],
        "export-structure": [ckpt, "-o", str(tmp_path / "structure.json")],
    }[command]
    code, out, _ = _run(capsys, command, *argv)
    assert code == 0
    assert json.loads(out)["command"] == command


def _cut_params(data: bytes, case: str) -> bytes:
    """A params.bin damaged at one place: 8-byte magic, 8-byte header
    length, JSON header, then per tensor an 8-byte count and its payload."""
    hlen = int.from_bytes(data[8:16], "little")
    first_count = 16 + hlen
    if case == "empty":
        return b""
    if case == "trailing-bytes":
        return data + bytes(9)
    if case == "mid-magic":
        return data[:4]
    if case == "mid-header":
        return data[:16 + hlen // 2]
    if case == "mid-payload":
        nbytes = int.from_bytes(data[first_count:first_count + 8], "little")
        return data[:first_count + 8 + nbytes // 2]
    flipped = bytearray(data)  # "flipped-nbytes": one bit of the first count
    flipped[first_count] ^= 0x08
    return bytes(flipped)


@pytest.mark.parametrize("case", ["missing", "empty", "mid-magic",
                                  "mid-header", "mid-payload", "flipped-nbytes",
                                  "trailing-bytes"])
def test_damaged_checkpoint_exit_code(capsys, twohop_bundle, trained_checkpoint,
                                      tmp_path, case):
    ckpt = tmp_path / "checkpoint"
    shutil.copytree(trained_checkpoint, ckpt)
    params = ckpt / "params.bin"
    if case == "missing":
        params.unlink()
    else:
        params.write_bytes(_cut_params(params.read_bytes(), case))

    db = ingest_bundle(twohop_bundle)
    task = load_task(twohop_bundle / "user-positive", db)
    with pytest.raises(CheckpointMismatch, match="params.bin"):
        load_checkpoint(ckpt, db, task)

    code, _, err = _run(capsys, "eval", str(ckpt), str(twohop_bundle),
                        str(twohop_bundle / "user-positive"))
    assert code == 4
    assert "params.bin" in err
    assert "Traceback" not in err


# case -> (meta.json section, key, damaged value); the key is what the
# error must name
_CONFIG_DAMAGE = {
    "fractional-channels": ("model_config", "channels", 8.5),
    "fractional-layers": ("model_config", "layers", 1.5),
    "fractional-batch-size": ("train_config", "batch_size", 2.5),
    "subspace-dim-too-large": ("train_config", "subspace_dim", 999),
    "negative-model-seed": ("model_config", "seed", -1),
    "negative-train-seed": ("train_config", "seed", -1),
    "negative-neighbor-samples": ("train_config", "neighbor_samples", -1),
    "mu-out-of-range": ("model_config", "mu", 5),
    "nan-tau": ("train_config", "tau", float("nan")),
    "infinite-beta": ("train_config", "beta", float("inf")),
    "nan-dropout": ("model_config", "dropout", float("nan")),
    "huge-channels": ("model_config", "channels", 10 ** 18),
    "huge-layers": ("model_config", "layers", 10 ** 18),
    "huge-negatives": ("train_config", "negatives", 10 ** 18),
}

# case -> damaged gate value; each gate must be a number in [0, 1]
_GATE_DAMAGE = {
    "gate-text": "0.5",
    "gate-infinite": float("inf"),
    "gate-nan": float("nan"),
    "gate-negative": -0.25,
    "gate-above-one": 1.5,
}

# case -> damaged role; each must be "node", "edge", "learn" or a gate in [0, 1]
_ROLE_DAMAGE = {
    "role-hyperedge": "hyperedge",
    "role-infinite": float("inf"),
}

# case -> (key path under encoder_stats, damaged value); each once made
# evaluation give a wrong metric with exit 0
_STATS_DAMAGE = {
    "zero-time-scale": (("time_scale",), 0),
    "negative-time-scale": (("time_scale",), -1),
    "infinite-time-scale": (("time_scale",), float("inf")),
    "zero-std": (("tables", "user", "columns", "u_noise_a", "std"), 0),
    "infinite-mean": (("tables", "user", "columns", "u_noise_a", "mean"),
                      float("-inf")),
    "nan-mean": (("tables", "user", "columns", "u_noise_a", "mean"),
                 float("nan")),
}


def _damage_meta(ckpt, case: str) -> str:
    """Damage meta.json or gates.json of a copied checkpoint; returns the
    file or key the error message must name."""
    meta = json.loads((ckpt / "meta.json").read_text())
    if case == "meta-invalid-json":
        (ckpt / "meta.json").write_text("{")
        return "meta.json"
    if case == "gates-invalid-json":
        (ckpt / "gates.json").write_text("[1")
        return "gates.json"
    if case == "meta-missing-key":
        del meta["schema_digest"]
        named = "schema_digest"
    elif case == "task-missing-name":
        del meta["task"]["name"]
        named = "task.name"
    elif case == "encoder-stats-missing-table":
        del meta["encoder_stats"]["tables"]["user"]
        named = "encoder_stats.tables.user"
    elif case == "encoder-stats-text-mean":
        meta["encoder_stats"]["tables"]["user"]["columns"]["u_noise_a"]["mean"] = "x"
        named = "encoder_stats.tables.user.columns.u_noise_a.mean"
    elif case == "roles-not-object":
        meta["roles"] = True
        named = "roles"
    elif case in ("gate-dropped", "gate-bogus", "edge-gate-off") \
            or case in _GATE_DAMAGE:
        gates = json.loads((ckpt / "gates.json").read_text())
        named = sorted(gates["gates"])[0]
        if case == "gate-dropped":
            del gates["gates"][named]
        elif case == "gate-bogus":  # a gate for a triple the schema lacks
            named = "bogus"
            gates["gates"][named] = 0.5
        elif case == "edge-gate-off":  # an all-edge run's gates are 1.0
            gates["gates"][named] = 0.1
        else:
            gates["gates"][named] = _GATE_DAMAGE[case]
        (ckpt / "gates.json").write_text(json.dumps(gates))
        return named
    elif case in _ROLE_DAMAGE:
        named = sorted(meta["roles"])[0]
        meta["roles"][named] = _ROLE_DAMAGE[case]
    elif case in _CONFIG_DAMAGE:
        section, named, value = _CONFIG_DAMAGE[case]
        meta[section][named] = value
    elif case in _STATS_DAMAGE:
        path, value = _STATS_DAMAGE[case]
        node = meta["encoder_stats"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        named = "encoder_stats." + ".".join(path)
    elif case == "pre-path-cap-train-config":  # as written before path_cap
        del meta["train_config"]["path_cap"]
        meta["train_config"].update(alpha=0.9, mu=0.9)
        named = "'alpha'"
    elif case == "unknown-model-config-key":  # a field this version dropped
        meta["model_config"]["aggregation"] = "mean"
        named = "aggregation"
    else:  # "unknown-train-config-key"
        meta["train_config"]["no_such_key"] = 1
        named = "no_such_key"
    (ckpt / "meta.json").write_text(json.dumps(meta))
    return named


@pytest.mark.parametrize("command,case", [
    ("eval", "meta-invalid-json"),
    ("eval", "gates-invalid-json"),
    ("eval", "meta-missing-key"),
    ("eval", "unknown-model-config-key"),
    ("eval", "unknown-train-config-key"),
    ("eval", "encoder-stats-missing-table"),
    ("eval", "encoder-stats-text-mean"),
    ("eval", "roles-not-object"),
    ("eval", "gate-dropped"),
    *(("eval", case) for case in _GATE_DAMAGE),
    *(("eval", case) for case in _ROLE_DAMAGE),
    ("eval", "gate-bogus"),
    ("eval", "edge-gate-off"),
    ("eval", "pre-path-cap-train-config"),
    *(("eval", case) for case in _CONFIG_DAMAGE),
    *(("eval", case) for case in _STATS_DAMAGE),
    ("export-structure", "meta-invalid-json"),
    *(("export-structure", case) for case in _ROLE_DAMAGE),
    ("export-structure", "gate-bogus"),
    ("export-structure", "edge-gate-off"),
    ("transfer", "missing-dir"),
    ("transfer", "task-missing-name"),
    *(("transfer", case) for case in _ROLE_DAMAGE),
    ("transfer", "gate-bogus"),
    ("transfer", "edge-gate-off"),
])
def test_damaged_checkpoint_metadata_exit_code(capsys, request, twohop_bundle,
                                               trained_checkpoint, tmp_path,
                                               command, case):
    ckpt = tmp_path / "checkpoint"
    if case == "missing-dir":
        named = str(ckpt)
    else:
        shutil.copytree(request.getfixturevalue("edge_checkpoint")
                        if case == "edge-gate-off" else trained_checkpoint,
                        ckpt)
        named = _damage_meta(ckpt, case)
    task_dir = twohop_bundle / "user-positive"
    if command == "eval":
        argv = ["eval", str(ckpt), str(twohop_bundle), str(task_dir)]
    elif command == "export-structure":
        argv = ["export-structure", str(ckpt), "-o", str(tmp_path / "s.json")]
    else:
        argv = ["train", str(twohop_bundle), str(task_dir), "--epochs", "1",
                "--channels", "8", "--layers", "1", "--transfer-from",
                str(ckpt), "-o", str(tmp_path / "run")]
    code, _, err = _run(capsys, *argv)
    assert code == 4
    assert named in err
    if case in _GATE_DAMAGE:
        assert "gates.json" in err and "must be a number in [0, 1]" in err
    if case in _ROLE_DAMAGE:
        assert "meta.json" in err and "or a number in [0, 1]" in err
    if case in ("gate-bogus", "edge-gate-off"):
        assert "gates.json" in err
    assert "Traceback" not in err


def _json_paths(node, prefix=()):
    """Every key path into nested JSON objects and lists."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


_WRONG_VALUES = [None, True, -1, 0, 2.5, 1e308, "x", [], [1, 2], {}, {"a": 1}]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_checkpoint_eval_exits_0_or_4(capsys, twohop_bundle,
                                             trained_checkpoint, data):
    """A checkpoint damaged at random (params.bin cut short or its header
    bytes flipped, a meta.json or gates.json key dropped or retyped) is
    evaluated or refused with exit 4, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "checkpoint"
        shutil.copytree(trained_checkpoint, ckpt)
        params = ckpt / "params.bin"
        blob = params.read_bytes()
        kind = data.draw(st.sampled_from(["truncate", "flip", "meta.json",
                                          "gates.json"]))
        if kind == "truncate":
            params.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
        elif kind == "flip":
            header_end = 16 + int.from_bytes(blob[8:16], "little")
            flipped = bytearray(blob)
            for pos in data.draw(st.lists(st.integers(0, header_end - 1),
                                          min_size=1, max_size=3)):
                flipped[pos] ^= data.draw(st.integers(1, 255))
            params.write_bytes(bytes(flipped))
        else:
            doc = json.loads((ckpt / kind).read_text())
            path = data.draw(st.sampled_from(list(_json_paths(doc))))
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if isinstance(parent, dict) and data.draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(st.sampled_from(_WRONG_VALUES))
            (ckpt / kind).write_text(json.dumps(doc))
        code, _, err = _run(capsys, "eval", str(ckpt), str(twohop_bundle),
                            str(twohop_bundle / "user-positive"))
    assert code in (0, 4), err
    assert "Traceback" not in err


@pytest.mark.parametrize("stat,value", [("mean", 1e308), ("mean", -1e151),
                                        ("std", 1e-300), ("std", 1e151)])
def test_encoder_stat_out_of_bounds_exits_4(capsys, twohop_bundle,
                                           trained_checkpoint, tmp_path,
                                           stat, value):
    """A mean or std that could push a standardized feature past the float
    range is refused before any row is encoded: once, a mean of 1e308 gave
    exit 0, an AUC of 0.5 and overflow warnings."""
    ckpt = tmp_path / "checkpoint"
    shutil.copytree(trained_checkpoint, ckpt)
    meta = json.loads((ckpt / "meta.json").read_text())
    meta["encoder_stats"]["tables"]["user"]["columns"]["u_noise_a"][stat] = value
    (ckpt / "meta.json").write_text(json.dumps(meta))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = _run(capsys, "eval", str(ckpt), str(twohop_bundle),
                            str(twohop_bundle / "user-positive"))
    assert code == 4
    assert f"encoder_stats.tables.user.columns.u_noise_a.{stat}" in err
    assert "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_gate_settings_in_gates_json_are_ignored(capsys, twohop_bundle,
                                                 trained_checkpoint, tmp_path):
    """`gates.json` holds the gates alone; alpha and mu are the model
    config's. An older file's own alpha and mu are read past."""
    ckpt = tmp_path / "checkpoint"
    shutil.copytree(trained_checkpoint, ckpt)
    gates = json.loads((ckpt / "gates.json").read_text())
    assert set(gates) == {"gates"}
    gates.update(alpha=float("nan"), mu=7.0)
    (ckpt / "gates.json").write_text(json.dumps(gates))
    config = json.loads((ckpt / "meta.json").read_text())["model_config"]
    out = tmp_path / "s.json"
    code, _, err = _run(capsys, "export-structure", str(ckpt), "-o", str(out))
    assert code == 0, err
    report = json.loads(out.read_text())
    assert (report["alpha"], report["mu"]) == (config["alpha"], config["mu"])
    code, _, err = _run(capsys, "eval", str(ckpt), str(twohop_bundle),
                        str(twohop_bundle / "user-positive"))
    assert code == 0, err


@pytest.mark.parametrize("key,value", [("task_type", "regression"),
                                       ("entity_table", "product")])
def test_eval_refuses_a_task_the_checkpoint_was_not_trained_for(
        capsys, twohop_bundle, trained_checkpoint, tmp_path, key, value):
    task_dir = tmp_path / "task"
    shutil.copytree(twohop_bundle / "user-positive", task_dir)
    meta = json.loads((task_dir / "task.json").read_text())
    meta[key] = value
    (task_dir / "task.json").write_text(json.dumps(meta))
    if key == "entity_table":  # labels over products, ids 1..20
        for split in ("train", "val", "test"):
            csv_path = task_dir / f"task_{split}.csv"
            lines = csv_path.read_text().splitlines()
            csv_path.write_text("\n".join(
                lines[:1] + [f"{i % 20 + 1},{line.split(',', 1)[1]}"
                             for i, line in enumerate(lines[1:])]) + "\n")
    code, out, err = _run(capsys, "eval", str(trained_checkpoint),
                          str(twohop_bundle), str(task_dir))
    assert code == 4 and out == ""
    assert f"task.{key} is" in err and repr(value) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,under", [("train", ""), ("synth", ""),
                                           ("export-structure", "/x.json")])
def test_unusable_output_path_exits_2_before_any_work(
        capsys, monkeypatch, twohop_bundle, trained_checkpoint, tmp_path,
        command, under):
    """An output path under or at an existing file is refused as a usage
    error naming it, before the command has read or written anything."""
    blocker = tmp_path / "file"
    blocker.write_text("in the way")
    output = str(blocker) + under

    def no_work(*args, **kwargs):
        raise AssertionError("work started")
    for name in ("ingest_bundle", "build_state", "train", "export_structure"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.setattr(cli.synth, "emit", no_work)
    argv = {
        "train": [str(twohop_bundle), str(twohop_bundle / "user-positive"),
                  "--epochs", "1", "--channels", "8", "--layers", "1"],
        "synth": ["twohop", "n_users=20", "n_products=10", "n_reviews=60"],
        "export-structure": [str(trained_checkpoint)],
    }[command]
    code, out, err = _run(capsys, command, *argv, "-o", output)
    assert code == 2 and out == ""
    assert err.startswith("usage error: cannot write output ")
    assert output in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert blocker.read_text() == "in the way"


def test_eval_builds_the_graph_with_the_trained_path_cap(capsys, twohop_bundle,
                                                        trained_checkpoint,
                                                        tmp_path):
    ckpt = tmp_path / "checkpoint"
    shutil.copytree(trained_checkpoint, ckpt)
    meta = json.loads((ckpt / "meta.json").read_text())
    assert meta["train_config"]["path_cap"] == DEFAULTS["path_cap"]
    meta["train_config"]["path_cap"] = 1
    (ckpt / "meta.json").write_text(json.dumps(meta))
    code, out, err = _run(capsys, "eval", str(ckpt), str(twohop_bundle),
                          str(twohop_bundle / "user-positive"))
    assert code == 7
    assert "(cap 1)" in err and "Traceback" not in err and out == ""


def test_unknown_flag_exits_2(capsys, twohop_bundle):
    with pytest.raises(SystemExit) as exc:
        main(["train", str(twohop_bundle), "x", "--no-such-flag"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags,name", [
    (["--layers", "0"], "layers"),
    (["--channels", "0"], "channels"),
    (["--batch-size", "0"], "batch_size"),
    (["--epochs", "0"], "epochs"),
    (["--neighbor-samples", "0"], "neighbor_samples"),
    (["--alpha", "2"], "alpha"),
    (["--dropout", "1.5"], "dropout"),
    (["--dropout", "-0.1"], "dropout"),
    (["--seed", "-1"], "seed"),
    (["--mu", "2"], "mu"),
    (["--tau", "nan"], "tau"),
    (["--lr", "nan"], "lr"),
    (["--beta", "inf"], "beta"),
    (["--gamma=-inf"], "gamma"),
    (["--alpha", "nan"], "alpha"),
    # past the size bounds: refused before anything is allocated
    (["--channels", "1000000000000000000"], "channels"),
    (["--negatives", "1000000000000000000"], "negatives"),
    (["--layers", "1000000000000000000"], "layers"),
])
def test_train_out_of_range_flag_exits_2(capsys, twohop_bundle, tmp_path,
                                         flags, name):
    code, out, err = _run(capsys, "train", str(twohop_bundle),
                          str(twohop_bundle / "user-positive"), *flags,
                          "-o", str(tmp_path / "o"))
    assert code == 2
    assert f"{name} must" in err
    assert "Traceback" not in err
    assert out == "" and not (tmp_path / "o").exists()


def test_out_of_memory_exits_7(capsys, twohop_bundle, tmp_path, monkeypatch):
    def build_state(*args, **kwargs):
        raise MemoryError()
    monkeypatch.setattr(cli, "build_state", build_state)
    code, out, err = _run(capsys, "train", str(twohop_bundle),
                          str(twohop_bundle / "user-positive"),
                          "-o", str(tmp_path / "o"))
    assert code == 7
    assert err == "error: out of memory running train\n" and out == ""


@pytest.mark.parametrize("content,name", [
    ("{", "is not valid JSON"),
    ("[1, 2]", "must hold a JSON object"),
    ('{"channels": "wide"}', "channels must be an integer"),
    ('{"lr": null}', "lr must be a number"),
    ('{"tau": NaN}', "tau must be a finite number"),
    ('{"beta": Infinity}', "beta must be a finite number"),
    ('{"epochs": 0}', "epochs must be >= 1"),
    ('{"chanels": 8}', "unknown key 'chanels'"),
    ('{"channels": 8.5}', "channels must be an integer"),
    ('{"batch_size": true}', "batch_size must be an integer"),
    ('{"channels": 8, "subspace_dim": 8}', "subspace_dim must be < channels"),
    ('{"path_cap": 0}', "path_cap must be >= 1"),
    ('{"path_cap": 2.5}', "path_cap must be an integer"),
    (None, "cannot read --config file"),
])
def test_train_bad_config_file_exits_2(capsys, twohop_bundle, tmp_path,
                                       content, name):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    code, _, err = _run(capsys, "train", str(twohop_bundle),
                        str(twohop_bundle / "user-positive"),
                        "--config", str(cfg))
    assert code == 2
    assert name in err
    assert "Traceback" not in err
    if content is not None and "JSON" in name:
        assert "--config" in err and str(cfg) in err


@pytest.mark.parametrize("transfer", [False, True])
def test_train_config_path_cap_is_enforced(capsys, twohop_bundle,
                                           trained_checkpoint, tmp_path,
                                           transfer):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"path_cap": 1, "epochs": 1, "channels": 8,
                               "layers": 1, "batch_size": 32,
                               "neighbor_samples": 16}))
    extra = ["--transfer-from", str(trained_checkpoint)] if transfer else []
    code, out, err = _run(capsys, "train", str(twohop_bundle),
                          str(twohop_bundle / "user-positive"),
                          "--config", str(cfg), *extra,
                          "-o", str(tmp_path / "o"))
    assert code == 7
    assert re.search(r"path relation co:\S+ would materialize \d+ "
                     r"instances \(cap 1\)", err)
    assert "Traceback" not in err and out == ""


def test_config_file_precedence(capsys, twohop_bundle, tmp_path):
    task_dir = twohop_bundle / "user-positive"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "channels": 8, "layers": 1,
                               "batch_size": 32, "neighbor_samples": 16,
                               "lr": 0.99}))
    code, out, _ = _run(capsys, "train", str(twohop_bundle), str(task_dir),
                        "--config", str(cfg), "--lr", "0.005", "--seed", "4",
                        "-o", str(tmp_path / "o"))
    assert code == 0
    report = _last_json(out)
    assert report["config"]["lr"] == 0.005   # flag wins over file
    assert report["config"]["epochs"] == 1   # file wins over defaults


def test_seed_env_var(capsys, twohop_bundle, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "777")
    code, out, _ = _run(capsys, "validate", str(twohop_bundle))
    assert code == 0
    assert _last_json(out)["seed"] == 777


def test_train_determinism(capsys, twohop_bundle, tmp_path):
    task_dir = twohop_bundle / "user-positive"
    metrics = []
    for i in range(2):
        code, out, _ = _run(capsys, "train", str(twohop_bundle), str(task_dir),
                            "--epochs", "2", "--channels", "8", "--layers", "1",
                            "--batch-size", "32", "--neighbor-samples", "16",
                            "--seed", "9", "-o", str(tmp_path / f"d{i}"))
        assert code == 0
        metrics.append(_last_json(out)["best_val_metric"])
    assert metrics[0] == metrics[1]


# --- fuzzed bundle and task CSVs ----------------------------------------------

@pytest.fixture(scope="module")
def tiny_bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiny") / "twohop"
    assert main(["synth", "twohop", "n_users=30", "n_products=10",
                 "n_reviews=80", "seed=3", "-o", str(path)]) == 0
    return path


_CELL_TEXT = st.one_of(
    st.sampled_from(["", "nan", "inf", "-1", "0", "1.5", "1e999", "9" * 25,
                     "-9" * 13, "x", ",", '"', "\n", "1,2", "0x10", "NULL"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6))


def _fuzz_csv(path: Path, data) -> None:
    """Rewrite one CSV with a drawn damage: a cell or header field replaced,
    a field added or dropped, or a line deleted or repeated."""
    lines = path.read_text(encoding="utf-8").splitlines()
    kind = data.draw(st.sampled_from(["cell", "header", "extra", "short",
                                      "delete", "repeat"]))
    at = 0 if kind == "header" else data.draw(st.integers(
        0 if kind in ("delete", "repeat") else 1, len(lines) - 1))
    fields = lines[at].split(",")
    if kind in ("cell", "header"):
        fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(_CELL_TEXT)
        lines[at] = ",".join(fields)
    elif kind == "extra":
        lines[at] = ",".join(fields + [data.draw(_CELL_TEXT)])
    elif kind == "short":
        lines[at] = ",".join(fields[:-1])
    elif kind == "delete":
        del lines[at]
    else:
        lines.insert(at, lines[at])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


_TINY_TRAIN = ["--epochs", "1", "--channels", "8", "--layers", "1", "--quiet"]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_bundle_csv_exits_0_2_or_3(capsys, tiny_bundle, data):
    """A table CSV damaged at random is validated and trained on, or
    refused with exit 2 or 3, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(tmp) / "bundle"
        shutil.copytree(tiny_bundle, bundle)
        table = data.draw(st.sampled_from(["user", "product", "review"]))
        _fuzz_csv(bundle / f"{table}.csv", data)
        for argv in (["validate", str(bundle)],
                     ["train", str(bundle), str(bundle / "user-positive"),
                      *_TINY_TRAIN]):
            code, _, err = _run(capsys, *argv)
            assert code in (0, 2, 3), (argv[0], err)
            assert "Traceback" not in err


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_task_csv_exits_0_2_or_3(capsys, tiny_bundle, data):
    """A task CSV damaged at random is trained on, or refused with exit 2
    or 3, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(tmp) / "bundle"
        shutil.copytree(tiny_bundle, bundle)
        split = data.draw(st.sampled_from(["train", "val", "test"]))
        _fuzz_csv(bundle / "user-positive" / f"task_{split}.csv", data)
        code, _, err = _run(capsys, "train", str(bundle),
                            str(bundle / "user-positive"), *_TINY_TRAIN)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [["--tau", "1e-300"], ["--beta", "1e300"]])
def test_overflowing_adam_step_exits_6(capsys, tiny_bundle, flags):
    """A gradient whose square overflows float64 once left an infinite
    second moment, so its parameter silently stopped moving and training
    exited 0 with an overflow warning. The step is refused instead, naming
    the parameter."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, "train", str(tiny_bundle),
                              str(tiny_bundle / "user-positive"),
                              *_TINY_TRAIN, *flags)
    assert code == 6
    assert re.search(r"would make parameter '[^']+' non-finite", err)
    assert "Traceback" not in err and out == ""
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_overflowing_forward_exits_6(capsys, tiny_bundle):
    """A step of 1e300 leaves the parameters finite but so large that the
    next forward overflows; that once warned and, with warnings as errors,
    ended in a traceback. It is refused as divergence instead."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, "train", str(tiny_bundle),
                              str(tiny_bundle / "user-positive"), *_TINY_TRAIN,
                              "--lr", "1e300", "--batch-size", "1")
    assert code == 6
    assert "overflow encountered" in err and "at epoch 0 batch" in err
    assert "Traceback" not in err and out == ""
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# --- fuzzed schema.json, train flags and --config values ----------------------

def _json_leaves(node):
    """Every scalar in nested JSON objects and lists."""
    items = (node.values() if isinstance(node, dict)
             else node if isinstance(node, list) else None)
    if items is None:
        yield node
        return
    for value in items:
        yield from _json_leaves(value)


def _run_any(capsys, *argv):
    """`_run`, taking argparse's own usage exit (SystemExit) as the code."""
    try:
        return _run(capsys, *argv)
    except SystemExit as exc:
        out = capsys.readouterr()
        return exc.code, out.out, out.err


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_schema_exits_0_2_3_4_or_6(capsys, tiny_bundle, data):
    """A schema.json field or list item dropped, or replaced by a wrong type
    or by another of the schema's own names and kinds, is validated and
    trained on, or refused with its exit code, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(tmp) / "bundle"
        shutil.copytree(tiny_bundle, bundle)
        doc = json.loads((bundle / "schema.json").read_text())
        own = sorted({str(value) for value in _json_leaves(doc)})
        path = data.draw(st.sampled_from(list(_json_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(st.sampled_from(_WRONG_VALUES + own))
        (bundle / "schema.json").write_text(json.dumps(doc))
        for argv in (["validate", str(bundle)],
                     ["train", str(bundle), str(bundle / "user-positive"),
                      *_TINY_TRAIN]):
            code, _, err = _run_any(capsys, *argv)
            assert code in (0, 2, 3, 4, 6), (argv[0], err)
            assert "Traceback" not in err


# size-like settings stay small, so no example asks for a huge allocation;
# path_cap is left out: a small cap is refused with exit 7 by design
_FUZZ_SIZES = {"channels": (-1, 12), "layers": (-1, 3), "cat_dim": (-1, 8),
               "subspace_dim": (-1, 12), "negatives": (-1, 10),
               "epochs": (-1, 2), "batch_size": (-1, 64),
               "neighbor_samples": (-1, 16), "patience": (-1, 3),
               "seed": (-1, 99)}
_FUZZ_REALS = ("lr", "dropout", "beta", "gamma", "alpha", "mu", "tau")
_REAL_VALUES = [0.0, -0.5, 1e-3, 0.5, 1.0, 1.5, 1e-300, 1e300]
_FUZZ_BASE = {"epochs": 1, "channels": 8, "layers": 1, "batch_size": 32,
              "neighbor_samples": 8}


def _fuzz_setting(data, key: str, as_flag: bool):
    """A drawn value for `key`: usually of its kind and near its range,
    sometimes of a wrong kind; text when it goes on the command line."""
    if key in _FUZZ_SIZES:
        value = data.draw(st.integers(*_FUZZ_SIZES[key]))
        if not as_flag and data.draw(st.booleans()):
            value = data.draw(st.sampled_from([float(value), value + 0.5]))
    else:
        value = data.draw(st.sampled_from(_REAL_VALUES))
    if data.draw(st.integers(0, 7)) == 0:  # the wrong kind
        value = data.draw(st.sampled_from(
            ["x", "", "nan", "inf", "1e999"] if as_flag
            else [None, True, "x", [], {}]))
    return str(value) if as_flag else value


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_train_settings_exit_0_2_4_or_6(capsys, tiny_bundle, data):
    """Settings drawn at random, some as flags and some as --config values,
    train or are refused with exit 2 (4 for a transfer without a source, 6
    when they make training diverge), never a traceback."""
    keys = data.draw(st.lists(st.sampled_from(sorted(
        [*_FUZZ_SIZES, *_FUZZ_REALS])), min_size=1, max_size=4, unique=True))
    flags, config = [], {}
    for key in keys:
        as_flag = key in cli.TRAIN_FLAGS and data.draw(st.booleans())
        value = _fuzz_setting(data, key, as_flag)
        if as_flag:
            flags += [f"--{key.replace('_', '-')}", value]
        else:
            config[key] = value
    base = [arg for key, value in _FUZZ_BASE.items() if key not in keys
            for arg in (f"--{key.replace('_', '-')}", str(value))]
    roles = data.draw(st.sampled_from(ROLE_MODES))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, _, err = _run_any(capsys, "train", str(tiny_bundle),
                                str(tiny_bundle / "user-positive"), "--quiet",
                                "--roles", roles, "--config", str(cfg),
                                *base, *flags)
    assert code in (0, 2, 4, 6), err
    assert "Traceback" not in err
