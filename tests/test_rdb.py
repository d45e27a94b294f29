import dataclasses
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import review_fixture_rows, review_fixture_specs
from rolegnn import rdb
from rolegnn.errors import (CellParseError, DanglingKeyError, DuplicateKeyError,
                            MissingFileError, SchemaError)
from rolegnn.rdb import (build_database, canonical_form, export_bundle,
                         fd_violations, ingest_bundle, load_task)
from rolegnn.schema_graph import (RoleAssignment, build_schema_graph,
                                  construct_reg, enumerate_edge_triples,
                                  invert_reg)
from rolegnn.synth import gen_random_bundle, gen_twohop


def _write_bundle(tmp_path, rows=None):
    db = build_database(review_fixture_specs(), rows or review_fixture_rows())
    export_bundle(db, tmp_path)
    return db


def test_ingest_valid_fixture(tmp_path):
    _write_bundle(tmp_path)
    db = ingest_bundle(tmp_path)
    assert sorted(db.table_names) == ["product", "review", "user"]
    assert fd_violations(db) == []
    assert db.spec("review").fk_columns == {"user_id": "user",
                                            "product_id": "product"}


def test_dangling_fk_names_location(tmp_path):
    rows = review_fixture_rows()
    # row index 7 in review references a missing user
    while len(rows["review"]) < 8:
        nid = len(rows["review"]) + 1
        rows["review"].append({"review_id": nid, "user_id": 1, "product_id": 1,
                               "rating": 1.0, "created_at": 1_600_000_000})
    rows["review"][7]["user_id"] = 999
    db_dir = tmp_path / "bad"
    db_dir.mkdir()
    # write CSVs manually through a valid db then corrupt the cell on disk
    good = dict(rows)
    good["review"] = [dict(r) for r in rows["review"]]
    good["review"][7]["user_id"] = 1
    export_bundle(build_database(review_fixture_specs(), good), db_dir)
    text = (db_dir / "review.csv").read_text().splitlines()
    cells = text[8].split(",")
    cells[1] = "999"
    text[8] = ",".join(cells)
    (db_dir / "review.csv").write_text("\n".join(text) + "\n")

    with pytest.raises(DanglingKeyError) as err:
        ingest_bundle(db_dir)
    assert err.value.table == "review"
    assert err.value.row == 7
    assert err.value.column == "user_id"


def test_random_bundle_row_counts_match_csv_lines(tmp_path):
    db, _ = gen_twohop(100, 30, 1000, 1.0, 7)
    export_bundle(db, tmp_path)
    db2 = ingest_bundle(tmp_path)
    for name in db.table_names:
        n_lines = len((tmp_path / f"{name}.csv").read_text().splitlines())
        assert db2.row_count(name) == n_lines - 1


def test_fd_violations_counts_injected_violations(review_db):
    assert fd_violations(review_db) == []
    data = review_db.table("review")
    data.cols["user_id"].values[0] = 999
    reports = fd_violations(review_db)
    assert len(reports) == 1
    assert (reports[0].table, reports[0].row, reports[0].column) == \
        ("review", 0, "user_id")

    rng = np.random.default_rng(0)
    n = 4
    rows = rng.choice(len(data.pk), size=n, replace=False)
    for r in rows:
        data.cols["product_id"].values[r] = -5
    assert len(fd_violations(review_db)) == 1 + n


def test_canonical_form_deterministic(review_db):
    assert canonical_form(review_db) == canonical_form(review_db)


def test_canonical_form_row_order_insensitive():
    rows = review_fixture_rows()
    shuffled = dict(rows)
    shuffled["review"] = list(reversed(rows["review"]))
    a = build_database(review_fixture_specs(), rows)
    b = build_database(review_fixture_specs(), shuffled)
    assert canonical_form(a) == canonical_form(b)


def test_canonical_form_detects_changes(review_db):
    before = canonical_form(review_db)
    review_db.table("user").cols["age"].values[0] += 1.0
    assert canonical_form(review_db) != before


def test_export_ingest_identity(tmp_path):
    for seed in range(5):
        db = gen_random_bundle(seed)
        out = tmp_path / f"b{seed}"
        export_bundle(db, out)
        assert canonical_form(ingest_bundle(out)) == canonical_form(db)


def test_duplicate_pk_rejected():
    rows = review_fixture_rows()
    rows["user"].append({"user_id": 1, "age": 99.0})
    with pytest.raises(DuplicateKeyError):
        build_database(review_fixture_specs(), rows)


def test_missing_schema_file(tmp_path):
    with pytest.raises(MissingFileError):
        ingest_bundle(tmp_path)


def test_missing_table_csv(tmp_path):
    _write_bundle(tmp_path)
    (tmp_path / "review.csv").unlink()
    with pytest.raises(MissingFileError):
        ingest_bundle(tmp_path)


def test_header_mismatch(tmp_path):
    _write_bundle(tmp_path)
    lines = (tmp_path / "user.csv").read_text().splitlines()
    lines[0] = "wrong,header"
    (tmp_path / "user.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError):
        ingest_bundle(tmp_path)


def test_unparseable_cell(tmp_path):
    _write_bundle(tmp_path)
    lines = (tmp_path / "user.csv").read_text().splitlines()
    lines[1] = lines[1].replace("20", "twenty")
    (tmp_path / "user.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(CellParseError) as err:
        ingest_bundle(tmp_path)
    assert err.value.table == "user"


@pytest.mark.parametrize("column", ["user_id", "created_at"])
@pytest.mark.parametrize("text", ["9" * 25, "-" + "9" * 25])
def test_out_of_int64_cell_names_location(tmp_path, column, text):
    """An integer or epoch-datetime cell past the int64 range is refused
    with its location, not an OverflowError from the column array."""
    _write_bundle(tmp_path)
    lines = (tmp_path / "review.csv").read_text().splitlines()
    at = lines[0].split(",").index(column)
    fields = lines[2].split(",")
    fields[at] = text
    lines[2] = ",".join(fields)
    (tmp_path / "review.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(CellParseError) as err:
        ingest_bundle(tmp_path)
    assert (err.value.table, err.value.row, err.value.column) == \
        ("review", 1, column)


@pytest.mark.parametrize("text", ["1e151", "-1e308", "1.0000000000000001e150"])
def test_real_cell_past_the_bound_names_location(tmp_path, text):
    """A finite real cell outside [-1e150, 1e150] is refused with its
    location: the encoder's statistics over such cells could overflow or
    break the bounds a checkpoint is read with."""
    _write_bundle(tmp_path)
    lines = (tmp_path / "review.csv").read_text().splitlines()
    at = lines[0].split(",").index("rating")
    fields = lines[3].split(",")
    fields[at] = text
    lines[3] = ",".join(fields)
    (tmp_path / "review.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(CellParseError, match=r"outside \[-1e150, 1e150\]") as err:
        ingest_bundle(tmp_path)
    assert (err.value.table, err.value.row, err.value.column) == \
        ("review", 2, "rating")


@pytest.mark.parametrize("value", [1e151, -np.inf, np.nan])
def test_build_database_bounds_real_cells(value):
    rows = review_fixture_rows()
    rows["user"][3]["age"] = value
    with pytest.raises(CellParseError) as err:
        build_database(review_fixture_specs(), rows)
    assert (err.value.table, err.value.row, err.value.column) == \
        ("user", 3, "age")


def test_real_cells_at_the_bound_are_kept(tmp_path):
    rows = review_fixture_rows()
    rows["user"][0]["age"], rows["user"][1]["age"] = 1e150, -1e150
    _write_bundle(tmp_path, rows)
    ages = ingest_bundle(tmp_path).data["user"].cols["age"].values
    assert ages[:2].tolist() == [1e150, -1e150]


def test_first_bad_cell_in_row_major_order(tmp_path):
    """Of two bad cells, ingest names the one met first reading row by row,
    not the one in the earlier column."""
    _write_bundle(tmp_path)
    lines = (tmp_path / "review.csv").read_text().splitlines()
    header = lines[0].split(",")
    for row, column in ((1, "rating"), (2, "user_id")):
        fields = lines[row + 1].split(",")
        fields[header.index(column)] = "bad"
        lines[row + 1] = ",".join(fields)
    (tmp_path / "review.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(CellParseError) as err:
        ingest_bundle(tmp_path)
    assert (err.value.table, err.value.row, err.value.column) == \
        ("review", 1, "rating")


def test_datetime_accepts_iso_and_epoch():
    assert rdb.parse_datetime("1600000000") == 1_600_000_000
    assert rdb.parse_datetime("2020-09-13T12:26:40+00:00") == 1_600_000_000
    assert rdb.parse_datetime("2020-09-13 12:26:40") == 1_600_000_000


def test_nullable_numeric_mask():
    specs = [rdb.TableSpec("t", (rdb.ColumnSpec("t_id", "integer"),
                                 rdb.ColumnSpec("x", "real", nullable=True)),
                           primary_key="t_id")]
    db = build_database(specs, {"t": [{"t_id": 1, "x": None},
                                      {"t_id": 2, "x": 7.0}]})
    col = db.table("t").cols["x"]
    assert col.mask.tolist() == [False, True]
    assert col.values[0] == 0.0 and not col.mask[0]


def test_task_validation(tmp_path):
    db, task = gen_twohop(20, 10, 60, 1.0, 0)
    export_bundle(db, tmp_path, task=task)
    loaded = load_task(tmp_path / task.name, ingest_bundle(tmp_path))
    assert loaded.task_type == "classification"
    assert len(loaded.labels["train"]) == len(task.labels["train"])
    np.testing.assert_array_equal(np.sort(loaded.labels["test"].entity),
                                  np.sort(task.labels["test"].entity))

    # split must be strictly increasing
    meta = (tmp_path / task.name / "task.json")
    bad = meta.read_text().replace(str(int(task.split[1])), str(int(task.split[0])))
    meta.write_text(bad)
    with pytest.raises(SchemaError):
        load_task(tmp_path / task.name, ingest_bundle(tmp_path))


def test_task_unknown_entity(tmp_path):
    db, task = gen_twohop(20, 10, 60, 1.0, 0)
    task.labels["train"].entity[0] = 10_000
    export_bundle(db, tmp_path, task=task)
    with pytest.raises(DanglingKeyError):
        load_task(tmp_path / task.name, ingest_bundle(tmp_path))


def test_task_classification_labels_must_be_binary(tmp_path):
    db, task = gen_twohop(20, 10, 60, 1.0, 0)
    task.labels["train"].label[0] = 0.5
    export_bundle(db, tmp_path, task=task)
    with pytest.raises(SchemaError):
        load_task(tmp_path / task.name, ingest_bundle(tmp_path))


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_canonical_form_random_bundles_stable(seed):
    db = gen_random_bundle(seed % 50)
    assert canonical_form(db) == canonical_form(db)


# --- byte pins: canonical form, exported bundles, rebuilt databases ----------

def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _export_digest(root: Path) -> str:
    """SHA-256 over every exported file's relative path and bytes."""
    h = hashlib.sha256()
    for f in sorted(p for p in root.rglob("*") if p.is_file()):
        data = f.read_bytes()
        h.update(f"{f.relative_to(root).as_posix()}|{len(data)}|".encode())
        h.update(data)
    return h.hexdigest()


_PIN_BUNDLES = {"twohop-x1": lambda: gen_twohop(2000, 300, 8000, 1.0, 7),
                **{f"random-{s}": lambda s=s: (gen_random_bundle(s), None)
                   for s in range(10)}}

# (canonical form, exported files), recorded while tables were still built
# from one dict per row and serialized one cell at a time; the random seeds
# cover NULLs, quoted and non-ASCII categoricals, self-references and
# datetimes
_BYTES_PINNED = {
    "random-0": ("e5c2796375c77f8888fa707243a70f2c37499b57bec57833b1b482e8dfdf7770",
                 "157d063d09be36ada3638f1aeb3256ba64a99b6f63e1cb3a6f1a48241b8cae15"),
    "random-1": ("76c3df106c90672486138a9c4fccc1c59e2eefcb1b3090611ec22af6914174ce",
                 "a1d24c0683f869a1b7e340d18f600177198d34551190f5f43c067690d7ae3224"),
    "random-2": ("42d4a3b5a825b1929cfcf7c445915d128e5e2f4aeb9b502294b29fbdb4cf7a04",
                 "e23ea44bc0d65b4f09e2940f0c7b3129bcecc4a4ca2509cd98ec6f35d34b57b3"),
    "random-3": ("b38199a66a86cdc86b2cf1db0607ac11d61c3ef255b1d0ce872c0f2232ba8963",
                 "72331311ea696c9c6b60d31b295eda092e6a9b7d51f1b5b46b146019e633197e"),
    "random-4": ("2ba2e503dedf1f9b4187e441431881d0bc3a3343ab3a36c59878c32dcf42f019",
                 "85c8e5ebe8f0d9ba018f241bf63b1ce5c5affa7d053032e1a9ddfa23256c3254"),
    "random-5": ("21509eb9f9d1f0de3d39c63ef4f85fb6036913ae3b1ae070841d5455d5be1337",
                 "6ec2279e100f4ecd5ba9cfcd96e1a288abbac7607a6234c23558cb0188aa9c31"),
    "random-6": ("e7addb924bdf50ac8ce372c681933b8b626378390051b5fabead2c902e0e81b7",
                 "b4b273c67ced46d1d7e62872be9f0290ad54b866be35a31b43948f46a9b5d464"),
    "random-7": ("152b11977e42c1977668f6b92a7ea1afa3067b770db825cc484c25b85428facb",
                 "6ddeec148a3b867d46bd178b9691ac6285ac6f6f6aa885d08558c45a0890c710"),
    "random-8": ("3a09eaf9d3c86402134dc96f5dff833845a5d147fd5c5ab26a9934539c377c96",
                 "5dad0a27980fecc59eef4442dc0838d3bbed0958dacb37ffe90815b1e345898d"),
    "random-9": ("581192f49b497dd2f267d1e2e1bb28437e019500f896959d45b224fb700b4bf9",
                 "341fdc498869a462c81b07aac25126633cbab1e8c4d0eb2c4821d2836ad363db"),
    "twohop-x1": ("9648b0d26d755fc4b07c717bf69bc8aaec1cff745f3226d8d696d01a06656f9c",
                  "55e32fb30e2aa8cfa1f01b227dc819d79d935a5192d3c4e992e8af9b09112e3d"),
}


@pytest.mark.parametrize("name", sorted(_PIN_BUNDLES))
def test_serialized_bytes_pinned(tmp_path, name):
    """The canonical form and the exported bundle (with its task) keep their
    bytes, and so does the database rebuilt from the entity graph under
    all-node, learn and all-edge roles: its canonical form, and its export,
    as every pinned bundle is stored in primary-key order."""
    db, task = _PIN_BUNDLES[name]()
    canonical, exported = _BYTES_PINNED[name]
    assert _sha(canonical_form(db)) == canonical
    export_bundle(db, tmp_path / "original", task=task)
    assert _export_digest(tmp_path / "original") == exported
    assert _sha(canonical_form(ingest_bundle(tmp_path / "original"))) == canonical
    sg = build_schema_graph(db)
    triples = enumerate_edge_triples(sg)
    for mode, roles in (("node", RoleAssignment.uniform(triples, "node")),
                        ("learn", RoleAssignment.uniform(triples, "learn")),
                        ("edge", RoleAssignment.uniform(triples, "edge"))):
        rebuilt = invert_reg(construct_reg(db, sg, roles))
        assert _sha(canonical_form(rebuilt)) == canonical, mode
        export_bundle(rebuilt, tmp_path / mode, task=task)
        assert _export_digest(tmp_path / mode) == exported, mode


def test_rendering_blocks_keep_the_bytes(tmp_path, monkeypatch):
    """Rows are rendered a block at a time; blocks that end mid-table, in
    NULL runs and between categoricals, change no byte."""
    monkeypatch.setattr(rdb, "_BLOCK", 7)
    for seed in range(10):
        db = gen_random_bundle(seed)
        canonical, exported = _BYTES_PINNED[f"random-{seed}"]
        assert _sha(canonical_form(db)) == canonical
        export_bundle(db, tmp_path / str(seed))
        assert _export_digest(tmp_path / str(seed)) == exported


def _respec(specs, table, **changes):
    """`specs` with `table`'s spec changed by `changes` (TableSpec fields;
    "column" maps a column name to its new ColumnSpec fields)."""
    out = []
    for spec in specs:
        if spec.name == table:
            cols = changes.pop("column", {})
            changes.setdefault("columns", tuple(
                dataclasses.replace(c, **cols.get(c.name, {}))
                for c in spec.columns))
            spec = dataclasses.replace(spec, **changes)
        out.append(spec)
    return out


@pytest.mark.parametrize("case,table,column,message", [
    ("duplicate-columns", "user", None, "duplicate column names"),
    ("real-primary-key", "user", "user_id",
     "primary_key must be an integer column"),
    ("missing-fk-column", "review", "shopper_id", "foreign-key column missing"),
    ("real-fk-column", "review", "product_id",
     "foreign-key column must be integer"),
    ("real-time-column", "review", "created_at",
     "time_column must be a datetime column"),
])
def test_schema_refusals_name_the_table_and_column(case, table, column,
                                                  message):
    specs = review_fixture_specs()
    if case == "duplicate-columns":
        user = specs[0]
        specs = _respec(specs, "user", columns=user.columns + user.columns[1:])
    elif case == "missing-fk-column":
        specs = _respec(specs, "review", foreign_keys=(
            rdb.ForeignKeySpec("shopper_id", "user"),))
    else:
        specs = _respec(specs, table, column={column: {"kind": "real"}})
    with pytest.raises(SchemaError, match=message) as exc:
        build_database(specs, review_fixture_rows())
    assert exc.value.table == table and exc.value.column == column


@pytest.mark.parametrize("column,message", [
    ("user_id", "NULL primary key"),
    ("age", "NULL in non-nullable column"),
])
def test_null_cells_refused_with_their_location(column, message):
    rows = review_fixture_rows()
    rows["user"][2][column] = None
    specs = review_fixture_specs()
    if column == "user_id":  # a nullable key column reaches the key check
        specs = _respec(specs, "user", column={"user_id": {"nullable": True}})
    with pytest.raises(CellParseError, match=message) as exc:
        build_database(specs, rows)
    assert (exc.value.table, exc.value.row, exc.value.column) == (
        "user", 2, column)


def _task_dir(tmp_path):
    db, task = gen_twohop(20, 10, 60, 1.0, 0)
    export_bundle(db, tmp_path, task=task)
    return ingest_bundle(tmp_path), tmp_path / task.name


@pytest.mark.parametrize("text,message", [
    ("{", "task.json is not valid JSON"),
    ("[]", "task.json must hold an object"),
    ('{"split": [1, 2, 3], "entity_table": "user"}',
     "task.json lacks required key 'task_type'"),
    ('{"task_type": "ranking", "split": [1, 2, 3], "entity_table": "user"}',
     "unknown task_type 'ranking'"),
    ('{"task_type": "regression", "split": [1, "x", 3], '
     '"entity_table": "user"}', "task.json: bad split or eval_k"),
    ('{"task_type": "regression", "split": [1, 2, 3], "eval_k": "top", '
     '"entity_table": "user"}', "task.json: bad split or eval_k"),
    ('{"task_type": "regression", "split": [1, 2], "entity_table": "user"}',
     "split cut timestamps must be strictly increasing"),
    ('{"task_type": "regression", "split": [1, 2, 3], "entity_table": "who"}',
     "entity table 'who' not in schema"),
    ('{"task_type": "link_prediction", "split": [1, 2, 3], '
     '"entity_table": "user", "target_table": "who"}',
     "link prediction needs a valid target_table, got 'who'"),
])
def test_task_json_refusals(tmp_path, text, message):
    db, task_dir = _task_dir(tmp_path)
    (task_dir / "task.json").write_text(text)
    with pytest.raises(SchemaError, match=re.escape(message)):
        load_task(task_dir, db)


def test_missing_task_json(tmp_path):
    db, task_dir = _task_dir(tmp_path)
    (task_dir / "task.json").unlink()
    with pytest.raises(MissingFileError, match="no task.json"):
        load_task(task_dir, db)


def test_link_task_reads_targets_and_refuses_a_dangling_one(tmp_path):
    db, _ = gen_twohop(20, 10, 60, 1.0, 0)
    review = db.table("review")
    task = rdb.TaskSpec(name="links", task_type="link_prediction",
                        entity_table="user", target_table="product",
                        split=(1.0, 2.0, 3.0), eval_k=5)
    rows = np.arange(12)
    for split, t in zip(("train", "val", "test"), task.split):
        task.labels[split] = rdb.LabelRecords(
            entity=review.cols["user_id"].values[rows].astype(np.int64),
            target=review.cols["product_id"].values[rows].astype(np.int64),
            t_predict=np.full(len(rows), t), label=np.ones(len(rows)))
    export_bundle(db, tmp_path, task=task)
    loaded = load_task(tmp_path / "links", ingest_bundle(tmp_path))
    assert (loaded.task_type, loaded.target_table, loaded.eval_k) == (
        "link_prediction", "product", 5)
    for split, recs in task.labels.items():
        np.testing.assert_array_equal(loaded.labels[split].target, recs.target)
        np.testing.assert_array_equal(loaded.labels[split].entity, recs.entity)

    task.labels["val"].target[3] = 999
    export_bundle(db, tmp_path, task=task)
    with pytest.raises(DanglingKeyError,
                       match="task_val.csv: label target 999 not in product"
                       ) as exc:
        load_task(tmp_path / "links", ingest_bundle(tmp_path))
    assert (exc.value.row, exc.value.column) == (3, "target_id")
