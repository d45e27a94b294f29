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
    assert col.values[0] == 0.0 and col.cell(0) is None


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
