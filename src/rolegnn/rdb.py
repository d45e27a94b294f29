"""In-memory relational database: typed tables, keys, bundle IO, validation.

A bundle directory holds `schema.json`, one RFC-4180 CSV per table (header =
schema column order), and optionally a task directory with `task.json` plus
`task_<split>.csv` label files. Datetimes are accepted as ISO-8601 or raw epoch
integers and stored as epoch seconds. Empty cells are NULL; NULL cells in
numeric columns are stored as 0 plus a presence mask.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import (
    CellParseError,
    DanglingKeyError,
    DuplicateKeyError,
    MissingFileError,
    SchemaError,
)
from .kernels import lookup_positions

KINDS = ("integer", "real", "categorical", "datetime")
TASK_TYPES = ("classification", "regression", "link_prediction")
SPLITS = ("train", "val", "test")


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str
    nullable: bool = False


@dataclass(frozen=True)
class ForeignKeySpec:
    column: str
    references: str


@dataclass(frozen=True)
class TableSpec:
    name: str
    columns: tuple[ColumnSpec, ...]
    primary_key: str
    foreign_keys: tuple[ForeignKeySpec, ...] = ()
    time_column: str | None = None

    def column(self, name: str) -> ColumnSpec:
        for c in self.columns:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def fk_columns(self) -> dict[str, str]:
        return {fk.column: fk.references for fk in self.foreign_keys}

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "columns": [{"name": c.name, "kind": c.kind, "nullable": c.nullable}
                        for c in self.columns],
            "primary_key": self.primary_key,
            "foreign_keys": [{"column": fk.column, "references": fk.references}
                             for fk in self.foreign_keys],
            "time_column": self.time_column,
        }

    @staticmethod
    def from_dict(d: dict) -> "TableSpec":
        return TableSpec(
            name=d["name"],
            columns=tuple(ColumnSpec(c["name"], c["kind"], bool(c.get("nullable", False)))
                          for c in d["columns"]),
            primary_key=d["primary_key"],
            foreign_keys=tuple(ForeignKeySpec(fk["column"], fk["references"])
                               for fk in d.get("foreign_keys", [])),
            time_column=d.get("time_column"),
        )


class ColumnData:
    """Typed column storage: values array plus a presence mask."""

    def __init__(self, kind: str, values, mask: np.ndarray, vocab: list[str] | None = None):
        self.kind = kind
        self.values = values
        self.mask = mask  # True where a value is present
        self.vocab = vocab  # frozen for categorical columns after ingestion

    def copy(self) -> "ColumnData":
        vals = list(self.values) if self.kind == "categorical" else self.values.copy()
        vocab = list(self.vocab) if self.vocab is not None else None
        return ColumnData(self.kind, vals, self.mask.copy(), vocab)

    def cell(self, i: int):
        if not self.mask[i]:
            return None
        v = self.values[i]
        if self.kind in ("integer", "datetime"):
            return int(v)
        if self.kind == "real":
            return float(v)
        return v


class TableData:
    def __init__(self, pk: np.ndarray, cols: dict[str, ColumnData]):
        self.pk = pk
        self.cols = cols

    @property
    def n_rows(self) -> int:
        return len(self.pk)


class RelationalDatabase:
    """Validated set of typed tables linked by foreign-primary keys."""

    def __init__(self, specs: dict[str, TableSpec], data: dict[str, TableData]):
        self.specs = specs
        self.data = data

    @property
    def table_names(self) -> list[str]:
        return list(self.specs)

    def spec(self, name: str) -> TableSpec:
        return self.specs[name]

    def table(self, name: str) -> TableData:
        return self.data[name]

    def row_count(self, name: str) -> int:
        return self.data[name].n_rows

    def timestamps(self, name: str) -> np.ndarray:
        """Per-row epoch seconds; -inf where absent (always admissible)."""
        spec = self.specs[name]
        data = self.data[name]
        out = np.full(data.n_rows, -np.inf, dtype=np.float64)
        if spec.time_column:
            col = data.cols[spec.time_column]
            out[col.mask] = col.values[col.mask].astype(np.float64)
        return out


@dataclass(frozen=True)
class FdViolation:
    table: str
    row: int
    column: str
    value: int


@dataclass
class LabelRecords:
    entity: np.ndarray
    t_predict: np.ndarray
    label: np.ndarray
    target: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.entity)


@dataclass
class TaskSpec:
    name: str
    task_type: str
    entity_table: str
    split: tuple[float, float, float]
    target_table: str | None = None
    eval_k: int = 10
    labels: dict[str, LabelRecords] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# cell parsing / rendering
# ---------------------------------------------------------------------------

def parse_datetime(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        pass
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def _parse_cell(text: str, col: ColumnSpec, table: str, row: int):
    if text == "":
        if col.nullable:
            return None
        raise CellParseError(f"empty cell in non-nullable column",
                             table=table, row=row, column=col.name)
    try:
        if col.kind in ("integer", "datetime"):
            value = int(text) if col.kind == "integer" else parse_datetime(text)
            if not -2**63 <= value < 2**63:
                raise ValueError("out of the int64 range")
            return value
        if col.kind == "real":
            value = float(text)
            if not math.isfinite(value):
                raise ValueError("real cells must be finite")
            return value
        return text
    except ValueError as exc:
        raise CellParseError(f"unparseable cell {text!r}: {exc}",
                             table=table, row=row, column=col.name) from exc


def _render_cell(value, kind: str) -> str:
    if value is None:
        return ""
    if kind == "real":
        return "%.17g" % value
    return str(value)


# ---------------------------------------------------------------------------
# database construction
# ---------------------------------------------------------------------------

def _validate_schema(specs: dict[str, TableSpec]) -> None:
    for spec in specs.values():
        names = [c.name for c in spec.columns]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names", table=spec.name)
        if spec.primary_key not in names:
            raise SchemaError("primary_key column missing", table=spec.name,
                              column=spec.primary_key)
        if spec.column(spec.primary_key).kind != "integer":
            raise SchemaError("primary_key must be an integer column",
                              table=spec.name, column=spec.primary_key)
        for fk in spec.foreign_keys:
            if fk.column not in names:
                raise SchemaError("foreign-key column missing", table=spec.name,
                                  column=fk.column)
            if spec.column(fk.column).kind != "integer":
                raise SchemaError("foreign-key column must be integer",
                                  table=spec.name, column=fk.column)
            if fk.references not in specs:
                raise SchemaError(f"foreign key references unknown table "
                                  f"{fk.references!r}", table=spec.name,
                                  column=fk.column)
        if spec.time_column is not None:
            if spec.time_column not in names:
                raise SchemaError("time_column missing", table=spec.name,
                                  column=spec.time_column)
            if spec.column(spec.time_column).kind != "datetime":
                raise SchemaError("time_column must be a datetime column",
                                  table=spec.name, column=spec.time_column)


def _build_table(spec: TableSpec, rows: list[dict], table: str) -> TableData:
    n = len(rows)
    cols: dict[str, ColumnData] = {}
    for col in spec.columns:
        mask = np.ones(n, dtype=bool)
        if col.kind == "categorical":
            values: list = [None] * n
            for i, r in enumerate(rows):
                v = r.get(col.name)
                if v is None:
                    mask[i] = False
                else:
                    values[i] = str(v)
        else:
            dtype = np.float64 if col.kind == "real" else np.int64
            values = np.zeros(n, dtype=dtype)
            for i, r in enumerate(rows):
                v = r.get(col.name)
                if v is None:
                    mask[i] = False
                else:
                    values[i] = v
        if not col.nullable and not mask.all():
            bad = int(np.flatnonzero(~mask)[0])
            raise CellParseError("NULL in non-nullable column", table=table,
                                 row=bad, column=col.name)
        vocab = None
        if col.kind == "categorical":
            vocab = sorted({v for v in values if v is not None})
        cols[col.name] = ColumnData(col.kind, values, mask, vocab)

    pk_col = cols[spec.primary_key]
    if not pk_col.mask.all():
        bad = int(np.flatnonzero(~pk_col.mask)[0])
        raise CellParseError("NULL primary key", table=table, row=bad,
                             column=spec.primary_key)
    pk = pk_col.values.astype(np.int64)
    uniq, counts = np.unique(pk, return_counts=True)
    if (counts > 1).any():
        dup = int(uniq[counts > 1][0])
        row = int(np.flatnonzero(pk == dup)[1])
        raise DuplicateKeyError(f"duplicate primary key {dup}", table=table,
                                row=row, column=spec.primary_key)
    return TableData(pk, cols)


def _check_referential_integrity(db: RelationalDatabase) -> None:
    for v in fd_violations(db):
        raise DanglingKeyError(f"dangling foreign key value {v.value}",
                               table=v.table, row=v.row, column=v.column)


def fd_violations(db: RelationalDatabase) -> list[FdViolation]:
    """Rows whose FK value does not resolve to exactly one referenced row."""
    out: list[FdViolation] = []
    for name, spec in db.specs.items():
        data = db.data[name]
        for fk in spec.foreign_keys:
            col = data.cols[fk.column]
            ref = db.data[fk.references]
            sorted_pk = np.sort(ref.pk)
            present = np.flatnonzero(col.mask)
            pos = lookup_positions(sorted_pk, col.values[present])
            for idx in np.flatnonzero(pos < 0):
                row = int(present[idx])
                out.append(FdViolation(name, row, fk.column,
                                       int(col.values[row])))
    return out


def build_database(specs: list[TableSpec], rows: dict[str, list[dict]]) -> RelationalDatabase:
    """Construct and fully validate a database from in-memory rows."""
    spec_map = {s.name: s for s in specs}
    _validate_schema(spec_map)
    data = {}
    for name, spec in spec_map.items():
        data[name] = _build_table(spec, rows.get(name, []), name)
    db = RelationalDatabase(spec_map, data)
    _check_referential_integrity(db)
    return db


# ---------------------------------------------------------------------------
# bundle IO
# ---------------------------------------------------------------------------

def _schema_entry(entry, what: str, keys: tuple[str, ...], **ctx) -> None:
    """SchemaError naming schema.json and the entry unless `entry` is an
    object whose `keys` all hold strings."""
    if not isinstance(entry, dict):
        raise SchemaError(f"schema.json: a {what} must be an object", **ctx)
    for key in keys:
        if not isinstance(entry.get(key), str):
            raise SchemaError(f"schema.json: a {what} needs a string {key!r}",
                              **ctx)


def _read_schema(schema_path: Path) -> list[TableSpec]:
    """The table specs in a bundle's schema.json. Invalid JSON, or a table,
    column or foreign key not shaped as `TableSpec.to_dict` writes it,
    raises SchemaError naming the file and the table, column or key."""
    try:
        with open(schema_path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise SchemaError(f"schema.json is not valid JSON: {exc}") from None
    if not isinstance(raw, dict) or not isinstance(raw.get("tables"), list):
        raise SchemaError("schema.json must hold an object with a 'tables' list")
    for t in raw["tables"]:
        _schema_entry(t, "table", ("name", "primary_key"))
        for key, default in (("columns", None), ("foreign_keys", [])):
            if not isinstance(t.get(key, default), list):
                raise SchemaError(f"schema.json: a table needs a {key!r} list",
                                  table=t["name"])
        for c in t["columns"]:
            _schema_entry(c, "column", ("name", "kind"), table=t["name"])
            if c["kind"] not in KINDS:
                raise SchemaError(f"schema.json: column kind {c['kind']!r} is "
                                  f"not one of {KINDS}", table=t["name"],
                                  column=c["name"])
        for fk in t.get("foreign_keys", []):
            _schema_entry(fk, "foreign key", ("column", "references"),
                          table=t["name"])
    return [TableSpec.from_dict(t) for t in raw["tables"]]


def ingest_bundle(path: str | Path) -> RelationalDatabase:
    path = Path(path)
    schema_path = path / "schema.json"
    if not schema_path.exists():
        raise MissingFileError(f"no schema.json under {path}")
    specs = _read_schema(schema_path)
    spec_map = {s.name: s for s in specs}
    _validate_schema(spec_map)

    data = {}
    for spec in specs:
        csv_path = path / f"{spec.name}.csv"
        if not csv_path.exists():
            raise MissingFileError(f"no CSV for declared table", table=spec.name)
        rows = []
        with open(csv_path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != spec.column_names:
                raise SchemaError(
                    f"CSV header {header!r} does not match schema columns "
                    f"{spec.column_names!r}", table=spec.name)
            for i, cells in enumerate(reader):
                if len(cells) != len(spec.columns):
                    raise SchemaError(f"row has {len(cells)} cells, expected "
                                      f"{len(spec.columns)}", table=spec.name, row=i)
                rows.append({c.name: _parse_cell(cell, c, spec.name, i)
                             for c, cell in zip(spec.columns, cells)})
        data[spec.name] = _build_table(spec, rows, spec.name)

    db = RelationalDatabase(spec_map, data)
    _check_referential_integrity(db)
    return db


def export_bundle(db: RelationalDatabase, path: str | Path,
                  task: TaskSpec | None = None) -> Path:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    schema = {"tables": [db.specs[name].to_dict() for name in db.table_names]}
    with open(path / "schema.json", "w", encoding="utf-8") as fh:
        json.dump(schema, fh, indent=2)
    for name, spec in db.specs.items():
        data = db.data[name]
        with open(path / f"{name}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(spec.column_names)
            for i in range(data.n_rows):
                writer.writerow([_render_cell(data.cols[c.name].cell(i), c.kind)
                                 for c in spec.columns])
    if task is not None:
        export_task(task, path / task.name)
    return path


def export_task(task: TaskSpec, path: str | Path) -> Path:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    meta = {
        "name": task.name,
        "task_type": task.task_type,
        "entity_table": task.entity_table,
        "target_table": task.target_table,
        "eval_k": task.eval_k,
        "split": list(task.split),
    }
    with open(path / "task.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
    for split in SPLITS:
        recs = task.labels.get(split)
        if recs is None:
            continue
        with open(path / f"task_{split}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            if task.task_type == "link_prediction":
                writer.writerow(["entity_id", "target_id", "timestamp", "label"])
                for i in range(len(recs)):
                    writer.writerow([int(recs.entity[i]), int(recs.target[i]),
                                     "%.17g" % recs.t_predict[i],
                                     "%.17g" % recs.label[i]])
            else:
                writer.writerow(["entity_id", "timestamp", "label"])
                for i in range(len(recs)):
                    writer.writerow([int(recs.entity[i]),
                                     "%.17g" % recs.t_predict[i],
                                     "%.17g" % recs.label[i]])
    return path


def _task_column(fpath: Path, rows: list[dict], column: str,
                 parse: type) -> np.ndarray:
    """One column of a task CSV: `int` ids as int64, `float` values as
    finite float64."""
    values = []
    for i, row in enumerate(rows):
        try:
            values.append(parse(row[column]))
        except (TypeError, ValueError) as exc:
            raise CellParseError(f"{fpath.name}: unparseable cell "
                                 f"{row[column]!r}", row=i, column=column) from exc
    if parse is int:
        try:
            return np.asarray(values, dtype=np.int64)
        except OverflowError:
            i = next(i for i, v in enumerate(values) if not -2**63 <= v < 2**63)
            raise CellParseError(f"{fpath.name}: id out of the int64 range",
                                 row=i, column=column) from None
    values = np.asarray(values, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raise CellParseError(f"{fpath.name}: non-finite cell",
                             row=int(bad[0]), column=column)
    return values


def load_task(path: str | Path, db: RelationalDatabase) -> TaskSpec:
    path = Path(path)
    meta_path = path / "task.json"
    if not meta_path.exists():
        raise MissingFileError(f"no task.json under {path}")
    try:
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"task.json is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise SchemaError("task.json must hold an object")
    missing = [k for k in ("task_type", "split", "entity_table") if k not in meta]
    if missing:
        raise SchemaError(f"task.json lacks required key {missing[0]!r}")
    task_type = meta["task_type"]
    if task_type not in TASK_TYPES:
        raise SchemaError(f"unknown task_type {task_type!r}")
    try:
        split = tuple(float(x) for x in meta["split"])
        eval_k = int(meta.get("eval_k", 10))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"task.json: bad split or eval_k: {exc}") from exc
    if len(split) != 3 or not (split[0] < split[1] < split[2]):
        raise SchemaError(f"split cut timestamps must be strictly increasing, "
                          f"got {split}")
    entity_table = meta["entity_table"]
    if entity_table not in db.specs:
        raise SchemaError(f"entity table {entity_table!r} not in schema")
    target_table = meta.get("target_table")
    if task_type == "link_prediction":
        if target_table is None or target_table not in db.specs:
            raise SchemaError(f"link prediction needs a valid target_table, "
                              f"got {target_table!r}")

    task = TaskSpec(
        name=meta.get("name", path.name),
        task_type=task_type,
        entity_table=entity_table,
        target_table=target_table,
        eval_k=eval_k,
        split=split,  # type: ignore[arg-type]
    )
    entity_pk = np.sort(db.data[entity_table].pk)
    target_pk = (np.sort(db.data[target_table].pk)
                 if target_table is not None else None)
    columns = ["entity_id", "timestamp", "label"]
    if task_type == "link_prediction":
        columns.append("target_id")
    for split_name in SPLITS:
        fpath = path / f"task_{split_name}.csv"
        if not fpath.exists():
            continue
        with open(fpath, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            absent = [c for c in columns if c not in (reader.fieldnames or ())]
            if absent:
                raise SchemaError(f"{fpath.name} lacks a column",
                                  column=absent[0])
            rows = list(reader)
        entity = _task_column(fpath, rows, "entity_id", int)
        bad = lookup_positions(entity_pk, entity) < 0
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise DanglingKeyError(f"{fpath.name}: label entity {int(entity[i])} "
                                   f"not in {entity_table}", row=i,
                                   column="entity_id")
        target = None
        if task_type == "link_prediction":
            target = _task_column(fpath, rows, "target_id", int)
            bad = lookup_positions(target_pk, target) < 0
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise DanglingKeyError(f"{fpath.name}: label target "
                                       f"{int(target[i])} not in {target_table}",
                                       row=i, column="target_id")
        label = _task_column(fpath, rows, "label", float)
        if task_type == "classification":
            bad = np.flatnonzero(~np.isin(label, (0.0, 1.0)))
            if len(bad):
                raise SchemaError(f"{fpath.name}: classification labels must "
                                  f"be 0/1", row=int(bad[0]), column="label")
        task.labels[split_name] = LabelRecords(
            entity=entity, t_predict=_task_column(fpath, rows, "timestamp",
                                                  float),
            label=label, target=target)
    return task


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def _canonical_cell(value, kind: str) -> str:
    if value is None:
        return "NULL"
    if kind == "real":
        return "%.17g" % value
    if kind == "categorical":
        return json.dumps(value, ensure_ascii=False)
    return str(value)


def canonical_form(db: RelationalDatabase) -> bytes:
    """Deterministic byte serialization: sorted tables, pk-sorted rows,
    schema-ordered columns, 17-significant-digit floats."""
    lines = []
    for name in sorted(db.table_names):
        spec = db.specs[name]
        data = db.data[name]
        lines.append(f"TABLE {name}")
        lines.append("SPEC " + json.dumps(spec.to_dict(), sort_keys=True))
        order = np.argsort(data.pk, kind="stable")
        for ri in order:
            cells = [_canonical_cell(data.cols[c.name].cell(int(ri)), c.kind)
                     for c in spec.columns]
            lines.append("ROW " + "|".join(cells))
    return ("\n".join(lines) + "\n").encode("utf-8")
