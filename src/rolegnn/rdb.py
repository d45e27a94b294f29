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
        self.vocab = vocab  # set for categorical columns by from_columns


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


def _column(kind: str, cells: list) -> ColumnData:
    """A typed column from Python cells, None standing for NULL."""
    mask = np.array([v is not None for v in cells], dtype=bool)
    if kind == "categorical":
        return ColumnData(kind, [None if v is None else str(v) for v in cells],
                          mask)
    dtype = np.float64 if kind == "real" else np.int64
    return ColumnData(kind, np.array([0 if v is None else v for v in cells],
                                     dtype=dtype), mask)


_FORMATS = {"real": "%.17g".__mod__, "integer": "%d".__mod__,
            "datetime": "%d".__mod__}
_BLOCK = 8192  # rows rendered at once, which bounds the text held in memory


def _render_rows(columns: list[ColumnData], null: str, text=str,
                 order: np.ndarray | None = None):
    """Tuples of cell text per row, in `order` (storage order by default),
    rendered a block of whole columns at a time: reals with 17 significant
    digits, integers and datetimes as %d, categoricals through `text`, and
    `null` for NULL."""
    if order is None:
        order = np.arange(len(columns[0].mask))
    for start in range(0, len(order), _BLOCK):
        rows = order[start:start + _BLOCK]
        block = []
        for col in columns:
            values = ([col.values[i] for i in rows.tolist()]
                      if col.kind == "categorical" else col.values[rows].tolist())
            cells = list(map(_FORMATS.get(col.kind, text), values))
            for i in np.flatnonzero(~col.mask[rows]).tolist():
                cells[i] = null
            block.append(cells)
        yield from zip(*block)


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


def _table(spec: TableSpec, cols: dict[str, ColumnData]) -> TableData:
    for col in spec.columns:
        cd = cols[col.name]
        if not col.nullable and not cd.mask.all():
            bad = int(np.flatnonzero(~cd.mask)[0])
            raise CellParseError("NULL in non-nullable column", table=spec.name,
                                 row=bad, column=col.name)
        if col.kind == "categorical":
            cd.vocab = sorted({v for v in cd.values if v is not None})
        elif col.kind == "real":  # bounded as encoder statistics are
            bad = np.flatnonzero(cd.mask & ~(np.abs(cd.values) <= 1e150))
            if len(bad):
                raise CellParseError("real cell outside [-1e150, 1e150]",
                                     table=spec.name, row=int(bad[0]),
                                     column=col.name)

    pk_col = cols[spec.primary_key]
    if not pk_col.mask.all():
        bad = int(np.flatnonzero(~pk_col.mask)[0])
        raise CellParseError("NULL primary key", table=spec.name, row=bad,
                             column=spec.primary_key)
    pk = pk_col.values.astype(np.int64)
    uniq, counts = np.unique(pk, return_counts=True)
    if (counts > 1).any():
        dup = int(uniq[counts > 1][0])
        row = int(np.flatnonzero(pk == dup)[1])
        raise DuplicateKeyError(f"duplicate primary key {dup}", table=spec.name,
                                row=row, column=spec.primary_key)
    return TableData(pk, {c.name: cols[c.name] for c in spec.columns})


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


def from_columns(specs: list[TableSpec],
                 columns: dict[str, dict[str, ColumnData]]) -> RelationalDatabase:
    """The one table builder: validate typed columns, `columns[table][column]`
    for every declared column, into a database. NULLs in non-nullable
    columns, NULL or duplicate primary keys and dangling foreign keys are
    refused with their location; categorical columns get their vocabularies."""
    spec_map = {s.name: s for s in specs}
    _validate_schema(spec_map)
    data = {name: _table(spec, columns[name]) for name, spec in spec_map.items()}
    db = RelationalDatabase(spec_map, data)
    _check_referential_integrity(db)
    return db


def build_database(specs: list[TableSpec], rows: dict[str, list[dict]]) -> RelationalDatabase:
    """A database from in-memory rows, one dict per row; a missing key or
    None is NULL, a missing table is empty."""
    return from_columns(specs, {
        s.name: {c.name: _column(c.kind, [r.get(c.name) for r in rows.get(s.name, [])])
                 for c in s.columns}
        for s in specs})


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
    _validate_schema({s.name: s for s in specs})  # before any CSV is read

    columns = {}
    for spec in specs:
        csv_path = path / f"{spec.name}.csv"
        if not csv_path.exists():
            raise MissingFileError(f"no CSV for declared table", table=spec.name)
        cells: list[list] = [[] for _ in spec.columns]
        with open(csv_path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != spec.column_names:
                raise SchemaError(
                    f"CSV header {header!r} does not match schema columns "
                    f"{spec.column_names!r}", table=spec.name)
            for i, row in enumerate(reader):  # row-major: the first bad cell
                if len(row) != len(spec.columns):
                    raise SchemaError(f"row has {len(row)} cells, expected "
                                      f"{len(spec.columns)}", table=spec.name, row=i)
                for col, out, text in zip(spec.columns, cells, row):
                    out.append(_parse_cell(text, col, spec.name, i))
        columns[spec.name] = {c.name: _column(c.kind, v)
                              for c, v in zip(spec.columns, cells)}
    return from_columns(specs, columns)


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
            writer.writerows(_render_rows(
                [data.cols[c] for c in spec.column_names], ""))
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
        present = np.ones(len(recs), dtype=bool)
        columns = {"entity_id": ("integer", recs.entity),
                   "target_id": ("integer", recs.target),
                   "timestamp": ("real", recs.t_predict),
                   "label": ("real", recs.label)}
        if task.task_type != "link_prediction":
            del columns["target_id"]
        with open(path / f"task_{split}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(columns))
            writer.writerows(_render_rows(
                [ColumnData(kind, values, present)
                 for kind, values in columns.values()], ""))
    return path


def _task_column(fpath: Path, rows: list[list[str]], at: dict[str, int],
                 column: str, parse: type) -> np.ndarray:
    """One column of a task CSV: `int` ids as int64, `float` values as
    finite float64. A row too short to hold the column reads None."""
    j = at[column]
    values = []
    for i, row in enumerate(rows):
        text = row[j] if j < len(row) else None
        try:
            values.append(parse(text))
        except (TypeError, ValueError) as exc:
            raise CellParseError(f"{fpath.name}: unparseable cell {text!r}",
                                 row=i, column=column) from exc
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
    columns = ["entity_id", "timestamp", "label"]
    keys = {"entity_id": entity_table}  # label column -> the table it keys
    if task_type == "link_prediction":
        columns.append("target_id")
        keys["target_id"] = target_table
    sorted_pk = {c: np.sort(db.data[t].pk) for c, t in keys.items()}
    for split_name in SPLITS:
        fpath = path / f"task_{split_name}.csv"
        if not fpath.exists():
            continue
        with open(fpath, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            # as csv.DictReader: the last of a repeated name; no blank rows
            at = {name: j for j, name in enumerate(next(reader, []))}
            absent = [c for c in columns if c not in at]
            if absent:
                raise SchemaError(f"{fpath.name} lacks a column",
                                  column=absent[0])
            rows = [row for row in reader if row]
        ids = {}
        for column, table in keys.items():
            ids[column] = _task_column(fpath, rows, at, column, int)
            bad = lookup_positions(sorted_pk[column], ids[column]) < 0
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise DanglingKeyError(
                    f"{fpath.name}: label {column[:-3]} {int(ids[column][i])} "
                    f"not in {table}", row=i, column=column)
        label = _task_column(fpath, rows, at, "label", float)
        if task_type == "classification":
            bad = np.flatnonzero(~np.isin(label, (0.0, 1.0)))
            if len(bad):
                raise SchemaError(f"{fpath.name}: classification labels must "
                                  f"be 0/1", row=int(bad[0]), column="label")
        elif task_type == "regression":  # bounded as encoder statistics are
            bad = np.flatnonzero(np.abs(label) > 1e150)
            if len(bad):
                raise CellParseError(f"{fpath.name}: regression label outside "
                                     f"[-1e150, 1e150]", row=int(bad[0]),
                                     column="label")
        t_predict = _task_column(fpath, rows, at, "timestamp", float)
        bad = np.flatnonzero((t_predict < -2.0**63) | (t_predict >= 2.0**63))
        if len(bad):  # as table datetime cells
            raise CellParseError(f"{fpath.name}: timestamp out of the int64 "
                                 f"range", row=int(bad[0]), column="timestamp")
        task.labels[split_name] = LabelRecords(
            entity=ids["entity_id"], t_predict=t_predict, label=label,
            target=ids.get("target_id"))
    return task


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def _json_text(value: str) -> str:
    return json.dumps(value, ensure_ascii=False)


def canonical_form(db: RelationalDatabase) -> bytes:
    """Deterministic byte serialization: sorted tables, pk-sorted rows,
    schema-ordered columns, 17-significant-digit floats."""
    out = bytearray()  # each line is encoded as it is rendered
    for name in sorted(db.table_names):
        spec = db.specs[name]
        data = db.data[name]
        out += f"TABLE {name}\n".encode()
        out += f"SPEC {json.dumps(spec.to_dict(), sort_keys=True)}\n".encode()
        for row in _render_rows([data.cols[c] for c in spec.column_names],
                                "NULL", _json_text,
                                np.argsort(data.pk, kind="stable")):
            out += f"ROW {'|'.join(row)}\n".encode()
    return bytes(out)
