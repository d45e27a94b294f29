"""Exception hierarchy. Bundle errors carry (table, row, column) context."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all package errors."""


class BundleError(EngineError):
    """Problem with an on-disk bundle or its contents."""

    def __init__(self, message: str, *, table: str | None = None,
                 row: int | None = None, column: str | None = None):
        self.table = table
        self.row = row
        self.column = column
        ctx = []
        if table is not None:
            ctx.append(f"table={table}")
        if row is not None:
            ctx.append(f"row={row}")
        if column is not None:
            ctx.append(f"column={column}")
        if ctx:
            message = f"{message} ({', '.join(ctx)})"
        super().__init__(message)


class MissingFileError(BundleError):
    pass


class SchemaError(BundleError):
    pass


class CellParseError(BundleError):
    pass


class DuplicateKeyError(BundleError):
    pass


class DanglingKeyError(BundleError):
    pass


class GraphError(EngineError):
    pass


class PathCapExceeded(GraphError):
    """Projected path-relation size exceeds the configured cap."""

    def __init__(self, triple_id: str, projected: int, cap: int):
        self.triple_id = triple_id
        self.projected = projected
        self.cap = cap
        super().__init__(
            f"path relation {triple_id} would materialize {projected} instances"
            f" (cap {cap})")


class ProvenanceError(GraphError):
    """Reconstruction is impossible because provenance metadata is missing."""


class RoleError(GraphError):
    """A role assignment names an unknown relation triple or gives one a
    role that is none of "node", "edge", "learn" and a gate in [0, 1]."""


class ShapeError(EngineError):
    """Tensor shape mismatch; message names the offending shapes."""


class CheckpointMismatch(EngineError):
    """Checkpoint is incompatible with the given database schema or task, or
    its files are unreadable (truncated or inconsistent)."""


class TrainingDiverged(EngineError):
    """Non-finite loss encountered; carries diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        self.diagnostics = diagnostics or {}
        super().__init__(message)
