"""Database schema catalog: tables, columns, foreign keys, value lookup.

A schema comes from either a SQLite file (introspected via PRAGMA, opened
read-only) or a JSON document of the form::

    {
      "tables": {"ship": {"id": "number", "name": "text"}, ...},
      "foreign_keys": {"death.caused_by_ship_id": "ship.id", ...}
    }

Column references carry the tokenized and lemmatized forms used by the
phrase linker.  A column's token set includes its table-name tokens, so the
phrase "ships" can reach every column of table ``ship``.

:class:`ValueIndex` answers "which text columns contain this literal?" with
lazy, memoized database scans.  Numeric literals are never value-indexed;
comparison values are handled by the SQL mapper instead.
"""

from __future__ import annotations

import json
import re
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple, Union

from .errors import NoTables, UnreadableDatabase
from .text import content_lemmas, tokenize

__all__ = [
    "ColumnRef",
    "FKEdge",
    "SchemaGraph",
    "ValueIndex",
    "load_schema",
    "open_readonly",
]

_NUMERIC = re.compile(r"[-+]?\d+(?:\.\d+)?")


def _value_kind(declared: str) -> str:
    t = (declared or "").upper()
    if any(s in t for s in ("INT", "REAL", "FLOA", "DOUB", "NUM", "DEC")):
        return "number"
    if any(s in t for s in ("CHAR", "CLOB", "TEXT", "STRING")):
        return "text"
    if "DATE" in t or "TIME" in t:
        return "date"
    return "other"


@dataclass(frozen=True)
class ColumnRef:
    """A fully qualified column with its linkable token forms."""

    table: str
    column: str
    tokens: Tuple[str, ...] = field(compare=False, default=())
    lemmas: Tuple[str, ...] = field(compare=False, default=())
    own_lemmas: Tuple[str, ...] = field(compare=False, default=())
    value_kind: str = field(compare=False, default="other")

    def __str__(self) -> str:
        return f"{self.table}.{self.column}"

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.column}"


@dataclass(frozen=True)
class FKEdge:
    """A declared foreign key, source column to target column."""

    source: ColumnRef
    target: ColumnRef


def _make_column(table: str, column: str, declared: str) -> ColumnRef:
    table_tokens = tokenize(table)
    column_tokens = tokenize(column)
    tokens = table_tokens + column_tokens
    return ColumnRef(
        table=table,
        column=column,
        tokens=tokens,
        lemmas=content_lemmas(tokens),
        own_lemmas=content_lemmas(column_tokens),
        value_kind=_value_kind(declared),
    )


class SchemaGraph:
    """Tables, columns in declaration order, and the foreign-key graph."""

    def __init__(self, tables: Dict[str, List[ColumnRef]], fks: List[FKEdge]):
        if not tables:
            raise NoTables("schema declares no tables")
        self.tables: Dict[str, List[ColumnRef]] = tables
        self.fks: List[FKEdge] = fks
        self._by_name = {
            (c.table.lower(), c.column.lower()): c
            for cols in tables.values()
            for c in cols
        }

    def column(self, table: str, column: str) -> ColumnRef:
        try:
            return self._by_name[(table.lower(), column.lower())]
        except KeyError:
            raise UnreadableDatabase(f"unknown column {table}.{column}") from None

    def columns(self) -> List[ColumnRef]:
        """All columns, table declaration order then column order."""
        return [c for cols in self.tables.values() for c in cols]

    def table_adjacency(self) -> Dict[str, List[Tuple[str, FKEdge]]]:
        """Undirected adjacency: table -> [(neighbor, edge), ...].

        Edges keep declaration order, so the first declared foreign key
        between two tables is the first candidate for a join hop.
        """
        adj: Dict[str, List[Tuple[str, FKEdge]]] = {t: [] for t in self.tables}
        for edge in self.fks:
            adj[edge.source.table].append((edge.target.table, edge))
            adj[edge.target.table].append((edge.source.table, edge))
        return adj


def open_readonly(path: Union[str, Path]) -> sqlite3.Connection:
    """Open a SQLite file read-only; the engine rejects any write."""
    p = Path(path)
    if not p.exists():
        raise UnreadableDatabase(f"no such database file: {p}")
    try:
        conn = sqlite3.connect(f"file:{p}?mode=ro", uri=True)
        conn.execute("SELECT 1")
    except sqlite3.Error as exc:
        raise UnreadableDatabase(f"cannot open {p}: {exc}") from exc
    return conn


def _introspect_sqlite(conn: sqlite3.Connection) -> SchemaGraph:
    try:
        names = [
            r[0]
            for r in conn.execute(
                "SELECT name FROM sqlite_master"
                " WHERE type = 'table' AND name NOT LIKE 'sqlite_%'"
                " ORDER BY rowid"
            )
        ]
    except sqlite3.Error as exc:
        raise UnreadableDatabase(f"cannot introspect database: {exc}") from exc

    tables: Dict[str, List[ColumnRef]] = {}
    pks: Dict[str, str] = {}
    for name in names:
        cols = []
        for _, col, declared, _, _, pk in conn.execute(
            f'PRAGMA table_info("{name}")'
        ):
            cols.append(_make_column(name, col, declared))
            if pk and name not in pks:
                pks[name] = col
        tables[name] = cols
    graph = SchemaGraph(tables, [])

    fks: List[FKEdge] = []
    for name in names:
        # foreign_key_list numbers ids from the last declared key down, so
        # descending id recovers declaration order.
        rows = sorted(
            conn.execute(f'PRAGMA foreign_key_list("{name}")'),
            key=lambda r: (-r[0], r[1]),
        )
        for row in rows:
            fk_id, seq, target_table, src_col, dst_col = row[0], row[1], row[2], row[3], row[4]
            if seq != 0:
                continue  # composite keys: keep the leading pair only
            if dst_col is None:
                dst_col = pks.get(target_table)
                if dst_col is None:
                    continue
            try:
                fks.append(
                    FKEdge(graph.column(name, src_col), graph.column(target_table, dst_col))
                )
            except UnreadableDatabase:
                continue  # dangling declaration; skip the edge
    graph.fks = fks
    return graph


def _load_json_schema(doc: dict) -> SchemaGraph:
    try:
        table_doc = doc["tables"]
    except (TypeError, KeyError):
        raise UnreadableDatabase("schema document lacks a 'tables' object") from None
    tables = {
        name: [_make_column(name, col, kind) for col, kind in cols.items()]
        for name, cols in table_doc.items()
    }
    graph = SchemaGraph(tables, [])
    fks = []
    for src, dst in (doc.get("foreign_keys") or {}).items():
        st, sc = src.split(".", 1)
        dt, dc = dst.split(".", 1)
        fks.append(FKEdge(graph.column(st, sc), graph.column(dt, dc)))
    graph.fks = fks
    return graph


def load_schema(
    source: Union[str, Path, sqlite3.Connection, dict]
) -> SchemaGraph:
    """Load a schema from a SQLite file, a live connection, or a JSON doc."""
    if isinstance(source, sqlite3.Connection):
        return _introspect_sqlite(source)
    if isinstance(source, dict):
        return _load_json_schema(source)
    path = Path(source)
    if path.suffix.lower() == ".json":
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UnreadableDatabase(f"cannot read schema {path}: {exc}") from exc
        return _load_json_schema(doc)
    conn = open_readonly(path)
    try:
        return _introspect_sqlite(conn)
    finally:
        conn.close()


class ValueIndex:
    """Lazy literal-to-column lookup over one database connection.

    Lookups scan text-kind columns for an exact match first; when nothing
    matches exactly, a case-insensitive comparison on trimmed values runs as
    a fallback.  Results are memoized per literal.  The connection must be
    read-only and must stay open for the index's lifetime.
    """

    def __init__(self, conn: sqlite3.Connection, schema: SchemaGraph):
        self._conn = conn
        self._schema = schema
        self._cache: Dict[str, Tuple[ColumnRef, ...]] = {}

    def columns_containing(self, literal: str) -> Tuple[ColumnRef, ...]:
        """All text columns holding ``literal``, sorted by (table, column)."""
        if literal in self._cache:
            return self._cache[literal]
        result: Tuple[ColumnRef, ...] = ()
        if not _NUMERIC.fullmatch(literal.strip()):
            text_cols = [
                c for c in self._schema.columns() if c.value_kind == "text"
            ]
            exact = [c for c in text_cols if self._contains(c, literal, fold=False)]
            if exact:
                result = tuple(sorted(exact, key=lambda c: (c.table, c.column)))
            else:
                folded = [c for c in text_cols if self._contains(c, literal, fold=True)]
                result = tuple(sorted(folded, key=lambda c: (c.table, c.column)))
        self._cache[literal] = result
        return result

    def _contains(self, col: ColumnRef, literal: str, fold: bool) -> bool:
        if fold:
            sql = (
                f'SELECT 1 FROM "{col.table}"'
                f' WHERE lower(trim("{col.column}")) = lower(trim(?)) LIMIT 1'
            )
        else:
            sql = f'SELECT 1 FROM "{col.table}" WHERE "{col.column}" = ? LIMIT 1'
        try:
            return self._conn.execute(sql, (literal,)).fetchone() is not None
        except sqlite3.Error:
            return False
