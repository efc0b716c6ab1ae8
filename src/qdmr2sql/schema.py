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

:class:`ValueIndex` answers "which text columns contain this literal?".  It
reads each text column once, on first use, into maps from exact and
case-folded values to columns, and probes per literal only the columns
those maps cannot answer for.  Numeric literals are never value-indexed;
comparison values are handled by the SQL mapper instead.
"""

from __future__ import annotations

import json
import re
import sqlite3
import string
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .errors import NoTables, UnreadableDatabase
from .text import content_lemmas, tokenize

__all__ = [
    "ColumnRef",
    "FKEdge",
    "SchemaGraph",
    "ValueIndex",
    "load_schema",
    "open_readonly",
    "quote_ident",
]

_NUMERIC = re.compile(r"[-+]?\d+(?:\.\d+)?")

_ASCII_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)

_BARE_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# https://sqlite.org/lang_keywords.html
_SQLITE_KEYWORDS = frozenset(
    """
    ABORT ACTION ADD AFTER ALL ALTER ALWAYS ANALYZE AND AS ASC ATTACH
    AUTOINCREMENT BEFORE BEGIN BETWEEN BY CASCADE CASE CAST CHECK COLLATE
    COLUMN COMMIT CONFLICT CONSTRAINT CREATE CROSS CURRENT CURRENT_DATE
    CURRENT_TIME CURRENT_TIMESTAMP DATABASE DEFAULT DEFERRABLE DEFERRED
    DELETE DESC DETACH DISTINCT DO DROP EACH ELSE END ESCAPE EXCEPT EXCLUDE
    EXCLUSIVE EXISTS EXPLAIN FAIL FILTER FIRST FOLLOWING FOR FOREIGN FROM
    FULL GENERATED GLOB GROUP GROUPS HAVING IF IGNORE IMMEDIATE IN INDEX
    INDEXED INITIALLY INNER INSERT INSTEAD INTERSECT INTO IS ISNULL JOIN KEY
    LAST LEFT LIKE LIMIT MATCH MATERIALIZED NATURAL NO NOT NOTHING NOTNULL
    NULL NULLS OF OFFSET ON OR ORDER OTHERS OUTER OVER PARTITION PLAN PRAGMA
    PRECEDING PRIMARY QUERY RAISE RANGE RECURSIVE REFERENCES REGEXP REINDEX
    RELEASE RENAME REPLACE RESTRICT RETURNING RIGHT ROLLBACK ROW ROWS
    SAVEPOINT SELECT SET TABLE TEMP TEMPORARY THEN TIES TO TRANSACTION
    TRIGGER UNBOUNDED UNION UNIQUE UPDATE USING VACUUM VALUES VIEW VIRTUAL
    WHEN WHERE WINDOW WITH WITHOUT
    """.split()
)

# A text column with more distinct values than this is probed per literal
# rather than held in the value maps.  The cap bounds memory, not time: on
# a 2-vCPU VM one column at the cap raises peak RSS by 22 MB (20-character
# values) to 30 MB (100-character) and takes 0.2 to 0.27 s to read, a read
# the per-example deadline does not yet cover.
_MAX_MAPPED_VALUES = 50_000


@lru_cache(maxsize=4096)  # rendering spells every FROM table of every candidate
def quote_ident(name: str) -> str:
    """``name`` spelled as an SQLite identifier.

    A plain name (letters, digits and ``_``, not starting with a digit)
    that is not an SQLite keyword stays bare; any other name is
    double-quoted, with each ``"`` inside it doubled.
    """
    if _BARE_IDENT.fullmatch(name) and name.upper() not in _SQLITE_KEYWORDS:
        return name
    return '"' + name.replace('"', '""') + '"'


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
    lemmas: Tuple[str, ...] = field(compare=False, default=())
    own_lemmas: Tuple[str, ...] = field(compare=False, default=())
    value_kind: str = field(compare=False, default="other")

    def __str__(self) -> str:
        return f"{self.table}.{self.column}"

    @cached_property
    def sql(self) -> str:
        """The column as a qualified SQL identifier; see :func:`quote_ident`."""
        return f"{quote_ident(self.table)}.{quote_ident(self.column)}"


@dataclass(frozen=True)
class FKEdge:
    """A declared foreign key, source column to target column."""

    source: ColumnRef
    target: ColumnRef


def _make_column(table: str, column: str, declared: str) -> ColumnRef:
    column_tokens = tokenize(column)
    return ColumnRef(
        table=table,
        column=column,
        lemmas=content_lemmas(tokenize(table) + column_tokens),
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

    def resolve(self, name: str) -> ColumnRef:
        """The column that ``name``, spelled ``table.column``, refers to.

        Table and column names may themselves hold dots, so the name is
        split at each dot in turn; exactly one split must name a column.
        """
        keys = [
            (name[:i].lower(), name[i + 1 :].lower())
            for i, char in enumerate(name)
            if char == "."
        ]
        if not keys:
            raise UnreadableDatabase(
                f"column {name} is not of the form table.column"
            )
        found = [self._by_name[key] for key in keys if key in self._by_name]
        if len(found) > 1:
            spellings = " or ".join(col.sql for col in found)
            raise UnreadableDatabase(f"ambiguous column {name}: {spellings}")
        if not found:
            raise UnreadableDatabase(f"unknown column {name}")
        return found[0]

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
    except sqlite3.Error as exc:
        raise UnreadableDatabase(f"cannot open {p}: {exc}") from exc
    try:
        # Reads the file header, which ``SELECT 1`` never touches.
        conn.execute("PRAGMA schema_version")
    except sqlite3.Error as exc:
        conn.close()
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
            f"PRAGMA table_info({quote_ident(name)})"
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
            conn.execute(f"PRAGMA foreign_key_list({quote_ident(name)})"),
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


def _json_text(value: object, what: str) -> str:
    """``value`` when it is a string SQLite can store, which is UTF-8."""
    if not isinstance(value, str):
        raise UnreadableDatabase(f"{what} must be a string, not {value!r}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise UnreadableDatabase(f"{what} {value!r} is not valid UTF-8") from None
    return value


def _json_object(value: object, what: str) -> dict:
    if not isinstance(value, dict):
        kind = type(value).__name__
        raise UnreadableDatabase(f"{what} must be an object, not {kind}")
    return value


def _load_json_schema(doc: dict) -> SchemaGraph:
    if not isinstance(doc, dict) or "tables" not in doc:
        raise UnreadableDatabase("schema document lacks a 'tables' object")
    tables = {}
    for name, cols in _json_object(doc["tables"], "'tables'").items():
        name = _json_text(name, "table name")
        tables[name] = [
            _make_column(
                name,
                _json_text(col, "column name"),
                _json_text(kind, f"type of {name}.{col}"),
            )
            for col, kind in _json_object(cols, f"columns of table {name}").items()
        ]
    graph = SchemaGraph(tables, [])
    fk_doc = _json_object(doc.get("foreign_keys") or {}, "'foreign_keys'")
    graph.fks = [
        FKEdge(
            graph.resolve(_json_text(src, "foreign key")),
            graph.resolve(_json_text(dst, f"target of foreign key {src}")),
        )
        for src, dst in fk_doc.items()
    ]
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


def _column_order(col: ColumnRef) -> Tuple[str, str]:
    return (col.table, col.column)


def _sqlite_fold(text: str) -> str:
    """``text`` as SQLite's built-in ``lower(trim(?))`` returns it: only
    spaces are trimmed and only ASCII letters are lowered."""
    return text.strip(" ").translate(_ASCII_LOWER)


def _text_affinity(declared: str) -> bool:
    """Whether SQLite gives a column of this declared type TEXT affinity."""
    t = (declared or "").upper()
    return "INT" not in t and any(s in t for s in ("CHAR", "CLOB", "TEXT"))


def _add(index: Dict[str, Tuple[ColumnRef, ...]], key: str, col: ColumnRef) -> None:
    # Columns arrive in (table, column) order, so a repeat is the last entry.
    have = index.get(key, ())
    if not have or have[-1] is not col:
        index[key] = have + (col,)


class ValueIndex:
    """Literal-to-column lookup over one database connection.

    A literal matches the text columns whose ``=`` holds it; when no column
    does, the columns where ``lower(trim(col)) = lower(trim(literal))``.
    On the first lookup every text column is read once, and two maps go
    from each exact and each folded value to its columns.  A column whose
    ``=`` a Python string comparison cannot reproduce (no TEXT affinity,
    or a COLLATE clause in its table) or with more distinct values than
    the cap is probed with one query per literal instead.  Results are
    memoized per literal, so the same literal always gets the same tuple
    back.  The connection must be read-only and must stay open for
    the index's lifetime.
    """

    def __init__(self, conn: sqlite3.Connection, schema: SchemaGraph):
        self._conn = conn
        self._schema = schema
        self._exact: Optional[Dict[str, Tuple[ColumnRef, ...]]] = None
        self._folded: Dict[str, Tuple[ColumnRef, ...]] = {}
        self._probed: List[ColumnRef] = []
        self._cache: Dict[str, Tuple[ColumnRef, ...]] = {}

    def columns_containing(self, literal: str) -> Tuple[ColumnRef, ...]:
        """All text columns holding ``literal``, sorted by (table, column)."""
        if _NUMERIC.fullmatch(literal.strip()):
            return ()
        if self._exact is None:
            self._build()
        if literal in self._cache:
            return self._cache[literal]
        hits = self._exact.get(literal, ()) + tuple(
            c for c in self._probed if self._contains(c, literal, fold=False)
        )
        if not hits:
            hits = self._folded.get(_sqlite_fold(literal), ()) + tuple(
                c for c in self._probed if self._contains(c, literal, fold=True)
            )
        result = tuple(sorted(hits, key=_column_order))
        self._cache[literal] = result
        return result

    def _build(self) -> None:
        """Read every text column the maps can serve into them, once."""
        exact: Dict[str, Tuple[ColumnRef, ...]] = {}
        folded: Dict[str, Tuple[ColumnRef, ...]] = {}
        probed: List[ColumnRef] = []
        columns = sorted(
            (c for c in self._schema.columns() if c.value_kind == "text"),
            key=_column_order,
        )
        comparable = {
            table: self._comparable_columns(table)
            for table in {c.table for c in columns}
        }
        for col in columns:
            rows = None
            if col.column in comparable[col.table]:
                rows = self._distinct_values(col)
            if rows is None:
                probed.append(col)
                continue
            for value, fold in rows:
                if isinstance(value, str):
                    _add(exact, value, col)
                if fold is not None:
                    _add(folded, fold, col)
        self._exact, self._folded, self._probed = exact, folded, probed

    def _comparable_columns(self, table: str) -> frozenset:
        """Columns of ``table`` whose ``=`` on a text operand is Python's
        string equality: TEXT affinity and the default BINARY collation."""
        try:
            row = self._conn.execute(
                "SELECT sql FROM sqlite_master WHERE type = 'table' AND name = ?",
                (table,),
            ).fetchone()
            if row is None or "COLLATE" in (row[0] or "").upper():
                return frozenset()
            info = self._conn.execute(
                f"PRAGMA table_info({quote_ident(table)})"
            ).fetchall()
        except sqlite3.Error:
            return frozenset()
        return frozenset(r[1] for r in info if _text_affinity(r[2]))

    def _distinct_values(self, col: ColumnRef) -> Optional[List[tuple]]:
        """Each distinct cell with its ``lower(trim())``, or None when the
        column is over the cap or cannot be read."""
        column = quote_ident(col.column)
        sql = (
            f"SELECT DISTINCT {column}, lower(trim({column}))"
            f" FROM {quote_ident(col.table)}"
        )
        try:
            cursor = self._conn.execute(sql)
            try:
                rows = cursor.fetchmany(_MAX_MAPPED_VALUES + 1)
            finally:
                cursor.close()
        except sqlite3.Error:
            return None
        return rows if len(rows) <= _MAX_MAPPED_VALUES else None

    def _contains(self, col: ColumnRef, literal: str, fold: bool) -> bool:
        column, value = quote_ident(col.column), "?"
        if fold:
            column, value = f"lower(trim({column}))", "lower(trim(?))"
        sql = (
            f"SELECT 1 FROM {quote_ident(col.table)}"
            f" WHERE {column} = {value} LIMIT 1"
        )
        try:
            return self._conn.execute(sql, (literal,)).fetchone() is not None
        except sqlite3.Error:
            return False
