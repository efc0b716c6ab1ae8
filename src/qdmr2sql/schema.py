"""Database schema catalog: tables, columns, foreign keys, value lookup.

A schema comes from either a SQLite file (introspected via PRAGMA, opened
read-only) or a JSON document of the form::

    {
      "tables": {"ship": {"id": "number", "name": "text"}, ...},
      "foreign_keys": {"death.caused_by_ship_id": "ship.id", ...}
    }

Column references carry the tokenized and lemmatized forms used by the
phrase linker.  A column's token set includes its table-name tokens, so the
phrase "ships" can reach every column of table ``ship``.  Introspection
also records how a literal is looked up in each column (``lookup``), from
its declared type and whether SQLite compares it under a collation.

:class:`ValueIndex` answers "which text columns contain this literal?".  Its
constructor reads each mappable column once into maps from exact and
case-folded values to columns; lookups probe per literal only the columns
those maps cannot answer for.  Numeric literals are never value-indexed;
comparison values are handled by the SQL mapper instead.  The index runs
its statements through its database's ``fetch``, so a lookup that meets
the database's deadline raises :class:`~qdmr2sql.errors.ExecutionTimeout`;
nothing is memoized for it.
"""

from __future__ import annotations

import json
import re
import sqlite3
import string
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from .errors import ExecutionTimeout, NoTables, SqlError, UnreadableDatabase
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

# ``table.column`` where either part may be a double-quoted identifier.
_NAME_PART = r'("(?:[^"]|"")*"|[^."]+)'
_QUOTED_NAME = re.compile(rf"{_NAME_PART}\.{_NAME_PART}")

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
# made when the index is built, which a search session does when it opens.
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


def _lookup(declared: str, collated: bool) -> Optional[str]:
    """How a literal is looked up in a column of type ``declared``: None
    for a non-text type; ``"probe"`` where Python string equality cannot
    reproduce the column's ``=`` (a STRING type has NUMERIC affinity, and
    ``collated`` marks a column compared under a collation other than
    BINARY); ``"map"`` otherwise."""
    t = (declared or "").upper()
    if any(s in t for s in ("INT", "REAL", "FLOA", "DOUB", "NUM", "DEC")):
        return None
    if any(s in t for s in ("CHAR", "CLOB", "TEXT")):
        return "probe" if collated else "map"
    return "probe" if "STRING" in t else None


@dataclass(frozen=True)
class ColumnRef:
    """A fully qualified column with its linkable token forms, how a
    literal is looked up in it (``"map"``, ``"probe"`` or None, see
    :class:`ValueIndex`) and whether SQLite compares it under a collation
    other than BINARY, under which ``=`` and DISTINCT may merge values
    that differ as Python strings."""

    table: str
    column: str
    lemmas: Tuple[str, ...] = field(compare=False, default=())
    own_lemmas: Tuple[str, ...] = field(compare=False, default=())
    lookup: Optional[str] = field(compare=False, default=None)
    collated: bool = field(compare=False, default=False)

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


def _make_column(
    table: str, column: str, declared: str, collated: bool = False
) -> ColumnRef:
    column_tokens = tokenize(column)
    return ColumnRef(
        table=table,
        column=column,
        lemmas=content_lemmas(tokenize(table) + column_tokens),
        own_lemmas=content_lemmas(column_tokens),
        lookup=_lookup(declared, collated),
        collated=collated,
    )


class SchemaGraph:
    """Tables, columns in declaration order, and the foreign-key graph as
    undirected ``adjacency``: table -> [(neighbor, edge), ...], edges in
    declaration order, so the first declared key is a hop's first choice.
    ``parallel_columns``: the columns of the keys that share their pair of
    tables with another key, the only anchors that can pick an edge."""

    def __init__(self, tables: Dict[str, List[ColumnRef]], fks: Sequence[FKEdge]):
        if not tables:
            raise NoTables("schema declares no tables")
        self.tables: Dict[str, List[ColumnRef]] = tables
        self.fks: Tuple[FKEdge, ...] = tuple(fks)
        self._by_name = {
            (c.table.lower(), c.column.lower()): c
            for cols in tables.values()
            for c in cols
        }
        self.adjacency: Dict[str, List[Tuple[str, FKEdge]]] = {t: [] for t in tables}
        for edge in self.fks:
            self.adjacency[edge.source.table].append((edge.target.table, edge))
            self.adjacency[edge.target.table].append((edge.source.table, edge))
        pairs = Counter(frozenset((e.source.table, e.target.table)) for e in self.fks)
        self.parallel_columns: FrozenSet[ColumnRef] = frozenset(chain.from_iterable(
            (e.source, e.target) for e in self.fks
            if pairs[frozenset((e.source.table, e.target.table))] > 1))

    def column(self, table: str, column: str) -> ColumnRef:
        try:
            return self._by_name[(table.lower(), column.lower())]
        except KeyError:
            raise UnreadableDatabase(f"unknown column {table}.{column}") from None

    def resolve(self, name: str) -> ColumnRef:
        """The column that ``name``, spelled ``table.column``, refers to.

        A spelling that quotes a part, as :attr:`ColumnRef.sql` does, names
        one column.  Unquoted table and column names may themselves hold
        dots, so such a name is split at each dot in turn; exactly one
        split must name a column.
        """
        quoted = _QUOTED_NAME.fullmatch(name) if '"' in name else None
        if quoted:
            # A quoted part drops its quotes and halves each doubled quote.
            keys = [tuple(
                (p[1:-1].replace('""', '"') if p[0] == '"' else p).lower()
                for p in quoted.groups()
            )]
        else:
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


def open_readonly(path: Union[str, Path]) -> sqlite3.Connection:
    """Open a SQLite file read-only; the engine rejects any write."""
    p = Path(path)
    if not p.exists():
        raise UnreadableDatabase(f"no such database file: {p}")
    try:
        # as_uri() escapes '#', '?' and '%', which would otherwise end or
        # alter the path part of the URI.
        conn = sqlite3.connect(p.resolve().as_uri() + "?mode=ro", uri=True)
    except sqlite3.Error as exc:
        raise UnreadableDatabase(f"cannot open {p}: {exc}") from exc
    try:
        # Reads the file header, which ``SELECT 1`` never touches.
        conn.execute("PRAGMA schema_version")
    except sqlite3.Error as exc:
        conn.close()
        raise UnreadableDatabase(f"cannot open {p}: {exc}") from exc
    return conn


def _collated(conn: sqlite3.Connection, table: str, column: str) -> bool:
    """Whether SQLite compares ``column`` under a collation other than
    BINARY: a UNION takes its leftmost column's collation, and only BINARY
    keeps 'a', 'A' and 'a ' apart.  An unknown collation fails and counts."""
    try:
        return conn.execute(
            f"SELECT count(*) FROM (SELECT {quote_ident(column)}"
            f" FROM {quote_ident(table)} WHERE 0"
            " UNION SELECT 'a' UNION SELECT 'A' UNION SELECT 'a ')"
        ).fetchone()[0] != 3
    except sqlite3.Error:
        return True


def _introspect_sqlite(conn: sqlite3.Connection) -> SchemaGraph:
    try:
        table_names = [name for name, in conn.execute(
            "SELECT name FROM sqlite_master"
            " WHERE type = 'table' AND name NOT LIKE 'sqlite_%' ORDER BY rowid"
        )]
    except sqlite3.Error as exc:
        raise UnreadableDatabase(f"cannot introspect database: {exc}") from exc

    tables: Dict[str, List[ColumnRef]] = {}
    pks: Dict[str, str] = {}  # lowercased table name -> its leading key column
    keys: Dict[str, list] = {}
    for name in table_names:
        try:
            info = conn.execute(f"PRAGMA table_info({quote_ident(name)})").fetchall()
            keys[name] = conn.execute(
                f"PRAGMA foreign_key_list({quote_ident(name)})"
            ).fetchall()
        except sqlite3.Error:
            continue  # say, a virtual table whose module this SQLite lacks
        cols = []
        for _, col, declared, _, _, pk in info:
            cols.append(_make_column(name, col, declared, _collated(conn, name, col)))
            if pk == 1:  # the key's first column, wherever it is declared
                pks[name.lower()] = col
        tables[name] = cols
    names = SchemaGraph(tables, ())  # finds the columns the keys name

    fks: List[FKEdge] = []
    for name, rows in keys.items():
        # foreign_key_list numbers ids from the last declared key down, so
        # descending id recovers declaration order.
        for row in sorted(rows, key=lambda r: (-r[0], r[1])):
            fk_id, seq, target_table, src_col, dst_col = row[0], row[1], row[2], row[3], row[4]
            if seq != 0:
                continue  # composite keys: keep the leading pair only
            if dst_col is None:
                dst_col = pks.get(target_table.lower())
                if dst_col is None:
                    continue
            try:
                fks.append(
                    FKEdge(names.column(name, src_col), names.column(target_table, dst_col))
                )
            except UnreadableDatabase:
                continue  # dangling declaration; skip the edge
    return SchemaGraph(tables, fks)


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
    names = SchemaGraph(tables, ())  # finds the columns the keys name
    fk_doc = _json_object(doc.get("foreign_keys") or {}, "'foreign_keys'")
    return SchemaGraph(tables, [
        FKEdge(
            names.resolve(_json_text(src, "foreign key")),
            names.resolve(_json_text(dst, f"target of foreign key {src}")),
        )
        for src, dst in fk_doc.items()
    ])


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


def _add(index: Dict[str, Tuple[ColumnRef, ...]], key: str, col: ColumnRef) -> None:
    # Columns arrive in (table, column) order, so a repeat is the last entry.
    have = index.get(key, ())
    if not have or have[-1] is not col:
        index[key] = have + (col,)


class ValueIndex:
    """Literal-to-column lookup over one database, read through the
    ``fetch`` of an executor ``Database``.

    A literal matches the text columns whose ``=`` holds it; when no column
    does, the columns where ``lower(trim(col)) = lower(trim(literal))``.
    The constructor reads every ``"map"`` column (see
    :attr:`ColumnRef.lookup`) once, into two maps from each exact and each
    folded value to its columns, and reads nothing else about the schema.
    A ``"probe"`` column, or one with more distinct values than the cap, is
    probed with one query per literal instead.  Results are memoized per
    literal, so the same literal always gets the same tuple back; a lookup
    that meets the database's deadline, before or during a probe, raises
    :class:`~qdmr2sql.errors.ExecutionTimeout` and memoizes nothing.  The
    database must be read-only and must stay open for the index's
    lifetime.
    """

    def __init__(self, database, schema: SchemaGraph):
        self._db = database
        self._exact: Dict[str, Tuple[ColumnRef, ...]] = {}
        self._folded: Dict[str, Tuple[ColumnRef, ...]] = {}
        self._probed: List[ColumnRef] = []
        self._cache: Dict[str, Tuple[ColumnRef, ...]] = {}
        for col in sorted(schema.columns(), key=_column_order):
            if col.lookup is None:
                continue
            rows = self._distinct_values(col) if col.lookup == "map" else None
            if rows is None:
                self._probed.append(col)
                continue
            for value, fold in rows:
                if isinstance(value, str):
                    _add(self._exact, value, col)
                if fold is not None:
                    _add(self._folded, fold, col)

    def columns_containing(self, literal: str) -> Tuple[ColumnRef, ...]:
        """All text columns holding ``literal``, sorted by (table, column)."""
        if _NUMERIC.fullmatch(literal.strip()):
            return ()
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

    def _distinct_values(self, col: ColumnRef) -> Optional[List[tuple]]:
        """Each distinct cell with its ``lower(trim())``, or None when the
        column is over the cap or cannot be read.

        SQLite gathers and counts the first cap + 1 distinct cells itself
        and returns them only when they are within the cap, so an over-cap
        column sends no row back, and only distinct cells are folded."""
        # Qualified, so that a table named d is not read as the CTE.
        table = "main." + quote_ident(col.table)
        sql = (
            f"WITH d AS (SELECT DISTINCT {quote_ident(col.column)} AS v"
            f" FROM {table} LIMIT {_MAX_MAPPED_VALUES + 1})"
            f" SELECT v, lower(trim(v)) FROM d"
            f" WHERE (SELECT COUNT(*) FROM d) <= {_MAX_MAPPED_VALUES}"
        )
        try:
            rows = self._db.fetch(sql)
            # No row comes back from an empty table or an over-cap column.
            if not rows and self._db.fetch(f"SELECT EXISTS (SELECT 1 FROM {table})")[0][0]:
                return None
        except ExecutionTimeout:
            raise
        except SqlError:
            return None
        return rows

    def _contains(self, col: ColumnRef, literal: str, fold: bool) -> bool:
        column, value = quote_ident(col.column), "?"
        if fold:
            column, value = f"lower(trim({column}))", "lower(trim(?))"
        sql = (
            f"SELECT 1 FROM {quote_ident(col.table)}"
            f" WHERE {column} = {value} LIMIT 1"
        )
        try:
            return bool(self._db.fetch(sql, (literal,)))
        except ExecutionTimeout:
            raise
        except SqlError:
            return False
