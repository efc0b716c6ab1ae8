"""Read-only SQL execution and denotation comparison.

A denotation is the result of a query: a collection of rows of cells.
It holds each cell in the one form the comparison reads, the canonical
cell: null stays null, a number (a boolean included) becomes a float, and
text (a BLOB decoded as UTF-8) loses its trailing whitespace.  A cell
only matches a cell of its own kind, and its kind is the type of its
canonical form: ``NoneType``, ``float`` or ``str``.  Two denotations
are compared as sets of tuples: row order and duplicates are irrelevant,
and column names are never part of the comparison.  Numbers match under a
relative tolerance so that float formatting differences across aggregate
functions do not matter.

By default two empty denotations do NOT compare equal.  An empty result is
most often a spurious query rather than a correct one, so an empty answer
only matches when the caller opts in with ``allow_empty``.

A candidate runs in one mode only, the one the search needs: against its
target answer and under the database's deadline.  Rows are read one at a
time until the first one outside the target, because that row alone
already makes the comparison fail; results are often far larger than the
answer, and reading them to the end would cost most of the search.  Such
a row decides the comparison where it is read: the result says so
(:attr:`Execution.mismatch`), and only a result whose every row lies in
the target is left for :func:`denotations_equal` to decide.  One loop,
:func:`read_until_mismatch`, reads rows so, whether they are the rows of
the query's own statement (:meth:`Database.execute`) or one column of a
wider statement it shares with other queries over the same rows, each
cell a row of its own (:meth:`Database.execute_columns`).  A shared
statement runs once and all its columns are read in one pass over its
rows: each row is fetched once, as far as the column read furthest
needs it, and kept for the columns read after it (:func:`itertools.tee`),
so a query that runs its own statement pays nothing for the sharing.
The :class:`Database` runs every other statement of a session too
(:meth:`Database.fetch`), so its deadline bounds each one, and only this
module tells a statement the deadline aborted from an engine error.  It
writes one of them: the census of each column's cell kinds
(:func:`kind_census`).

:meth:`Database.open` reads a file once, into a private in-memory copy
with each foreign-key child column indexed, so every statement on it
reads one snapshot, takes no file lock, and joins on a key without
building an index first.  The copy costs about the file's size in memory.
"""

from __future__ import annotations

import math
import sqlite3
import time
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import tee
from operator import itemgetter
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple, Union

from .errors import ExecutionTimeout, SqlError, UnreadableDatabase
from .schema import ColumnRef, SchemaGraph, open_readonly, quote_ident

__all__ = [
    "Cell",
    "Denotation",
    "Execution",
    "Database",
    "denotations_equal",
    "read_until_mismatch",
    "normalize_answer",
    "answer_denotation",
    "kind_census",
]

Cell = Union[None, float, str]

NUMERIC_TOLERANCE = 1e-6


# The kinds of cell the comparison tells apart, as the types of canonical
# cells: a cell only ever matches a cell of its own kind (see
# ``_cells_match``).
NULL, NUMBER, TEXT = type(None), float, str

# The kind of cell each storage class that SQLite's ``typeof`` names is read
# as; BLOBs decode to text.
_TYPEOF_KINDS = {
    "null": NULL, "integer": NUMBER, "real": NUMBER, "text": TEXT, "blob": TEXT,
}


def _canon(value) -> Cell:
    """The canonical cell of a value read from SQLite or given in an answer."""
    if isinstance(value, str):
        return value.rstrip()
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, bytes):
        return value.decode("utf-8", "replace").rstrip()
    return value


@dataclass(frozen=True)
class Denotation:
    """The rows a query evaluates to, in read order and with duplicates
    kept, each cell canonical (see :func:`_canon`); the kind of a cell is
    its type."""

    rows: Tuple[Tuple[Cell, ...], ...]

    def __len__(self) -> int:
        return len(self.rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> "Denotation":
        return cls(rows=tuple(tuple(map(_canon, row)) for row in rows))

    @cached_property
    def _distinct(self) -> FrozenSet[Tuple[Cell, ...]]:
        return frozenset(self.rows)

    @cached_property
    def kinds(self) -> FrozenSet[Tuple[type, ...]]:
        """The distinct rows with every cell replaced by its kind."""
        return frozenset(tuple(map(type, row)) for row in self._distinct)


@dataclass(frozen=True)
class Execution(Denotation):
    """The rows :meth:`Database.execute` read, in read order.  ``mismatch``
    is whether the last of them matches no row of the target, which alone
    makes :func:`denotations_equal` against the target false; when it is
    False, every row of the result was read and lies in the target."""

    mismatch: bool


_SCALARS = (int, float, str, bool)


def normalize_answer(answer) -> List[list]:
    """A supervised answer as rows of cells.

    A scalar becomes one cell, a flat list of scalars one column, and a
    list of rows (lists or tuples) passes through.  Raises ValueError on
    any other shape, on a cell that is not null or a canonical scalar, and
    on a NaN cell, which no cell matches.  An infinite cell is kept: SQLite
    yields infinities, and an infinite cell matches an equal one.
    """
    if answer is None or isinstance(answer, _SCALARS):
        answer = [answer]
    elif not isinstance(answer, (list, tuple)):
        raise ValueError(
            f"answer must be a scalar or list, got {type(answer).__name__}"
        )
    rows: List[list] = []
    for item in answer:
        if isinstance(item, (list, tuple)):
            row = list(item)
        elif item is None or isinstance(item, _SCALARS):
            row = [item]
        else:
            raise ValueError("answer rows must be lists or scalars")
        for cell in row:
            if not (cell is None or isinstance(cell, _SCALARS)):
                raise ValueError("answer cells must be scalars or null")
            if type(cell) is int:  # the one scalar _canon can fail on
                try:
                    float(cell)
                except OverflowError:
                    raise ValueError("answer number too large for a float") from None
            elif type(cell) is float and math.isnan(cell):
                raise ValueError("answer cell NaN matches no cell")
        rows.append(row)
    return rows


def answer_denotation(answer) -> Denotation:
    """The denotation of a supervised answer; see :func:`normalize_answer`."""
    return Denotation.from_rows(normalize_answer(answer))


# How many virtual-machine steps run between deadline checks.
_PROGRESS_GRANULARITY = 1000


class Database:
    """A read-only connection to one SQLite database and the deadline of
    its search, under which it runs every statement a session issues."""

    def __init__(self, conn: sqlite3.Connection):
        self.conn = conn
        self.deadline = math.inf

    @classmethod
    def open(cls, path: Union[str, Path]) -> "Database":
        """A private in-memory copy of the file at ``path``, about its size,
        with an index on each foreign-key child column the engine can build;
        the engine rejects every write to it."""
        source, conn = open_readonly(path), sqlite3.connect(":memory:")
        try:
            source.backup(conn)
            keys = conn.execute(  # each table's foreign-key child columns
                'SELECT DISTINCT m.name, f."from" FROM sqlite_master AS m,'
                " pragma_foreign_key_list(m.name) AS f WHERE m.type = 'table'"
            ).fetchall()
        except sqlite3.Error as exc:
            conn.close()
            raise UnreadableDatabase(f"cannot open {Path(path)}: {exc}") from exc
        finally:
            source.close()
        for i, (table, column) in enumerate(keys):
            with suppress(sqlite3.Error):  # say, under a collation this process lacks
                conn.execute(f"CREATE INDEX qdmr2sql_fk_{i} ON"
                             f" {quote_ident(table)} ({quote_ident(column)})")
        conn.execute("PRAGMA query_only = ON")
        return cls(conn)

    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def set_deadline(self, deadline: float) -> None:
        """Abort each statement on the connection, row reads included, once
        ``time.monotonic()`` passes ``deadline``, by the engine's progress
        hook; ``math.inf`` lifts it.  See :func:`_interrupted`."""
        self.deadline = deadline
        hook = None if deadline == math.inf else self.past_deadline
        self.conn.set_progress_handler(hook, _PROGRESS_GRANULARITY)

    def past_deadline(self) -> bool:
        """Whether ``time.monotonic()`` has passed the deadline."""
        return time.monotonic() > self.deadline

    def execute(self, sql: str, target: Denotation) -> Execution:
        """Run one statement and read its rows until the first one that
        matches no row of ``target`` (see :func:`read_until_mismatch`).

        The statement is aborted once the database's deadline passes
        (:meth:`set_deadline`), and does not start after it: a run of
        statements each shorter than the hook's interval might never fire
        the hook.  Both raise :class:`~qdmr2sql.errors.ExecutionTimeout`.
        """
        if self.past_deadline():
            raise ExecutionTimeout("query ran past its deadline")
        try:
            cursor = self.conn.execute(sql)
            try:
                return read_until_mismatch(cursor, target)
            finally:
                cursor.close()  # resets the statement
        except sqlite3.Error as exc:
            raise _engine_error(exc) from exc

    def execute_columns(self, sql: str, target: Denotation) -> Tuple[Execution, ...]:
        """Run one statement and read each of its columns as a result of its
        own, as rows of one cell (see :func:`read_until_mismatch`), in one
        pass over its rows, with the errors and deadline of :meth:`execute`."""
        if self.past_deadline():
            raise ExecutionTimeout("query ran past its deadline")
        try:
            cursor = self.conn.execute(sql)
            try:
                columns = tee(cursor, len(cursor.description))
                return tuple(
                    read_until_mismatch(zip(map(itemgetter(i), rows)), target)
                    for i, rows in enumerate(columns)
                )
            finally:
                cursor.close()  # resets the statement
        except sqlite3.Error as exc:
            raise _engine_error(exc) from exc

    def fetch(self, sql: str, params: Sequence = ()) -> List[tuple]:
        """Run a statement that is not a candidate and return all its rows,
        with the errors and deadline of :meth:`execute`."""
        if self.past_deadline():
            raise ExecutionTimeout("query ran past its deadline")
        try:
            return self.conn.execute(sql, params).fetchall()
        except sqlite3.Error as exc:
            raise _engine_error(exc) from exc


Census = Dict[ColumnRef, FrozenSet[type]]


def kind_census(database: Database, schema: SchemaGraph) -> Census:
    """The kinds of cell each column of ``schema`` holds, read in one pass
    over each table that returns one row of at most five type names per
    column; the columns of a table that cannot be read may hold any kind."""
    census: Census = {}
    for table, cols in schema.tables.items():
        types = ", ".join(f"group_concat(DISTINCT typeof({col.sql}))" for col in cols)
        try:
            row, = database.fetch(f"SELECT {types} FROM {quote_ident(table)}")
        except ExecutionTimeout:
            raise
        except SqlError:
            census.update(dict.fromkeys(cols, frozenset((NULL, NUMBER, TEXT))))
            continue
        for col, names in zip(cols, row):
            census[col] = frozenset(
                _TYPEOF_KINDS[name] for name in (names.split(",") if names else ())
            )
    return census


def _interrupted(exc: sqlite3.Error) -> bool:
    """Whether the engine aborted the statement because its progress hook,
    which only :meth:`Database.set_deadline` installs, asked it to."""
    return isinstance(exc, sqlite3.OperationalError) and str(exc) == "interrupted"


def _engine_error(exc: sqlite3.Error) -> Exception:
    """What a statement the engine failed raises: a timeout when the
    deadline interrupted it, else :class:`SqlError`."""
    if _interrupted(exc):
        return ExecutionTimeout("query ran past its deadline")
    return SqlError(str(exc))


def read_until_mismatch(rows: Iterable[Sequence], target: Denotation) -> Execution:
    """Read ``rows`` until the first one that matches no row of ``target``,
    neither exactly nor within the numeric tolerance.

    That row alone makes :func:`denotations_equal` against ``target``
    false, which the result records as its ``mismatch``; every row before
    it matches, so the verdict on the rows read equals the verdict on all
    of ``rows``.  ``len`` of the result counts the rows read.  ``rows``
    are a statement's whole rows or one of its columns as rows of one cell
    (see :meth:`Database.execute_columns`).
    """
    wanted = target._distinct
    read: List[Tuple[Cell, ...]] = []
    for raw in rows:
        row = tuple(map(_canon, raw))
        read.append(row)
        if row not in wanted and not any(_rows_match(row, t) for t in wanted):
            return Execution(rows=tuple(read), mismatch=True)
    return Execution(rows=tuple(read), mismatch=False)


def _numbers_close(x: float, y: float) -> bool:
    scale = max(1.0, abs(x), abs(y))
    if scale == math.inf:
        # The tolerance would be infinite too: an infinite cell matches
        # only an equal one.
        return x == y
    return abs(x - y) <= NUMERIC_TOLERANCE * scale


def _cells_match(a: Cell, b: Cell) -> bool:
    """Whether two canonical cells (see :func:`_canon`) match."""
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, float) and isinstance(b, float):
        return _numbers_close(a, b)
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    return False


def _rows_match(a: Tuple[Cell, ...], b: Tuple[Cell, ...]) -> bool:
    return len(a) == len(b) and all(map(_cells_match, a, b))


def denotations_equal(
    a: Denotation, b: Denotation, allow_empty: bool = False
) -> bool:
    """Set equality of two denotations under cell normalization."""
    if not a.rows and not b.rows:
        return allow_empty
    if not a.rows or not b.rows:
        return False
    set_a, set_b = a._distinct, b._distinct
    if {len(r) for r in set_a} != {len(r) for r in set_b}:
        return False
    if set_a == set_b:
        return True
    # Exact normalization misses float noise; fall back to tolerant
    # mutual coverage over the deduplicated rows.
    return all(any(_rows_match(ra, rb) for rb in set_b) for ra in set_a) and all(
        any(_rows_match(ra, rb) for ra in set_a) for rb in set_b
    )
