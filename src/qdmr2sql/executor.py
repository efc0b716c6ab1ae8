"""Read-only SQL execution and denotation comparison.

A denotation is the result of a query: a collection of rows of cells,
where a cell is null, a number, or text.  Two denotations are
compared as sets of tuples: row order and duplicates are irrelevant, and
column names are never part of the comparison.  Numbers match under a
relative tolerance so that 5 equals 5.0 and float formatting differences
across aggregate functions do not matter; text matches after trailing
whitespace is trimmed.

By default two empty denotations do NOT compare equal.  An empty result is
most often a spurious query rather than a correct one, so an empty answer
only matches when the caller opts in with ``allow_empty``.

A candidate query is executed against its target answer: rows are read
one at a time until the first one outside the target, because that row
alone already makes the comparison fail.  Results are often far larger
than the answer, and reading them to the end would cost most of the
search.
"""

from __future__ import annotations

import math
import sqlite3
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import ExecutionTimeout, SqlError
from .schema import open_readonly

__all__ = [
    "Cell",
    "Denotation",
    "Database",
    "denotations_equal",
    "normalize_answer",
    "answer_denotation",
]

Cell = Union[None, int, float, str]

NUMERIC_TOLERANCE = 1e-6

# How many virtual-machine steps run between deadline checks.
_PROGRESS_GRANULARITY = 1000


def _cell(value) -> Cell:
    if isinstance(value, bytes):
        return value.decode("utf-8", "replace")
    if isinstance(value, bool):
        return int(value)
    return value


@dataclass(frozen=True)
class Denotation:
    """The set of result rows a query evaluates to."""

    rows: Tuple[Tuple[Cell, ...], ...]

    def __len__(self) -> int:
        return len(self.rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> "Denotation":
        return cls(rows=tuple(tuple(_cell(v) for v in row) for row in rows))

    @cached_property
    def _canonical(self) -> FrozenSet[Tuple[Cell, ...]]:
        """The distinct rows with every cell canonicalised for comparison."""
        return frozenset(tuple(map(_canon, row)) for row in self.rows)


_SCALARS = (int, float, str, bool)


def normalize_answer(answer) -> List[List[Cell]]:
    """A supervised answer as rows of cells.

    A scalar becomes one cell, a flat list of scalars one column, and a
    list of rows (lists or tuples) passes through.  Raises ValueError on
    any other shape or on a cell that is neither a scalar nor null.
    """
    if answer is None or isinstance(answer, _SCALARS):
        return [[answer]]
    if not isinstance(answer, (list, tuple)):
        raise ValueError(
            f"answer must be a scalar or list, got {type(answer).__name__}"
        )
    rows: List[List[Cell]] = []
    for item in answer:
        if isinstance(item, (list, tuple)):
            for cell in item:
                if not (cell is None or isinstance(cell, _SCALARS)):
                    raise ValueError("answer cells must be scalars or null")
            rows.append(list(item))
        elif item is None or isinstance(item, _SCALARS):
            rows.append([item])
        else:
            raise ValueError("answer rows must be lists or scalars")
    return rows


def answer_denotation(answer) -> Denotation:
    """The denotation of a supervised answer; see :func:`normalize_answer`."""
    return Denotation.from_rows(normalize_answer(answer))


class Database:
    """A read-only connection to one SQLite database file."""

    def __init__(self, conn: sqlite3.Connection):
        self.conn = conn

    @classmethod
    def open(cls, path: Union[str, Path]) -> "Database":
        return cls(open_readonly(path))

    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def execute(
        self,
        sql: str,
        timeout_secs: Optional[float] = None,
        *,
        target: Optional[Denotation] = None,
    ) -> Denotation:
        """Run one statement and read its result rows.

        Without ``target`` every row is read.  With one, reading stops
        after the first row that matches no row of ``target``, neither
        exactly nor within the numeric tolerance.  That row alone makes
        :func:`denotations_equal` against ``target`` false, and every row
        before it matches, so the verdict on the rows read equals the
        verdict on the whole result; ``len`` of the result counts the rows
        read.

        The statement is aborted once ``timeout_secs`` of wall-clock time
        have passed, also while its rows are read; the checks piggyback
        on the engine's progress hook.
        """
        if timeout_secs is not None:
            deadline = time.monotonic() + timeout_secs
            timed_out = []

            def _check() -> int:
                if time.monotonic() > deadline:
                    timed_out.append(True)
                    return 1
                return 0

            self.conn.set_progress_handler(_check, _PROGRESS_GRANULARITY)
        wanted = None if target is None else target._canonical
        rows: List[Tuple[Cell, ...]] = []
        canonical = set()
        try:
            cursor = self.conn.execute(sql)
            try:
                for raw in cursor:
                    row = tuple(map(_cell, raw))
                    rows.append(row)
                    if wanted is not None:
                        key = tuple(map(_canon, row))
                        canonical.add(key)
                        if key not in wanted and not any(
                            _rows_match(key, t) for t in wanted
                        ):
                            break
            finally:
                # Resets the statement, which releases its read lock.
                cursor.close()
        except sqlite3.Error as exc:
            if timeout_secs is not None and timed_out:
                raise ExecutionTimeout(
                    f"query exceeded {timeout_secs:.1f}s"
                ) from exc
            raise SqlError(str(exc)) from exc
        finally:
            if timeout_secs is not None:
                self.conn.set_progress_handler(None, 0)
        result = Denotation(rows=tuple(rows))
        if wanted is not None:
            # Seed the cached property so no cell is canonicalised twice.
            object.__setattr__(result, "_canonical", frozenset(canonical))
        return result


def _canon(cell: Cell) -> Cell:
    if isinstance(cell, str):
        return cell.rstrip()
    if isinstance(cell, bool):
        return float(cell)
    if isinstance(cell, (int, float)):
        return float(cell)
    return cell


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
    set_a, set_b = a._canonical, b._canonical
    if {len(r) for r in set_a} != {len(r) for r in set_b}:
        return False
    if set_a == set_b:
        return True
    # Exact normalization misses float noise; fall back to tolerant
    # mutual coverage over the deduplicated rows.
    return all(any(_rows_match(ra, rb) for rb in set_b) for ra in set_a) and all(
        any(_rows_match(ra, rb) for ra in set_a) for rb in set_b
    )
