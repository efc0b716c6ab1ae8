"""Execution and denotation comparison tests.

The comparison semantics carry most of the weight in candidate search:
row order and duplicates are ignored, numbers match under a relative
tolerance, and empty results only match when explicitly allowed.  A
candidate is executed against its target under its database's deadline
and read only until its first row outside the target, which must never
change the verdict; whole results are read through the plain sqlite3
oracle ``run``.
"""

import hashlib
import math
import re
import sqlite3
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdmr2sql import executor as executor_module
from qdmr2sql.errors import ExecutionTimeout, SqlError, UnreadableDatabase
from qdmr2sql.executor import (
    Database,
    Denotation,
    answer_denotation,
    denotations_equal,
)
from qdmr2sql.executor import NUMERIC_TOLERANCE, _canon, _numbers_close
from test_sqlgen import run


def deno(*rows):
    return Denotation.from_rows(rows)


def soon(secs):
    """A deadline ``secs`` from now."""
    return time.monotonic() + secs


ONE = answer_denotation(1)
NOTHING = answer_denotation([])


class TestDenotation:
    def test_from_rows_materializes_tuples(self):
        d = deno([1, "a"], [2, "b"])
        assert d.rows == ((1, "a"), (2, "b"))
        assert len(d.rows[0]) == 2
        assert len(d) == 2
        assert bool(d)

    def test_empty(self):
        d = Denotation.from_rows([])
        assert d.rows == ()
        assert not d.rows
        assert len(d) == 0
        assert not d

    def test_bytes_cells_decode(self):
        d = deno([b"abc"])
        assert d.rows == (("abc",),)

    def test_bool_cells_become_floats(self):
        d = deno([True, False])
        assert d.rows == ((1.0, 0.0),)
        assert all(type(c) is float for c in d.rows[0])
        assert denotations_equal(answer_denotation(True), deno([1]))

    def test_none_passes_through(self):
        assert deno([None]).rows == ((None,),)


class TestAnswerDenotation:
    def test_scalar(self):
        assert answer_denotation(5).rows == ((5,),)
        assert answer_denotation("texas").rows == (("texas",),)
        assert answer_denotation(None).rows == ((None,),)
        assert answer_denotation(True).rows == ((1,),)

    def test_flat_list_is_one_column(self):
        assert answer_denotation(["a", "b"]).rows == (("a",), ("b",))
        assert answer_denotation([3]).rows == ((3,),)

    def test_list_of_rows(self):
        got = answer_denotation([[1, "x"], [2, "y"]])
        assert got.rows == ((1, "x"), (2, "y"))
        assert len(got.rows[0]) == 2

    def test_tuples_work_as_rows(self):
        assert answer_denotation([(1,), (2,)]).rows == ((1,), (2,))

    def test_empty_list(self):
        d = answer_denotation([])
        assert d.rows == ()

    def test_nan_is_refused_and_infinity_kept(self):
        nan, inf = float("nan"), float("inf")
        for answer in (nan, [1, nan], [[1, nan]]):
            with pytest.raises(ValueError, match="NaN matches no cell"):
                answer_denotation(answer)
        assert answer_denotation([inf, -inf]).rows == ((inf,), (-inf,))


class TestCellCanon:
    def test_numbers_collapse_to_float(self):
        assert _canon(5) == 5.0
        assert type(_canon(5)) is float
        assert _canon(True) == 1.0

    def test_text_trailing_whitespace_trimmed(self):
        assert _canon("abc  ") == "abc"
        assert _canon("abc\n") == "abc"
        # Leading whitespace is significant.
        assert _canon("  abc") == "  abc"

    def test_none_unchanged(self):
        assert _canon(None) is None


class TestNumericTolerance:
    def test_exact(self):
        assert _numbers_close(5.0, 5.0)

    def test_small_numbers_absolute_floor(self):
        assert _numbers_close(0.0, 1e-7)
        assert not _numbers_close(0.0, 1e-5)

    def test_relative_scaling(self):
        assert _numbers_close(1000000.0, 1000000.5)
        assert not _numbers_close(1000000.0, 1000002.0)

    def test_boundary(self):
        # Bound is 1e-6 * max(1, |x|, |y|), about 2e-6 near 2.0.
        assert _numbers_close(2.0, 2.0 + 1.5e-6)
        assert not _numbers_close(2.0, 2.0 + 3e-6)

    def test_infinity_matches_only_itself(self):
        inf = float("inf")
        assert _numbers_close(inf, inf)
        assert _numbers_close(-inf, -inf)
        for finite in (5.0, 0.0, -5.0, 1e308):
            assert not _numbers_close(inf, finite)
            assert not _numbers_close(finite, -inf)
        assert not _numbers_close(inf, -inf)


class TestDenotationsEqual:
    def test_order_insensitive(self):
        a = deno([1], [2], [3])
        b = deno([3], [1], [2])
        assert denotations_equal(a, b)

    def test_duplicates_collapse(self):
        a = deno(["x"], ["x"], ["y"])
        b = deno(["y"], ["x"])
        assert denotations_equal(a, b)

    def test_int_float_match(self):
        assert denotations_equal(deno([5]), deno([5.0]))
        assert denotations_equal(deno([77.8]), deno([77.8]))

    def test_float_noise_within_tolerance(self):
        assert denotations_equal(deno([1000000.0]), deno([1000000.5]))
        assert not denotations_equal(deno([1000000.0]), deno([1000002.0]))

    def test_trailing_whitespace_ignored(self):
        assert denotations_equal(deno(["abc "]), deno(["abc"]))
        assert not denotations_equal(deno([" abc"]), deno(["abc"]))

    def test_none_only_matches_none(self):
        assert denotations_equal(deno([None]), deno([None]))
        assert not denotations_equal(deno([None]), deno([0]))
        assert not denotations_equal(deno([None]), deno([""]))

    def test_empty_vs_empty_requires_opt_in(self):
        empty = Denotation.from_rows([])
        assert not denotations_equal(empty, empty)
        assert denotations_equal(empty, empty, allow_empty=True)

    def test_one_side_empty_never_matches(self):
        empty = Denotation.from_rows([])
        assert not denotations_equal(deno([1]), empty)
        assert not denotations_equal(empty, deno([1]))
        assert not denotations_equal(deno([1]), empty, allow_empty=True)

    def test_arity_mismatch(self):
        assert not denotations_equal(deno([1]), deno([1, 1]))

    def test_multi_column_rows(self):
        a = deno([1, "a"], [2, "b"])
        b = deno([2, "b"], [1.0, "a "])
        assert denotations_equal(a, b)
        assert not denotations_equal(a, deno([1, "a"], [2, "c"]))

    def test_subset_is_not_equal(self):
        assert not denotations_equal(deno([1], [2]), deno([1]))

    def test_infinite_cell_matches_only_equal_infinity(self):
        inf = float("inf")
        assert not denotations_equal(deno([inf]), deno([5]))
        assert not denotations_equal(deno([5]), deno([inf]))
        assert not denotations_equal(deno([-inf]), deno([5]))
        assert not denotations_equal(deno([inf]), deno([-inf]))
        assert denotations_equal(deno([inf]), deno([inf]))
        assert denotations_equal(deno([-inf], [1]), deno([1.0], [-inf]))


cells = st.one_of(
    st.none(),
    st.integers(min_value=-1000, max_value=1000),
    st.floats(min_value=-1000, max_value=1000, allow_nan=False),
    st.text(alphabet="ab c", max_size=4),
)


@st.composite
def row_lists(draw):
    arity = draw(st.integers(min_value=1, max_value=3))
    row = st.tuples(*[cells] * arity)
    return draw(st.lists(row, min_size=1, max_size=6))


class TestEqualityProperties:
    @given(rows=row_lists(), data=st.data())
    def test_permutation_invariance(self, rows, data):
        shuffled = data.draw(st.permutations(rows))
        assert denotations_equal(
            Denotation.from_rows(rows), Denotation.from_rows(shuffled)
        )

    @given(rows=row_lists())
    def test_duplication_invariance(self, rows):
        assert denotations_equal(
            Denotation.from_rows(rows), Denotation.from_rows(rows + rows)
        )

    @given(rows=row_lists())
    def test_reflexive(self, rows):
        d = Denotation.from_rows(rows)
        assert denotations_equal(d, d)


class TestDatabase:
    def test_execute_returns_denotation(self, ship_death_db, open_db):
        db = open_db(ship_death_db)
        got = db.execute("SELECT COUNT(*) FROM ship", answer_denotation(6))
        assert got.rows == ((6,),)

    def test_writes_rejected_and_file_untouched(self, ship_death_db, open_db):
        before = hashlib.sha256(ship_death_db.read_bytes()).hexdigest()
        db = open_db(ship_death_db)
        with pytest.raises(SqlError):
            db.execute("INSERT INTO ship (id, name) VALUES (99, 'x')", NOTHING)
        with pytest.raises(SqlError):
            db.execute("DELETE FROM death", NOTHING)
        after = hashlib.sha256(ship_death_db.read_bytes()).hexdigest()
        assert before == after

    def test_syntax_error(self, ship_death_db, open_db):
        db = open_db(ship_death_db)
        with pytest.raises(SqlError):
            db.execute("SELEC 1", ONE)

    def test_missing_table(self, ship_death_db, open_db):
        db = open_db(ship_death_db)
        with pytest.raises(SqlError):
            db.execute("SELECT * FROM no_such_table", ONE)

    def test_timeout_aborts_runaway_query(self, ship_death_db, open_db):
        db = open_db(ship_death_db)
        runaway = (
            "WITH RECURSIVE c(x) AS "
            "(SELECT 1 UNION ALL SELECT x + 1 FROM c WHERE x < 100000000) "
            "SELECT COUNT(*) FROM c"
        )
        db.set_deadline(soon(0.1))
        with pytest.raises(ExecutionTimeout):
            db.execute(runaway, answer_denotation(100000000))
        # Once the deadline is lifted, the connection still works.
        db.set_deadline(math.inf)
        assert db.execute("SELECT 1", ONE).rows == ((1,),)

    def test_fast_query_survives_timeout(self, ship_death_db, open_db):
        db = open_db(ship_death_db)
        db.set_deadline(soon(5.0))
        got = db.execute(
            "SELECT name FROM ship WHERE id = 3", answer_denotation("HMS Trinidad")
        )
        assert got.rows == (("HMS Trinidad",),)

    def test_context_manager_closes(self, ship_death_db):
        with Database.open(ship_death_db) as db:
            assert db.execute("SELECT 1", ONE).rows == ((1,),)
        with pytest.raises(SqlError):
            db.execute("SELECT 1", ONE)

    def test_open_missing_file_raises(self, tmp_path):
        from qdmr2sql.errors import UnreadableDatabase

        with pytest.raises(UnreadableDatabase):
            Database.open(tmp_path / "absent.sqlite")


def _indexed_columns(db, table):
    """The columns of ``table`` that lead one of its indexes on the copy."""
    quoted = '"' + table.replace('"', '""') + '"'
    return {
        db.conn.execute(f"PRAGMA index_info({name!r})").fetchone()[2]
        for _, name, *_ in db.conn.execute(f"PRAGMA index_list({quoted})")
    }


class TestPrivateCopy:
    """``Database.open`` reads the file once into a private in-memory copy,
    indexes each foreign-key child column there, and refuses every write."""

    def test_insert_is_rejected(self, ship_death_db, open_db):
        db = open_db(ship_death_db)
        with pytest.raises(SqlError, match="readonly"):
            db.execute("INSERT INTO ship VALUES (7, 'Ark', 'barge', 10)", ONE)
        assert db.execute("SELECT count(*) FROM ship", answer_denotation(6)).rows == (
            (6,),
        )

    def test_foreign_key_columns_are_indexed(self, ship_death_db, open_db):
        db = open_db(ship_death_db)
        assert _indexed_columns(db, "death") == {"caused_by_ship_id"}
        assert _indexed_columns(db, "ship") == set()

    @pytest.mark.parametrize("table, column", [
        ("order", "select"), ("line item", "ship id"), ('a"b', 'x"y'),
    ])
    def test_odd_names_are_indexed(self, tmp_path, open_db, table, column):
        def q(name):
            return '"' + name.replace('"', '""') + '"'

        path = tmp_path / "odd.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript(
            "CREATE TABLE parent (id INTEGER PRIMARY KEY);"
            f"CREATE TABLE {q(table)} ({q(column)} INTEGER REFERENCES parent (id));"
        )
        conn.close()
        assert _indexed_columns(open_db(path), table) == {column}

    def test_virtual_table_and_unbuildable_index(self, tmp_path, open_db):
        # The file's collation is not registered where it is opened, so the
        # engine refuses an index on ``c.folded``; the other key is indexed.
        path = tmp_path / "odd.sqlite"
        conn = sqlite3.connect(path)
        conn.create_collation("folded", lambda a, b: (a > b) - (a < b))
        conn.executescript(
            "CREATE TABLE p (id INTEGER PRIMARY KEY);"
            "CREATE TABLE c (plain INTEGER REFERENCES p (id),"
            " folded TEXT COLLATE folded REFERENCES p (id));"
            "CREATE VIRTUAL TABLE shape USING rtree (id, x0, x1);"
            "INSERT INTO shape VALUES (1, 0, 1);"
        )
        conn.close()
        db = open_db(path)
        assert _indexed_columns(db, "c") == {"plain"}
        assert db.execute("SELECT count(*) FROM shape", ONE).rows == ((1,),)

    def test_failed_copy_is_unreadable(self, ship_death_db, monkeypatch):
        real = executor_module.open_readonly

        def closed(path):
            conn = real(path)
            conn.close()
            return conn

        monkeypatch.setattr(executor_module, "open_readonly", closed)
        with pytest.raises(
            UnreadableDatabase,
            match=f"^cannot open {re.escape(str(ship_death_db))}: Cannot operate",
        ):
            Database.open(ship_death_db)


class TestExecuteFunction:
    def test_delegates(self, ship_death_db, open_db):
        db = open_db(ship_death_db)
        got = db.execute("SELECT tonnage FROM ship WHERE id = 1", answer_denotation(400))
        assert got.rows == ((400,),)


# --- reading a candidate only until its first row outside the target --------

_FLOAT_BASES = (0.0, 1.0, -2.5, 1e6)
# Relative offsets at, inside and just past the numeric tolerance.
_OFFSETS = (0.0, 0.5, 1.0, 1.01, 2.0, -1.0, -1.01)

stored_cells = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=2),
    st.builds(
        lambda base, k: base + k * NUMERIC_TOLERANCE * max(1.0, abs(base)),
        st.sampled_from(_FLOAT_BASES),
        st.sampled_from(_OFFSETS),
    ),
    st.sampled_from(["a", " a", "a ", "a\t", "b", ""]),
    st.sampled_from([b"a", b"a ", b"\xff", b""]),
)


def _near(cell):
    """Cells equal to ``cell`` exactly, within the tolerance, or just past it."""
    if isinstance(cell, (int, float)) and not isinstance(cell, bool):
        step = NUMERIC_TOLERANCE * max(1.0, abs(cell))
        return st.sampled_from([cell + k * step for k in _OFFSETS])
    if isinstance(cell, str):
        return st.sampled_from([cell + " ", cell.rstrip(), " " + cell])
    return st.just(cell)


@st.composite
def tables_and_targets(draw):
    """Rows of one arity, with duplicates, and a target built around them:
    a near copy of every distinct row or of some, plus rows of any arity."""
    arity = draw(st.integers(min_value=1, max_value=3))
    distinct = draw(
        st.lists(st.tuples(*[stored_cells] * arity), max_size=5, unique=True)
    )
    repeats = draw(st.lists(st.sampled_from(distinct), max_size=7)) if distinct else []
    rows = draw(st.permutations(distinct + repeats))
    near = [draw(st.tuples(*map(_near, row))) for row in dict.fromkeys(rows)]
    if near and not draw(st.booleans()):
        near = draw(st.lists(st.sampled_from(near), max_size=len(near)))
    any_arity = st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.tuples(*[stored_cells] * n)
    )
    extra = draw(st.lists(any_arity, max_size=2)) if draw(st.booleans()) else []
    return arity, rows, Denotation.from_rows(near + extra)


def _write_table(path, arity, rows):
    conn = sqlite3.connect(path)
    try:
        conn.execute(f"CREATE TABLE t ({', '.join(f'c{i}' for i in range(arity))})")
        conn.executemany(f"INSERT INTO t VALUES ({', '.join('?' * arity)})", rows)
        conn.commit()
    finally:
        conn.close()


class TestEarlyExit:
    @settings(max_examples=200, deadline=None)
    @given(case=tables_and_targets())
    def test_verdict_equals_full_verdict(self, tmp_path_factory, case):
        arity, rows, target = case
        path = tmp_path_factory.mktemp("early_exit") / "t.sqlite"
        _write_table(path, arity, rows)
        full = run(path, "SELECT * FROM t")
        with Database.open(path) as db:
            early = db.execute("SELECT * FROM t", target)
        assert early.rows == full.rows[: len(early)]
        for allow_empty in (False, True):
            assert denotations_equal(early, target, allow_empty) == denotations_equal(
                full, target, allow_empty
            )

    def test_row_within_tolerance_does_not_stop_reading(self, tmp_path):
        path = tmp_path / "t.sqlite"
        _write_table(path, 1, [(1.0000005,), (2.0,), (3.0,), (2.0,)])
        target = answer_denotation([1, 2])
        with Database.open(path) as db:
            got = db.execute("SELECT c0 FROM t", target)
        assert got.rows == ((1.0000005,), (2.0,), (3.0,))
        assert not denotations_equal(got, target)

    def test_overflowed_cell_stops_reading(self, ship_death_db, open_db):
        # SQLite reads 1e999 as infinity; it matches no finite answer.
        db = open_db(ship_death_db)
        sql = "SELECT 1e999 UNION ALL SELECT 5"
        target = answer_denotation([[5]])
        got = db.execute(sql, target)
        assert got.rows == ((float("inf"),),)
        assert not denotations_equal(got, target)
        inf_target = answer_denotation([[float("inf")]])
        got = db.execute("SELECT 1e999", inf_target)
        assert denotations_equal(got, inf_target)

    def test_deadline_holds_while_rows_stream(self, ship_death_db, open_db):
        db = open_db(ship_death_db)
        # Emits 1 forever, every thousandth step, so it never leaves the
        # target and the rows read stay few.
        endless = (
            "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) "
            "SELECT 1 FROM c WHERE x % 1000 = 0"
        )
        # Should the deadline not hold, interrupt the statement rather
        # than hang; the test then fails on SqlError.
        watchdog = threading.Timer(5.0, db.conn.interrupt)
        watchdog.start()
        try:
            start = time.monotonic()
            db.set_deadline(soon(0.2))
            with pytest.raises(ExecutionTimeout):
                db.execute(endless, answer_denotation([[1]]))
            elapsed = time.monotonic() - start
        finally:
            watchdog.cancel()
        # One progress interval takes microseconds; the rest is slack for
        # a loaded host.
        assert elapsed < 0.2 + 0.5
        db.set_deadline(math.inf)
        assert db.execute("SELECT 1", ONE).rows == ((1,),)

    def test_fetch_stops_at_the_deadline(self, ship_death_db, open_db):
        # Past the deadline no statement starts; one running is aborted by
        # the hook; both raise the timeout, and any other error SqlError.
        db = open_db(ship_death_db)
        traced = []
        db.conn.set_trace_callback(traced.append)
        db.set_deadline(time.monotonic() - 1)
        with pytest.raises(ExecutionTimeout):
            db.fetch("SELECT 1")
        with pytest.raises(ExecutionTimeout):
            db.execute("SELECT 1", answer_denotation(1))
        assert traced == []
        runaway = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c)"
                   " SELECT count(*) FROM c")
        watchdog = threading.Timer(5.0, db.conn.interrupt)
        watchdog.start()
        try:
            db.set_deadline(time.monotonic() + 0.1)
            with pytest.raises(ExecutionTimeout):
                db.fetch(runaway)
        finally:
            watchdog.cancel()
        db.set_deadline(math.inf)
        with pytest.raises(SqlError) as raised:
            db.fetch("SELECT nosuch FROM ship")
        assert not isinstance(raised.value, ExecutionTimeout)
        assert db.fetch("SELECT ?", ("x",)) == [("x",)]

    @staticmethod
    def _kept_cursors():
        """A database on a writable connection that keeps a reference to each
        cursor it opens, so that only ``cursor.close()`` resets a statement
        read part-way: CPython would otherwise free, and so reset, it as
        soon as the method returns."""

        class Keeping:
            def __init__(self, conn):
                self.conn, self.cursors = conn, []

            def execute(self, sql, *params):
                self.cursors.append(self.conn.execute(sql, *params))
                return self.cursors[-1]

        conn = sqlite3.connect(":memory:")
        conn.execute("CREATE TABLE t (c0)")
        conn.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(1000)])
        return conn, Database(Keeping(conn))

    def test_early_exit_releases_the_statement(self):
        conn, db = self._kept_cursors()
        try:
            got = db.execute("SELECT c0 FROM t", answer_denotation([[-1]]))
            assert got.rows == ((0,),) and got.mismatch
            # A statement left part-read holds the table: DROP would then
            # fail with "database table is locked".
            conn.execute("DROP TABLE t")
        finally:
            conn.close()

    def test_one_row_read_releases_the_statement(self):
        # Database.fetch reads every row, which reaches the statement's end
        # and resets it; so does a statement the engine fails part-way.
        conn, db = self._kept_cursors()
        try:
            assert db.fetch("SELECT COUNT(c0), SUM(c0) FROM t") == [(1000, 499500)]
            assert db.fetch("SELECT c0 FROM t WHERE c0 < ?", (2,)) == [(0,), (1,)]
            with pytest.raises(SqlError):
                db.fetch("SELECT CASE WHEN c0 < 9 THEN c0 ELSE abs(-9223372036854775807 - 1)"
                         " END FROM t")
            conn.execute("DROP TABLE t")
        finally:
            conn.close()


class TestExecuteColumns:
    """A shared statement runs once, and each of its columns is read as rows
    of one cell only as far as its own verdict needs, from rows fetched
    once, and gets the verdict of a statement that selects it alone."""

    @staticmethod
    def _db(rows):
        conn = sqlite3.connect(":memory:")
        conn.execute("CREATE TABLE t (a, b, c)")
        conn.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)
        return conn, Database(conn)

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(st.tuples(*[st.sampled_from([None, 1, 2, 2.0000001, "x", "x "])] * 3),
                      max_size=6),
        answer=st.lists(st.sampled_from([None, 1, 2, "x"]), max_size=3),
    )
    def test_each_column_reads_as_its_own_statement(self, rows, answer):
        conn, db = self._db(rows)
        try:
            target = answer_denotation(answer)
            got = db.execute_columns("SELECT a, b, c FROM t", target)
            assert got == tuple(db.execute(f"SELECT {c} FROM t", target) for c in "abc")
        finally:
            conn.close()

    def test_each_column_reads_only_as_far_as_its_verdict(self):
        conn, db = self._db([(1, "x", i) for i in range(1, 1001)])
        try:
            ran = []
            db.conn.set_trace_callback(ran.append)
            a, b, c = db.execute_columns("SELECT a, b, c FROM t", answer_denotation([[1]]))
            assert (len(a), a.mismatch) == (1000, False)
            assert (len(b), b.mismatch) == (1, True)  # "x" is outside the answer
            assert (len(c), c.mismatch) == (2, True)  # 1, then 2
            assert ran == ["SELECT a, b, c FROM t"]
        finally:
            conn.close()

    def test_releases_the_statement(self):
        conn, db = TestEarlyExit._kept_cursors()
        try:
            got = db.execute_columns("SELECT c0, c0 FROM t", answer_denotation([[-1]]))
            assert [r.rows for r in got] == [((0,),), ((0,),)]
            conn.execute("DROP TABLE t")
        finally:
            conn.close()

    def test_engine_errors_and_the_deadline(self):
        conn, db = self._db([(1, 2, 3)])
        try:
            with pytest.raises(SqlError):
                db.execute_columns("SELECT nosuch FROM t", answer_denotation(1))
            db.deadline = -math.inf
            with pytest.raises(ExecutionTimeout):
                db.execute_columns("SELECT a, b FROM t", answer_denotation(1))
        finally:
            conn.close()
