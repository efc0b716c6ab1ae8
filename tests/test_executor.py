"""Execution and denotation comparison tests.

The comparison semantics carry most of the weight in candidate search:
row order and duplicates are ignored, numbers match under a relative
tolerance, and empty results only match when explicitly allowed.
"""

import hashlib
import sqlite3

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdmr2sql.errors import ExecutionTimeout, SqlError
from qdmr2sql.executor import (
    Database,
    Denotation,
    answer_denotation,
    denotations_equal,
)
from qdmr2sql.executor import _canon, _numbers_close


def deno(*rows):
    return Denotation.from_rows(rows)


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

    def test_bool_cells_become_ints(self):
        d = deno([True, False])
        assert d.rows == ((1, 0),)
        assert all(type(c) is int for c in d.rows[0])

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
        got = db.execute("SELECT COUNT(*) FROM ship")
        assert got.rows == ((6,),)

    def test_writes_rejected_and_file_untouched(self, ship_death_db, open_db):
        before = hashlib.sha256(ship_death_db.read_bytes()).hexdigest()
        db = open_db(ship_death_db)
        with pytest.raises(SqlError):
            db.execute("INSERT INTO ship (id, name) VALUES (99, 'x')")
        with pytest.raises(SqlError):
            db.execute("DELETE FROM death")
        after = hashlib.sha256(ship_death_db.read_bytes()).hexdigest()
        assert before == after

    def test_syntax_error(self, ship_death_db, open_db):
        db = open_db(ship_death_db)
        with pytest.raises(SqlError):
            db.execute("SELEC 1")

    def test_missing_table(self, ship_death_db, open_db):
        db = open_db(ship_death_db)
        with pytest.raises(SqlError):
            db.execute("SELECT * FROM no_such_table")

    def test_timeout_aborts_runaway_query(self, ship_death_db, open_db):
        db = open_db(ship_death_db)
        runaway = (
            "WITH RECURSIVE c(x) AS "
            "(SELECT 1 UNION ALL SELECT x + 1 FROM c WHERE x < 100000000) "
            "SELECT COUNT(*) FROM c"
        )
        with pytest.raises(ExecutionTimeout):
            db.execute(runaway, timeout_secs=0.1)
        # The progress hook is cleared afterwards; the connection still works.
        assert db.execute("SELECT 1").rows == ((1,),)

    def test_fast_query_survives_timeout(self, ship_death_db, open_db):
        db = open_db(ship_death_db)
        got = db.execute("SELECT name FROM ship WHERE id = 3", timeout_secs=5.0)
        assert got.rows == (("HMS Trinidad",),)

    def test_context_manager_closes(self, ship_death_db):
        with Database.open(ship_death_db) as db:
            assert db.execute("SELECT 1").rows == ((1,),)
        with pytest.raises(SqlError):
            db.execute("SELECT 1")

    def test_open_missing_file_raises(self, tmp_path):
        from qdmr2sql.errors import UnreadableDatabase

        with pytest.raises(UnreadableDatabase):
            Database.open(tmp_path / "absent.sqlite")


class TestExecuteFunction:
    def test_delegates(self, ship_death_db, open_db):
        db = open_db(ship_death_db)
        got = db.execute("SELECT tonnage FROM ship WHERE id = 1")
        assert got.rows == ((400,),)
