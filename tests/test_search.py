"""Execution-guided candidate search tests.

Each fixture database plants an answer so that exactly one region of the
candidate space matches it; the tests pin the status, the number of
candidates tried before the hit, which repair heuristics fired, and the
winning SQL.
"""

import importlib
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DISTINCT_PRODUCT_TYPES,
    FakeExample,
    LARGEST_STATE_AREA,
    MISSISSIPPI_POPULATIONS,
    SHIP_TOP_NAME,
    VOTER_MAJORS,
    build_db,
    schema_of,
)
from qdmr2sql.errors import SqlError
from qdmr2sql.executor import Database
from qdmr2sql.qdmr import parse_qdmr, render_program
from qdmr2sql.search import (
    SearchStatus,
    SynthesisConfig,
    heuristic_aggregate_swap,
    heuristic_distinct,
    heuristic_superlative,
    search,
)
from qdmr2sql.sqlgen import SqlQuery

# The package re-exports the ``search`` function under the module's name.
search_module = importlib.import_module("qdmr2sql.search")


class TestConfig:
    def test_defaults(self):
        cfg = SynthesisConfig()
        assert cfg.top_k == 20
        assert cfg.max_assignments == 1000
        assert cfg.per_example_timeout == 60.0
        assert not cfg.allow_empty_denotation

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"top_k": 0},
            {"max_assignments": 0},
            {"per_example_timeout": 0.0},
            {"per_example_timeout": -1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SynthesisConfig(**kwargs)


class TestDistinctHeuristic:
    def test_copies_and_sets_flag(self):
        q = SqlQuery(select=("x",), from_tables=("t",))
        out = heuristic_distinct(q)
        assert out.distinct
        assert not q.distinct
        assert out is not q


class TestSuperlativeHeuristic:
    def test_rewrites_noun_phrase_superlative(self):
        program = parse_qdmr(
            "return states; return the size of #1; "
            "return state with the largest #2; return the size of #3"
        )
        rewritten = heuristic_superlative(program)
        assert (
            render_program(rewritten)
            == "states; the size of #1; #1 where #2 is highest; the size of #3"
        )

    def test_smallest_becomes_lowest(self):
        program = parse_qdmr(
            "return states; return the population of #1; "
            "return state with the smallest #2"
        )
        rewritten = heuristic_superlative(program)
        assert rewritten.steps[2].raw_text == "#1 where #2 is lowest"

    def test_no_superlative_token(self):
        program = parse_qdmr("return states; return the size of #1")
        assert heuristic_superlative(program) is None

    def test_token_without_usable_references(self):
        # The measure step must itself reference an entity step.
        program = parse_qdmr("return states; return the largest of #1")
        assert heuristic_superlative(program) is None


class TestAggregateSwapHeuristic:
    def test_count_becomes_sum(self):
        program = parse_qdmr("return ships; return the number of #1")
        (variant,) = heuristic_aggregate_swap(program)
        assert variant.steps[1].raw_text == "the sum of #1"
        assert variant.steps[1].operator.aggregate_fn == "sum"

    def test_sum_becomes_count(self):
        program = parse_qdmr(
            "return ships; return tonnage of #1; return the sum of #2"
        )
        (variant,) = heuristic_aggregate_swap(program)
        assert variant.steps[2].operator.aggregate_fn == "count"

    def test_group_steps_swap_too(self):
        program = parse_qdmr(
            "return ships; return injuries of #1; "
            "return number of #2 for each #1"
        )
        (variant,) = heuristic_aggregate_swap(program)
        step = variant.steps[2]
        assert step.operator.kind.name == "GROUP"
        assert step.operator.aggregate_fn == "sum"

    def test_avg_is_not_swappable(self):
        program = parse_qdmr(
            "return ships; return tonnage of #1; return the average of #2"
        )
        assert heuristic_aggregate_swap(program) == []

    def test_no_aggregate_at_all(self):
        program = parse_qdmr("return ships; return the name of #1")
        assert heuristic_aggregate_swap(program) == []


def run_search(open_db, db_path, lexicon, qdmr, answer, config=None):
    db = open_db(db_path)
    return search(
        FakeExample(qdmr, answer), schema_of(db), db, config=config, lexicon=lexicon
    )


class TestEndToEnd:
    """Frozen search outcomes on the planted databases."""

    def test_group_superlative_chain(self, ship_death_db, open_db, lexicon):
        out = run_search(
            open_db,
            ship_death_db,
            lexicon,
            "return ships; return injuries of #1; "
            "return number of #2 for each #1; "
            "return #1 where #3 is highest; return the name of #4",
            [SHIP_TOP_NAME],
        )
        assert out.status is SearchStatus.FOUND
        assert out.candidates_tried == 1
        assert out.heuristics_applied == ()
        assert out.sql == (
            "SELECT ship.name FROM ship, death "
            "WHERE death.caused_by_ship_id = ship.id AND ship.id IN "
            "( SELECT ship.id FROM ship, death "
            "WHERE death.caused_by_ship_id = ship.id "
            "GROUP BY ship.id ORDER BY COUNT(death.injured) DESC LIMIT 1 )"
        )
        assert out.assignment.describe() == {
            "1:ships": "ship.id",
            "2:injuries of": "death.injured",
            "5:the name of": "ship.name",
        }
        assert out.qdmr == (
            "ships; injuries of #1; number of #2 for each #1; "
            "#1 where #3 is highest; the name of #4"
        )

    def test_value_select_chain(self, geo_db, open_db, lexicon):
        out = run_search(
            open_db,
            geo_db,
            lexicon,
            "return the mississippi; return states #1 run through; "
            "return the population of #2",
            sorted(MISSISSIPPI_POPULATIONS),
        )
        assert out.status is SearchStatus.FOUND
        assert out.candidates_tried == 1
        assert out.heuristics_applied == ()
        assert out.sql == (
            "SELECT state.population FROM state, river "
            "WHERE river.traverse = state.state_name AND state.state_name IN "
            "( SELECT state.state_name FROM state, river "
            "WHERE river.traverse = state.state_name AND river.river_name IN "
            "( SELECT river.river_name FROM river "
            "WHERE river.river_name = 'mississippi' ) )"
        )
        assert out.assignment.describe() == {
            "2:states run through": "state.state_name",
            "3:the population of": "state.population",
            "value:mississippi": "river.river_name",
        }

    def test_self_join_narrowing(self, academic_db, open_db, lexicon):
        out = run_search(
            open_db,
            academic_db,
            lexicon,
            "return papers; return #1 by H. V. Jagadish; return #2 by Yunyao Li",
            ["Structured Search", "Schema Matching Survey"],
        )
        assert out.status is SearchStatus.FOUND
        assert out.candidates_tried == 1
        assert out.heuristics_applied == ()
        assert out.sql == (
            "SELECT publication.title FROM publication, author, writes "
            "WHERE writes.pid = publication.pid AND writes.aid = author.aid "
            "AND author.name = 'Yunyao Li' AND publication.title IN "
            "( SELECT publication.title FROM publication, author, writes "
            "WHERE writes.pid = publication.pid AND writes.aid = author.aid "
            "AND author.name = 'H. V. Jagadish' )"
        )
        assert out.assignment.describe() == {
            "1:papers": "publication.title",
            "value:H. V. Jagadish": "author.name",
            "value:Yunyao Li": "author.name",
        }

    def test_prolific_author_having(self, academic_db, open_db, lexicon):
        out = run_search(
            open_db,
            academic_db,
            lexicon,
            "return authors; return papers of #1; return #2 in PVLDB; "
            "return number of #3 for each #1; "
            "return #1 where #4 is more than 10",
            ["H. V. Jagadish"],
        )
        assert out.status is SearchStatus.FOUND
        # author.aid outranks author.name; both aid assignments fail first.
        assert out.candidates_tried == 9
        assert out.heuristics_applied == ()
        assert out.sql == (
            "SELECT author.name FROM author, publication, writes, journal "
            "WHERE writes.pid = publication.pid AND writes.aid = author.aid "
            "AND publication.jid = journal.jid AND journal.name = 'PVLDB' "
            "GROUP BY author.name HAVING COUNT(publication.title) > 10"
        )
        assert out.assignment.describe() == {
            "1:authors": "author.name",
            "2:papers of": "publication.title",
            "value:PVLDB": "journal.name",
        }

    def test_assignment_advance_on_parallel_edges(
        self, voting_record_db, open_db, lexicon
    ):
        out = run_search(
            open_db,
            voting_record_db,
            lexicon,
            "return students with treasurer votes; return the majors of #1",
            sorted(VOTER_MAJORS),
        )
        assert out.status is SearchStatus.FOUND
        assert out.candidates_tried == 11
        assert out.heuristics_applied == ()
        assert out.sql == (
            "SELECT student.major FROM student, voting_record "
            "WHERE voting_record.stuid = student.stuid "
            "AND voting_record.stuid IN "
            "( SELECT voting_record.stuid FROM voting_record )"
        )
        assert out.assignment.describe() == {
            "1:students with treasurer votes": "voting_record.stuid",
            "2:the majors of": "student.major",
        }

    def test_distinct_repair(self, products_db, open_db, lexicon):
        out = run_search(
            open_db,
            products_db,
            lexicon,
            "return product types; return the number of #1",
            DISTINCT_PRODUCT_TYPES,
        )
        # COUNT over any column is 6; only the DISTINCT repair reaches 3.
        assert out.status is SearchStatus.FOUND
        assert out.candidates_tried == 2
        assert out.heuristics_applied == ("distinct",)
        assert out.sql == (
            "SELECT COUNT(DISTINCT products.product_type_code) FROM products"
        )
        assert out.assignment.describe() == {
            "1:product types": "products.product_type_code"
        }

    def test_superlative_repair(self, geo_db, open_db, lexicon):
        out = run_search(
            open_db,
            geo_db,
            lexicon,
            "return states; return the size of #1; "
            "return state with the largest #2; return the size of #3",
            LARGEST_STATE_AREA,
        )
        assert out.status is SearchStatus.FOUND
        assert out.candidates_tried == 3
        assert out.heuristics_applied == ("superlative",)
        assert out.sql == (
            "SELECT state.area FROM state WHERE state.state_name IN "
            "( SELECT state.state_name FROM state "
            "ORDER BY state.area DESC LIMIT 1 )"
        )
        # The winning decomposition is the rewritten one.
        assert out.qdmr == (
            "states; the size of #1; #1 where #2 is highest; the size of #3"
        )

    def test_aggregate_swap_repair(self, university_db, open_db, lexicon):
        out = run_search(
            open_db,
            university_db,
            lexicon,
            "return universities; return the enrollment of #1; "
            "return the number of #2 for each affiliation",
            [87000, 13000],
        )
        assert out.status is SearchStatus.FOUND
        assert out.candidates_tried == 3
        assert out.heuristics_applied == ("aggregate_swap",)
        assert out.sql == (
            "SELECT SUM(university.enrollment) FROM university "
            "GROUP BY university.affiliation"
        )
        assert out.qdmr == (
            "universities; the enrollment of #1; "
            "the sum of #2 for each affiliation"
        )

    def test_column_advance_within_one_slot(self, academic_db, open_db, lexicon):
        out = run_search(
            open_db,
            academic_db,
            lexicon,
            "return authors",
            ["H. V. Jagadish", "Yunyao Li", "Divesh Srivastava", "Cong Yu"],
        )
        assert out.status is SearchStatus.FOUND
        # aid plain and aid distinct fail, then name hits.
        assert out.candidates_tried == 3
        assert out.heuristics_applied == ()
        assert out.sql == "SELECT author.name FROM author"
        assert out.assignment.describe() == {"1:authors": "author.name"}

    def test_accepts_preparsed_program(self, products_db, open_db, lexicon):
        program = parse_qdmr("return product types; return the number of #1")
        db = open_db(products_db)
        out = search(
            FakeExample(qdmr=None, answer=3, program=program),
            schema_of(db),
            db,
            lexicon=lexicon,
        )
        assert out.status is SearchStatus.FOUND
        assert out.heuristics_applied == ("distinct",)


class TestFailureStatuses:
    def test_unparseable_decomposition(self, products_db, open_db, lexicon):
        out = run_search(open_db, products_db, lexicon, "return #5", 3)
        assert out.status is SearchStatus.MAPPING_FAILED
        assert out.candidates_tried == 0
        assert "parse" in out.failure_reason

    def test_no_buildable_candidate(self, ship_death_db, open_db, lexicon):
        # The filter tail matches no stored value, so every assignment
        # fails before execution.
        out = run_search(
            open_db,
            ship_death_db,
            lexicon,
            "return ships; return #1 from the northern fleet",
            ["HMS Trinidad"],
        )
        assert out.status is SearchStatus.MAPPING_FAILED
        assert out.candidates_tried == 0
        assert out.failure_reason

    def test_engine_rejecting_every_candidate(
        self, products_db, open_db, lexicon, monkeypatch
    ):
        def reject(self, sql, timeout_secs=None, *, target=None):
            raise SqlError("no such column: boom")

        monkeypatch.setattr(Database, "execute", reject)
        out = run_search(
            open_db,
            products_db,
            lexicon,
            "return product types; return the number of #1",
            999,
        )
        assert out.status is SearchStatus.MAPPING_FAILED
        assert out.candidates_tried > 0
        assert f"all {out.candidates_tried} candidates" in out.failure_reason
        assert "no such column: boom" in out.failure_reason

    def test_exhausted_on_unreachable_answer(self, products_db, open_db, lexicon):
        out = run_search(
            open_db,
            products_db,
            lexicon,
            "return product types; return the number of #1",
            999,
        )
        assert out.status is SearchStatus.EXHAUSTED
        assert out.candidates_tried > 0
        assert "no candidate" in out.failure_reason

    def test_exhausted_when_repairs_disabled(
        self, products_db, open_db, lexicon, monkeypatch
    ):
        # Keep only the candidates no repair touched: COUNT over any column
        # is 6, so without the DISTINCT repair nothing reaches 3.
        all_candidates = search_module._candidates

        def unrepaired(*args):
            return (c for c in all_candidates(*args) if not c[1])

        monkeypatch.setattr(search_module, "_candidates", unrepaired)
        out = run_search(
            open_db,
            products_db,
            lexicon,
            "return product types; return the number of #1",
            DISTINCT_PRODUCT_TYPES,
        )
        assert out.status is SearchStatus.EXHAUSTED
        assert out.candidates_tried == 3

    def test_timeout(self, ship_death_db, open_db, lexicon):
        cfg = SynthesisConfig(per_example_timeout=1e-9)
        out = run_search(
            open_db,
            ship_death_db,
            lexicon,
            "return ships",
            ["HMS Trinidad"],
            config=cfg,
        )
        assert out.status is SearchStatus.TIMEOUT

    def test_max_assignments_bounds_the_search(
        self, academic_db, open_db, lexicon
    ):
        # The winning assignment is the fifth; a cap of one stops after the
        # first one's plain query and its DISTINCT form.
        cfg = SynthesisConfig(max_assignments=1)
        out = run_search(
            open_db,
            academic_db,
            lexicon,
            "return authors",
            ["H. V. Jagadish", "Yunyao Li", "Divesh Srivastava", "Cong Yu"],
            config=cfg,
        )
        assert out.status is SearchStatus.EXHAUSTED
        assert out.candidates_tried == 2


class TestNonFiniteLiterals:
    # Python reads these as nan, inf or 1000; each is a plain text value.
    @pytest.mark.parametrize("value", ["Nan", "inf", "Infinity", "1_000"])
    def test_compared_as_text(self, tmp_path, open_db, value):
        path = tmp_path / "people.sqlite"
        build_db(
            path,
            "CREATE TABLE people (id INTEGER PRIMARY KEY, name TEXT);"
            f"INSERT INTO people VALUES (1, '{value}'), (2, 'Bob');",
        )
        out = run_search(
            open_db, path, None, f"return people; return #1 where name is {value}", [1]
        )
        assert out.status is SearchStatus.FOUND
        assert f"= '{value}'" in out.sql


# --- identifiers that must be quoted ------------------------------------------

_ODD_NAMES = st.one_of(
    st.sampled_from(
        ["order", "group", "select", "Order", "GROUP", "Where", "key",
         "home town", 'od"d', '"', "Mixed Case", "1st", "a.b"]
    ),
    st.text(alphabet='aZ _."-1', min_size=1, max_size=6),
)


def _quoted(name):
    return '"' + name.replace('"', '""') + '"'


def _planted_table(table, text_col, num_col):
    conn = sqlite3.connect(":memory:")
    conn.execute(
        f"CREATE TABLE {_quoted(table)}"
        f" ({_quoted(text_col)} TEXT, {_quoted(num_col)} INTEGER)"
    )
    conn.executemany(
        f"INSERT INTO {_quoted(table)} VALUES (?, ?)",
        [("Lettice", 1), ("Mary", 2), ("Avalanche", 3), ("Mary", 4)],
    )
    return conn


# One decomposition per clause that spells a column: SELECT, an aggregate,
# WHERE with a literal and with a comparison, GROUP BY and ORDER BY.
_PLANTED = [
    ("return the things", ["Avalanche", "Lettice", "Mary"]),
    ("return the things; return the number of #1", 4),
    ("return the things; return #1 with Mary", [2, 4]),
    ("return the things; return #1 where the number is more than 2",
     ["Avalanche", "Mary"]),
    ("return the things; return the number of #1 for each #1", [1, 1, 2]),
    ("return the things; return #1 sorted by the number",
     ["Avalanche", "Lettice", "Mary"]),
]


class TestIdentifierQuoting:
    @settings(max_examples=40, deadline=None)
    @given(
        table=_ODD_NAMES,
        columns=st.lists(
            _ODD_NAMES, min_size=2, max_size=2, unique_by=str.lower
        ),
    )
    def test_planted_answers_found_whatever_the_names(self, table, columns):
        conn = _planted_table(table, *columns)
        try:
            db = Database(conn)
            schema = schema_of(db)
            for qdmr, answer in _PLANTED:
                out = search(FakeExample(qdmr, answer), schema, db)
                assert out.status is SearchStatus.FOUND, (qdmr, out.failure_reason)
        finally:
            conn.close()

    def test_keyword_tables_join(self, tmp_path, open_db):
        path = tmp_path / "keywords.sqlite"
        build_db(
            path,
            'CREATE TABLE "order" (id INTEGER PRIMARY KEY, "select" TEXT);'
            'CREATE TABLE "group by" ("home town" TEXT,'
            ' "order id" INTEGER REFERENCES "order" (id));'
            "INSERT INTO \"order\" VALUES (1, 'Lettice'), (2, 'Mary');"
            "INSERT INTO \"group by\" VALUES ('Leith', 1), ('Dover', 2),"
            " ('Hull', 2);",
        )
        db = open_db(path)
        out = search(
            FakeExample(
                "return the orders; return the home towns of #1; "
                "return the number of #2 for each #1; "
                "return #1 where #3 is highest",
                ["Mary"],
            ),
            schema_of(db),
            db,
        )
        assert out.status is SearchStatus.FOUND, out.failure_reason
        assert 'FROM "order", "group by"' in out.sql
        assert '"group by"."order id" = "order".id' in out.sql
