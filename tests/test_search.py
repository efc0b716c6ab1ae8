"""Execution-guided candidate search tests.

Each fixture database plants an answer so that exactly one region of the
candidate space matches it; the tests pin the status, the number of
candidates tried before the hit, which repair heuristics fired, and the
winning SQL.
"""

import dataclasses
import importlib
import math
import random
import sqlite3
import time
from collections import Counter

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import (
    DATA_DIR,
    DISTINCT_PRODUCT_TYPES,
    FakeExample,
    LARGEST_STATE_AREA,
    MISSISSIPPI_POPULATIONS,
    SHIP_TOP_NAME,
    VOTER_MAJORS,
    build_db,
    schema_of,
)
from qdmr2sql import corpus as corpus_module
from qdmr2sql import executor as executor_module
from qdmr2sql import linking, sqlgen
from qdmr2sql import schema as schema_module
from qdmr2sql.corpus import Example, load_examples, run_corpus
from qdmr2sql.errors import Qdmr2SqlError
from qdmr2sql.executor import (
    Database, Denotation, answer_denotation, denotations_equal,
)
from qdmr2sql.qdmr import OpKind, parse_qdmr, render_program
from qdmr2sql.schema import ColumnRef, ValueIndex, load_schema
from qdmr2sql.search import (
    SearchStatus,
    Session,
    SynthesisConfig,
    heuristic_aggregate_swap,
    heuristic_superlative,
    search,
)
from qdmr2sql.sqlgen import (
    AggExpr, ArithExpr, CmpPred, ColExpr, InPred, JoinPred, OrGroup, SqlQuery, StepMemo,
    render_sql, synthesize,
)

from test_executor import _write_table, tables_and_targets
from test_joinpath import random_schema
from test_sqlgen import _RedAndBlue, run

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
            {"top_k": 1.5},
            {"top_k": True},
            {"top_k": math.nan},
            {"max_assignments": 2.5},
            {"max_assignments": True},
            {"per_example_timeout": "5"},
            {"per_example_timeout": True},
            {"per_example_timeout": None},
            {"per_example_timeout": math.nan},
            {"allow_empty_denotation": "no"},
            {"allow_empty_denotation": 1},
            {"allow_empty_denotation": None},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SynthesisConfig(**kwargs)


class TestDistinctTry:
    def test_second_try_renders_the_mapped_query_distinct(
        self, products_db, open_db, lexicon, monkeypatch
    ):
        # The DISTINCT try renders the very query the first try rendered,
        # with the flag set; no copy of it is made.
        mapped, rendered = [], []
        real_synthesize = search_module.synthesize
        real_render = search_module.render_sql

        def mapping(*args):
            mapped.append(real_synthesize(*args))
            return mapped[-1]

        def recording(query, distinct=False):
            rendered.append((query, distinct))
            return real_render(query, distinct=distinct)

        monkeypatch.setattr(search_module, "synthesize", mapping)
        monkeypatch.setattr(search_module, "render_sql", recording)
        out = run_search(
            open_db,
            products_db,
            lexicon,
            "return product types; return the number of #1",
            DISTINCT_PRODUCT_TYPES,
        )
        assert out.heuristics_applied == ("distinct",)
        assert [(id(q), d) for q, d in rendered] == [
            (id(mapped[0]), False), (id(mapped[0]), True),
        ]
        assert out.sql == render_sql(mapped[0], distinct=True)
        assert "distinct" not in {f.name for f in dataclasses.fields(SqlQuery)}
        assert not hasattr(search_module, "heuristic_distinct")


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

    @pytest.mark.parametrize(
        "text, swapped, fn",
        [
            ("return ships; return Number of #1", "sum of #1", "sum"),
            (
                "return ships; return tonnage of #1; return the Sum of #2",
                "the number of #2",
                "count",
            ),
            (
                "return ships; return injuries of #1; "
                "return Number of #2 for each #1",
                "sum of #2 for each #1",
                "sum",
            ),
        ],
        ids=["count", "sum", "group"],
    )
    def test_capitalized_aggregate_words_swap(self, text, swapped, fn):
        # The parser reads these words in any case; so must the swap.
        program = parse_qdmr(text)
        (variant,) = heuristic_aggregate_swap(program)
        assert variant.steps[-1].raw_text == swapped
        assert variant.steps[-1].operator.aggregate_fn == fn

    def test_avg_is_not_swappable(self):
        program = parse_qdmr(
            "return ships; return tonnage of #1; return the average of #2"
        )
        assert heuristic_aggregate_swap(program) == []

    def test_no_aggregate_at_all(self):
        program = parse_qdmr("return ships; return the name of #1")
        assert heuristic_aggregate_swap(program) == []


def _collated_items(tmp_path, columns=30):
    """A database of 20 rows in ``columns`` indexed ``COLLATE NOCASE``
    columns, each of which the value index probes per literal; row ``r``
    holds ``value i row r`` in column ``ci``."""
    path = tmp_path / "collated.sqlite"
    names = [f"c{i}" for i in range(columns)]
    build_db(
        path,
        "CREATE TABLE items (id INTEGER PRIMARY KEY, "
        + ", ".join(f"{name} TEXT COLLATE NOCASE" for name in names) + ");"
        + "".join(f"CREATE INDEX i_{name} ON items ({name});" for name in names)
        + "INSERT INTO items VALUES "
        + ", ".join(
            f"({r}, " + ", ".join(f"'value {i} row {r}'" for i in range(columns)) + ")"
            for r in range(20)
        ) + ";",
    )
    return path


# A filter of 40 words, none in the database: planning and linking it probes
# each of its n-grams in every column of ``_collated_items``.
_LONG_FILTER = FakeExample(
    "return items; return #1 with " + " ".join(f"word{i}" for i in range(40)), [[1]]
)


def run_search(open_db, db_path, lexicon, qdmr, answer, config=None):
    db = open_db(db_path)
    session = Session(db, schema_of(db), config or SynthesisConfig(), lexicon)
    return search(FakeExample(qdmr, answer), session)


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

    def test_numeric_looking_text_literal(self, tmp_path, open_db):
        # '1e5' in a TEXT column is compared as that text, not as 100000.0.
        path = tmp_path / "items.sqlite"
        build_db(
            path,
            "CREATE TABLE item (id INTEGER PRIMARY KEY, code TEXT, name TEXT);"
            "INSERT INTO item VALUES (1, '1e5', 'widget'), (2, 'abc', 'gadget');",
        )
        out = run_search(
            open_db, path, None,
            "return items; return #1 with code 1e5; return the name of #2",
            ["widget"],
        )
        assert out.status is SearchStatus.FOUND
        assert "item.code = '1e5'" in out.sql

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

    def test_superlative_repair_keeps_its_limit_under_an_aggregate(
        self, geo_db, open_db, lexicon
    ):
        # Counting the rewritten superlative must count its one row, not
        # every state.
        out = run_search(
            open_db,
            geo_db,
            lexicon,
            "return states; return the area of #1; "
            "return state with the largest #2; return the number of #3",
            1,
        )
        assert out.status is SearchStatus.FOUND
        assert out.candidates_tried == 3
        assert out.heuristics_applied == ("superlative",)
        assert out.sql == (
            "SELECT COUNT(state.state_name) FROM state WHERE state.state_name IN "
            "( SELECT state.state_name FROM state "
            "ORDER BY state.area DESC LIMIT 1 )"
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
        example = Example(
            id="p", question="q", program=program, answer=[[3]], db_id="products"
        )
        db = open_db(products_db)
        out = search(example, Session(db, schema_of(db), SynthesisConfig(), lexicon))
        assert out.status is SearchStatus.FOUND
        assert out.heuristics_applied == ("distinct",)


class TestFailureStatuses:
    def test_unparseable_decomposition(
        self, products_db, tmp_path, monkeypatch, lexicon
    ):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            '{"id": "ok", "db_id": "products", "question": "q", '
            '"qdmr": "return product types; return the number of #1", '
            '"answer": 3}\n'
            '{"id": "bad", "db_id": "products", "question": "q", '
            '"qdmr": "return #5", "answer": 3}\n'
        )
        examples, rejects = load_examples(corpus)
        assert [(r.line_no, r.id) for r in rejects] == [(2, "bad")]
        assert rejects[0].reason.startswith("DanglingReference: ")
        searched = []
        real_search = corpus_module.search

        def recording_search(example, session):
            searched.append(example.id)
            return real_search(example, session)

        monkeypatch.setattr(corpus_module, "search", recording_search)
        outcomes, _ = run_corpus(examples, products_db.parent, lexicon=lexicon)
        assert searched == ["ok"]
        assert [o.status for o in outcomes] == [SearchStatus.FOUND]

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
        self, products_db, academic_db, open_db, lexicon
    ):
        # No candidate executes, so none may be decided by width ([1, 2])
        # or by kind ("three" against a COUNT).  Each try is a statement of
        # its own (DISTINCT changes what a COUNT counts), but a plain COUNT
        # of a column without nulls counts every row, so it repeats an
        # earlier such COUNT over the same rows (count_key) and is decided
        # with its refusal.  The engine refuses every other statement,
        # numbering its refusals, and the reason names the first try's own.
        # Over products, each of the 12 tries reads one table; the COUNTs
        # of its three columns are one, so 10 are refused, the first as
        # "boom 1".  Over academic, the COUNT and SUM tries over a join
        # would share a statement, but no try shares before a candidate has
        # executed.  Of the 36, the COUNTs of author's two columns are one,
        # of journal's two, of publication's three and of writes' two, so
        # 31 are refused on their own, the first as "boom 1".
        class Refusing:
            """A connection whose engine refuses each statement it is
            given, as ``boom 1``, ``boom 2``, ... in turn."""

            def __init__(self, conn):
                self.conn, self.refused = conn, []

            def __getattr__(self, name):
                return getattr(self.conn, name)

            def execute(self, sql, *args):
                self.refused.append(sql)
                raise sqlite3.OperationalError(f"boom {len(self.refused)}")

        for path, qdmr, tried, refusals, first in (
            (products_db, "return product types; return the number of #1",
             12, 10, 1),
            (academic_db, "return papers; return #1 in PVLDB; return the number of #2",
             36, 31, 1),
        ):
            db = open_db(path)
            session = Session(db, schema_of(db), SynthesisConfig(), lexicon)
            conn = db.conn
            for answer in (999, [[1, 2]], [["three"]]):
                example = FakeExample(qdmr, answer)
                session.prepare(example.program)  # its literal probes read the file
                db.conn = refusing = Refusing(conn)
                try:
                    out = search(example, session)
                finally:
                    db.conn = conn
                assert out.status is SearchStatus.MAPPING_FAILED
                assert out.candidates_tried == tried
                refused = refusing.refused
                assert len(refused) == refusals
                own = refused[first - 1]
                assert own.startswith("SELECT COUNT(") and ", SUM(" not in own
                if first > 1:
                    assert ", SUM(" in refused[0]  # shared, refused first
                assert out.failure_reason == (
                    f"the engine rejected all {tried} candidates; "
                    f"first error: boom {first}"
                )

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
        # No rewrite, and a DISTINCT try that renders its base query again:
        # COUNT over any column is 6, so without the DISTINCT repair nothing
        # reaches 3.  Each of the 3 base queries is tried twice.
        real_render = search_module.render_sql

        def without_distinct(query, distinct=False):
            return real_render(query)

        monkeypatch.setattr(
            search_module, "_program_variants", lambda program: [(program, ())]
        )
        monkeypatch.setattr(search_module, "render_sql", without_distinct)
        out = run_search(
            open_db,
            products_db,
            lexicon,
            "return product types; return the number of #1",
            DISTINCT_PRODUCT_TYPES,
        )
        assert out.status is SearchStatus.EXHAUSTED
        assert out.candidates_tried == 6

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

    def test_value_index_build_precedes_the_deadline(
        self, ship_death_db, open_db, lexicon, monkeypatch
    ):
        # The session reads the text columns when it opens, so a slow first
        # read takes nothing from the example's own deadline.
        real_read = ValueIndex._distinct_values
        slept = []

        def slow_read(self, col):
            if not slept:
                slept.append(col)
                time.sleep(0.3)
            return real_read(self, col)

        monkeypatch.setattr(ValueIndex, "_distinct_values", slow_read)
        out = run_search(
            open_db,
            ship_death_db,
            lexicon,
            "return ships; return names of #1",
            ["Lettice", "Bon Accord", "HMS Trinidad", "Mary", "Lettice", "Avalanche"],
            config=SynthesisConfig(per_example_timeout=0.2),
        )
        assert slept
        assert out.status is SearchStatus.FOUND

    def test_deadline_checked_before_each_map(
        self, ship_death_db, open_db, lexicon, monkeypatch
    ):
        # Every map is slow and fails, so no candidate is ever tried; the
        # deadline must still end the search after at most one more map.
        timeout, one_map = 0.2, 0.05

        def slow_failing_map(*args):
            time.sleep(one_map)
            raise Qdmr2SqlError("cannot map")

        monkeypatch.setattr(search_module, "synthesize", slow_failing_map)
        db = open_db(ship_death_db)
        session = Session(
            db, schema_of(db), SynthesisConfig(per_example_timeout=timeout), lexicon
        )
        example = FakeExample("return ships; return names of #1", ["Mary"])
        start = time.monotonic()
        out = search(example, session)
        elapsed = time.monotonic() - start
        assert out.status is SearchStatus.TIMEOUT
        assert out.candidates_tried == 0
        assert out.failure_reason == "search deadline exceeded"
        assert elapsed < timeout + one_map + 0.1

    def test_literal_probes_stop_at_the_deadline(self, tmp_path, open_db, monkeypatch):
        # With the value index's cap lowered, all ten text columns are
        # probed for each literal the plan and the links look up, which
        # takes several deadlines.  The probe that crosses the deadline is
        # aborted, and nothing it left undecided is kept: the same session
        # finds the answer once the deadline allows.
        monkeypatch.setattr(schema_module, "_MAX_MAPPED_VALUES", 10)
        rows = 10_000
        path = tmp_path / "items.sqlite"
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE items (id INTEGER PRIMARY KEY, "
            + ", ".join(f"c{i} TEXT" for i in range(10)) + ")"
        )
        conn.executemany(
            f"INSERT INTO items VALUES (?{', ?' * 10})",
            ((r, *(f"value {i} number {r:07d}" for i in range(10))) for r in range(rows)),
        )
        conn.commit()
        conn.close()
        db = open_db(path)
        timeout = 0.05
        session = Session(db, schema_of(db), SynthesisConfig(per_example_timeout=timeout))
        example = FakeExample("return items; return #1 named value 3 number 0000042", [[42]])

        start = time.monotonic()
        out = search(example, session)
        elapsed = time.monotonic() - start
        assert out.status is SearchStatus.TIMEOUT
        assert out.candidates_tried == 0
        assert out.failure_reason == "literal lookup hit the search deadline"
        assert elapsed < timeout + 0.1
        assert not session.prepared

        session.config = SynthesisConfig()
        start = time.monotonic()
        out = search(example, session)
        assert time.monotonic() - start > 2 * timeout  # the probes' own time
        assert out.status is SearchStatus.FOUND
        assert out.sql == (
            "SELECT items.id FROM items WHERE items.c3 = 'value 3 number 0000042'"
        )

    def test_runs_of_short_probes_stop_at_the_deadline(self, tmp_path, open_db):
        # Every column is collated, so each is probed for each n-gram of the
        # 40-word filter.  Each probe runs fewer engine steps than lie
        # between two deadline checks, yet the run of them stops at the
        # deadline: SQLite counts the steps of a prepared statement across
        # its runs, and the probes reuse their cached statements.
        db = open_db(_collated_items(tmp_path))
        example = _LONG_FILTER
        timeout = 0.05
        session = Session(db, schema_of(db), SynthesisConfig(per_example_timeout=timeout))
        # The engine steps of each probe of one literal, in both spellings
        # in each column.
        steps = []
        db.conn.set_trace_callback(lambda sql: steps.append(0))

        def count_step():
            steps[-1] += 1

        db.conn.set_progress_handler(count_step, 1)
        session.value_index.columns_containing("word0 word1")
        db.conn.set_progress_handler(None, 0)
        db.conn.set_trace_callback(None)
        assert len(steps) == 60
        assert max(steps) < executor_module._PROGRESS_GRANULARITY

        start = time.monotonic()
        out = search(example, session)
        elapsed = time.monotonic() - start
        assert out.status is SearchStatus.TIMEOUT
        assert out.candidates_tried == 0
        assert out.failure_reason == "literal lookup hit the search deadline"
        assert elapsed < timeout + 0.1

        session.config = SynthesisConfig()
        start = time.monotonic()
        out = search(example, session)
        assert time.monotonic() - start > 2 * timeout  # the probes' own time
        assert out.status is SearchStatus.MAPPING_FAILED

    def test_runs_of_uncached_probes_stop_at_the_deadline(self, tmp_path, open_db):
        # 70 collated columns take 140 probe statements, more than the
        # connection's statement cache holds, so each probe is compiled
        # afresh and its step count, which the engine's hook reads, starts
        # at zero: no probe reaches a check of the hook.  The check made
        # before each probe stops the run.
        db = open_db(_collated_items(tmp_path, columns=70))
        words = " ".join(f"word{i}" for i in range(20))
        example = FakeExample(f"return items; return #1 with {words}", [[1]])
        timeout = 0.05
        session = Session(db, schema_of(db), SynthesisConfig(per_example_timeout=timeout))

        start = time.monotonic()
        out = search(example, session)
        elapsed = time.monotonic() - start
        assert out.status is SearchStatus.TIMEOUT
        assert out.candidates_tried == 0
        assert out.failure_reason == "literal lookup hit the search deadline"
        assert elapsed < timeout + 0.1

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
            session = Session(db, schema_of(db), SynthesisConfig())
            for qdmr, answer in _PLANTED:
                out = search(FakeExample(qdmr, answer), session)
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
            Session(db, schema_of(db), SynthesisConfig()),
        )
        assert out.status is SearchStatus.FOUND, out.failure_reason
        assert 'FROM "order", "group by"' in out.sql
        assert '"group by"."order id" = "order".id' in out.sql


class TestSession:
    def test_one_value_index_and_one_ranking_per_phrase(
        self, db_dir, monkeypatch, lexicon
    ):
        examples, _ = load_examples(DATA_DIR / "corpus.jsonl")
        ships = [ex for ex in examples if ex.db_id == "ship_death"]
        with Database.open(db_dir / "ship_death.sqlite") as db:
            schema = load_schema(db.conn)
            plans = [
                linking.plan_bindings(ex.program, ValueIndex(db, schema))
                for ex in ships
            ]
        slots = [
            slot.text for plan in plans for own in plan.slots.values() for slot in own
            if slot.step is not None
        ]
        # Phrases repeat across the examples, so one ranking serves several.
        assert len(set(slots)) < len(slots)

        indexes, ranked = [], []
        real_init = ValueIndex.__init__
        real_rank = linking.rank_columns

        def counting_init(self, *args):
            indexes.append(self)
            real_init(self, *args)

        def counting_rank(phrase, *args):
            ranked.append(phrase)
            return real_rank(phrase, *args)

        monkeypatch.setattr(ValueIndex, "__init__", counting_init)
        monkeypatch.setattr(linking, "rank_columns", counting_rank)
        with Database.open(db_dir / "ship_death.sqlite") as db:
            session = Session(db, load_schema(db.conn), SynthesisConfig(), lexicon)
            outcomes = [search(ex, session) for ex in ships]
        assert len(indexes) == 1
        assert sorted(ranked) == sorted(set(slots))
        assert [o.status.value for o in outcomes].count("Found") == 7


class TestSnapshot:
    """A session reads one snapshot: the private copy ``Database.open``
    made of the file, which neither a later commit to the file nor a
    deadline abort changes."""

    TOP_SHIP = FakeExample(
        "return ships; return injuries of #1; "
        "return number of #2 for each #1; "
        "return #1 where #3 is highest; return the name of #4",
        [SHIP_TOP_NAME],
    )

    @staticmethod
    def _commit(path, sql):
        writer = sqlite3.connect(path, timeout=0)
        try:
            writer.execute(sql)
            writer.commit()
        finally:
            writer.close()

    def test_writer_commits_while_the_session_reads_its_snapshot(self, tmp_path, open_db):
        path = tmp_path / "people.sqlite"
        build_db(
            path, "CREATE TABLE people (name TEXT); INSERT INTO people VALUES ('Ann');"
        )
        db = open_db(path)
        session = Session(db, schema_of(db), SynthesisConfig())
        out = search(FakeExample("return people", ["Ann"]), session)
        assert out.status is SearchStatus.FOUND
        self._commit(path, "INSERT INTO people VALUES ('Bob')")
        out = search(FakeExample("return people", ["Ann", "Bob"]), session)
        assert out.status is SearchStatus.EXHAUSTED
        assert search(FakeExample("return people", ["Ann"]), session).status is (
            SearchStatus.FOUND
        )

    def test_aborted_candidate_keeps_the_snapshot(
        self, ship_death_db, tmp_path, open_db, lexicon
    ):
        path = tmp_path / "ship_death.sqlite"
        path.write_bytes(ship_death_db.read_bytes())
        db = open_db(path)
        session = Session(
            db, schema_of(db), SynthesisConfig(per_example_timeout=0.05), lexicon
        )
        runaway = (
            "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c)"
            " SELECT count(*) FROM c"
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search_module, "render_sql", lambda query, distinct=False: runaway)
            out = search(self.TOP_SHIP, session)
        assert out.status is SearchStatus.TIMEOUT
        assert out.failure_reason == "candidate execution hit the search deadline"
        # In the file, the top ship now has no deaths; the snapshot keeps them.
        self._commit(path, "DELETE FROM death WHERE caused_by_ship_id = 3")
        session.config = SynthesisConfig()
        assert search(self.TOP_SHIP, session).status is SearchStatus.FOUND

    def test_aborted_probe_keeps_the_snapshot(self, tmp_path, open_db):
        path = _collated_items(tmp_path)
        db = open_db(path)
        session = Session(db, schema_of(db), SynthesisConfig(per_example_timeout=0.05))
        out = search(_LONG_FILTER, session)
        assert out.status is SearchStatus.TIMEOUT
        assert out.failure_reason == "literal lookup hit the search deadline"
        self._commit(path, "UPDATE items SET c3 = 'gone' WHERE id = 7")
        session.config = SynthesisConfig()
        example = FakeExample(
            "return items; return #1 with value 3 row 7", ["value 0 row 7"]
        )
        out = search(example, session)
        assert out.status is SearchStatus.FOUND, out.failure_reason
        assert out.sql == "SELECT items.c0 FROM items WHERE items.c3 = 'value 3 row 7'"

    def test_two_sessions_on_one_database(self, ship_death_db, open_db, lexicon):
        # A second session, and a session on a connection whose writes are
        # not committed, read in the transaction already open.
        db = open_db(ship_death_db)
        for _ in range(2):
            session = Session(db, schema_of(db), SynthesisConfig(), lexicon)
            assert search(self.TOP_SHIP, session).status is SearchStatus.FOUND
        conn = _planted_table("t", "name", "number")
        try:
            assert conn.in_transaction
            db = Database(conn)
            for _ in range(2):
                session = Session(db, schema_of(db), SynthesisConfig())
                out = search(FakeExample(*_PLANTED[0]), session)
                assert out.status is SearchStatus.FOUND
        finally:
            conn.close()


def _ships(path, tonnages, deaths=None, codes=None):
    """A ``ship`` table with one row per tonnage, named in turn from a fixed
    list, whose second name is at no extreme of id or name order; with
    ``codes``, a ``code TEXT COLLATE NOCASE`` column holding them in turn;
    with ``deaths``, a ``death`` table of (ship id, killed) rows keyed to
    it."""
    names = ["Avalanche", "Mary", "Zephyr", "Lettice", "Bon Accord", "Kestrel"]
    code = ", code TEXT COLLATE NOCASE" if codes else ""
    script = f"CREATE TABLE ship (id INTEGER PRIMARY KEY, name TEXT, tonnage INTEGER{code});"
    script += "".join(
        f"INSERT INTO ship VALUES ({i}, '{names[i - 1]}', {t}"
        + (f", '{codes[i - 1]}');" if codes else ");")
        for i, t in enumerate(tonnages, 1)
    )
    if deaths is not None:
        script += (
            "CREATE TABLE death (id INTEGER PRIMARY KEY, killed INTEGER,"
            " caused_by_ship_id INTEGER REFERENCES ship (id));"
        ) + "".join(
            f"INSERT INTO death VALUES ({i}, {killed}, {ship});"
            for i, (ship, killed) in enumerate(deaths, 1)
        )
    build_db(path, script)
    return names[: len(tonnages)]


_HIGHEST = [
    "return ships; return tonnage of #1; return #1 where #2 is highest; "
    "return the name of #3",
    "return ships; return the name of #1; return tonnage of #1; "
    "return #2 where #3 is highest",
]


class TestTies:
    """A LIMIT that cuts between rows of equal ORDER BY key returns the tied
    rows the query plan picks; QDMR's "highest" means all of them, so such a
    try is a mismatch."""

    @pytest.mark.parametrize("qdmr", _HIGHEST, ids=["nested", "top_level"])
    def test_tie_at_the_top_is_not_found_through_a_limit(
        self, tmp_path, open_db, lexicon, qdmr
    ):
        # Mary and Zephyr share the top tonnage; Mary is at no extreme of
        # id or name, so only a cut through the tie could return her alone.
        tied, untied = tmp_path / "tied.sqlite", tmp_path / "untied.sqlite"
        _ships(tied, [250, 900, 900, 300])
        _ships(untied, [250, 900, 800, 300])
        out = run_search(open_db, tied, lexicon, qdmr, ["Mary"])
        assert out.status is SearchStatus.EXHAUSTED, out.sql
        out = run_search(open_db, untied, lexicon, qdmr, ["Mary"])
        assert out.status is SearchStatus.FOUND
        assert "ORDER BY ship.tonnage DESC LIMIT 1" in out.sql

    def test_tie_check_runs_outside_the_executor(self, tmp_path, open_db, monkeypatch):
        # The check reads rows k and k + 1 of each LIMIT 1 query through
        # Database.fetch, in one statement that compares their keys;
        # Database.execute runs candidates alone.
        path = tmp_path / "ships.sqlite"
        _ships(path, [250, 900, 900, 300])
        db = open_db(path)
        traced, executed = [], []
        db.conn.set_trace_callback(traced.append)
        real_execute = Database.execute

        def recording(self, sql, target):
            executed.append(sql)
            return real_execute(self, sql, target)

        monkeypatch.setattr(Database, "execute", recording)
        session = Session(db, schema_of(db), SynthesisConfig())
        out = search(FakeExample(_HIGHEST[1], ["Mary"]), session)
        assert out.status is SearchStatus.EXHAUSTED
        probes = [sql for sql in traced if "LIMIT 2) SELECT" in sql]
        assert probes and all(" IS lag(" in sql for sql in probes)
        assert not any("LIMIT 2" in sql for sql in executed)

    @pytest.mark.parametrize(
        "cells, distinct, tied",
        [([1], False, False), ([1, 2], False, True), ([1, 1], False, True),
         ([1, 1], True, False)],
    )
    def test_probe_of_a_limit_without_a_key(self, cells, distinct, tied):
        # Without an ORDER BY key every row ties, so a LIMIT k cuts a tie
        # when its query, DISTINCT included, has more than k rows.
        conn = sqlite3.connect(":memory:")
        try:
            conn.execute("CREATE TABLE t (a)")
            conn.executemany("INSERT INTO t VALUES (?)", [(c,) for c in cells])
            query = SqlQuery(select=(ColExpr(ColumnRef("t", "a")),),
                             from_tables=("t",), limit=1)
            select = "SELECT DISTINCT" if distinct else "SELECT"
            probe, = sqlgen.tie_probes(query, distinct)
            assert probe == f"SELECT count(*) > 1 FROM ({select} t.a FROM t LIMIT 2)"
            assert conn.execute(probe).fetchall() == [(int(tied),)]
            assert search_module._tied(query, distinct, Database(conn)) is tied
        finally:
            conn.close()

    @pytest.mark.parametrize("answer", [[1], [2]])
    def test_tie_under_a_collated_key_is_not_found(self, tmp_path, open_db, answer):
        # 'abc' and 'ABC' tie under NOCASE, though Python tells them apart:
        # a LIMIT 1 returns the one the plan picks, so neither is found.
        path = tmp_path / "ships.sqlite"
        build_db(
            path,
            "CREATE TABLE ship (id INTEGER PRIMARY KEY, code TEXT COLLATE NOCASE);"
            "INSERT INTO ship VALUES (1, 'abc'), (2, 'ABC'), (3, 'aaa');",
        )
        out = run_search(
            open_db, path, None,
            "return ships; return code of #1; return #1 where #2 is highest", answer,
        )
        assert out.status is SearchStatus.EXHAUSTED, out.sql

    @settings(max_examples=100, deadline=None)
    @given(
        tonnages=st.lists(st.sampled_from([100, 200, 300]), min_size=1, max_size=6),
        deaths=st.one_of(st.none(), st.lists(
            st.tuples(st.integers(1, 6), st.sampled_from([0, 1, 2])), max_size=8
        )),
        qdmr=st.sampled_from(_HIGHEST + [
            "return ships; return tonnage of #1; return #1 where #2 is lowest; "
            "return the name of #3",
            "return ships; return deaths of #1; return number of #2 for each #1; "
            "return #1 where #3 is highest; return the name of #4",
            "return ships; return killed of #1; return #1 where #2 is highest; "
            "return the name of #3",
            "return ships; return code of #1; return #1 where #2 is highest; "
            "return the name of #3",
        ]),
        pick=st.lists(st.integers(0, 5), min_size=1, max_size=2),
        # Keys that tie under the column's NOCASE, though not as Python strings.
        codes=st.one_of(st.none(), st.lists(
            st.sampled_from(["abc", "ABC", "aaa"]), min_size=6, max_size=6
        )),
    )
    def test_found_sql_reads_the_same_rows_from_the_file(
        self, tmp_path_factory, tonnages, deaths, qdmr, pick, codes
    ):
        path = tmp_path_factory.mktemp("ties") / "ships.sqlite"
        names = _ships(path, tonnages, deaths, codes)
        answer = sorted({names[i % len(names)] for i in pick})
        with Database.open(path) as db:
            session = Session(db, schema_of(db), SynthesisConfig())
            out = search(FakeExample(qdmr, answer), session)
            event(f"{out.status.value}, LIMIT: {'LIMIT' in (out.sql or '')}")
            if out.status is not SearchStatus.FOUND:
                return
            if "ORDER BY ship.code DESC LIMIT 1" in out.sql:
                # No other ship's code equals the top one under NOCASE.
                top = max(codes[: len(names)], key=str.lower).lower()
                assert [c.lower() for c in codes[: len(names)]].count(top) == 1
            copied = set(db.conn.execute(out.sql))
        plain = sqlite3.connect(path.resolve().as_uri() + "?mode=ro", uri=True)
        try:
            assert set(plain.execute(out.sql)) == copied, out.sql
        finally:
            plain.close()


def _tied_ships(tmp_path, db_dir):
    _ships(tmp_path / "ships.sqlite", [250, 900, 900, 300])
    return tmp_path / "ships.sqlite"


# Searches that run each kind of statement a session fetches, as (database
# builder, decomposition, answer, a text only that kind's statements hold,
# the reason of a timeout met in one).
_FETCHES = [
    (lambda tmp_path, db_dir: db_dir / "academic.sqlite",
     "return papers; return #1 in PVLDB; return the number of #2", 999,
     ", SUM(", "candidate execution hit the search deadline"),
    (_tied_ships, _HIGHEST[1], ["Mary"],
     " IS lag(", "candidate execution hit the search deadline"),
    (lambda tmp_path, db_dir: _collated_items(tmp_path), "return items; return #1 with value 3 row 7", ["value 0 row 7"],
     " = ? LIMIT 1", "literal lookup hit the search deadline"),
]
_FETCH_IDS = ["shared_statements", "tie_probes", "value_probes"]


class TestOneRuntime:
    """Every statement a session runs on its connection goes through
    ``Database.fetch`` or, for a candidate, ``Database.execute`` or, for a
    statement candidates share, ``Database.execute_columns``, so the
    database's deadline bounds each of them."""

    @pytest.mark.parametrize("build, qdmr, answer, marker, reason", _FETCHES, ids=_FETCH_IDS)
    def test_traced_statements_are_the_databases(
        self, tmp_path, db_dir, open_db, lexicon, build, qdmr, answer, marker, reason
    ):
        db = open_db(build(tmp_path, db_dir))
        schema = schema_of(db)
        traced, routed, fetched = [], [], []  # fetched: each not a try's own
        real_fetch, real_execute = Database.fetch, Database.execute
        real_columns = Database.execute_columns

        def fetch(self, sql, params=()):
            fetched.append(sql)
            # The trace reports each ``?`` bound to its (text) parameter.
            bound = sql
            for value in params:
                bound = bound.replace("?", "'" + value.replace("'", "''") + "'", 1)
            routed.append(bound)
            return real_fetch(self, sql, params)

        def execute(self, sql, target):
            routed.append(sql)
            return real_execute(self, sql, target)

        def execute_columns(self, sql, target):
            fetched.append(sql)
            routed.append(sql)
            return real_columns(self, sql, target)

        db.conn.set_trace_callback(traced.append)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Database, "fetch", fetch)
            mp.setattr(Database, "execute", execute)
            mp.setattr(Database, "execute_columns", execute_columns)
            session = Session(db, schema, SynthesisConfig(), lexicon)
            search(FakeExample(qdmr, answer), session)
        db.conn.set_trace_callback(None)
        assert routed and traced == routed
        assert any(marker in sql for sql in fetched)

    @pytest.mark.parametrize("build, qdmr, answer, marker, reason", _FETCHES, ids=_FETCH_IDS)
    def test_a_deadline_met_in_a_fetch_ends_the_search(
        self, tmp_path, db_dir, open_db, lexicon, build, qdmr, answer, marker, reason
    ):
        # The deadline passes as the first statement of the kind is fetched,
        # or, for a shared statement, run (``Database.execute_columns``).
        # A caller that took the timeout for an engine error would go on to
        # the next try, and the search would end for another reason.
        db = open_db(build(tmp_path, db_dir))
        session = Session(db, schema_of(db), SynthesisConfig(), lexicon)
        real_fetch, real_columns = Database.fetch, Database.execute_columns

        def fetch(self, sql, params=()):
            if marker in sql:
                self.deadline = -math.inf
            return real_fetch(self, sql, params)

        def execute_columns(self, sql, target):
            if marker in sql:
                self.deadline = -math.inf
            return real_columns(self, sql, target)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Database, "fetch", fetch)
            mp.setattr(Database, "execute_columns", execute_columns)
            out = search(FakeExample(qdmr, answer), session)
        assert out.status is SearchStatus.TIMEOUT
        assert out.failure_reason == reason


class TestDeadlineLifted:
    """However a search ends, it lifts its deadline from the database: past
    any deadline, a long statement runs to its end and a literal is probed."""

    # Over 10^5 engine steps, a hundred and more checks of the hook.
    COUNT_TO_1E5 = (
        "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c WHERE x < 100000)"
        " SELECT count(*) FROM c"
    )
    RUNAWAY = (
        "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c)"
        " SELECT count(*) FROM c"
    )

    @pytest.mark.parametrize("qdmr, answer, timeout, status", [
        ("return items; return #1 with value 3 row 7", ["value 0 row 7"], 60.0,
         SearchStatus.FOUND),
        ("return items", ["no such value"], 60.0, SearchStatus.EXHAUSTED),
        ("return items; return #1 with " + " ".join(f"word{i}" for i in range(40)),
         [[1]], 0.05, SearchStatus.TIMEOUT),
        ("return items; return #1 with word0", [[1]], 60.0,
         SearchStatus.MAPPING_FAILED),
    ], ids=["found", "exhausted", "probe_timeout", "mapping_failed"])
    def test_after_each_status(self, tmp_path, open_db, qdmr, answer, timeout, status):
        db = open_db(_collated_items(tmp_path))
        session = Session(db, schema_of(db), SynthesisConfig(per_example_timeout=timeout))
        assert search(FakeExample(qdmr, answer), session).status is status
        self.assert_unbounded(db, session)

    def test_after_a_candidate_timeout(self, tmp_path, open_db, monkeypatch):
        db = open_db(_collated_items(tmp_path))
        session = Session(db, schema_of(db), SynthesisConfig(per_example_timeout=0.05))
        monkeypatch.setattr(
            search_module, "render_sql", lambda query, distinct=False: self.RUNAWAY
        )
        out = search(FakeExample("return items", [[1]]), session)
        assert out.failure_reason == "candidate execution hit the search deadline"
        self.assert_unbounded(db, session)

    def test_after_a_search_that_raises(self, tmp_path, open_db, monkeypatch):
        def broken(slots, limit):
            raise RuntimeError("broken enumeration")

        db = open_db(_collated_items(tmp_path))
        session = Session(db, schema_of(db), SynthesisConfig())
        monkeypatch.setattr(search_module, "enumerate_assignments", broken)
        with pytest.raises(RuntimeError, match="broken enumeration"):
            search(FakeExample("return items", [[1]]), session)
        self.assert_unbounded(db, session)

    def test_a_bare_database_has_none(self):
        db = Database(sqlite3.connect(":memory:"))
        try:
            assert db.deadline == math.inf
            self.assert_unbounded(db, None)
        finally:
            db.close()

    def assert_unbounded(self, db, session):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(time, "monotonic", lambda: math.inf)
            got = db.execute(self.COUNT_TO_1E5, answer_denotation(100000))
            assert got.rows == ((100000,),) and not got.mismatch
            if session is not None:
                assert session.value_index.columns_containing("value 5 row 9") == (
                    ColumnRef("items", "c5"),
                )


class TestOnePassVerdict:
    """The search decides a candidate from the rows it read: one outside
    the answer is a mismatch, and only a result read in full is compared."""

    @settings(max_examples=200, deadline=None)
    @given(case=tables_and_targets(), allow_empty=st.booleans())
    @example(case=(1, [], Denotation.from_rows([])), allow_empty=True)
    @example(case=(1, [], Denotation.from_rows([])), allow_empty=False)
    @example(case=(1, [(1,), (1,)], Denotation.from_rows([])), allow_empty=True)
    # The last row read is within the tolerance of an answer row.
    @example(case=(1, [(2,), (1.0000005,)], answer_denotation([1, 2])), allow_empty=False)
    def test_verdict_equals_full_verdict(self, tmp_path_factory, case, allow_empty):
        arity, rows, target = case
        path = tmp_path_factory.mktemp("verdict") / "t.sqlite"
        _write_table(path, arity, rows)
        full = run(path, "SELECT * FROM t")
        query = SqlQuery(
            select=tuple(ColExpr(ColumnRef("t", f"c{i}")) for i in range(arity)),
            from_tables=("t",),
        )
        with Database.open(path) as db:
            session = Session(
                db, load_schema(db.conn),
                SynthesisConfig(allow_empty_denotation=allow_empty),
            )
            # One candidate, which reads every column; its DISTINCT try is
            # decided with it.
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(search_module, "_program_variants", lambda p: [(p, ())])
                mp.setattr(search_module, "enumerate_assignments",
                           lambda slots, limit: iter([linking.Assignment({})]))
                mp.setattr(search_module, "synthesize", lambda *args: query)
                out = search(
                    FakeExample("return things", [list(row) for row in target.rows]),
                    session,
                )
        assert out.status in (SearchStatus.FOUND, SearchStatus.EXHAUSTED)
        assert (out.status is SearchStatus.FOUND) == denotations_equal(
            full, target, allow_empty
        )

    def test_mismatch_never_compared(self, db_dir, lexicon, monkeypatch):
        # A try reads its rows from its own statement (Database.execute) or
        # takes its column of a statement shared with other tries over the
        # same rows (Database.execute_columns), which reads each of its
        # columns; all read through read_until_mismatch.
        executed, compared = [], []
        real_read = executor_module.read_until_mismatch
        real_equal = search_module.denotations_equal

        def read(rows, target):
            executed.append(real_read(rows, target))
            return executed[-1]

        def equal(result, target, allow_empty=False):
            compared.append(result)
            assert not result.mismatch
            assert all(
                any(executor_module._rows_match(row, t) for t in target.rows)
                for row in result.rows
            )
            return real_equal(result, target, allow_empty)

        monkeypatch.setattr(executor_module, "read_until_mismatch", read)
        monkeypatch.setattr(search_module, "denotations_equal", equal)
        examples, _ = load_examples(DATA_DIR / "corpus.jsonl")
        outcomes, _ = run_corpus(examples, db_dir, lexicon=lexicon)
        mismatches = [r for r in executed if r.mismatch]
        assert mismatches
        # One result for each of the 92 tries that reach the engine on
        # their own statement, and two for g2's last try, which reads both
        # columns of the statement it shares with state's other column
        # under one nested query.  No other fixture search reads a shared
        # statement: none shares before a candidate has executed, and those
        # over a join that could are found on their first try.
        assert len(executed) == 94
        assert len(compared) == len(executed) - len(mismatches)
        assert sum(o.status is SearchStatus.FOUND for o in outcomes) == 23


class TestCandidateOrder:
    def test_each_variant_as_mapped_then_distinct(
        self, geo_db, open_db, lexicon, monkeypatch
    ):
        """For one assignment: the base query, the superlative rewrite and
        the COUNT/SUM swap, each as mapped and then with DISTINCT."""
        rendered = []
        real_render = search_module.render_sql

        def recording(query, distinct=False):
            rendered.append(real_render(query, distinct=distinct))
            return rendered[-1]

        monkeypatch.setattr(search_module, "render_sql", recording)
        out = run_search(
            open_db,
            geo_db,
            lexicon,
            "return states; return the size of #1; "
            "return state with the largest #2; return the number of #3",
            -1,
            config=SynthesisConfig(max_assignments=1),
        )
        assert out.status is SearchStatus.EXHAUSTED
        assert out.candidates_tried == 6
        every_area = (
            "FROM state WHERE state.area IN ( SELECT state.area FROM state "
            "WHERE state.state_name IN ( SELECT state.state_name FROM state ) )"
        )
        largest = (
            "FROM state WHERE state.state_name IN ( SELECT state.state_name "
            "FROM state ORDER BY state.area DESC LIMIT 1 )"
        )
        assert rendered == [
            f"SELECT COUNT(state.area) {every_area}",
            f"SELECT COUNT(DISTINCT state.area) {every_area}",
            f"SELECT COUNT(state.state_name) {largest}",
            f"SELECT COUNT(DISTINCT state.state_name) {largest}",
            f"SELECT SUM(state.area) {every_area}",
            f"SELECT SUM(DISTINCT state.area) {every_area}",
        ]


def _mapped(program, schema, assignment, plan, memo=None):
    try:
        return render_sql(synthesize(program, schema, assignment, plan, memo))
    except Qdmr2SqlError as exc:
        return type(exc), str(exc)


class TestPlanSharing:
    def test_every_variant_maps_under_the_base_plan(self, db_dir):
        """A variant's SELECT and FILTER steps, the only ones that read a
        plan's literals, are the base program's own; so mapping a variant
        under the base plan gives what its own plan gives."""
        examples, _ = load_examples(DATA_DIR / "corpus.jsonl")
        compared = 0
        for db_id in dict.fromkeys(ex.db_id for ex in examples):
            with Database.open(db_dir / f"{db_id}.sqlite") as db:
                schema = load_schema(db.conn)
                index = ValueIndex(db, schema)
                programs = {
                    render_program(ex.program): ex.program
                    for ex in examples if ex.db_id == db_id
                }
                for base in programs.values():
                    plan = linking.plan_bindings(base, index)
                    slots = linking.link_program(plan, schema, None, index, 20, {})
                    variants = search_module._program_variants(base)
                    assert variants[0] == (base, ())
                    for variant, _ in variants[1:]:
                        for step in variant.steps:
                            if step.operator.kind in (OpKind.SELECT, OpKind.FILTER):
                                own = base.step(step.index)
                                assert own.operator.kind is step.operator.kind
                                assert own.raw_text == step.raw_text
                                assert own.shape == step.shape
                        own_plan = linking.plan_bindings(variant, index)
                        for assignment in linking.enumerate_assignments(slots, 20):
                            assert _mapped(variant, schema, assignment, plan) == (
                                _mapped(variant, schema, assignment, own_plan)
                            )
                            compared += 1
        assert compared > 0


def _count_builds(monkeypatch):
    """Record the index of every step a rule of ``sqlgen._RULES`` builds."""
    built = []
    for kind, rule in list(sqlgen._RULES.items()):
        def counted(step, ctx, rule=rule):
            built.append(step.index)
            return rule(step, ctx)
        monkeypatch.setitem(sqlgen._RULES, kind, counted)
    return built


def _example_memo(join_paths):
    """The example's one memo, which every variant shares, as a search has it."""
    return StepMemo({}, join_paths)


# Decompositions whose variants rewrite a step: a COUNT/SUM swap or a
# superlative.  "red" and "blue" are literals (:class:`_RedAndBlue`).
_REWRITTEN = [
    "return a; return the number of #1; return b of #1; return the sum of #3",
    "return a; return b of #1; return a with the largest #2; return c of #3;"
    " return the number of #4",
    "return red b; return a of #1; return #2 with the lowest c; return the sum of #3",
    "return a that is red; return #1 that is blue; return b of #2;"
    " return the sum of #3 for each #1; return #1 where #4 is at least 2",
    "return a; return b of #1; return c of #1; return #1 where #2 is highest;"
    " return the number of #4; return the sum of #3",
]


def _mapped_query(program, schema, assignment, plan, memo=None):
    """The mapped query, its hash and text, or its error's type and message."""
    try:
        query = synthesize(program, schema, assignment, plan, memo)
    except Qdmr2SqlError as exc:
        return type(exc), str(exc)
    return query, hash(query), render_sql(query)


class TestStepMemo:
    def test_memoized_steps_map_as_fresh_ones(self, db_dir, lexicon, monkeypatch):
        """For every fixture example, every assignment its search may
        enumerate and every variant, mapping through the example's shared
        memo renders what mapping afresh renders, or fails with the same
        error; and the memo is used, not only filled: it builds fewer
        steps than mapping afresh does."""
        examples, _ = load_examples(DATA_DIR / "corpus.jsonl")
        config = SynthesisConfig()
        built = _count_builds(monkeypatch)
        compared = memoized_builds = fresh_builds = 0
        for db_id in dict.fromkeys(ex.db_id for ex in examples):
            with Database.open(db_dir / f"{db_id}.sqlite") as db:
                session = Session(db, load_schema(db.conn), config, lexicon)
                for ex in examples:
                    if ex.db_id != db_id:
                        continue
                    prepared = session.prepare(ex.program)
                    memo = _example_memo(session.join_paths)
                    for assignment in linking.enumerate_assignments(
                        prepared.slots, config.max_assignments
                    ):
                        for variant, _ in prepared.variants:
                            args = (variant, session.schema, assignment, prepared.plan)
                            before = len(built)
                            memoized = _mapped(*args, memo)
                            middle = len(built)
                            assert memoized == _mapped(*args)
                            memoized_builds += middle - before
                            fresh_builds += len(built) - middle
                            compared += 1
        assert compared > 1000
        assert 0 < memoized_builds < fresh_builds

    def test_a_step_is_kept_under_the_slots_of_the_steps_it_references(
        self, ship_death_db, open_db
    ):
        """Two assignments that differ only in step 1's slot give step 2
        different queries, so step 2's memo key must hold step 1's mapped
        step, which holds step 1's column.  A third step makes step 2 one
        that the memo keeps."""
        db = open_db(ship_death_db)
        schema = load_schema(db.conn)
        program = parse_qdmr(
            "return ships; return injuries of #1; return the number of #2"
        )
        plan = linking.plan_bindings(program, None)
        (ships,), (injuries,) = plan.slots.values()
        assert (ships.step, injuries.step) == (1, 2)
        injured = ColumnRef("death", "injured")
        assignments = [
            linking.Assignment({ships: ColumnRef(table, column), injuries: injured})
            for table, column in (("ship", "id"), ("death", "caused_by_ship_id"))
        ]
        memo = StepMemo({}, {})
        memoized = [_mapped(program, schema, a, plan, memo) for a in assignments]
        fresh = [_mapped(program, schema, a, plan) for a in assignments]
        assert memoized == fresh
        # Joined to ship through ship.id, or read from death alone.
        assert fresh == [
            "SELECT COUNT(death.injured) FROM death, ship"
            " WHERE death.caused_by_ship_id = ship.id",
            "SELECT COUNT(death.injured) FROM death",
        ]
        # Step 2 was mapped once per assignment, not taken from the first.
        assert [key[0] for key in memo.steps].count(2) == 2

    def test_a_swapped_variant_maps_only_the_swapped_step_and_after(
        self, ship_death_db, open_db, monkeypatch
    ):
        """The COUNT/SUM swap rewrites step 3 of four.  Its variant shares
        steps 1 and 2 with the base program, so once the base is mapped
        under an assignment, mapping it again builds its last step alone,
        and the variant builds steps 3 and 4 alone, and still maps as it
        would afresh."""
        db = open_db(ship_death_db)
        session = Session(db, schema_of(db), SynthesisConfig())
        program = parse_qdmr(
            "return ships; return deaths of #1; "
            "return the number of #2 for each #1; return #1 where #3 is at least 2"
        )
        prepared = session.prepare(program)
        (base, base_labels), (swapped, labels) = prepared.variants
        assert (base_labels, labels) == ((), ("aggregate_swap",))
        memo = _example_memo({})
        built = _count_builds(monkeypatch)
        mapped = 0
        for assignment in linking.enumerate_assignments(prepared.slots, 50):
            args = (session.schema, assignment, prepared.plan)
            if isinstance(_mapped(base, *args, memo), tuple):
                continue  # a failed step is not kept
            del built[:]
            _mapped(base, *args, memo)
            assert built == [4]
            del built[:]
            memoized = _mapped(swapped, *args, memo)
            assert built == [3, 4]
            assert memoized == _mapped(swapped, *args)
            mapped += 1
        assert mapped > 1

    def test_a_variant_takes_the_later_steps_that_skip_its_rewrite(
        self, ship_death_db, open_db, monkeypatch
    ):
        """The COUNT/SUM swap rewrites step 2 of four, which no later step
        references.  Once the base is mapped under an assignment, the
        variant takes step 3 from it and builds steps 2 and 4 alone, and
        still maps as it would afresh."""
        db = open_db(ship_death_db)
        session = Session(db, schema_of(db), SynthesisConfig())
        program = parse_qdmr(
            "return ships; return the number of #1; return the tonnage of #1;"
            " return the sum of #3"
        )
        prepared = session.prepare(program)
        (base, _), *variants = prepared.variants
        swapped, = [v for v, _ in variants if v.step(2).raw_text == "the sum of #1"]
        built = _count_builds(monkeypatch)
        mapped = 0
        for assignment in linking.enumerate_assignments(prepared.slots, 50):
            args = (session.schema, assignment, prepared.plan)
            memo = _example_memo({})
            if isinstance(_mapped(base, *args, memo), tuple):
                continue  # a failed step is not kept
            del built[:]
            memoized = _mapped(swapped, *args, memo)
            assert built == [2, 4]
            assert memoized == _mapped(swapped, *args)
            mapped += 1
        assert mapped > 1

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_one_memo_serves_every_variant_as_fresh_ones(self, seed, data):
        """Over drawn schemas with parallel foreign keys, decompositions
        whose variants rewrite a step, and runs of assignments that differ
        in one slot each, one memo shared by every variant and assignment
        maps each to the query a fresh memo maps, under ``==``, ``hash``
        and ``render_sql``, or fails with the same error and message."""
        rng = random.Random(seed)
        schema = random_schema(rng, rng.randint(2, 6))
        while not schema.parallel_columns:
            schema = random_schema(rng, rng.randint(2, 6))
        program = parse_qdmr(data.draw(st.sampled_from(_REWRITTEN)))
        plan = linking.plan_bindings(program, _RedAndBlue())
        variants = [variant for variant, _ in search_module._program_variants(program)]
        assert len(variants) > 1
        slots = [slot for own in plan.slots.values() for slot in own]
        columns = st.sampled_from(schema.columns())
        chosen = {slot: data.draw(columns) for slot in slots}
        memo = StepMemo({}, {})
        for _ in range(data.draw(st.integers(1, 6))):
            chosen[data.draw(st.sampled_from(slots))] = data.draw(columns)
            assignment = linking.Assignment(dict(chosen))
            for variant in variants:
                args = (variant, schema, assignment, plan)
                shared = _mapped_query(*args, memo)
                event("fails" if len(shared) == 2 else "maps")
                assert shared == _mapped_query(*args)

    def test_prepare_is_keyed_by_step_texts(self, ship_death_db, open_db):
        """Two decompositions parsed apart that have the same step texts
        share one record; a different one gets its own."""
        db = open_db(ship_death_db)
        session = Session(db, schema_of(db), SynthesisConfig())
        first = session.prepare(parse_qdmr("return ships; return the tonnage of #1"))
        again = parse_qdmr("return  ships ;return the tonnage of #1")
        assert session.prepare(again) is first
        assert list(session.prepared) == [("ships", "the tonnage of #1")]
        other = session.prepare(parse_qdmr("return ships; return the name of #1"))
        assert other is not first
        assert len(session.prepared) == 2


def _searched(examples, database_of, lexicon):
    """What ``search`` reports for each example, each searched on one
    session per database, in order, and the statements the sessions ran."""
    sessions, reported, statements = {}, [], []
    try:
        for ex in examples:
            path = database_of(ex)
            if path not in sessions:
                db = Database.open(path)
                sessions[path] = Session(db, load_schema(db.conn), SynthesisConfig(), lexicon)
                db.conn.set_trace_callback(statements.append)
            out = search(ex, sessions[path])
            reported.append((out.status, out.sql, out.heuristics_applied,
                             out.candidates_tried, out.failure_reason))
    finally:
        for session in sessions.values():
            session.close()
    return reported, statements


def _map_afresh(monkeypatch):
    """Make the search map every try afresh: without a memo, no step and
    no pattern is kept."""
    real_synthesize = search_module.synthesize

    def afresh(program, schema, assignment, plan, memo=None, decide=None):
        return real_synthesize(program, schema, assignment, plan, None, decide)

    monkeypatch.setattr(search_module, "synthesize", afresh)


class TestPatternMemo:
    def test_fixture_corpus_searches_as_when_mapped_afresh(self, db_dir, lexicon, monkeypatch):
        """Statuses, SQL, heuristics, tries and failure reasons of every
        fixture example, and the statements run, are those of a search
        that maps each try afresh."""
        examples, _ = load_examples(DATA_DIR / "corpus.jsonl")

        def database_of(ex):
            return db_dir / f"{ex.db_id}.sqlite"

        kept = _searched(examples, database_of, lexicon)
        _map_afresh(monkeypatch)
        assert _searched(examples, database_of, lexicon) == kept

    def test_tries_decided_by_kind_count_as_when_mapped_afresh(
        self, ship_death_db, lexicon, monkeypatch
    ):
        """No ship is named by the text answer, and most tries select
        numbers.  Once a candidate has executed, a try whose pattern was
        kept and whose select list can hold no text is decided without
        its WHERE being built; the search still reports what a search
        that maps each try afresh reports."""
        examples = [
            FakeExample(qdmr, ["Nowhere"]) for qdmr in (
                "return ships; return injuries of #1; return number of #2 for each #1;"
                " return #1 where #3 is highest; return the name of #4",
                "return ships; return tonnage of #1; return #1 where #2 is more than 800",
            )
        ]
        decided = []
        real_synthesize = search_module.synthesize

        def counted(*args):
            query = real_synthesize(*args)
            decided.append(query is None)
            return query

        with monkeypatch.context() as mp:
            mp.setattr(search_module, "synthesize", counted)
            kept = _searched(examples, lambda ex: ship_death_db, lexicon)
        assert sum(decided) > 100
        assert [status for status, *_ in kept[0]] == [SearchStatus.EXHAUSTED] * 2
        _map_afresh(monkeypatch)
        assert _searched(examples, lambda ex: ship_death_db, lexicon) == kept


# --- candidates decided without running them -----------------------------------

_STORED = st.sampled_from(
    # Every kind: null, numbers, numeric strings, text that differs only in
    # case or trailing blanks, and BLOBs, which are read as text.
    [None, 1, 2, 2.0, -1.25, "1", "2.0", "x", "X", "x ", b"x", b"1"]
)
# Each column draws from a pool of at most three values, so that rows
# repeat and DISTINCT has something to merge.
_ROWS = st.lists(
    st.lists(_STORED, min_size=1, max_size=3), min_size=3, max_size=3
).flatmap(lambda pools: st.lists(
    st.tuples(*(st.sampled_from(pool) for pool in pools)), max_size=8
))
_ANSWER_CELL = st.one_of(
    st.none(),
    st.integers(-2, 2),
    st.sampled_from([0.5, 2.0, 1]),
    st.sampled_from(["1", "2", "x", "X", "y", "2.0"]),
)


def _columns(nocase):
    """The columns of table ``t``, as introspection records them."""
    return [ColumnRef("t", name, collated=nocase) for name in "abc"]


@st.composite
def _query(draw, nocase):
    """A query over table ``t`` from the constructs ``sqlgen`` emits."""
    cols = _columns(nocase)

    def col():
        return ColExpr(draw(st.sampled_from(cols)))

    def sometimes():
        return draw(st.sampled_from([False, False, False, True]))

    def scalar():
        fn = draw(st.sampled_from(["count", "sum", "min", "max"]))
        return SqlQuery(select=(AggExpr(fn, col()),), from_tables=("t",))

    def item():
        kind = draw(st.sampled_from(
            ["col"] * 4 + ["count", "sum", "avg", "min", "max", "arith"]
        ))
        if kind == "col":
            return col()
        if kind == "arith":
            return ArithExpr(draw(st.sampled_from("+-*/")), scalar(), scalar())
        return AggExpr(kind, col())

    select = tuple(item() for _ in range(draw(st.integers(1, 2))))
    where = ()
    if sometimes():
        # An inner ORDER BY ... LIMIT, whose ties SQLite breaks as it likes.
        key = col()
        inner = SqlQuery(
            select=(key,), from_tables=("t",),
            order_by=(col(), draw(st.sampled_from(["ASC", "DESC"]))),
            limit=draw(st.integers(1, 3)),
        )
        where = (InPred(key, inner),)
    group_by = col() if sometimes() else None
    having = ()
    if sometimes():
        having = (CmpPred(AggExpr("count", col()), ">", draw(st.integers(0, 2))),)
    order_by = None
    if sometimes():
        key = col() if draw(st.booleans()) else AggExpr("count", col())
        order_by = (key, draw(st.sampled_from(["ASC", "DESC"])))
    return SqlQuery(
        select=select, from_tables=("t",), where=where, group_by=group_by,
        having=having, order_by=order_by,
        limit=draw(st.integers(1, 3)) if sometimes() else None,
    )


def _recounted(query, col):
    """``query`` with each COUNT of its select list, HAVING and ORDER BY
    counting ``col``."""

    def recount(expr):
        if isinstance(expr, AggExpr) and expr.fn == "count":
            return AggExpr("count", ColExpr(col))
        return expr

    order_by = query.order_by and (recount(query.order_by[0]), query.order_by[1])
    having = tuple(CmpPred(recount(p.expr), p.op, p.value) for p in query.having)
    return dataclasses.replace(query, select=tuple(map(recount, query.select)),
                               having=having, order_by=order_by)


@st.composite
def _candidates(draw, nocase):
    """The queries the search maps, some an earlier one recounted, whose
    COUNTs may repeat the earlier one's when both columns hold no null."""
    queries = []
    for _ in range(draw(st.integers(1, 6))):
        if queries and draw(st.booleans()):
            earlier = draw(st.sampled_from(queries))
            queries.append(_recounted(earlier, draw(st.sampled_from(_columns(nocase)))))
        else:
            queries.append(draw(_query(nocase)))
    return queries


# (nocase, the candidates the search maps, more queries whose rules are checked)
_CASES = st.booleans().flatmap(lambda nocase: st.tuples(
    st.just(nocase),
    _candidates(nocase),
    st.lists(_query(nocase), max_size=8),
))

_A, _B, _C = _columns(False)
_A_NOCASE, _B_NOCASE = _columns(True)[:2]


def _plain(*items, **clauses):
    return SqlQuery(select=items, from_tables=("t",), **clauses)


def _rows_of(conn, query, distinct=False):
    """The full result of ``query``; None when the engine rejects it."""
    return _rows_of_sql(conn, render_sql(query, distinct=distinct))


def _rows_of_sql(conn, sql):
    """The full result of the statement ``sql``; None when the engine
    rejects it."""
    try:
        return Denotation.from_rows(conn.execute(sql).fetchall())
    except sqlite3.Error:
        return None


class TestDecidedCandidates:
    """A candidate the search decides without running it is one that,
    read in full, does not match the answer."""

    @settings(max_examples=300, deadline=None)
    @given(
        rows=_ROWS,
        case=_CASES,
        # The answer is the full result of one candidate, as mapped or with
        # DISTINCT, so that a rule deciding it wrongly drops a match, or
        # else drawn.
        source=st.tuples(st.integers(0, 5), st.booleans()),
        drawn=st.one_of(st.none(), st.lists(
            st.lists(_ANSWER_CELL, min_size=1, max_size=2), max_size=3
        )),
        allow_empty=st.booleans(),
    )
    # Under NOCASE, DISTINCT merges 'x' and 'X'.
    @example(
        rows=[("x", 1, 1), ("X", 2, 2)],
        case=(True, [_plain(ColExpr(_A_NOCASE))], []),
        source=(0, True), drawn=None, allow_empty=False,
    )
    # DISTINCT before a LIMIT keeps other rows.
    @example(
        rows=[("x", 1, 1), ("x", 2, 2), ("y", 3, 3)],
        case=(False, [_plain(ColExpr(_A), limit=2)], []),
        source=(0, True), drawn=None, allow_empty=False,
    )
    # Over no rows, MIN is null, and so are the bare columns of an
    # aggregate query without GROUP BY.
    @example(
        rows=[],
        case=(False, [_plain(AggExpr("min", ColExpr(_A)))],
              [_plain(ColExpr(_A), AggExpr("count", ColExpr(_B)))]),
        source=(0, False), drawn=None, allow_empty=False,
    )
    # A grouped superlative selects its group key, so DISTINCT keeps its
    # rows; its LIMIT cuts a tie between x and y, so neither try matches.
    @example(
        rows=[("x", 1, 1), ("x", 2, 2), ("y", 3, 3), ("y", 1, 1)],
        case=(False, [_plain(ColExpr(_A), group_by=ColExpr(_A),
                             order_by=(AggExpr("count", ColExpr(_B)), "DESC"),
                             limit=1)], []),
        source=(0, True), drawn=None, allow_empty=False,
    )
    # A group key under NOCASE: its DISTINCT try is not decided.
    @example(
        rows=[("x", 1, 1), ("X", 2, 2), ("y", 3, 3)],
        case=(True, [_plain(ColExpr(_A_NOCASE), group_by=ColExpr(_A_NOCASE),
                            order_by=(AggExpr("count", ColExpr(_B_NOCASE)), "DESC"),
                            limit=1)], []),
        source=(0, True), drawn=None, allow_empty=False,
    )
    # A grouped query selecting a column other than its key repeats b = 1
    # across groups, so DISTINCT before the LIMIT reaches b = 2.
    @example(
        rows=[("x", 1, 1), ("x", 1, 2), ("x", 1, 3), ("y", 1, 1), ("y", 1, 2),
              ("z", 2, 1)],
        case=(False, [_plain(ColExpr(_B), group_by=ColExpr(_A),
                             order_by=(AggExpr("count", ColExpr(_C)), "DESC"),
                             limit=2)], []),
        source=(0, True), drawn=None, allow_empty=False,
    )
    # The engine rejects HAVING in a query without aggregates, and the
    # DISTINCT try is decided with its rejected first try.
    @example(
        rows=[],
        case=(False, [_plain(
            ColExpr(_A), having=(CmpPred(AggExpr("count", ColExpr(_A)), ">", 0),)
        )], []),
        source=(0, False), drawn=None, allow_empty=False,
    )
    # t.a and t.b hold no null, so the plain COUNTs of both count every
    # row: the COUNT(b) try repeats COUNT(a)'s key and is decided.
    @example(
        rows=[("x", 1, 1), ("x", 2, 2)],
        case=(False, [_plain(AggExpr("count", ColExpr(_A))),
                      _plain(AggExpr("count", ColExpr(_B)))], []),
        source=(0, False), drawn=[[7]], allow_empty=False,
    )
    # t.b holds a null, so COUNT(b) counts one row where COUNT(c) counts
    # two: both run, and COUNT(b) matches.
    @example(
        rows=[("x", None, 1), ("y", 2, 2)],
        case=(False, [_plain(AggExpr("count", ColExpr(_C))),
                      _plain(AggExpr("count", ColExpr(_B)))], []),
        source=(1, False), drawn=None, allow_empty=False,
    )
    def test_decided_candidates_do_not_match(
        self, rows, case, source, drawn, allow_empty
    ):
        nocase, queries, checked = case
        conn = sqlite3.connect(":memory:")
        collate = " COLLATE NOCASE" if nocase else ""
        # Declared types give the cells their kinds: column a turns numbers
        # into numeric strings, b turns numeric strings into numbers and
        # keeps other text, and the untyped c keeps what it gets.
        conn.execute(f"CREATE TABLE t (a TEXT{collate}, b INTEGER, c)")
        conn.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)
        try:
            session = Session(
                Database(conn), load_schema(conn),
                SynthesisConfig(allow_empty_denotation=allow_empty),
            )
            for query in queries + checked:
                self._check_rules(conn, query, session.census)
            index, distinct = source
            query = queries[index % len(queries)]
            result = _rows_of(conn, query, distinct)
            if drawn is not None or result is None:
                answer = drawn or []
            else:
                answer = [list(row) for row in result.rows]
            self._check_search(conn, session, queries, answer, allow_empty)
        finally:
            conn.close()

    @staticmethod
    def _check_rules(conn, query, census):
        """The rules hold on ``query`` whatever the answer: each cell is of
        a kind its select item may yield, a DISTINCT try the search would
        decide returns the same rows as a set, and a try's count key is
        the walk of its whole tree and, without a LIMIT, returns its rows
        or is rejected with it."""
        null_free = frozenset(col for col, kinds in census.items() if type(None) not in kinds)
        for distinct in (False, True):
            sql = render_sql(query, distinct=distinct)
            key = sqlgen.count_key(query, distinct, sql, null_free)
            walked = sqlgen._rows_counted(query, null_free, distinct and sqlgen._aggregates(query))
            assert key == (None if walked is query else render_sql(walked, distinct)), sql
            if key is not None and " LIMIT " not in sql:
                own, keyed = _rows_of(conn, query, distinct), _rows_of_sql(conn, key)
                assert (own is None) == (keyed is None), sql
                assert own is None or Counter(own.rows) == Counter(keyed.rows), sql
        rows = _rows_of(conn, query)
        if rows is None:
            return
        kinds = [search_module._item_kinds(i, query, census) for i in query.select]
        for row in rows.rows:
            cell_kinds = map(type, row)
            assert all(map(frozenset.__contains__, kinds, cell_kinds)), (
                render_sql(query), row,
            )
        if sqlgen._distinct_keeps_rows(query):
            deduplicated = _rows_of(conn, query, distinct=True)
            assert set(deduplicated.rows) == set(rows.rows), render_sql(query)

    @staticmethod
    def _check_search(conn, session, queries, answer, allow_empty):
        """Run the search over ``queries`` as the mapped candidates, then
        read every try it neither executed nor answered from a shared
        statement in full, and name why it was decided."""
        # A try is (query, distinct); the search renders the tries of the
        # query it mapped last, so a rendered try is known by its position.
        built, rendered = [], []
        # position -> the try's statement and its key, run or rejected, or
        # answered from a shared statement
        executed = {}
        ran = []  # positions that got a result without an engine error
        shared_ran = {}  # each shared statement read -> the position that ran it
        real_render = search_module.render_sql
        real_execute = Database.execute
        real_execute_columns = Database.execute_columns

        def keyed(query, distinct):
            sql = render_sql(query, distinct=distinct)
            return sql, sqlgen.count_key(query, distinct, sql, session.null_free) or sql

        def synthesize(*args):
            built.append(queries[len(built)])
            return built[-1]

        def render(query, distinct=False):
            assert query is built[-1]
            rendered.append(2 * (len(built) - 1) + distinct)
            return real_render(query, distinct=distinct)

        def execute(self, sql, target):
            executed[rendered[-1]] = keyed(built[-1], rendered[-1] % 2 == 1)
            assert sql == executed[rendered[-1]][0]
            result = real_execute(self, sql, target)
            ran.append(rendered[-1])
            return result

        def execute_columns(self, sql, target):
            assert sql not in shared_ran, "a shared statement ran twice"
            results = real_execute_columns(self, sql, target)
            shared_ran[sql] = rendered[-1]
            executed[rendered[-1]] = keyed(built[-1], rendered[-1] % 2 == 1)
            ran.append(rendered[-1])
            return results

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search_module, "_program_variants", lambda p: [(p, ())])
            mp.setattr(search_module, "enumerate_assignments",
                       lambda slots, limit: (linking.Assignment({}) for _ in queries))
            mp.setattr(search_module, "synthesize", synthesize)
            mp.setattr(search_module, "render_sql", render)
            mp.setattr(Database, "execute", execute)
            mp.setattr(Database, "execute_columns", execute_columns)
            out = search(FakeExample("return things", answer), session)

        keys = [key for _, key in executed.values()]
        assert len(set(keys)) == len(keys), "a try repeats the key of one run earlier"
        target = answer_denotation(answer)
        columns = session.fitting_columns(target.kinds)
        tries = [(query, distinct) for query in built for distinct in (False, True)]
        for position in range(out.candidates_tried):
            if position in executed:
                continue
            query, distinct = tries[position]
            # The statement the try reads: a DISTINCT try that cannot change
            # the set of rows reads its first try's.
            sql, key = keyed(
                query, distinct and not sqlgen._distinct_keeps_rows(query)
            )
            earlier = [run for p, run in executed.items() if p < position]
            if sql in (own for own, _ in earlier):
                reason = "repeats a statement run or rejected earlier"
            elif key in (key for _, key in earlier):
                assert key != sql
                reason = "counts the rows of a null-free column an earlier COUNT counted"
            elif any(p < position for p in ran) and search_module._cannot_match(
                query, target, session.census
            ):
                reason = "no row can match, after a run"
            else:
                # Not decided: answered from a statement an earlier try read.
                at = sqlgen.shared_statement(query, distinct, sql, columns)
                assert at is not None and shared_ran.get(at[0], position) < position
                executed[position] = sql, key
                continue
            event(f"decided: {reason}")
            result = _rows_of(conn, query, distinct)
            # A try whose LIMIT cuts a tie is a mismatch whatever it returns.
            assert result is None or not denotations_equal(
                result, target, allow_empty
            ) or search_module._tied(query, distinct, session.database), render_sql(
                query, distinct=distinct
            )

    def test_distinct_keeps_rows(self):
        keeps = sqlgen._distinct_keeps_rows
        a, b, count_b = ColExpr(_A), ColExpr(_B), AggExpr("count", ColExpr(_B))
        top = {"order_by": (count_b, "DESC"), "limit": 1}
        assert keeps(_plain(a, b))
        assert keeps(_plain(a, group_by=b))
        assert not keeps(_plain(a, limit=2))
        assert not keeps(_plain(count_b))
        assert not keeps(_plain(ColExpr(_A_NOCASE)))
        # A query selecting exactly its uncollated GROUP BY column returns
        # one row per group, LIMIT or not.
        assert keeps(_plain(a, group_by=a))
        assert keeps(_plain(a, group_by=a, **top))
        assert not keeps(_plain(b, group_by=a, **top))
        assert not keeps(_plain(a, b, group_by=a, **top))
        assert not keeps(_plain(a, count_b, group_by=a, **top))
        nocase = ColExpr(_A_NOCASE)
        assert not keeps(_plain(nocase, group_by=nocase))
        assert not keeps(_plain(nocase, group_by=nocase, **top))

    def test_census_reads_one_row_per_table(self):
        # Each table is read in one statement that aggregates each column's
        # type names, so it returns one row however many combinations of
        # kinds its rows hold; an empty table's columns hold no kind.
        conn = sqlite3.connect(":memory:")
        try:
            conn.executescript(
                "CREATE TABLE t (a, b TEXT); CREATE TABLE e (c);"
                "INSERT INTO t VALUES (1, 'x'), (2.5, NULL), ('y', x'00'), (NULL, 'z');"
            )
            schema = load_schema(conn)
            statements = []
            conn.set_trace_callback(statements.append)
            census = executor_module.kind_census(Database(conn), schema)
            assert len(statements) == 2
            assert all(
                s.startswith("SELECT group_concat(DISTINCT typeof(") for s in statements
            )
            assert census == {
                ColumnRef("t", "a"): {float, str, type(None)},
                ColumnRef("t", "b"): {str, type(None)},
                ColumnRef("e", "c"): set(),
            }
        finally:
            conn.close()

    def test_distinct_try_on_an_uncollated_column_is_decided(self, tmp_path, open_db):
        # Only t.a carries a collation; the COLLATE words elsewhere in the
        # table's CREATE do not make t.b collated, so t.b's DISTINCT try
        # takes its base query's verdict and never runs.
        path = tmp_path / "t.sqlite"
        build_db(
            path,
            "CREATE TABLE t (a TEXT COLLATE NOCASE, b TEXT,"
            " collate_date TEXT DEFAULT 'x COLLATE y',"
            " CHECK (b COLLATE NOCASE <> ''));"
            "INSERT INTO t VALUES ('Ann', 'Ann', 'x'), ('ANN', 'ANN', 'y');",
        )
        executed = []
        real_execute = Database.execute

        def recording(self, sql, target):
            executed.append(sql)
            return real_execute(self, sql, target)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Database, "execute", recording)
            out = run_search(open_db, path, None, "return b", ["Zed"])
        assert out.status is SearchStatus.EXHAUSTED
        assert "SELECT t.b FROM t" in executed
        assert "SELECT DISTINCT t.b FROM t" not in executed
        assert "SELECT DISTINCT t.a FROM t" in executed

    @pytest.mark.parametrize("collate", [" COLLATE NOCASE", ""])
    def test_distinct_copy_runs_only_under_a_collation(
        self, tmp_path, open_db, collate
    ):
        # Under NOCASE, DISTINCT keeps one of 'Ann' and 'ANN', so the DISTINCT
        # try matches where the first did not: it must run, not take the
        # first try's verdict.  Without a collation it cannot match and does not run.
        path = tmp_path / "people.sqlite"
        build_db(
            path,
            f"CREATE TABLE people (name TEXT{collate});"
            "INSERT INTO people VALUES ('Ann'), ('ANN'), ('Bob');",
        )
        executed = []
        real_execute = Database.execute

        def recording(self, sql, target):
            executed.append(sql)
            return real_execute(self, sql, target)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Database, "execute", recording)
            out = run_search(open_db, path, None, "return people", ["Ann", "Bob"])
        assert out.candidates_tried == 2
        base = "SELECT people.name FROM people"
        if collate:
            assert out.status is SearchStatus.FOUND
            assert out.heuristics_applied == ("distinct",)
            assert executed == [base, "SELECT DISTINCT people.name FROM people"]
        else:
            assert out.status is SearchStatus.EXHAUSTED
            assert executed == [base]


# --- aggregate tries answered from a shared statement ---------------------------

_T_COLS = [ColumnRef("t", "a", collated=True)] + [ColumnRef("t", n) for n in "bcd"]
_U_COLS = [ColumnRef("u", "e")]
_JOIN = JoinPred(ColumnRef("u", "t_id"), ColumnRef("t", "id"))
_FNS = ["count", "sum", "avg", "min", "max"]
# Nulls, reals, text that differs only in case, and integers whose sum
# overflows SQLite's 64 bits.
_CELL = st.sampled_from(
    [None, 1, 2, -3, 0.5, 1e308, "x", "X", "2", 2**62, 2**63 - 1, -(2**63)]
)


@st.composite
def _shared_case(draw):
    """Two tables and the aggregate queries the search maps over them,
    each one row, sharing a few FROM ... WHERE bodies."""
    t_rows = draw(st.lists(st.tuples(_CELL, _CELL, _CELL, _CELL), max_size=5))
    u_rows = draw(st.lists(
        st.tuples(st.integers(1, 6), _CELL), max_size=5
    )) if t_rows else []
    joined = draw(st.sampled_from([True, True, True, False]))  # only joins share
    bodies = []
    for _ in range(draw(st.integers(1, 2))):
        arg = ColExpr(draw(st.sampled_from(_T_COLS + (_U_COLS if joined else []))))
        where = (_JOIN,) if joined else ()
        if draw(st.booleans()):
            col = ColExpr(draw(st.sampled_from(_T_COLS)))
            op = draw(st.sampled_from(["=", "!=", ">"]))
            where += (CmpPred(col, op, draw(st.sampled_from([1, 0.5, "x"]))),)
        bodies.append((arg, ("t", "u") if joined else ("t",), where))
    queries = [
        SqlQuery(select=(AggExpr(fn, arg),), from_tables=tables, where=where)
        for arg, tables, where in (
            draw(st.sampled_from(bodies)) for _ in range(draw(st.integers(1, 6)))
        )
        for fn in [draw(st.sampled_from(_FNS))]
    ]
    return t_rows, u_rows, queries


def _shared_db(t_rows, u_rows):
    conn = sqlite3.connect(":memory:")
    conn.executescript(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, a TEXT COLLATE NOCASE, b INTEGER,"
        " c REAL, d); CREATE TABLE u (t_id INTEGER REFERENCES t (id), e);"
    )
    conn.executemany("INSERT INTO t (a, b, c, d) VALUES (?, ?, ?, ?)", t_rows)
    conn.executemany("INSERT INTO u VALUES (?, ?)", u_rows)
    return conn


# Each table of ``_shared_db`` with its columns, as its schema holds them.
_TABLES = {
    "t": [ColumnRef("t", "id")] + _T_COLS,
    "u": [ColumnRef("u", "t_id")] + _U_COLS,
}


class TestSharedStatements:
    """A try answered from the statement it shares with the other aggregate
    tries over its FROM ... WHERE, under either DISTINCT flag, gets the
    verdict its own statement gets alone, and the search's outcome is the
    one it has when every try runs its own statement."""

    def test_shared_functions_are_the_swapped_pair(self):
        # A COUNT try and its swap's SUM read one statement over a join,
        # under both DISTINCT flags, each from its own column.  AVG, MIN
        # and MAX run their own, as does any query over one table or with
        # a GROUP BY, such as a GROUP step's.
        arg, join = ColExpr(_T_COLS[1]), {"from_tables": ("t", "u"), "where": (_JOIN,)}

        def shared(fn, distinct=False, **clauses):
            query = SqlQuery(select=(AggExpr(fn, arg),), **{**join, **clauses})
            sql = render_sql(query, distinct=distinct)
            return sqlgen.shared_statement(query, distinct, sql, _TABLES)

        statement = (
            "SELECT COUNT(t.b), SUM(t.b), COUNT(DISTINCT t.b), SUM(DISTINCT t.b)"
            " FROM t, u WHERE u.t_id = t.id"
        )
        assert [shared(fn) for fn in _FNS] == [
            (statement, 0), (statement, 1), None, None, None,
        ]
        assert [shared(fn, distinct=True) for fn in _FNS] == [
            (statement, 2), (statement, 3), None, None, None,
        ]
        assert shared("count", from_tables=("t",), where=()) is None
        assert shared("sum", group_by=arg) is None
        # Each column is what the try's own statement returns.
        conn = _shared_db([(None, 1, None, None), (None, 1, None, None),
                           (None, 4, None, None)], [(1, None), (2, None), (3, None)])
        try:
            row, = conn.execute(statement).fetchall()
            for fn in ("count", "sum"):
                for distinct in (False, True):
                    query = SqlQuery(select=(AggExpr(fn, arg),), **join)
                    own = conn.execute(render_sql(query, distinct=distinct)).fetchall()
                    assert own == [(row[shared(fn, distinct)[1]],)]
        finally:
            conn.close()
        # The pair is the one the COUNT/SUM swap exchanges.
        program = parse_qdmr("return papers; return the number of #1")
        fns = {
            step.operator.aggregate_fn
            for variant, _ in search_module._program_variants(program)
            for step in variant.steps if step.operator.kind is OpKind.AGGREGATE
        }
        assert fns == {"count", "sum"}
        assert all(shared(fn) is not None for fn in fns)

    @settings(max_examples=200, deadline=None)
    @given(
        case=_shared_case(),
        # The answer is the full result of one try, or else drawn.
        source=st.tuples(st.integers(0, 5), st.booleans()),
        drawn=st.one_of(st.none(), st.lists(st.lists(_CELL, min_size=1, max_size=1),
                                            max_size=2)),
        allow_empty=st.booleans(),
    )
    # SUM(b) overflows, so the shared statement would fail while COUNT(b)
    # alone succeeds: the try runs its own statement, as no try shares
    # before a candidate has executed, and matches.
    @example(
        case=([(None, 2**62, None, None)] * 2, [(1, None), (2, None)],
              [SqlQuery(select=(AggExpr("count", ColExpr(_T_COLS[1])),),
                        from_tables=("t", "u"), where=(_JOIN,))]),
        source=(0, False), drawn=None, allow_empty=False,
    )
    # Plain SUM(b) overflows where SUM(DISTINCT b) does not, so the one
    # statement for both flags fails: the DISTINCT COUNT try runs its own
    # statement and matches.
    @example(
        case=([(None, 2**62, None, None)] * 2, [(1, None), (2, None)],
              [SqlQuery(select=(AggExpr("count", ColExpr(_T_COLS[1])),),
                        from_tables=("t", "u"), where=(_JOIN,))]),
        source=(0, True), drawn=None, allow_empty=False,
    )
    # COUNT(DISTINCT b) is 1 and COUNT(b) is 2: the DISTINCT try reads the
    # DISTINCT column of the shared statement.
    @example(
        case=([(None, 1, None, None)] * 2, [(1, None), (2, None)],
              [SqlQuery(select=(AggExpr("count", ColExpr(_T_COLS[1])),),
                        from_tables=("t", "u"), where=(_JOIN,))]),
        source=(0, True), drawn=None, allow_empty=False,
    )
    def test_shared_verdict_is_the_own_verdict(self, case, source, drawn, allow_empty):
        t_rows, u_rows, queries = case
        conn = _shared_db(t_rows, u_rows)
        try:
            db = Database(conn)
            session = Session(
                db, load_schema(conn), SynthesisConfig(allow_empty_denotation=allow_empty)
            )
            index, distinct = source
            result = _rows_of(conn, queries[index % len(queries)], distinct)
            if drawn is not None or result is None:
                answer = drawn or []
            else:
                answer = [list(row) for row in result.rows]
            out, answered = self._search(session, queries, answer, share=True)
            alone, none_shared = self._search(session, queries, answer, share=False)
            assert not none_shared
            assert out == alone
            event(f"tries answered from a shared statement: {min(len(answered), 3)}")
            target = answer_denotation(answer)
            for query, distinct, got in answered:
                own = db.execute(render_sql(query, distinct=distinct), target)
                assert got == own
                assert (not got.mismatch and denotations_equal(got, target, allow_empty)) == (
                    not own.mismatch and denotations_equal(own, target, allow_empty)
                )
        finally:
            conn.close()

    @staticmethod
    def _search(session, queries, answer, share):
        """The search over ``queries`` as the mapped candidates, each try
        running its own statement unless ``share``, and each try answered
        from a shared statement as ``(query, distinct, result)``."""
        session.prepared.clear()
        built, rendered, columns, answered = [], [], [], []
        real_render = search_module.render_sql
        real_shared = search_module.shared_statement
        real_results = search_module._shared_results

        def synthesize(*args):
            built.append(queries[len(built)])
            return built[-1]

        def render(query, distinct=False):
            rendered.append((query, distinct))
            return real_render(query, distinct=distinct)

        def shared_statement(*args):
            at = real_shared(*args) if share else None
            columns.append(None if at is None else at[1])
            return at

        def shared_results(*args):
            results = real_results(*args)
            if results is not None:
                answered.append((*rendered[-1], results[columns[-1]]))
            return results

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search_module, "_program_variants", lambda p: [(p, ())])
            mp.setattr(search_module, "shared_statement", shared_statement)
            mp.setattr(search_module, "_shared_results", shared_results)
            mp.setattr(search_module, "enumerate_assignments",
                       lambda slots, limit: (linking.Assignment({}) for _ in queries))
            mp.setattr(search_module, "synthesize", synthesize)
            mp.setattr(search_module, "render_sql", render)
            out = search(FakeExample("return things", answer), session)
        return out, answered


# --- projection tries answered from a shared statement -------------------------

# Few distinct cells, so that joined rows repeat and answers are reachable.
_PROJECTED_CELL = st.sampled_from([None, 1, 2, 0.5, "x", "X", "y"])


@st.composite
def _projection_case(draw):
    """Two tables and the queries the search maps over them: mostly one
    plain column of their join, some with a filter under NOCASE or a
    nested IN, some one column of t under a nested IN, and a few that do
    not share (over one table without a nested IN, two columns wide, or
    grouped)."""
    t_rows = draw(st.lists(st.tuples(*[_PROJECTED_CELL] * 4), max_size=5))
    # Several u rows on one t row repeat it in the join.
    u_rows = draw(st.lists(st.tuples(st.integers(1, 5), _PROJECTED_CELL), max_size=6))
    cols = [ColumnRef("t", "id")] + _T_COLS + _U_COLS
    queries = []
    # The first try to execute runs its own statement, so draw several.
    for _ in range(draw(st.integers(2, 7))):
        where = (_JOIN,)
        if draw(st.booleans()):
            col = ColExpr(draw(st.sampled_from(cols)))
            op = draw(st.sampled_from(["=", "!=", ">"]))
            where += (CmpPred(col, op, draw(st.sampled_from([1, 0.5, "x"]))),)
        if draw(st.booleans()):
            inner = SqlQuery(select=(ColExpr(ColumnRef("u", "t_id")),), from_tables=("u",),
                             where=(CmpPred(ColExpr(_U_COLS[0]), "!=", "y"),))
            where += (InPred(ColExpr(ColumnRef("t", "id")), inner),)
        select = (ColExpr(draw(st.sampled_from(cols))),)
        shape = draw(st.sampled_from(
            ["shared"] * 4 + ["one table", "one table nested", "two wide", "grouped"]
        ))
        if shape.startswith("one table"):
            select = (ColExpr(draw(st.sampled_from(_TABLES["t"]))),)
            where = ()
            if shape == "one table nested":
                inner = SqlQuery(select=(ColExpr(ColumnRef("t", "id")),), from_tables=("t",),
                                 where=(CmpPred(ColExpr(_T_COLS[0]), "!=", "y"),))
                where = (InPred(ColExpr(ColumnRef("t", "id")), inner),)
            queries.append(SqlQuery(select=select, from_tables=("t",), where=where))
            continue
        if shape == "two wide":
            select += (ColExpr(draw(st.sampled_from(cols))),)
        group_by = select[0] if shape == "grouped" else None
        queries.append(SqlQuery(select=select, from_tables=("t", "u"), where=where,
                                group_by=group_by))
    return t_rows, u_rows, queries


def _ship_projection(column):
    """One column of ship over its join with death."""
    return SqlQuery(
        select=(ColExpr(ColumnRef("ship", column)),), from_tables=("ship", "death"),
        where=(JoinPred(ColumnRef("death", "caused_by_ship_id"), ColumnRef("ship", "id")),),
    )


class TestSharedProjections:
    """A try that projects one plain column of a join, without DISTINCT,
    takes that column of the statement it shares with the other such tries
    over the same rows, and gets the verdict its own statement gets."""

    def test_statement_selects_every_column_of_the_table(self):
        body = {"from_tables": ("t", "u"), "where": (_JOIN,)}

        def shared(col, distinct=False, **clauses):
            query = SqlQuery(select=(ColExpr(col),), **{**body, **clauses})
            sql = render_sql(query, distinct=distinct)
            return sqlgen.shared_statement(query, distinct, sql, _TABLES)

        t_all = "SELECT t.id, t.a, t.b, t.c, t.d FROM t, u WHERE u.t_id = t.id"
        assert [shared(col) for col in _TABLES["t"]] == [(t_all, i) for i in range(5)]
        assert shared(_U_COLS[0]) == ("SELECT u.t_id, u.e FROM t, u WHERE u.t_id = t.id", 1)
        # Over one table, only a query that nests one, in its WHERE or in an
        # OR group there, shares.
        b = _T_COLS[1]
        inner = SqlQuery(select=(ColExpr(b),), from_tables=("t",), order_by=(ColExpr(b), "DESC"),
                         limit=1)
        nested = InPred(ColExpr(b), inner)
        one = {"from_tables": ("t",)}
        assert shared(b, **one, where=(nested,)) == (
            "SELECT t.id, t.a, t.b, t.c, t.d FROM t WHERE t.b IN"
            " ( SELECT t.b FROM t ORDER BY t.b DESC LIMIT 1 )", 2,
        )
        either = OrGroup(((nested,), (CmpPred(ColExpr(b), "=", 1),)))
        assert shared(b, **one, where=(either,))[1] == 2
        assert shared(b, **one, where=()) is None
        assert shared(b, **one, where=(CmpPred(ColExpr(b), "=", 1),)) is None
        assert shared(b, distinct=True, **one, where=(nested,)) is None
        counted = SqlQuery(select=(AggExpr("count", ColExpr(b)),), **one, where=(nested,))
        assert sqlgen.shared_statement(counted, False, render_sql(counted), _TABLES) is None
        # Not under DISTINCT, grouped, ordered or limited, nor when the
        # table's columns do not hold the column.
        assert shared(b, distinct=True) is None
        assert shared(b, group_by=ColExpr(b)) is None
        assert shared(b, having=(CmpPred(AggExpr("count", ColExpr(b)), ">", 1),)) is None
        assert shared(b, order_by=(ColExpr(b), "ASC")) is None
        assert shared(b, limit=1) is None
        assert shared(ColumnRef("t", "gone")) is None
        two = SqlQuery(select=(ColExpr(b), ColExpr(b)), **body)
        assert sqlgen.shared_statement(two, False, render_sql(two), _TABLES) is None

    @settings(max_examples=200, deadline=None)
    @given(
        case=_projection_case(),
        # The answer is the full result of one query, or else drawn, one or
        # two columns wide.
        source=st.integers(0, 6),
        drawn=st.one_of(
            st.none(),
            st.integers(1, 2).flatmap(lambda width: st.lists(
                st.lists(_PROJECTED_CELL, min_size=width, max_size=width), max_size=3
            )),
        ),
        allow_empty=st.booleans(),
    )
    # Ship names of the one ship, read once per death: the name column
    # matches on every row while the others mismatch on the first.
    @example(
        case=([("x", 1, None, None)], [(1, None), (1, None)],
              [SqlQuery(select=(ColExpr(_T_COLS[2]),), from_tables=("t", "u"),
                        where=(_JOIN,)),
               SqlQuery(select=(ColExpr(_T_COLS[0]),), from_tables=("t", "u"),
                        where=(_JOIN,))]),
        source=1, drawn=None, allow_empty=False,
    )
    # An empty join, whose every column is an empty result.
    @example(
        case=([("x", 1, None, None)], [],
              [SqlQuery(select=(ColExpr(_T_COLS[0]),), from_tables=("t", "u"),
                        where=(_JOIN,))]),
        source=0, drawn=[], allow_empty=True,
    )
    def test_shared_verdict_is_the_own_verdict(self, case, source, drawn, allow_empty):
        t_rows, u_rows, queries = case
        conn = _shared_db(t_rows, u_rows)
        try:
            db = Database(conn)
            session = Session(
                db, load_schema(conn), SynthesisConfig(allow_empty_denotation=allow_empty)
            )
            result = _rows_of(conn, queries[source % len(queries)])
            if drawn is not None or result is None:
                answer = drawn or []
            else:
                answer = [list(row) for row in result.rows]
            out, answered = TestSharedStatements._search(session, queries, answer, share=True)
            alone, none_shared = TestSharedStatements._search(
                session, queries, answer, share=False
            )
            assert not none_shared
            assert out == alone
            event(f"tries answered from a shared statement: {min(len(answered), 3)}")
            event(f"answer width: {len(answer[0]) if answer else 0}")
            target = answer_denotation(answer)
            for query, distinct, got in answered:
                assert not distinct and len(query.select) == 1
                own = db.execute(render_sql(query, distinct=distinct), target)
                assert got.mismatch == own.mismatch
                if not got.mismatch:  # read in full: the same rows, duplicates kept
                    assert Counter(got.rows) == Counter(own.rows)
                assert (not got.mismatch and denotations_equal(got, target, allow_empty)) == (
                    not own.mismatch and denotations_equal(own, target, allow_empty)
                )
        finally:
            conn.close()

    @staticmethod
    def _ships(tmp_path, open_db, deaths=3):
        """ship_death with one ship, the barge Ark, and ``deaths`` deaths it
        caused."""
        path = tmp_path / "ships.sqlite"
        build_db(path, """
            CREATE TABLE ship (id INTEGER PRIMARY KEY, name TEXT, type TEXT,
                tonnage INTEGER);
            CREATE TABLE death (id INTEGER PRIMARY KEY,
                caused_by_ship_id INTEGER REFERENCES ship (id), injured INTEGER);
            INSERT INTO ship VALUES (1, 'Ark', 'barge', 900);
        """)
        conn = sqlite3.connect(path)
        conn.executemany("INSERT INTO death (caused_by_ship_id, injured) VALUES (1, ?)",
                         [(i,) for i in range(deaths)])
        conn.commit()
        conn.close()
        return open_db(path)

    # Projections of ship over its join with death.  The first try runs
    # its own statement: no try shares before a candidate has executed.
    # The second reads the shared statement, the third takes its column
    # from there.  Against a text answer, the statement selects the text
    # columns, the only ones a try is not decided for by kind.
    _QUERIES = [_ship_projection(column) for column in ("tonnage", "type", "name")]
    _OWN = [render_sql(query) for query in _QUERIES]
    _SHARED_SQL = ("SELECT ship.name, ship.type FROM ship, death"
                   " WHERE death.caused_by_ship_id = ship.id")

    def _search(self, session, answer, monkeypatch, queries=_QUERIES):
        built = []

        def synthesize(*args):
            built.append(queries[len(built)])
            return built[-1]

        monkeypatch.setattr(search_module, "_program_variants", lambda p: [(p, ())])
        monkeypatch.setattr(search_module, "enumerate_assignments",
                            lambda slots, limit: (linking.Assignment({}) for _ in queries))
        monkeypatch.setattr(search_module, "synthesize", synthesize)
        return search(FakeExample("return things", answer), session)

    def test_one_statement_answers_the_tries_after_the_first(
        self, tmp_path, open_db, monkeypatch
    ):
        db = self._ships(tmp_path, open_db)
        session = Session(db, schema_of(db), SynthesisConfig())
        ran = []
        db.conn.set_trace_callback(ran.append)
        out = self._search(session, [["Ark"]], monkeypatch)
        db.conn.set_trace_callback(None)
        assert out.status is SearchStatus.FOUND
        assert out.sql == self._OWN[2]
        assert out.candidates_tried == 5  # each DISTINCT try but the last is decided
        assert ran == [self._OWN[0], self._SHARED_SQL]

    def test_found_on_the_first_try_reads_no_shared_statement(
        self, tmp_path, open_db, monkeypatch
    ):
        db = self._ships(tmp_path, open_db)
        session = Session(db, schema_of(db), SynthesisConfig())
        ran = []
        db.conn.set_trace_callback(ran.append)
        out = self._search(session, [[900]], monkeypatch)
        db.conn.set_trace_callback(None)
        assert (out.status, out.candidates_tried, ran) == (
            SearchStatus.FOUND, 1, [self._OWN[0]]
        )

    def test_rejected_shared_statement_runs_each_own(self, tmp_path, open_db, monkeypatch):
        # The engine refuses the shared statement: it is not run again, and
        # each try after the first runs its own statement.
        db = self._ships(tmp_path, open_db)
        session = Session(db, schema_of(db), SynthesisConfig())
        conn, refused, ran = db.conn, [], []

        class Refusing:
            def __getattr__(self, name):
                return getattr(conn, name)

            def execute(self, sql, *args):
                if sql == TestSharedProjections._SHARED_SQL:
                    refused.append(sql)
                    raise sqlite3.OperationalError(f"boom {len(refused)}")
                ran.append(sql)
                return conn.execute(sql, *args)

        db.conn = Refusing()
        try:
            out = self._search(session, [["Ark"]], monkeypatch)
        finally:
            db.conn = conn
        assert out.status is SearchStatus.FOUND
        assert refused == [self._SHARED_SQL]
        assert ran == self._OWN

    def test_undecodable_cell_of_another_column_falls_back(self, tmp_path, open_db):
        # Ark's tonnage is text, but not UTF-8, so reading the shared
        # statement, which selects it, fails; the name try reads its own.
        path = tmp_path / "ships.sqlite"
        build_db(path, """
            CREATE TABLE ship (id INTEGER PRIMARY KEY, name TEXT, type TEXT,
                tonnage TEXT);
            CREATE TABLE death (id INTEGER PRIMARY KEY,
                caused_by_ship_id INTEGER REFERENCES ship (id), injured INTEGER);
            INSERT INTO ship VALUES (1, 'Ark', 'barge', CAST(x'ff' AS TEXT));
            INSERT INTO death VALUES (1, 1, 0);
        """)
        db = open_db(path)
        session = Session(db, schema_of(db), SynthesisConfig())
        ran = []
        db.conn.set_trace_callback(ran.append)
        with pytest.MonkeyPatch.context() as mp:
            out = self._search(session, [["Ark"]], mp, queries=self._QUERIES[1:])
        db.conn.set_trace_callback(None)
        assert out.status is SearchStatus.FOUND
        joins = [sql for sql in ran if " FROM ship, death " in sql]  # no literal probe
        shared = self._SHARED_SQL.replace("ship.type FROM", "ship.type, ship.tonnage FROM")
        assert joins == [self._OWN[1], shared, self._OWN[2]]

    def test_shared_statement_meeting_the_deadline_times_out(
        self, tmp_path, open_db, monkeypatch
    ):
        # The deadline passes while the shared statement is read, so the
        # engine aborts it through the progress hook: the search ends with
        # Timeout, not by running the try's own statement.  Every row's
        # tonnage is in the answer, so its column reads on.
        db = self._ships(tmp_path, open_db, deaths=20000)
        session = Session(db, schema_of(db), SynthesisConfig())
        real_read = executor_module.read_until_mismatch
        reads = []

        def read(rows, target):
            reads.append(type(rows))
            if not isinstance(rows, sqlite3.Cursor):  # a column of the shared statement
                db.deadline = -math.inf
            return real_read(rows, target)

        monkeypatch.setattr(executor_module, "read_until_mismatch", read)
        queries = [_ship_projection("id"), _ship_projection("tonnage")]
        out = self._search(session, [[900]], monkeypatch, queries=queries)
        assert out.status is SearchStatus.TIMEOUT
        assert out.failure_reason == "candidate execution hit the search deadline"
        assert out.candidates_tried == 3  # the id try, its DISTINCT try, the tonnage try
        assert reads[0] is sqlite3.Cursor and sqlite3.Cursor not in reads[1:]
