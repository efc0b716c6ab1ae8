"""Acceptance suite: the eight release criteria for this package.

Every test prints one `criterion N (<label>): PASS|FAIL` line on the real
terminal (capture suspended), so a full run always shows the verdict per
criterion.  Expected values are either computed here by an independent
oracle (plain sqlite3 queries, exhaustive path search, Python set
algebra) or frozen constants derived that way.

  1. full pipeline on the grouping fixture, denotation-checked, < 5 s
  2. all 14 mapping-rule goldens render exactly and execute
  3. nested value chain and self-join narrowing reproduce set oracles
  4. all four repair behaviors fire with the expected labels
  5. join paths match the exhaustive minimum on random schemas, < 10 s
  6. planted answers: 100% Found; unreachable answers: 100% Exhausted
  7. denotation comparison semantics
  8. coverage arithmetic and byte-identical reruns
"""

import sqlite3
import time
from collections import Counter
from contextlib import contextmanager
from random import Random

import pytest

from conftest import (
    DATA_DIR,
    DISTINCT_PRODUCT_TYPES,
    ENROLLMENT_SUMS,
    FakeExample,
    LARGEST_STATE_AREA,
    MISSISSIPPI_POPULATIONS,
    VOTER_MAJORS,
    schema_of,
)
from test_joinpath import check_path, make_schema, oracle_distance, random_schema
from test_sqlgen import build, run

from qdmr2sql import Database, load_schema
from qdmr2sql.corpus import (
    CoverageReport,
    CoverageRow,
    emit_training_pairs,
    failures_path,
    load_examples,
    run_corpus,
)
from qdmr2sql.errors import DisconnectedTables
from qdmr2sql.executor import Denotation, denotations_equal
from qdmr2sql.joinpath import join_tables
from qdmr2sql.search import SearchStatus, Session, SynthesisConfig, search


@contextmanager
def criterion(capsys, n, label):
    with capsys.disabled():
        try:
            yield
        except BaseException:
            print(f"criterion {n} ({label}): FAIL")
            raise
        print(f"criterion {n} ({label}): PASS")


def do_search(open_db, db_path, lexicon, qdmr, answer, config=None):
    db = open_db(db_path)
    session = Session(db, schema_of(db), config or SynthesisConfig(), lexicon)
    return search(FakeExample(qdmr, answer), session)


def test_full_pipeline_on_grouping_fixture(
    capsys, ship_death_db, open_db, lexicon
):
    with criterion(capsys, 1, "end-to-end grouping pipeline"):
        # Independent oracle: count death rows per ship by hand, then
        # look up the top ship's name.
        raw = sqlite3.connect(ship_death_db)
        counts = Counter(
            r[0] for r in raw.execute("SELECT caused_by_ship_id FROM death")
        )
        top_ship = counts.most_common(1)[0][0]
        runner_up = counts.most_common(2)[1][1]
        assert counts[top_ship] > runner_up  # unique winner by design
        expected_name = raw.execute(
            "SELECT name FROM ship WHERE id = ?", (top_ship,)
        ).fetchone()[0]
        raw.close()

        started = time.monotonic()
        out = do_search(
            open_db,
            ship_death_db,
            lexicon,
            "return ships; return injuries; return number of #2 for each #1; "
            "return #1 where #3 is highest; return the name of #4",
            [expected_name],
        )
        elapsed = time.monotonic() - started

        assert out.status is SearchStatus.FOUND
        got = run(ship_death_db, out.sql)
        assert denotations_equal(got, Denotation.from_rows([[expected_name]]))
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_mapping_rule_goldens_execute(
    capsys,
    ship_death_db,
    geo_db,
    academic_db,
    products_db,
    university_db,
):
    # One entry per mapping rule: (db, qdmr, pinned choices, expected SQL).
    rules = [
        (
            "select-column",
            ship_death_db,
            "return ships",
            {"1:ships": "ship.id"},
            "SELECT ship.id FROM ship",
        ),
        (
            "select-value",
            geo_db,
            "return the mississippi",
            {},
            "SELECT river.river_name FROM river"
            " WHERE river.river_name = 'mississippi'",
        ),
        (
            "filter",
            academic_db,
            "return papers; return #1 by H. V. Jagadish",
            {"1:papers": "publication.title"},
            "SELECT publication.title FROM publication, author, writes"
            " WHERE writes.pid = publication.pid AND writes.aid = author.aid"
            " AND author.name = 'H. V. Jagadish'",
        ),
        (
            "project",
            ship_death_db,
            "return ships; return injuries of #1",
            {"1:ships": "ship.id", "2:injuries of": "death.injured"},
            "SELECT death.injured FROM death, ship"
            " WHERE death.caused_by_ship_id = ship.id"
            " AND ship.id IN ( SELECT ship.id FROM ship )",
        ),
        (
            "aggregate",
            products_db,
            "return product types; return the number of #1",
            {"1:product types": "products.product_type_code"},
            "SELECT COUNT(products.product_type_code) FROM products",
        ),
        (
            "group",
            university_db,
            "return universities; return the enrollment of #1; "
            "return the average of #2 for each affiliation",
            {
                "1:universities": "university.school",
                "2:the enrollment of": "university.enrollment",
                "3:affiliation": "university.affiliation",
            },
            "SELECT AVG(university.enrollment) FROM university"
            " GROUP BY university.affiliation",
        ),
        (
            "superlative",
            ship_death_db,
            "return ships; return injuries of #1; "
            "return number of #2 for each #1; return #1 where #3 is highest",
            {"1:ships": "ship.id", "2:injuries of": "death.injured"},
            "SELECT ship.id FROM ship, death"
            " WHERE death.caused_by_ship_id = ship.id GROUP BY ship.id"
            " ORDER BY COUNT(death.injured) DESC LIMIT 1",
        ),
        (
            "comparative",
            geo_db,
            "return states; return the population of #1; "
            "return #1 where #2 is more than 5000000",
            {
                "1:states": "state.state_name",
                "2:the population of": "state.population",
            },
            "SELECT state.state_name FROM state"
            " WHERE state.population > 5000000",
        ),
        (
            "union",
            geo_db,
            "return states; return the population of #1; "
            "return #1 where #2 is more than 6000000; "
            "return #1 where #2 is less than 3100000; "
            "return #3 or #4",
            {
                "1:states": "state.state_name",
                "2:the population of": "state.population",
            },
            "SELECT state.state_name FROM state"
            " WHERE ( state.population > 6000000"
            " OR state.population < 3100000 )",
        ),
        (
            "union-columns",
            geo_db,
            "return states; return the population of #1; "
            "return the area of #1; return #2 and #3",
            {
                "1:states": "state.state_name",
                "2:the population of": "state.population",
                "3:the area of": "state.area",
            },
            "SELECT state.population, state.area FROM state",
        ),
        (
            "intersect",
            academic_db,
            "return papers; return #1 by H. V. Jagadish; "
            "return #1 by Yunyao Li; return titles in both #2 and #3",
            {"1:papers": "publication.title", "4:titles": "publication.title"},
            "SELECT publication.title FROM publication, author, writes"
            " WHERE writes.pid = publication.pid AND writes.aid = author.aid"
            " AND author.name = 'H. V. Jagadish'"
            " AND publication.title IN"
            " ( SELECT publication.title FROM publication, author, writes"
            " WHERE writes.pid = publication.pid AND writes.aid = author.aid"
            " AND author.name = 'Yunyao Li' )",
        ),
        (
            "sort",
            geo_db,
            "return states; return the population of #1; "
            "return #1 sorted by #2",
            {
                "1:states": "state.state_name",
                "2:the population of": "state.population",
            },
            "SELECT state.state_name FROM state ORDER BY state.population ASC",
        ),
        (
            "discard",
            geo_db,
            "return the mississippi; return states #1 run through; "
            "return states; return #3 besides #2",
            {
                "2:states run through": "state.state_name",
                "3:states": "state.state_name",
            },
            "SELECT state.state_name FROM state"
            " WHERE state.state_name NOT IN"
            " ( SELECT state.state_name FROM state, river"
            " WHERE river.traverse = state.state_name"
            " AND river.river_name IN ( SELECT river.river_name FROM river"
            " WHERE river.river_name = 'mississippi' ) )",
        ),
        (
            "arithmetic",
            ship_death_db,
            "return ships; return number of #1; return the tonnage of #1; "
            "return the highest of #3; return the sum of #2 and #4",
            {"1:ships": "ship.id", "3:the tonnage of": "ship.tonnage"},
            "SELECT ( SELECT COUNT(ship.id) FROM ship )"
            " + ( SELECT MAX(ship.tonnage) FROM ship )",
        ),
    ]
    with criterion(capsys, 2, f"mapping rule goldens, {len(rules)} rules"):
        assert len(rules) == 14
        for name, db, qdmr, choices, expected in rules:
            _, sql = build(db, qdmr, choices)
            assert sql == expected, name
            run(db, sql)  # must execute without raising


def test_nested_value_chain_and_self_join(capsys, geo_db, academic_db):
    with criterion(capsys, 3, "nested value chain and self-join narrowing"):
        _, sql = build(
            geo_db,
            "return the mississippi; return states #1 run through; "
            "return the population of #2",
            {
                "2:states run through": "state.state_name",
                "3:the population of": "state.population",
            },
        )
        # Two chained membership subqueries, value selection innermost.
        assert sql.count("IN ( SELECT") == 2
        assert sql.rstrip(" )").endswith("WHERE river.river_name = 'mississippi'")
        got = {r[0] for r in run(geo_db, sql).rows}
        assert got == MISSISSIPPI_POPULATIONS

        # Oracle: each author's title set fetched independently, then
        # intersected in Python.
        raw = sqlite3.connect(academic_db)
        titles = {}
        for author in ("H. V. Jagadish", "Yunyao Li"):
            titles[author] = {
                r[0]
                for r in raw.execute(
                    "SELECT p.title FROM publication p"
                    " JOIN writes w ON w.pid = p.pid"
                    " JOIN author a ON a.aid = w.aid WHERE a.name = ?",
                    (author,),
                )
            }
        raw.close()
        expected = titles["H. V. Jagadish"] & titles["Yunyao Li"]
        assert expected  # non-trivial by design

        _, sql = build(
            academic_db,
            "return papers; return #1 by H. V. Jagadish; "
            "return #2 by Yunyao Li",
            {"1:papers": "publication.title"},
        )
        # Both literals present, in different nesting levels.
        assert sql.count("'H. V. Jagadish'") == 1
        assert sql.count("'Yunyao Li'") == 1
        assert "IN ( SELECT" in sql
        got = {r[0] for r in run(academic_db, sql).rows}
        assert got == expected


def test_repair_heuristics_quartet(
    capsys,
    voting_record_db,
    products_db,
    geo_db,
    university_db,
    open_db,
    lexicon,
):
    with criterion(capsys, 4, "repair heuristics, 4 behaviors"):
        # Advancing past the top-ranked assignment, no rewrite involved.
        out = do_search(
            open_db,
            voting_record_db,
            lexicon,
            "return students with treasurer votes; return the majors of #1",
            sorted(VOTER_MAJORS),
        )
        assert out.status is SearchStatus.FOUND
        assert out.heuristics_applied == ()
        assert out.candidates_tried > 1  # the first assignments lost

        out = do_search(
            open_db,
            products_db,
            lexicon,
            "return product types; return the number of #1",
            DISTINCT_PRODUCT_TYPES,
        )
        assert out.status is SearchStatus.FOUND
        assert out.heuristics_applied == ("distinct",)

        out = do_search(
            open_db,
            geo_db,
            lexicon,
            "return states; return the size of #1; "
            "return state with the largest #2; return the size of #3",
            LARGEST_STATE_AREA,
        )
        assert out.status is SearchStatus.FOUND
        assert out.heuristics_applied == ("superlative",)

        out = do_search(
            open_db,
            university_db,
            lexicon,
            "return universities; return the enrollment of #1; "
            "return the number of #2 for each affiliation",
            sorted(ENROLLMENT_SUMS),
        )
        assert out.status is SearchStatus.FOUND
        assert out.heuristics_applied == ("aggregate_swap",)


def test_join_path_matches_exhaustive_minimum(capsys):
    with criterion(capsys, 5, "join paths equal exhaustive minimum"):
        started = time.monotonic()

        rng = Random(20240822)
        for trial in range(100):
            n = rng.randint(2, 12)
            schema = random_schema(rng, n)
            names = list(schema.tables)
            sources = set(rng.sample(names, rng.randint(1, max(1, n // 3))))
            targets = set(rng.sample(names, rng.randint(1, max(1, n // 3))))
            expected = oracle_distance(schema, sources, targets)
            path = join_tables(schema, sources, targets)
            assert len(path.edges) == expected, f"trial {trial}"
            if sources & targets:
                assert path.edges == ()
            else:
                check_path(schema, path, sources, targets)

        rng = Random(4822)
        for _ in range(20):
            n = rng.randint(4, 10)
            cut = n // 2
            edges = [(i, rng.randrange(i)) for i in range(1, cut)]
            edges += [
                (i, cut + rng.randrange(i - cut)) for i in range(cut + 1, n)
            ]
            schema = make_schema(n, edges)
            with pytest.raises(DisconnectedTables):
                join_tables(schema, {"t0"}, {f"t{n - 1}"})

        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def _planted_examples(db_dir):
    """For every column of every fixture table: its value set, and its
    non-null count.  Both answers are reachable by construction."""
    cases = []
    for db_file in sorted(db_dir.glob("*.sqlite")):
        raw = sqlite3.connect(db_file)
        tables = [
            r[0]
            for r in raw.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        ]
        for table in tables:
            for _, column, *_ in raw.execute(f"PRAGMA table_info({table})"):
                phrase = "the " + " ".join(column.split("_"))
                values = [
                    r[0] for r in raw.execute(f'SELECT "{column}" FROM "{table}"')
                ]
                cases.append(
                    (db_file, f"return {phrase}", sorted(set(values), key=repr))
                )
                cases.append(
                    (
                        db_file,
                        f"return {phrase}; return the number of #1",
                        sum(1 for v in values if v is not None),
                    )
                )
        raw.close()
    return cases


def _negative_controls(db_dir):
    """Well-formed programs whose answers no candidate can produce: the
    strings appear in no cell, and the numbers are outside every possible
    count, sum, or cell value (including the repaired variants)."""
    controls = [
        ("ship_death", "return ships; return the number of #1", 10**9),
        ("ship_death", "return the name of ships", "zzz unreachable"),
        ("geo", "return states; return the number of #1", -5),
        ("geo", "return the population of states; return the sum of #1", 1),
        ("academic", "return authors", ["nobody at all"]),
        ("academic", "return papers; return the number of #1", 123456),
        ("voting_record", "return students; return the number of #1", 999),
        ("voting_record", "return the majors of students", ["Alchemy"]),
        ("products", "return product types; return the number of #1", 777),
        ("products", "return the product names", ["Unobtainium Rod"]),
        (
            "university",
            "return the enrollment of universities; return the sum of #1",
            -1,
        ),
        ("university", "return universities; return the number of #1", 10**7),
    ]
    return [(db_dir / f"{db}.sqlite", qdmr, answer) for db, qdmr, answer in controls]


def test_planted_search_soundness(capsys, db_dir, lexicon):
    planted = _planted_examples(db_dir)
    negatives = _negative_controls(db_dir)
    label = f"search soundness, {len(planted)} planted / {len(negatives)} controls"
    with criterion(capsys, 6, label):
        assert len(planted) >= 50
        assert len(negatives) >= 10
        config = SynthesisConfig()

        for db_file, qdmr, answer in planted:
            with Database.open(db_file) as db:
                out = search(
                    FakeExample(qdmr, answer),
                    Session(db, load_schema(db.conn), config, lexicon),
                )
            assert out.status is SearchStatus.FOUND, (db_file.stem, qdmr)

        for db_file, qdmr, answer in negatives:
            with Database.open(db_file) as db:
                out = search(
                    FakeExample(qdmr, answer),
                    Session(db, load_schema(db.conn), config, lexicon),
                )
            assert out.status is SearchStatus.EXHAUSTED, (db_file.stem, qdmr)
            # Exhaustion, not the assignment cap, ended these searches.
            assert out.candidates_tried < config.max_assignments


def test_denotation_comparison_semantics(capsys):
    with criterion(capsys, 7, "denotation comparison semantics"):
        rows = Denotation.from_rows
        assert denotations_equal(rows([[1], [2], [3]]), rows([[3], [1], [2]]))
        assert denotations_equal(rows([["x"], ["x"], ["y"]]), rows([["y"], ["x"]]))
        assert denotations_equal(rows([[5]]), rows([[5.0]]))
        empty = rows([])
        assert not denotations_equal(empty, empty)
        assert denotations_equal(empty, empty, allow_empty=True)
        assert not denotations_equal(rows([[1]]), empty, allow_empty=True)


def test_coverage_arithmetic_and_reproducibility(
    capsys, db_dir, lexicon, tmp_path
):
    with criterion(capsys, 8, "coverage arithmetic and reruns"):
        assert CoverageReport.percent(7249, 9313) == 77.8

        examples, rejects = load_examples(DATA_DIR / "corpus.jsonl")
        assert len(examples) >= 25
        assert not rejects

        first_out, first_report = run_corpus(examples, db_dir, lexicon=lexicon)
        second_out, second_report = run_corpus(examples, db_dir, lexicon=lexicon)

        # The designed coverage of the bundled corpus.
        assert first_report.total == CoverageRow("Total", 3, 27, 23, 85.2)
        assert first_report.non_empty_total == CoverageRow(
            "Total", 3, 26, 23, 88.5
        )

        assert first_report.to_json() == second_report.to_json()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert emit_training_pairs(examples, first_out, a) == 23
        assert emit_training_pairs(examples, second_out, b) == 23
        assert a.read_bytes() == b.read_bytes()
        assert failures_path(a).read_bytes() == failures_path(b).read_bytes()
