"""Corpus loading, batch synthesis, coverage reporting, and pair emission.

The frozen mini corpus (tests/data/corpus.jsonl, 27 examples over three
databases) was designed so that exactly 23 examples are reachable; its
per-example statuses and the resulting report numbers are pinned here.
"""

import dataclasses
import json
import shutil
import sqlite3
from itertools import zip_longest
from pathlib import Path

import pytest

from conftest import DATA_DIR
from qdmr2sql import corpus as corpus_module
from qdmr2sql import linking
from qdmr2sql.corpus import (
    CoverageReport,
    CoverageRow,
    Example,
    Reject,
    emit_training_pairs,
    failures_path,
    load_examples,
    rejects_path,
    resolve_database,
    run_corpus,
    write_rejects,
)
from qdmr2sql.errors import AllLinesInvalid, FileUnreadable
from qdmr2sql.executor import Database
from qdmr2sql.schema import ValueIndex, load_schema, open_readonly
from qdmr2sql.search import (
    SearchStatus,
    SynthesisConfig,
    SynthesisOutcome,
    search,
)

CORPUS = DATA_DIR / "corpus.jsonl"

# id -> designed status over the planted fixture data
EXPECTED_STATUS = {
    "s1": "Found", "s2": "Found", "s3": "Found", "s4": "Found",
    "s5": "Found", "s6": "Found", "s7": "Exhausted", "s8": "Found",
    "g1": "Found", "g2": "Found", "g3": "Found", "g4": "Found",
    "g5": "Found", "g6": "Found", "g7": "Found", "g8": "Found",
    "g9": "MappingFailed", "g10": "Found",
    "a1": "Found", "a2": "Found", "a3": "Found", "a4": "Found",
    "a5": "Found", "a6": "Found", "a7": "Found",
    "a8": "Exhausted", "a9": "Exhausted",
}
EXPECTED_FOUND = sorted(k for k, v in EXPECTED_STATUS.items() if v == "Found")


class TestLoadExamples:
    def test_frozen_corpus_loads_cleanly(self):
        examples, rejects = load_examples(CORPUS)
        assert len(examples) == 27
        assert rejects == []
        assert [ex.id for ex in examples][:3] == ["s1", "s2", "s3"]
        assert examples[0].dataset == "ship-death"
        assert examples[0].db_id == "ship_death"
        assert all(ex.program is not None for ex in examples)

    def test_answers_are_normalized_to_rows(self):
        examples, _ = load_examples(CORPUS)
        by_id = {ex.id: ex for ex in examples}
        assert by_id["s3"].answer == [[6]]            # scalar
        assert by_id["s6"].answer == [[3], [6]]       # flat list
        assert by_id["a9"].answer == []               # empty list

    def test_bad_lines_become_rejects(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            "\n".join(
                [
                    '{"id": "ok", "question": "q", "qdmr": "return ships", '
                    '"answer": 1, "db_id": "d"}',
                    "",
                    "not json at all",
                    "[1, 2]",
                    '{"id": "gap", "question": "q", "answer": 1}',
                    '{"id": "bad-ans", "question": "q", "qdmr": "return ships", '
                    '"answer": {"x": 1}, "db_id": "d"}',
                    '{"id": "bad-qdmr", "question": "q", "qdmr": "return #5", '
                    '"answer": 1, "db_id": "d"}',
                ]
            )
            + "\n"
        )
        examples, rejects = load_examples(path)
        assert [ex.id for ex in examples] == ["ok"]
        assert examples[0].dataset == "mixed"
        assert [r.line_no for r in rejects] == [3, 4, 5, 6, 7]
        reasons = {r.line_no: r.reason for r in rejects}
        assert "invalid JSON" in reasons[3]
        assert "not a JSON object" in reasons[4]
        assert "qdmr" in reasons[5] and "db_id" in reasons[5]
        assert "answer" in reasons[6]
        assert "DanglingReference" in reasons[7]

    def test_row_answers_pass_through(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text(
            '{"id": "r", "question": "q", "qdmr": "return ships", '
            '"answer": [[1, "a"], [2, "b"]], "db_id": "d"}\n'
        )
        examples, _ = load_examples(path)
        assert examples[0].answer == [[1, "a"], [2, "b"]]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileUnreadable):
            load_examples(tmp_path / "absent.jsonl")

    def test_all_lines_invalid(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text("nope\nstill nope\n")
        with pytest.raises(AllLinesInvalid):
            load_examples(path)

    def test_empty_file_is_fine(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_examples(path) == ([], [])


class TestResolveDatabase:
    def test_lookup_order(self, tmp_path):
        (tmp_path / "plain").write_bytes(b"x")
        (tmp_path / "suffixed.sqlite").write_bytes(b"x")
        (tmp_path / "dotdb.db").write_bytes(b"x")
        nested = tmp_path / "nested"
        nested.mkdir()
        (nested / "nested.sqlite").write_bytes(b"x")

        assert resolve_database(tmp_path, "plain") == tmp_path / "plain"
        assert resolve_database(tmp_path, "suffixed") == tmp_path / "suffixed.sqlite"
        assert resolve_database(tmp_path, "dotdb") == tmp_path / "dotdb.db"
        assert resolve_database(tmp_path, "nested") == nested / "nested.sqlite"

    def test_missing_db(self, tmp_path):
        with pytest.raises(FileUnreadable):
            resolve_database(tmp_path, "ghost")


class TestCoveragePercent:
    def test_published_corpus_ratio(self):
        assert CoverageReport.percent(7249, 9313) == 77.8

    def test_rounding_to_one_decimal(self):
        assert CoverageReport.percent(1, 3) == 33.3
        assert CoverageReport.percent(2, 3) == 66.7
        assert CoverageReport.percent(1, 1) == 100.0

    def test_zero_examples(self):
        assert CoverageReport.percent(0, 0) == 0.0


def _fake_example(id, dataset, db_id, answer=((1,),)):
    return Example(
        id=id,
        question="q",
        qdmr="return things",
        answer=[list(r) for r in answer],
        db_id=db_id,
        dataset=dataset,
    )


def _outcome(status):
    return SynthesisOutcome(status=SearchStatus(status))


class TestCoverageReport:
    def test_groups_in_first_appearance_order(self):
        examples = [
            _fake_example("1", "beta", "db1"),
            _fake_example("2", "alpha", "db2"),
            _fake_example("3", "beta", "db3"),
        ]
        outcomes = [_outcome("Found"), _outcome("Exhausted"), _outcome("Found")]
        report = CoverageReport.build(examples, outcomes)
        assert [r.dataset for r in report.rows] == ["beta", "alpha"]
        assert report.rows[0] == CoverageRow("beta", 2, 2, 2, 100.0)
        assert report.rows[1] == CoverageRow("alpha", 1, 1, 0, 0.0)
        assert report.total == CoverageRow("Total", 3, 3, 2, 66.7)

    def test_non_empty_variant_drops_empty_answers(self):
        examples = [
            _fake_example("1", "d", "db"),
            _fake_example("2", "d", "db", answer=()),
        ]
        outcomes = [_outcome("Found"), _outcome("Exhausted")]
        report = CoverageReport.build(examples, outcomes)
        assert report.total.examples == 2
        assert report.non_empty_total.examples == 1
        assert report.non_empty_total.coverage == 100.0

    def test_empty_report_carries_note(self):
        report = CoverageReport.build([], [])
        doc = report.to_dict()
        assert doc["note"] == "no examples"
        assert doc["groups"] == []
        assert doc["total"] is None

    def test_json_shape(self):
        report = CoverageReport.build(
            [_fake_example("1", "d", "db")], [_outcome("Found")]
        )
        doc = json.loads(report.to_json())
        assert set(doc) == {"groups", "total", "non_empty"}
        assert doc["total"]["coverage"] == 100.0
        assert report.to_json().endswith("\n")


@pytest.fixture(scope="module")
def corpus_run(db_dir, lexicon):
    examples, rejects = load_examples(CORPUS)
    assert not rejects
    outcomes, report = run_corpus(examples, db_dir, lexicon=lexicon)
    return examples, outcomes, report


class TestRunCorpus:
    def test_designed_statuses(self, corpus_run):
        examples, outcomes, _ = corpus_run
        got = {ex.id: out.status.value for ex, out in zip(examples, outcomes)}
        assert got == EXPECTED_STATUS

    def test_found_examples_carry_sql(self, corpus_run):
        examples, outcomes, _ = corpus_run
        by_id = {ex.id: out for ex, out in zip(examples, outcomes)}
        for id in EXPECTED_FOUND:
            assert by_id[id].sql, id
        assert by_id["g10"].sql == (
            "SELECT state.state_name FROM state WHERE state.population < 3100000"
        )
        assert by_id["s7"].sql is None

    def test_report_totals(self, corpus_run):
        _, _, report = corpus_run
        assert report.total == CoverageRow("Total", 3, 27, 23, 85.2)
        assert report.non_empty_total == CoverageRow("Total", 3, 26, 23, 88.5)
        assert [r.dataset for r in report.rows] == ["ship-death", "geo", "academic"]
        assert report.rows[0] == CoverageRow("ship-death", 1, 8, 7, 87.5)
        assert report.rows[1] == CoverageRow("geo", 1, 10, 9, 90.0)
        assert report.rows[2] == CoverageRow("academic", 1, 9, 7, 77.8)

    def test_two_runs_are_byte_identical(self, corpus_run, db_dir, lexicon):
        examples, outcomes, report = corpus_run
        again_outcomes, again_report = run_corpus(examples, db_dir, lexicon=lexicon)
        assert again_report.to_json() == report.to_json()
        assert [o.sql for o in again_outcomes] == [o.sql for o in outcomes]

    def test_parallel_run_matches_serial(self, corpus_run, db_dir, lexicon):
        examples, outcomes, report = corpus_run
        par_outcomes, par_report = run_corpus(
            examples, db_dir, lexicon=lexicon, jobs=4
        )
        assert [o.status for o in par_outcomes] == [o.status for o in outcomes]
        assert [o.sql for o in par_outcomes] == [o.sql for o in outcomes]
        assert par_report.to_json() == report.to_json()

    def test_unknown_db_id_aborts_upfront(self, db_dir):
        bad = [_fake_example("x", "d", "no_such_db")]
        with pytest.raises(FileUnreadable):
            run_corpus(bad, db_dir)


def _closed(conn):
    # total_changes checks only that the connection is open, so it works on
    # connections that other threads opened.
    try:
        conn.total_changes
    except sqlite3.ProgrammingError:
        return True
    return False


@pytest.fixture()
def opened(monkeypatch):
    """A ``(path, database)`` pair for every Database that Database.open
    returns during the test."""
    databases = []
    real_open = Database.open.__func__

    def recording_open(cls, path):
        db = real_open(cls, path)
        databases.append((Path(path), db))
        return db

    monkeypatch.setattr(Database, "open", classmethod(recording_open))
    return databases


class TestSessions:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_each_database_opened_once_and_closed(self, opened, db_dir, lexicon, jobs):
        examples, _ = load_examples(CORPUS)
        run_corpus(examples, db_dir, lexicon=lexicon, jobs=jobs)
        assert sorted(path.stem for path, _ in opened) == [
            "academic", "geo", "ship_death",
        ]
        assert all(_closed(db.conn) for _, db in opened)

    def test_grouped_corpus_holds_one_connection_at_a_time(
        self, opened, monkeypatch, db_dir, lexicon
    ):
        examples, _ = load_examples(CORPUS)
        order = {db_id: i for i, db_id in enumerate(dict.fromkeys(
            ex.db_id for ex in examples
        ))}
        grouped = sorted(examples, key=lambda ex: order[ex.db_id])
        still_open = []
        recording_open = Database.open

        def counting_open(cls, path):
            still_open.append(sum(not _closed(db.conn) for _, db in opened))
            return recording_open(path)

        monkeypatch.setattr(Database, "open", classmethod(counting_open))
        run_corpus(grouped, db_dir, lexicon=lexicon)
        assert still_open == [0, 0, 0]
        assert all(_closed(db.conn) for _, db in opened)

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_closed_when_search_raises(
        self, opened, monkeypatch, db_dir, lexicon, jobs
    ):
        real_search = corpus_module.search

        def failing_search(example, *args, **kwargs):
            if example.db_id == "geo":
                raise RuntimeError("search crashed")
            return real_search(example, *args, **kwargs)

        monkeypatch.setattr(corpus_module, "search", failing_search)
        examples, _ = load_examples(CORPUS)
        with pytest.raises(RuntimeError, match="search crashed"):
            run_corpus(examples, db_dir, lexicon=lexicon, jobs=jobs)
        assert "geo" in {path.stem for path, _ in opened}
        assert all(_closed(db.conn) for _, db in opened)

    def test_unreadable_database_fails_only_its_examples(
        self, corpus_run, tmp_path, db_dir, lexicon
    ):
        shutil.copy(db_dir / "ship_death.sqlite", tmp_path)
        (tmp_path / "broken.sqlite").write_bytes(b"not a database. " * 64)
        examples, outcomes, _ = corpus_run
        serial = {ex.id: out for ex, out in zip(examples, outcomes)}
        ships = [ex for ex in examples if ex.db_id == "ship_death"]
        broken = [
            dataclasses.replace(ex, id=f"broken-{ex.id}", db_id="broken")
            for ex in ships
        ]
        mixed = [ex for pair in zip(broken, ships) for ex in pair]
        got, _ = run_corpus(mixed, tmp_path, lexicon=lexicon)
        for ex, out in zip(mixed, got):
            if ex.db_id == "broken":
                assert out.status is SearchStatus.MAPPING_FAILED
                assert out.failure_reason == (
                    f"UnreadableDatabase: cannot open {tmp_path / 'broken.sqlite'}:"
                    " file is not a database"
                )
            else:
                assert out == serial[ex.id]


def test_jobs_shard_matches_serial_files(db_dir, lexicon, tmp_path):
    examples, _ = load_examples(CORPUS)
    by_db = {}
    for ex in examples:
        by_db.setdefault(ex.db_id, []).append(ex)
    assert list(by_db) == ["ship_death", "geo", "academic"]
    round_robin = [
        ex for group in zip_longest(*by_db.values()) for ex in group if ex
    ]
    assert [ex.db_id for ex in round_robin[:4]] == [
        "ship_death", "geo", "academic", "ship_death",
    ]
    files = []
    for jobs in (1, 3):
        outcomes, report = run_corpus(round_robin, db_dir, lexicon=lexicon, jobs=jobs)
        out = tmp_path / f"jobs{jobs}" / "pairs.jsonl"
        out.parent.mkdir()
        assert emit_training_pairs(round_robin, outcomes, out) == 23
        files.append(
            (out.read_bytes(), failures_path(out).read_bytes(), report.to_json())
        )
    assert files[0] == files[1]


GOLDEN = DATA_DIR / "golden"


def assert_matches_golden(examples, outcomes, report, out_dir):
    out = out_dir / "pairs.jsonl"
    emit_training_pairs(examples, outcomes, out)
    (out_dir / "report.json").write_text(report.to_json(), encoding="utf-8")
    for name in ("pairs.jsonl", "pairs.failures.jsonl", "report.json"):
        assert (out_dir / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_outputs_match_golden_files(corpus_run, tmp_path):
    """The pairs, failures and report files of the fixture corpus, byte for
    byte as committed under ``tests/data/golden``: any drift in the SQL the
    mapper renders, in the assignments or in the reasons fails here."""
    assert_matches_golden(*corpus_run, tmp_path)


def _database_key(schema):
    return tuple(sorted(schema.tables))


@pytest.fixture()
def ranked(monkeypatch):
    """A ``(database, phrase)`` pair for every call of
    ``linking.rank_columns`` during the test; a database is named by its
    sorted table names."""
    calls = []
    real = linking.rank_columns

    def counting(phrase, schema, lexicon=None, top_k=None):
        calls.append((_database_key(schema), phrase))
        return real(phrase, schema, lexicon, top_k)

    monkeypatch.setattr(linking, "rank_columns", counting)
    return calls


def _phrase_slots(examples, db_dir):
    """Every ``(database, phrase)`` phrase slot of ``examples``' programs,
    in order, planned with a fresh value index per database."""
    slots = []
    for db_id in dict.fromkeys(ex.db_id for ex in examples):
        conn = open_readonly(resolve_database(db_dir, db_id))
        try:
            schema = load_schema(conn)
            index = ValueIndex(conn, schema)
            for ex in examples:
                if ex.db_id == db_id:
                    plan = linking.plan_bindings(ex.program, index)
                    slots += [
                        (_database_key(schema), phrase)
                        for _, _, phrase in plan.phrase_slots
                    ]
        finally:
            conn.close()
    return slots


class TestRankingMemo:
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_each_phrase_ranked_once_per_database(
        self, ranked, db_dir, lexicon, tmp_path, jobs
    ):
        examples, _ = load_examples(CORPUS)
        slots = _phrase_slots(examples, db_dir)
        distinct = set(slots)
        # Phrases repeat within a database, so a memo has something to save.
        assert len(distinct) < len(slots)
        outcomes, report = run_corpus(examples, db_dir, lexicon=lexicon, jobs=jobs)
        assert sorted(ranked) == sorted(distinct)
        assert_matches_golden(examples, outcomes, report, tmp_path)

    def test_no_ranking_outlives_its_run(self, ranked, db_dir, lexicon, tmp_path):
        """A run at ``top_k`` 1 followed by one at 20 ranks every phrase
        afresh in each and gives what two fresh runs give; a ranking kept
        from the first run (a cache keyed by phrase alone) would cut the
        second run's candidates to one."""
        examples, _ = load_examples(CORPUS)
        distinct = sorted(set(_phrase_slots(examples, db_dir)))
        narrow = SynthesisConfig(top_k=1)
        narrow_outcomes, _ = run_corpus(
            examples, db_dir, config=narrow, lexicon=lexicon
        )
        assert sorted(ranked) == distinct
        ranked.clear()
        wide_outcomes, wide_report = run_corpus(
            examples, db_dir, config=SynthesisConfig(top_k=20), lexicon=lexicon
        )
        assert sorted(ranked) == distinct
        assert_matches_golden(examples, wide_outcomes, wide_report, tmp_path)
        fresh_narrow = []
        for ex in examples:
            db = Database.open(resolve_database(db_dir, ex.db_id))
            try:
                schema = load_schema(db.conn)
                fresh_narrow.append(search(ex, schema, db, narrow, lexicon))
            finally:
                db.close()
        assert narrow_outcomes == fresh_narrow
        found = [o.status is SearchStatus.FOUND for o in narrow_outcomes]
        assert sum(found) < len(EXPECTED_FOUND)


class TestEmitTrainingPairs:
    def test_companion_paths(self):
        assert failures_path("out/pairs.jsonl").name == "pairs.failures.jsonl"
        assert rejects_path("out/pairs.jsonl").name == "pairs.rejects.jsonl"
        assert failures_path("out/pairs").name == "pairs.failures"

    def test_every_example_lands_exactly_once(self, corpus_run, tmp_path):
        examples, outcomes, _ = corpus_run
        out = tmp_path / "pairs.jsonl"
        written = emit_training_pairs(examples, outcomes, out)
        assert written == 23

        pairs = [json.loads(l) for l in out.read_text().splitlines()]
        failures = [
            json.loads(l) for l in failures_path(out).read_text().splitlines()
        ]
        assert sorted(p["id"] for p in pairs) == EXPECTED_FOUND
        assert sorted(f["id"] for f in failures) == ["a8", "a9", "g9", "s7"]
        assert len(pairs) + len(failures) == len(examples)

    def test_pair_record_shape(self, corpus_run, tmp_path):
        examples, outcomes, _ = corpus_run
        out = tmp_path / "pairs.jsonl"
        emit_training_pairs(examples, outcomes, out)
        by_id = {
            doc["id"]: doc
            for doc in map(json.loads, out.read_text().splitlines())
        }
        s2 = by_id["s2"]
        assert set(s2) == {
            "id", "question", "sql", "db_id", "assignment", "heuristics", "qdmr"
        }
        assert s2["db_id"] == "ship_death"
        assert s2["assignment"]["1:ships"] == "ship.id"
        assert s2["heuristics"] == []
        assert by_id["g2"]["heuristics"] == ["superlative"]

    def test_failure_record_shape(self, corpus_run, tmp_path):
        examples, outcomes, _ = corpus_run
        out = tmp_path / "pairs.jsonl"
        emit_training_pairs(examples, outcomes, out)
        failures = {
            doc["id"]: doc
            for doc in map(
                json.loads, failures_path(out).read_text().splitlines()
            )
        }
        assert failures["g9"]["status"] == "MappingFailed"
        assert "no database value" in failures["g9"]["failure_reason"]
        assert failures["s7"]["status"] == "Exhausted"

    def test_gold_sql_round_trips(self, tmp_path):
        ex = Example(
            id="g",
            question="q",
            qdmr="return things",
            answer=[[1]],
            db_id="db",
            gold_sql="SELECT 1",
        )
        outcome = SynthesisOutcome(
            status=SearchStatus.FOUND, sql="SELECT 1", qdmr="things"
        )
        out = tmp_path / "pairs.jsonl"
        assert emit_training_pairs([ex], [outcome], out) == 1
        doc = json.loads(out.read_text())
        assert doc["gold_sql"] == "SELECT 1"


class TestWriteRejects:
    def test_round_trip(self, tmp_path):
        rejects = [Reject(3, "invalid JSON", id=None), Reject(9, "missing", id="x")]
        path = tmp_path / "rejects.jsonl"
        assert write_rejects(rejects, path) == 2
        docs = [json.loads(l) for l in path.read_text().splitlines()]
        assert docs[0] == {"line": 3, "reason": "invalid JSON"}
        assert docs[1] == {"line": 9, "reason": "missing", "id": "x"}
