"""Schema introspection, read-only opening, and the literal value index."""

import json
import sqlite3

import pytest

from qdmr2sql import (
    NoTables,
    SchemaGraph,
    UnreadableDatabase,
    ValueIndex,
    load_schema,
    open_readonly,
)


class TestIntrospection:
    def test_tables_in_declaration_order(self, ship_death_db):
        schema = load_schema(ship_death_db)
        assert list(schema.tables) == ["ship", "death"]

    def test_columns_in_declaration_order(self, ship_death_db):
        schema = load_schema(ship_death_db)
        assert [c.column for c in schema.tables["death"]] == [
            "id", "caused_by_ship_id", "injured", "killed",
        ]

    def test_column_lemmas(self, ship_death_db):
        schema = load_schema(ship_death_db)
        col = schema.column("death", "caused_by_ship_id")
        assert col.own_lemmas == ("cause", "ship", "id")
        # Table-qualified lemmas add the table word for tier matching.
        assert set(col.lemmas) >= {"death", "cause", "ship", "id"}

    def test_value_kinds(self, ship_death_db):
        schema = load_schema(ship_death_db)
        assert schema.column("ship", "name").value_kind == "text"
        assert schema.column("ship", "tonnage").value_kind == "number"

    def test_foreign_keys(self, academic_db):
        schema = load_schema(academic_db)
        got = {(e.source.qualified, e.target.qualified) for e in schema.fks}
        assert got == {
            ("publication.jid", "journal.jid"),
            ("writes.aid", "author.aid"),
            ("writes.pid", "publication.pid"),
        }

    def test_parallel_foreign_keys_both_kept(self, voting_record_db):
        schema = load_schema(voting_record_db)
        sources = sorted(e.source.qualified for e in schema.fks)
        assert sources == ["voting_record.stuid", "voting_record.treasurer_vote"]
        targets = {e.target.qualified for e in schema.fks}
        assert targets == {"student.stuid"}

    def test_column_lookup_case_insensitive(self, ship_death_db):
        schema = load_schema(ship_death_db)
        assert schema.column("SHIP", "Name").qualified == "ship.name"
        with pytest.raises(UnreadableDatabase):
            schema.column("ship", "missing")

    def test_adjacency_is_undirected(self, academic_db):
        schema = load_schema(academic_db)
        adj = schema.table_adjacency()
        assert {n for n, _ in adj["publication"]} == {"journal", "writes"}
        assert {n for n, _ in adj["author"]} == {"writes"}


class TestJsonSchema:
    DOC = {
        "tables": {
            "ship": {"id": "INTEGER", "name": "TEXT"},
            "death": {"id": "INTEGER", "caused_by_ship_id": "INTEGER"},
        },
        "foreign_keys": {
            "death.caused_by_ship_id": "ship.id",
        },
    }

    def test_load_from_dict(self):
        schema = load_schema(self.DOC)
        assert isinstance(schema, SchemaGraph)
        assert list(schema.tables) == ["ship", "death"]
        edge = schema.fks[0]
        assert (str(edge.source), str(edge.target)) == (
            "death.caused_by_ship_id",
            "ship.id",
        )

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(self.DOC))
        schema = load_schema(path)
        assert schema.column("ship", "name").qualified == "ship.name"

    def test_empty_schema_rejected(self):
        with pytest.raises(NoTables):
            load_schema({"tables": {}})

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text("{not json")
        with pytest.raises(UnreadableDatabase):
            load_schema(path)


class TestReadOnly:
    def test_writes_rejected(self, ship_death_db):
        conn = open_readonly(ship_death_db)
        try:
            with pytest.raises(sqlite3.OperationalError):
                conn.execute("INSERT INTO ship VALUES (99, 'x', 'y', 1)")
        finally:
            conn.close()

    def test_missing_file_not_created(self, tmp_path):
        ghost = tmp_path / "nope.sqlite"
        with pytest.raises(UnreadableDatabase):
            open_readonly(ghost)
        assert not ghost.exists()


class TestValueIndex:
    @pytest.fixture()
    def index(self, academic_db):
        conn = open_readonly(academic_db)
        yield ValueIndex(conn, load_schema(conn))
        conn.close()

    def test_exact_match(self, index):
        cols = index.columns_containing("PVLDB")
        assert [c.qualified for c in cols] == ["journal.name"]

    def test_value_in_several_columns_sorted(self, geo_db):
        conn = open_readonly(geo_db)
        try:
            index = ValueIndex(conn, load_schema(conn))
            cols = index.columns_containing("missouri")
            assert [c.qualified for c in cols] == [
                "river.traverse", "state.state_name",
            ]
        finally:
            conn.close()

    def test_case_fold_fallback(self, index):
        cols = index.columns_containing("pvldb")
        assert [c.qualified for c in cols] == ["journal.name"]

    def test_exact_wins_over_folded(self, index):
        # 'PVLDB' matches journal.name exactly; the folded scan never runs.
        assert index.columns_containing("PVLDB") == index.columns_containing("PVLDB")

    def test_absent_literal(self, index):
        assert index.columns_containing("no such value") == ()

    def test_numeric_literals_skip_scan(self, index):
        assert index.columns_containing("42") == ()
        assert index.columns_containing("3.14") == ()

    def test_memoized(self, index):
        first = index.columns_containing("PVLDB")
        assert index.columns_containing("PVLDB") is first
