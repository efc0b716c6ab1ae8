"""Schema introspection, read-only opening, and the literal value index."""

import json
import re
import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from qdmr2sql import schema as schema_module
from qdmr2sql import (
    NoTables,
    SchemaGraph,
    UnreadableDatabase,
    ValueIndex,
    load_schema,
    open_readonly,
)
from qdmr2sql.schema import quote_ident


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
        got = {(str(e.source), str(e.target)) for e in schema.fks}
        assert got == {
            ("publication.jid", "journal.jid"),
            ("writes.aid", "author.aid"),
            ("writes.pid", "publication.pid"),
        }

    def test_parallel_foreign_keys_both_kept(self, voting_record_db):
        schema = load_schema(voting_record_db)
        sources = sorted(str(e.source) for e in schema.fks)
        assert sources == ["voting_record.stuid", "voting_record.treasurer_vote"]
        targets = {str(e.target) for e in schema.fks}
        assert targets == {"student.stuid"}

    def test_column_lookup_case_insensitive(self, ship_death_db):
        schema = load_schema(ship_death_db)
        assert str(schema.column("SHIP", "Name")) == "ship.name"
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
        assert str(schema.column("ship", "name")) == "ship.name"

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

    def test_garbage_file_fails_at_open(self, tmp_path):
        garbage = tmp_path / "garbage.sqlite"
        garbage.write_bytes(bytes(range(256)) * 16)
        with pytest.raises(
            UnreadableDatabase,
            match=f"^cannot open {re.escape(str(garbage))}: file is not a database$",
        ):
            open_readonly(garbage)


class TestValueIndex:
    @pytest.fixture()
    def index(self, academic_db):
        conn = open_readonly(academic_db)
        yield ValueIndex(conn, load_schema(conn))
        conn.close()

    def test_exact_match(self, index):
        cols = index.columns_containing("PVLDB")
        assert [str(c) for c in cols] == ["journal.name"]

    def test_value_in_several_columns_sorted(self, geo_db):
        conn = open_readonly(geo_db)
        try:
            index = ValueIndex(conn, load_schema(conn))
            cols = index.columns_containing("missouri")
            assert [str(c) for c in cols] == [
                "river.traverse", "state.state_name",
            ]
        finally:
            conn.close()

    def test_case_fold_fallback(self, index):
        cols = index.columns_containing("pvldb")
        assert [str(c) for c in cols] == ["journal.name"]

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


# --- the value maps against per-column probes --------------------------------

# One case per table: TEXT and VARCHAR columns, a COLLATE NOCASE column
# (its `=` ignores case) and a STRING column (NUMERIC affinity).
VALUE_TABLES = (
    "CREATE TABLE plain (v TEXT, w VARCHAR(20))",
    "CREATE TABLE nocase (v TEXT COLLATE NOCASE)",
    "CREATE TABLE numeric (v STRING)",
)


def _value_db(cells):
    """An in-memory database with ``cells`` in every text column."""
    conn = sqlite3.connect(":memory:")
    for ddl in VALUE_TABLES:
        conn.execute(ddl)
    for cell in cells:
        conn.execute("INSERT INTO plain VALUES (?, ?)", (cell, cell))
        conn.execute("INSERT INTO nocase VALUES (?)", (cell,))
        conn.execute("INSERT INTO numeric VALUES (?)", (cell,))
    return conn


def _probed_reference(index, schema, literal):
    """The lookup as one query per text column and literal: exact ``=``
    first, then ``lower(trim())`` on both sides."""
    if schema_module._NUMERIC.fullmatch(literal.strip()):
        return ()
    columns = sorted(
        (c for c in schema.columns() if c.value_kind == "text"),
        key=lambda c: (c.table, c.column),
    )
    exact = tuple(c for c in columns if index._contains(c, literal, fold=False))
    if exact:
        return exact
    return tuple(c for c in columns if index._contains(c, literal, fold=True))


def _assert_matches_probes(cells, literals):
    conn = _value_db(cells)
    try:
        schema = load_schema(conn)
        index = ValueIndex(conn, schema)
        for literal in literals:
            want = _probed_reference(index, schema, literal)
            assert index.columns_containing(literal) == want, literal
    finally:
        conn.close()


_TEXT = st.text(
    alphabet=st.sampled_from(["a", "A", "Ü", "ü", "é", "É", " ", "\t", "1", "e", "5"]),
    max_size=5,
)
_CELL = st.one_of(
    _TEXT,
    st.none(),
    _TEXT.map(str.encode),          # a BLOB whose bytes are valid text
    st.binary(max_size=3),          # a BLOB that may not be valid UTF-8
    st.integers(-10, 10),
)


def _variants(text):
    return [text, text.upper(), text.lower(), f" {text}  ", f"\t{text}", text.strip()]


class TestValueMaps:
    @settings(max_examples=150, deadline=None)
    @given(
        cells=st.lists(_CELL, max_size=8),
        extra=st.lists(_TEXT, max_size=4),
        cap=st.sampled_from([schema_module._MAX_MAPPED_VALUES, 2, 0]),
    )
    def test_lookups_match_per_column_probes(self, cells, extra, cap):
        literals = extra + [
            v for cell in cells if isinstance(cell, str) for v in _variants(cell)
        ]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(schema_module, "_MAX_MAPPED_VALUES", cap)
            _assert_matches_probes(cells, literals)

    def test_numeric_affinity_column_matches_by_number(self):
        # A STRING column stores '1e5' as the number 100000, and `=` turns
        # the literal '1e5' into the same number; no cell reads '1e5'.
        conn = sqlite3.connect(":memory:")
        try:
            conn.executescript(
                "CREATE TABLE a (code STRING); INSERT INTO a VALUES ('1e5');"
            )
            index = ValueIndex(conn, load_schema(conn))
            got = [str(c) for c in index.columns_containing("1e5")]
            assert got == ["a.code"]
        finally:
            conn.close()

    def test_collate_nocase_column_matches_exactly(self):
        conn = sqlite3.connect(":memory:")
        try:
            conn.executescript(
                "CREATE TABLE a (name TEXT COLLATE NOCASE);"
                "CREATE TABLE b (city TEXT);"
                "INSERT INTO a VALUES ('Paris');"
                "INSERT INTO b VALUES ('PARIS');"
            )
            index = ValueIndex(conn, load_schema(conn))
            got = [str(c) for c in index.columns_containing("PARIS")]
            assert got == ["a.name", "b.city"]
        finally:
            conn.close()

    def test_each_column_read_once(self, geo_db):
        conn = open_readonly(geo_db)
        try:
            schema = load_schema(conn)
            index = ValueIndex(conn, schema)
            statements = []
            conn.set_trace_callback(statements.append)
            index.columns_containing("missouri")
            reads = [s for s in statements if "DISTINCT" in s]
            text_columns = [c for c in schema.columns() if c.value_kind == "text"]
            assert len(set(reads)) == len(reads) == len(text_columns)
            assert not any("LIMIT 1" in s for s in statements)
            statements.clear()
            assert index.columns_containing("Texas") != ()
            assert index.columns_containing("no such value") == ()
            assert statements == []
        finally:
            conn.close()

    def test_column_over_cap_is_probed(self, geo_db, monkeypatch):
        monkeypatch.setattr(schema_module, "_MAX_MAPPED_VALUES", 1)
        conn = open_readonly(geo_db)
        try:
            index = ValueIndex(conn, load_schema(conn))
            cols = index.columns_containing("missouri")
            assert [str(c) for c in cols] == ["river.traverse", "state.state_name"]
            statements = []
            conn.set_trace_callback(statements.append)
            index.columns_containing("Texas")
            assert any("LIMIT 1" in s for s in statements)
        finally:
            conn.close()


# --- identifier quoting --------------------------------------------------------


class TestQuoteIdent:
    @pytest.mark.parametrize("name", ["ship", "Name", "_x1", "caused_by_ship_id"])
    def test_plain_names_stay_bare(self, name):
        assert quote_ident(name) == name

    @pytest.mark.parametrize(
        "name, spelled",
        [
            ("order", '"order"'),
            ("Group", '"Group"'),
            ("SELECT", '"SELECT"'),
            ("home town", '"home town"'),
            ("1st", '"1st"'),
            ('od"d', '"od""d"'),
            ("café", '"café"'),
            ("a.b", '"a.b"'),
        ],
    )
    def test_other_names_are_quoted(self, name, spelled):
        assert quote_ident(name) == spelled

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.one_of(
            st.sampled_from(sorted(schema_module._SQLITE_KEYWORDS)).flatmap(
                lambda k: st.sampled_from([k, k.lower(), k.title()])
            ),
            # SQLite text is UTF-8, so no name holds a lone surrogate.
            st.text(
                st.characters(
                    blacklist_categories=("Cs",), blacklist_characters="\x00"
                ),
                min_size=1,
            ),
        )
    )
    def test_sqlite_reads_the_name_back(self, name):
        conn = sqlite3.connect(":memory:")
        try:
            cursor = conn.execute(f"SELECT 1 AS {quote_ident(name)}")
            assert cursor.description[0][0] == name
        finally:
            conn.close()


class TestOddNames:
    def test_quoted_tables_introspect_and_index(self, tmp_path):
        path = tmp_path / "odd.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript(
            'CREATE TABLE "od""d" ("na""me" TEXT, "order" INTEGER PRIMARY KEY);'
            'CREATE TABLE "group" ("home town" TEXT COLLATE NOCASE,'
            ' "od id" INTEGER REFERENCES "od""d" ("order"));'
            "INSERT INTO \"od\"\"d\" VALUES ('Lettice', 1), ('Mary', 2);"
            "INSERT INTO \"group\" VALUES ('Leith', 1);"
        )
        conn.commit()
        conn.close()
        schema = load_schema(path)
        assert list(schema.tables) == ['od"d', "group"]
        assert [c.column for c in schema.tables['od"d']] == ['na"me', "order"]
        assert [(str(e.source), str(e.target)) for e in schema.fks] == [
            ("group.od id", 'od"d.order')
        ]
        assert schema.column('OD"D', 'NA"ME').sql == '"od""d"."na""me"'
        conn = open_readonly(path)
        try:
            index = ValueIndex(conn, schema)
            # Read into the value maps, exact and folded ...
            assert [str(c) for c in index.columns_containing("Mary")] == ['od"d.na"me']
            assert [str(c) for c in index.columns_containing(" MARY")] == ['od"d.na"me']
            # ... and, behind COLLATE, probed per literal.
            assert [str(c) for c in index.columns_containing("LEITH")] == [
                "group.home town"
            ]
            assert index.columns_containing("Hull") == ()
        finally:
            conn.close()
