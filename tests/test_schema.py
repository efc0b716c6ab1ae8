"""Schema introspection, read-only opening, and the literal value index."""

import json
import re
import shutil
import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from qdmr2sql import schema as schema_module
from qdmr2sql import (
    Database,
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
        assert schema.column("ship", "name").lookup == "map"
        assert schema.column("ship", "tonnage").lookup is None
        conn = sqlite3.connect(":memory:")
        try:
            conn.executescript(
                "CREATE TABLE a (code STRING, note TEXT);"
                "CREATE TABLE b (name TEXT COLLATE NOCASE, city TEXT);"
            )
            lookups = {str(c): c.lookup for c in load_schema(conn).columns()}
        finally:
            conn.close()
        # Only the column with the COLLATE clause is probed, not its table.
        assert lookups == {
            "a.code": "probe", "a.note": "map", "b.name": "probe", "b.city": "map",
        }

    # A COLLATE clause on one column, in a default value's text and in a
    # table constraint; only the first makes its column collated.
    COLLATED_TABLE = (
        "CREATE TABLE t (a TEXT COLLATE NOCASE, b TEXT,"
        " collate_date TEXT DEFAULT 'x COLLATE y',"
        " CHECK (b COLLATE NOCASE <> ''))"
    )

    def test_collation_is_decided_per_column(self):
        conn = sqlite3.connect(":memory:")
        try:
            conn.executescript(
                self.COLLATED_TABLE + ";"
                "CREATE TABLE r (x TEXT COLLATE RTRIM, n INTEGER COLLATE NOCASE,"
                " y TEXT COLLATE BINARY);"
            )
            cols = {str(c): c for c in load_schema(conn).columns()}
        finally:
            conn.close()
        collated = {name for name, c in cols.items() if c.collated}
        assert collated == {"t.a", "r.x", "r.n"}
        assert cols["t.b"].lookup == cols["t.collate_date"].lookup == "map"
        assert cols["t.a"].lookup == cols["r.x"].lookup == "probe"

    def test_unknown_collation_counts_as_collated(self, tmp_path):
        path = tmp_path / "custom.sqlite"
        conn = sqlite3.connect(path)
        conn.create_collation("reverse", lambda x, y: (y > x) - (y < x))
        conn.executescript("CREATE TABLE t (a TEXT COLLATE reverse, b TEXT);")
        conn.close()
        cols = {str(c): c for c in load_schema(path).columns()}
        assert cols["t.a"].collated and cols["t.a"].lookup == "probe"
        assert not cols["t.b"].collated and cols["t.b"].lookup == "map"

    def test_foreign_keys(self, academic_db):
        schema = load_schema(academic_db)
        got = {(str(e.source), str(e.target)) for e in schema.fks}
        assert got == {
            ("publication.jid", "journal.jid"),
            ("writes.aid", "author.aid"),
            ("writes.pid", "publication.pid"),
        }

    @pytest.mark.parametrize(
        "script, edge",
        [
            # A key that names no column points at the primary key of the
            # table it names in any case.
            ("CREATE TABLE ship (id INTEGER PRIMARY KEY, name TEXT);"
             "CREATE TABLE death (ship_id INTEGER REFERENCES SHIP, n INTEGER);",
             ("death.ship_id", "ship.id")),
            # A composite key's leading pair goes to the first column of the
            # primary key, not the first column of the table in it.
            ("CREATE TABLE t (a, b, PRIMARY KEY (b, a));"
             "CREATE TABLE u (x, y, FOREIGN KEY (x, y) REFERENCES t);",
             ("u.x", "t.b")),
        ],
        ids=["other_case", "key_order"],
    )
    def test_foreign_key_to_an_implicit_primary_key(self, script, edge):
        conn = sqlite3.connect(":memory:")
        try:
            conn.executescript(script)
            schema = load_schema(conn)
        finally:
            conn.close()
        assert [(str(e.source), str(e.target)) for e in schema.fks] == [edge]

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
        adj = schema.adjacency
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

    @pytest.mark.parametrize("dirname", ["odd#dir", "q?dir", "pct%41dir"])
    def test_uri_characters_in_path(self, tmp_path, ship_death_db, dirname):
        # '#' and '?' would end the URI's path part and '%' would start an
        # escape, opening or creating some other file.
        (tmp_path / dirname).mkdir()
        path = tmp_path / dirname / "ship_death.sqlite"
        shutil.copy(ship_death_db, path)
        conn = open_readonly(path)
        try:
            assert list(load_schema(conn).tables) == ["ship", "death"]
            with pytest.raises(sqlite3.OperationalError):
                conn.execute("INSERT INTO ship VALUES (99, 'x', 'y', 1)")
        finally:
            conn.close()
        assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(
            [dirname, "ship_death.sqlite"]
        )

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
        yield ValueIndex(Database(conn), load_schema(conn))
        conn.close()

    def test_exact_match(self, index):
        cols = index.columns_containing("PVLDB")
        assert [str(c) for c in cols] == ["journal.name"]

    def test_value_in_several_columns_sorted(self, geo_db):
        conn = open_readonly(geo_db)
        try:
            index = ValueIndex(Database(conn), load_schema(conn))
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
        (c for c in schema.columns() if c.lookup is not None),
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
        index = ValueIndex(Database(conn), schema)
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
            index = ValueIndex(Database(conn), load_schema(conn))
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
            index = ValueIndex(Database(conn), load_schema(conn))
            got = [str(c) for c in index.columns_containing("PARIS")]
            assert got == ["a.name", "b.city"]
        finally:
            conn.close()

    def test_each_column_read_once(self, geo_db):
        # The constructor reads each mapped column and nothing else of the
        # schema; lookups then answer from the maps alone.
        conn = open_readonly(geo_db)
        try:
            schema = load_schema(conn)
            statements = []
            conn.set_trace_callback(statements.append)
            index = ValueIndex(Database(conn), schema)
            reads = [s for s in statements if "DISTINCT" in s]
            mapped = [c for c in schema.columns() if c.lookup == "map"]
            assert len(set(reads)) == len(reads) == len(mapped) > 0
            assert len(statements) == len(reads)
            assert not any(
                "sqlite_master" in s or "PRAGMA" in s.upper() for s in statements
            )
            statements.clear()
            assert index.columns_containing("missouri") != ()
            assert index.columns_containing("Texas") != ()
            assert index.columns_containing("no such value") == ()
            assert statements == []
        finally:
            conn.close()

    def test_column_over_cap_sends_no_row(self, monkeypatch):
        # One statement per mapped column counts its first cap + 1 distinct
        # values and returns them only within the cap.  A column that
        # returns nothing is probed when its table has rows (over the cap)
        # and mapped when it has none.  The table named d is not confused
        # with the statement's CTE.
        monkeypatch.setattr(schema_module, "_MAX_MAPPED_VALUES", 2)
        conn = sqlite3.connect(":memory:")
        try:
            conn.executescript(
                "CREATE TABLE d (many TEXT, few TEXT);"
                "CREATE TABLE e (none TEXT);"
                "INSERT INTO d VALUES ('a', 'x'), ('b', 'y'), ('c', 'x');"
            )
            schema = load_schema(conn)
            statements = []
            conn.set_trace_callback(statements.append)
            index = ValueIndex(Database(conn), schema)
            reads = [
                f"WITH d AS (SELECT DISTINCT {col} AS v FROM main.{table} LIMIT 3)"
                " SELECT v, lower(trim(v)) FROM d WHERE (SELECT COUNT(*) FROM d) <= 2"
                for table, col in (("d", "few"), ("d", "many"), ("e", "none"))
            ]
            assert statements == [
                reads[0],
                reads[1], "SELECT EXISTS (SELECT 1 FROM main.d)",
                reads[2], "SELECT EXISTS (SELECT 1 FROM main.e)",
            ]
            statements.clear()
            assert [str(c) for c in index.columns_containing("x")] == ["d.few"]
            assert statements == ["SELECT 1 FROM d WHERE many = 'x' LIMIT 1"]
            assert [str(c) for c in index.columns_containing("b")] == ["d.many"]
        finally:
            conn.close()

    def test_column_over_cap_is_probed(self, geo_db, monkeypatch):
        monkeypatch.setattr(schema_module, "_MAX_MAPPED_VALUES", 1)
        conn = open_readonly(geo_db)
        try:
            index = ValueIndex(Database(conn), load_schema(conn))
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
            index = ValueIndex(Database(conn), schema)
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
