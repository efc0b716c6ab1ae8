"""Per-operator SQL construction goldens and merge semantics.

Each mapping rule gets a symbolic instantiation on a fixture schema with
a pinned assignment; the expected SQL is written out by hand from the
rule template, and every golden also has to execute.  Merge behavior
(inline vs nested, redundant-subquery elision, self-join resolution) is
covered separately.
"""

import dataclasses
import os
import pickle
import random
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import build_db
from test_joinpath import make_schema, random_schema
from qdmr2sql import (
    Assignment,
    ArityMismatch,
    Database,
    Denotation,
    MissingJoin,
    SqlQuery,
    UnboundPhrase,
    Slot,
    ValueIndex,
    link_program,
    load_schema,
    open_readonly,
    parse_qdmr,
    plan_bindings,
    render_sql,
    synthesize,
)
import qdmr2sql
from qdmr2sql import executor as executor_module, sqlgen
from qdmr2sql.errors import Qdmr2SqlError, SqlBuildError
from qdmr2sql.schema import ColumnRef
from qdmr2sql.sqlgen import (
    AggExpr,
    ArithExpr,
    ColExpr,
    CmpPred,
    InPred,
    JoinPred,
    OrGroup,
    SlotCodes,
    StepMemo,
    _merged,
)


def build(db_path, qdmr, choices, use_values=True, literals=None):
    """Synthesize ``qdmr`` with a hand-pinned assignment.

    ``choices`` maps "idx:phrase" to "table.column"; ``literals`` maps a
    literal to "table.column" (defaults to the value index's top match).
    A phrase slot ``choices`` leaves out stays unbound.
    """
    conn = open_readonly(db_path)
    try:
        schema = load_schema(conn)
        program = parse_qdmr(qdmr)
        index = ValueIndex(Database(conn), schema) if use_values else None
        plan = plan_bindings(program, index)
        slots = link_program(plan, schema, None, index, 1, {})
        pinned = {f"value:{k}": v for k, v in (literals or {}).items()}
        pinned.update(choices)
        columns = {}
        for slot, options in slots:
            spec = pinned.get(str(slot))
            if spec is not None:
                columns[slot] = schema.column(*spec.split(".", 1))
            elif slot.step is None:
                columns[slot] = options[0]
        query = synthesize(program, schema, Assignment(columns), plan)
        return query, render_sql(query)
    finally:
        conn.close()


def run(db_path, sql):
    """Every row of ``sql``, read through a plain read-only sqlite3
    connection: an oracle independent of ``Database.execute``, which reads
    a candidate only as far as its target answer."""
    conn = sqlite3.connect(f"file:{db_path}?mode=ro", uri=True)
    try:
        return Denotation.from_rows(conn.execute(sql))
    finally:
        conn.close()


class TestRuleGoldens:
    """One golden per mapping rule; strings written from the rule table."""

    def test_select_column(self, ship_death_db):
        _, sql = build(ship_death_db, "return ships", {"1:ships": "ship.id"})
        assert sql == "SELECT ship.id FROM ship"
        assert len(run(ship_death_db, sql)) == 6

    def test_select_value(self, geo_db):
        _, sql = build(geo_db, "return the mississippi", {})
        assert sql == (
            "SELECT river.river_name FROM river"
            " WHERE river.river_name = 'mississippi'"
        )
        assert run(geo_db, sql).rows == (("mississippi",),) * 7

    def test_filter_value(self, academic_db):
        _, sql = build(
            academic_db,
            "return papers; return #1 by H. V. Jagadish",
            {"1:papers": "publication.title"},
        )
        assert sql == (
            "SELECT publication.title FROM publication, author, writes"
            " WHERE writes.pid = publication.pid AND writes.aid = author.aid"
            " AND author.name = 'H. V. Jagadish'"
        )
        assert len(run(academic_db, sql)) == 14

    def test_project(self, ship_death_db):
        _, sql = build(
            ship_death_db,
            "return ships; return injuries of #1",
            {"1:ships": "ship.id", "2:injuries of": "death.injured"},
        )
        assert sql == (
            "SELECT death.injured FROM death, ship"
            " WHERE death.caused_by_ship_id = ship.id"
            " AND ship.id IN ( SELECT ship.id FROM ship )"
        )
        assert len(run(ship_death_db, sql)) == 12

    def test_aggregate(self, products_db):
        _, sql = build(
            products_db,
            "return product types; return the number of #1",
            {"1:product types": "products.product_type_code"},
        )
        assert sql == "SELECT COUNT(products.product_type_code) FROM products"
        assert run(products_db, sql).rows == ((6,),)

    def test_group(self, ship_death_db):
        _, sql = build(
            ship_death_db,
            "return ships; return injuries of #1; "
            "return number of #2 for each #1",
            {"1:ships": "ship.id", "2:injuries of": "death.injured"},
        )
        assert sql == (
            "SELECT COUNT(death.injured) FROM death, ship"
            " WHERE death.caused_by_ship_id = ship.id GROUP BY ship.id"
        )
        # ship 6's NULL injured row never reaches COUNT(death.injured).
        got = {r[0] for r in run(ship_death_db, sql).rows}
        assert got == {5, 2, 1}

    def test_group_avg_with_phrase_key(self, university_db):
        _, sql = build(
            university_db,
            "return universities; return the enrollment of #1; "
            "return the average of #2 for each affiliation",
            {
                "1:universities": "university.school",
                "2:the enrollment of": "university.enrollment",
                "3:affiliation": "university.affiliation",
            },
        )
        assert sql == (
            "SELECT AVG(university.enrollment) FROM university"
            " GROUP BY university.affiliation"
        )
        got = {r[0] for r in run(university_db, sql).rows}
        assert got == {21750.0, 6500.0}

    def test_group_with_phrase_value(self, ship_death_db):
        _, sql = build(
            ship_death_db,
            "return number of ship names for each ship type",
            {"1:ship names": "ship.name", "1:ship type": "ship.ship_type"},
        )
        assert sql == "SELECT COUNT(ship.name) FROM ship GROUP BY ship.ship_type"
        assert sorted(run(ship_death_db, sql).rows) == [(1,)] * 4 + [(2,)]

    def test_superlative(self, ship_death_db):
        _, sql = build(
            ship_death_db,
            "return ships; return injuries of #1; "
            "return number of #2 for each #1; return #1 where #3 is highest",
            {"1:ships": "ship.id", "2:injuries of": "death.injured"},
        )
        assert sql == (
            "SELECT ship.id FROM ship, death"
            " WHERE death.caused_by_ship_id = ship.id GROUP BY ship.id"
            " ORDER BY COUNT(death.injured) DESC LIMIT 1"
        )
        assert run(ship_death_db, sql).rows == ((3,),)

    def test_comparative(self, geo_db):
        _, sql = build(
            geo_db,
            "return states; return the population of #1; "
            "return #1 where #2 is more than 5000000",
            {
                "1:states": "state.state_name",
                "2:the population of": "state.population",
            },
        )
        assert sql == (
            "SELECT state.state_name FROM state"
            " WHERE state.population > 5000000"
        )
        got = {r[0] for r in run(geo_db, sql).rows}
        assert got == {"minnesota", "wisconsin", "illinois", "missouri", "texas"}

    def test_comparative_aggregate_target_uses_having(self, academic_db):
        _, sql = build(
            academic_db,
            "return authors; return papers of #1; return #2 in PVLDB; "
            "return number of #3 for each #1; "
            "return #1 where #4 is more than 10",
            {"1:authors": "author.name", "2:papers of": "publication.title"},
        )
        assert sql == (
            "SELECT author.name FROM author, publication, writes, journal"
            " WHERE writes.pid = publication.pid AND writes.aid = author.aid"
            " AND publication.jid = journal.jid AND journal.name = 'PVLDB'"
            " GROUP BY author.name HAVING COUNT(publication.title) > 10"
        )
        assert run(academic_db, sql).rows == (("H. V. Jagadish",),)

    def test_union(self, geo_db):
        _, sql = build(
            geo_db,
            "return states; return the population of #1; "
            "return #1 where #2 is more than 6000000; "
            "return #1 where #2 is less than 3100000; "
            "return #3 or #4",
            {
                "1:states": "state.state_name",
                "2:the population of": "state.population",
            },
        )
        assert sql == (
            "SELECT state.state_name FROM state"
            " WHERE ( state.population > 6000000"
            " OR state.population < 3100000 )"
        )
        got = {r[0] for r in run(geo_db, sql).rows}
        assert got == {"illinois", "missouri", "texas", "arkansas", "montana"}

    def test_union_spelled_both(self, geo_db):
        # "both #3 and #4" with no leading preposition is a UNION.
        _, sql = build(
            geo_db,
            "return states; return the population of #1; "
            "return #1 where #2 is more than 6000000; "
            "return #1 where #2 is less than 3100000; "
            "return both #3 and #4",
            {
                "1:states": "state.state_name",
                "2:the population of": "state.population",
            },
        )
        assert sql == (
            "SELECT state.state_name FROM state"
            " WHERE ( state.population > 6000000"
            " OR state.population < 3100000 )"
        )

    def test_union_column(self, geo_db):
        _, sql = build(
            geo_db,
            "return states; return the population of #1; "
            "return the area of #1; return #2 and #3",
            {
                "1:states": "state.state_name",
                "2:the population of": "state.population",
                "3:the area of": "state.area",
            },
        )
        assert sql == "SELECT state.population, state.area FROM state"
        result = run(geo_db, sql)
        assert len(result.rows[0]) == 2
        assert len(result) == 9

    def test_intersect(self, academic_db):
        _, sql = build(
            academic_db,
            "return papers; return #1 by H. V. Jagadish; "
            "return #1 by Yunyao Li; return titles in both #2 and #3",
            {"1:papers": "publication.title", "4:titles": "publication.title"},
        )
        assert sql == (
            "SELECT publication.title FROM publication, author, writes"
            " WHERE writes.pid = publication.pid AND writes.aid = author.aid"
            " AND author.name = 'H. V. Jagadish'"
            " AND publication.title IN"
            " ( SELECT publication.title FROM publication, author, writes"
            " WHERE writes.pid = publication.pid AND writes.aid = author.aid"
            " AND author.name = 'Yunyao Li' )"
        )
        got = {r[0] for r in run(academic_db, sql).rows}
        assert got == {"Structured Search", "Schema Matching Survey"}

    def test_intersect_without_head_uses_left_column(self, ship_death_db):
        _, sql = build(
            ship_death_db,
            "return ships; return deaths; return in both #1 and #2",
            {
                "1:ships": "death.caused_by_ship_id",
                "2:deaths": "death.caused_by_ship_id",
            },
        )
        assert sql == (
            "SELECT death.caused_by_ship_id FROM death"
            " WHERE death.caused_by_ship_id IN"
            " ( SELECT death.caused_by_ship_id FROM death )"
        )
        assert len(run(ship_death_db, sql)) == 12

    def test_bare_reference_repeats_its_query(self, ship_death_db):
        _, sql = build(ship_death_db, "return ships; return #1", {"1:ships": "ship.name"})
        assert sql == "SELECT ship.name FROM ship"

    def test_sort(self, geo_db):
        _, sql = build(
            geo_db,
            "return states; return the population of #1; "
            "return #1 sorted by #2",
            {
                "1:states": "state.state_name",
                "2:the population of": "state.population",
            },
        )
        assert sql == (
            "SELECT state.state_name FROM state ORDER BY state.population ASC"
        )
        rows = run(geo_db, sql).rows
        assert rows[0] == ("montana",)
        assert rows[-1] == ("texas",)

    def test_sort_descending(self, geo_db):
        _, sql = build(
            geo_db,
            "return states; return the population of #1; "
            "return #1 sorted by #2 in descending order",
            {
                "1:states": "state.state_name",
                "2:the population of": "state.population",
            },
        )
        assert sql.endswith("ORDER BY state.population DESC")
        assert run(geo_db, sql).rows[0] == ("texas",)

    def test_discard(self, geo_db):
        _, sql = build(
            geo_db,
            "return the mississippi; return states #1 run through; "
            "return states; return #3 besides #2",
            {
                "2:states run through": "state.state_name",
                "3:states": "state.state_name",
            },
        )
        assert sql == (
            "SELECT state.state_name FROM state"
            " WHERE state.state_name NOT IN"
            " ( SELECT state.state_name FROM state, river"
            " WHERE river.traverse = state.state_name"
            " AND river.river_name IN ( SELECT river.river_name FROM river"
            " WHERE river.river_name = 'mississippi' ) )"
        )
        got = {r[0] for r in run(geo_db, sql).rows}
        assert got == {"texas", "montana"}

    def test_arithmetic(self, ship_death_db):
        _, sql = build(
            ship_death_db,
            "return ships; return number of #1; return the tonnage of #1; "
            "return the highest of #3; return the sum of #2 and #4",
            {"1:ships": "ship.id", "3:the tonnage of": "ship.tonnage"},
        )
        assert sql == (
            "SELECT ( SELECT COUNT(ship.id) FROM ship )"
            " + ( SELECT MAX(ship.tonnage) FROM ship )"
        )
        assert run(ship_death_db, sql).rows == ((1206,),)


class TestMergeSemantics:
    def test_constructed_nested_subquery_is_kept(self, geo_db):
        # The nested IN a projection constructs stays, even when its
        # subquery has no predicates of its own.
        _, sql = build(
            geo_db,
            "return states; return the population of #1",
            {
                "1:states": "state.state_name",
                "2:the population of": "state.population",
            },
        )
        assert "state.state_name IN ( SELECT state.state_name FROM state )" in sql

    def test_inherited_bare_subquery_is_elided(self, ship_death_db):
        # Once a later step absorbs the conjuncts, a restriction-free IN
        # adds nothing and would diverge from the worked grouping SQL.
        _, sql = build(
            ship_death_db,
            "return ships; return injuries of #1; "
            "return number of #2 for each #1",
            {"1:ships": "ship.id", "2:injuries of": "death.injured"},
        )
        assert "IN" not in sql

    def test_restrictive_subquery_survives_inheritance(self, geo_db):
        _, sql = build(
            geo_db,
            "return the mississippi; return states #1 run through; "
            "return number of #2",
            {"2:states run through": "state.state_name"},
        )
        assert "river.river_name IN" in sql
        assert run(geo_db, sql).rows == ((7,),)

    def test_self_join_conflict_nests(self, academic_db):
        query, sql = build(
            academic_db,
            "return papers; return #1 by H. V. Jagadish; "
            "return #2 by Yunyao Li",
            {"1:papers": "publication.title"},
        )
        assert sql.count("author.name = 'Yunyao Li'") == 1
        assert sql.count("author.name = 'H. V. Jagadish'") == 1
        assert "publication.title IN ( SELECT publication.title" in sql
        # Conflicting equalities must live in different query levels.
        top_level = [p for p in query.where if isinstance(p, CmpPred)]
        assert len(top_level) == 1

    def test_self_join_denotation_is_intersection(
        self, academic_db
    ):
        from conftest import JAGADISH_TITLES, LI_TITLES

        _, sql = build(
            academic_db,
            "return papers; return #1 by H. V. Jagadish; "
            "return #2 by Yunyao Li",
            {"1:papers": "publication.title"},
        )
        got = {r[0] for r in run(academic_db, sql).rows}
        assert got == JAGADISH_TITLES & LI_TITLES

    def test_filters_on_distinct_columns_stay_inline(self, geo_db):
        _, sql = build(
            geo_db,
            "return the mississippi; return states #1 run through",
            {"2:states run through": "state.state_name"},
        )
        # One level: join + literal predicate conjoined, no second nesting
        # beyond the constructed subquery for the value selection.
        assert sql.startswith("SELECT state.state_name FROM state, river WHERE")

    def test_superlative_base_forces_nested_filter(self, ship_death_db):
        # Narrowing a LIMIT-carrying step inline would change its meaning.
        _, sql = build(
            ship_death_db,
            "return ships; return injuries of #1; "
            "return number of #2 for each #1; return #1 where #3 is highest; "
            "return the name of #4",
            {
                "1:ships": "ship.id",
                "2:injuries of": "death.injured",
                "5:the name of": "ship.name",
            },
        )
        assert "LIMIT 1 )" in sql
        assert set(run(ship_death_db, sql).rows) == {("HMS Trinidad",)}

    # A later step that copied the superlative's conjuncts without its
    # LIMIT counted or sorted every state.
    LARGEST = "return states; return the area of #1; return #1 where #2 is highest"
    AREA = {"1:states": "state.state_name", "2:the area of": "state.area"}
    LIMITED = (
        "state.state_name IN ( SELECT state.state_name FROM state "
        "ORDER BY state.area DESC LIMIT 1 )"
    )

    def test_aggregate_keeps_a_superlatives_limit(self, geo_db):
        _, sql = build(geo_db, self.LARGEST + "; return the number of #3", self.AREA)
        assert sql == f"SELECT COUNT(state.state_name) FROM state WHERE {self.LIMITED}"
        assert run(geo_db, sql).rows == ((1,),)

    def test_sort_keeps_a_superlatives_limit(self, geo_db):
        _, sql = build(geo_db, self.LARGEST + "; return #3 sorted by #2", self.AREA)
        assert sql == (
            f"SELECT state.state_name FROM state WHERE {self.LIMITED} "
            "ORDER BY state.area ASC"
        )
        assert run(geo_db, sql).rows == (("texas",),)


def nested_query(tonnage):
    """The number of ships whose id a subquery selects by ``tonnage``."""
    ship = ColExpr(ColumnRef("ship", "id"))
    heavy = CmpPred(ColExpr(ColumnRef("ship", "tonnage")), ">", tonnage)
    sub = SqlQuery(select=(ship,), from_tables=("ship",), where=(heavy,))
    return SqlQuery(
        select=(AggExpr("count", ship),), from_tables=("ship",), where=(InPred(ship, sub),)
    )


class TestImmutableTree:
    """Queries are frozen values: predicates, grouping and ordering hold
    expression objects, and merged conjuncts are deduplicated by value."""

    SUPERLATIVE = (
        "return ships; return injuries of #1; "
        "return number of #2 for each #1; return #1 where #3 is highest; "
        "return the name of #4"
    )
    CHOICES = {
        "1:ships": "ship.id",
        "2:injuries of": "death.injured",
        "5:the name of": "ship.name",
    }

    @staticmethod
    def _nodes(query):
        """Every query, predicate and expression reachable from ``query``."""
        stack, seen = [query], []
        while stack:
            node = stack.pop()
            seen.append(node)
            if isinstance(node, SqlQuery):
                stack.extend(node.select + node.where + node.having)
                stack.extend(x for x in (node.group_by,) if x is not None)
                stack.extend(node.order_by[:1] if node.order_by else ())
            elif isinstance(node, InPred):
                stack.extend([node.expr, node.query])
            elif isinstance(node, ArithExpr):
                stack.extend([node.left, node.right])
            elif isinstance(node, OrGroup):
                stack.extend(p for side in node.sides for p in side)
            elif isinstance(node, CmpPred):
                stack.append(node.expr)
            elif isinstance(node, AggExpr):
                stack.append(node.arg)
        return seen

    def test_nodes_are_frozen_hashable_and_typed(self, ship_death_db):
        query, _ = build(ship_death_db, self.SUPERLATIVE, self.CHOICES)
        nodes = self._nodes(query)
        kinds = {type(n) for n in nodes}
        assert {SqlQuery, InPred, JoinPred, AggExpr, ColExpr} <= kinds
        for node in nodes:
            hash(node)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, dataclasses.fields(node)[0].name, None)
            if isinstance(node, SqlQuery):
                assert all(isinstance(t, str) for t in node.from_tables)
                assert node.group_by is None or isinstance(node.group_by, ColExpr)
                if node.order_by:
                    assert isinstance(node.order_by[0], (ColExpr, AggExpr))
            elif isinstance(node, JoinPred):
                assert isinstance(node.left, ColumnRef)
                assert isinstance(node.right, ColumnRef)
            elif isinstance(node, (CmpPred, InPred)):
                assert isinstance(node.expr, (ColExpr, AggExpr))

    def test_same_build_is_the_same_value(self, ship_death_db):
        first, sql = build(ship_death_db, self.SUPERLATIVE, self.CHOICES)
        again, _ = build(ship_death_db, self.SUPERLATIVE, self.CHOICES)
        assert first == again and hash(first) == hash(again)
        assert render_sql(first, distinct=True) == sql.replace(
            "SELECT ", "SELECT DISTINCT ", 1
        )

    @pytest.mark.parametrize(
        "first, second", [("1", "1.0"), ("0.0", "-0.0"), ("0", "-0.0")]
    )
    def test_literals_that_render_differently_stay_apart(
        self, geo_db, first, second
    ):
        # 1 == 1.0 and 0.0 == -0.0 in Python, yet each pair renders two
        # different conjuncts, and the merge must keep both.
        _, sql = build(
            geo_db,
            "return states; return the population of #1; "
            f"return #1 where #2 is {first}; return #3 where #2 is {second}",
            {
                "1:states": "state.state_name",
                "2:the population of": "state.population",
            },
        )
        literals = [p.split(" = ")[1] for p in sql.split(" WHERE ")[1].split(" AND ")]
        assert literals == [first, second]

    def test_equal_values_merge(self, geo_db):
        _, sql = build(
            geo_db,
            "return states; return the population of #1; "
            "return #1 where #2 is 7; return #3 where #2 is 7",
            {
                "1:states": "state.state_name",
                "2:the population of": "state.population",
            },
        )
        assert sql.endswith("WHERE state.population = 7")

    def test_equal_queries_built_apart_hash_and_render_equal(self):
        first, second = nested_query(300), nested_query(300)
        assert first is not second
        render_sql(first)  # kept with ``first`` alone
        assert first == second and hash(first) == hash(second)
        for distinct in (False, True):
            assert render_sql(first, distinct) == render_sql(second, distinct)
        assert render_sql(first, distinct=True) == (
            "SELECT COUNT(DISTINCT ship.id) FROM ship WHERE ship.id IN"
            " ( SELECT ship.id FROM ship WHERE ship.tonnage > 300 )"
        )
        # A changed copy is rendered anew, not read from its source.
        assert render_sql(dataclasses.replace(first, limit=1)) == (
            render_sql(first) + " LIMIT 1"
        )

    def test_a_nested_where_tells_queries_apart(self):
        light, heavy = nested_query(300), nested_query(400)
        assert light != heavy
        assert render_sql(light) != render_sql(heavy)
        conjuncts = [light.where[0], heavy.where[0], nested_query(300).where[0]]
        assert _merged(conjuncts) == (light.where[0], heavy.where[0])

    def test_a_query_unpickled_under_another_hash_seed_finds_its_equal(self):
        """A query rendered, hashed and pickled in a process with another
        hash seed is found in a dict keyed by an equal query built here."""
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        code = (
            "import pickle, sys\n"
            "from qdmr2sql import render_sql\n"
            "from test_sqlgen import nested_query\n"
            "query = nested_query(300)\n"
            "render_sql(query), hash(query)\n"
            "sys.stdout.buffer.write(pickle.dumps((hash('seeded'), query)))\n"
        )
        paths = [Path(__file__).parent, Path(qdmr2sql.__file__).parents[1]]
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(map(str, paths))}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, check=True
        ).stdout
        their_hash, query = pickle.loads(out)
        assert their_hash != hash("seeded")
        fresh = nested_query(300)
        assert {fresh: "found"}.get(query) == "found"
        assert render_sql(query) == render_sql(fresh)

    def test_cmp_pred_equality_follows_rendering(self):
        col = ColExpr(ColumnRef("t", "c"))
        preds = [CmpPred(col, "=", v) for v in (1, 1.0, -0.0, 0.0, "1", True)]
        assert len(set(preds)) == len({p.render() for p in preds}) == 5


class TestRenderDetails:
    @staticmethod
    def _col(schema_db, table, column):
        return ColExpr(load_schema(schema_db).column(table, column))

    def test_distinct_prefix_on_plain_select(self, ship_death_db):
        q = SqlQuery(
            select=[self._col(ship_death_db, "ship", "name")],
            from_tables=["ship"],
        )
        assert render_sql(q, distinct=True) == "SELECT DISTINCT ship.name FROM ship"

    def test_distinct_moves_inside_aggregate(self, ship_death_db):
        q = SqlQuery(
            select=[AggExpr("count", self._col(ship_death_db, "ship", "name"))],
            from_tables=["ship"],
        )
        sql = render_sql(q, distinct=True)
        assert sql == "SELECT COUNT(DISTINCT ship.name) FROM ship"

    def test_no_trailing_semicolon(self, ship_death_db):
        _, sql = build(ship_death_db, "return ships", {"1:ships": "ship.id"})
        assert not sql.endswith(";")

    def test_string_literal_quoting(self):
        pred = CmpPred(ColExpr(ColumnRef("t", "c")), "=", "O'Brien")
        assert pred.render() == "t.c = 'O''Brien'"
        assert CmpPred(ColExpr(ColumnRef("t", "n")), ">", 10).render() == "t.n > 10"

    def test_clause_accessor(self, ship_death_db):
        query, _ = build(
            ship_death_db,
            "return ships; return injuries of #1",
            {"1:ships": "ship.id", "2:injuries of": "death.injured"},
        )
        assert set(query.from_tables) == {"ship", "death"}
        assert len(query.select) == 1
        assert query.where


class TestCountKey:
    """``count_key`` reads each plain COUNT of a column without nulls as
    ``COUNT(*)``, from the query tree, wherever the query counts."""

    @staticmethod
    def _counts(conn):
        """The columns of ``conn``'s tables that hold no null, by census."""
        schema = load_schema(conn)
        census = executor_module.kind_census(Database(conn), schema)
        return schema, frozenset(col for col, kinds in census.items() if type(None) not in kinds)

    @staticmethod
    def _key(query, null_free, distinct=False):
        return sqlgen.count_key(query, distinct, render_sql(query, distinct), null_free)

    @pytest.fixture()
    def conn(self):
        conn = sqlite3.connect(":memory:")
        conn.executescript("""
            CREATE TABLE t (a TEXT, b INTEGER, c TEXT);
            INSERT INTO t VALUES ('x', 1, 'COUNT(t.a)'), ('y', NULL, 'z'), ('y', 3, 'z');
            CREATE TABLE "my t" ("my col" TEXT);
            INSERT INTO "my t" VALUES ('p'), ('q');
        """)
        yield conn
        conn.close()

    def test_a_column_holding_a_null_keeps_its_count(self, conn):
        schema, null_free = self._counts(conn)
        a, b, c = (schema.column("t", name) for name in "abc")
        assert null_free == {a, c, schema.column("my t", "my col")}

        def count(col):
            return SqlQuery(select=(AggExpr("count", ColExpr(col)),), from_tables=("t",))

        assert self._key(count(a), null_free) == self._key(count(c), null_free) == (
            "SELECT COUNT(*) FROM t"
        )
        assert self._key(count(b), null_free) is None
        rows = [conn.execute(render_sql(count(col))).fetchall() for col in (a, b, c)]
        assert rows == [[(3,)], [(2,)], [(3,)]]

    def test_a_literal_that_spells_a_count_stays_a_literal(self, conn):
        schema, null_free = self._counts(conn)
        a, c = schema.column("t", "a"), schema.column("t", "c")

        def counted(spelled):
            return SqlQuery(select=(AggExpr("count", ColExpr(c)),), from_tables=("t",),
                            where=(CmpPred(ColExpr(c), "=", spelled),))

        # Read as text, both literals would become 'COUNT(*)', and the two
        # queries, which count other rows, one key.
        real, other = counted("COUNT(t.a)"), counted("COUNT(t.c)")
        assert self._key(real, null_free) == "SELECT COUNT(*) FROM t WHERE t.c = 'COUNT(t.a)'"
        assert self._key(other, null_free) == "SELECT COUNT(*) FROM t WHERE t.c = 'COUNT(t.c)'"
        assert [conn.execute(render_sql(q)).fetchall() for q in (real, other)] == [
            [(1,)], [(0,)]
        ]
        # A literal alone is no COUNT.
        plain = SqlQuery(select=(ColExpr(a),), from_tables=("t",),
                         where=(CmpPred(ColExpr(c), "=", "COUNT(t.a)"),))
        assert self._key(plain, null_free) is None

    def test_distinct_counts_are_never_merged(self, conn):
        schema, null_free = self._counts(conn)
        a, c = schema.column("t", "a"), schema.column("t", "c")
        query = SqlQuery(select=(AggExpr("count", ColExpr(a)),), from_tables=("t",))
        assert self._key(query, null_free, distinct=True) is None
        # Under the flag DISTINCT sits in the select list alone, so a COUNT
        # in HAVING still counts rows.
        grouped = SqlQuery(
            select=(AggExpr("count", ColExpr(a)),), from_tables=("t",), group_by=ColExpr(c),
            having=(CmpPred(AggExpr("count", ColExpr(a)), ">", 1),),
        )
        assert self._key(grouped, null_free, distinct=True) == (
            "SELECT COUNT(DISTINCT t.a) FROM t GROUP BY t.c HAVING COUNT(*) > 1"
        )
        assert self._key(grouped, null_free) == (
            "SELECT COUNT(*) FROM t GROUP BY t.c HAVING COUNT(*) > 1"
        )

    def test_counts_in_having_order_by_and_subqueries(self, conn):
        schema, null_free = self._counts(conn)
        a, c = ColExpr(schema.column("t", "a")), ColExpr(schema.column("t", "c"))
        count_c = AggExpr("count", c)
        having = SqlQuery(select=(a,), from_tables=("t",), group_by=a,
                          having=(CmpPred(count_c, ">", 1),))
        assert self._key(having, null_free) == (
            "SELECT t.a FROM t GROUP BY t.a HAVING COUNT(*) > 1"
        )
        top = SqlQuery(select=(a,), from_tables=("t",), group_by=a,
                       order_by=(count_c, "DESC"), limit=1)
        assert self._key(top, null_free) == (
            "SELECT t.a FROM t GROUP BY t.a ORDER BY COUNT(*) DESC LIMIT 1"
        )
        # A DISTINCT try without aggregates: its ORDER BY COUNT counts rows.
        assert self._key(top, null_free, distinct=True) == (
            "SELECT DISTINCT t.a FROM t GROUP BY t.a ORDER BY COUNT(*) DESC LIMIT 1"
        )
        nested = SqlQuery(select=(c,), from_tables=("t",),
                          where=(OrGroup(((InPred(a, top),), (CmpPred(c, "=", "z"),))),))
        assert self._key(nested, null_free) == (
            "SELECT t.c FROM t WHERE ( t.a IN ( SELECT t.a FROM t GROUP BY t.a"
            " ORDER BY COUNT(*) DESC LIMIT 1 ) OR t.c = 'z' )"
        )
        # The subquery keeps its own text; only the key is written anew.
        assert render_sql(top) == (
            "SELECT t.a FROM t GROUP BY t.a ORDER BY COUNT(t.c) DESC LIMIT 1"
        )

    def test_quoted_identifier_with_a_space(self, conn):
        schema, null_free = self._counts(conn)
        col = ColExpr(schema.column("my t", "my col"))
        query = SqlQuery(select=(AggExpr("count", col),), from_tables=("my t",),
                         where=(CmpPred(col, "!=", "q"),))
        assert render_sql(query) == (
            'SELECT COUNT("my t"."my col") FROM "my t" WHERE "my t"."my col" != \'q\''
        )
        assert self._key(query, null_free) == (
            'SELECT COUNT(*) FROM "my t" WHERE "my t"."my col" != \'q\''
        )
        assert conn.execute(self._key(query, null_free)).fetchall() == (
            conn.execute(render_sql(query)).fetchall()
        )

    def test_a_query_without_count_gets_no_key(self, conn):
        schema, null_free = self._counts(conn)
        a, b = ColExpr(schema.column("t", "a")), ColExpr(schema.column("t", "b"))
        for query in (
            SqlQuery(select=(a,), from_tables=("t",)),
            SqlQuery(select=(AggExpr("sum", b),), from_tables=("t",), group_by=a,
                     order_by=(AggExpr("max", b), "DESC"), limit=1),
        ):
            for distinct in (False, True):
                assert self._key(query, null_free, distinct) is None


    @pytest.mark.parametrize("in_or_group", [False, True])
    def test_a_query_nested_as_deep_as_renders_is_keyed(self, in_or_group):
        """The walk recurses no deeper a level than rendering, so a try
        whose statement rendered gets its key, not a RecursionError."""
        a, b = ColExpr(ColumnRef("t", "a")), ColExpr(ColumnRef("t", "b"))

        def chain(depth):
            query = SqlQuery(select=(a,), from_tables=("t",), group_by=a,
                             order_by=(AggExpr("count", b), "DESC"), limit=1)
            for _ in range(depth):
                pred = InPred(a, query)
                if in_or_group:
                    pred = OrGroup(((pred,), (CmpPred(a, "=", 1),)))
                query = SqlQuery(select=(a,), from_tables=("t",), where=(pred,))
            return query

        deepest, past = 1, 4 * sys.getrecursionlimit()
        while deepest + 1 < past:  # the deepest chain that renders
            depth = (deepest + past) // 2
            try:
                render_sql(chain(depth))
                deepest = depth
            except SqlBuildError:
                past = depth
        # Two levels short of it, as the key's own text is rendered a few
        # frames deeper than the try's; a walk that took more frames a
        # level than rendering would fail a hundred levels short.
        query = chain(deepest - 2)
        sql = render_sql(query)
        key = sqlgen.count_key(query, False, sql, frozenset([a.col, b.col]))
        assert key == sql.replace("COUNT(t.b)", "COUNT(*)")

    def test_a_lone_count_keeps_the_clauses_text_as_the_walk_writes_them(self, conn):
        schema, null_free = self._counts(conn)
        a, c = ColExpr(schema.column("t", "a")), ColExpr(schema.column("t", "c"))
        top = SqlQuery(select=(a,), from_tables=("t",), group_by=a,
                       order_by=(AggExpr("count", c), "DESC"), limit=1)
        for where in (
            (CmpPred(c, "=", "z"),),
            (CmpPred(c, "=", "COUNT(t.a)"),),  # one more COUNT( in the text: walked
            (InPred(a, top),),  # a nested COUNT: walked
        ):
            query = SqlQuery(select=(AggExpr("count", a),), from_tables=("t",), where=where)
            walked = sqlgen._rows_counted(query, null_free)
            assert walked is not query
            assert self._key(query, null_free) == render_sql(walked)


class TestLiteralSpelling:
    @pytest.mark.parametrize("code", ["1e5", "2E3", "-1e2"])
    def test_literal_is_spelled_as_the_index_found_it(self, tmp_path, code):
        # The value index found the text in a TEXT column; read as a number
        # (100000.0), it would match no row of that column.
        path = tmp_path / "items.sqlite"
        build_db(
            path,
            "CREATE TABLE item (id INTEGER PRIMARY KEY, code TEXT, name TEXT);"
            f"INSERT INTO item VALUES (1, '{code}', 'widget'), (2, 'abc', 'gadget');",
        )
        _, sql = build(
            path,
            f"return items; return #1 with code {code}; return the name of #2",
            {"1:items": "item.id", "3:the name of": "item.name"},
        )
        assert f"item.code = '{code}'" in sql
        assert run(path, sql).rows == (("widget",),)

class TestFailures:
    def test_arithmetic_over_non_scalar(self, ship_death_db):
        with pytest.raises(ArityMismatch):
            build(
                ship_death_db,
                "return ships; return the tonnage of #1; "
                "return the sum of #1 and #2",
                {"1:ships": "ship.id", "2:the tonnage of": "ship.tonnage"},
            )

    def test_intersect_without_head_over_aggregate(self, ship_death_db):
        with pytest.raises(ArityMismatch, match="no head column"):
            build(
                ship_death_db,
                "return ships; return number of #1; return in both #2 and #1",
                {"1:ships": "ship.id"},
            )

    def test_unbound_phrase(self, ship_death_db):
        # A filter tail that matches neither a literal nor a column binding.
        with pytest.raises(UnboundPhrase):
            build(
                ship_death_db,
                "return ships; return #1 from the northern fleet",
                {"1:ships": "ship.id"},
                use_values=True,
            )

    def test_unbound_phrase_is_named(self, ship_death_db):
        with pytest.raises(UnboundPhrase, match="step 2 .* 'injuries of'"):
            build(
                ship_death_db,
                "return ships; return injuries of #1",
                {"1:ships": "ship.id"},
            )

    def test_disconnected_tables(self):
        from test_joinpath import make_schema

        schema = make_schema(3, [(1, 0)])
        program = parse_qdmr("return alpha; return betas of #1")
        plan = plan_bindings(program, None)
        assignment = Assignment(
            {
                Slot(1, "alpha"): schema.column("t0", "id"),
                Slot(2, "betas of"): schema.column("t2", "id"),
            }
        )
        with pytest.raises(MissingJoin):
            synthesize(program, schema, assignment, plan)


# Decompositions whose steps, together, take every rule of ``sqlgen._RULES``,
# over the phrases "a", "b" and "c" and the literals "red" and "blue".  The
# second filters one column by two literals, the self-join case.
_EVERY_RULE = [
    "return a; return b of #1; return the number of #2",
    "return a that is red; return #1 that is blue; return b of #2",
    "return a; return b of #1; return the number of #2 for each #1;"
    " return #1 where #3 is at least 2",
    "return a; return b of #1; return #1 where #2 is highest; return c of #3",
    "return a; return b of #1; return #1 where #2 is more than 5;"
    " return #1 where #2 is less than 3; return #3 or #4",
    "return a; return b of #1; return c of #1; return #2 and #3",
    "return a; return #1 that is red; return #1 that is blue; return c in both #2 and #3",
    "return a; return b of #1; return #1 sorted by #2 in descending order",
    "return a; return #1 that is red; return #1 besides #2",
    "return a; return number of #1; return the b of #1; return the highest of #3;"
    " return the sum of #2 and #4",
    "return the number of a for each b",
]


class _RedAndBlue:
    """A value index in which "red" and "blue" are the only cells."""

    def columns_containing(self, text):
        return text in ("red", "blue")


def _mapped_or_error(*args):
    try:
        return synthesize(*args)
    except Qdmr2SqlError as exc:
        return exc


def _aggregated(query):
    """A stand-in for the search's decision by kind: it reads the select list."""
    return isinstance(query.select[0], AggExpr)


def _two_islands(rng, n_tables):
    """A random schema of two parts that no foreign key joins, each with
    occasional extra and parallel edges, so some tables cannot be joined."""
    cut = rng.randint(1, n_tables - 1)
    edges = []
    for low, high in ((0, cut), (cut, n_tables)):
        edges += [(i, rng.randrange(low, i)) for i in range(low + 1, high)]
        for _ in range(rng.randrange(high - low + 1)):
            a, b = rng.randrange(low, high), rng.randrange(low, high)
            if a != b:
                edges.append((a, b))
    return make_schema(n_tables, edges)


# What a decision by kind may read: every clause but WHERE.
_HEAD = ("select", "from_tables", "group_by", "having", "order_by", "limit")


class TestPatternMemo:
    def test_the_decompositions_take_every_rule(self):
        kinds = {step.operator.kind for text in _EVERY_RULE for step in parse_qdmr(text).steps}
        assert kinds == set(sqlgen._RULES)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_kept_patterns_map_as_fresh_ones(self, seed, data):
        """Over drawn schemas, some with parallel foreign keys or tables
        that no path joins, and runs of assignments whose slots share
        columns and take parallel anchors, one memo maps each assignment
        to the query a fresh mapping gives, under ``==``, ``hash`` and
        ``render_sql``, or fails with the same error and message.  With
        ``decide``, a kept pattern asks it of the query's clauses but
        WHERE, and None comes back exactly when it holds."""
        rng = random.Random(seed)
        build = data.draw(st.sampled_from([random_schema, _two_islands]))
        schema = build(rng, rng.randint(2, 6))
        event("parallel edges" if schema.parallel_columns else "no parallel edges")
        program = parse_qdmr(data.draw(st.sampled_from(_EVERY_RULE)))
        for step in program.steps:
            event(step.operator.kind.name)
        plan = plan_bindings(program, _RedAndBlue())
        slots = list(dict.fromkeys(slot for own in plan.slots.values() for slot in own))
        columns = schema.columns()
        parallel = sorted(schema.parallel_columns, key=str)
        codes = SlotCodes([(slot, tuple(columns)) for slot in slots], schema)
        memo = StepMemo({}, {}, codes, {})
        asked = []

        def decide(query):
            asked.append(query)
            return _aggregated(query)

        for _ in range(data.draw(st.integers(2, 10))):
            chosen = {}
            for slot in slots:
                how = data.draw(st.sampled_from(["any", "shared", "parallel"]))
                if how == "shared" and chosen:
                    chosen[slot] = data.draw(st.sampled_from(list(chosen.values())))
                elif how == "parallel" and parallel:
                    chosen[slot] = data.draw(st.sampled_from(parallel))
                else:
                    chosen[slot] = data.draw(st.sampled_from(columns))
            assignment = Assignment(chosen)
            hit = codes.key(assignment)[0] in memo.patterns
            event("pattern kept" if hit else "new pattern")
            fresh = _mapped_or_error(program, schema, assignment, plan)
            deciding = data.draw(st.booleans())
            del asked[:]
            kept = _mapped_or_error(
                program, schema, assignment, plan, memo, decide if deciding else None
            )
            if isinstance(fresh, Qdmr2SqlError):
                event(f"fails: {type(fresh).__name__}")
                assert (type(kept), str(kept)) == (type(fresh), str(fresh))
                continue
            assert bool(asked) == (deciding and hit)
            if kept is None:
                assert asked and _aggregated(fresh)
                assert [getattr(asked[0], f) for f in _HEAD] == [getattr(fresh, f) for f in _HEAD]
                continue
            assert not (asked and _aggregated(fresh))
            assert kept == fresh
            assert hash(kept) == hash(fresh)
            assert render_sql(kept) == render_sql(fresh)

    def test_a_pattern_nested_too_deeply_to_walk_is_mapped_afresh(self):
        """A thousand nested projections map without recursion, but a
        swap would walk them recursively; that pattern is mapped afresh."""
        schema = qdmr2sql.load_schema(
            {"tables": {"t": {"x": "INTEGER", "y": "INTEGER"}}, "foreign_keys": {}}
        )
        steps = ["return a"] + [f"return b of #{i}" for i in range(1, 1000)]
        program = parse_qdmr("; ".join(steps))
        plan = plan_bindings(program, None)
        slots = [slot for own in plan.slots.values() for slot in own]
        columns = schema.columns()
        codes = SlotCodes([(slot, tuple(columns)) for slot in slots], schema)
        memo = StepMemo({}, {}, codes, {})
        first, second = (Assignment(dict.fromkeys(slots, col)) for col in columns)
        assert codes.key(first)[0] == codes.key(second)[0]
        synthesize(program, schema, first, plan, memo)
        kept = synthesize(program, schema, second, plan, memo)
        fresh = synthesize(program, schema, second, plan)
        assert (kept.select, kept.from_tables) == (fresh.select, fresh.from_tables)
        assert memo.patterns[codes.key(second)[0]].query is kept  # kept in its place
