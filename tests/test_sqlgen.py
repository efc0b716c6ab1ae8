"""Per-operator SQL construction goldens and merge semantics.

Each mapping rule gets a symbolic instantiation on a fixture schema with
a pinned assignment; the expected SQL is written out by hand from the
rule template, and every golden also has to execute.  Merge behavior
(inline vs nested, redundant-subquery elision, self-join resolution) is
covered separately.
"""

import dataclasses

import pytest

from qdmr2sql import (
    Assignment,
    ArityMismatch,
    Database,
    MissingJoin,
    SqlQuery,
    UnboundPhrase,
    ValueIndex,
    load_schema,
    open_readonly,
    parse_qdmr,
    plan_bindings,
    render_sql,
    synthesize,
)
from qdmr2sql.schema import ColumnRef
from qdmr2sql.search import heuristic_distinct
from qdmr2sql.sqlgen import (
    AggExpr,
    ArithExpr,
    ColExpr,
    CmpPred,
    InPred,
    JoinPred,
    OrGroup,
)


def build(db_path, qdmr, choices, use_values=True, literals=None):
    """Synthesize ``qdmr`` with a hand-pinned assignment.

    ``choices`` maps "idx:phrase" to "table.column"; ``literals`` maps a
    literal to "table.column" (defaults to the value index's top match).
    """
    conn = open_readonly(db_path)
    try:
        schema = load_schema(conn)
        program = parse_qdmr(qdmr)
        index = ValueIndex(conn, schema) if use_values else None
        plan = plan_bindings(program, index)
        picked = {}
        for key, spec in choices.items():
            idx, phrase = key.split(":", 1)
            table, column = spec.split(".", 1)
            picked[(int(idx), phrase)] = schema.column(table, column)
        literal_choices = {}
        for literal, cols in plan.literal_candidates.items():
            if literals and literal in literals:
                table, column = literals[literal].split(".", 1)
                literal_choices[literal] = schema.column(table, column)
            else:
                literal_choices[literal] = cols[0]
        assignment = Assignment(
            choices=picked, literal_choices=literal_choices
        )
        query = synthesize(program, schema, assignment, plan)
        return query, render_sql(query)
    finally:
        conn.close()


def run(db_path, sql):
    with Database.open(db_path) as db:
        return db.execute(sql)


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
        assert heuristic_distinct(first) != first
        assert render_sql(heuristic_distinct(first)) == sql.replace(
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
            distinct=True,
        )
        assert render_sql(q) == "SELECT DISTINCT ship.name FROM ship"

    def test_distinct_moves_inside_aggregate(self, ship_death_db):
        q = SqlQuery(
            select=[AggExpr("count", self._col(ship_death_db, "ship", "name"))],
            from_tables=["ship"],
            distinct=True,
        )
        assert render_sql(q) == "SELECT COUNT(DISTINCT ship.name) FROM ship"

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


class TestFailures:
    def test_arithmetic_over_non_scalar(self, ship_death_db):
        with pytest.raises(ArityMismatch):
            build(
                ship_death_db,
                "return ships; return the tonnage of #1; "
                "return the sum of #1 and #2",
                {"1:ships": "ship.id", "2:the tonnage of": "ship.tonnage"},
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

    def test_disconnected_tables(self):
        from test_joinpath import make_schema

        schema = make_schema(3, [(1, 0)])
        program = parse_qdmr("return alpha; return betas of #1")
        plan = plan_bindings(program)
        assignment = Assignment(
            choices={
                (1, "alpha"): schema.column("t0", "id"),
                (2, "betas of"): schema.column("t2", "id"),
            },
            literal_choices={},
        )
        with pytest.raises(MissingJoin):
            synthesize(program, schema, assignment, plan)
