"""Join path inference checked against a brute-force shortest-path oracle.

The oracle enumerates all simple paths between the endpoint sets with
depth-first search and takes the true minimum hop count.  The planner's
breadth-first result must always match that length, connect the endpoint
sets, and walk real declared edges.
"""

import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from qdmr2sql import (
    Assignment,
    DisconnectedTables,
    JoinPath,
    join_tables,
    load_schema,
    parse_qdmr,
    plan_bindings,
)
from qdmr2sql.errors import Qdmr2SqlError
from qdmr2sql.schema import SchemaGraph
from qdmr2sql.sqlgen import JoinPred, StepMemo, synthesize


def make_schema(n_tables, edges):
    """Build a schema of ``n_tables`` tables wired by ``edges``.

    ``edges`` is a list of (src_table_idx, dst_table_idx) pairs; each pair
    adds a fresh FK column on the source side pointing at the target's id.
    """
    tables = {f"t{i}": {"id": "INTEGER"} for i in range(n_tables)}
    fks = {}
    for k, (a, b) in enumerate(edges):
        col = f"ref{k}_t{b}"
        tables[f"t{a}"][col] = "INTEGER"
        fks[f"t{a}.{col}"] = f"t{b}.id"
    return load_schema({"tables": tables, "foreign_keys": fks})


def oracle_distance(schema, sources, targets):
    """True minimum hop count via exhaustive simple-path search."""
    adjacency = {t: set() for t in schema.tables}
    for e in schema.fks:
        adjacency[e.source.table].add(e.target.table)
        adjacency[e.target.table].add(e.source.table)
    best = None

    def walk(node, seen, depth):
        nonlocal best
        if node in targets:
            best = depth if best is None else min(best, depth)
            return
        if best is not None and depth >= best:
            return
        for nxt in adjacency[node]:
            if nxt not in seen:
                walk(nxt, seen | {nxt}, depth + 1)

    for start in sources:
        walk(start, {start}, 0)
    return best


def edge_pairs(path):
    """Each hop's foreign key as a (source, target) column pair."""
    return [(str(e.source), str(e.target)) for e in path.edges]


def check_path(schema, path, sources, targets):
    assert isinstance(path, JoinPath)
    assert path.tables[0] in sources
    assert path.tables[-1] in targets
    assert len(path.edges) == len(path.tables) - 1
    declared = {frozenset((e.source.table, e.target.table)) for e in schema.fks}
    for i, edge in enumerate(path.edges):
        hop = frozenset((path.tables[i], path.tables[i + 1]))
        assert frozenset((edge.source.table, edge.target.table)) == hop
        assert hop in declared


class TestBasics:
    def test_shared_table_gives_empty_path(self, ship_death_db):
        schema = load_schema(ship_death_db)
        path = join_tables(schema, {"ship"}, {"ship", "death"})
        assert path.tables == ("ship",)
        assert path.edges == ()

    def test_single_hop(self, ship_death_db):
        schema = load_schema(ship_death_db)
        path = join_tables(schema, {"death"}, {"ship"})
        assert path.tables == ("death", "ship")
        assert edge_pairs(path) == [("death.caused_by_ship_id", "ship.id")]

    def test_two_hops_through_bridge(self, academic_db):
        schema = load_schema(academic_db)
        path = join_tables(schema, {"author"}, {"publication"})
        assert path.tables == ("author", "writes", "publication")
        assert set(edge_pairs(path)) == {
            ("writes.aid", "author.aid"),
            ("writes.pid", "publication.pid"),
        }

    def test_disconnected(self):
        schema = make_schema(4, [(0, 1)])
        with pytest.raises(DisconnectedTables):
            join_tables(schema, {"t0"}, {"t2"})

    def test_unknown_table(self, ship_death_db):
        schema = load_schema(ship_death_db)
        with pytest.raises(DisconnectedTables):
            join_tables(schema, {"ship"}, {"ghost"})

    def test_empty_endpoint_set(self, ship_death_db):
        schema = load_schema(ship_death_db)
        with pytest.raises(ValueError):
            join_tables(schema, set(), {"ship"})


class TestParallelEdges:
    def test_anchor_column_picks_its_edge(self, voting_record_db):
        schema = load_schema(voting_record_db)
        vote_col = schema.column("voting_record", "treasurer_vote")
        major = schema.column("student", "major")
        path = join_tables(
            schema, {major.table}, {vote_col.table}, frozenset({major, vote_col})
        )
        assert edge_pairs(path) == [("voting_record.treasurer_vote", "student.stuid")]

    def test_other_anchor_picks_sibling_edge(self, voting_record_db):
        schema = load_schema(voting_record_db)
        stuid_col = schema.column("voting_record", "stuid")
        major = schema.column("student", "major")
        path = join_tables(
            schema, {major.table}, {stuid_col.table}, frozenset({major, stuid_col})
        )
        assert edge_pairs(path) == [("voting_record.stuid", "student.stuid")]

    def test_no_anchor_falls_back_to_first_declared(self, voting_record_db):
        schema = load_schema(voting_record_db)
        path = join_tables(schema, {"student"}, {"voting_record"})
        assert edge_pairs(path) == [("voting_record.stuid", "student.stuid")]


class TestDeterminism:
    def test_equal_length_paths_break_ties_stably(self):
        # Diamond: t0 - t1 - t3 and t0 - t2 - t3, both two hops.
        schema = make_schema(4, [(1, 0), (3, 1), (2, 0), (3, 2)])
        first = join_tables(schema, {"t0"}, {"t3"})
        for _ in range(5):
            assert join_tables(schema, {"t0"}, {"t3"}) == first
        # Smallest predecessor at every hop: the t1 branch.
        assert first.tables == ("t0", "t1", "t3")

    def test_closest_target_wins_then_name(self):
        schema = make_schema(4, [(1, 0), (2, 1), (3, 1)])
        # Targets at distances 2 (t2, t3): pick the smaller name.
        path = join_tables(schema, {"t0"}, {"t2", "t3"})
        assert path.tables[-1] == "t2"


def random_schema(rng, n_tables):
    """A connected random schema with occasional extra and parallel edges."""
    edges = []
    for i in range(1, n_tables):
        edges.append((i, rng.randrange(i)))
    for _ in range(rng.randrange(n_tables)):
        a, b = rng.randrange(n_tables), rng.randrange(n_tables)
        if a != b:
            edges.append((a, b))
    return make_schema(n_tables, edges)


class TestAgainstOracle:
    def test_hundred_random_schemas_optimal(self):
        rng = random.Random(13)
        for trial in range(100):
            n = rng.randint(2, 12)
            schema = random_schema(rng, n)
            names = list(schema.tables)
            sources = set(rng.sample(names, rng.randint(1, max(1, n // 3))))
            targets = set(rng.sample(names, rng.randint(1, max(1, n // 3))))
            expect = oracle_distance(schema, sources, targets)
            path = join_tables(schema, sources, targets)
            assert len(path.edges) == expect, f"trial {trial}"
            if sources & targets:
                assert path.edges == ()
            else:
                check_path(schema, path, sources, targets)

    def test_disconnected_random_schemas_raise(self):
        rng = random.Random(29)
        for _ in range(20):
            # Two islands wired independently; paths across must fail.
            n = rng.randint(4, 10)
            cut = n // 2
            edges = [(i, rng.randrange(i)) for i in range(1, cut)]
            edges += [(i, cut + rng.randrange(i - cut)) for i in range(cut + 1, n)]
            schema = make_schema(n, edges)
            with pytest.raises(DisconnectedTables):
                join_tables(schema, {"t0"}, {f"t{n - 1}"})


# Every step but the first joins tables: two projections, then both ends.
MAPPED = parse_qdmr("return a; return b of #1; return c of #2; return #1 and #3")


def _joined(query):
    """A mapped query's FROM tables and join conjuncts, or its error."""
    if isinstance(query, Qdmr2SqlError):
        return type(query), str(query)
    return query.from_tables, [p for p in query.where if isinstance(p, JoinPred)]


def _map(schema, assignment, plan, memo=None):
    try:
        return synthesize(MAPPED, schema, assignment, plan, memo)
    except Qdmr2SqlError as exc:
        return exc


class TestSharedJoinPathMemo:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_shared_memo_joins_as_a_fresh_one(self, seed, data):
        """Join paths are kept under the anchors that can pick a parallel
        edge only, so one memo shared by many mappings must join as a fresh
        memo per mapping does, on schemas with parallel edges too."""
        rng = random.Random(seed)
        schema = random_schema(rng, rng.randint(2, 6))
        event("parallel edges" if schema.parallel_columns else "no parallel edges")
        plan = plan_bindings(MAPPED, None)
        columns = st.sampled_from(schema.columns())
        paths = {}
        for _ in range(data.draw(st.integers(2, 8))):
            assignment = Assignment(
                {s: data.draw(columns) for own in plan.slots.values() for s in own}
            )
            # No steps kept: every step is mapped afresh, through the shared paths.
            memo = StepMemo({}, paths)
            shared = _joined(_map(schema, assignment, plan, memo))
            assert shared == _joined(_map(schema, assignment, plan))
        assert all(anchors <= schema.parallel_columns for _, _, anchors in paths)

    def test_parallel_columns(self, voting_record_db, ship_death_db):
        """Only the columns of keys that share their pair of tables."""
        voting = load_schema(voting_record_db)
        assert voting.parallel_columns == {
            voting.column("voting_record", "stuid"),
            voting.column("voting_record", "treasurer_vote"),
            voting.column("student", "stuid"),
        }
        assert load_schema(ship_death_db).parallel_columns == frozenset()
