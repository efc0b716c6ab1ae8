"""Phrase-to-column linking and best-first assignment enumeration.

Similarity goldens use a two-dimensional lexicon whose cosines follow
from plain trigonometry, so expected scores are computed by hand and the
code has to reproduce them.  Ranking goldens over the fixture databases
use the checked-in mini vector file.
"""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA_DIR
from qdmr2sql import (
    EmbeddingLexicon,
    UnreadableDatabase,
    ValueIndex,
    enumerate_assignments,
    link_program,
    load_examples,
    open_readonly,
    parse_qdmr,
    phrase_column_similarity,
    plan_bindings,
    rank_columns,
    load_schema,
)
from qdmr2sql.linking import LinkCandidate, PhraseLinking
from qdmr2sql.schema import ColumnRef


def write_lexicon(tmp_path, rows):
    path = tmp_path / "vectors.txt"
    path.write_text("".join(f"{t} {a} {b}\n" for t, a, b in rows))
    return path


class TestLexicon:
    def test_load_and_cosine(self, tmp_path):
        # (1,0) vs (0.6,0.8): cosine = 0.6 exactly.
        path = write_lexicon(
            tmp_path, [("ship", 1.0, 0.0), ("boat", 0.6, 0.8)]
        )
        lex = EmbeddingLexicon.load(path)
        assert len(lex) == 2
        assert "ship" in lex
        assert lex.cosine("ship", "boat") == pytest.approx(0.6)
        assert lex.cosine("ship", "ship") == pytest.approx(1.0)

    def test_unknown_token_scores_zero(self, tmp_path):
        lex = EmbeddingLexicon.load(write_lexicon(tmp_path, [("ship", 1.0, 0.0)]))
        assert lex.cosine("ship", "ghost") == 0.0
        assert lex.cosine("ghost", "wraith") == 0.0

    def test_zero_vector_scores_zero(self, tmp_path):
        lex = EmbeddingLexicon.load(
            write_lexicon(tmp_path, [("a", 0.0, 0.0), ("b", 1.0, 0.0)])
        )
        assert lex.cosine("a", "b") == 0.0

    def test_inconsistent_width_rejected(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("a 1.0 2.0\nb 1.0\n")
        with pytest.raises(UnreadableDatabase):
            EmbeddingLexicon.load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(UnreadableDatabase):
            EmbeddingLexicon.load(tmp_path / "absent.txt")

    def test_mini_file_loads(self, lexicon):
        assert len(lexicon) == 43
        assert "ship" in lexicon


class TestSimilarity:
    def test_mean_pairwise_by_hand(self, tmp_path):
        # cos(a,c)=1, cos(a,d)=0, cos(b,c)=0.6, cos(b,d)=0.8
        # mean over {a,b} x {c,d} = (1 + 0 + 0.6 + 0.8) / 4 = 0.6
        lex = EmbeddingLexicon.load(
            write_lexicon(
                tmp_path,
                [("a", 1.0, 0.0), ("b", 0.6, 0.8), ("c", 1.0, 0.0), ("d", 0.0, 1.0)],
            )
        )
        got = phrase_column_similarity(lex, ("a", "b"), ("c", "d"))
        assert got == pytest.approx(0.6)

    def test_empty_sides(self, tmp_path):
        lex = EmbeddingLexicon.load(write_lexicon(tmp_path, [("a", 1.0, 0.0)]))
        assert phrase_column_similarity(lex, (), ("a",)) == 0.0
        assert phrase_column_similarity(lex, ("a",), ()) == 0.0

    def test_empty_lexicon_scores_zero(self):
        lex = EmbeddingLexicon.empty()
        assert phrase_column_similarity(lex, ("a",), ("b",)) == 0.0


class TestRankColumns:
    def test_tier1_exact_lemma_set(self, ship_death_db, lexicon):
        schema = load_schema(ship_death_db)
        top = rank_columns("the name", schema, lexicon)[0]
        assert top.tier == 1
        assert str(top.column) == "ship.name"

    def test_tier1_beats_higher_similarity_in_lower_tier(self, geo_db, lexicon):
        schema = load_schema(geo_db)
        ranked = rank_columns("the population", schema, lexicon)
        assert str(ranked[0].column) == "state.population"
        assert ranked[0].tier == 1
        assert all(c.tier > 1 for c in ranked[1:])

    def test_tier2_overlap_ordering(self, ship_death_db, lexicon):
        schema = load_schema(ship_death_db)
        ranked = rank_columns("ships", schema, lexicon)
        assert [str(c.column) for c in ranked[:2]] == ["ship.id", "ship.name"]
        assert ranked[0].tier == 2

    def test_tier3_similarity_only(self, ship_death_db, lexicon):
        schema = load_schema(ship_death_db)
        ranked = rank_columns("injuries", schema, lexicon)
        assert str(ranked[0].column) == "death.injured"
        assert ranked[0].tier == 3
        assert ranked[0].similarity > ranked[1].similarity

    def test_without_lexicon_order_is_tier_then_name(self, ship_death_db):
        schema = load_schema(ship_death_db)
        ranked = rank_columns("ships", schema)
        # All similarities collapse to zero; tier then (table, column) rules.
        assert ranked[0].column.table == "ship" or ranked[0].tier <= 2
        sims = {c.similarity for c in ranked}
        assert sims == {0.0}

    def test_rank_field_matches_position(self, products_db, lexicon):
        schema = load_schema(products_db)
        ranked = rank_columns("product types", schema, lexicon)
        assert [c.rank for c in ranked] == list(range(len(ranked)))
        assert [str(c.column) for c in ranked] == [
            "products.product_type_code",
            "products.product_id",
            "products.product_name",
        ]

    def test_top_k_truncates(self, geo_db, lexicon):
        schema = load_schema(geo_db)
        assert len(rank_columns("states", schema, lexicon, top_k=2)) == 2

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_below_one_is_rejected(self, geo_db, lexicon, top_k):
        schema = load_schema(geo_db)
        with pytest.raises(ValueError, match="top_k must be at least 1"):
            rank_columns("states", schema, lexicon, top_k=top_k)

    def test_voting_ranking(self, voting_record_db, lexicon):
        schema = load_schema(voting_record_db)
        ranked = rank_columns("students with treasurer votes", schema, lexicon)
        assert [str(c.column) for c in ranked] == [
            "student.stuid",
            "voting_record.treasurer_vote",
            "voting_record.stuid",
            "student.major",
        ]


def col(table, column):
    return ColumnRef(
        table=table, column=column, value_kind="text",
        own_lemmas=(column,), lemmas=(table, column),
    )


def linking(idx, phrase, cols):
    return PhraseLinking(
        step_index=idx,
        phrase=phrase,
        candidates=tuple(
            LinkCandidate(column=c, tier=3, similarity=0.0, rank=i)
            for i, c in enumerate(cols)
        ),
    )


class TestEnumerateAssignments:
    A = [col("t", "a0"), col("t", "a1"), col("t", "a2")]
    B = [col("t", "b0"), col("t", "b1"), col("t", "b2")]

    def test_best_first_with_lexicographic_ties(self):
        slots = [linking(1, "x", self.A), linking(2, "y", self.B)]
        got = [a.ranks for a in enumerate_assignments(slots, {})]
        assert got[:6] == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
        assert len(got) == 9

    def test_rank_sums_nondecreasing(self):
        slots = [linking(1, "x", self.A), linking(2, "y", self.B)]
        sums = [sum(a.ranks) for a in enumerate_assignments(slots, {})]
        assert sums == sorted(sums)

    def test_every_combination_exactly_once(self):
        slots = [linking(1, "x", self.A), linking(2, "y", self.B)]
        got = [a.ranks for a in enumerate_assignments(slots, {})]
        assert sorted(got) == sorted(itertools.product(range(3), range(3)))

    def test_top_k_caps_each_slot(self):
        slots = [linking(1, "x", self.A), linking(2, "y", self.B)]
        got = list(enumerate_assignments(slots, {}, top_k=2))
        assert len(got) == 4

    def test_limit_stops_stream(self):
        slots = [linking(1, "x", self.A)]
        got = list(enumerate_assignments(slots, {}, limit=2))
        assert len(got) == 2

    def test_literal_slots_participate(self):
        slots = [linking(1, "x", self.A[:2])]
        literals = {"France": [col("country", "name"), col("city", "name")]}
        got = list(enumerate_assignments(slots, literals))
        assert len(got) == 4
        first = got[0]
        assert str(first.choices[(1, "x")]) == "t.a0"
        assert str(first.literal_choices["France"]) == "country.name"

    def test_empty_candidate_list_yields_nothing(self):
        slots = [linking(1, "x", self.A), linking(2, "y", [])]
        assert list(enumerate_assignments(slots, {})) == []

    def test_no_slots_yields_single_empty_assignment(self):
        got = list(enumerate_assignments([], {}))
        assert len(got) == 1
        assert got[0].choices == {}

    def test_describe_round_trip_keys(self):
        slots = [linking(2, "the majors", self.A[:1])]
        literals = {"PVLDB": [col("journal", "name")]}
        (assignment,) = enumerate_assignments(slots, literals)
        assert assignment.describe() == {
            "2:the majors": "t.a0",
            "value:PVLDB": "journal.name",
        }


@settings(max_examples=50)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
    top_k=st.integers(min_value=1, max_value=4),
)
def test_property_enumeration_is_exhaustive_and_sorted(sizes, top_k):
    slots = [
        linking(i + 1, f"p{i}", [col("t", f"c{i}_{j}") for j in range(n)])
        for i, n in enumerate(sizes)
    ]
    got = [a.ranks for a in enumerate_assignments(slots, {}, top_k=top_k)]
    expect = list(itertools.product(*(range(min(n, top_k)) for n in sizes)))
    assert sorted(got) == sorted(expect)
    sums = [sum(r) for r in got]
    assert sums == sorted(sums)


class TestPlanBindings:
    def test_phrase_slots_only_without_index(self):
        program = parse_qdmr(
            "return the mississippi; return states #1 run through; "
            "return the population of #2"
        )
        plan = plan_bindings(program)
        assert plan.phrase_slots == (
            (1, "select", "the mississippi"),
            (2, "project", "states run through"),
            (3, "project", "the population of"),
        )
        assert not plan.literal_candidates

    def test_select_literal_consumes_phrase_slot(self, geo_db):
        conn = open_readonly(geo_db)
        try:
            index = ValueIndex(conn, load_schema(conn))
            program = parse_qdmr(
                "return the mississippi; return states #1 run through; "
                "return the population of #2"
            )
            plan = plan_bindings(program, index)
            assert plan.step_literals == {1: ("mississippi",)}
            assert [str(c) for c in plan.literal_candidates["mississippi"]] == [
                "river.river_name"
            ]
            assert (1, "select", "the mississippi") not in plan.phrase_slots
            assert len(plan.phrase_slots) == 2
        finally:
            conn.close()

    def test_filter_tail_multiword_literal(self, academic_db):
        conn = open_readonly(academic_db)
        try:
            index = ValueIndex(conn, load_schema(conn))
            program = parse_qdmr(
                "return papers; return #1 by H. V. Jagadish; "
                "return #2 by Yunyao Li"
            )
            plan = plan_bindings(program, index)
            assert plan.step_literals == {
                2: ("H. V. Jagadish",),
                3: ("Yunyao Li",),
            }
            cols = plan.literal_candidates["H. V. Jagadish"]
            assert [str(c) for c in cols] == ["author.name"]
        finally:
            conn.close()

    def test_group_key_phrase_slot(self):
        program = parse_qdmr(
            "return universities; return the enrollment of #1; "
            "return the number of #2 for each affiliation"
        )
        plan = plan_bindings(program)
        assert (3, "group_key", "affiliation") in plan.phrase_slots


class TestLinkProgram:
    def test_linkings_follow_slots(self, geo_db, lexicon):
        conn = open_readonly(geo_db)
        try:
            schema = load_schema(conn)
            index = ValueIndex(conn, schema)
            program = parse_qdmr(
                "return the mississippi; return states #1 run through; "
                "return the population of #2"
            )
            plan, linkings = link_program(
                program, schema, lexicon, index, top_k=3
            )
            assert [l.phrase for l in linkings] == [
                "states run through", "the population of",
            ]
            assert str(linkings[0].candidates[0].column) == "state.state_name"
            assert all(len(l.candidates) <= 3 for l in linkings)
        finally:
            conn.close()

    def test_memo_rankings_equal_fresh_ones(self, db_dir, lexicon):
        """With one memo per database, every phrase slot of the fixture
        corpus gets the candidates a fresh ``rank_columns`` gives, and a
        repeated phrase gets the memo's own tuple back."""
        examples, _ = load_examples(DATA_DIR / "corpus.jsonl")
        reused = 0
        for db_id in dict.fromkeys(ex.db_id for ex in examples):
            conn = open_readonly(db_dir / f"{db_id}.sqlite")
            try:
                schema = load_schema(conn)
                index = ValueIndex(conn, schema)
                memo = {}
                for ex in examples:
                    if ex.db_id != db_id:
                        continue
                    seen = dict(memo)
                    _, linkings = link_program(
                        ex.program, schema, lexicon, index, rankings=memo
                    )
                    for l in linkings:
                        fresh = rank_columns(l.phrase, schema, lexicon, 20)
                        assert l.candidates == tuple(fresh)
                        assert l.candidates is memo[l.phrase]
                        if l.phrase in seen:
                            assert l.candidates is seen[l.phrase]
                            reused += 1
            finally:
                conn.close()
        assert reused
