"""Phrase-to-column linking and best-first assignment enumeration.

Similarity goldens use a two-dimensional lexicon whose cosines follow
from plain trigonometry, so expected scores are computed by hand and the
code has to reproduce them.  Ranking goldens over the fixture databases
use the checked-in mini vector file.
"""

import itertools
import math
import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA_DIR
from qdmr2sql import (
    Database,
    EmbeddingLexicon,
    FileUnreadable,
    SchemaError,
    Slot,
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
    render_sql,
    synthesize,
)
from qdmr2sql.schema import ColumnRef
from qdmr2sql.text import content_lemmas, tokenize


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
        with pytest.raises(FileUnreadable, match="inconsistent vector width"):
            EmbeddingLexicon.load(path)

    def test_non_number_rejected(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("a 1.0 2.0\nb 1.0 two\n")
        with pytest.raises(FileUnreadable, match="malformed embeddings .* on line 2:"):
            EmbeddingLexicon.load(path)

    def test_missing_file(self, tmp_path):
        # An unreadable vectors file is an input file problem, not a
        # database one.
        with pytest.raises(FileUnreadable) as info:
            EmbeddingLexicon.load(tmp_path / "absent.txt")
        assert not isinstance(info.value, SchemaError)

    @settings(max_examples=200, deadline=None)
    @given(pair=st.integers(1, 40).flatmap(lambda dim: st.tuples(*(
        st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim) for _ in "ab"
    ))))
    def test_cosine_sums_as_the_loop_does(self, pair):
        # The reference: the loops ``cosine`` and the norms once ran, which
        # sum the same products in the same order, so the results are equal
        # bit for bit.
        a, b = pair
        lex = EmbeddingLexicon({"a": tuple(a), "b": tuple(b)})
        na, nb = (math.sqrt(sum(x * x for x in v)) for v in (a, b))
        expected = 0.0 if not na or not nb else (
            sum(x * y for x, y in zip(a, b)) / (na * nb)
        )
        assert lex.cosine("a", "b") == expected

    def test_overflowing_norm_scores_as_its_direction(self, tmp_path):
        # Each value is finite, but 1e200 squared is not: the cosine is
        # taken of the vectors scaled down, never of an infinite norm.
        lex = EmbeddingLexicon.load(write_lexicon(tmp_path, [("a", 1e200, 0.0),
                                                             ("b", 1.0, 0.0)]))
        assert lex.cosine("a", "a") == 1.0
        assert lex.cosine("a", "b") == lex.cosine("b", "a") == 1.0

    def test_byte_order_mark_is_not_part_of_the_first_word(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("\ufeffship 1.0 0.0\nboat 0.6 0.8\n", encoding="utf-8")
        lex = EmbeddingLexicon.load(path)
        assert lex.cosine("ship", "boat") == pytest.approx(0.6)

    @pytest.mark.parametrize("text, number", [
        # Split at single spaces, a tab-separated line holds a word and no
        # vector; the file must not load as an empty lexicon.
        ("ship 1.0 0.0\nboat\t0.6\t0.8\n", 2),
        ("ship\n", 1),
    ])
    def test_line_without_vector_rejected_naming_its_number(
        self, tmp_path, text, number
    ):
        path = tmp_path / "vectors.txt"
        path.write_text(text)
        with pytest.raises(FileUnreadable, match=f"no vector on line {number} of"):
            EmbeddingLexicon.load(path)

    @pytest.mark.parametrize("ending", [" \n", "\r\n", " \t\r\n"])
    def test_trailing_whitespace_ignored(self, tmp_path, ending):
        path = tmp_path / "vectors.txt"
        path.write_bytes(f"ship 1.0 0.0{ending}boat 0.6 0.8{ending}".encode())
        lex = EmbeddingLexicon.load(path)
        assert lex.cosine("ship", "boat") == pytest.approx(0.6)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("\nship 1.0 0.0\n\n  \r\nboat 0.6 0.8\n\n")
        lex = EmbeddingLexicon.load(path)
        assert lex.cosine("ship", "boat") == pytest.approx(0.6)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_vector_rejected_naming_its_word(self, tmp_path, value):
        # A NaN cosine compares false both ways in the ranking's sort key.
        path = tmp_path / "vectors.txt"
        path.write_text(f"ship 1.0 0.0\nboat 0.6 {value}\n")
        with pytest.raises(FileUnreadable, match="non-finite vector for 'boat' on line 2"):
            EmbeddingLexicon.load(path)

    def test_vectors_are_held_packed(self, tmp_path):
        # 2000 words of width 100: a vector of Python floats keeps about 33
        # bytes per component, a packed one about 8 and its word's share.
        words, dim = 2000, 100
        rng = random.Random(0)
        path = tmp_path / "vectors.txt"
        path.write_text("".join(
            f"w{i} " + " ".join(f"{rng.gauss(0, 0.4):.5f}" for _ in range(dim)) + "\n"
            for i in range(words)
        ))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            lex = EmbeddingLexicon.load(path)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert lex.cosine("w0", "w0") == pytest.approx(1.0)
        assert retained / (words * dim) < 16

    def test_mini_file_loads(self, lexicon):
        # Every one of the file's 43 tokens has a nonzero vector.
        tokens = [
            line.split()[0]
            for line in (DATA_DIR / "mini_glove.txt").read_text().splitlines()
        ]
        assert len(set(tokens)) == 43 and "ship" in tokens
        for token in tokens:
            assert lexicon.cosine(token, token) == pytest.approx(1.0)


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
        top = rank_columns("the name", schema, lexicon, 20)[0]
        assert top.tier == 1
        assert str(top.column) == "ship.name"

    def test_tier1_beats_higher_similarity_in_lower_tier(self, geo_db, lexicon):
        schema = load_schema(geo_db)
        ranked = rank_columns("the population", schema, lexicon, 20)
        assert str(ranked[0].column) == "state.population"
        assert ranked[0].tier == 1
        assert all(c.tier > 1 for c in ranked[1:])

    def test_tier2_overlap_ordering(self, ship_death_db, lexicon):
        schema = load_schema(ship_death_db)
        ranked = rank_columns("ships", schema, lexicon, 20)
        assert [str(c.column) for c in ranked[:2]] == ["ship.id", "ship.name"]
        assert ranked[0].tier == 2

    def test_tier3_similarity_only(self, ship_death_db, lexicon):
        schema = load_schema(ship_death_db)
        ranked = rank_columns("injuries", schema, lexicon, 20)
        assert str(ranked[0].column) == "death.injured"
        assert ranked[0].tier == 3
        assert ranked[0].similarity > ranked[1].similarity

    def test_without_lexicon_order_is_tier_then_name(self, ship_death_db):
        schema = load_schema(ship_death_db)
        ranked = rank_columns("ships", schema, None, 20)
        # All similarities collapse to zero; tier then (table, column) rules.
        assert ranked[0].column.table == "ship" or ranked[0].tier <= 2
        sims = {c.similarity for c in ranked}
        assert sims == {0.0}

    def test_position_follows_tier_then_similarity_then_name(
        self, products_db, lexicon
    ):
        """A candidate's rank is its position: the list is sorted by tier,
        then by falling similarity, then by (table, column)."""
        schema = load_schema(products_db)
        ranked = rank_columns("product types", schema, lexicon, 20)
        keys = [
            (c.tier, -c.similarity, c.column.table, c.column.column) for c in ranked
        ]
        assert keys == sorted(keys)
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

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_memo_ranks_as_one_similarity_per_column(self, data):
        """Sharing cosines across the columns of one call moves no column,
        tier or similarity bit: the reference scores each column with its
        own :func:`phrase_column_similarity` call."""
        words = ["ship", "port", "crew", "cargo", "captain", "fleet", "name", "id"]
        word = st.sampled_from(words)
        dim = data.draw(st.integers(1, 6))
        vector = st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim)
        # Some words stay out of the vocabulary and score 0.
        known = data.draw(st.lists(word, unique=True))
        vectors = {w: array("d", data.draw(vector)) for w in known}
        lex = EmbeddingLexicon(vectors)
        tables = data.draw(st.lists(word, min_size=1, max_size=4, unique=True))
        schema = load_schema({"tables": {
            t: {"_".join(name): "TEXT" for name in data.draw(
                st.lists(st.lists(word, min_size=1, max_size=2), min_size=1, max_size=4)
            )}
            for t in tables
        }})
        phrase = " ".join(data.draw(st.lists(
            st.sampled_from(words + ["the", "of", "ships"]), min_size=1, max_size=4
        )))

        lemmas = content_lemmas(tokenize(phrase))
        reference = []
        for c in schema.columns():
            sim = phrase_column_similarity(EmbeddingLexicon(vectors), lemmas, c.lemmas)
            if lemmas and set(lemmas) in (set(c.own_lemmas), set(c.lemmas)):
                tier = 1
            elif set(lemmas) & set(c.lemmas):
                tier = 2
            else:
                tier = 3
            reference.append((tier, -sim, c.table, c.column))
        reference.sort()
        ranked = rank_columns(phrase, schema, lex, len(reference))
        assert [
            (c.tier, -c.similarity, c.column.table, c.column.column) for c in ranked
        ] == reference

    def test_overflowing_vectors_rank_whatever_the_column_order(self, tmp_path):
        # "vessel" and "ship" are near and "boat" far, but only scaled down
        # do their cosines with "ship" come out so: their norms' products
        # overflow, which read as a NaN and a 0.0, and a NaN in the sort
        # key leaves the columns in the order they came.
        lex = EmbeddingLexicon.load(write_lexicon(tmp_path, [
            ("ship", 1e200, 0.0), ("vessel", 1e200, 1e199), ("boat", 1.0, 3.0),
        ]))
        names = ["vessel", "crew", "boat"]
        rankings = []
        for order in itertools.permutations(names):
            schema = load_schema({"tables": {"fleet": {n: "TEXT" for n in order}}})
            rankings.append([
                (str(c.column), c.tier, c.similarity)
                for c in rank_columns("ship", schema, lex, len(names))
            ])
        assert all(ranking == rankings[0] for ranking in rankings)
        assert [column for column, _, _ in rankings[0]] == [
            "fleet.vessel", "fleet.boat", "fleet.crew",
        ]
        assert all(math.isfinite(sim) for _, _, sim in rankings[0])

    def test_voting_ranking(self, voting_record_db, lexicon):
        schema = load_schema(voting_record_db)
        ranked = rank_columns("students with treasurer votes", schema, lexicon, 20)
        assert [str(c.column) for c in ranked] == [
            "student.stuid",
            "voting_record.treasurer_vote",
            "voting_record.stuid",
            "student.major",
        ]


def col(table, column):
    return ColumnRef(
        table=table, column=column, lookup="map",
        own_lemmas=(column,), lemmas=(table, column),
    )


def slot(idx, phrase, cols):
    return Slot(idx, phrase), tuple(cols)


def ranks(assignment, slots):
    """Each slot's rank: the position of its chosen column among its
    options."""
    return tuple(options.index(assignment.columns[s]) for s, options in slots)


# The limit does not bind on the slots below unless a test passes its own.
LIMIT = 1000


class TestEnumerateAssignments:
    A = [col("t", "a0"), col("t", "a1"), col("t", "a2")]
    B = [col("t", "b0"), col("t", "b1"), col("t", "b2")]

    def test_best_first_with_lexicographic_ties(self):
        slots = [slot(1, "x", self.A), slot(2, "y", self.B)]
        got = [ranks(a, slots) for a in enumerate_assignments(slots, LIMIT)]
        assert got[:6] == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
        assert len(got) == 9

    def test_rank_sums_nondecreasing(self):
        slots = [slot(1, "x", self.A), slot(2, "y", self.B)]
        sums = [sum(ranks(a, slots)) for a in enumerate_assignments(slots, LIMIT)]
        assert sums == sorted(sums)

    def test_every_combination_exactly_once(self):
        slots = [slot(1, "x", self.A), slot(2, "y", self.B)]
        got = [ranks(a, slots) for a in enumerate_assignments(slots, LIMIT)]
        assert sorted(got) == sorted(itertools.product(range(3), range(3)))

    def test_top_k_caps_each_slot(self, geo_db, lexicon):
        """``link_program`` keeps at most ``top_k`` options for a phrase
        slot and for a literal slot, and the enumeration walks exactly the
        product of what it kept."""
        conn = open_readonly(geo_db)
        try:
            schema = load_schema(conn)
            index = ValueIndex(Database(conn), schema)
            program = parse_qdmr("return missouri; return the population of #1")
            plan = plan_bindings(program, index)
            wide = link_program(plan, schema, lexicon, index, 20, {})
            narrow = link_program(plan, schema, lexicon, index, 1, {})
        finally:
            conn.close()
        assert [s for s, _ in wide] == [
            Slot(2, "the population of"), Slot(None, "missouri"),
        ]
        assert [len(options) for _, options in wide] == [6, 2]
        assert [options for _, options in narrow] == [o[:1] for _, o in wide]
        assert len(list(enumerate_assignments(wide, LIMIT))) == 12
        assert len(list(enumerate_assignments(narrow, LIMIT))) == 1

    def test_limit_stops_stream(self):
        slots = [slot(1, "x", self.A)]
        got = list(enumerate_assignments(slots, 2))
        assert len(got) == 2

    def test_literal_slots_participate(self):
        france = [col("country", "name"), col("city", "name")]
        slots = [slot(1, "x", self.A[:2]), slot(None, "France", france)]
        got = list(enumerate_assignments(slots, LIMIT))
        assert len(got) == 4
        first = got[0]
        assert str(first.columns[Slot(1, "x")]) == "t.a0"
        assert str(first.columns[Slot(None, "France")]) == "country.name"
        # A plain (step, text) tuple finds the same slot: the mapper looks
        # slots up that way.
        assert first.columns[(None, "France")] is first.columns[Slot(None, "France")]

    def test_empty_candidate_list_yields_nothing(self):
        slots = [slot(1, "x", self.A), slot(2, "y", [])]
        assert list(enumerate_assignments(slots, LIMIT)) == []

    def test_no_slots_yields_single_empty_assignment(self):
        got = list(enumerate_assignments([], LIMIT))
        assert len(got) == 1
        assert got[0].columns == {}

    def test_describe_round_trip_keys(self):
        slots = [
            slot(2, "the majors", self.A[:1]),
            slot(None, "PVLDB", [col("journal", "name")]),
        ]
        (assignment,) = enumerate_assignments(slots, LIMIT)
        assert assignment.describe() == {
            "2:the majors": "t.a0",
            "value:PVLDB": "journal.name",
        }
        assert [str(s) for s, _ in slots] == list(assignment.describe())


@settings(max_examples=50)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3),
    limit=st.integers(min_value=1, max_value=100),
)
def test_property_enumeration_is_exhaustive_and_sorted(sizes, limit):
    slots = [
        slot(i + 1, f"p{i}", [col("t", f"c{i}_{j}") for j in range(n)])
        for i, n in enumerate(sizes)
    ]
    got = [ranks(a, slots) for a in enumerate_assignments(slots, limit)]
    expect = list(itertools.product(*(range(n) for n in sizes)))
    assert len(got) == min(len(expect), limit)
    assert len(set(got)) == len(got)
    assert set(got) <= set(expect)
    sums = [sum(r) for r in got]
    assert sums == sorted(sums)
    # Best first: nothing left out has a smaller rank sum than the last
    # assignment yielded.
    left = set(expect) - set(got)
    assert all(sum(r) >= sums[-1] for r in left)


class TestPlanBindings:
    def test_phrase_slots_only_without_index(self):
        program = parse_qdmr(
            "return the mississippi; return states #1 run through; "
            "return the population of #2"
        )
        plan = plan_bindings(program, None)
        assert plan.slots == {
            1: (Slot(1, "the mississippi"),),
            2: (Slot(2, "states run through"),),
            3: (Slot(3, "the population of"),),
        }
        assert all(slot.step is not None for own in plan.slots.values() for slot in own)

    def test_select_literal_consumes_phrase_slot(self, geo_db):
        conn = open_readonly(geo_db)
        try:
            schema = load_schema(conn)
            index = ValueIndex(Database(conn), schema)
            program = parse_qdmr(
                "return the mississippi; return states #1 run through; "
                "return the population of #2"
            )
            plan = plan_bindings(program, index)
            assert plan.slots == {
                1: (Slot(None, "mississippi"),),
                2: (Slot(2, "states run through"),),
                3: (Slot(3, "the population of"),),
            }
            slots = link_program(plan, schema, None, index, 20, {})
            assert [str(c) for c in dict(slots)[Slot(None, "mississippi")]] == [
                "river.river_name"
            ]
            phrase_slots = [s for own in plan.slots.values() for s in own if s.step is not None]
            assert Slot(1, "the mississippi") not in phrase_slots
            assert len(phrase_slots) == 2
        finally:
            conn.close()

    def test_filter_tail_multiword_literal(self, academic_db):
        conn = open_readonly(academic_db)
        try:
            schema = load_schema(conn)
            index = ValueIndex(Database(conn), schema)
            program = parse_qdmr(
                "return papers; return #1 by H. V. Jagadish; "
                "return #2 by Yunyao Li"
            )
            plan = plan_bindings(program, index)
            assert plan.slots == {
                1: (Slot(1, "papers"),),
                2: (Slot(None, "H. V. Jagadish"),),
                3: (Slot(None, "Yunyao Li"),),
            }
            slots = link_program(plan, schema, None, index, 20, {})
            cols = dict(slots)[Slot(None, "H. V. Jagadish")]
            assert [str(c) for c in cols] == ["author.name"]
        finally:
            conn.close()

    def test_group_key_phrase_slot(self):
        program = parse_qdmr(
            "return universities; return the enrollment of #1; "
            "return the number of #2 for each affiliation"
        )
        plan = plan_bindings(program, None)
        assert Slot(3, "affiliation") in plan.slots[3]

    def test_group_phrase_value_comes_before_its_key(self):
        program = parse_qdmr("return number of ship names for each ship type")
        assert plan_bindings(program, None).slots == {
            1: (Slot(1, "ship names"), Slot(1, "ship type")),
        }

    def test_a_text_two_fields_hold_is_one_slot(self):
        program = parse_qdmr("return number of ships for each ships")
        assert plan_bindings(program, None).slots == {1: (Slot(1, "ships"),)}


class TestLinkProgram:
    def test_linkings_follow_slots(self, geo_db, lexicon):
        conn = open_readonly(geo_db)
        try:
            schema = load_schema(conn)
            index = ValueIndex(Database(conn), schema)
            program = parse_qdmr(
                "return the mississippi; return states #1 run through; "
                "return the population of #2"
            )
            plan = plan_bindings(program, index)
            slots = link_program(plan, schema, lexicon, index, 3, {})
            assert [s for s, _ in slots] == [
                Slot(2, "states run through"),
                Slot(3, "the population of"),
                Slot(None, "mississippi"),
            ]
            own = [slot for own in plan.slots.values() for slot in own]
            assert [s for s in own if s.step is not None] == [s for s, _ in slots[:2]]
            assert [s for s in own if s.step is None] == [s for s, _ in slots[2:]]
            assert str(slots[0][1][0]) == "state.state_name"
            assert all(len(options) <= 3 for _, options in slots)
        finally:
            conn.close()

    def test_a_literal_two_steps_mention_is_one_slot(self, geo_db):
        """"missouri" names a state and a river's state: one slot with both
        columns, and whichever is chosen, both steps use it."""
        conn = open_readonly(geo_db)
        try:
            schema = load_schema(conn)
            index = ValueIndex(Database(conn), schema)
            program = parse_qdmr("return missouri; return #1 that is missouri")
            plan = plan_bindings(program, index)
            slots = link_program(plan, schema, None, index, 20, {})
            assert plan.slots == {
                1: (Slot(None, "missouri"),), 2: (Slot(None, "missouri"),),
            }
            assert [(s, [str(c) for c in options]) for s, options in slots] == [
                (Slot(None, "missouri"), ["river.traverse", "state.state_name"]),
            ]
            sqls = [
                render_sql(synthesize(program, schema, assignment, plan))
                for assignment in enumerate_assignments(slots, LIMIT)
            ]
        finally:
            conn.close()
        assert sqls == [
            "SELECT river.traverse FROM river WHERE river.traverse = 'missouri'",
            "SELECT state.state_name FROM state "
            "WHERE state.state_name = 'missouri'",
        ]

    def test_memo_rankings_equal_fresh_ones(self, db_dir, lexicon):
        """With one memo per database, every phrase slot of the fixture
        corpus gets the columns a fresh ``rank_columns`` gives, and a
        repeated phrase gets the memo's own tuple back."""
        examples, _ = load_examples(DATA_DIR / "corpus.jsonl")
        reused = 0
        for db_id in dict.fromkeys(ex.db_id for ex in examples):
            conn = open_readonly(db_dir / f"{db_id}.sqlite")
            try:
                schema = load_schema(conn)
                index = ValueIndex(Database(conn), schema)
                memo = {}
                for ex in examples:
                    if ex.db_id != db_id:
                        continue
                    seen = dict(memo)
                    plan = plan_bindings(ex.program, index)
                    slots = link_program(plan, schema, lexicon, index, 20, memo)
                    for s, columns in slots:
                        if s.step is None:
                            continue
                        fresh = rank_columns(s.text, schema, lexicon, 20)
                        assert columns == tuple(c.column for c in fresh)
                        assert columns is memo[s.text]
                        if s.text in seen:
                            assert columns is seen[s.text]
                            reused += 1
            finally:
                conn.close()
        assert reused
