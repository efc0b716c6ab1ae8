"""Decomposition parsing: operator inference, references, round-trips."""

import pytest
from hypothesis import given, strategies as st

from qdmr2sql import (
    DanglingReference,
    EmptyProgram,
    MalformedReference,
    NonstandardStep,
    OpKind,
    parse_qdmr,
    plan_bindings,
    render_program,
)
from qdmr2sql.qdmr import superlative_fn


def kinds(text):
    return [s.operator.kind for s in parse_qdmr(text).steps]


def step_operator(text, index=1):
    """The operator of ``text`` parsed as step ``index`` of a program whose
    earlier steps are plain selections."""
    preceding = [f"return things {i}" for i in range(1, index)]
    return parse_qdmr("; ".join(preceding + [text])).steps[-1].operator


class TestStepClassification:
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("return ships", OpKind.SELECT),
            ("return the mississippi", OpKind.SELECT),
            ("return injuries of #1", OpKind.PROJECT),
            ("return states #1 run through", OpKind.PROJECT),
            ("return #1 from France", OpKind.FILTER),
            ("return #1 by H. V. Jagadish", OpKind.FILTER),
            ("return number of #1", OpKind.AGGREGATE),
            ("return the average of #1", OpKind.AGGREGATE),
            ("return number of #2 for each #1", OpKind.GROUP),
            ("return average of #2 for each department", OpKind.GROUP),
            ("return #1 where #2 is highest", OpKind.SUPERLATIVE),
            ("return #1 where #2 is in the top 3", OpKind.SUPERLATIVE),
            ("return #1 where #2 is more than 10", OpKind.COMPARATIVE),
            ("return #1 where price is less than 50", OpKind.COMPARATIVE),
            ("return #1 , #2", OpKind.UNION),
            ("return #1 or #2", OpKind.UNION),
            ("return #1 and #2", OpKind.UNION_COLUMN),
            ("return papers in both #1 and #2", OpKind.INTERSECT),
            ("return #1 sorted by #2", OpKind.SORT),
            ("return #1 sorted by name in descending order", OpKind.SORT),
            ("return #1 besides #2", OpKind.DISCARD),
            ("return #1 not in #2", OpKind.DISCARD),
            ("return the difference of #1 and #2", OpKind.ARITHMETIC),
            ("return the division of #1 and #2", OpKind.ARITHMETIC),
        ],
    )
    def test_kind(self, text, kind):
        prefix = "return a; return b; return c; "
        program = parse_qdmr(prefix + text)
        assert program.steps[-1].operator.kind is kind

    def test_infer_without_program_context(self):
        assert step_operator("return cities").kind is OpKind.SELECT
        assert step_operator("number of #1", index=2).kind is OpKind.AGGREGATE

    @pytest.mark.parametrize(
        "text,fn",
        [
            ("number of #1", "count"),
            ("sum of #1", "sum"),
            ("average of #1", "avg"),
            ("the avg of #1", "avg"),
            ("highest of #1", "max"),
            ("largest of #1", "max"),
            ("maximum of #1", "max"),
            ("lowest of #1", "min"),
            ("smallest of #1", "min"),
            ("the minimum of #1", "min"),
        ],
    )
    def test_aggregate_words(self, text, fn):
        assert step_operator(text, index=2).aggregate_fn == fn

    @pytest.mark.parametrize(
        "text,cmp",
        [
            ("#1 where #2 is more than 10", ">"),
            ("#1 where #2 is less than 10", "<"),
            ("#1 where #2 is at least 10", ">="),
            ("#1 where #2 is at most 10", "<="),
            ("#1 where #2 is not 10", "!="),
            ("#1 where #2 equals 10", "="),
            ("#1 where #2 is 10", "="),
        ],
    )
    def test_comparators(self, text, cmp):
        op = step_operator(text, index=3)
        assert op.kind is OpKind.COMPARATIVE
        assert op.comparator == cmp

    def test_superlative_direction_and_k(self):
        hi = step_operator("#1 where #2 is highest", index=3)
        lo = step_operator("#1 where #2 is the smallest", index=3)
        top = step_operator("#1 where #2 is in the top 5", index=3)
        assert (hi.aggregate_fn, hi.k) == ("max", 1)
        assert (lo.aggregate_fn, lo.k) == ("min", 1)
        assert (top.aggregate_fn, top.k) == ("max", 5)

    def test_superlative_value_is_not_a_comparison(self):
        # "is highest" must never parse as COMPARATIVE with value "highest"
        op = step_operator("#1 where #2 is biggest", index=3)
        assert op.kind is OpKind.SUPERLATIVE

    def test_sort_direction(self):
        asc = step_operator("#1 sorted by #2", index=3)
        desc = step_operator("#1 sorted by age in descending order", index=2)
        assert asc.direction == "asc"
        assert desc.direction == "desc"

    @pytest.mark.parametrize(
        "word,op",
        [("sum", "+"), ("difference", "-"), ("multiplication", "*"), ("division", "/")],
    )
    def test_arithmetic_ops(self, word, op):
        inferred = step_operator(f"the {word} of #1 and #2", index=3)
        assert inferred.kind is OpKind.ARITHMETIC
        assert inferred.arith_op == op

    def test_sum_of_two_refs_is_arithmetic_not_aggregate(self):
        assert step_operator("sum of #1 and #2", index=3).kind is OpKind.ARITHMETIC
        assert step_operator("sum of #1", index=2).kind is OpKind.AGGREGATE


class TestShapes:
    def test_group_roles(self):
        program = parse_qdmr(
            "return ships; return injuries of #1; "
            "return number of #2 for each #1"
        )
        shape = program.steps[2].shape
        assert shape.value == 2
        assert shape.key == 1

    def test_group_key_phrase(self):
        program = parse_qdmr(
            "return universities; return the enrollment of #1; "
            "return the number of #2 for each affiliation"
        )
        shape = program.steps[2].shape
        assert shape.value == 2
        assert shape.key == "affiliation"

    def test_filter_tail_and_extra_refs(self):
        program = parse_qdmr("return papers; return cities; return #1 near #2")
        shape = program.steps[2].shape
        assert shape.base == 1
        assert shape.tail == "near #2"
        assert shape.extra_refs == (2,)

    def test_comparative_target_roles(self):
        program = parse_qdmr(
            "return authors; return papers of #1; "
            "return number of #2 for each #1; return #1 where #3 is more than 10"
        )
        shape = program.steps[3].shape
        assert shape.base == 1
        assert shape.target == 3
        assert shape.cmp_value == "10"

    def test_intersect_head(self):
        program = parse_qdmr(
            "return dogs; return cats; return owners of both #1 and #2"
        )
        shape = program.steps[2].shape
        assert shape.head == "owners"
        assert (shape.left, shape.right) == (1, 2)

    def test_comparison_literal_gets_no_phrase_slot(self):
        program = parse_qdmr("return cars; return #1 where price is less than 50")
        assert plan_bindings(program).phrase_slots == (
            (1, "select", "cars"),
            (2, "cmp_target", "price"),
        )

    def test_project_phrase_drops_ref_marker(self):
        program = parse_qdmr("return the mississippi; return states #1 run through")
        assert plan_bindings(program).phrase_slots[1] == (
            2,
            "project",
            "states run through",
        )

    def test_filter_tail_gets_no_phrase_slot(self):
        program = parse_qdmr("return ships; return #1 from the northern fleet")
        assert program.steps[1].operator.kind is OpKind.FILTER
        assert plan_bindings(program).phrase_slots == ((1, "select", "ships"),)


class TestValidation:
    def test_empty_text(self):
        with pytest.raises(EmptyProgram):
            parse_qdmr("")
        with pytest.raises(EmptyProgram):
            parse_qdmr("   ;  ; ")

    def test_empty_interior_step(self):
        with pytest.raises(NonstandardStep):
            parse_qdmr("return a; ; return b")

    def test_forward_reference(self):
        with pytest.raises(DanglingReference):
            parse_qdmr("return #2; return dogs")

    def test_self_reference(self):
        with pytest.raises(DanglingReference):
            parse_qdmr("return dogs; return #2 in France")

    def test_zero_reference(self):
        with pytest.raises(DanglingReference):
            parse_qdmr("return dogs; return #0 in France")

    def test_hash_without_number(self):
        with pytest.raises(MalformedReference):
            parse_qdmr("return dogs; return # 1 in France")

    def test_trailing_semicolon_tolerated(self):
        assert len(parse_qdmr("return dogs;")) == 1

    def test_trailing_period_tolerated(self):
        assert len(parse_qdmr("return dogs; return #1 in France.")) == 2


class TestRoundTrip:
    CANONICAL = (
        "ships; injuries of #1; number of #2 for each #1; "
        "#1 where #3 is highest; the name of #4"
    )

    def test_render_is_canonical(self):
        program = parse_qdmr(
            " Return ships ;return  injuries of #1; return number of #2 "
            "for each #1 ;return #1 where #3 is highest; return the name of #4 "
        )
        assert render_program(program) == self.CANONICAL

    def test_reparse_fixpoint(self):
        program = parse_qdmr(self.CANONICAL)
        assert parse_qdmr(render_program(program)) == program

    def test_ref_args_in_first_occurrence_order(self):
        program = parse_qdmr(self.CANONICAL)
        assert program.steps[3].ref_args == (1, 3)


PHRASES = st.sampled_from(
    ["ships", "the name", "papers", "cities in France", "average tonnage"]
)


@st.composite
def programs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    lines = [f"return {draw(PHRASES)}"]
    for i in range(2, n + 1):
        ref = draw(st.integers(min_value=1, max_value=i - 1)) if i > 1 else 1
        kind = draw(st.integers(min_value=0, max_value=4))
        if kind == 0:
            lines.append(f"return {draw(PHRASES)}")
        elif kind == 1:
            lines.append(f"return {draw(PHRASES)} of #{ref}")
        elif kind == 2:
            lines.append(f"return #{ref} where #{ref} is highest")
        elif kind == 3:
            lines.append(f"return number of #{ref}")
        else:
            lines.append(f"return #{ref} in France")
    return "; ".join(lines)


@given(programs())
def test_property_render_parse_fixpoint(text):
    program = parse_qdmr(text)
    rendered = render_program(program)
    again = parse_qdmr(rendered)
    assert again == program
    assert render_program(again) == rendered


@given(programs())
def test_property_refs_precede_their_step(text):
    program = parse_qdmr(text)
    for step in program.steps:
        for ref in step.ref_args:
            assert 1 <= ref < step.index


def test_superlative_token_scan():
    assert superlative_fn("#1 where #2 is highest") == "max"
    assert superlative_fn("state with the largest #2") == "max"
    assert superlative_fn("the smallest #2") == "min"
    assert superlative_fn("plain phrase") is None
