"""Execution-guided search over phrase assignments and repair heuristics.

The mapper is deterministic once every phrase is bound to a column, so the
search space is the space of bindings.  Assignments are tried best-first
by summed candidate rank.  For each assignment the base query is executed
and compared against the supervised answer; when it misses, cheap
structural repairs are tried before moving to the next assignment:

1. add DISTINCT to the SELECT clause;
2. rewrite steps that bury a superlative inside a noun phrase ("state
   with the largest #2") into explicit superlative steps ("#1 where #2 is
   highest");
3. swap COUNT with SUM (and vice versa) in aggregating steps, one step
   per variant.

The first candidate whose denotation equals the answer wins.  Candidates
that the engine rejects are counted and discarded; the search only fails
hard (``MappingFailed``) when not a single candidate could be executed.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import ExecutionTimeout, Qdmr2SqlError, QdmrParseError, SqlError
from .executor import Database, answer_denotation, denotations_equal
from .linking import (
    Assignment,
    BindingPlan,
    EmbeddingLexicon,
    LinkCandidate,
    enumerate_assignments,
    link_program,
    plan_bindings,
)
from .qdmr import OpKind, QdmrProgram, parse_qdmr, render_program, superlative_fn
from .schema import SchemaGraph, ValueIndex
from .sqlgen import SqlQuery, render_sql, synthesize

__all__ = [
    "SynthesisConfig",
    "SynthesisOutcome",
    "SearchStatus",
    "search",
    "heuristic_distinct",
    "heuristic_superlative",
    "heuristic_aggregate_swap",
    "synthesize",
]

HEURISTIC_DISTINCT = "distinct"
HEURISTIC_SUPERLATIVE = "superlative"
HEURISTIC_AGGREGATE_SWAP = "aggregate_swap"


class SearchStatus(str, Enum):
    FOUND = "Found"
    EXHAUSTED = "Exhausted"
    TIMEOUT = "Timeout"
    MAPPING_FAILED = "MappingFailed"


@dataclass(frozen=True)
class SynthesisConfig:
    top_k: int = 20
    max_assignments: int = 1000
    per_example_timeout: float = 60.0
    allow_empty_denotation: bool = False

    def __post_init__(self):
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")
        if self.max_assignments < 1:
            raise ValueError("max_assignments must be at least 1")
        if self.per_example_timeout <= 0:
            raise ValueError("per_example_timeout must be positive")


@dataclass(frozen=True)
class SynthesisOutcome:
    status: SearchStatus
    sql: Optional[str] = None
    assignment: Optional[Assignment] = None
    heuristics_applied: Tuple[str, ...] = ()
    candidates_tried: int = 0
    failure_reason: Optional[str] = None
    qdmr: Optional[str] = None


# --- repair heuristics -------------------------------------------------------


def heuristic_distinct(query: SqlQuery) -> SqlQuery:
    """The same query with DISTINCT on its SELECT clause."""
    # A plain constructor call: ``dataclasses.replace`` costs three times as
    # much, and this runs once per candidate.
    return SqlQuery(
        select=query.select,
        from_tables=query.from_tables,
        where=query.where,
        group_by=query.group_by,
        having=query.having,
        order_by=query.order_by,
        limit=query.limit,
        distinct=True,
    )


def heuristic_superlative(program: QdmrProgram) -> Optional[QdmrProgram]:
    """Rewrite noun-phrase superlatives into explicit superlative steps.

    A PROJECT or FILTER step whose text carries a superlative token, whose
    reference #M exists, and whose referenced step itself references some
    #E, becomes "#E where #M is highest" (or lowest).  All such steps are
    rewritten at once; everything else is preserved verbatim.  None when
    no step is rewritable or the rewrite does not parse.
    """
    texts = [s.raw_text for s in program.steps]
    rewrote = False
    for step in program.steps:
        if step.operator.kind not in (OpKind.PROJECT, OpKind.FILTER):
            continue
        fn = superlative_fn(step.raw_text)
        if fn is None or not step.ref_args:
            continue
        measure = step.ref_args[0]
        measure_step = program.step(measure)
        if not measure_step.ref_args:
            continue
        entity = measure_step.ref_args[0]
        token = "highest" if fn == "max" else "lowest"
        texts[step.index - 1] = f"#{entity} where #{measure} is {token}"
        rewrote = True
    if not rewrote:
        return None
    try:
        return parse_qdmr("; ".join(texts))
    except QdmrParseError:
        return None


_COUNT_WORDS = re.compile(r"\b(number|count)\b")
_SUM_WORD = re.compile(r"\bsum\b")


def heuristic_aggregate_swap(program: QdmrProgram) -> List[QdmrProgram]:
    """One variant per aggregating step, with COUNT and SUM exchanged;
    empty when no step aggregates with a swappable COUNT or SUM."""
    variants: List[QdmrProgram] = []
    for step in program.steps:
        if step.operator.kind not in (OpKind.AGGREGATE, OpKind.GROUP):
            continue
        fn = step.operator.aggregate_fn
        if fn == "count":
            swapped, n = _COUNT_WORDS.subn("sum", step.raw_text, count=1)
        elif fn == "sum":
            swapped, n = _SUM_WORD.subn("number", step.raw_text, count=1)
        else:
            continue
        if not n:
            continue
        texts = [s.raw_text for s in program.steps]
        texts[step.index - 1] = swapped
        try:
            candidate = parse_qdmr("; ".join(texts))
        except QdmrParseError:
            continue
        new_step = candidate.step(step.index)
        if (
            new_step.operator.kind is step.operator.kind
            and new_step.operator.aggregate_fn in ("count", "sum")
            and new_step.operator.aggregate_fn != fn
        ):
            variants.append(candidate)
    return variants


# --- the search loop ---------------------------------------------------------


def _program_variants(
    program: QdmrProgram,
    plan: BindingPlan,
    value_index: Optional[ValueIndex],
) -> List[Tuple[QdmrProgram, BindingPlan, Tuple[str, ...]]]:
    """The base program plus every structural rewrite, in order, each as
    ``(program, plan, labels)``: the labels name the rewrites applied."""
    rewrites = [(heuristic_superlative(program), HEURISTIC_SUPERLATIVE)]
    swaps = heuristic_aggregate_swap(program)
    rewrites += [(swapped, HEURISTIC_AGGREGATE_SWAP) for swapped in swaps]
    return [(program, plan, ())] + [
        (rewritten, plan_bindings(rewritten, value_index), (label,))
        for rewritten, label in rewrites
        if rewritten is not None
    ]


def _candidates(
    variants: Sequence[Tuple[QdmrProgram, BindingPlan, Tuple[str, ...]]],
    schema: SchemaGraph,
    assignment: Assignment,
    errors: List[str],
) -> Iterator[Tuple[SqlQuery, Tuple[str, ...], QdmrProgram]]:
    """Build every candidate query for one assignment, cheapest first."""
    for program, plan, label in variants:
        try:
            query = synthesize(program, schema, assignment, plan)
        except Qdmr2SqlError as exc:
            errors.append(str(exc))
            continue
        yield query, label, program
        if not query.distinct:
            yield heuristic_distinct(query), label + (HEURISTIC_DISTINCT,), program


def search(
    example,
    schema: SchemaGraph,
    database: Database,
    config: Optional[SynthesisConfig] = None,
    lexicon: Optional[EmbeddingLexicon] = None,
    *,
    value_index: Optional[ValueIndex] = None,
    rankings: Optional[Dict[str, Tuple[LinkCandidate, ...]]] = None,
) -> SynthesisOutcome:
    """Search for a query whose execution matches the example's answer.

    ``example`` must expose ``qdmr`` (or a pre-parsed ``program``) and
    ``answer``.  Statuses: Found on the first matching candidate,
    Exhausted when the assignment stream runs dry, Timeout on deadline,
    MappingFailed when no candidate could even be built and executed.
    ``value_index`` must be over ``database`` and ``schema``; passing one
    shares its lookups across the examples on that database, and without
    one a fresh index is built.  ``rankings`` is the phrase-ranking memo of
    :func:`link_program`, shared the same way, for one ``schema``,
    ``lexicon`` and ``config.top_k``.
    """
    config = config or SynthesisConfig()
    deadline = time.monotonic() + config.per_example_timeout

    program = getattr(example, "program", None)
    if program is None:
        try:
            program = parse_qdmr(example.qdmr)
        except QdmrParseError as exc:
            return SynthesisOutcome(
                status=SearchStatus.MAPPING_FAILED,
                failure_reason=f"decomposition does not parse: {exc}",
            )

    target = answer_denotation(example.answer)
    if value_index is None:
        value_index = ValueIndex(database.conn, schema)
    plan, linkings = link_program(
        program, schema, lexicon, value_index, top_k=config.top_k,
        rankings=rankings,
    )
    variants = _program_variants(program, plan, value_index)

    tried = 0
    mapping_errors: List[str] = []
    engine_errors: List[str] = []
    assignments = enumerate_assignments(
        linkings,
        plan.literal_candidates,
        top_k=config.top_k,
        limit=config.max_assignments,
    )
    for assignment in assignments:
        for query, label, used_program in _candidates(
            variants, schema, assignment, mapping_errors
        ):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return SynthesisOutcome(
                    status=SearchStatus.TIMEOUT,
                    candidates_tried=tried,
                    failure_reason="search deadline exceeded",
                )
            tried += 1
            sql = render_sql(query)
            try:
                result = database.execute(
                    sql, timeout_secs=remaining, target=target
                )
            except ExecutionTimeout:
                return SynthesisOutcome(
                    status=SearchStatus.TIMEOUT,
                    candidates_tried=tried,
                    failure_reason="candidate execution hit the search deadline",
                )
            except SqlError as exc:
                engine_errors.append(str(exc))
                continue
            if denotations_equal(result, target, config.allow_empty_denotation):
                return SynthesisOutcome(
                    status=SearchStatus.FOUND,
                    sql=sql,
                    assignment=assignment,
                    heuristics_applied=label,
                    candidates_tried=tried,
                    qdmr=render_program(used_program),
                )

    # Timeouts return above, so a tried candidate either executed or was
    # rejected by the engine.
    executed = tried - len(engine_errors)
    if executed == 0:
        if tried:
            reason = (
                f"the engine rejected all {tried} candidates; "
                f"first error: {engine_errors[0]}"
            )
        elif mapping_errors:
            reason = mapping_errors[-1]
        else:
            reason = "no candidate could be built"
        return SynthesisOutcome(
            status=SearchStatus.MAPPING_FAILED,
            candidates_tried=tried,
            failure_reason=reason,
        )
    return SynthesisOutcome(
        status=SearchStatus.EXHAUSTED,
        candidates_tried=tried,
        failure_reason=f"no candidate of {tried} matched the answer",
    )
