"""Execution-guided search over phrase assignments and repair heuristics.

The mapper is deterministic once every phrase is bound to a column, so the
search space is the space of bindings.  An example is planned
(:func:`~qdmr2sql.linking.plan_bindings`) and linked once, and its
assignments are tried best-first by summed candidate rank.  For each
assignment, each variant of the decomposition is mapped under the
example's one plan, in this order: the base decomposition; the
superlative rewrite, which turns a superlative buried in a noun phrase
("state with the largest #2") into an explicit step ("#1 where #2 is
highest"); one COUNT/SUM swap per aggregating step.  Each mapped query is
tried as mapped, then with DISTINCT on its SELECT clause.

The first candidate whose denotation equals the answer wins.  A variant
that cannot be mapped is skipped; candidates that the engine rejects are
counted and discarded.  The search only fails hard (``MappingFailed``)
when not a single candidate could be executed.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

from .errors import ExecutionTimeout, Qdmr2SqlError, QdmrParseError, SqlError
from .executor import Database, answer_denotation, denotations_equal
from .linking import (
    Assignment,
    EmbeddingLexicon,
    enumerate_assignments,
    link_program,
    plan_bindings,
)
from .qdmr import OpKind, QdmrProgram, parse_qdmr, render_program, superlative_fn
from .schema import ColumnRef, SchemaGraph, ValueIndex
from .sqlgen import SqlQuery, render_sql, synthesize

__all__ = [
    "SynthesisConfig",
    "SynthesisOutcome",
    "SearchStatus",
    "Session",
    "search",
    "heuristic_distinct",
    "heuristic_superlative",
    "heuristic_aggregate_swap",
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


def _program_variants(program: QdmrProgram) -> List[Tuple[QdmrProgram, Tuple[str, ...]]]:
    """The base program plus every structural rewrite, in order, each as
    ``(program, labels)``: the labels name the rewrites applied.  Each maps
    under the base program's plan: its SELECT and FILTER steps, the only
    ones that read literals, are the base program's own."""
    rewrites = [(heuristic_superlative(program), HEURISTIC_SUPERLATIVE)]
    swaps = heuristic_aggregate_swap(program)
    rewrites += [(swapped, HEURISTIC_AGGREGATE_SWAP) for swapped in swaps]
    return [(program, ())] + [
        (rewritten, (label,)) for rewritten, label in rewrites if rewritten is not None
    ]


class Session:
    """One database's search state, shared by every example searched on it.

    Holds the database, its schema, the config and lexicon, a
    :class:`ValueIndex` over the database's connection and a memo from
    phrase to column ranking.  Constructing a session builds the value
    index, which reads the database's text columns, so that read falls
    outside every example's deadline.  A ranking depends on the schema,
    the lexicon and ``config.top_k``, so the memo is valid only while all
    three stay those of this session; a session never changes them.  Use
    and close a session on the thread that opened its database: SQLite
    connections refuse other threads.
    """

    def __init__(
        self,
        database: Database,
        schema: SchemaGraph,
        config: SynthesisConfig,
        lexicon: Optional[EmbeddingLexicon] = None,
    ):
        self.database = database
        self.schema = schema
        self.config = config
        self.lexicon = lexicon
        self.value_index = ValueIndex(database.conn, schema)
        self.rankings: Dict[str, Tuple[ColumnRef, ...]] = {}

    def close(self) -> None:
        self.database.close()


def search(example, session: Session) -> SynthesisOutcome:
    """Search for a query whose execution matches the example's answer.

    ``example`` must expose a parsed ``program`` and an ``answer``.
    Statuses: Found on the first matching candidate, Exhausted when the
    assignment stream runs dry, Timeout on deadline, MappingFailed when no
    candidate could even be built and executed.
    """
    config = session.config
    deadline = time.monotonic() + config.per_example_timeout
    target = answer_denotation(example.answer)
    plan = plan_bindings(example.program, session.value_index)
    slots = link_program(
        plan, session.schema, session.lexicon, session.value_index,
        config.top_k, session.rankings,
    )
    variants = _program_variants(example.program)

    tried = 0
    mapping_error: Optional[str] = None  # the last one
    engine_error: Optional[str] = None  # the first one
    engine_errors = 0
    for assignment in enumerate_assignments(slots, config.max_assignments):
        for program, labels in variants:
            try:
                query = synthesize(program, session.schema, assignment, plan)
            except Qdmr2SqlError as exc:
                mapping_error = str(exc)
                continue
            distinct = heuristic_distinct(query), labels + (HEURISTIC_DISTINCT,)
            for candidate, applied in ((query, labels), distinct):
                if time.monotonic() >= deadline:
                    return SynthesisOutcome(
                        status=SearchStatus.TIMEOUT,
                        candidates_tried=tried,
                        failure_reason="search deadline exceeded",
                    )
                tried += 1
                sql = render_sql(candidate)
                try:
                    result = session.database.execute(sql, deadline, target)
                except ExecutionTimeout:
                    return SynthesisOutcome(
                        status=SearchStatus.TIMEOUT,
                        candidates_tried=tried,
                        failure_reason="candidate execution hit the search deadline",
                    )
                except SqlError as exc:
                    engine_errors += 1
                    if engine_error is None:
                        engine_error = str(exc)
                    continue
                if denotations_equal(result, target, config.allow_empty_denotation):
                    return SynthesisOutcome(
                        status=SearchStatus.FOUND,
                        sql=sql,
                        assignment=assignment,
                        heuristics_applied=applied,
                        candidates_tried=tried,
                        qdmr=render_program(program),
                    )

    # Timeouts return above, so a tried candidate either executed or was
    # rejected by the engine.
    if tried == engine_errors:
        if tried:
            reason = (
                f"the engine rejected all {tried} candidates; "
                f"first error: {engine_error}"
            )
        elif mapping_error is not None:
            reason = mapping_error
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
