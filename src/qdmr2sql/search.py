"""Execution-guided search over phrase assignments and repair heuristics.

The mapper is deterministic once every phrase is bound to a column, so the
search space is the space of bindings.  Its assignments are tried
best-first by summed candidate rank.  For each assignment, each variant of
the decomposition is mapped under one plan, in this order: the base
decomposition; the superlative rewrite, which turns a superlative buried
in a noun phrase ("state with the largest #2") into an explicit step ("#1
where #2 is highest"); one COUNT/SUM swap per aggregating step.  Each
mapped query is tried as mapped, then rendered with DISTINCT (a flag of
``render_sql``).

Nothing an assignment cannot change is built twice:

- once per session, for each distinct tuple of step texts
  (:meth:`Session.prepare`): the plan
  (:func:`~qdmr2sql.linking.plan_bindings`), which lists each step's own
  slots, the slots with their ranked columns
  (:func:`~qdmr2sql.linking.link_program`), and the variants;
- once per session, for each join-path key, whose anchors are only those
  that can pick one of two foreign keys: the join path;
- once per example, for each step but a last one, its number and text,
  the columns of its own slots and the mapped steps it references: the
  step's query, which every variant shares
  (:class:`~qdmr2sql.sqlgen.StepMemo`).  Consecutive assignments differ
  in one slot, so most steps repeat;
- once per example, after a candidate has executed, for each variant of
  three or more steps and each pattern of the assignment
  (:class:`~qdmr2sql.sqlgen.SlotCodes`: each slot's table, the first slot
  holding its column, and the column where it can pick one of two
  foreign keys): the variant's query, or its failure;
- once per query: its text;
- once per session, for each set of answer kinds: each table's columns
  that can hold such an answer (:meth:`Session.fitting_columns`);
- once per example, for each shared statement: its results, one per
  column, which the aggregate tries over one argument and join, under
  both DISTINCT flags, or the projection tries over one join's rows
  take (see below).

Each variant of each assignment is still one call of ``synthesize``, made
only while the deadline holds.  A call whose pattern was kept maps no
step: it swaps the assignment's columns in at the kept query's column
expressions, so its outputs, tries and statements are those of mapping
afresh.  It builds the query's clauses but WHERE first and asks the kind
decision below of them; when that rejects the query, both its tries are
counted and decided, and the WHERE is never built.

This module writes no SQL.  ``sqlgen`` writes each try's statement
(:func:`~qdmr2sql.sqlgen.render_sql`), the statement a try shares
(:func:`~qdmr2sql.sqlgen.shared_statement`), the key a repeat is told by
(:func:`~qdmr2sql.sqlgen.count_key`), and the tie probes
(:func:`~qdmr2sql.sqlgen.tie_probes`); ``executor`` writes the census
(:func:`~qdmr2sql.executor.kind_census`).  Two kinds of try share:

- a COUNT or SUM try over a join, with its DISTINCT and
  COUNT/SUM-swapped tries.  SQLite computes each aggregate of the shared
  statement on its own over the same rows, so a try's column is what its
  own statement returns;
- a try that projects one plain column, without DISTINCT, over a join
  or over one table under a nested ``IN`` query, with the tries that
  project another column of its table over the same rows.  The shared
  statement selects every column of that table that can hold the
  answer (:meth:`Session.fitting_columns`; a try that projects another
  is decided by kind) under the try's own clauses, so a try's column of
  its rows is its own statement's rows, duplicates kept.

A try shares only once a candidate of the example has executed, so an
example found on its first try never pays for reading the wider
statement.  The shared statement runs on the first try that
reads it, which reads each of its columns in one pass, until that column
has a row outside the answer or the rows run out
(:meth:`~qdmr2sql.executor.Database.execute_columns`); each column's
result serves its tries until the search ends.  A try answered this way
is rendered, counted and decided as any other; only its execution is
shared.  When the engine rejects the shared statement (a SUM overflows
where COUNT alone, or the other flag's SUM, would not; a cell of a
column the try does not read cannot be read), each try runs its own, so
the engine errors and the statuses are those of the tries' own
statements.  A shared statement that meets the deadline ends the search
with Timeout, as a try's own would.

The first candidate whose denotation equals the answer wins, unless a
LIMIT in it cuts a tie (:func:`_tied`): the plan picks which tied rows it
returns, yet QDMR's "highest" means them all.  Execution
reads a result only until its first row outside the answer and marks it
a mismatch there (:meth:`~qdmr2sql.executor.Database.execute`), so only a
result whose every row lies in the answer is compared with
:func:`~qdmr2sql.executor.denotations_equal`.  A variant
that cannot be mapped is skipped; candidates that the engine rejects are
counted and discarded.  The search only fails hard (``MappingFailed``)
when not a single candidate could be executed.

Some candidates are decided without being executed; they are mismatches
or engine rejections and still count as tried:

- a candidate whose statement this search already ran, answered from a
  shared statement, or saw the engine reject.  The same statement on the
  same connection, against the same answer, gets the same verdict, and a
  match or a timeout would have ended the search.  So does a candidate
  whose statement equals such a one once both are read with each
  ``COUNT(col)`` of a column the census holds no null in as
  ``COUNT(*)``, in the select list, HAVING, ORDER BY and nested queries
  alike (:func:`~qdmr2sql.sqlgen.count_key`): the two return the same
  rows, or a LIMIT cuts a tie in both, which :func:`_tied` rejects
  either way, and the engine rejects both alike.  This holds per search
  only: nothing is kept for the next example, and no answer value is
  read;
- the DISTINCT try of a query when DISTINCT cannot change its set of
  rows: no aggregate, no LIMIT and no column compared under a collation,
  or a select list that is exactly the query's uncollated GROUP BY
  column, whose rows are distinct already.  Comparison is by sets, so the
  try reads its first try's statement and is decided with it, without
  being rendered; where a LIMIT cuts a tie, :func:`_tied` rejects both;
- once a candidate of the example has executed, so that neither the
  status nor the first engine error can change any more, a candidate with
  some answer row that no row of its result can match: the row's width is
  not the query's, or one of its cells is of a kind (null, number, text)
  that the select item in its place never yields.  This is decided from
  the query tree, the answer and the session's census of the cell kinds
  each column holds, without rendering.

The session's database holds the example's deadline until the search
ends and runs every statement the search issues, so the deadline bounds
each of them: a literal probe that meets it ends the search with Timeout
and leaves the memos as they were.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .errors import ExecutionTimeout, Qdmr2SqlError, QdmrParseError, SqlError
from .executor import (
    NULL,
    NUMBER,
    Census,
    Database,
    Denotation,
    Execution,
    answer_denotation,
    denotations_equal,
    kind_census,
)
from .linking import (
    Assignment,
    BindingPlan,
    EmbeddingLexicon,
    Slot,
    enumerate_assignments,
    link_program,
    plan_bindings,
)
from .qdmr import OpKind, QdmrProgram, parse_qdmr, render_program, superlative_fn
from .schema import ColumnRef, SchemaGraph, ValueIndex
from .sqlgen import (
    AggExpr, ColExpr, JoinPaths, SelectItem, SlotCodes, SqlQuery, StepMemo, count_key,
    render_sql, shared_statement, synthesize, tie_probes, _aggregates, _distinct_keeps_rows,
)

__all__ = [
    "SynthesisConfig",
    "SynthesisOutcome",
    "SearchStatus",
    "Session",
    "search",
    "heuristic_superlative",
    "heuristic_aggregate_swap",
]


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
        for name, kind, what in (("top_k", int, "an int"), ("max_assignments", int, "an int"),
                                 ("per_example_timeout", (int, float), "a number")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be {what}, not {value!r}")
        if not isinstance(self.allow_empty_denotation, bool):
            raise ValueError(
                f"allow_empty_denotation must be a bool, not {self.allow_empty_denotation!r}"
            )
        # Written so that NaN, which fails every comparison, is rejected too.
        if not self.top_k >= 1:
            raise ValueError("top_k must be at least 1")
        if not self.max_assignments >= 1:
            raise ValueError("max_assignments must be at least 1")
        if not self.per_example_timeout > 0:
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


# The parser reads aggregate words in any case, so the swap does too.
_COUNT_WORDS = re.compile(r"\b(number|count)\b", re.IGNORECASE)
_SUM_WORD = re.compile(r"\bsum\b", re.IGNORECASE)


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


# --- deciding candidates without running them ---------------------------------

_NUMBER_OR_NULL = frozenset((NUMBER, NULL))
_AGGREGATE_KINDS = {
    "count": frozenset((NUMBER,)), "sum": _NUMBER_OR_NULL, "avg": _NUMBER_OR_NULL,
}


def _item_kinds(item: SelectItem, query: SqlQuery, census: Census) -> FrozenSet[type]:
    """The kinds of cell ``item`` can yield in ``query``'s result."""
    if isinstance(item, ColExpr):
        kinds = census[item.col]
        # Over no rows, an aggregate query without GROUP BY still returns
        # one row, whose bare columns are null.
        if query.group_by is None and (
            query.having
            or _aggregates(query)
            or (query.order_by and isinstance(query.order_by[0], AggExpr))
        ):
            return kinds | {NULL}
        return kinds
    if isinstance(item, AggExpr):
        if item.fn in ("min", "max"):
            return census[item.arg.col] | {NULL}
        return _AGGREGATE_KINDS[item.fn]
    return _NUMBER_OR_NULL  # arithmetic over two scalar subqueries


def _cannot_match(query: SqlQuery, answer: Denotation, census: Census) -> bool:
    """Whether some answer row is of a width, or has a cell of a kind, that
    no row of ``query``'s result has.  Every answer row must be matched, so
    such a query is a mismatch; an empty answer has no row to check, so
    this never decides against it."""
    items = [_item_kinds(item, query, census) for item in query.select]
    return any(
        len(row) != len(items) or not all(map(frozenset.__contains__, items, row))
        for row in answer.kinds
    )


def _tied(query: SqlQuery, distinct: bool, database: Database) -> bool:
    """Whether a LIMIT in the try ``(query, distinct)`` cuts a tie; a probe
    the engine rejects gives no verdict, so no match.  The probes are not
    candidates: ``Database.fetch`` runs them and ``sqlgen`` renders them."""
    for probe in tie_probes(query, distinct):
        try:
            rows = database.fetch(probe)
        except ExecutionTimeout:
            raise
        except SqlError:
            return True
        if rows and rows[0][0]:
            return True
    return False


# --- the search loop ---------------------------------------------------------


def _program_variants(program: QdmrProgram) -> List[Tuple[QdmrProgram, Tuple[str, ...]]]:
    """The base program plus every structural rewrite, in order, each as
    ``(program, labels)``: the labels name the rewrites applied.  Each maps
    under the base program's plan: its SELECT and FILTER steps, the only
    ones that read literals, are the base program's own."""
    rewrites = [(heuristic_superlative(program), "superlative")]
    swaps = heuristic_aggregate_swap(program)
    rewrites += [(swapped, "aggregate_swap") for swapped in swaps]
    return [(program, ())] + [
        (rewritten, (label,)) for rewritten, label in rewrites if rewritten is not None
    ]


@dataclass(frozen=True)
class _Prepared:
    """What a session builds once for a decomposition: its plan, its slots
    with their candidate columns, their codes for the pattern memo, and
    its variants (:func:`_program_variants`)."""

    plan: BindingPlan
    slots: List[Tuple[Slot, Tuple[ColumnRef, ...]]]
    codes: SlotCodes
    variants: List[Tuple[QdmrProgram, Tuple[str, ...]]]


# The fewest steps of a program that keeps patterns (``StepMemo.patterns``).
# A program of one or two steps maps through at most two rules, which
# build about the nodes a substitution builds, so its pattern key and
# substitution cost more than they save.
_PATTERN_STEPS = 3


def _shared_results(
    database: Database, statement: str, target: Denotation,
    shared: Dict[str, Optional[Tuple[Execution, ...]]],
) -> Optional[Tuple[Execution, ...]]:
    """The results of the shared ``statement``'s columns against
    ``target``, read on its first try in the search and kept in ``shared``
    under its text; None once the engine has rejected it."""
    if statement not in shared:
        try:
            shared[statement] = database.execute_columns(statement, target)
        except ExecutionTimeout:
            raise
        except SqlError:
            shared[statement] = None
    return shared[statement]


class Session:
    """One database's search state, shared by every example searched on it.

    Holds the database, through which it runs every statement, its
    schema, the config and lexicon, a :class:`ValueIndex` over the
    database, a census of the kinds of cell each column holds, the
    columns that census holds no null in (``null_free``), and four
    memos that fill as examples are searched: phrase to column ranking,
    decomposition to its plan, slots and variants (:meth:`prepare`),
    join-path key to join path, and an answer's kinds to the columns that
    can hold it (:meth:`fitting_columns`).  Constructing a session builds
    the value index, which reads the database's text columns, and takes
    the census, so those reads fall outside every example's deadline.
    Each memo depends only on the schema, the value index, the census, the
    lexicon and the config, and a session never changes them, so each
    holds for the session's life and no longer.

    A session on a :meth:`~qdmr2sql.executor.Database.open` database
    reads one snapshot, the file's private in-memory copy (about the
    file's size): the data its memos and the per-search set of statements
    run assume does not change under them, and a writer to the file never
    waits for it.
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
        self.value_index = ValueIndex(database, schema)
        self.census = kind_census(database, schema)
        self.null_free = frozenset(col for col, kinds in self.census.items() if NULL not in kinds)
        self.rankings: Dict[str, Tuple[ColumnRef, ...]] = {}
        self.prepared: Dict[Tuple[str, ...], _Prepared] = {}
        self.join_paths: JoinPaths = {}
        self.fitting: Dict[FrozenSet[Tuple[type, ...]], Dict[str, List[ColumnRef]]] = {}

    def prepare(self, program: QdmrProgram) -> _Prepared:
        """``program`` planned, linked and rewritten on the first search of
        its step texts in this session; taken from the memo after that.

        A literal probe that meets the database's deadline raises
        :class:`~qdmr2sql.errors.ExecutionTimeout` and leaves the program
        unprepared."""
        key = tuple(step.raw_text for step in program.steps)
        prepared = self.prepared.get(key)
        if prepared is None:
            plan = plan_bindings(program, self.value_index)
            slots = link_program(
                plan, self.schema, self.lexicon, self.value_index,
                self.config.top_k, self.rankings,
            )
            prepared = self.prepared[key] = _Prepared(
                plan, slots, SlotCodes(slots, self.schema), _program_variants(program)
            )
        return prepared

    def fitting_columns(
        self, kinds: FrozenSet[Tuple[type, ...]]
    ) -> Dict[str, List[ColumnRef]]:
        """Each table's columns that can hold every answer row of ``kinds``
        (:attr:`~qdmr2sql.executor.Denotation.kinds`) as a row of one cell:
        the only columns a try that projects one is not decided for by
        :func:`_cannot_match`.  Kept per set of kinds."""
        columns = self.fitting.get(kinds)
        if columns is None:
            columns = self.fitting[kinds] = {
                table: [col for col in cols
                        if all(len(row) == 1 and row[0] in self.census[col] for row in kinds)]
                for table, cols in self.schema.tables.items()
            }
        return columns

    def close(self) -> None:
        """Close the database, which frees its copy."""
        self.database.close()


def _timeout(tried: int, reason: str) -> SynthesisOutcome:
    return SynthesisOutcome(
        status=SearchStatus.TIMEOUT, candidates_tried=tried, failure_reason=reason
    )


def search(example, session: Session) -> SynthesisOutcome:
    """Search for a query whose execution matches the example's answer.

    ``example`` must expose a parsed ``program`` and an ``answer``.  The
    program is prepared through ``session`` (:meth:`Session.prepare`), and
    its mapped steps and the statements it ran are kept for this search
    alone.
    Statuses: Found on the first matching candidate, Exhausted when the
    assignment stream runs dry, Timeout on deadline, MappingFailed when no
    candidate could even be built and executed.
    """
    database = session.database
    database.set_deadline(time.monotonic() + session.config.per_example_timeout)
    try:
        return _search(example, session)
    finally:
        database.set_deadline(math.inf)


def _search(example, session: Session) -> SynthesisOutcome:
    config, database = session.config, session.database
    target = answer_denotation(example.answer)
    try:
        prepared = session.prepare(example.program)
    except ExecutionTimeout:
        return _timeout(0, "literal lookup hit the search deadline")
    # The example's mapped steps, which every variant shares; once a
    # candidate has executed, each variant's patterns beside them.
    steps: dict = {}
    plain = StepMemo(steps, session.join_paths)
    memos = [plain] * len(prepared.variants)

    tried = 0
    executed = False  # whether a candidate ran without an engine error
    # Once a candidate has executed: each table's columns that can hold the answer.
    columns: Dict[str, List[ColumnRef]] = {}
    ran: Set[str] = set()  # each statement run or rejected, none matching, and its count_key
    # Each shared statement run: its columns' results, None once rejected.
    shared: Dict[str, Optional[Tuple[Execution, ...]]] = {}
    mapping_error: Optional[str] = None  # the last one
    engine_error: Optional[str] = None  # the first one
    # Once a candidate has executed: whether a query, without its WHERE, cannot match.
    decide = None
    for assignment in enumerate_assignments(prepared.slots, config.max_assignments):
        for (program, labels), memo in zip(prepared.variants, memos):
            if database.past_deadline():
                return _timeout(tried, "search deadline exceeded")
            try:
                query = synthesize(
                    program, session.schema, assignment, prepared.plan, memo, decide
                )
            except Qdmr2SqlError as exc:
                mapping_error = str(exc)
                continue
            for distinct in (False, True):
                if database.past_deadline():
                    return _timeout(tried, "search deadline exceeded")
                tried += 1
                if query is None:
                    continue  # decided by kind, before a pattern's tree was built
                if distinct and _distinct_keeps_rows(query):
                    continue  # decided with its first try, which reads the same rows
                if executed and _cannot_match(query, target, session.census):
                    continue
                sql = render_sql(query, distinct=distinct)
                if sql in ran:
                    continue
                key = count_key(query, distinct, sql, session.null_free)
                if key is not None:
                    if key in ran:
                        continue
                    ran.add(key)
                ran.add(sql)
                at = shared_statement(query, distinct, sql, columns) if executed else None
                try:
                    results = None if at is None else _shared_results(
                        database, at[0], target, shared
                    )
                    if results is None:  # no shared statement, or the engine rejected it
                        result = database.execute(sql, target)
                    else:
                        result = results[at[1]]
                    found = not result.mismatch and denotations_equal(
                        result, target, config.allow_empty_denotation
                    ) and (" LIMIT " not in sql or not _tied(query, distinct, database))
                except ExecutionTimeout:
                    return _timeout(
                        tried, "candidate execution hit the search deadline"
                    )
                except SqlError as exc:
                    if engine_error is None:
                        engine_error = str(exc)
                    continue
                if found:
                    return SynthesisOutcome(
                        status=SearchStatus.FOUND,
                        sql=sql,
                        assignment=assignment,
                        heuristics_applied=labels + (("distinct",) if distinct else ()),
                        candidates_tried=tried,
                        qdmr=render_program(program),
                    )
                if not executed:
                    executed, columns = True, session.fitting_columns(target.kinds)
                    decide = partial(_cannot_match, answer=target, census=session.census)
                    memos = [
                        StepMemo(steps, session.join_paths, prepared.codes, {})
                        if len(variant.steps) >= _PATTERN_STEPS else plain
                        for variant, _ in prepared.variants
                    ]

    # Timeouts return above, and until a candidate has executed, a try is
    # decided only when it reads a statement the engine rejected, or one
    # that counts the same rows as such a statement (count_key), which the
    # engine rejects alike; so when none executed every one was rejected
    # by the engine.
    if not executed:
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
