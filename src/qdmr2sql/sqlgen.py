"""Mapping decomposition steps to SQL queries.

Every operator kind has one construction rule.  A rule assembles a query
from the step's linked columns, the queries already built for the steps it
references, and the foreign-key join paths that connect all the tables
involved.  Referenced queries contribute their FROM tables and WHERE
conjuncts; steps that narrow a prior step (FILTER, PROJECT, DISCARD) can
instead embed it as a nested ``IN (...)`` subquery.

PROJECT always nests: it keeps only the join conjuncts of the referenced
query in the outer WHERE and pushes everything else into the subquery.
FILTER inlines the referenced query unless doing so would conjoin two
different equality literals on the same column (the self-join case: "papers
by X" then "that by Y"); the conflict switches it to the nested form, which
realizes the intersection.  A FILTER over a LIMIT-carrying query also
nests, since inlining would reorder filtering and truncation, and so does
every other rule: the conjuncts without the LIMIT select every row.

A query is a typed, immutable tree: its predicates, grouping and ordering
hold column and aggregate expressions, never SQL text, so equal subtrees
are equal values and merged conjuncts are deduplicated by value.  A query's
text comes only from :func:`render_sql`, in a flat comma-join SQL dialect:
qualified column names, ``FROM t1, t2`` with explicit equality predicates,
``IN``/``NOT IN`` subqueries, ``GROUP BY``/``HAVING``, ``ORDER BY ...
LIMIT k``.  Identifiers that are plain, non-keyword names stay bare; any
other is double-quoted (:func:`~qdmr2sql.schema.quote_ident`).  A
comparison against an aggregated operand lands in HAVING, with the
operand's grouping preserved.  A literal the value index found is compared
as that text (``code = '1e5'``), a comparison value as the number it spells.
DISTINCT is a flag of :func:`render_sql`, not part of a query;
:func:`_distinct_keeps_rows` says when it cannot change the set of rows.
This module also writes the two statements the search runs besides a
try's own: the one that the aggregate tries over a join share under both
flags, or the projection tries over the rows of a join or of a
one-table query that nests one share (:func:`shared_statement`), and
the probes of whether a LIMIT cuts a tie (:func:`tie_probes`); and the
key by which the search tells a try that counts the rows an earlier one
counted (:func:`count_key`).

A rule reads only its step, the columns of the step's own slots
(:attr:`~qdmr2sql.linking.BindingPlan.slots`), the mapped steps it
references, the schema and its join paths.  So a :class:`StepMemo` keeps
a step's query under exactly those, across the assignments and variants
of one example; the join paths found serve a whole session.  Of a
column, the rules read only its table, whether it equals another slot's
column, and whether it can pick one of two foreign keys; the rest of it
lands in ``ColExpr`` nodes alone.  So a memo may also keep a program's
whole query under those facts, the assignment's pattern
(:class:`SlotCodes`), and a later assignment with that pattern swaps its
columns in at those nodes instead of mapping again; a subquery that
holds no swapped column is kept as it is, with its rendered text.  A
caller that may reject the query by its select list passes ``decide``,
which such a swap asks first of the query without its WHERE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain
from operator import is_
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, NamedTuple, Optional,
    Sequence, Tuple, Union,
)

from .errors import (
    ArityMismatch,
    DisconnectedTables,
    MissingJoin,
    SqlBuildError,
    UnboundPhrase,
    UnmappedReference,
)
from .joinpath import JoinPath, join_tables
from .linking import Assignment, BindingPlan, Slot
from .qdmr import OpKind, QdmrProgram, QdmrStep
from .schema import ColumnRef, SchemaGraph, quote_ident

__all__ = [
    "ColExpr",
    "AggExpr",
    "ArithExpr",
    "JoinPred",
    "CmpPred",
    "InPred",
    "OrGroup",
    "SqlQuery",
    "SlotCodes",
    "StepMemo",
    "synthesize",
    "render_sql",
    "shared_statement",
    "count_key",
    "tie_probes",
]


# --- expressions and predicates ---------------------------------------------


@dataclass(frozen=True)
class ColExpr:
    col: ColumnRef

    def render(self) -> str:
        return self.col.sql


@dataclass(frozen=True)
class AggExpr:
    fn: str  # count | sum | avg | max | min
    arg: ColExpr

    def render(self, distinct: bool = False) -> str:
        inner = f"DISTINCT {self.arg.render()}" if distinct else self.arg.render()
        return f"{self.fn.upper()}({inner})"


@dataclass(frozen=True)
class ArithExpr:
    op: str  # + | - | * | /
    left: "SqlQuery"
    right: "SqlQuery"

    def render(self) -> str:
        return f"( {render_sql(self.left)} ) {self.op} ( {render_sql(self.right)} )"


SelectItem = Union[ColExpr, AggExpr, ArithExpr]
Operand = Union[ColExpr, AggExpr]


def _sql_literal(value: Union[int, float, str]) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return repr(value)
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"


@dataclass(frozen=True)
class JoinPred:
    left: ColumnRef
    right: ColumnRef

    def render(self) -> str:
        return f"{self.left.sql} = {self.right.sql}"


@dataclass(frozen=True, eq=False)
class CmpPred:
    """``expr op value``; two are equal when they render the same, so
    ``x = 1`` and ``x = 1.0`` stay apart although ``1 == 1.0``."""

    expr: Operand
    op: str  # = | != | > | < | >= | <=
    value: Union[int, float, str]

    def __post_init__(self):
        object.__setattr__(self, "_key", (self.expr, self.op, _sql_literal(self.value)))

    def __eq__(self, other) -> bool:
        return isinstance(other, CmpPred) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def render(self) -> str:
        return f"{self.expr.render()} {self.op} {_sql_literal(self.value)}"


@dataclass(frozen=True)
class InPred:
    expr: Operand
    query: "SqlQuery"
    negated: bool = False

    def render(self) -> str:
        kw = "NOT IN" if self.negated else "IN"
        return f"{self.expr.render()} {kw} ( {render_sql(self.query)} )"


@dataclass(frozen=True)
class OrGroup:
    sides: Tuple[Tuple["Pred", ...], ...]

    def render(self) -> str:
        rendered = [" AND ".join(p.render() for p in side) for side in self.sides]
        return "( " + " OR ".join(rendered) + " )"


Pred = Union[JoinPred, CmpPred, InPred, OrGroup]


# --- queries -----------------------------------------------------------------


@dataclass(frozen=True)
class SqlQuery:
    """One SELECT statement in the flat comma-join dialect.  Its hash skips
    nested subqueries and is never kept, so it holds under any hash seed."""

    select: Tuple[SelectItem, ...] = ()
    from_tables: Tuple[str, ...] = ()
    where: Tuple[Pred, ...] = ()
    group_by: Optional[ColExpr] = None
    having: Tuple[CmpPred, ...] = ()
    order_by: Optional[Tuple[Operand, str]] = None  # (expr, "ASC" | "DESC")
    limit: Optional[int] = None

    def __hash__(self) -> int:
        return hash((self.select, self.from_tables, len(self.where), self.limit))


def _aggregates(query: SqlQuery) -> bool:
    return any(isinstance(item, AggExpr) for item in query.select)


def _items(query: SqlQuery, inside: bool) -> str:
    return ", ".join(i.render(inside) if isinstance(i, AggExpr) else i.render()
                     for i in query.select)


def render_sql(query: SqlQuery, distinct: bool = False) -> str:
    """SQL text for ``query``, without a trailing semicolon; ``distinct`` puts
    DISTINCT inside its aggregates, or on its SELECT clause if it has none.
    The plain text is rendered once, kept in the query's ``__dict__``.

    Rendering recurses into nested queries, so a query nested past
    Python's recursion limit raises :class:`SqlBuildError`; SQLite's
    parser refuses one nested a few dozen levels deep anyway."""
    text = query.__dict__.get("_text")
    if text is None:
        try:
            parts = ["SELECT " + _items(query, False)]
            if query.from_tables:
                parts.append("FROM " + ", ".join(map(quote_ident, query.from_tables)))
            if query.where:
                parts.append("WHERE " + " AND ".join(p.render() for p in query.where))
            if query.group_by is not None:
                parts.append("GROUP BY " + query.group_by.render())
            if query.having:
                parts.append("HAVING " + " AND ".join(p.render() for p in query.having))
            if query.order_by:
                parts.append(f"ORDER BY {query.order_by[0].render()} {query.order_by[1]}")
            if query.limit is not None:
                parts.append(f"LIMIT {query.limit}")
        except RecursionError:
            raise SqlBuildError("the query nests its subqueries too deeply to render") from None
        text = query.__dict__["_text"] = " ".join(parts)
    if not distinct:
        return text
    if not _aggregates(query):
        return "SELECT DISTINCT " + text[len("SELECT "):]
    return "SELECT " + _items(query, True) + text[len("SELECT " + _items(query, False)):]


def _distinct_keeps_rows(query: SqlQuery) -> bool:
    """Whether ``render_sql(query, distinct=True)`` has ``query``'s set of rows:
    not with DISTINCT inside an aggregate, a LIMIT that cuts the deduplicated
    rows, or a collation that merges cells the comparison tells apart.  A
    query that selects exactly its uncollated GROUP BY column returns one row
    per group, each distinct, so DISTINCT removes nothing, LIMIT or not."""
    if any(isinstance(item, ColExpr) and item.col.collated for item in query.select):
        return False
    return query.select == (query.group_by,) or (
        query.limit is None and not _aggregates(query)
    )


# The aggregate functions a shared statement computes: the two that the
# COUNT/SUM swap exchanges, so that a try and its swap share one.
_SHARED_FNS = ("count", "sum")


def shared_statement(
    query: SqlQuery, distinct: bool, sql: str, columns: Mapping[str, Sequence[ColumnRef]],
) -> Optional[Tuple[str, int]]:
    """The statement the try ``(query, distinct)``, whose own statement is
    ``sql``, shares, and its column that answers the try, each row's cell
    there a row of the try's result; None when the try runs its own.
    ``columns`` holds, for each table, the columns such a statement
    selects.

    A query shares when it has no GROUP BY, HAVING, ORDER BY or LIMIT.
    Its select list must then be one of:

    - one COUNT or SUM, under either flag, over a join of two or more
      tables.  The query returns exactly one row, and the statement
      computes the COUNT and the SUM of the argument without and then with
      DISTINCT inside, so it is one text under both flags; SQLite computes
      each on its own over the same rows.  Over one table SQLite reads a
      lone DISTINCT aggregate of an indexed column from its index, which
      it cannot do for two, and sharing was measured slower;
    - one plain column, without the DISTINCT flag, which ``columns``
      holds for its table, over a join, or over one table with an ``IN``
      subquery in its WHERE (:func:`_nests`).  Such a nested statement
      took 0.4-0.6 ms over a table of 1000 rows; one over one table
      without a nested query takes microseconds, and runs its own.  The
      shared statement selects those columns, so its rows are the query's
      rows, duplicates kept, each widened.

    The statement's clauses are taken from ``sql``, not rendered again."""
    if (len(query.select) != 1 or query.group_by is not None or query.having
            or query.order_by or query.limit is not None):
        return None
    item = query.select[0]
    if len(query.from_tables) < 2 and (
        distinct or not query.where or type(item) is not ColExpr or not _nests(query.where)
    ):
        return None
    if isinstance(item, ColExpr) and not distinct:
        table = columns.get(item.col.table, ())
        if item.col not in table:
            return None
        clauses = sql[len("SELECT ") + len(item.render()):]
        return "SELECT " + ", ".join(c.sql for c in table) + clauses, table.index(item.col)
    if not isinstance(item, AggExpr) or item.fn not in _SHARED_FNS:
        return None
    clauses = sql[len("SELECT ") + len(item.render(distinct)):]
    items = ", ".join(
        AggExpr(fn, item.arg).render(d) for d in (False, True) for fn in _SHARED_FNS
    )
    column = _SHARED_FNS.index(item.fn) + len(_SHARED_FNS) * distinct
    return "SELECT " + items + clauses, column


def _nests(preds: Iterable[Pred]) -> bool:
    """Whether ``preds`` hold an ``IN`` subquery, inside OR groups too."""
    for p in preds:
        if type(p) is InPred or type(p) is OrGroup and any(map(_nests, p.sides)):
            return True
    return False


class _AllRows:
    """The argument of ``COUNT(*)``, which only a :func:`count_key` holds."""

    @staticmethod
    def render() -> str:
        return "*"


_COUNT_ROWS = AggExpr("count", _AllRows())


def count_key(
    query: SqlQuery, distinct: bool, sql: str, null_free: FrozenSet[ColumnRef]
) -> Optional[str]:
    """The statement of the try ``(query, distinct)``, whose own statement
    is ``sql``, with each ``COUNT(col)`` of a column that ``null_free``
    holds as ``COUNT(*)``: in the select list, HAVING, ORDER BY and nested
    queries alike, but not ``COUNT(DISTINCT col)``, which counts values.
    None when the try has no such COUNT.

    ``COUNT(col)`` counts the rows where ``col`` is not null, so over a
    column that holds no null it counts every row: two tries with one key
    return the same rows, unless a LIMIT cuts a tie, which it then cuts in
    both, between rows whose keys are equal.  The key is written from the
    query tree (:func:`_rows_counted`), so a literal that spells a COUNT
    is never read as one.

    The usual try, whose select list is one COUNT and whose ``sql`` holds
    no other ``COUNT(`` (a literal that spells one sends it to the walk),
    keeps the clauses of ``sql`` after that COUNT, as
    :func:`shared_statement` does: the tree names the text it replaces.
    Walking and rendering the whole tree for it made the key cost 5.7 in
    place of 1.6 us a try on ``fixture`` and 19 in place of 7.8 on
    ``wide_schema``, timed over one pass's tries, and read 5.3% and 2.1%
    fewer ``examples_per_s`` there in alternating perfbench pairs (6 of 6
    and 5 of 5; 2-vCPU VM, Python 3.11)."""
    if "COUNT(" not in sql:
        return None
    select = query.select
    if (len(select) == 1 and type(select[0]) is AggExpr and select[0].fn == "count"
            and sql.count("COUNT(") == 1):
        # Under the flag it counts values.
        col = select[0].arg.col
        if distinct or col not in null_free:
            return None
        return "SELECT COUNT(*)" + sql[len("SELECT COUNT()") + len(col.sql):]
    # Under the flag DISTINCT sits inside the select list's aggregates.
    keyed = _rows_counted(query, null_free, distinct and _aggregates(query))
    return None if keyed is query else render_sql(keyed, distinct)


def _rows_counted(node, null_free: FrozenSet[ColumnRef], keep_select: bool = False):
    """``node`` with each ``COUNT(col)`` of a column in ``null_free`` as
    ``COUNT(*)``, but in a query's select list when ``keep_select``;
    ``node`` itself, with its rendered text, when it holds none."""
    kind = type(node)
    if kind is AggExpr:
        return _COUNT_ROWS if node.fn == "count" and node.arg.col in null_free else node
    if kind is CmpPred:
        expr = _rows_counted(node.expr, null_free)
        return node if expr is node.expr else CmpPred(expr, node.op, node.value)
    if kind is InPred:
        expr, query = _rows_counted(node.expr, null_free), _rows_counted(node.query, null_free)
        if expr is node.expr and query is node.query:
            return node
        return InPred(expr, query, node.negated)
    if kind is OrGroup:
        sides = [_each_rows_counted(side, null_free) for side in node.sides]
        return node if all(map(is_, sides, node.sides)) else OrGroup(tuple(sides))
    if kind is ArithExpr:
        left, right = _rows_counted(node.left, null_free), _rows_counted(node.right, null_free)
        if left is node.left and right is node.right:
            return node
        return ArithExpr(node.op, left, right)
    if kind is not SqlQuery:
        return node  # ColExpr, JoinPred
    select = node.select if keep_select else _each_rows_counted(node.select, null_free)
    where = _each_rows_counted(node.where, null_free)
    having = _each_rows_counted(node.having, null_free)
    order_by = node.order_by
    if order_by:
        key = _rows_counted(order_by[0], null_free)
        order_by = order_by if key is order_by[0] else (key, order_by[1])
    if (select is node.select and where is node.where and having is node.having
            and order_by is node.order_by):
        return node
    return SqlQuery(select, node.from_tables, where, node.group_by, having, order_by, node.limit)


def _each_rows_counted(nodes: tuple, null_free: FrozenSet[ColumnRef]) -> tuple:
    """Each of ``nodes`` :func:`_rows_counted`; ``nodes`` itself when none
    holds such a COUNT."""
    counted = [_rows_counted(n, null_free) for n in nodes]
    return nodes if all(map(is_, counted, nodes)) else tuple(counted)


def _queries(query: SqlQuery) -> Iterator[SqlQuery]:
    """``query`` and every query nested in it."""
    yield query
    preds = list(query.where)
    for pred in preds:  # grows by the conjuncts of each OR group
        if isinstance(pred, OrGroup):
            preds += [p for side in pred.sides for p in side]
    nested = [p.query for p in preds if isinstance(p, InPred)]
    nested += [q for i in query.select if isinstance(i, ArithExpr) for q in (i.left, i.right)]
    for q in nested:
        yield from _queries(q)


def tie_probes(query: SqlQuery, distinct: bool) -> Iterator[str]:
    """One statement for each LIMIT k in the try ``(query, distinct)``, in
    ``query`` or nested in it, that returns at most one row, whose first
    cell is true when the LIMIT cuts a tie: when rows k and k + 1 of its
    query, read as it runs (row DISTINCT included), have ORDER BY keys
    that are equal under ``IS``, under the key's collation and with nulls
    equal.  A LIMIT without an ORDER BY key cuts a tie whenever its query
    has more than k rows."""
    for q in _queries(query):
        if q.limit is None:
            continue
        key = q.order_by[:1] if q.order_by else ()
        probe = replace(q, select=q.select + key, limit=q.limit + 1)
        sql = render_sql(probe, distinct and q is query and not _aggregates(probe))
        if not key:
            yield f"SELECT count(*) > {q.limit} FROM ({sql})"
            continue
        # Whether the key of row k + 1 IS that of row k, in key order.
        cols = [f"c{i}" for i in range(len(probe.select))]
        last = cols[-1]
        yield (f"WITH p({', '.join(cols)}) AS ({sql}) SELECT t FROM"
               f" (SELECT {last} IS lag({last}) OVER w AS t, row_number() OVER w"
               f" AS r FROM p WINDOW w AS (ORDER BY {last} {q.order_by[1]}))"
               f" WHERE r = {q.limit + 1}")


@dataclass(frozen=True, eq=False)
class _MappedStep:
    """A step's linked columns and constructed query; equal only to itself,
    so a :class:`StepMemo` key holds the steps a step references by
    identity."""

    cols: frozenset
    query: SqlQuery


# --- construction helpers ----------------------------------------------------


def _typed(text: str) -> Union[int, float, str]:
    """The number a comparison value ``text`` spells, or ``text`` itself.

    Only finite numerals without ``_`` separators count: ``nan`` and
    ``inf`` have no SQL literal, and SQL does not read ``1_000`` as a
    number, so all three are compared as text.
    """
    if "_" not in text:
        try:
            return int(text)
        except ValueError:
            pass
        try:
            value = float(text)
        except ValueError:
            return text
        if math.isfinite(value):
            return value
    return text


def _item_expr(item: SelectItem) -> Operand:
    if isinstance(item, (AggExpr, ColExpr)):
        return item
    raise ArityMismatch("operand has no addressable select expression")


def _merged(*groups: Iterable) -> tuple:
    """The items of ``groups`` in order, each distinct value once."""
    return tuple(dict.fromkeys(chain(*groups)))


# A join path's key: the tables covered, the tables to reach and the anchors
# that can pick its edges (``SchemaGraph.parallel_columns``).  A key whose
# tables no path connects keeps the reason.
JoinKey = Tuple[FrozenSet[str], FrozenSet[str], FrozenSet[ColumnRef]]
JoinPaths = Dict[JoinKey, Union[JoinPath, str]]


def _join_units(
    ctx: "_Context",
    units: Sequence[Tuple[Sequence[str], Iterable[ColumnRef]]],
) -> Tuple[Tuple[str, ...], List[JoinPred]]:
    """Connect every unit (tables, anchor columns) into one component.

    Returns the FROM tables, the units' own in order and then those the
    join paths add, and the join conjuncts of those paths.  Each path is
    searched once per key, with every anchor, and kept in ``ctx.paths``.
    """
    own_tables = [tables for tables, _ in units]
    units = [u for u in units if u[0]]
    if len(units) < 2:
        return _merged(*own_tables), []
    paths: List[JoinPath] = []
    covered = set(units[0][0])
    anchors = picks = None  # built once a unit needs a join path
    for tables, _ in units[1:]:
        if not covered.isdisjoint(tables):
            covered.update(tables)
            continue
        if anchors is None:
            anchors = frozenset(c for _, cols in units for c in cols)
            picks = anchors & ctx.schema.parallel_columns
        key = (frozenset(covered), frozenset(tables), picks)
        path = ctx.paths.get(key)
        if path is None:
            try:
                path = join_tables(ctx.schema, covered, tables, anchors)
            except DisconnectedTables as exc:
                path = str(exc)
            ctx.paths[key] = path
        if isinstance(path, str):
            raise MissingJoin(path)
        paths.append(path)
        covered.update(tables, path.tables)
    joins = [JoinPred(e.source, e.target) for p in paths for e in p.edges]
    return _merged(*own_tables, *(p.tables for p in paths)), joins


def _join_conjuncts(query: SqlQuery) -> List[Pred]:
    return [p for p in query.where if isinstance(p, JoinPred)]


def _vacuous(p: Pred) -> bool:
    # x IN (SELECT x FROM t) with an unrestricted subquery always holds.
    if not isinstance(p, InPred) or p.negated:
        return False
    q = p.query
    if q.where or q.group_by or q.having or q.order_by or q.limit is not None:
        return False
    return len(q.select) == 1 and q.select[0] == p.expr


def _inherited(preds: Sequence[Pred]) -> Tuple[Pred, ...]:
    return tuple(p for p in preds if not _vacuous(p))


@dataclass(frozen=True)
class _Context:
    """What the rules read besides their own step.

    ``columns`` is the assignment's map from slot to column; rules look a
    column up under a plain ``(step, text)`` tuple, which finds the
    ``Slot`` key (a NamedTuple hashes and compares as a tuple) and costs
    less to build.  ``slots`` is the plan's own slots of each step,
    ``mapped`` holds the steps mapped so far, ``paths`` the join paths
    found so far.
    """

    columns: Mapping[Tuple[Optional[int], str], ColumnRef]
    slots: Mapping[int, Tuple[Slot, ...]]
    mapped: Dict[int, _MappedStep]
    schema: SchemaGraph
    paths: JoinPaths

    def column(self, step: QdmrStep, text: str) -> ColumnRef:
        col = self.columns.get((step.index, text))
        if col is None:
            raise UnboundPhrase(f"step {step.index} has no column bound for {text!r}")
        return col

    def literals(self, step: QdmrStep) -> List[Tuple[str, ColumnRef]]:
        found = []
        for slot in self.slots.get(step.index, ()):
            if slot.step is None:
                col = self.columns.get(slot)
                if col is None:
                    raise UnboundPhrase(
                        f"step {step.index} has no column bound for value {slot.text!r}"
                    )
                found.append((slot.text, col))
        return found

    def built(self, n: Optional[int]) -> _MappedStep:
        """Step ``n`` as mapped, for the rules that nest its query whole."""
        if n is None or n not in self.mapped:
            raise UnmappedReference(f"reference #{n} has not been mapped")
        return self.mapped[n]

    def ref(self, n: Optional[int]) -> _MappedStep:
        """Step ``n`` for a rule that merges its conjuncts, read through
        ``head IN ( ... LIMIT k )`` when it ends in a LIMIT."""
        m = self.built(n)
        if m.query.limit is None:
            return m
        return _MappedStep(m.cols, _resolve_self_join(m, m.query.from_tables, ()))

    def operand(self, step: QdmrStep, arg: Union[int, str]):
        """A mapped reference, or the column bound to a phrase of ``step``."""
        if isinstance(arg, int):
            m = self.ref(arg)
            return m.query.select[0], m.query.from_tables, m, list(m.cols)
        col = self.column(step, arg)
        return ColExpr(col), (col.table,), None, [col]


def _resolve_self_join(
    base: _MappedStep, from_tables: Tuple[str, ...], own_preds: Sequence[Pred]
) -> SqlQuery:
    """Narrow ``base`` through a nested subquery instead of inlining it.

    The outer query keeps only the join conjuncts of the referenced query;
    literal predicates and prior nestings stay inside the subquery, and the
    referenced select expression is constrained with ``IN``.
    """
    nested = InPred(_item_expr(base.query.select[0]), base.query)
    return SqlQuery(
        select=base.query.select,
        from_tables=from_tables,
        where=_merged(_join_conjuncts(base.query), own_preds, [nested]),
    )


# --- per-operator construction ----------------------------------------------
#
# Every rule takes ``(step, ctx)`` and returns the step's query and the
# columns it links; ``_RULES`` maps each operator kind to its rule.

Built = Tuple[SqlQuery, List[ColumnRef]]


def _build_select(step: QdmrStep, ctx: _Context) -> Built:
    literals = ctx.literals(step)
    if literals:
        q = SqlQuery(
            select=(ColExpr(literals[0][1]),),
            from_tables=_merged(c.table for _, c in literals),
            where=_merged(CmpPred(ColExpr(c), "=", t) for t, c in literals),
        )
        return q, [c for _, c in literals]
    col = ctx.column(step, step.shape.phrase)
    return SqlQuery(select=(ColExpr(col),), from_tables=(col.table,)), [col]


def _build_filter(step: QdmrStep, ctx: _Context) -> Built:
    base = ctx.built(step.shape.base)
    literals = ctx.literals(step)
    extra = [ctx.ref(r) for r in step.shape.extra_refs]
    if not literals and not extra:
        if step.shape.tail:
            raise UnboundPhrase(
                f"step {step.index}: no database value matches {step.shape.tail!r}"
            )
        return base.query, list(base.cols)

    own_preds = [CmpPred(ColExpr(c), "=", t) for t, c in literals]
    own_cols = [c for _, c in literals]
    units = [(base.query.from_tables, base.cols)]
    units += [([c.table], [c]) for c in own_cols]
    units += [(m.query.from_tables, m.cols) for m in extra]
    from_tables, joins = _join_units(ctx, units)

    conflict = any(
        isinstance(p, CmpPred)
        and p.op == "="
        and p.expr == own.expr
        and p.value != own.value
        for p in base.query.where
        for own in own_preds
    )
    if conflict or base.query.limit is not None:
        q = _resolve_self_join(base, from_tables, joins + own_preds)
        return q, own_cols or list(base.cols)

    q = SqlQuery(
        select=base.query.select,
        from_tables=from_tables,
        where=_merged(
            _inherited(base.query.where),
            *(_inherited(m.query.where) for m in extra),
            joins,
            own_preds,
        ),
        group_by=base.query.group_by,
        having=base.query.having,
        order_by=base.query.order_by,
    )
    return q, own_cols or list(base.cols)


def _build_project(step: QdmrStep, ctx: _Context) -> Built:
    col = ctx.column(step, step.shape.phrase)
    base = ctx.built(step.shape.base)
    extras = [ctx.ref(r) for r in step.shape.extra_refs]
    units = [([col.table], [col]), (base.query.from_tables, base.cols)]
    units += [(m.query.from_tables, m.cols) for m in extras]
    from_tables, joins = _join_units(ctx, units)

    q = SqlQuery(
        select=(ColExpr(col),),
        from_tables=from_tables,
        where=_merged(
            *(_join_conjuncts(m.query) for m in [base] + extras),
            joins,
            [InPred(_item_expr(base.query.select[0]), base.query)],
        ),
    )
    return q, [col]


def _build_aggregate(step: QdmrStep, ctx: _Context) -> Built:
    base = ctx.ref(step.shape.base)
    head = base.query.select[0]
    if not isinstance(head, ColExpr):
        raise ArityMismatch(
            f"step {step.index}: cannot aggregate over an aggregated operand"
        )
    q = SqlQuery(
        select=(AggExpr(step.operator.aggregate_fn, head),),
        from_tables=base.query.from_tables,
        where=_inherited(base.query.where),
        group_by=base.query.group_by,
    )
    return q, list(base.cols)


def _build_group(step: QdmrStep, ctx: _Context) -> Built:
    value_expr, value_tables, value_ref, value_cols = ctx.operand(step, step.shape.value)
    key_expr, key_tables, key_ref, key_cols = ctx.operand(step, step.shape.key)
    if not isinstance(value_expr, ColExpr):
        raise ArityMismatch(f"step {step.index}: grouped value is already aggregated")
    if not isinstance(key_expr, ColExpr):
        raise ArityMismatch(f"step {step.index}: grouping key is not a column")
    units = [(value_tables, value_cols), (key_tables, key_cols)]
    from_tables, joins = _join_units(ctx, units)

    q = SqlQuery(
        select=(AggExpr(step.operator.aggregate_fn, value_expr),),
        from_tables=from_tables,
        where=_merged(
            *(_inherited(m.query.where) for m in (value_ref, key_ref) if m), joins
        ),
        group_by=key_expr,
    )
    return q, value_cols + key_cols


def _build_superlative(step: QdmrStep, ctx: _Context) -> Built:
    entity = ctx.ref(step.shape.entity)
    measure = ctx.ref(step.shape.measure)
    units = [(m.query.from_tables, m.cols) for m in (entity, measure)]
    from_tables, joins = _join_units(ctx, units)

    direction = "DESC" if step.operator.aggregate_fn == "max" else "ASC"
    q = SqlQuery(
        select=entity.query.select,
        from_tables=from_tables,
        where=_merged(
            _inherited(entity.query.where), _inherited(measure.query.where), joins
        ),
        group_by=entity.query.group_by or measure.query.group_by,
        having=entity.query.having + measure.query.having,
        order_by=(_item_expr(measure.query.select[0]), direction),
        limit=step.operator.k,
    )
    return q, list(entity.cols)


def _build_comparative(step: QdmrStep, ctx: _Context) -> Built:
    base = ctx.ref(step.shape.base)
    target_expr, target_tables, target_ref, target_cols = ctx.operand(
        step, step.shape.target
    )
    units = [(base.query.from_tables, base.cols), (target_tables, target_cols)]
    from_tables, joins = _join_units(ctx, units)

    where = [_inherited(base.query.where)]
    if target_ref is not None:
        where.append(_inherited(target_ref.query.where))
    where.append(joins)
    group_by, having = base.query.group_by, base.query.having
    value = _typed(step.shape.cmp_value or "")
    if isinstance(target_expr, AggExpr):
        # Aggregate comparisons are HAVING conditions over the operand's
        # grouping, which must survive into this query.
        group_by = (target_ref.query.group_by if target_ref else None) or group_by
        having += (CmpPred(target_expr, step.operator.comparator, value),)
    else:
        cmp = CmpPred(_item_expr(target_expr), step.operator.comparator, value)
        where.append([cmp])
    q = SqlQuery(
        select=base.query.select,
        from_tables=from_tables,
        where=_merged(*where),
        group_by=group_by,
        having=having,
    )
    return q, list(base.cols) + target_cols


def _build_union(step: QdmrStep, ctx: _Context) -> Built:
    members = [ctx.ref(r) for r in step.shape.refs]
    if len(members) < 2:
        raise SqlBuildError(f"step {step.index}: union needs two operands")
    units = [(m.query.from_tables, m.cols) for m in members]
    from_tables, joins = _join_units(ctx, units)

    sides = tuple(_inherited(m.query.where) for m in members)
    q = SqlQuery(
        select=members[0].query.select,
        from_tables=from_tables,
        where=_merged(joins) + ((OrGroup(sides=sides),) if all(sides) else ()),
    )
    return q, [c for m in members for c in m.cols]


def _build_union_column(step: QdmrStep, ctx: _Context) -> Built:
    members = [ctx.ref(r) for r in step.shape.refs]
    units = [(m.query.from_tables, m.cols) for m in members]
    from_tables, joins = _join_units(ctx, units)

    q = SqlQuery(
        select=tuple(m.query.select[0] for m in members),
        from_tables=from_tables,
        where=_merged(joins, *(_inherited(m.query.where) for m in members)),
    )
    return q, [c for m in members for c in m.cols]


def _build_intersect(step: QdmrStep, ctx: _Context) -> Built:
    left = ctx.ref(step.shape.left)
    right = ctx.ref(step.shape.right)
    # Without a head phrase, intersect on the left's column.
    if step.shape.head:
        col = ctx.column(step, step.shape.head)
    else:
        head = left.query.select[0]
        if not isinstance(head, ColExpr):
            raise ArityMismatch(f"step {step.index}: no head column to intersect on")
        col = head.col
    units = [([col.table], [col])]
    units += [(m.query.from_tables, m.cols) for m in (left, right)]
    from_tables, joins = _join_units(ctx, units)

    head = ColExpr(col)
    inner = SqlQuery(
        select=(head,),
        from_tables=from_tables,
        where=_merged(joins, _inherited(right.query.where)),
    )
    q = SqlQuery(
        select=(head,),
        from_tables=from_tables,
        where=_merged(joins, _inherited(left.query.where), [InPred(head, inner)]),
    )
    return q, [col]


def _build_sort(step: QdmrStep, ctx: _Context) -> Built:
    base = ctx.ref(step.shape.base)
    key_expr, key_tables, _, key_cols = ctx.operand(step, step.shape.key)
    units = [(base.query.from_tables, base.cols), (key_tables, key_cols)]
    from_tables, joins = _join_units(ctx, units)

    direction = "DESC" if step.operator.direction == "desc" else "ASC"
    q = SqlQuery(
        select=base.query.select,
        from_tables=from_tables,
        # The key operand orders rows; its own restrictions do not apply.
        where=_merged(_inherited(base.query.where), joins),
        group_by=base.query.group_by,
        having=base.query.having,
        order_by=(_item_expr(key_expr), direction),
    )
    return q, list(base.cols)


def _build_discard(step: QdmrStep, ctx: _Context) -> Built:
    base = ctx.ref(step.shape.base)
    excluded = ctx.ref(step.shape.right)
    head = _item_expr(base.query.select[0])
    q = SqlQuery(
        select=base.query.select,
        from_tables=base.query.from_tables,
        where=_merged(
            _inherited(base.query.where), [InPred(head, excluded.query, negated=True)]
        ),
    )
    return q, list(base.cols)


def _scalar(query: SqlQuery, index: int) -> None:
    if len(query.select) != 1 or query.group_by is not None:
        raise ArityMismatch(f"step {index}: arithmetic operand is not scalar")
    if not isinstance(query.select[0], (AggExpr, ArithExpr)):
        raise ArityMismatch(f"step {index}: arithmetic operand is not scalar")


def _build_arithmetic(step: QdmrStep, ctx: _Context) -> Built:
    left = ctx.ref(step.shape.left)
    right = ctx.ref(step.shape.right)
    _scalar(left.query, step.index)
    _scalar(right.query, step.index)
    q = SqlQuery(select=(ArithExpr(step.operator.arith_op, left.query, right.query),))
    return q, list(left.cols) + list(right.cols)


_RULES: Dict[OpKind, Callable[[QdmrStep, _Context], Built]] = {
    OpKind.SELECT: _build_select,
    OpKind.FILTER: _build_filter,
    OpKind.PROJECT: _build_project,
    OpKind.AGGREGATE: _build_aggregate,
    OpKind.GROUP: _build_group,
    OpKind.SUPERLATIVE: _build_superlative,
    OpKind.COMPARATIVE: _build_comparative,
    OpKind.UNION: _build_union,
    OpKind.UNION_COLUMN: _build_union_column,
    OpKind.INTERSECT: _build_intersect,
    OpKind.SORT: _build_sort,
    OpKind.DISCARD: _build_discard,
    OpKind.ARITHMETIC: _build_arithmetic,
}


# --- the pattern memo ---------------------------------------------------------


class SlotCodes:
    """What a mapped program's shape reads of an assignment, as small ints.

    A rule reads a slot's column for its table, for the join-path anchors
    it adds, of which only a column in
    :attr:`~qdmr2sql.schema.SchemaGraph.parallel_columns` can pick an
    edge, and for whether it equals another slot's column (merged
    conjuncts, a FILTER's conflicting literals, a select list equal to its
    GROUP BY).  Every ``ColExpr`` of a mapped query holds a slot's column,
    and a join conjunct holds none, so two assignments with one
    :meth:`key` map a program to queries that differ only in the columns
    of their ``ColExpr`` nodes, or fail alike.

    Made for a list of slots with their options.  On the first
    :meth:`key`, each option gets a number, equal for equal columns,
    looked up by the option's identity (the options are kept, so no other
    object takes one's ``id``), and each number a code: its table's
    number, or, for a parallel column, its own.
    """

    def __init__(
        self, slots: Sequence[Tuple[Slot, Sequence[ColumnRef]]], schema: SchemaGraph
    ):
        self.slots = tuple(slot for slot, _ in slots)
        self.options = [options for _, options in slots]  # keeps the ids alive
        self.parallel = schema.parallel_columns
        self.numbers: Optional[Dict[int, int]] = None

    def _number(self) -> None:
        numbers: Dict[ColumnRef, int] = {}
        for col in chain.from_iterable(self.options):
            numbers.setdefault(col, len(numbers))
        tables: Dict[str, int] = {}
        self.codes = tuple(
            ~n if col in self.parallel else tables.setdefault(col.table, len(tables))
            for col, n in numbers.items()
        )
        self.numbers = {id(col): numbers[col] for col in chain.from_iterable(self.options)}

    def key(self, assignment: Assignment) -> Tuple[Optional[tuple], tuple]:
        """The assignment's pattern: each slot's code, then the first slot
        that holds its column; None when a slot holds an object that is
        no option.  And the slots' columns, in order."""
        if self.numbers is None:
            self._number()
        cols = tuple(map(assignment.columns.get, self.slots))
        numbers = tuple(map(self.numbers.get, map(id, cols)))
        if None in numbers:
            return None, cols
        return (*map(self.codes.__getitem__, numbers), *map(numbers.index, numbers)), cols


class _Pattern(NamedTuple):
    """A program mapped under one pattern: its query and the columns of
    the slots it was mapped from, in :attr:`SlotCodes.slots` order."""

    query: SqlQuery
    cols: tuple


_NO_COLUMNS: FrozenSet[ColumnRef] = frozenset()


def _parts(node) -> Iterable:
    """The expressions, predicates and queries directly inside ``node``."""
    kind = type(node)
    if kind is SqlQuery:
        parts = [*node.select, *node.where, *node.having]
        if node.group_by is not None:
            parts.append(node.group_by)
        if node.order_by:
            parts.append(node.order_by[0])
        return parts
    if kind is AggExpr:
        return (node.arg,)
    if kind is CmpPred:
        return (node.expr,)
    if kind is InPred:
        return (node.expr, node.query)
    if kind is OrGroup:
        return chain.from_iterable(node.sides)
    if kind is ArithExpr:
        return (node.left, node.right)
    return ()  # JoinPred: its columns are no slot's


def _columns(node) -> FrozenSet[ColumnRef]:
    """The columns of the ``ColExpr`` nodes in ``node``, nested queries
    included; kept in its ``__dict__``, as :func:`render_sql` keeps text."""
    cols = node.__dict__.get("_cols")
    if cols is None:
        if type(node) is ColExpr:
            cols = frozenset((node.col,))
        else:
            cols = _NO_COLUMNS.union(*map(_columns, _parts(node)))
        node.__dict__["_cols"] = cols
    return cols


def _swapper(swap: Mapping[ColumnRef, ColumnRef]) -> Callable:
    """A function from a node to the node with each ``ColExpr`` column
    that ``swap`` holds swapped for its value; a node that holds none is
    returned as it is, with its rendered text."""
    changed = frozenset(swap)

    def swapped(node):
        if _columns(node).isdisjoint(changed):
            return node
        kind = type(node)
        if kind is ColExpr:
            return ColExpr(swap[node.col])
        if kind is AggExpr:
            return AggExpr(node.fn, swapped(node.arg))
        if kind is CmpPred:
            return CmpPred(swapped(node.expr), node.op, node.value)
        if kind is InPred:
            return InPred(swapped(node.expr), swapped(node.query), node.negated)
        if kind is OrGroup:
            return OrGroup(tuple(tuple(map(swapped, side)) for side in node.sides))
        if kind is ArithExpr:
            return ArithExpr(node.op, swapped(node.left), swapped(node.right))
        return _swapped_query(node, swapped, tuple(map(swapped, node.where)))

    return swapped


def _swapped_query(query: SqlQuery, swapped: Callable, where: Tuple[Pred, ...]) -> SqlQuery:
    """``query`` with its clauses but WHERE ``swapped``, and ``where``."""
    order_by = query.order_by
    return SqlQuery(
        tuple(map(swapped, query.select)),
        query.from_tables,
        where,
        None if query.group_by is None else swapped(query.group_by),
        tuple(map(swapped, query.having)) if query.having else (),
        order_by and (swapped(order_by[0]), order_by[1]),
        query.limit,
    )


def _substituted(
    kept: _Pattern, cols: tuple, decide: Optional[Callable[[SqlQuery], bool]]
) -> Optional[SqlQuery]:
    """``kept.query`` with the columns ``cols`` in place of ``kept.cols``;
    None when ``decide`` holds for it without its WHERE, which is then
    not built."""
    swapped = _swapper({old: new for old, new in zip(kept.cols, cols) if old is not new})
    query = kept.query
    if decide is None:
        return swapped(query)
    head = _swapped_query(query, swapped, ())
    if decide(head):
        return None
    where = tuple(map(swapped, query.where))
    return SqlQuery(head.select, head.from_tables, where, head.group_by, head.having,
                    head.order_by, head.limit)


class StepMemo(NamedTuple):
    """The mapped steps of one example, which all its variants share, and
    the patterns of one of its programs.

    ``steps`` keeps each step but a program's last under what its rule
    reads: the step's number and text, the columns of its own slots in
    the example's plan (:attr:`~qdmr2sql.linking.BindingPlan.slots`), and
    the mapped steps it references, by identity.  ``paths``, the join-path
    memo, holds only what the schema decides.  A memo with ``codes``, the
    plan's slots with the options their columns come from, serves one
    program, and ``patterns`` keeps it under each pattern of an
    assignment (:meth:`SlotCodes.key`): its query and the columns it was
    mapped from, or its failure's type and message.  A pattern's first
    assignment maps through ``steps`` as a memo without ``codes`` does;
    every later one maps no step.
    """

    steps: Dict[tuple, _MappedStep]
    paths: JoinPaths
    codes: Optional[SlotCodes] = None
    patterns: Optional[Dict[tuple, Union[_Pattern, Tuple[type, str]]]] = None


def synthesize(
    program: QdmrProgram,
    schema: SchemaGraph,
    assignment: Assignment,
    plan: BindingPlan,
    memo: Optional[StepMemo] = None,
    decide: Optional[Callable[[SqlQuery], bool]] = None,
) -> Optional[SqlQuery]:
    """Map every step in order and return the final step's query.

    With a ``memo`` kept for this plan, a step already mapped from the
    same text, columns of its own slots and referenced steps is taken from
    it, and join paths from its ``paths``.  Without one, the steps map
    through a fresh memo, which finds nothing: each key holds its step's
    number.  A step that fails is not kept, so it fails again, with the
    same error, wherever it recurs.

    With the memo's ``codes``, a program already mapped under the
    assignment's pattern is not mapped again: its failure is raised again,
    or its query gets the assignment's columns in place of those it was
    mapped from, at its ``ColExpr`` nodes alone.  There ``decide``, when
    given, is first asked of the query without its WHERE, and when it
    holds, None is returned and the WHERE is not built.
    """
    if memo is None:
        memo = StepMemo({}, {})
    key = None
    if memo.codes is not None:
        key, cols = memo.codes.key(assignment)
        kept = None if key is None else memo.patterns.get(key)
        if type(kept) is _Pattern:
            try:
                return _substituted(kept, cols, decide)
            except RecursionError:
                pass  # nested too deeply to walk: mapped afresh below
        elif kept is not None:
            raise kept[0](kept[1])
    try:
        query = _map_steps(program, schema, assignment, plan, memo)
    except SqlBuildError as exc:
        if key is not None:
            memo.patterns[key] = (type(exc), str(exc))
        raise
    if key is not None:
        memo.patterns[key] = _Pattern(query, cols)
    return query


def _map_steps(
    program: QdmrProgram,
    schema: SchemaGraph,
    assignment: Assignment,
    plan: BindingPlan,
    memo: StepMemo,
) -> SqlQuery:
    columns, kept, slots = assignment.columns, memo.steps, plan.slots
    ctx = _Context(columns, slots, {}, schema, memo.paths)
    mapped = ctx.mapped
    *steps, last = program.steps
    for step in steps:
        own = map(columns.get, slots.get(step.index, ()))
        key = (step.index, step.raw_text, *own, *map(mapped.get, step.ref_args))
        m = kept.get(key)
        if m is None:
            q, cols = _RULES[step.operator.kind](step, ctx)
            m = kept[key] = _MappedStep(frozenset(cols), q)
        mapped[step.index] = m
    return _RULES[last.operator.kind](last, ctx)[0]
