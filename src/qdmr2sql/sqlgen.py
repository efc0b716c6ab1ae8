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
nests, since inlining would reorder filtering and truncation.

A query is a typed, immutable tree: its predicates, grouping and ordering
hold column and aggregate expressions, never SQL text, so equal subtrees
are equal values and merged conjuncts are deduplicated by value.  Text
appears only in :func:`render_sql`, in a flat comma-join SQL dialect:
qualified column names, ``FROM t1, t2`` with explicit equality predicates,
``IN``/``NOT IN`` subqueries, ``GROUP BY``/``HAVING``, ``ORDER BY ...
LIMIT k``.  Identifiers that are plain, non-keyword names stay bare; any
other is double-quoted (:func:`~qdmr2sql.schema.quote_ident`).  A
comparison against an aggregated operand lands in HAVING, with the
operand's grouping preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import (
    ArityMismatch,
    DisconnectedTables,
    MissingJoin,
    SqlBuildError,
    UnboundPhrase,
    UnmappedReference,
)
from .joinpath import JoinPath, join_tables
from .linking import Assignment, BindingPlan
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
    "synthesize",
    "render_sql",
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

    def _key(self) -> tuple:
        return (self.expr, self.op, _sql_literal(self.value))

    def __eq__(self, other) -> bool:
        return isinstance(other, CmpPred) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

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
    """One SELECT statement in the flat comma-join dialect."""

    select: Tuple[SelectItem, ...] = ()
    from_tables: Tuple[str, ...] = ()
    where: Tuple[Pred, ...] = ()
    group_by: Optional[ColExpr] = None
    having: Tuple[CmpPred, ...] = ()
    order_by: Optional[Tuple[Operand, str]] = None  # (expr, "ASC" | "DESC")
    limit: Optional[int] = None
    distinct: bool = False


def render_sql(query: SqlQuery) -> str:
    """Render a query to SQL text (no trailing semicolon)."""
    has_agg = any(isinstance(i, AggExpr) for i in query.select)
    distinct_inside = query.distinct and has_agg
    parts = []
    items = []
    for item in query.select:
        if isinstance(item, AggExpr):
            items.append(item.render(distinct=distinct_inside))
        else:
            items.append(item.render())
    prefix = "SELECT DISTINCT " if (query.distinct and not distinct_inside) else "SELECT "
    parts.append(prefix + ", ".join(items))
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
    return " ".join(parts)


@dataclass(frozen=True)
class _MappedStep:
    """A step's linked columns and constructed query."""

    cols: frozenset
    query: SqlQuery


# --- construction helpers ----------------------------------------------------


def _typed(text: str) -> Union[int, float, str]:
    """The number ``text`` spells, or ``text`` itself.

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


def _join_units(
    schema: SchemaGraph,
    units: Sequence[Tuple[Sequence[str], Iterable[ColumnRef]]],
) -> Tuple[Tuple[str, ...], List[JoinPred]]:
    """Connect every unit (tables, anchor columns) into one component.

    Returns the FROM tables, the units' own in order and then those the
    join paths add, and the join conjuncts of those paths.
    """
    own_tables = [tables for tables, _ in units]
    units = [u for u in units if u[0]]
    if len(units) < 2:
        return _merged(*own_tables), []
    paths: List[JoinPath] = []
    covered = set(units[0][0])
    anchors = frozenset(c for _, cols in units for c in cols)
    for tables, _ in units[1:]:
        if set(tables) & covered:
            covered |= set(tables)
            continue
        try:
            path = join_tables(schema, covered, tables, anchors)
        except DisconnectedTables as exc:
            raise MissingJoin(str(exc)) from exc
        paths.append(path)
        covered |= set(tables) | set(path.tables)
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
    return len(q.select) == 1 and not q.distinct and q.select[0] == p.expr


def _inherited(preds: Sequence[Pred]) -> Tuple[Pred, ...]:
    return tuple(p for p in preds if not _vacuous(p))


class _Binder:
    """Resolves one step's column and literal bindings from an assignment."""

    def __init__(self, plan: BindingPlan, assignment: Assignment):
        self._roles: Dict[Tuple[int, str], List[ColumnRef]] = {}
        for idx, role, phrase in plan.phrase_slots:
            col = assignment.choices.get((idx, phrase))
            if col is not None:
                self._roles.setdefault((idx, role), []).append(col)
        self._literals: Dict[int, List[Tuple[str, ColumnRef]]] = {}
        for idx, texts in plan.step_literals.items():
            resolved = []
            for text in texts:
                col = assignment.literal_choices.get(text)
                if col is not None:
                    resolved.append((text, col))
            self._literals[idx] = resolved

    def role(self, step_index: int, role: str) -> Optional[ColumnRef]:
        cols = self._roles.get((step_index, role))
        return cols[0] if cols else None

    def require(self, step_index: int, role: str) -> ColumnRef:
        col = self.role(step_index, role)
        if col is None:
            raise UnboundPhrase(
                f"step {step_index} has no column bound for its {role} phrase"
            )
        return col

    def literals(self, step_index: int) -> List[Tuple[str, ColumnRef]]:
        return self._literals.get(step_index, [])


def _ref(mapped: Dict[int, _MappedStep], n: Optional[int]) -> _MappedStep:
    if n is None or n not in mapped:
        raise UnmappedReference(f"reference #{n} has not been mapped")
    return mapped[n]


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


def _build_select(step: QdmrStep, binder: _Binder) -> Tuple[SqlQuery, List[ColumnRef]]:
    literals = binder.literals(step.index)
    if literals:
        q = SqlQuery(
            select=(ColExpr(literals[0][1]),),
            from_tables=_merged(c.table for _, c in literals),
            where=_merged(CmpPred(ColExpr(c), "=", _typed(t)) for t, c in literals),
        )
        return q, [c for _, c in literals]
    col = binder.require(step.index, "select")
    return SqlQuery(select=(ColExpr(col),), from_tables=(col.table,)), [col]


def _build_filter(
    step: QdmrStep,
    binder: _Binder,
    mapped: Dict[int, _MappedStep],
    schema: SchemaGraph,
) -> Tuple[SqlQuery, List[ColumnRef]]:
    base = _ref(mapped, step.shape.base)
    literals = binder.literals(step.index)
    extra = [_ref(mapped, r) for r in step.shape.extra_refs]
    if not literals and not extra:
        if step.shape.tail:
            raise UnboundPhrase(
                f"step {step.index}: no database value matches {step.shape.tail!r}"
            )
        return base.query, list(base.cols)

    own_preds = [CmpPred(ColExpr(c), "=", _typed(t)) for t, c in literals]
    own_cols = [c for _, c in literals]
    units = [(base.query.from_tables, base.cols)]
    units += [([c.table], [c]) for c in own_cols]
    units += [(m.query.from_tables, m.cols) for m in extra]
    from_tables, joins = _join_units(schema, units)

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


def _build_project(
    step: QdmrStep,
    binder: _Binder,
    mapped: Dict[int, _MappedStep],
    schema: SchemaGraph,
) -> Tuple[SqlQuery, List[ColumnRef]]:
    col = binder.require(step.index, "project")
    base = _ref(mapped, step.shape.base)
    extras = [_ref(mapped, r) for r in step.shape.extra_refs]
    units = [([col.table], [col]), (base.query.from_tables, base.cols)]
    units += [(m.query.from_tables, m.cols) for m in extras]
    from_tables, joins = _join_units(schema, units)

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


def _build_aggregate(
    step: QdmrStep, mapped: Dict[int, _MappedStep]
) -> Tuple[SqlQuery, List[ColumnRef]]:
    base = _ref(mapped, step.shape.base)
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


def _operand(
    arg, role: str, step: QdmrStep, binder: _Binder, mapped: Dict[int, _MappedStep]
):
    """An operand is either a mapped reference or a directly bound column."""
    if isinstance(arg, int):
        m = _ref(mapped, arg)
        return m.query.select[0], m.query.from_tables, m, list(m.cols)
    col = binder.require(step.index, role)
    return ColExpr(col), (col.table,), None, [col]


def _build_group(
    step: QdmrStep,
    binder: _Binder,
    mapped: Dict[int, _MappedStep],
    schema: SchemaGraph,
) -> Tuple[SqlQuery, List[ColumnRef]]:
    value_expr, value_tables, value_ref, value_cols = _operand(
        step.shape.value, "group_value", step, binder, mapped
    )
    key_expr, key_tables, key_ref, key_cols = _operand(
        step.shape.key, "group_key", step, binder, mapped
    )
    if not isinstance(value_expr, ColExpr):
        raise ArityMismatch(f"step {step.index}: grouped value is already aggregated")
    if not isinstance(key_expr, ColExpr):
        raise ArityMismatch(f"step {step.index}: grouping key is not a column")
    units = [(value_tables, value_cols), (key_tables, key_cols)]
    from_tables, joins = _join_units(schema, units)

    q = SqlQuery(
        select=(AggExpr(step.operator.aggregate_fn, value_expr),),
        from_tables=from_tables,
        where=_merged(
            *(_inherited(m.query.where) for m in (value_ref, key_ref) if m), joins
        ),
        group_by=key_expr,
    )
    return q, value_cols + key_cols


def _build_superlative(
    step: QdmrStep, mapped: Dict[int, _MappedStep], schema: SchemaGraph
) -> Tuple[SqlQuery, List[ColumnRef]]:
    entity = _ref(mapped, step.shape.entity)
    measure = _ref(mapped, step.shape.measure)
    units = [(m.query.from_tables, m.cols) for m in (entity, measure)]
    from_tables, joins = _join_units(schema, units)

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
        limit=step.operator.k or 1,
    )
    return q, list(entity.cols)


def _build_comparative(
    step: QdmrStep,
    binder: _Binder,
    mapped: Dict[int, _MappedStep],
    schema: SchemaGraph,
) -> Tuple[SqlQuery, List[ColumnRef]]:
    base = _ref(mapped, step.shape.base)
    target_expr, target_tables, target_ref, target_cols = _operand(
        step.shape.target, "cmp_target", step, binder, mapped
    )
    units = [(base.query.from_tables, base.cols), (target_tables, target_cols)]
    from_tables, joins = _join_units(schema, units)

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


def _build_union(
    step: QdmrStep, mapped: Dict[int, _MappedStep], schema: SchemaGraph
) -> Tuple[SqlQuery, List[ColumnRef]]:
    members = [_ref(mapped, r) for r in step.shape.refs]
    if len(members) < 2:
        raise SqlBuildError(f"step {step.index}: union needs two operands")
    units = [(m.query.from_tables, m.cols) for m in members]
    from_tables, joins = _join_units(schema, units)

    sides = tuple(_inherited(m.query.where) for m in members)
    q = SqlQuery(
        select=members[0].query.select,
        from_tables=from_tables,
        where=_merged(joins) + ((OrGroup(sides=sides),) if all(sides) else ()),
    )
    return q, [c for m in members for c in m.cols]


def _build_union_column(
    step: QdmrStep, mapped: Dict[int, _MappedStep], schema: SchemaGraph
) -> Tuple[SqlQuery, List[ColumnRef]]:
    members = [_ref(mapped, r) for r in step.shape.refs]
    units = [(m.query.from_tables, m.cols) for m in members]
    from_tables, joins = _join_units(schema, units)

    q = SqlQuery(
        select=tuple(m.query.select[0] for m in members),
        from_tables=from_tables,
        where=_merged(joins, *(_inherited(m.query.where) for m in members)),
    )
    return q, [c for m in members for c in m.cols]


def _build_intersect(
    step: QdmrStep,
    binder: _Binder,
    mapped: Dict[int, _MappedStep],
    schema: SchemaGraph,
) -> Tuple[SqlQuery, List[ColumnRef]]:
    left = _ref(mapped, step.shape.left)
    right = _ref(mapped, step.shape.right)
    col = binder.role(step.index, "intersect_head")
    if col is None:
        head = left.query.select[0]
        if not isinstance(head, ColExpr):
            raise ArityMismatch(f"step {step.index}: no head column to intersect on")
        col = head.col
    units = [([col.table], [col])]
    units += [(m.query.from_tables, m.cols) for m in (left, right)]
    from_tables, joins = _join_units(schema, units)

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


def _build_sort(
    step: QdmrStep,
    binder: _Binder,
    mapped: Dict[int, _MappedStep],
    schema: SchemaGraph,
) -> Tuple[SqlQuery, List[ColumnRef]]:
    base = _ref(mapped, step.shape.base)
    key_expr, key_tables, _, key_cols = _operand(
        step.shape.key, "sort_key", step, binder, mapped
    )
    units = [(base.query.from_tables, base.cols), (key_tables, key_cols)]
    from_tables, joins = _join_units(schema, units)

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


def _build_discard(
    step: QdmrStep, mapped: Dict[int, _MappedStep]
) -> Tuple[SqlQuery, List[ColumnRef]]:
    base = _ref(mapped, step.shape.base)
    excluded = _ref(mapped, step.shape.right)
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


def _build_arithmetic(
    step: QdmrStep, mapped: Dict[int, _MappedStep]
) -> Tuple[SqlQuery, List[ColumnRef]]:
    left = _ref(mapped, step.shape.left)
    right = _ref(mapped, step.shape.right)
    _scalar(left.query, step.index)
    _scalar(right.query, step.index)
    q = SqlQuery(select=(ArithExpr(step.operator.arith_op, left.query, right.query),))
    return q, list(left.cols) + list(right.cols)


def _map_step(
    step: QdmrStep,
    binder: _Binder,
    mapped: Dict[int, _MappedStep],
    schema: SchemaGraph,
) -> _MappedStep:
    """Construct the query for one step given everything mapped before it."""
    kind = step.operator.kind
    if kind is OpKind.SELECT:
        q, cols = _build_select(step, binder)
    elif kind is OpKind.FILTER:
        q, cols = _build_filter(step, binder, mapped, schema)
    elif kind is OpKind.PROJECT:
        q, cols = _build_project(step, binder, mapped, schema)
    elif kind is OpKind.AGGREGATE:
        q, cols = _build_aggregate(step, mapped)
    elif kind is OpKind.GROUP:
        q, cols = _build_group(step, binder, mapped, schema)
    elif kind is OpKind.SUPERLATIVE:
        q, cols = _build_superlative(step, mapped, schema)
    elif kind is OpKind.COMPARATIVE:
        q, cols = _build_comparative(step, binder, mapped, schema)
    elif kind is OpKind.UNION:
        q, cols = _build_union(step, mapped, schema)
    elif kind is OpKind.UNION_COLUMN:
        q, cols = _build_union_column(step, mapped, schema)
    elif kind is OpKind.INTERSECT:
        q, cols = _build_intersect(step, binder, mapped, schema)
    elif kind is OpKind.SORT:
        q, cols = _build_sort(step, binder, mapped, schema)
    elif kind is OpKind.DISCARD:
        q, cols = _build_discard(step, mapped)
    elif kind is OpKind.ARITHMETIC:
        q, cols = _build_arithmetic(step, mapped)
    else:  # pragma: no cover - the enum is closed
        raise SqlBuildError(f"no rule for operator {kind}")
    return _MappedStep(cols=frozenset(cols), query=q)


def synthesize(
    program: QdmrProgram,
    schema: SchemaGraph,
    assignment: Assignment,
    plan: BindingPlan,
) -> SqlQuery:
    """Map every step in order and return the final step's query."""
    binder = _Binder(plan, assignment)
    mapped: Dict[int, _MappedStep] = {}
    for step in program.steps:
        mapped[step.index] = _map_step(step, binder, mapped, schema)
    return mapped[len(program.steps)].query
