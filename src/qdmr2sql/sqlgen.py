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

Queries render to a flat comma-join SQL dialect: qualified column names,
``FROM t1, t2`` with explicit equality predicates, ``IN``/``NOT IN``
subqueries, ``GROUP BY``/``HAVING``, ``ORDER BY ... LIMIT k``.  A
comparison against an aggregated operand lands in HAVING, with the
operand's grouping preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
from .schema import ColumnRef, SchemaGraph

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
        return str(self.col)


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


def _sql_literal(value: Union[int, float, str]) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return repr(value)
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"


@dataclass(frozen=True)
class JoinPred:
    left: str
    right: str

    def render(self) -> str:
        return f"{self.left} = {self.right}"


@dataclass(frozen=True)
class CmpPred:
    expr: str
    op: str  # = | != | > | < | >= | <=
    value: Union[int, float, str]

    def render(self) -> str:
        return f"{self.expr} {self.op} {_sql_literal(self.value)}"


@dataclass(frozen=True)
class InPred:
    expr: str
    query: "SqlQuery"
    negated: bool = False

    def render(self) -> str:
        kw = "NOT IN" if self.negated else "IN"
        return f"{self.expr} {kw} ( {render_sql(self.query)} )"


@dataclass(frozen=True)
class OrGroup:
    sides: Tuple[Tuple["Pred", ...], ...]

    def render(self) -> str:
        rendered = [" AND ".join(p.render() for p in side) for side in self.sides]
        return "( " + " OR ".join(rendered) + " )"


Pred = Union[JoinPred, CmpPred, InPred, OrGroup]


# --- queries -----------------------------------------------------------------


@dataclass
class SqlQuery:
    """One SELECT statement in the flat comma-join dialect."""

    select: List[SelectItem] = field(default_factory=list)
    from_tables: List[str] = field(default_factory=list)
    where: List[Pred] = field(default_factory=list)
    group_by: Optional[str] = None
    having: List[CmpPred] = field(default_factory=list)
    order_by: Optional[Tuple[str, str]] = None  # (expr, "ASC" | "DESC")
    limit: Optional[int] = None
    distinct: bool = False

    def copy(self) -> "SqlQuery":
        return SqlQuery(
            select=list(self.select),
            from_tables=list(self.from_tables),
            where=list(self.where),
            group_by=self.group_by,
            having=list(self.having),
            order_by=self.order_by,
            limit=self.limit,
            distinct=self.distinct,
        )


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
        parts.append("FROM " + ", ".join(query.from_tables))
    if query.where:
        parts.append("WHERE " + " AND ".join(p.render() for p in query.where))
    if query.group_by:
        parts.append("GROUP BY " + query.group_by)
    if query.having:
        parts.append("HAVING " + " AND ".join(p.render() for p in query.having))
    if query.order_by:
        parts.append(f"ORDER BY {query.order_by[0]} {query.order_by[1]}")
    if query.limit is not None:
        parts.append(f"LIMIT {query.limit}")
    return " ".join(parts)


@dataclass(frozen=True)
class _MappedStep:
    """A step together with its linked columns and constructed query."""

    step: QdmrStep
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


def _item_expr(item: SelectItem) -> str:
    if isinstance(item, AggExpr):
        return item.render()
    if isinstance(item, ColExpr):
        return item.render()
    raise ArityMismatch("operand has no addressable select expression")


def _add_tables(into: List[str], tables: Sequence[str]) -> None:
    for t in tables:
        if t not in into:
            into.append(t)


def _add_preds(into: List[Pred], preds: Sequence[Pred]) -> None:
    seen = {p.render() for p in into}
    for p in preds:
        r = p.render()
        if r not in seen:
            seen.add(r)
            into.append(p)


def _join_units(
    schema: SchemaGraph,
    units: Sequence[Tuple[Sequence[str], Sequence[ColumnRef]]],
) -> List[JoinPath]:
    """Connect every unit (tables, anchor columns) into one component."""
    units = [u for u in units if u[0]]
    if len(units) < 2:
        return []
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
    return paths


def _path_preds(paths: Sequence[JoinPath]) -> List[Pred]:
    preds: List[Pred] = []
    for p in paths:
        for e in p.edges:
            preds.append(JoinPred(str(e.source), str(e.target)))
    return preds


def _path_tables(paths: Sequence[JoinPath]) -> List[str]:
    out: List[str] = []
    for p in paths:
        _add_tables(out, p.tables)
    return out


def _join_conjuncts(query: SqlQuery) -> List[Pred]:
    return [p for p in query.where if isinstance(p, JoinPred)]


def _vacuous(p: Pred) -> bool:
    # x IN (SELECT x FROM t) with an unrestricted subquery always holds.
    if not isinstance(p, InPred) or p.negated:
        return False
    q = p.query
    if q.where or q.group_by or q.having or q.order_by or q.limit is not None:
        return False
    if len(q.select) != 1 or q.distinct:
        return False
    head = q.select[0]
    if isinstance(head, (ColExpr, AggExpr)):
        return _item_expr(head) == p.expr
    return False


def _inherited(preds: Sequence[Pred]) -> List[Pred]:
    return [p for p in preds if not _vacuous(p)]


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
    base: _MappedStep,
    own_preds: Sequence[Pred],
    paths: Sequence[JoinPath],
    extra_tables: Sequence[str] = (),
) -> SqlQuery:
    """Narrow ``base`` through a nested subquery instead of inlining it.

    The outer query keeps only the join conjuncts of the referenced query;
    literal predicates and prior nestings stay inside the subquery, and the
    referenced select expression is constrained with ``IN``.
    """
    q = SqlQuery()
    q.select = list(base.query.select)
    _add_tables(q.from_tables, base.query.from_tables)
    _add_tables(q.from_tables, extra_tables)
    _add_tables(q.from_tables, _path_tables(paths))
    _add_preds(q.where, _join_conjuncts(base.query))
    _add_preds(q.where, _path_preds(paths))
    _add_preds(q.where, own_preds)
    _add_preds(q.where, [InPred(_item_expr(base.query.select[0]), base.query)])
    return q


# --- per-operator construction ----------------------------------------------


def _build_select(step: QdmrStep, binder: _Binder) -> Tuple[SqlQuery, List[ColumnRef]]:
    literals = binder.literals(step.index)
    q = SqlQuery()
    if literals:
        first_col = literals[0][1]
        q.select = [ColExpr(first_col)]
        _add_tables(q.from_tables, [c.table for _, c in literals])
        _add_preds(
            q.where,
            [CmpPred(str(c), "=", _typed(t)) for t, c in literals],
        )
        return q, [c for _, c in literals]
    col = binder.require(step.index, "select")
    q.select = [ColExpr(col)]
    q.from_tables = [col.table]
    return q, [col]


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
        return base.query.copy(), list(base.cols)

    own_preds: List[Pred] = [
        CmpPred(str(c), "=", _typed(t)) for t, c in literals
    ]
    own_cols = [c for _, c in literals]
    units = [(base.query.from_tables, list(base.cols))]
    units += [([c.table], [c]) for c in own_cols]
    units += [(m.query.from_tables, list(m.cols)) for m in extra]
    paths = _join_units(schema, units)

    conflict = False
    own_exprs = {(p.expr, p.value) for p in own_preds if isinstance(p, CmpPred)}
    for p in base.query.where:
        if isinstance(p, CmpPred) and p.op == "=":
            for expr, value in own_exprs:
                if p.expr == expr and p.value != value:
                    conflict = True
    if conflict or base.query.limit is not None:
        extra_tables = [c.table for c in own_cols]
        for m in extra:
            extra_tables.extend(m.query.from_tables)
        q = _resolve_self_join(base, own_preds, paths, extra_tables)
        return q, own_cols or list(base.cols)

    q = SqlQuery()
    q.select = list(base.query.select)
    _add_tables(q.from_tables, base.query.from_tables)
    _add_tables(q.from_tables, [c.table for c in own_cols])
    for m in extra:
        _add_tables(q.from_tables, m.query.from_tables)
    _add_tables(q.from_tables, _path_tables(paths))
    _add_preds(q.where, _inherited(base.query.where))
    for m in extra:
        _add_preds(q.where, _inherited(m.query.where))
    _add_preds(q.where, _path_preds(paths))
    _add_preds(q.where, own_preds)
    q.group_by = base.query.group_by
    q.having = list(base.query.having)
    q.order_by = base.query.order_by
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
    units = [([col.table], [col]), (base.query.from_tables, list(base.cols))]
    units += [(m.query.from_tables, list(m.cols)) for m in extras]
    paths = _join_units(schema, units)

    q = SqlQuery()
    q.select = [ColExpr(col)]
    q.from_tables = [col.table]
    _add_tables(q.from_tables, base.query.from_tables)
    for m in extras:
        _add_tables(q.from_tables, m.query.from_tables)
    _add_tables(q.from_tables, _path_tables(paths))
    _add_preds(q.where, _join_conjuncts(base.query))
    for m in extras:
        _add_preds(q.where, _join_conjuncts(m.query))
    _add_preds(q.where, _path_preds(paths))
    _add_preds(q.where, [InPred(_item_expr(base.query.select[0]), base.query)])
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
    q = SqlQuery()
    q.select = [AggExpr(step.operator.aggregate_fn, head)]
    q.from_tables = list(base.query.from_tables)
    q.where = _inherited(base.query.where)
    q.group_by = base.query.group_by
    return q, list(base.cols)


def _operand(
    arg, role: str, step: QdmrStep, binder: _Binder, mapped: Dict[int, _MappedStep]
):
    """An operand is either a mapped reference or a directly bound column."""
    if isinstance(arg, int):
        m = _ref(mapped, arg)
        return m.query.select[0], m.query.from_tables, m, list(m.cols)
    col = binder.require(step.index, role)
    return ColExpr(col), [col.table], None, [col]


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
    paths = _join_units(schema, units)

    q = SqlQuery()
    q.select = [AggExpr(step.operator.aggregate_fn, value_expr)]
    _add_tables(q.from_tables, value_tables)
    _add_tables(q.from_tables, key_tables)
    _add_tables(q.from_tables, _path_tables(paths))
    for m in (value_ref, key_ref):
        if m is not None:
            _add_preds(q.where, _inherited(m.query.where))
    _add_preds(q.where, _path_preds(paths))
    q.group_by = key_expr.render()
    return q, value_cols + key_cols


def _build_superlative(
    step: QdmrStep, mapped: Dict[int, _MappedStep], schema: SchemaGraph
) -> Tuple[SqlQuery, List[ColumnRef]]:
    entity = _ref(mapped, step.shape.entity)
    measure = _ref(mapped, step.shape.measure)
    units = [
        (entity.query.from_tables, list(entity.cols)),
        (measure.query.from_tables, list(measure.cols)),
    ]
    paths = _join_units(schema, units)

    q = SqlQuery()
    q.select = list(entity.query.select)
    _add_tables(q.from_tables, entity.query.from_tables)
    _add_tables(q.from_tables, measure.query.from_tables)
    _add_tables(q.from_tables, _path_tables(paths))
    _add_preds(q.where, _inherited(entity.query.where))
    _add_preds(q.where, _inherited(measure.query.where))
    _add_preds(q.where, _path_preds(paths))
    q.group_by = entity.query.group_by or measure.query.group_by
    q.having = list(entity.query.having) + list(measure.query.having)
    direction = "DESC" if step.operator.aggregate_fn == "max" else "ASC"
    q.order_by = (_item_expr(measure.query.select[0]), direction)
    q.limit = step.operator.k or 1
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
    units = [(base.query.from_tables, list(base.cols)), (target_tables, target_cols)]
    paths = _join_units(schema, units)

    q = SqlQuery()
    q.select = list(base.query.select)
    _add_tables(q.from_tables, base.query.from_tables)
    _add_tables(q.from_tables, target_tables)
    _add_tables(q.from_tables, _path_tables(paths))
    _add_preds(q.where, _inherited(base.query.where))
    if target_ref is not None:
        _add_preds(q.where, _inherited(target_ref.query.where))
    _add_preds(q.where, _path_preds(paths))
    value = _typed(step.shape.cmp_value or "")
    if isinstance(target_expr, AggExpr):
        # Aggregate comparisons are HAVING conditions over the operand's
        # grouping, which must survive into this query.
        q.group_by = (target_ref.query.group_by if target_ref else None) or base.query.group_by
        q.having = list(base.query.having)
        q.having.append(CmpPred(target_expr.render(), step.operator.comparator, value))
    else:
        q.group_by = base.query.group_by
        q.having = list(base.query.having)
        _add_preds(
            q.where,
            [CmpPred(_item_expr(target_expr), step.operator.comparator, value)],
        )
    return q, list(base.cols) + target_cols


def _build_union(
    step: QdmrStep, mapped: Dict[int, _MappedStep], schema: SchemaGraph
) -> Tuple[SqlQuery, List[ColumnRef]]:
    members = [_ref(mapped, r) for r in step.shape.refs]
    if len(members) < 2:
        raise SqlBuildError(f"step {step.index}: union needs two operands")
    units = [(m.query.from_tables, list(m.cols)) for m in members]
    paths = _join_units(schema, units)

    q = SqlQuery()
    q.select = list(members[0].query.select)
    for m in members:
        _add_tables(q.from_tables, m.query.from_tables)
    _add_tables(q.from_tables, _path_tables(paths))
    _add_preds(q.where, _path_preds(paths))
    sides = [tuple(_inherited(m.query.where)) for m in members]
    if all(sides):
        q.where.append(OrGroup(sides=tuple(sides)))
    cols = [c for m in members for c in m.cols]
    return q, cols


def _build_union_column(
    step: QdmrStep, mapped: Dict[int, _MappedStep], schema: SchemaGraph
) -> Tuple[SqlQuery, List[ColumnRef]]:
    members = [_ref(mapped, r) for r in step.shape.refs]
    units = [(m.query.from_tables, list(m.cols)) for m in members]
    paths = _join_units(schema, units)

    q = SqlQuery()
    q.select = [m.query.select[0] for m in members]
    for m in members:
        _add_tables(q.from_tables, m.query.from_tables)
    _add_tables(q.from_tables, _path_tables(paths))
    _add_preds(q.where, _path_preds(paths))
    for m in members:
        _add_preds(q.where, _inherited(m.query.where))
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
    units = [
        ([col.table], [col]),
        (left.query.from_tables, list(left.cols)),
        (right.query.from_tables, list(right.cols)),
    ]
    paths = _join_units(schema, units)

    shared_from: List[str] = [col.table]
    _add_tables(shared_from, left.query.from_tables)
    _add_tables(shared_from, right.query.from_tables)
    _add_tables(shared_from, _path_tables(paths))

    inner = SqlQuery()
    inner.select = [ColExpr(col)]
    inner.from_tables = list(shared_from)
    _add_preds(inner.where, _path_preds(paths))
    _add_preds(inner.where, _inherited(right.query.where))

    q = SqlQuery()
    q.select = [ColExpr(col)]
    q.from_tables = list(shared_from)
    _add_preds(q.where, _path_preds(paths))
    _add_preds(q.where, _inherited(left.query.where))
    _add_preds(q.where, [InPred(str(col), inner)])
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
    units = [(base.query.from_tables, list(base.cols)), (key_tables, key_cols)]
    paths = _join_units(schema, units)

    q = SqlQuery()
    q.select = list(base.query.select)
    _add_tables(q.from_tables, base.query.from_tables)
    _add_tables(q.from_tables, key_tables)
    _add_tables(q.from_tables, _path_tables(paths))
    # The key operand orders rows; its own restrictions do not apply.
    _add_preds(q.where, _inherited(base.query.where))
    _add_preds(q.where, _path_preds(paths))
    q.group_by = base.query.group_by
    q.having = list(base.query.having)
    direction = "DESC" if step.operator.direction == "desc" else "ASC"
    q.order_by = (_item_expr(key_expr), direction)
    return q, list(base.cols)


def _build_discard(
    step: QdmrStep, mapped: Dict[int, _MappedStep]
) -> Tuple[SqlQuery, List[ColumnRef]]:
    base = _ref(mapped, step.shape.base)
    excluded = _ref(mapped, step.shape.right)
    q = SqlQuery()
    q.select = list(base.query.select)
    q.from_tables = list(base.query.from_tables)
    _add_preds(q.where, _inherited(base.query.where))
    _add_preds(
        q.where,
        [InPred(_item_expr(base.query.select[0]), excluded.query, negated=True)],
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
    q = SqlQuery()
    q.select = [ArithExpr(step.operator.arith_op, left.query, right.query)]
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
    return _MappedStep(step=step, cols=frozenset(cols), query=q)


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
