"""Parsing of question decompositions into typed operator steps.

A decomposition is a ``;``-separated sequence of natural-language steps.
Each step may carry an optional leading ``return`` token and refers to
earlier steps with ``#k`` tokens (1-based).  Parsing normalizes whitespace,
classifies every step into one of thirteen operator kinds by matching a
fixed, ordered pattern inventory, and records the structured arguments each
operator needs (references, linkable phrases, comparison literals).

The pattern inventory is first-match-wins.  More specific templates are
checked before the generic fallbacks: a step that starts with a reference
and carries trailing words is a FILTER, a step whose reference is preceded
by a phrase is a PROJECT, and a step with no references is a SELECT.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple, Union

from .errors import (
    DanglingReference,
    EmptyProgram,
    MalformedReference,
    NonstandardStep,
    QdmrParseError,
)

__all__ = [
    "OpKind",
    "QdmrOperator",
    "QdmrStep",
    "QdmrProgram",
    "parse_qdmr",
    "render_program",
    "superlative_fn",
]


class OpKind(str, Enum):
    SELECT = "SELECT"
    FILTER = "FILTER"
    PROJECT = "PROJECT"
    AGGREGATE = "AGGREGATE"
    GROUP = "GROUP"
    SUPERLATIVE = "SUPERLATIVE"
    COMPARATIVE = "COMPARATIVE"
    UNION = "UNION"
    UNION_COLUMN = "UNION_COLUMN"
    INTERSECT = "INTERSECT"
    SORT = "SORT"
    DISCARD = "DISCARD"
    ARITHMETIC = "ARITHMETIC"


# An operator argument is either a step reference (int) or a phrase (str).
Arg = Union[int, str]

_REF = re.compile(r"#(\d+)")
_BAD_REF = re.compile(r"#(?!\d{1,9}(?!\d))")

_AGG_WORDS = {
    "number": "count",
    "sum": "sum",
    "average": "avg",
    "avg": "avg",
    "highest": "max",
    "largest": "max",
    "maximum": "max",
    "lowest": "min",
    "smallest": "min",
    "minimum": "min",
}
_AGG_ALT = "|".join(_AGG_WORDS)

_SUPER_MAX = {"highest", "largest", "biggest"}
_SUPER_MIN = {"lowest", "smallest"}
_SUPER_ALT = "|".join(sorted(_SUPER_MAX | _SUPER_MIN))

# Longer comparator phrases must precede their prefixes.
_COMPARATORS = [
    ("is at least", ">="),
    ("is at most", "<="),
    ("is more than", ">"),
    ("is less than", "<"),
    ("is not", "!="),
    ("equals", "="),
    ("is", "="),
]
_CMP_ALT = "|".join(re.escape(p) for p, _ in _COMPARATORS)
_CMP_MAP = dict(_COMPARATORS)

_ARITH_WORDS = {
    "sum": "+",
    "difference": "-",
    "multiplication": "*",
    "division": "/",
}

_RE_GROUP_SPLIT = re.compile(r"\bfor each\b", re.IGNORECASE)
_RE_AGGREGATE = re.compile(
    rf"(?:the\s+)?({_AGG_ALT})\s+of\s+#(\d+)", re.IGNORECASE
)
_RE_SUPERLATIVE = re.compile(
    rf"#(\d+)\s+where\s+#(\d+)\s+is\s+(?:the\s+)?({_SUPER_ALT})", re.IGNORECASE
)
_RE_SUPER_TOP = re.compile(
    r"#(\d+)\s+where\s+#(\d+)\s+is\s+in\s+the\s+top\s+(\d+)", re.IGNORECASE
)
_RE_COMPARATIVE = re.compile(
    rf"#(\d+)\s+where\s+(.+?)\s+({_CMP_ALT})\s+(.+)", re.IGNORECASE
)
_RE_INTERSECT = re.compile(
    r"(?:in|of|from)\s+both\s+#(\d+)\s+and\s+#(\d+)", re.IGNORECASE
)
_RE_UNION_BOTH = re.compile(r"both\s+#(\d+)\s+and\s+#(\d+)", re.IGNORECASE)
_RE_SORT = re.compile(r"#(\d+)\s+sorted\s+by\s+(.+)", re.IGNORECASE)
_RE_DISCARD = re.compile(r"#(\d+)\s+(?:besides|not\s+in)\s+#(\d+)", re.IGNORECASE)
_RE_ARITHMETIC = re.compile(
    r"(?:the\s+)?(sum|difference|multiplication|division)\s+of\s+#(\d+)\s+and\s+#(\d+)",
    re.IGNORECASE,
)
_RE_DIRECTION = re.compile(
    r"\b(?:in\s+)?(ascending|descending)(?:\s+order)?\b", re.IGNORECASE
)
_RE_AGG_PREFIX = re.compile(rf"^(?:the\s+)?(?:{_AGG_ALT})\s+of\s+", re.IGNORECASE)


@dataclass(frozen=True)
class QdmrOperator:
    """Operator kind plus the scalar modifiers some kinds carry."""

    kind: OpKind
    aggregate_fn: Optional[str] = None   # count | sum | avg | max | min
    comparator: Optional[str] = None     # > | < | = | != | >= | <=
    direction: Optional[str] = None      # asc | desc
    k: Optional[int] = None              # SUPERLATIVE cutoff, at least 1
    arith_op: Optional[str] = None       # + | - | * | /


@dataclass(frozen=True)
class StepShape:
    """Structured argument roles, filled per operator kind.

    ``base`` is the step a FILTER/SORT/DISCARD/COMPARATIVE narrows, ``value``
    and ``key`` are the GROUP roles, ``entity`` and ``measure`` the
    SUPERLATIVE roles.  Roles typed :data:`Arg` accept either a step
    reference or a phrase.
    """

    phrase: Optional[str] = None
    base: Optional[int] = None
    tail: Optional[str] = None
    value: Optional[Arg] = None
    key: Optional[Arg] = None
    entity: Optional[int] = None
    measure: Optional[int] = None
    target: Optional[Arg] = None
    cmp_value: Optional[str] = None
    head: Optional[str] = None
    refs: Tuple[int, ...] = ()
    left: Optional[int] = None
    right: Optional[int] = None
    extra_refs: Tuple[int, ...] = ()


@dataclass(frozen=True)
class QdmrStep:
    """One decomposition step.

    ``raw_text`` is the step utterance with the ``return`` prefix stripped
    and whitespace collapsed.  ``ref_args`` lists referenced step numbers in
    order of first occurrence.  Which fragments link to schema columns is
    decided by :func:`qdmr2sql.linking.plan_bindings`, from ``shape``.
    """

    index: int
    raw_text: str
    operator: QdmrOperator
    ref_args: Tuple[int, ...]
    shape: StepShape = field(compare=False)


@dataclass(frozen=True)
class QdmrProgram:
    """An ordered, validated sequence of steps."""

    steps: Tuple[QdmrStep, ...]

    def step(self, number: int) -> QdmrStep:
        """Return the step with 1-based number ``number``."""
        return self.steps[number - 1]


def _normalize_step(text: str) -> str:
    text = re.sub(r"\s+", " ", text).strip()
    text = re.sub(r"^return\s+", "", text, flags=re.IGNORECASE)
    return text.strip()


def _refs_in(text: str) -> Tuple[int, ...]:
    seen = []
    for m in _REF.finditer(text):
        n = int(m.group(1))
        if n not in seen:
            seen.append(n)
    return tuple(seen)


def _strip_refs(text: str) -> str:
    return re.sub(r"\s+", " ", _REF.sub(" ", text)).strip(" ,")


def _ref_or_phrase(text: str) -> Optional[Arg]:
    text = text.strip(" ,")
    m = re.fullmatch(r"(?:the\s+)?#(\d+)", text, re.IGNORECASE)
    if m:
        return int(m.group(1))
    return text if text else None


def _separators(text: str) -> Tuple[list, bool]:
    """Split on references; return interior separators and edge emptiness."""
    parts = [p.strip() for p in _REF.split(text)]
    # re.split with one capture group interleaves the captured digits.
    words = parts[0::2]
    interior = [w.lower() for w in words[1:-1]]
    edges_empty = words[0] == "" and words[-1] == ""
    return interior, edges_empty


def _analyze(text: str, index: int) -> Tuple[QdmrOperator, StepShape]:
    """Classify one normalized step utterance.

    ``index`` is the step's 1-based position; it only matters for error
    messages here (reference range checks happen in :func:`parse_qdmr`).
    """
    refs = _refs_in(text)

    m = _RE_GROUP_SPLIT.search(text)
    if m:
        left, right = text[: m.start()].strip(" ,"), text[m.end():].strip(" ,")
        fn = "count"
        for word, mapped in _AGG_WORDS.items():
            if re.search(rf"\b{word}\b", left, re.IGNORECASE):
                fn = mapped
                break
        left_refs = _refs_in(left)
        value: Optional[Arg]
        if left_refs:
            value = left_refs[0]
        else:
            value = _ref_or_phrase(_RE_AGG_PREFIX.sub("", left))
        key = _ref_or_phrase(right)
        if value is None or key is None:
            raise NonstandardStep(f"step {index}: cannot split grouping step {text!r}")
        op = QdmrOperator(OpKind.GROUP, aggregate_fn=fn)
        return op, StepShape(value=value, key=key)

    m = _RE_AGGREGATE.fullmatch(text)
    if m:
        fn = _AGG_WORDS[m.group(1).lower()]
        op = QdmrOperator(OpKind.AGGREGATE, aggregate_fn=fn)
        return op, StepShape(base=int(m.group(2)))

    m = _RE_SUPERLATIVE.fullmatch(text)
    if m:
        fn = "max" if m.group(3).lower() in _SUPER_MAX else "min"
        op = QdmrOperator(OpKind.SUPERLATIVE, aggregate_fn=fn, k=1)
        return op, StepShape(entity=int(m.group(1)), measure=int(m.group(2)))

    m = _RE_SUPER_TOP.fullmatch(text)
    if m:
        k = int(m.group(3))
        if k < 1:
            raise NonstandardStep(f"step {index}: a top-{k} superlative keeps nothing")
        op = QdmrOperator(OpKind.SUPERLATIVE, aggregate_fn="max", k=k)
        return op, StepShape(entity=int(m.group(1)), measure=int(m.group(2)))

    m = _RE_COMPARATIVE.fullmatch(text)
    if m:
        value = m.group(4).strip().strip("'\"")
        # A bare superlative word after "is" is not a comparison literal.
        if not _REF.search(value) and value.lower() not in _SUPER_MAX | _SUPER_MIN:
            op = QdmrOperator(
                OpKind.COMPARATIVE, comparator=_CMP_MAP[m.group(3).lower()]
            )
            target = _ref_or_phrase(m.group(2))
            return op, StepShape(
                base=int(m.group(1)), target=target, cmp_value=value
            )

    m = _RE_INTERSECT.search(text)
    if m:
        head = text[: m.start()].strip(" ,")
        op = QdmrOperator(OpKind.INTERSECT)
        return op, StepShape(
            head=head or None, left=int(m.group(1)), right=int(m.group(2))
        )

    if _RE_UNION_BOTH.fullmatch(text):
        return QdmrOperator(OpKind.UNION), StepShape(refs=refs)

    if len(refs) >= 2:
        interior, edges_empty = _separators(text)
        if edges_empty and interior:
            if all(s in {",", "or", ", or"} for s in interior):
                return QdmrOperator(OpKind.UNION), StepShape(refs=refs)
            if all(s in {"and", ",", ", and"} for s in interior):
                return QdmrOperator(OpKind.UNION_COLUMN), StepShape(refs=refs)

    m = _RE_SORT.fullmatch(text)
    if m:
        tail = m.group(2)
        dm = _RE_DIRECTION.search(tail)
        direction = "asc"
        if dm:
            direction = "desc" if dm.group(1).lower() == "descending" else "asc"
            tail = (tail[: dm.start()] + tail[dm.end():]).strip()
        key = _ref_or_phrase(tail)
        if key is None:
            raise NonstandardStep(f"step {index}: sort step lacks a key: {text!r}")
        op = QdmrOperator(OpKind.SORT, direction=direction)
        return op, StepShape(base=int(m.group(1)), key=key)

    m = _RE_DISCARD.fullmatch(text)
    if m:
        op = QdmrOperator(OpKind.DISCARD)
        return op, StepShape(base=int(m.group(1)), right=int(m.group(2)))

    m = _RE_ARITHMETIC.fullmatch(text)
    if m:
        op = QdmrOperator(OpKind.ARITHMETIC, arith_op=_ARITH_WORDS[m.group(1).lower()])
        return op, StepShape(left=int(m.group(2)), right=int(m.group(3)))

    m = re.match(r"(?:the\s+)?#(\d+)\b[\s,]*(.*)", text, re.IGNORECASE | re.DOTALL)
    if m:
        tail = m.group(2).strip()
        op = QdmrOperator(OpKind.FILTER)
        return op, StepShape(
            base=int(m.group(1)), tail=tail, extra_refs=_refs_in(tail)
        )

    if refs:
        phrase = _strip_refs(text)
        op = QdmrOperator(OpKind.PROJECT)
        return op, StepShape(phrase=phrase, base=refs[0], extra_refs=refs[1:])

    if not text:
        raise NonstandardStep(f"step {index}: empty step")
    return QdmrOperator(OpKind.SELECT), StepShape(phrase=text)


def superlative_fn(text: str) -> Optional[str]:
    """'max' or 'min' when ``text`` carries a superlative token, else None."""
    for token in re.findall(r"[a-z]+", text.lower()):
        if token in _SUPER_MAX:
            return "max"
        if token in _SUPER_MIN:
            return "min"
    return None


def parse_qdmr(text: str) -> QdmrProgram:
    """Parse a ``;``-separated decomposition into a validated program.

    Raises :class:`EmptyProgram`, :class:`MalformedReference`,
    :class:`DanglingReference`, or :class:`NonstandardStep` on bad input,
    and :class:`QdmrParseError` on text that is not valid UTF-8 (a lone
    surrogate), which no SQL text built from it could carry to SQLite.
    """
    if text is None:
        raise EmptyProgram("no decomposition text")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise QdmrParseError(f"decomposition {text!r} is not valid UTF-8") from None
    stripped = text.strip()
    if stripped.endswith("."):
        stripped = stripped[:-1]
    if _BAD_REF.search(stripped):
        raise MalformedReference(f"'#' not followed by a step number in {text!r}")
    segments = [s for s in stripped.split(";")]
    while segments and not segments[-1].strip():
        segments.pop()
    if not segments:
        raise EmptyProgram(f"no steps in {text!r}")

    steps = []
    for pos, segment in enumerate(segments, start=1):
        utterance = _normalize_step(segment)
        if not utterance:
            raise NonstandardStep(f"step {pos} is empty")
        refs = _refs_in(utterance)
        for r in refs:
            if r < 1 or r >= pos:
                raise DanglingReference(
                    f"step {pos} references #{r}, which does not precede it"
                )
        op, shape = _analyze(utterance, pos)
        steps.append(
            QdmrStep(
                index=pos,
                raw_text=utterance,
                operator=op,
                ref_args=refs,
                shape=shape,
            )
        )
    return QdmrProgram(steps=tuple(steps))


def render_program(program: QdmrProgram) -> str:
    """Render a program back to canonical ``;``-separated text.

    ``parse_qdmr(render_program(p))`` reproduces ``p`` for any parsed ``p``.
    """
    return "; ".join(s.raw_text for s in program.steps)
