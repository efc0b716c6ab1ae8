"""Linking decomposition phrases to schema columns.

Ranking has three tiers.  Columns whose lemmatized tokens are identical to
the phrase's come first; columns sharing at least one non-stop-word lemma
come second, ordered by embedding similarity; every other column follows,
ordered by similarity alone.  Similarity is the mean cosine over all
(phrase lemma, column lemma) pairs, with out-of-vocabulary pairs scored 0.
Ties inside a tier break lexicographically by (table, column), so rankings
are total and reproducible.

Literal values mentioned in a step are matched verbatim against database
cells; every column containing the literal is a candidate.  Each phrase of
a step and each literal is a :class:`Slot`; an :class:`Assignment` maps
every slot to one of its candidate columns.  The enumerator yields
assignments in non-decreasing rank-sum order (best first, ties by
lexicographic rank tuple) so a search can walk alternatives from most to
least plausible.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union,
)

from .errors import FileUnreadable
from .qdmr import OpKind, QdmrProgram
from .schema import ColumnRef, SchemaGraph, ValueIndex
from .text import STOP_WORDS, content_lemmas, tokenize

__all__ = [
    "EmbeddingLexicon",
    "LinkCandidate",
    "Slot",
    "Assignment",
    "BindingPlan",
    "phrase_column_similarity",
    "rank_columns",
    "enumerate_assignments",
    "plan_bindings",
    "link_program",
]


class EmbeddingLexicon:
    """Word vectors in the plain text format ``token v1 v2 ... vd``."""

    def __init__(self, vectors: Dict[str, Tuple[float, ...]]):
        self._vectors = vectors
        self._norms = {
            t: math.sqrt(sum(map(operator.mul, v, v))) for t, v in vectors.items()
        }

    @classmethod
    def load(cls, path: Union[str, Path]) -> "EmbeddingLexicon":
        """Read a vectors file; raises FileUnreadable when it cannot be read
        or its lines disagree on the vector width or hold a non-number."""
        vectors: Dict[str, Tuple[float, ...]] = {}
        dim: Optional[int] = None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    parts = line.rstrip("\n").split(" ")
                    if len(parts) < 2:
                        continue
                    values = tuple(float(x) for x in parts[1:])
                    if dim is None:
                        dim = len(values)
                    elif len(values) != dim:
                        raise FileUnreadable(f"inconsistent vector width in {path}")
                    vectors[parts[0]] = values
        except OSError as exc:
            raise FileUnreadable(f"cannot read embeddings {path}: {exc}") from exc
        except ValueError as exc:
            raise FileUnreadable(f"malformed embeddings {path}: {exc}") from exc
        return cls(vectors)

    @classmethod
    def empty(cls) -> "EmbeddingLexicon":
        return cls({})

    def cosine(self, a: str, b: str) -> float:
        va, vb = self._vectors.get(a), self._vectors.get(b)
        if va is None or vb is None:
            return 0.0
        na, nb = self._norms[a], self._norms[b]
        if na == 0.0 or nb == 0.0:
            return 0.0
        return sum(map(operator.mul, va, vb)) / (na * nb)


def phrase_column_similarity(
    lexicon: EmbeddingLexicon,
    phrase_lemmas: Sequence[str],
    column_lemmas: Sequence[str],
) -> float:
    """Mean pairwise cosine; empty sides and unknown tokens score 0."""
    if not phrase_lemmas or not column_lemmas:
        return 0.0
    total = 0.0
    for p in phrase_lemmas:
        for c in column_lemmas:
            total += lexicon.cosine(p, c)
    return total / (len(phrase_lemmas) * len(column_lemmas))


@dataclass(frozen=True)
class LinkCandidate:
    """One ranked column candidate for a phrase."""

    column: ColumnRef
    tier: int
    similarity: float


def rank_columns(
    phrase: str,
    schema: SchemaGraph,
    lexicon: Optional[EmbeddingLexicon],
    top_k: int,
) -> List[LinkCandidate]:
    """Rank every schema column as a link target for ``phrase`` and keep
    the best ``top_k``; without a lexicon every similarity is 0."""
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    lexicon = lexicon or EmbeddingLexicon.empty()
    lemmas = content_lemmas(tokenize(phrase))
    lemma_set = set(lemmas)
    scored = []
    for col in schema.columns():
        sim = phrase_column_similarity(lexicon, lemmas, col.lemmas)
        if lemma_set and (
            lemma_set == set(col.own_lemmas) or lemma_set == set(col.lemmas)
        ):
            tier = 1
        elif lemma_set & set(col.lemmas):
            tier = 2
        else:
            tier = 3
        scored.append((tier, -sim, col.table, col.column, col))
    scored.sort(key=lambda item: item[:4])
    return [
        LinkCandidate(column=col, tier=tier, similarity=-neg)
        for tier, neg, _, _, col in scored[:top_k]
    ]


class Slot(NamedTuple):
    """A fragment an assignment binds to a column: the phrase ``text`` of
    step ``step``, or, with ``step`` None, a literal value that every step
    mentioning it shares.  ``str(slot)`` is its key in the pairs file."""

    step: Optional[int]
    text: str

    def __str__(self) -> str:
        return f"value:{self.text}" if self.step is None else f"{self.step}:{self.text}"


@dataclass(frozen=True)
class Assignment:
    """One column per slot."""

    columns: Mapping[Slot, ColumnRef]

    def describe(self) -> Dict[str, str]:
        """Serializable view, used in emitted training pairs: each column
        spelled as :attr:`ColumnRef.sql`, which ``map --assignment`` reads
        back as that one column."""
        return {str(slot): col.sql for slot, col in self.columns.items()}


def enumerate_assignments(
    slots: Sequence[Tuple[Slot, Sequence[ColumnRef]]], limit: int
) -> Iterator[Assignment]:
    """Yield at most ``limit`` assignments best-first by rank sum.

    ``slots`` pairs each slot with its options, best first; a slot's rank
    is the position of its chosen option, and the rank tuple over the
    slots in order breaks ties lexicographically.  The stream ends earlier
    once every combination has been yielded; with no slots it holds one
    empty assignment, and with a slot that has no options it holds none.
    """
    if any(not options for _, options in slots):
        return
    start = tuple(0 for _ in slots)
    heap = [(0, start)]
    seen = {start}
    yielded = 0
    while heap and yielded < limit:
        total, ranks = heapq.heappop(heap)
        yield Assignment(
            {slot: options[r] for (slot, options), r in zip(slots, ranks)}
        )
        yielded += 1
        for i, (_, options) in enumerate(slots):
            if ranks[i] + 1 < len(options):
                nxt = ranks[:i] + (ranks[i] + 1,) + ranks[i + 1:]
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(heap, (total + 1, nxt))


# --- binding plans -----------------------------------------------------------


@dataclass(frozen=True)
class BindingPlan:
    """Which fragments of a program need columns, and which are literals."""

    phrase_slots: Tuple[Slot, ...]
    step_literals: Mapping[int, Tuple[str, ...]]


# The fields of a step's shape that may hold a phrase naming a column.
_PHRASE_FIELDS = ("phrase", "value", "key", "target", "head")


def _find_literals(fragment: str, index: ValueIndex) -> List[str]:
    """Longest-first verbatim matches of fragment n-grams against cells."""
    words = fragment.split()
    found: List[str] = []
    i = 0
    while i < len(words):
        matched = None
        for j in range(len(words), i, -1):
            gram = " ".join(words[i:j]).strip("'\"")
            if j - i == 1:
                w = words[i].strip("'\",.").lower()
                if w in STOP_WORDS or len(w) < 2:
                    continue
                gram = words[i].strip("'\",.")
            if gram and index.columns_containing(gram):
                matched = (gram, j)
                break
        if matched:
            found.append(matched[0])
            i = matched[1]
        else:
            i += 1
    return found


def plan_bindings(
    program: QdmrProgram, value_index: Optional[ValueIndex]
) -> BindingPlan:
    """Collect the phrase slots and literal slots a program needs.

    A step's phrase slots are the texts its shape holds in ``phrase``,
    ``value``, ``key``, ``target`` and ``head``, in that order, each once;
    its rule reads its columns under those texts.  SELECT steps whose text
    mentions a database literal become value selections and contribute no
    phrase slot; FILTER tails only ever contribute literals.  Without a
    value index (schema-only mode) no literal is found: every SELECT phrase
    is a phrase slot, and a FILTER whose tail holds words but no further
    reference cannot be mapped (:class:`~qdmr2sql.errors.UnboundPhrase`).
    """
    phrase_slots: Dict[Slot, None] = {}
    step_literals: Dict[int, Tuple[str, ...]] = {}

    for step in program.steps:
        shape = step.shape
        kind = step.operator.kind
        literals: List[str] = []
        if value_index is not None and kind in (OpKind.SELECT, OpKind.FILTER):
            fragment = shape.phrase if kind is OpKind.SELECT else (shape.tail or "")
            literals = _find_literals(fragment, value_index) if fragment else []
        if literals:
            step_literals[step.index] = tuple(literals)
        for name in _PHRASE_FIELDS:
            text = getattr(shape, name)
            # A SELECT whose phrase holds literals selects those instead.
            if isinstance(text, str) and text and not (literals and name == "phrase"):
                phrase_slots[Slot(step.index, text)] = None

    return BindingPlan(phrase_slots=tuple(phrase_slots), step_literals=step_literals)


def link_program(
    plan: BindingPlan,
    schema: SchemaGraph,
    lexicon: Optional[EmbeddingLexicon],
    value_index: Optional[ValueIndex],
    top_k: int,
    rankings: Dict[str, Tuple[ColumnRef, ...]],
) -> List[Tuple[Slot, Tuple[ColumnRef, ...]]]:
    """List each slot of ``plan`` with its best ``top_k`` columns: phrase
    slots in plan order, then literals in first-mention order, each once.

    ``rankings`` maps a phrase to its ranked columns; phrases missing from
    it are ranked and added.  :class:`qdmr2sql.search.Session` owns the
    memo that is shared across programs, and says when sharing it is
    valid.  A literal's columns come from ``value_index``, the index the
    plan found it in, which keeps them.
    """
    slots: Dict[Slot, Tuple[ColumnRef, ...]] = {}
    for slot in plan.phrase_slots:
        columns = rankings.get(slot.text)
        if columns is None:
            ranked = rank_columns(slot.text, schema, lexicon, top_k)
            columns = rankings[slot.text] = tuple(c.column for c in ranked)
        slots[slot] = columns
    for literals in plan.step_literals.values():
        for literal in literals:
            slot = Slot(None, literal)
            if slot not in slots:
                slots[slot] = value_index.columns_containing(literal)[:top_k]
    return list(slots.items())
