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
a step and each literal is a :class:`Slot`; a :class:`BindingPlan` lists
each step's own slots, the one record of what a step binds, and an
:class:`Assignment` maps every slot to one of its candidate columns.  The
enumerator yields assignments in non-decreasing rank-sum order (best
first, ties by lexicographic rank tuple) so a search can walk
alternatives from most to least plausible.
"""

from __future__ import annotations

import heapq
import math
import operator
from array import array
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
    """Word vectors read from a GloVe-format text file.

    The file is UTF-8, with or without a byte-order mark.  Each non-blank
    line is ``word v1 v2 ... vd``: the word and its ``d`` finite values,
    separated by single spaces, with no header line; every line has the
    same ``d``.  Each vector is held as one ``array('d')``, about ``8·d``
    bytes a word.  A word's norm is computed on the first :meth:`cosine`
    that reads it and kept, so only the words looked up pay for one.  A
    pair whose norms' product overflows a float, finite as each value is,
    is scaled down before its cosine is taken.
    """

    def __init__(self, vectors: Mapping[str, Sequence[float]]):
        self._vectors = vectors
        self._norms: Dict[str, float] = {}

    @classmethod
    def load(cls, path: Union[str, Path]) -> "EmbeddingLexicon":
        """Read a vectors file; raises FileUnreadable when it cannot be read,
        or a non-blank line holds no value, a non-number or a vector that
        does not sum to a finite number, or lines disagree on the width."""
        vectors: Dict[str, array] = {}
        dim: Optional[int] = None
        try:
            with open(path, "r", encoding="utf-8-sig") as fh:
                for number, line in enumerate(fh, 1):
                    fields = line.rstrip().split(" ")
                    token = fields[0]
                    if len(fields) < 2:
                        if not token:
                            continue
                        raise FileUnreadable(
                            f"no vector on line {number} of {path}: "
                            f"fields must be separated by single spaces"
                        )
                    del fields[0]
                    try:
                        values = array("d", map(float, fields))
                    except ValueError as exc:
                        raise FileUnreadable(
                            f"malformed embeddings {path} on line {number}: {exc}"
                        ) from exc
                    if not math.isfinite(sum(values)):
                        raise FileUnreadable(
                            f"non-finite vector for {token!r} on line {number} of {path}"
                        )
                    if dim is None:
                        dim = len(values)
                    elif len(values) != dim:
                        raise FileUnreadable(
                            f"inconsistent vector width in {path} on line {number}"
                        )
                    vectors[token] = values
        except OSError as exc:
            raise FileUnreadable(f"cannot read embeddings {path}: {exc}") from exc
        except ValueError as exc:
            raise FileUnreadable(f"malformed embeddings {path}: {exc}") from exc
        return cls(vectors)

    @classmethod
    def empty(cls) -> "EmbeddingLexicon":
        return cls({})

    def _norm(self, token: str, vector: Sequence[float]) -> float:
        norm = self._norms.get(token)
        if norm is None:
            norm = self._norms[token] = math.sqrt(sum(map(operator.mul, vector, vector)))
        return norm

    def cosine(self, a: str, b: str) -> float:
        va, vb = self._vectors.get(a), self._vectors.get(b)
        if va is None or vb is None:
            return 0.0
        na, nb = self._norm(a, va), self._norm(b, vb)
        if na == 0.0 or nb == 0.0:
            return 0.0
        dot, scale = sum(map(operator.mul, va, vb)), na * nb
        if scale == math.inf or not math.isfinite(dot):
            return _rescaled_cosine(va, vb)
        return dot / scale


def _rescaled_cosine(va: Sequence[float], vb: Sequence[float]) -> float:
    """The cosine of two nonzero vectors whose norms or dot product overflow
    a float: each is divided by its largest magnitude first, so no sum
    exceeds its width."""
    ma, mb = max(map(abs, va)), max(map(abs, vb))
    ua, ub = [x / ma for x in va], [y / mb for y in vb]
    return sum(map(operator.mul, ua, ub)) / math.sqrt(
        sum(map(operator.mul, ua, ua)) * sum(map(operator.mul, ub, ub))
    )


def phrase_column_similarity(
    lexicon: EmbeddingLexicon,
    phrase_lemmas: Sequence[str],
    column_lemmas: Sequence[str],
    cosines: Optional[Dict[Tuple[str, str], float]] = None,
) -> float:
    """Mean pairwise cosine; empty sides and unknown tokens score 0.

    The cosines are summed phrase lemma by phrase lemma, each over the
    column lemmas in order.  ``cosines`` maps (phrase lemma, column lemma)
    pairs to their cosine; pairs missing from it are computed and added.
    """
    if not phrase_lemmas or not column_lemmas:
        return 0.0
    if cosines is None:
        cosines = {}
    total = 0.0
    for p in phrase_lemmas:
        for c in column_lemmas:
            cos = cosines.get((p, c))
            if cos is None:
                cos = cosines[p, c] = lexicon.cosine(p, c)
            total += cos
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
    the best ``top_k``; without a lexicon every similarity is 0.

    Each column's similarity is :func:`phrase_column_similarity`'s, bit for
    bit.  Columns repeat their table's lemmas, so the call computes each
    distinct (phrase lemma, column lemma) cosine once and shares it across
    columns; the memo ends with the call.
    """
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    lexicon = lexicon or EmbeddingLexicon.empty()
    lemmas = content_lemmas(tokenize(phrase))
    lemma_set = set(lemmas)
    cosines: Dict[Tuple[str, str], float] = {}
    scored = []
    for col in schema.columns():
        sim = phrase_column_similarity(lexicon, lemmas, col.lemmas, cosines)
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
    """Each step's own slots, by step number, for the steps that have any:
    its phrase slots, then its literals as ``Slot(None, text)``, each once.
    A step's rule reads the columns of these slots and of no other, so
    they are also what its mapped query is kept under."""

    slots: Mapping[int, Tuple[Slot, ...]]


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
    slots: Dict[int, Tuple[Slot, ...]] = {}
    for step in program.steps:
        shape = step.shape
        kind = step.operator.kind
        literals: List[str] = []
        if value_index is not None and kind in (OpKind.SELECT, OpKind.FILTER):
            fragment = shape.phrase if kind is OpKind.SELECT else (shape.tail or "")
            literals = _find_literals(fragment, value_index) if fragment else []
        own: Dict[Slot, None] = {}
        for name in _PHRASE_FIELDS:
            text = getattr(shape, name)
            # A SELECT whose phrase holds literals selects those instead.
            if isinstance(text, str) and text and not (literals and name == "phrase"):
                own[Slot(step.index, text)] = None
        own.update(dict.fromkeys(Slot(None, text) for text in literals))
        if own:
            slots[step.index] = tuple(own)
    return BindingPlan(slots)


def link_program(
    plan: BindingPlan,
    schema: SchemaGraph,
    lexicon: Optional[EmbeddingLexicon],
    value_index: Optional[ValueIndex],
    top_k: int,
    rankings: Dict[str, Tuple[ColumnRef, ...]],
) -> List[Tuple[Slot, Tuple[ColumnRef, ...]]]:
    """List each slot of ``plan`` with its best ``top_k`` columns: phrase
    slots in step order, then literals in first-mention order, each once.

    ``rankings`` maps a phrase to its ranked columns; phrases missing from
    it are ranked and added.  :class:`qdmr2sql.search.Session` owns the
    memo that is shared across programs, and says when sharing it is
    valid.  A literal's columns come from ``value_index``, the index the
    plan found it in, which keeps them.
    """
    slots: Dict[Slot, Tuple[ColumnRef, ...]] = {}
    literals: Dict[Slot, None] = {}
    for own in plan.slots.values():
        for slot in own:
            if slot.step is None:
                literals[slot] = None
                continue
            columns = rankings.get(slot.text)
            if columns is None:
                ranked = rank_columns(slot.text, schema, lexicon, top_k)
                columns = rankings[slot.text] = tuple(c.column for c in ranked)
            slots[slot] = columns
    for slot in literals:
        slots[slot] = value_index.columns_containing(slot.text)[:top_k]
    return list(slots.items())
