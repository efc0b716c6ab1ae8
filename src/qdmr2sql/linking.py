"""Linking decomposition phrases to schema columns.

Ranking has three tiers.  Columns whose lemmatized tokens are identical to
the phrase's come first; columns sharing at least one non-stop-word lemma
come second, ordered by embedding similarity; every other column follows,
ordered by similarity alone.  Similarity is the mean cosine over all
(phrase lemma, column lemma) pairs, with out-of-vocabulary pairs scored 0.
Ties inside a tier break lexicographically by (table, column), so rankings
are total and reproducible.

Literal values mentioned in a step are matched verbatim against database
cells; every column containing the literal is a candidate.  Candidate
column choices, one per phrase and per literal, form an assignment; the
enumerator yields assignments in non-decreasing rank-sum order (best first,
ties by lexicographic rank tuple) so a search can walk alternatives from
most to least plausible.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import UnreadableDatabase
from .qdmr import OpKind, QdmrProgram
from .schema import ColumnRef, SchemaGraph, ValueIndex
from .text import STOP_WORDS, content_lemmas, tokenize

__all__ = [
    "EmbeddingLexicon",
    "LinkCandidate",
    "PhraseLinking",
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
            t: math.sqrt(sum(x * x for x in v)) for t, v in vectors.items()
        }

    @classmethod
    def load(cls, path: Union[str, Path]) -> "EmbeddingLexicon":
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
                        raise UnreadableDatabase(
                            f"inconsistent vector width in {path}"
                        )
                    vectors[parts[0]] = values
        except OSError as exc:
            raise UnreadableDatabase(f"cannot read embeddings {path}: {exc}") from exc
        except ValueError as exc:
            raise UnreadableDatabase(f"malformed embeddings {path}: {exc}") from exc
        return cls(vectors)

    @classmethod
    def empty(cls) -> "EmbeddingLexicon":
        return cls({})

    def __contains__(self, token: str) -> bool:
        return token in self._vectors

    def __len__(self) -> int:
        return len(self._vectors)

    def cosine(self, a: str, b: str) -> float:
        va, vb = self._vectors.get(a), self._vectors.get(b)
        if va is None or vb is None:
            return 0.0
        na, nb = self._norms[a], self._norms[b]
        if na == 0.0 or nb == 0.0:
            return 0.0
        return sum(x * y for x, y in zip(va, vb)) / (na * nb)


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
    rank: int


@dataclass(frozen=True)
class PhraseLinking:
    """A phrase slot with its full candidate ranking."""

    step_index: int
    phrase: str
    candidates: Tuple[LinkCandidate, ...]


def rank_columns(
    phrase: str,
    schema: SchemaGraph,
    lexicon: Optional[EmbeddingLexicon] = None,
    top_k: Optional[int] = None,
) -> List[LinkCandidate]:
    """Rank every schema column as a link target for ``phrase``; keep the
    best ``top_k``, or all of them when ``top_k`` is None."""
    if top_k is not None and top_k < 1:
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
    out = [
        LinkCandidate(column=col, tier=tier, similarity=-neg, rank=i)
        for i, (tier, neg, _, _, col) in enumerate(scored)
    ]
    return out if top_k is None else out[:top_k]


@dataclass(frozen=True)
class Assignment:
    """One concrete choice of column per phrase slot and per literal."""

    choices: Mapping[Tuple[int, str], ColumnRef]
    literal_choices: Mapping[str, ColumnRef]
    ranks: Tuple[int, ...] = ()

    def describe(self) -> Dict[str, str]:
        """Serializable view, used in emitted training pairs."""
        out = {}
        for (idx, phrase), col in self.choices.items():
            out[f"{idx}:{phrase}"] = str(col)
        for literal, col in self.literal_choices.items():
            out[f"value:{literal}"] = str(col)
        return out


def enumerate_assignments(
    linkings: Sequence[PhraseLinking],
    literal_links: Mapping[str, Sequence[ColumnRef]],
    top_k: int = 20,
    limit: Optional[int] = None,
) -> Iterator[Assignment]:
    """Yield assignments best-first by rank sum.

    Slot order is the phrase linkings in the given order followed by the
    literals in insertion order; the rank tuple over those slots breaks
    ties lexicographically.  The stream ends once the capped cross-product
    (``top_k`` options per slot) is exhausted.
    """
    slots: List[Tuple[str, object, Sequence[object]]] = []
    for linking in linkings:
        options = linking.candidates[:top_k]
        slots.append(("phrase", (linking.step_index, linking.phrase), options))
    for literal, cols in literal_links.items():
        slots.append(("literal", literal, list(cols)[:top_k]))

    if any(not options for _, _, options in slots):
        return
    yielded = 0
    if not slots:
        if limit is None or limit > 0:
            yield Assignment(choices={}, literal_choices={}, ranks=())
        return

    start = tuple(0 for _ in slots)
    heap = [(0, start)]
    seen = {start}
    while heap:
        if limit is not None and yielded >= limit:
            return
        total, ranks = heapq.heappop(heap)
        choices: Dict[Tuple[int, str], ColumnRef] = {}
        literal_choices: Dict[str, ColumnRef] = {}
        for (kind, key, options), r in zip(slots, ranks):
            if kind == "phrase":
                choices[key] = options[r].column
            else:
                literal_choices[key] = options[r]
        yield Assignment(
            choices=choices, literal_choices=literal_choices, ranks=ranks
        )
        yielded += 1
        for i, (_, _, options) in enumerate(slots):
            if ranks[i] + 1 < len(options):
                nxt = ranks[:i] + (ranks[i] + 1,) + ranks[i + 1:]
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(heap, (total + 1, nxt))


# --- binding plans -----------------------------------------------------------


@dataclass(frozen=True)
class BindingPlan:
    """Which fragments of a program need columns, and which are literals."""

    phrase_slots: Tuple[Tuple[int, str, str], ...]  # (step, role, phrase)
    step_literals: Mapping[int, Tuple[str, ...]]
    literal_candidates: Mapping[str, Tuple[ColumnRef, ...]]


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
    program: QdmrProgram, value_index: Optional[ValueIndex] = None
) -> BindingPlan:
    """Collect the phrase slots and literal slots a program needs.

    SELECT steps whose text mentions a database literal become value
    selections and contribute no phrase slot; FILTER tails only ever
    contribute literals.  Without a value index (schema-only mode) every
    fragment is treated as a phrase.
    """
    phrase_slots: List[Tuple[int, str, str]] = []
    step_literals: Dict[int, Tuple[str, ...]] = {}
    literal_candidates: Dict[str, Tuple[ColumnRef, ...]] = {}

    for step in program.steps:
        shape = step.shape
        kind = step.operator.kind
        literals: List[str] = []
        if value_index is not None and kind in (OpKind.SELECT, OpKind.FILTER):
            fragment = shape.phrase if kind is OpKind.SELECT else (shape.tail or "")
            literals = _find_literals(fragment, value_index) if fragment else []
        if literals:
            step_literals[step.index] = tuple(literals)
            for lit in literals:
                if lit not in literal_candidates:
                    literal_candidates[lit] = value_index.columns_containing(lit)

        if kind is OpKind.SELECT and not literals and shape.phrase:
            phrase_slots.append((step.index, "select", shape.phrase))
        elif kind is OpKind.PROJECT and shape.phrase:
            phrase_slots.append((step.index, "project", shape.phrase))
        elif kind is OpKind.GROUP:
            if isinstance(shape.value, str):
                phrase_slots.append((step.index, "group_value", shape.value))
            if isinstance(shape.key, str):
                phrase_slots.append((step.index, "group_key", shape.key))
        elif kind is OpKind.COMPARATIVE and isinstance(shape.target, str):
            phrase_slots.append((step.index, "cmp_target", shape.target))
        elif kind is OpKind.SORT and isinstance(shape.key, str):
            phrase_slots.append((step.index, "sort_key", shape.key))
        elif kind is OpKind.INTERSECT and shape.head:
            phrase_slots.append((step.index, "intersect_head", shape.head))

    return BindingPlan(
        phrase_slots=tuple(phrase_slots),
        step_literals=step_literals,
        literal_candidates=literal_candidates,
    )


def link_program(
    program: QdmrProgram,
    schema: SchemaGraph,
    lexicon: Optional[EmbeddingLexicon] = None,
    value_index: Optional[ValueIndex] = None,
    top_k: int = 20,
    *,
    rankings: Optional[Dict[str, Tuple[LinkCandidate, ...]]] = None,
) -> Tuple[BindingPlan, List[PhraseLinking]]:
    """Plan a program's bindings and rank candidates for each phrase slot.

    ``rankings`` maps a phrase to its ranking; phrases missing from it are
    ranked and added.  A caller may share one such memo across programs
    only while ``schema``, ``lexicon`` and ``top_k`` stay the same, since
    a ranking depends on all three.
    """
    plan = plan_bindings(program, value_index)
    if rankings is None:
        rankings = {}
    linkings = []
    for idx, _, phrase in plan.phrase_slots:
        candidates = rankings.get(phrase)
        if candidates is None:
            candidates = tuple(rank_columns(phrase, schema, lexicon, top_k))
            rankings[phrase] = candidates
        linkings.append(
            PhraseLinking(step_index=idx, phrase=phrase, candidates=candidates)
        )
    return plan, linkings
