"""Corpus ingestion, batch synthesis, coverage reporting, pair emission.

Input is JSON Lines: one example per line with ``id``, ``question``,
``qdmr``, ``answer``, ``db_id``, and optionally ``dataset`` (defaults to
the file's stem) and ``gold_sql`` (carried through untouched, never used
by synthesis).  Malformed lines become reject records with reasons; they
are never silently dropped.

A batch run opens, introspects and value-indexes each database once, on
its first example, and searches every example on that database through
that one session, which also ranks each distinct phrase once.  With
several jobs, each thread takes one database's examples at a time.
Results are merged back in input order, and no example's outcome depends
on the others, so repeated runs and runs with any number of jobs produce
byte-identical output files.  Coverage is
reported per dataset group and in total, plus a second table restricted
to examples whose answers are non-empty.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import (
    AllLinesInvalid,
    FileUnreadable,
    Qdmr2SqlError,
    QdmrParseError,
)
from .executor import Database, normalize_answer
from .linking import EmbeddingLexicon, LinkCandidate
from .qdmr import QdmrProgram, parse_qdmr
from .schema import ValueIndex, load_schema
from .search import SearchStatus, SynthesisConfig, SynthesisOutcome, search

__all__ = [
    "Example",
    "Reject",
    "CoverageRow",
    "CoverageReport",
    "load_examples",
    "resolve_database",
    "run_corpus",
    "emit_training_pairs",
    "write_rejects",
    "failures_path",
]


@dataclass(frozen=True)
class Example:
    id: str
    question: str
    qdmr: str
    answer: List[List[object]]
    db_id: str
    dataset: str = "default"
    gold_sql: Optional[str] = None
    program: Optional[QdmrProgram] = field(default=None, compare=False)


@dataclass(frozen=True)
class Reject:
    line_no: int
    reason: str
    id: Optional[str] = None


_REQUIRED = ("id", "question", "qdmr", "answer", "db_id")


def load_examples(
    path: Union[str, Path]
) -> Tuple[List[Example], List[Reject]]:
    """Parse a JSONL examples file; invalid lines become rejects.

    Raises FileUnreadable when the file cannot be opened and
    AllLinesInvalid when it has lines but none survived validation.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc

    default_dataset = path.stem
    examples: List[Example] = []
    rejects: List[Reject] = []
    n_lines = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        n_lines += 1
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            rejects.append(Reject(line_no, f"invalid JSON: {exc}"))
            continue
        if not isinstance(doc, dict):
            rejects.append(Reject(line_no, "line is not a JSON object"))
            continue
        missing = [k for k in _REQUIRED if k not in doc]
        ex_id = str(doc.get("id", f"line-{line_no}"))
        if missing:
            rejects.append(
                Reject(line_no, f"missing fields: {', '.join(missing)}", id=ex_id)
            )
            continue
        try:
            answer = normalize_answer(doc["answer"])
        except ValueError as exc:
            rejects.append(Reject(line_no, str(exc), id=ex_id))
            continue
        try:
            program = parse_qdmr(str(doc["qdmr"]))
        except QdmrParseError as exc:
            rejects.append(
                Reject(line_no, f"{type(exc).__name__}: {exc}", id=ex_id)
            )
            continue
        examples.append(
            Example(
                id=ex_id,
                question=str(doc["question"]),
                qdmr=str(doc["qdmr"]),
                answer=answer,
                db_id=str(doc["db_id"]),
                dataset=str(doc.get("dataset", default_dataset)),
                gold_sql=doc.get("gold_sql"),
                program=program,
            )
        )
    if n_lines and not examples:
        raise AllLinesInvalid(f"all {n_lines} lines of {path} were rejected")
    return examples, rejects


def resolve_database(databases_dir: Union[str, Path], db_id: str) -> Path:
    """Locate the database file for ``db_id`` under ``databases_dir``."""
    root = Path(databases_dir)
    candidates = [
        root / db_id,
        root / f"{db_id}.sqlite",
        root / f"{db_id}.db",
        root / db_id / f"{db_id}.sqlite",
        root / db_id / f"{db_id}.db",
    ]
    for candidate in candidates:
        if candidate.is_file():
            return candidate
    raise FileUnreadable(f"no database file for {db_id!r} under {root}")


# --- coverage reporting ------------------------------------------------------


@dataclass(frozen=True)
class CoverageRow:
    dataset: str
    db_count: int
    examples: int
    synthesized: int
    coverage: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "dataset": self.dataset,
            "db_count": self.db_count,
            "examples": self.examples,
            "synthesized": self.synthesized,
            "coverage": self.coverage,
        }


@dataclass(frozen=True)
class CoverageReport:
    rows: Tuple[CoverageRow, ...]
    total: Optional[CoverageRow]
    non_empty_rows: Tuple[CoverageRow, ...]
    non_empty_total: Optional[CoverageRow]

    @staticmethod
    def percent(synthesized: int, examples: int) -> float:
        if examples == 0:
            return 0.0
        return round(100.0 * synthesized / examples, 1)

    @classmethod
    def _table(
        cls,
        pairs: Sequence[Tuple[Example, SynthesisOutcome]],
    ) -> Tuple[Tuple[CoverageRow, ...], Optional[CoverageRow]]:
        groups: Dict[str, List[Tuple[Example, SynthesisOutcome]]] = {}
        order: List[str] = []
        for ex, out in pairs:
            if ex.dataset not in groups:
                groups[ex.dataset] = []
                order.append(ex.dataset)
            groups[ex.dataset].append((ex, out))
        rows = []
        for name in order:
            members = groups[name]
            n = len(members)
            m = sum(1 for _, out in members if out.status is SearchStatus.FOUND)
            dbs = len({ex.db_id for ex, _ in members})
            rows.append(CoverageRow(name, dbs, n, m, cls.percent(m, n)))
        if not rows:
            return (), None
        n_all = sum(r.examples for r in rows)
        m_all = sum(r.synthesized for r in rows)
        db_all = len({ex.db_id for ex, _ in pairs})
        total = CoverageRow("Total", db_all, n_all, m_all, cls.percent(m_all, n_all))
        return tuple(rows), total

    @classmethod
    def build(
        cls,
        examples: Sequence[Example],
        outcomes: Sequence[SynthesisOutcome],
    ) -> "CoverageReport":
        pairs = list(zip(examples, outcomes))
        rows, total = cls._table(pairs)
        non_empty = [(ex, out) for ex, out in pairs if ex.answer]
        ne_rows, ne_total = cls._table(non_empty)
        return cls(rows, total, ne_rows, ne_total)

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "groups": [r.to_dict() for r in self.rows],
            "total": self.total.to_dict() if self.total else None,
            "non_empty": {
                "groups": [r.to_dict() for r in self.non_empty_rows],
                "total": self.non_empty_total.to_dict()
                if self.non_empty_total
                else None,
            },
        }
        if not self.rows:
            doc["note"] = "no examples"
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


# --- batch synthesis ---------------------------------------------------------


def _mapping_failed(exc: Qdmr2SqlError) -> SynthesisOutcome:
    return SynthesisOutcome(
        status=SearchStatus.MAPPING_FAILED,
        failure_reason=f"{type(exc).__name__}: {exc}",
    )


class _Session:
    """One database's connection, schema, value index and phrase rankings,
    shared by every example on it.  The config and lexicon are fixed for
    the session's life, so a phrase's ranking is computed once and reused.
    When opening or introspection fails, that failure is every such
    example's outcome.  Use and close a session on the thread that opened
    it: SQLite connections refuse other threads."""

    def __init__(
        self,
        path: Path,
        config: SynthesisConfig,
        lexicon: Optional[EmbeddingLexicon],
    ):
        self.config = config
        self.lexicon = lexicon
        self.rankings: Dict[str, Tuple[LinkCandidate, ...]] = {}
        self.db: Optional[Database] = None
        self.failure: Optional[SynthesisOutcome] = None
        try:
            self.db = Database.open(path)
            self.schema = load_schema(self.db.conn)
        except Qdmr2SqlError as exc:
            self.close()
            self.failure = _mapping_failed(exc)
            return
        except BaseException:
            self.close()
            raise
        self.value_index = ValueIndex(self.db.conn, self.schema)

    def search(self, example: Example) -> SynthesisOutcome:
        if self.failure is not None:
            return self.failure
        try:
            return search(
                example,
                self.schema,
                self.db,
                self.config,
                self.lexicon,
                value_index=self.value_index,
                rankings=self.rankings,
            )
        except Qdmr2SqlError as exc:
            return _mapping_failed(exc)

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None


def _search_in_order(
    examples: Sequence[Example],
    paths: Dict[str, Path],
    config: SynthesisConfig,
    lexicon: Optional[EmbeddingLexicon],
) -> List[SynthesisOutcome]:
    """Search ``examples`` in order, opening each database's session on its
    first example and closing it after its last, so a corpus grouped by
    database holds one connection at a time."""
    last = {example.db_id: i for i, example in enumerate(examples)}
    sessions: Dict[str, _Session] = {}
    try:
        outcomes = []
        for i, example in enumerate(examples):
            session = sessions.get(example.db_id)
            if session is None:
                session = sessions[example.db_id] = _Session(
                    paths[example.db_id], config, lexicon
                )
            outcomes.append(session.search(example))
            if last[example.db_id] == i:
                sessions.pop(example.db_id).close()
        return outcomes
    finally:
        for session in sessions.values():
            session.close()


def run_corpus(
    examples: Sequence[Example],
    databases_dir: Union[str, Path],
    config: Optional[SynthesisConfig] = None,
    jobs: int = 1,
    lexicon: Optional[EmbeddingLexicon] = None,
) -> Tuple[List[SynthesisOutcome], CoverageReport]:
    """Search every example and build the coverage report.

    Without a ``lexicon``, phrases link to columns by lexical and lemma
    matches alone.  Database files are resolved up front so a bad
    ``db_id`` aborts before any work runs.  Each database is opened and
    introspected once.  With ``jobs > 1``, up to ``jobs`` threads each
    search one database's examples at a time.  Results come back in input
    order regardless of ``jobs``.
    """
    config = config or SynthesisConfig()
    shards: Dict[str, List[int]] = {}
    for i, example in enumerate(examples):
        shards.setdefault(example.db_id, []).append(i)
    paths = {db_id: resolve_database(databases_dir, db_id) for db_id in shards}
    if jobs > 1 and len(shards) > 1:

        def work(indices: List[int]) -> List[SynthesisOutcome]:
            shard = [examples[i] for i in indices]
            return _search_in_order(shard, paths, config, lexicon)

        groups = list(shards.values())
        with ThreadPoolExecutor(max_workers=min(jobs, len(groups))) as pool:
            results = list(pool.map(work, groups))
        outcomes: List[Optional[SynthesisOutcome]] = [None] * len(examples)
        for indices, found in zip(groups, results):
            for i, outcome in zip(indices, found):
                outcomes[i] = outcome
    else:
        outcomes = _search_in_order(examples, paths, config, lexicon)
    return outcomes, CoverageReport.build(examples, outcomes)


# --- output files ------------------------------------------------------------


def failures_path(pairs_path: Union[str, Path]) -> Path:
    p = Path(pairs_path)
    if p.suffix:
        return p.with_name(f"{p.stem}.failures{p.suffix}")
    return p.with_name(f"{p.name}.failures")


def rejects_path(pairs_path: Union[str, Path]) -> Path:
    p = Path(pairs_path)
    if p.suffix:
        return p.with_name(f"{p.stem}.rejects{p.suffix}")
    return p.with_name(f"{p.name}.rejects")


def emit_training_pairs(
    examples: Sequence[Example],
    outcomes: Sequence[SynthesisOutcome],
    path: Union[str, Path],
) -> int:
    """Write one pair line per successful example; failures go to a
    companion file next to ``path``.  Returns the number of pairs written.
    """
    path = Path(path)
    pairs_written = 0
    try:
        with open(path, "w", encoding="utf-8") as pairs, open(
            failures_path(path), "w", encoding="utf-8"
        ) as failures:
            for example, outcome in zip(examples, outcomes):
                if outcome.status is SearchStatus.FOUND:
                    record = {
                        "id": example.id,
                        "question": example.question,
                        "sql": outcome.sql,
                        "db_id": example.db_id,
                        "assignment": outcome.assignment.describe()
                        if outcome.assignment
                        else {},
                        "heuristics": list(outcome.heuristics_applied),
                        "qdmr": outcome.qdmr,
                    }
                    if example.gold_sql is not None:
                        record["gold_sql"] = example.gold_sql
                    pairs.write(json.dumps(record) + "\n")
                    pairs_written += 1
                else:
                    failures.write(
                        json.dumps(
                            {
                                "id": example.id,
                                "status": outcome.status.value,
                                "failure_reason": outcome.failure_reason,
                            }
                        )
                        + "\n"
                    )
    except OSError as exc:
        raise FileUnreadable(f"cannot write {path}: {exc}") from exc
    return pairs_written


def write_rejects(rejects: Sequence[Reject], path: Union[str, Path]) -> int:
    """Write reject records as JSONL; returns the count written."""
    with open(path, "w", encoding="utf-8") as fh:
        for reject in rejects:
            doc: Dict[str, object] = {
                "line": reject.line_no,
                "reason": reject.reason,
            }
            if reject.id is not None:
                doc["id"] = reject.id
            fh.write(json.dumps(doc) + "\n")
    return len(rejects)
