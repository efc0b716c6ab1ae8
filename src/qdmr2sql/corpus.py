"""Corpus ingestion, batch synthesis, coverage reporting, pair emission.

Input is JSON Lines: one example per line with ``id``, ``question``,
``qdmr``, ``answer``, ``db_id``, and optionally ``dataset`` (defaults to
the file's stem) and ``gold_sql`` (carried through untouched, never used
by synthesis).  Malformed lines become reject records with reasons; they
are never silently dropped.

A batch run searches the examples one at a time, in input order.  It
opens, introspects and value-indexes each database once, on its first
example, and searches every example on that database through that one
session, which also ranks each distinct phrase, prepares each distinct
decomposition and searches each join path once.  No example's outcome
depends on the others, so repeated runs produce byte-identical output
files.  Coverage is reported per dataset group and in total, plus a
second table restricted to examples whose answers are non-empty.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, TextIO, Tuple, Union

from .errors import (
    AllLinesInvalid,
    FileUnreadable,
    FileUnwritable,
    Qdmr2SqlError,
    QdmrParseError,
)
from .executor import Database, normalize_answer
from .linking import EmbeddingLexicon
from .qdmr import QdmrProgram, parse_qdmr
from .schema import load_schema
from .search import (
    SearchStatus,
    Session,
    SynthesisConfig,
    SynthesisOutcome,
    search,
)

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
    "create_outputs",
]


@dataclass(frozen=True)
class Example:
    id: str
    question: str
    program: QdmrProgram
    answer: List[List[object]]
    db_id: str
    dataset: str = "default"
    gold_sql: Optional[str] = None


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
        # utf-8-sig drops a leading byte-order mark, which JSON refuses.
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc

    default_dataset = path.stem
    examples: List[Example] = []
    rejects: List[Reject] = []
    n_lines = 0
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        n_lines += 1
        try:
            doc = json.loads(line)
        # Too many digits in an integer raise ValueError, deep nesting RecursionError.
        except (ValueError, RecursionError) as exc:
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
                program=program,
                answer=answer,
                db_id=str(doc["db_id"]),
                dataset=str(doc.get("dataset", default_dataset)),
                gold_sql=doc.get("gold_sql"),
            )
        )
    if n_lines and not examples:
        raise AllLinesInvalid(f"all {n_lines} lines of {path} were rejected")
    return examples, rejects


def resolve_database(databases_dir: Union[str, Path], db_id: str) -> Path:
    """Locate the database file for ``db_id`` under ``databases_dir``.

    A ``db_id`` must be one path component: one with a separator (so any
    absolute one), ``.`` or ``..`` names no file here, so it raises
    FileUnreadable like a missing one.
    """
    root = Path(databases_dir)
    if db_id in ("", ".", "..") or Path(db_id).name != db_id:
        raise FileUnreadable(f"no database file for {db_id!r} under {root}")
    candidates = [
        root / db_id,
        root / f"{db_id}.sqlite",
        root / f"{db_id}.db",
        root / db_id / f"{db_id}.sqlite",
        root / db_id / f"{db_id}.db",
    ]
    for candidate in candidates:
        # Unlike Path.is_file, this is False for a name too long for the OS.
        if os.path.isfile(candidate):
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
        for ex, out in pairs:
            groups.setdefault(ex.dataset, []).append((ex, out))
        rows = []
        for name, members in groups.items():
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
            "groups": [asdict(r) for r in self.rows],
            "total": asdict(self.total) if self.total else None,
            "non_empty": {
                "groups": [asdict(r) for r in self.non_empty_rows],
                "total": asdict(self.non_empty_total)
                if self.non_empty_total
                else None,
            },
        }
        if not self.rows:
            doc["note"] = "no examples"
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def write(self, path: Union[str, Path]) -> None:
        with _output(path) as fh:
            fh.write(self.to_json())


# --- batch synthesis ---------------------------------------------------------


def _mapping_failed(exc: Qdmr2SqlError) -> SynthesisOutcome:
    return SynthesisOutcome(
        status=SearchStatus.MAPPING_FAILED,
        failure_reason=f"{type(exc).__name__}: {exc}",
    )


def _open_session(
    path: Path,
    config: SynthesisConfig,
    lexicon: Optional[EmbeddingLexicon],
) -> Union[Session, SynthesisOutcome]:
    """Open, introspect and value-index one database for its examples.
    When opening or introspection fails, that failure is every such
    example's outcome; the database is closed whatever raised."""
    try:
        database = Database.open(path)
        try:
            return Session(database, load_schema(database.conn), config, lexicon)
        except BaseException:
            database.close()
            raise
    except Qdmr2SqlError as exc:
        return _mapping_failed(exc)


def run_corpus(
    examples: Sequence[Example],
    databases_dir: Union[str, Path],
    config: Optional[SynthesisConfig] = None,
    jobs: int = 1,
    lexicon: Optional[EmbeddingLexicon] = None,
) -> Tuple[List[SynthesisOutcome], CoverageReport]:
    """Search every example in input order and build the coverage report.

    Without a ``lexicon``, phrases link to columns by lexical and lemma
    matches alone.  Database files are resolved up front, in input order,
    so a bad ``db_id`` aborts before any work runs.  Each database's
    session opens on its first example and closes after its last, so a
    corpus grouped by database holds one connection at a time.

    ``jobs`` must be at least 1 and changes nothing: every example is
    searched on the calling thread, because a thread per database never
    made a run faster.  The keyword stays only because the benchmark's
    check pass (``perfbench/worker.py``) still passes ``jobs=2``.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    config = config or SynthesisConfig()
    last = {example.db_id: i for i, example in enumerate(examples)}
    paths = {db_id: resolve_database(databases_dir, db_id) for db_id in last}
    sessions: Dict[str, Union[Session, SynthesisOutcome]] = {}
    outcomes: List[SynthesisOutcome] = []
    try:
        for i, example in enumerate(examples):
            session = sessions.get(example.db_id)
            if session is None:
                session = sessions[example.db_id] = _open_session(
                    paths[example.db_id], config, lexicon
                )
            if isinstance(session, Session):
                try:
                    outcomes.append(search(example, session))
                except Qdmr2SqlError as exc:
                    outcomes.append(_mapping_failed(exc))
                if last[example.db_id] == i:
                    sessions.pop(example.db_id).close()
            else:
                outcomes.append(session)
    finally:
        for session in sessions.values():
            if isinstance(session, Session):
                session.close()
    return outcomes, CoverageReport.build(examples, outcomes)


# --- output files ------------------------------------------------------------


def _companion_path(pairs_path: Union[str, Path], tag: str) -> Path:
    p = Path(pairs_path)
    if p.suffix:
        return p.with_name(f"{p.stem}.{tag}{p.suffix}")
    return p.with_name(f"{p.name}.{tag}")


def failures_path(pairs_path: Union[str, Path]) -> Path:
    return _companion_path(pairs_path, "failures")


def rejects_path(pairs_path: Union[str, Path]) -> Path:
    return _companion_path(pairs_path, "rejects")


@contextmanager
def _output(path: Union[str, Path]) -> Iterator[TextIO]:
    """``path`` open for writing text; failing to open or write it raises
    FileUnwritable naming the path."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise FileUnwritable(f"cannot write {path}: {exc}") from exc


def create_outputs(paths: Sequence[Union[str, Path]]) -> None:
    """Create or empty each of ``paths``, so a command finds one it cannot
    write before it does any work; raises FileUnwritable naming it."""
    for path in paths:
        with _output(path):
            pass


def emit_training_pairs(
    examples: Sequence[Example],
    outcomes: Sequence[SynthesisOutcome],
    path: Union[str, Path],
) -> int:
    """Write one pair line per successful example; failures go to a
    companion file next to ``path``.  Returns the number of pairs written.
    """
    pairs_written = 0
    with _output(path) as pairs, _output(failures_path(path)) as failures:
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
    return pairs_written


def write_rejects(rejects: Sequence[Reject], path: Union[str, Path]) -> int:
    """Write reject records as JSONL; returns the count written."""
    with _output(path) as fh:
        for reject in rejects:
            doc: Dict[str, object] = {
                "line": reject.line_no,
                "reason": reject.reason,
            }
            if reject.id is not None:
                doc["id"] = reject.id
            fh.write(json.dumps(doc) + "\n")
    return len(rejects)
