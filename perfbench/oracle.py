"""Checks of the program's outputs that do not use the package.

Every Found example's SQL is run again on a read-only ``sqlite3``
connection and its result is compared with the answer as a set of rows.
Cells compare after a normalisation written here: numbers as floats to
nine significant digits, text without trailing whitespace.  An empty
answer never counts as matched, as in the package's default
configuration.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from workloads import FOUND, UNREACHABLE, Workload


def _cell(value):
    if isinstance(value, bytes):
        value = value.decode("utf-8", "replace")
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, (int, float)):
        return ("number", float(f"{float(value):.9g}"))
    if isinstance(value, str):
        return ("text", value.rstrip())
    return ("null", None)


def answer_rows(answer) -> List[list]:
    """A scalar is one cell; a flat list is one column; else rows."""
    if not isinstance(answer, list):
        return [[answer]]
    return [list(item) if isinstance(item, list) else [item] for item in answer]


def same_rows(got, want) -> bool:
    """Set equality of two row collections under the normalisation above."""
    got_set = {tuple(_cell(c) for c in row) for row in got}
    want_set = {tuple(_cell(c) for c in row) for row in want}
    return bool(want_set) and got_set == want_set


def _read_jsonl(path: Path) -> List[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Oracle:
    """Verdicts on the files of one corpus pass."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self._connections: Dict[str, sqlite3.Connection] = {}
        self._results: Dict[Tuple[str, str], Optional[list]] = {}

    def close(self) -> None:
        for conn in self._connections.values():
            conn.close()
        self._connections.clear()

    def _rerun(self, db_path: str, sql: str) -> Optional[list]:
        key = (db_path, sql)
        if key not in self._results:
            conn = self._connections.get(db_path)
            if conn is None:
                conn = sqlite3.connect(f"file:{db_path}?mode=ro", uri=True)
                self._connections[db_path] = conn
            try:
                self._results[key] = conn.execute(sql).fetchall()
            except sqlite3.Error:
                self._results[key] = None
        return self._results[key]

    def check(self, out_dir: Path) -> Tuple[Dict[str, str], Dict[str, str], List[str]]:
        """Statuses by example id, wrong examples with reasons, and problems
        with the files as a whole."""
        expected = self.workload.expected
        pairs = _read_jsonl(out_dir / "pairs.jsonl")
        failures = _read_jsonl(out_dir / "pairs.failures.jsonl")
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        problems: List[str] = []

        statuses: Dict[str, str] = {}
        for record in pairs:
            statuses.setdefault(record["id"], FOUND)
        for record in failures:
            statuses.setdefault(record["id"], record["status"])
        if len(statuses) != len(pairs) + len(failures) or set(statuses) != set(expected):
            problems.append("pairs and failures files do not list every example once")

        found = sum(1 for s in statuses.values() if s == FOUND)
        total = report.get("total") or {}
        if total.get("examples") != len(expected) or total.get("synthesized") != found:
            problems.append(f"report total {total} disagrees with the pairs files")

        wrong: Dict[str, str] = {}
        for ex_id, exp in expected.items():
            status = statuses.get(ex_id)
            if status == "Timeout":
                wrong[ex_id] = "timed out"
            elif exp.expect == UNREACHABLE:
                if status == FOUND:
                    wrong[ex_id] = "unreachable example came back Found"
            elif exp.designed and status != exp.expect:
                wrong[ex_id] = f"status {status}, designed {exp.expect}"

        for record in pairs:
            ex_id = record["id"]
            exp = expected.get(ex_id)
            if exp is None or ex_id in wrong:
                continue
            got = self._rerun(exp.db_path, record["sql"])
            if got is None:
                wrong[ex_id] = "found SQL does not run"
            elif not same_rows(got, answer_rows(exp.answer)):
                wrong[ex_id] = "found SQL returns another set than the answer"
        return statuses, wrong, problems
