"""Time one search whose literal lookups run past the example's deadline.

Builds a SQLite database in a temporary directory with one table,
``items``: an ``id INTEGER PRIMARY KEY`` and ten TEXT columns ``c0`` to
``c9``, where row ``r`` holds ``value i number rrrrrrr`` in column ``ci``
(``r`` zero-padded to seven digits).  It opens a ``Session`` on it with
``per_example_timeout`` set to ``--timeout``, then searches
``return items; return #1 named value 3 number 0000042`` with the answer
``[[42]]``.  It prints the seconds the session took to open with the
process's peak resident set size after it (``Database.open`` copies the
file into memory), the seconds the search took, the search's status and
the candidates it tried.

A column with more distinct values than the value index maps is probed
once per literal, when the decomposition is planned and linked.  Those
probes run under the example's deadline, so with enough rows the search
returns Timeout with no candidate tried, within ``--timeout`` plus one
check of the engine's progress hook.

Standard library only.  Usage:

    python3 tools/deadline_leak.py [--rows N] [--timeout S] [--src DIR]
"""

from __future__ import annotations

import argparse
import importlib
import resource
import sqlite3
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
COLUMNS = 10
QDMR = "return items; return #1 named value 3 number 0000042"


def build(path: Path, rows: int) -> None:
    """Write the ``items`` table of ``rows`` rows to a new database."""
    cols = [f"c{i}" for i in range(COLUMNS)]
    conn = sqlite3.connect(path)
    try:
        conn.execute(
            "CREATE TABLE items (id INTEGER PRIMARY KEY, "
            + ", ".join(f"{c} TEXT" for c in cols) + ")"
        )
        conn.executemany(
            f"INSERT INTO items VALUES (?{', ?' * COLUMNS})",
            (
                (r, *(f"value {i} number {r:07d}" for i in range(COLUMNS)))
                for r in range(rows)
            ),
        )
        conn.commit()
    finally:
        conn.close()


def peak_rss_mb() -> float:
    """The process's peak resident set size so far, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10  # bytes or KiB


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--rows", type=int, default=200_000)
    p.add_argument("--timeout", type=float, default=0.5,
                   help="per_example_timeout in seconds (default: %(default)s)")
    p.add_argument("--src", type=Path, default=REPO / "src",
                   help="directory holding the qdmr2sql package (default: %(default)s)")
    args = p.parse_args(argv)

    sys.dont_write_bytecode = True  # leave --src as it is
    sys.path.insert(0, str(args.src.resolve()))
    corpus = importlib.import_module("qdmr2sql.corpus")
    executor = importlib.import_module("qdmr2sql.executor")
    qdmr = importlib.import_module("qdmr2sql.qdmr")
    schema = importlib.import_module("qdmr2sql.schema")
    search = importlib.import_module("qdmr2sql.search")

    with tempfile.TemporaryDirectory(prefix="qdmr2sql-deadline-") as tmp:
        path = Path(tmp) / "items.sqlite"
        start = time.perf_counter()
        build(path, args.rows)
        print(f"build\t{time.perf_counter() - start:.2f} s\t{args.rows} rows")

        example = corpus.Example(
            id="leak", question="", program=qdmr.parse_qdmr(QDMR),
            answer=[[42]], db_id="items",
        )
        config = search.SynthesisConfig(per_example_timeout=args.timeout)
        start = time.perf_counter()
        database = executor.Database.open(path)
        try:
            session = search.Session(database, schema.load_schema(database.conn), config)
            print(f"open\t{time.perf_counter() - start:.2f} s\t"
                  f"peak RSS {peak_rss_mb():.0f} MB")
            start = time.perf_counter()
            outcome = search.search(example, session)
            print(f"search\t{time.perf_counter() - start:.2f} s\t"
                  f"{outcome.status.value}\t{outcome.candidates_tried} tried\t"
                  f"timeout {args.timeout} s")
        finally:
            database.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
