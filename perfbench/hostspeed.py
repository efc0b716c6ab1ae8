"""Host speed samples, to cancel drift in the host's speed.

On a shared machine the same work can take up to twice as long from one
minute to the next, as neighbours come and go.  A short fixed reference
workload, a mix of Python bytecode and SQLite work like the program's, is
timed often during a run; ``run.py`` scales each measured time by
``REFERENCE_MS`` over the sample taken closest after it.  A reported time
is thus the time the work takes when the reference workload runs in
``REFERENCE_MS``.
"""

from __future__ import annotations

import sqlite3
import statistics
import time

# The reference workload's time on a quiet 2-vCPU x86-64 virtual machine with
# Python 3.11, the host the baseline numbers were measured on.
REFERENCE_MS = 0.38

_SQL = (
    "WITH RECURSIVE r(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM r WHERE i < 800)"
    " SELECT SUM(i * i % 7) FROM r"
)


class HostSpeed:
    """Times the reference workload; owns the in-memory connection it uses."""

    def __init__(self) -> None:
        self._conn = sqlite3.connect(":memory:")

    def close(self) -> None:
        self._conn.close()

    def sample(self, repeats: int = 3) -> float:
        """Median milliseconds of ``repeats`` runs of the reference workload."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            total, table = 0, {}
            for i in range(800):
                total += i * i % 7
                table[i & 255] = total
            self._conn.execute(_SQL).fetchall()
            times.append(time.perf_counter() - start)
        return statistics.median(times) * 1000.0


def factor(reference_ms: float) -> float:
    """Scale from a time measured next to ``reference_ms`` to reference time."""
    return REFERENCE_MS / reference_ms
