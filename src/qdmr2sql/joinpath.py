"""Foreign-key join path inference.

Tables form an undirected graph whose edges are declared foreign keys.
Connecting the tables behind two column sets means finding a shortest path
between the sets with breadth-first search.  Ties break deterministically:
the closest target table by name, then the lexicographically smallest
predecessor at every hop.

When two tables are linked by several foreign keys, the hop prefers an edge
whose endpoint column is one of the anchor columns (the columns the caller
is actually connecting); otherwise the first declared edge wins.  This is
what lets a step linked to ``voting_record.treasurer_vote`` join through
that column rather than through the sibling ``voting_record.stuid`` key.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from .errors import DisconnectedTables
from .schema import ColumnRef, FKEdge, SchemaGraph

__all__ = ["JoinPath", "join_tables"]


@dataclass(frozen=True)
class JoinPath:
    """A chain of tables plus the foreign-key edge taken at each hop."""

    tables: Tuple[str, ...]
    edges: Tuple[FKEdge, ...]


def _pick_edge(
    candidates: List[FKEdge], anchors: FrozenSet[ColumnRef]
) -> FKEdge:
    for edge in candidates:
        if edge.source in anchors or edge.target in anchors:
            return edge
    return candidates[0]


def join_tables(
    schema: SchemaGraph,
    sources: Iterable[str],
    targets: Iterable[str],
    anchors: FrozenSet[ColumnRef] = frozenset(),
) -> JoinPath:
    """Shortest foreign-key path from one table set to another.

    Returns an empty path anchored at the shared table when the sets
    already overlap.  Raises :class:`DisconnectedTables` when no path
    exists.
    """
    src: Set[str] = set(sources)
    dst: Set[str] = set(targets)
    if not src or not dst:
        raise ValueError("join endpoints must be non-empty table sets")
    for t in src | dst:
        if t not in schema.tables:
            raise DisconnectedTables(f"unknown table {t!r}")
    shared = src & dst
    if shared:
        return JoinPath(tables=(min(shared),), edges=())

    adjacency = schema.table_adjacency()
    dist: Dict[str, int] = {t: 0 for t in src}
    queue = deque(sorted(src))
    while queue:
        current = queue.popleft()
        for neighbor, _ in adjacency[current]:
            if neighbor not in dist:
                dist[neighbor] = dist[current] + 1
                queue.append(neighbor)

    reachable = [t for t in dst if t in dist]
    if not reachable:
        raise DisconnectedTables(
            f"no foreign-key path between {sorted(src)} and {sorted(dst)}"
        )
    end = min(reachable, key=lambda t: (dist[t], t))

    # Walk back from the target, always through the smallest predecessor.
    order: List[str] = [end]
    hops: List[FKEdge] = []
    current = end
    while dist[current] > 0:
        previous = min(
            n
            for n, _ in adjacency[current]
            if n in dist and dist[n] == dist[current] - 1
        )
        between = [e for n, e in adjacency[previous] if n == current]
        hops.append(_pick_edge(between, anchors))
        order.append(previous)
        current = previous
    order.reverse()
    hops.reverse()
    return JoinPath(tables=tuple(order), edges=tuple(hops))

