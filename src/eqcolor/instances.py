"""Constructions for the standard benchmark families used in the DIMACS
coloring challenge, so the harness can reproduce those runs without
shipping instance files: Mycielski iterates, queen graphs, and the
insertion families (generalized Mycielskians with a single apex or an apex
clique). Vertex/edge counts match the published instances exactly; vertex
numbering is the construction order."""

from __future__ import annotations

import re

from .graph import Graph


def mycielski_graph(k: int) -> Graph:
    """myciel<k>: k-1 Mycielski steps from a single edge (k >= 2), each a
    generalized step with one shadow level and a single apex. myciel3 has
    11 vertices, myciel4 has 23, myciel5 has 47."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return _iterated_mycielski(k - 1, 1, apex_clique=False)


def queens_graph(rows: int, cols: int | None = None) -> Graph:
    """queenR_C: one vertex per board square, edges between squares sharing
    a row, column, or diagonal."""
    if cols is None:
        cols = rows
    n = rows * cols
    edges = []
    for r1 in range(rows):
        for c1 in range(cols):
            u = r1 * cols + c1
            for r2 in range(rows):
                for c2 in range(cols):
                    v = r2 * cols + c2
                    if v <= u:
                        continue
                    if r1 == r2 or c1 == c2 or abs(r1 - r2) == abs(c1 - c2):
                        edges.append((u, v))
    return Graph(n, edges)


def _iterated_mycielski(steps: int, levels: int, apex_clique: bool) -> Graph:
    """`steps` generalized Mycielski steps from a single edge, each with
    `levels` shadow levels: level 0 keeps the previous graph's edges,
    consecutive levels are joined by the bipartite double cover, and
    either a single apex or a clique of size levels+1 is completely joined
    to the top level."""
    n, prev = 2, [(0, 1)]
    for _ in range(steps):
        edges = list(prev)
        for lvl in range(levels):
            lo = lvl * n
            hi = (lvl + 1) * n
            # both orientations, so a pair's order in `prev` does not matter
            for u, v in prev:
                edges.append((lo + u, hi + v))
                edges.append((lo + v, hi + u))
        top = levels * n
        if apex_clique:
            apex_size = levels + 1
            base = (levels + 1) * n
            total = base + apex_size
            for a in range(apex_size):
                for b in range(a + 1, apex_size):
                    edges.append((base + a, base + b))
                for u in range(n):
                    edges.append((base + a, top + u))
        else:
            total = (levels + 1) * n + 1
            apex = total - 1
            for u in range(n):
                edges.append((apex, top + u))
        n, prev = total, edges
    return Graph(n, prev)


def insertions_graph(k: int, m: int) -> Graph:
    """<k>-Insertions_<m>: m-1 generalized Mycielski steps with k+1 shadow
    levels and a single apex, from a single edge. 2-Insertions_3 has 37
    vertices and 72 edges."""
    if k < 1 or m < 2:
        raise ValueError("need k >= 1 and m >= 2")
    return _iterated_mycielski(m - 1, k + 1, apex_clique=False)


def full_insertions_graph(k: int, m: int) -> Graph:
    """<k>-FullIns_<m>: like insertions_graph but the apex is a clique of
    size k+2 completely joined to the top level. 1-FullIns_3 has 30
    vertices and 100 edges."""
    if k < 1 or m < 2:
        raise ValueError("need k >= 1 and m >= 2")
    return _iterated_mycielski(m - 1, k + 1, apex_clique=True)


_NAME_PATTERNS = (
    (re.compile(r"^myciel(\d+)$"), lambda m: mycielski_graph(int(m.group(1)))),
    (
        re.compile(r"^queen(\d+)_(\d+)$"),
        lambda m: queens_graph(int(m.group(1)), int(m.group(2))),
    ),
    (
        re.compile(r"^(\d+)-Insertions_(\d+)$"),
        lambda m: insertions_graph(int(m.group(1)), int(m.group(2))),
    ),
    (
        re.compile(r"^(\d+)-FullIns_(\d+)$"),
        lambda m: full_insertions_graph(int(m.group(1)), int(m.group(2))),
    ),
)


def by_name(name: str) -> Graph:
    """Build a benchmark instance from its conventional name, e.g.
    'myciel4', 'queen6_6', '2-Insertions_3', '1-FullIns_3'."""
    for pattern, builder in _NAME_PATTERNS:
        match = pattern.match(name)
        if match:
            return builder(match)
    raise ValueError(f"unknown instance name: {name!r}")
