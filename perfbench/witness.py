"""Witness check that shares no code with the solver.

A returned solution is accepted only when its coloring covers every vertex,
is proper on the input's edge list, uses exactly `chi` non-empty classes,
and has class sizes that differ by at most one. The edge list comes from
the benchmark's own reading of the input, not from the solver's `Graph`
bookkeeping.
"""

from __future__ import annotations


def dimacs_edges(text: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, 0-based edges) from DIMACS .col text, read without eqcolor."""
    n = None
    edges = []
    for line in text.splitlines():
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "p":
            n = int(tokens[2])
        elif tokens[0] == "e":
            edges.append((int(tokens[1]) - 1, int(tokens[2]) - 1))
    if n is None:
        raise ValueError("DIMACS text has no 'p' line")
    return n, edges


def witness_error(n: int, edges, coloring, chi: int) -> str | None:
    """Why `coloring` is not an equitable `chi`-coloring of the graph
    (n, edges), or None when it is one."""
    if len(coloring) != n:
        return f"coloring has {len(coloring)} entries for {n} vertices"
    for v, c in enumerate(coloring):
        if not isinstance(c, int) or c < 0:
            return f"vertex {v} is uncolored ({c!r})"
    for u, v in edges:
        if coloring[u] == coloring[v]:
            return f"edge {u}-{v} joins two vertices of color {coloring[u]}"
    sizes = {}
    for c in coloring:
        sizes[c] = sizes.get(c, 0) + 1
    if len(sizes) != chi:
        return f"{len(sizes)} non-empty classes, expected chi = {chi}"
    if max(sizes.values()) - min(sizes.values()) > 1:
        return f"class sizes {sorted(sizes.values())} differ by more than one"
    return None


def self_test() -> list[str]:
    """Feed the checker colorings it must reject and one it must accept;
    returns the cases it got wrong (empty when the checker is sound)."""
    # path 0-1-2-3 plus isolated 4 and 5: 0,1,0,1,0,1 is equitable
    n, edges = 6, [(0, 1), (1, 2), (2, 3)]
    cases = [
        ("valid", [0, 1, 0, 1, 0, 1], 2, True),
        ("improper", [0, 0, 1, 1, 0, 1], 2, False),
        ("inequitable", [0, 1, 0, 1, 0, 0], 2, False),
        ("wrong class count", [0, 1, 0, 1, 0, 1], 3, False),
        ("uncolored vertex", [0, 1, -1, 1, 0, 1], 2, False),
        ("missing vertex", [0, 1, 0, 1, 0], 2, False),
    ]
    wrong = []
    for label, coloring, chi, ok in cases:
        if (witness_error(n, edges, coloring, chi) is None) != ok:
            wrong.append(label)
    return wrong
