"""Immutable simple graphs, recorded as neighborhood bitmasks only, with
one static vertex order; DIMACS .col I/O, G(n,p) generation, greedy cliques."""

from __future__ import annotations

import random
import warnings


class DimacsError(ValueError):
    """Malformed DIMACS input. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def mask_vertices(mask: int) -> tuple[int, ...]:
    """The vertices of a vertex bitmask (its set bits), ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class Graph:
    """Simple undirected graph on vertices 0..n-1, immutable after construction.

    Its one record is `adj_mask`, each vertex's neighborhood as a bitmask
    (bit w set iff w is adjacent). Duplicate edges and both orientations
    of the same pair collapse to one edge there. Self-loops are rejected.
    Besides `n` and the masks it keeps `degree` and `order`: the vertex
    ranking every greedy scans, by decreasing degree, ties to lower index.
    `edges` (O(m)) and `m` (O(n)) are computed from the masks on each
    access.
    """

    __slots__ = ("n", "adj_mask", "degree", "order")

    def __init__(self, n: int, edges=()):
        if isinstance(n, bool) or not isinstance(n, int):  # bool is an int subclass
            raise ValueError("vertex count must be an integer")
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._store(n, adj)

    def _store(self, n: int, adj: list[int]) -> "Graph":
        """Set every field from `adj`, symmetric neighborhood masks with no
        self-loop (the graph's one record), and return the graph."""
        self.n = n
        self.adj_mask = tuple(adj)
        self.degree = degree = tuple(m.bit_count() for m in adj)
        # sorted is stable, so equal degrees stay in increasing index order
        self.order = tuple(sorted(range(n), key=degree.__getitem__, reverse=True))
        return self

    def relabeled(self) -> "Graph":
        """The same graph with vertex r standing for `order[r]`. Its own
        order is the identity, so "first in `order`" becomes "lowest
        index", and a bitmask's lowest set bit is its first vertex."""
        bit = {v: 1 << r for r, v in enumerate(self.order)}
        adj = [sum(map(bit.get, mask_vertices(self.adj_mask[v]))) for v in self.order]
        return Graph.__new__(Graph)._store(self.n, adj)

    @property
    def edges(self) -> frozenset:
        """Pairs (u, v), u < v, read off each mask's bits above u: O(m) per access."""
        return frozenset(
            (u, v) for u, m in enumerate(self.adj_mask) for v in mask_vertices(m & -(2 << u))
        )

    @property
    def m(self) -> int:
        return sum(self.degree) // 2

    def density(self) -> float:
        if self.n < 2:
            return 0.0
        return 2.0 * self.m / (self.n * (self.n - 1))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def parse_dimacs(text: str) -> Graph:
    """Parse a DIMACS .col file: `c` comments, one `p edge <n> <m>` line,
    and `e <u> <v>` lines with 1-based vertices.

    Vertices are re-indexed to 0-based. A `p` line whose edge count differs
    from the actual number of distinct edges is accepted with a warning;
    files in the wild are frequently inconsistent here.
    """
    n = None
    m_declared = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "p":
            if n is not None:
                raise DimacsError("duplicate 'p' line", lineno)
            if len(tokens) != 4 or tokens[1] not in ("edge", "edges", "col"):
                raise DimacsError(f"malformed problem line: {line!r}", lineno)
            try:
                n = int(tokens[2])
                m_declared = int(tokens[3])
            except ValueError:
                raise DimacsError(f"malformed problem line: {line!r}", lineno) from None
            if n < 0:
                raise DimacsError(f"negative vertex count {n}", lineno)
        elif kind == "e":
            if n is None:
                raise DimacsError("'e' line before 'p' line", lineno)
            if len(tokens) != 3:
                raise DimacsError(f"malformed edge line: {line!r}", lineno)
            try:
                u = int(tokens[1])
                v = int(tokens[2])
            except ValueError:
                raise DimacsError(f"malformed edge line: {line!r}", lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise DimacsError(f"vertex index out of range [1,{n}]: {line!r}", lineno)
            if u == v:
                raise DimacsError(f"self-loop: {line!r}", lineno)
            edges.append((u - 1, v - 1))
        else:
            raise DimacsError(f"unrecognized line type {kind!r}", lineno)
    if n is None:
        raise DimacsError("missing 'p' line")
    g = Graph(n, edges)
    if m_declared != g.m:
        warnings.warn(
            f"DIMACS header declares {m_declared} edges, file has {g.m} distinct edges",
            stacklevel=2,
        )
    return g


def write_dimacs(g: Graph, name: str | None = None) -> str:
    """Serialize a graph to DIMACS .col text (1-based vertices, sorted edges),
    with one comment line per line of `name`. Each mask's bits above u,
    walked in vertex order, give the edges already sorted."""
    lines = []
    if name:
        lines.extend(f"c {line}" for line in name.splitlines())
    lines.append(f"p edge {g.n} {g.m}")
    for u, m in enumerate(g.adj_mask):
        lines.extend(f"e {u + 1} {v + 1}" for v in mask_vertices(m & -(2 << u)))
    return "\n".join(lines) + "\n"


def check_gnp_args(n: int, p: float) -> None:
    """Raise ValueError unless G(n,p) is defined: an int n >= 1 and p in [0,1]."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("n must be an integer >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0,1]")


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n,p) with a seeded Mersenne Twister.

    Reproducibility contract: vertex pairs are scanned in lexicographic
    order (u < v) and each pair consumes exactly one rng.random() draw, so
    the same (n, p, seed) always yields the identical edge set.

    The masks are built as the pairs are drawn; the pairs come out
    canonical (u < v, in range, each once), so they skip `Graph`'s checks.
    """
    check_gnp_args(n, p)
    rng = random.Random(seed)
    adj = [0] * n
    for u in range(n - 1):
        bit_u = 1 << u
        row = 0
        for v in range(u + 1, n):
            if rng.random() < p:
                row |= 1 << v
                adj[v] |= bit_u
        adj[u] |= row
    return Graph.__new__(Graph)._store(n, adj)


def greedy_maximal_clique(g: Graph, start: int) -> list[int]:
    """Grow an inclusion-maximal clique from `start` by repeatedly adding the
    lowest-index common neighbor. On a graph relabeled by its order (the
    one the search works on) that is the common neighbor that comes first
    in `g.order`.

    Returns the clique in growth order.
    """
    if not 0 <= start < g.n:
        raise ValueError(f"start vertex {start} out of range")
    adj = g.adj_mask
    clique = [start]
    common = adj[start]
    while common:
        v = (common & -common).bit_length() - 1
        clique.append(v)
        common &= adj[v]
    return clique
