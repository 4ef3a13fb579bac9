"""Exact extendability of a partial coloring by capped enumeration, for the
tests: `brute_extendable` runs the depth-first search that
`eqcolor.oracle.brute_chi_eq` runs, from the colored state, under the same
size cap. Tests import this module the way they import `literal_network`."""

from __future__ import annotations

from eqcolor import oracle
from eqcolor.coloring import PartialColoring
from eqcolor.decomposition import mask_vertices
from eqcolor.graph import Graph


def brute_extendable(g: Graph, pc: PartialColoring, k0: int) -> bool:
    """True iff some completion of pc is a proper equitable k0-coloring
    preserving every existing class as a subset."""
    if g.n > oracle.MAX_N:
        raise oracle.OracleCapError(f"n={g.n} exceeds oracle cap {oracle.MAX_N}")
    if not 1 <= k0 <= g.n:
        raise ValueError(f"need 1 <= k0 <= n, got {k0}")
    sizes = [0] * k0
    color_of = pc.coloring()
    for c in color_of:
        if c >= 0:
            if c >= k0:
                return False
            sizes[c] += 1
    ceil_size = -(-g.n // k0)
    if any(s > ceil_size for s in sizes):
        return False
    order = [v for v in g.order if color_of[v] < 0]
    nbrs = tuple(map(mask_vertices, g.adj_mask))
    return oracle._search_equitable(nbrs, color_of, sizes, k0, order, 0)
