"""Greedy decomposition of the uncolored set into pairwise non-adjacent
cliques plus a residual set.

The residual set carries the trivial stability bound (its own size); each
clique carries bound 1, which is what makes the flow model tight on the
clique-covered part. Vertex sets are bitmasks (bit v set iff v is in the
set), so growing a clique, fencing off its neighbors and projecting onto a
smaller uncolored set cost a few big-int operations per clique. Seeds and
growth both take the lowest vertex index: the solver searches a copy of
its graph relabeled by `Graph.order` (`Graph.relabeled`), where that is
the static order of decreasing degree with ties to the lowest index.

A decomposition also keeps the union of its cliques, so a projection that
takes no clique member, such as coloring a residual vertex, is O(1): one
AND decides it, and it returns the same cliques tuple with a new residual.
A decomposition lies inside the uncolored set it was made or projected
for, which the Hall rules rely on.
"""

from __future__ import annotations

from .graph import Graph, mask_vertices


class CliqueDecomposition:
    """Partition of an uncolored set U into cliques of size >= 2 (no edge
    joins two distinct cliques) and a residual set U0 covering the rest.

    `masks` holds the cliques and `residual_mask` the residual set, as
    vertex bitmasks. `covered_mask` keeps the union of the cliques, so a
    projection that takes no clique member (`restricted_to`) is decided
    with one AND and returns the same `masks` tuple; the constructor ORs
    the cliques when it is not given. `residual` (the residual's vertex
    ids) and `covered()` (the number of clique vertices) serve the
    benchmark's layer trace; the search reads only the masks."""

    __slots__ = ("masks", "residual_mask", "covered_mask")

    def __init__(self, masks, residual_mask: int, covered_mask: int | None = None):
        self.masks = tuple(masks)
        self.residual_mask = residual_mask
        if covered_mask is None:
            covered_mask = 0
            for c in self.masks:
                covered_mask |= c
        self.covered_mask = covered_mask

    @property
    def residual(self) -> frozenset:
        return frozenset(mask_vertices(self.residual_mask))

    def covered(self) -> int:
        return self.covered_mask.bit_count()

    def restricted_to(self, uncolored: int) -> "CliqueDecomposition":
        """Project onto a new uncolored set (a bitmask): a clique minus
        colored members stays a clique; parts shrunk below size 2 and any
        vertices this decomposition never saw fall into the residual. When
        the new set keeps every clique member, the cliques are the same
        and only the residual changes: O(1) big-int operations."""
        covered = self.covered_mask
        if not covered & ~uncolored:
            return CliqueDecomposition(self.masks, uncolored & ~covered, covered)
        cliques = []
        covered = 0
        for c in self.masks:
            c &= uncolored
            if c & (c - 1):  # two or more members
                cliques.append(c)
                covered |= c
        return CliqueDecomposition(cliques, uncolored & ~covered, covered)


def find_non_adjacent_cliques(g: Graph, uncolored: int) -> CliqueDecomposition:
    """Greedy extraction of pairwise non-adjacent cliques from the
    uncolored set (a bitmask).

    Repeatedly seed a clique with the lowest remaining vertex, grow it by
    the lowest common neighbor among the remaining vertices, then move the
    clique's outside neighbors (the OR of its members' neighborhoods) into
    the residual so later cliques cannot touch it. Singleton cliques fold
    straight into the residual.

    For a residual vertex v of the result, the result on `uncolored`
    minus v equals this one's `restricted_to(uncolored & ~(1 << v))`: v
    is a singleton seed or a fenced-off vertex, never the seed or a
    growth step of a clique, so without it the greedy seeds, grows and
    fences off the same cliques in the same order. The search reuses that
    projection in place of a rebuild.
    """
    adj = g.adj_mask
    remaining = uncolored
    cliques = []
    residual = 0
    while remaining:
        v = (remaining & -remaining).bit_length() - 1
        clique = 1 << v
        boundary = adj[v]
        common = boundary & remaining
        while common:
            low = common & -common
            clique |= low
            w = low.bit_length() - 1
            common &= adj[w]
            boundary |= adj[w]
        remaining &= ~clique
        if clique & (clique - 1):
            cliques.append(clique)
            # a singleton has no remaining neighbor to move
            boundary &= remaining
            remaining ^= boundary
            residual |= boundary
        else:
            residual |= clique
    return CliqueDecomposition(cliques, residual, uncolored ^ residual)


def restarted_decomposition(g: Graph, uncolored: int) -> CliqueDecomposition:
    """The root's decomposition: `find_non_adjacent_cliques` under the name
    the benchmark's layer trace (`perfbench/layers.py`) times as the root."""
    return find_non_adjacent_cliques(g, uncolored)
