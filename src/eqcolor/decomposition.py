"""Greedy decomposition of the uncolored set into pairwise non-adjacent
cliques plus a residual set.

The residual set carries the trivial stability bound (its own size); each
clique carries bound 1, which is what makes the flow model tight on the
clique-covered part. Seeds and growth both follow `Graph.order`, the
static priority of decreasing degree with ties to the lowest index.
"""

from __future__ import annotations

from .graph import Graph


class CliqueDecomposition:
    """Partition of an uncolored set U into cliques of size >= 2 (no edge
    joins two distinct cliques) and a residual set U0 covering the rest."""

    __slots__ = ("cliques", "residual")

    def __init__(self, cliques, residual):
        self.cliques = tuple(tuple(c) for c in cliques)
        self.residual = frozenset(residual)

    def covered(self) -> int:
        return sum(len(c) for c in self.cliques)

    def parts(self):
        """Yield (vertices, alpha) pairs: cliques with alpha=1 first, then
        the residual part with alpha=|U0| when nonempty."""
        for c in self.cliques:
            yield c, 1
        if self.residual:
            yield tuple(sorted(self.residual)), len(self.residual)

    def restricted_to(self, uncolored) -> "CliqueDecomposition":
        """Project onto a new uncolored set: a clique minus colored members
        stays a clique; parts shrunk below size 2 and any vertices this
        decomposition never saw fall into the residual."""
        uncolored = set(uncolored)
        cliques = []
        leftover = set(uncolored)
        for c in self.cliques:
            kept = [v for v in c if v in uncolored]
            if len(kept) >= 2:
                cliques.append(kept)
                leftover.difference_update(kept)
        return CliqueDecomposition(cliques, leftover)

    def validate(self, g: Graph, uncolored) -> None:
        """Raise ValueError unless all structural invariants hold."""
        uncolored = set(uncolored)
        seen = set()
        for c in self.cliques:
            cs = set(c)
            if len(cs) != len(c) or len(c) < 2:
                raise ValueError(f"clique {c} too small or has repeats")
            if cs & seen:
                raise ValueError("parts are not disjoint")
            seen |= cs
            for u in c:
                for v in c:
                    if u < v and v not in g.adj[u]:
                        raise ValueError(f"{c} is not a clique: {u}-{v} missing")
        if seen & self.residual:
            raise ValueError("residual overlaps a clique")
        if seen | self.residual != uncolored:
            raise ValueError("parts do not cover the uncolored set exactly")
        for i, a in enumerate(self.cliques):
            for b in self.cliques[i + 1 :]:
                for u in a:
                    if g.adj[u] & set(b):
                        raise ValueError(f"cliques {a} and {b} are adjacent")

    def __repr__(self):
        return f"CliqueDecomposition(cliques={self.cliques}, residual={sorted(self.residual)})"


def find_non_adjacent_cliques(
    g: Graph, uncolored, first_pick: int | None = None
) -> CliqueDecomposition:
    """Greedy extraction of pairwise non-adjacent cliques from `uncolored`.

    Repeatedly seed a clique with the remaining vertex that comes first in
    `g.order` (highest degree in g, ties to the lowest index), grow it by
    the common neighbor among the remaining vertices that comes first in
    that order, then move the clique's outside neighbors into the residual
    so later cliques cannot touch it. Singleton cliques fold straight into
    the residual.

    `first_pick` overrides the first seed only (used for restarts).
    """
    remaining = set(uncolored)
    adj = g.adj
    order = [v for v in g.order if v in remaining]
    pos = -1
    cliques = []
    residual = set()
    while remaining:
        if first_pick is not None:
            v, first_pick = first_pick, None
            scan = order
        else:
            # the first remaining vertex: every candidate comes after it
            pos += 1
            while order[pos] not in remaining:
                pos += 1
            v = order[pos]
            scan = order[pos + 1 :]
        # as in greedy_maximal_clique, one forward scan grows the clique
        clique = [v]
        common = adj[v] & remaining
        for w in scan:
            if not common:
                break
            if w in common:
                clique.append(w)
                common = common & adj[w]
        remaining.difference_update(clique)
        if len(clique) == 1:
            residual.add(v)
            continue
        boundary = set()
        for u in clique:
            boundary |= adj[u]
        boundary &= remaining
        remaining -= boundary
        residual |= boundary
        cliques.append(clique)
    return CliqueDecomposition(cliques, residual)


def restarted_decomposition(g: Graph, uncolored, tries: int = 1) -> CliqueDecomposition:
    """Run the greedy decomposition from up to `tries` distinct first seeds
    (the first uncolored vertices of `g.order`) and keep the one covering
    the most vertices by cliques; ties go to the first found."""
    if tries < 1:
        raise ValueError("tries must be >= 1")
    uncolored = set(uncolored)
    if not uncolored:
        return CliqueDecomposition((), ())
    starts = [v for v in g.order if v in uncolored][:tries]
    best = None
    best_key = None
    for s in starts:
        d = find_non_adjacent_cliques(g, uncolored, first_pick=s)
        key = (d.covered(), -len(d.residual))
        if best is None or key > best_key:
            best, best_key = d, key
    return best
