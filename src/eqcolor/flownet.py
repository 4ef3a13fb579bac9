"""Extendability testing via feasible flows: the search's hot path.

The network for a partial coloring, a decomposition of the uncolored set U
into parts U^1..U^l (cliques, residual last) and a color budget k0 is
layered: source -> U -> per-part color copies F -> colors C -> sink. Arc
bounds encode that every uncolored vertex must receive exactly one still-
free color, that a clique can contribute at most one vertex per color, and
that every color class must end up at floor(n/k0) or ceil(n/k0) vertices.
The partial coloring extends to an equitable k0-coloring only if this
network carries a flow of value |U|; when the residual part is empty the
condition is exact. Only the tests build that network, arc by arc with
its lower bounds (`tests/literal_network.py`). This module decides the same
question from the clique members' free-color masks that the rule
prefilter's clique check left on the `hallrules.HallContext`, plus the
residual vertices' masks it asks the context for (`resid_masks`, made
only here), with no network built: the lower bounds are met by a plain
max-flow with the floors as the color->sink capacities, and that flow is
then grown to a maximum one under the ceilings.
"""

from __future__ import annotations

from .coloring import PartialColoring, candidate_k0_values
from .decomposition import CliqueDecomposition
from . import hallrules


def flow_feasible(ctx: hallrules.HallContext) -> bool:
    """Does the state behind ctx admit a full flow at ctx.k0? Equivalent
    to `feasible_flow` on the literal network in `tests/literal_network.py`,
    property-tested against it, whenever no class is above ceil(n/k0), as
    at every k0 `candidate_k0_values` offers (the literal network refuses
    the others). Outside that precondition the answer means nothing: on 8
    isolated vertices with 4 colored 0, k0 = 3 gets True although
    `oracle.brute_extendable` says False.

    The assignment `color` (indexed in ctx order, -1 while unplaced) is a
    flow over vertices, colors and the sink, whose arc from color c carries
    the len(on[c]) vertices wearing c. It is grown in two phases of
    augmenting paths, one vertex at a time, fewest free colors first, with
    the color->sink capacities `lo` (the floors) and then `hi` (the
    ceilings). Phase 1 is a plain max-flow under the floors and stops once
    it has placed sum(lo) vertices; if it ends short, no flow meets every
    floor. Phase 2 places the vertices phase 1 left, under the ceilings.
    An augmenting path never lowers the flow into the sink on any color,
    so the floors that phase 1 filled stay filled, and a vertex phase 2
    cannot place means the flow is maximum on the placed vertices plus
    this one, so no full flow exists.

    A vertex first tries the lowest free color its clique does not hold
    and whose class is below the cap: an augmenting path of length one.
    Otherwise one breadth-first search of the residual network looks for
    a longer path: a vertex may take any other free color, bumping its
    clique's holder of that color if there is one (this stands in for the
    clique's copy of the color); a color ends the path while its class is
    below the cap, and otherwise leads to its wearers. A vertex with no
    path in a phase finds none later in that phase either: later paths
    never enter the set it can reach.
    """
    k0 = ctx.k0
    lo = []  # per color, how many uncolored vertices it must still take
    hi = []  # and may still take, for its class to end within the window
    for s in ctx.class_sizes:
        need = ctx.floor_size - s
        lo.append(need if need > 0 else 0)
        hi.append(ctx.ceil_size - s)
    masks = []
    part = []  # clique index per vertex, -1 in the residual set
    for j, clique in enumerate(ctx.clique_masks):
        masks += clique
        part += [j] * len(clique)
    resid_masks = ctx.resid_masks()
    masks += resid_masks
    part += [-1] * len(resid_masks)
    n_u = len(masks)
    floors = sum(lo)
    if floors > n_u:
        return False
    color = [-1] * n_u
    on = [[] for _ in range(k0)]  # the vertices wearing each color
    holder = {}  # (clique, color) -> the member wearing it
    # per clique, the colors it holds; the last slot, read by the residual
    # vertices as held[-1], stays 0
    held = [0] * (len(ctx.clique_masks) + 1)

    def move(x, c):
        """Recolor x to c; returns its old color."""
        old = color[x]
        j = part[x]
        if old >= 0:
            on[old].remove(x)
            if j >= 0:
                del holder[j, old]
                held[j] ^= 1 << old
        color[x] = c
        on[c].append(x)
        if j >= 0:
            holder[j, c] = x
            held[j] |= 1 << c
        return old

    def augment(u, cap):
        """Place u along an augmenting path that ends at a color below cap;
        False if there is none."""
        mask = masks[u] & ~held[part[u]]
        while mask:
            bit = mask & -mask
            c = bit.bit_length() - 1
            if len(on[c]) < cap[c]:
                move(u, c)
                return True
            mask ^= bit

        prev = [-1] * (n_u + k0)  # node ids: vertices, then colors
        prev[u] = u
        queue = [u]
        end = -1
        for node in queue:
            if node < n_u:
                mask = masks[node]
                if color[node] >= 0:
                    mask ^= 1 << color[node]
                j = part[node]
                while mask:
                    bit = mask & -mask
                    mask ^= bit
                    c = bit.bit_length() - 1
                    nxt = holder.get((j, c), n_u + c)
                    if prev[nxt] < 0:
                        prev[nxt] = node
                        if nxt >= n_u and len(on[c]) < cap[c]:
                            end = nxt
                            break
                        queue.append(nxt)
                if end >= 0:
                    break
            else:
                for y in on[node - n_u]:
                    if prev[y] < 0:
                        prev[y] = node
                        queue.append(y)
        if end < 0:
            return False
        # recolor back from the end, so each target is vacated first; a
        # bumped vertex hands its old color to the vertex before it
        node = end
        while node != u:
            x = prev[node]
            if x < n_u:
                old = move(x, node - n_u if node >= n_u else old)
            node = x
        return True

    order = sorted(range(n_u), key=lambda x: masks[x].bit_count())
    placed = 0
    for u in order:
        if placed == floors:
            break
        if augment(u, lo):
            placed += 1
    if placed < floors:
        return False
    for u in order:
        if color[u] < 0 and not augment(u, hi):
            return False
    return True


def flow_prune(
    pc: PartialColoring,
    decomp: CliqueDecomposition,
    k_lower: int,
    k_upper: int,
    stats=None,
    move: tuple[int, int] | None = None,
) -> bool:
    """True iff no k0 in the candidate range admits a feasible flow, i.e.
    the branch cannot reach a strictly better equitable coloring. Given a
    move (v, i), the node judged is the child that colors v with i, read
    from pc without extending it; decomp is the child's decomposition
    either way.

    The arithmetic Hall rules are necessary for feasibility, so each k0 is
    screened by them first and the flow problem is solved only when all
    rules pass; this never changes the verdict (property-tested against a
    plain loop of flow_feasible) but skips most infeasible solves.
    """
    for k0 in candidate_k0_values(pc, k_lower, k_upper, move):
        ctx = hallrules.HallContext(pc, decomp, k0, move)
        if hallrules.failing_rule(ctx) is not None:
            continue
        if stats is not None:
            stats.flow_solves += 1
        if flow_feasible(ctx):
            return False
    if stats is not None:
        stats.prunes_flow += 1
    return True
