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
question from the clique members' free-color masks that
`hallrules.HallContext` already holds for the rule prefilter, plus the
residual vertices' masks it asks the context for (`resid_masks`, made
only here), in one pass that places the uncolored vertices one at a
time: directly on a color with room when it can, and otherwise along a
breadth-first augmenting path through the assignment built so far, with
no network built.
"""

from __future__ import annotations

from .coloring import PartialColoring, candidate_k0_values
from .decomposition import CliqueDecomposition
from . import hallrules


def flow_feasible(ctx: hallrules.HallContext) -> bool:
    """Does the state behind ctx admit a full flow at ctx.k0? Equivalent
    to `feasible_flow` on the literal network in `tests/literal_network.py`,
    property-tested against it.

    The assignment `color` (indexed in ctx order, -1 while unplaced) is a
    flow in the network with each color's lower bound split off: a class
    of load L sends min(L, lo) units down its mandatory arc and the rest
    through the hub t, whose shared budget has `spare` units left. The
    vertices are placed one at a time, fewest free colors first. A vertex
    takes a free color its clique does not hold directly when the class
    is below its floor, or below its ceiling with budget to spare,
    preferring colors below the floor, then the most room: this is an
    augmenting path of length one. Otherwise one breadth-first search of
    the residual network over vertices, colors and the hub looks for a
    longer path: a vertex may take any other free color, bumping its
    clique's holder of that color if there is one (this stands in for the
    clique's copy of the color); a color ends the path while it is below
    its floor, or below its ceiling with budget to spare, and otherwise
    leads to its wearers and, below its ceiling, to the hub; the hub leads
    to every color above its floor. When no path exists the flow is
    maximum on the placed vertices plus this one, so no full flow exists.
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
    spare = n_u - sum(lo)
    if spare < 0:
        return False
    color = [-1] * n_u
    load = [0] * k0  # len(on[c]), read far more often than on[c]
    on = [[] for _ in range(k0)]  # the vertices wearing each color
    holder = {}  # (clique, color) -> the member wearing it
    held = [0] * len(ctx.clique_masks)  # per clique, the colors it holds

    def move(x, c):
        """Recolor x to c; returns its old color."""
        old = color[x]
        j = part[x]
        if old >= 0:
            load[old] -= 1
            on[old].remove(x)
            if j >= 0:
                del holder[j, old]
                held[j] ^= 1 << old
        color[x] = c
        load[c] += 1
        on[c].append(x)
        if j >= 0:
            holder[j, c] = x
            held[j] |= 1 << c
        return old

    hub = n_u + k0  # node ids: vertices, then colors, then the hub
    for u in sorted(range(n_u), key=lambda x: masks[x].bit_count()):
        j = part[u]
        mask = masks[u] & ~held[j] if j >= 0 else masks[u]
        best = -1
        best_key = None
        while mask:
            bit = mask & -mask
            mask ^= bit
            c = bit.bit_length() - 1
            room = hi[c] - load[c]
            below = load[c] < lo[c]
            if below or room > 0 and spare > 0:
                key = (below, room)
                if best_key is None or key > best_key:
                    best, best_key = c, key
        if best >= 0:
            if load[best] >= lo[best]:
                spare -= 1
            move(u, best)
            continue

        prev = [-1] * (hub + 1)
        prev[u] = u
        queue = [u]
        end = -1
        for node in queue:
            if node < n_u:
                mask = masks[node]
                if color[node] >= 0:
                    mask ^= 1 << color[node]
                j = part[node]
                while mask and end < 0:
                    bit = mask & -mask
                    mask ^= bit
                    c = bit.bit_length() - 1
                    nxt = holder.get((j, c), n_u + c)
                    if prev[nxt] < 0:
                        prev[nxt] = node
                        queue.append(nxt)
                        if nxt >= n_u and (
                            load[c] < lo[c] or load[c] < hi[c] and spare > 0
                        ):
                            end = nxt
                if end >= 0:
                    break
            elif node < hub:
                c = node - n_u
                for y in on[c]:
                    if prev[y] < 0:
                        prev[y] = node
                        queue.append(y)
                if load[c] < hi[c] and prev[hub] < 0:
                    prev[hub] = node
                    queue.append(hub)
            else:
                for c in range(k0):
                    if load[c] > lo[c] and prev[n_u + c] < 0:
                        prev[n_u + c] = hub
                        queue.append(n_u + c)
        if end < 0:
            return False
        c = end - n_u
        if load[c] >= lo[c]:
            spare -= 1
        # recolor back from the end, so each target is vacated first; a
        # bumped vertex hands its old color to the vertex before it
        node = end
        while node != u:
            x = prev[node]
            if x < n_u:
                old = move(x, node - n_u if node >= n_u else old)
            node = x
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
