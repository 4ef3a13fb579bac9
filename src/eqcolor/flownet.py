"""Extendability testing via feasible flows: the search's hot path.

The network for a partial coloring, a decomposition of the uncolored set U
into parts U^1..U^l (cliques, residual last) and a color budget k0 is
layered: source -> U -> per-part color copies F -> colors C -> sink. Arc
bounds encode that every uncolored vertex must receive exactly one still-
free color, that a clique can contribute at most one vertex per color, and
that every color class must end up at floor(n/k0) or ceil(n/k0) vertices.
The partial coloring extends to an equitable k0-coloring only if this
network carries a flow of value |U|; when the residual part is empty the
condition is exact. Only the test oracle in `eqcolor.oracle` builds that
network, arc by arc with its lower bounds. This module decides the same
question from the free-color masks that `hallrules.HallContext` already
holds for the rule prefilter: a greedy witness, and when that fails a
breadth-first augmenting search that repairs the greedy's partial
assignment in place, with no network built.
"""

from __future__ import annotations

from .coloring import PartialColoring, candidate_k0_values
from .decomposition import CliqueDecomposition
from . import hallrules


def _windows(ctx: hallrules.HallContext):
    """Per color, how many uncolored vertices it must still take (lo) and
    may still take (hi) for its class to end within [floor, ceil]."""
    lo = []
    hi = []
    for s in ctx.class_sizes:
        need = ctx.floor_size - s
        lo.append(need if need > 0 else 0)
        hi.append(ctx.ceil_size - s)
    return lo, hi


def _greedy_assignment(ctx: hallrules.HallContext):
    """One-pass heuristic assignment of the uncolored vertices to free
    colors under the class-size windows, one vertex per clique and color.
    Vertices are numbered in ctx order: clique by clique, then the
    residual set. Returns (complete, assignment), where assignment[idx] is
    the color given to vertex idx or -1: `complete` means every vertex was
    placed and every lower bound met, i.e. the assignment witnesses a
    feasible flow; otherwise the partial assignment still respects all
    capacities and can seed an exact solve. Failure proves nothing."""
    lo, hi = _windows(ctx)
    items = []
    for j, masks in enumerate(ctx.clique_masks):
        for mask in masks:
            items.append((mask, j, len(items)))
    for mask in ctx.resid_masks:
        items.append((mask, -1, len(items)))
    items.sort(key=lambda it: it[0].bit_count())
    clique_used = [0] * len(ctx.clique_masks)
    lo_unmet = sum(lo)
    assign = [-1] * len(items)
    for mask, j, idx in items:
        if j >= 0:
            mask &= ~clique_used[j]
        best = -1
        best_key = None
        while mask:
            bit = mask & -mask
            mask ^= bit
            i = bit.bit_length() - 1
            h = hi[i]
            if h <= 0:
                continue
            key = (lo[i] > 0, h)
            if best_key is None or key > best_key:
                best, best_key = i, key
        if best < 0:
            continue
        assign[idx] = best
        hi[best] -= 1
        if lo[best] > 0:
            lo[best] -= 1
            lo_unmet -= 1
        if j >= 0:
            clique_used[j] |= 1 << best
    return lo_unmet == 0 and -1 not in assign, assign


def _exact_feasible(ctx: hallrules.HallContext, seed: list[int] | None = None) -> bool:
    """Exact feasibility by augmenting a partial assignment in place.

    The assignment `color` (indexed in ctx order, -1 when unplaced) is a
    flow in the network with each color's lower bound split off: a class
    of load L sends min(L, lo) units down its mandatory arc and the rest
    through the hub t, whose shared budget has `spare` units left. Each
    unplaced vertex u then gets one breadth-first search of the residual
    network over vertices, colors and the hub: a vertex may take any other
    free color, bumping its clique's holder of that color if there is one
    (this stands in for the clique's copy of the color); a color ends the
    path while it is below its floor, or below its ceiling with budget to
    spare, and otherwise leads to its wearers and, below its ceiling, to
    the hub; the hub leads to every color above its floor. When no path
    exists the flow is maximum on the placed vertices plus u, so no full
    flow exists. Property-tested against the literal network in
    `eqcolor.oracle`."""
    k0 = ctx.k0
    lo, hi = _windows(ctx)
    masks = []
    part = []  # clique index per vertex, -1 in the residual set
    for j, clique in enumerate(ctx.clique_masks):
        masks += clique
        part += [j] * len(clique)
    masks += ctx.resid_masks
    part += [-1] * len(ctx.resid_masks)
    n_u = len(masks)
    color = [-1] * n_u
    on = [[] for _ in range(k0)]  # the vertices wearing each color
    holder = {}  # (clique, color) -> the member wearing it

    def move(x, c):
        """Recolor x to c (-1 unplaces it); returns its old color."""
        old = color[x]
        if old >= 0:
            on[old].remove(x)
            if part[x] >= 0:
                del holder[part[x], old]
        color[x] = c
        if c >= 0:
            on[c].append(x)
            if part[x] >= 0:
                holder[part[x], c] = x
        return old

    for x, c in enumerate(seed or ()):
        if c >= 0:
            move(x, c)
    spare = n_u - sum(lo) - sum(max(0, len(on[c]) - lo[c]) for c in range(k0))
    # give back units above a floor until the hub's budget holds
    for x in range(n_u):
        c = color[x]
        if spare < 0 and c >= 0 and len(on[c]) > lo[c]:
            move(x, -1)
            spare += 1
    if spare < 0:
        return False

    hub = n_u + k0  # node ids: vertices, then colors, then the hub
    for u in range(n_u):
        if color[u] >= 0:
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
                        if nxt >= n_u:
                            load = len(on[c])
                            if load < lo[c] or load < hi[c] and spare > 0:
                                end = nxt
                if end >= 0:
                    break
            elif node < hub:
                c = node - n_u
                for y in on[c]:
                    if prev[y] < 0:
                        prev[y] = node
                        queue.append(y)
                if len(on[c]) < hi[c] and prev[hub] < 0:
                    prev[hub] = node
                    queue.append(hub)
            else:
                for c in range(k0):
                    if len(on[c]) > lo[c] and prev[n_u + c] < 0:
                        prev[n_u + c] = hub
                        queue.append(n_u + c)
        if end < 0:
            return False
        c = end - n_u
        if len(on[c]) >= lo[c]:
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


def flow_feasible(ctx: hallrules.HallContext) -> bool:
    """Does the state behind ctx admit a full flow at ctx.k0? Fast path for
    the search: a greedy witness settles most feasible cases, an exact
    augmenting search from the greedy's partial assignment the rest.
    Equivalent to `oracle.feasible_flow` on the literal network."""
    complete, assign = _greedy_assignment(ctx)
    if complete:
        return True
    return _exact_feasible(ctx, assign)


def flow_prune(
    pc: PartialColoring,
    decomp: CliqueDecomposition,
    k_lower: int,
    k_upper: int,
    stats=None,
) -> bool:
    """True iff no k0 in the candidate range admits a feasible flow, i.e.
    the branch cannot reach a strictly better equitable coloring.

    The arithmetic Hall rules are necessary for feasibility, so each k0 is
    screened by them first and the flow problem is solved only when all
    rules pass; this never changes the verdict (property-tested against a
    plain loop of flow_feasible) but skips most infeasible solves.
    """
    for k0 in candidate_k0_values(pc, k_lower, k_upper):
        ctx = hallrules.HallContext(pc, decomp, k0)
        if hallrules.failing_rule(ctx) is not None:
            continue
        if stats is not None:
            stats.flow_solves += 1
        if flow_feasible(ctx):
            return False
    if stats is not None:
        stats.prunes_flow += 1
    return True
