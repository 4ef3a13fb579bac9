"""Extendability testing via feasible flows: the search's hot path.

The network for a partial coloring, a decomposition of the uncolored set U
into parts U^1..U^l (cliques, residual last) and a color budget k0 is
layered: source -> U -> per-part color copies F -> colors C -> sink. Arc
bounds encode that every uncolored vertex must receive exactly one still-
free color, that a clique can contribute at most one vertex per color, and
that every color class must end up at floor(n/k0) or ceil(n/k0) vertices.
The partial coloring extends to an equitable k0-coloring only if this
network carries a flow of value |U|; when the residual part is empty the
condition is exact. The literal network, built arc by arc with its lower
bounds, is the test oracle in `eqcolor.oracle`; this module decides the
same question from the free-color masks that `hallrules.HallContext`
already holds for the rule prefilter: a greedy witness, and when that
fails one shortest-augmenting-path max-flow seeded with the greedy's
partial assignment.
"""

from __future__ import annotations

from .coloring import PartialColoring, candidate_k0_values
from .decomposition import CliqueDecomposition
from . import hallrules


def _max_flow(to: list, cap: list, adj: list, s: int, t: int) -> int:
    """Shortest-augmenting-path max-flow on paired arc arrays: arc a runs
    to `to[a]` with residual capacity `cap[a]`, its reverse is a ^ 1, and
    `adj[v]` lists the arcs leaving v. Each round searches breadth-first
    from s, stops once t is labelled and augments the path found by its
    bottleneck. Augments `cap` in place; returns the value added."""
    total = 0
    while True:
        via = [-1] * len(adj)  # the arc that first reached each node
        via[s] = -2
        queue = [s]
        for v in queue:
            for a in adj[v]:
                w = to[a]
                if cap[a] > 0 and via[w] == -1:
                    via[w] = a
                    queue.append(w)
            if via[t] >= 0:
                break
        else:
            return total
        path = []
        v = t
        while v != s:
            a = via[v]
            path.append(a)
            v = to[a ^ 1]
        f = min(cap[a] for a in path)
        for a in path:
            cap[a] -= f
            cap[a ^ 1] += f
        total += f


def _greedy_assignment(ctx: hallrules.HallContext):
    """One-pass heuristic assignment of the uncolored vertices to free
    colors under the class-size windows, one vertex per clique and color.
    Vertices are numbered in ctx order: clique by clique, then the
    residual set. Returns (complete, assignment), where assignment[idx] is
    the color given to vertex idx or -1: `complete` means every vertex was
    placed and every lower bound met, i.e. the assignment witnesses a
    feasible flow; otherwise the partial assignment still respects all
    capacities and can seed an exact solve. Failure proves nothing."""
    floor_size = ctx.floor_size
    ceil_size = ctx.ceil_size
    lo = []
    hi = []
    for s in ctx.class_sizes:
        need = floor_size - s
        lo.append(need if need > 0 else 0)
        hi.append(ceil_size - s)
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
    """Single max-flow feasibility for the solver's hot path: lower bounds
    only appear on the color->sink arcs, so splitting each into a bounded
    and a mandatory arc towards an auxiliary sink reduces the test to one
    run. Residual vertices connect straight to colors (their part bound
    can never bind) and color copies nobody can reach are dropped; both
    are feasibility-preserving. A partial assignment from the greedy pass,
    indexed in ctx order, pre-saturates its paths so only the deficit
    needs augmenting. Property-tested against the literal network in
    `eqcolor.oracle`."""
    k0 = ctx.k0
    floor_size = ctx.floor_size
    ceil_size = ctx.ceil_size
    parts = (*ctx.clique_masks, ctx.resid_masks)
    n_u = sum(map(len, parts))

    # node ids: s, U block, colors, t, t2, then the F copies as created
    c_base = 1 + n_u
    t = c_base + k0
    t2 = t + 1
    to = []
    cap = []
    adj = [[] for _ in range(t2 + 1)]
    # route[i]: the node a vertex's color i leads to, its clique's F copy
    # of i; a residual vertex goes straight to C node i
    routes = []
    fc_arc = {}  # F node -> its arc into C
    for or_mask in ctx.clique_or:
        route = [-1] * k0
        while or_mask:
            bit = or_mask & -or_mask
            or_mask ^= bit
            c = c_base + bit.bit_length() - 1
            f = len(adj)
            a = len(to)
            to.append(c)
            cap.append(1)
            to.append(f)
            cap.append(0)
            adj.append([a])
            adj[c].append(a + 1)
            fc_arc[f] = a
            route[c - c_base] = f
        routes.append(route)
    routes.append(list(range(c_base, t)))

    adj_s = adj[0]
    if seed is None:
        seed = [-1] * n_u
    # seeded_paths[color] -> (s->u arc, u->x arc, x) per greedy-placed vertex
    seeded_paths = [[] for _ in range(k0)]
    un = 0
    for masks, route in zip(parts, routes):
        for mask in masks:
            un += 1
            sa = len(to)
            to.append(un)
            cap.append(1)
            to.append(0)
            cap.append(0)
            adj_s.append(sa)
            node_adj = adj[un]
            node_adj.append(sa + 1)
            sv = seed[un - 1]
            while mask:
                bit = mask & -mask
                mask ^= bit
                i = bit.bit_length() - 1
                x = route[i]
                a = len(to)
                to.append(x)
                cap.append(1)
                to.append(un)
                cap.append(0)
                node_adj.append(a)
                adj[x].append(a + 1)
                if i == sv:
                    seeded_paths[i].append((sa, a, x))
    lo_total = 0
    lo_arc = [-1] * k0
    hi_arc = [-1] * k0
    lo_of = [0] * k0
    for i, s in enumerate(ctx.class_sizes):
        lo = floor_size - s
        if lo < 0:
            lo = 0
        lo_of[i] = lo
        lo_total += lo
        c = c_base + i
        c_adj = adj[c]
        a = len(to)
        to.append(t)
        cap.append(ceil_size - s - lo)
        to.append(c)
        cap.append(0)
        c_adj.append(a)
        adj[t].append(a + 1)
        hi_arc[i] = a
        if lo:
            a = len(to)
            to.append(t2)
            cap.append(lo)
            to.append(c)
            cap.append(0)
            c_adj.append(a)
            adj[t2].append(a + 1)
            lo_arc[i] = a
    if lo_total > n_u:
        return False
    ta = len(to)
    to.append(t2)
    cap.append(n_u - lo_total)
    to.append(t)
    cap.append(0)
    adj[t].append(ta)
    adj[t2].append(ta + 1)

    # pre-push the greedy units: lower-bound arcs first, then the bounded
    # route while the t->t2 budget lasts; leftovers stay unseeded
    pushed = 0
    budget_t = n_u - lo_total
    for i in range(k0):
        paths = seeded_paths[i]
        via_t2 = min(len(paths), lo_of[i])
        for idx, (sa, ua, x) in enumerate(paths):
            if idx < via_t2:
                sink_arc = lo_arc[i]
            elif budget_t > 0 and cap[hi_arc[i]] > 0:
                sink_arc = hi_arc[i]
                budget_t -= 1
                cap[ta] -= 1
                cap[ta ^ 1] += 1
            else:
                continue
            fc = fc_arc.get(x)
            for arc in (sa, ua, sink_arc) if fc is None else (sa, ua, fc, sink_arc):
                cap[arc] -= 1
                cap[arc ^ 1] += 1
            pushed += 1

    return pushed + _max_flow(to, cap, adj, 0, t2) == n_u


def flow_feasible(ctx: hallrules.HallContext) -> bool:
    """Does the state behind ctx admit a full flow at ctx.k0? Fast path for
    the search: a greedy witness settles most feasible cases, an exact
    max-flow seeded with the greedy's partial assignment settles the rest.
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
