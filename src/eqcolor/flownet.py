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
question on the `hallrules.HallContext` snapshot, with no network built.

A flow here is bit-sliced: `W[c]` is the bitmask of the uncolored vertices
the flow puts into color c, and (k0, W) is what `flow_feasible` returns.
Through a clique, vertex x's unit reaches color c on the clique's copy of
c, so one bit per (vertex, color) says everything the network's arcs do.
The arcs from the vertices are read the same way, per color: x has an
arc to c unless the context's `barred[c]` holds x.
The search queues a surviving child with the flow its test found, and the
tests of that child's own children start from it: the start is patched to
the new state, and only what the patch left open is completed.
"""

from __future__ import annotations

from .coloring import PartialColoring, candidate_k0_values
from .decomposition import CliqueDecomposition
from . import hallrules


def flow_feasible(ctx: hallrules.HallContext, start=None):
    """A full flow for the state behind ctx at ctx.k0, as (k0, W), or None
    when there is none. Equivalent to `feasible_flow` on the literal
    network in `tests/literal_network.py`, property-tested against it,
    whenever no class is above ceil(n/k0), as at every k0
    `candidate_k0_values` offers (the literal network refuses the others).
    Outside that precondition the answer means nothing: on 8 isolated
    vertices with 4 colored 0, k0 = 3 gets a flow although
    `oracle.brute_extendable` says no extension exists.

    `start` is any earlier flow (k0', W'), normally the parent node's; it
    is read, never changed. The patch keeps of it what is still valid:
    per color, the vertices that are still uncolored, free for the color
    and not already kept on a lower color, one vertex per clique of ctx's
    decomposition, and no more vertices than the class's ceiling leaves
    room for (`hi`). What it drops is unplaced. With no start every vertex
    is.

    The completion, in order of cost:
    - each unplaced vertex goes directly on a free color that its clique
      does not hold and whose class is below its ceiling, preferring a
      class below its floor (`lo`);
    - each class below its floor takes vertices that can move to it
      directly from classes above their floors;
    - what remains is settled by breadth-first augmenting paths. A vertex
      may move to any other free color, bumping its clique's holder of
      that color if there is one (this stands in for the clique's copy
      of the color); a class leads to its wearers. (A) While a class is
      below its floor, one search from every surplus (an unplaced
      vertex, or a class above its floor) must reach a class below its
      floor. (B) Then every unplaced vertex must reach a class below its
      ceiling. A search that reaches none proves that no full flow
      exists; one that does moves the vertices along its path.

    Exactness from any start. Every step keeps the flow f within the
    ceilings, the free colors and the clique limits. Let f* be any full
    flow. On the arcs between vertices, clique copies and colors, f* - f
    is a flow in f's residual network whose supplies are f's unplaced
    vertices (one unit each) and the colors c with |f(c)| > |f*(c)|, and
    whose demands are the colors with |f*(c)| > |f(c)|; it decomposes
    into paths from supplies to demands, plus cycles. A color c below its
    floor has |f*(c)| >= floor > |f(c)|, so a path ends at c, and its
    start is an unplaced vertex or a color d with |f(d)| > |f*(d)| >=
    floor: a surplus reaches c, which is check (A). An unplaced vertex u
    starts a path, and it ends at a color c with |f(c)| < |f*(c)| <=
    ceiling: u reaches a class below its ceiling, which is check (B). So
    a failed search proves infeasibility whatever f is. Each successful
    path of (A) shortens one floor by one and takes one unit from a
    surplus, which stays at or above its floor; each of (B) places one
    vertex under a ceiling without emptying a floor. Both phases end,
    with a full flow or a failed search.
    """
    k0 = ctx.k0
    floor_size, ceil_size = ctx.floor_size, ctx.ceil_size
    sizes = ctx.class_sizes
    # per color, how many uncolored vertices it must take, and may take,
    # for its class to end within the window
    lo = [floor_size - s if s < floor_size else 0 for s in sizes]
    hi = [ceil_size - s for s in sizes]
    uncolored = ctx.uncolored
    if sum(lo) > uncolored.bit_count():
        return None
    barred = ctx.barred
    cliques = ctx.cliques
    covered = uncolored & ~ctx.residual  # the clique members

    def clique_of(bit):
        """The clique holding the vertex `bit`, 0 for a residual vertex."""
        if bit & covered:
            for q in cliques:
                if q & bit:
                    return q
        return 0

    def entering(c):
        """The vertices that can move into color c directly: free for it,
        not wearing it, and outside the cliques that hold it."""
        wc = W[c]
        into = uncolored & ~barred[c] & ~wc
        if wc & covered:
            for q in cliques:
                if wc & q:
                    into &= ~q
        return into

    # the patch
    W = []
    count = []
    unplaced = uncolored
    if start is not None:
        for w, bar, room in zip(start[1], barred, hi):
            w &= unplaced & ~bar
            x = w & covered
            if x & (x - 1):  # two clique members: keep one per clique
                for q in cliques:
                    y = x & q
                    if y & (y - 1):
                        w ^= y ^ (y & -y)
                    x ^= y
                    if not x & (x - 1):
                        break
            size = w.bit_count()
            while size > room:
                w &= w - 1
                size -= 1
            W.append(w)
            count.append(size)
            unplaced ^= w
    if len(W) < k0:
        count += [0] * (k0 - len(W))
        W += [0] * (k0 - len(W))

    # direct placements
    todo = unplaced
    while todo:
        bit = todo & -todo
        todo ^= bit
        q = clique_of(bit)
        pick = -1
        for c in range(k0):
            if count[c] >= hi[c] or barred[c] & bit or W[c] & q:
                continue
            if count[c] < lo[c]:
                pick = c
                break
            if pick < 0:
                pick = c
        if pick >= 0:
            W[pick] |= bit
            count[pick] += 1
            unplaced ^= bit

    # direct shifts into the classes below their floors
    short = False
    for c in range(k0):
        if count[c] >= lo[c]:
            continue
        into = entering(c)
        for d in range(k0):
            while into and count[d] > lo[d] and count[c] < lo[c]:
                bit = W[d] & into
                if not bit:
                    break
                bit &= -bit
                W[d] ^= bit
                W[c] |= bit
                count[d] -= 1
                count[c] += 1
                into &= ~(clique_of(bit) or bit)
        if count[c] < lo[c]:
            short = True

    def augment(cap, sources):
        """One breadth-first search, a level at a time on vertex bitmasks,
        from the unplaced vertices and the colors in `sources` to a color
        below `cap`; moves the vertices on the path found and returns
        True, or returns False."""
        nonlocal unplaced
        enter = [entering(c) for c in range(k0)]
        via = {}  # color reached -> the vertex that enters it
        bumper = {}  # vertex reached by a bump -> the clique-mate taking its color
        seen_c = 0
        front = unplaced
        for d in sources:
            seen_c |= 1 << d
            front |= W[d]
        seen_v = front
        end = -1
        while front:
            nxt = 0
            for c in range(k0):
                if seen_c >> c & 1:
                    continue
                x = front & enter[c]
                if x:
                    seen_c |= 1 << c
                    via[c] = (x & -x).bit_length() - 1
                    if count[c] < cap[c]:
                        end = c
                        break
                    x = W[c] & ~seen_v  # the color leads to its wearers
                    seen_v |= x
                    nxt |= x
            if end >= 0:
                break
            if front & covered:
                for q in cliques:
                    s = front & q
                    if not s:
                        continue
                    for c in range(k0):
                        y = W[c] & q & ~seen_v
                        if y:
                            x = s & ~barred[c]
                            if x:
                                seen_v |= y
                                nxt |= y
                                bumper[y.bit_length() - 1] = (x & -x).bit_length() - 1
            front = nxt
        if end < 0:
            return False
        count[end] += 1
        c = end
        x = via[c]
        while True:  # x moves into c
            bit = 1 << x
            for old in range(k0):
                if W[old] & bit:
                    break
            else:
                old = -1
            W[c] |= bit
            if old < 0:
                unplaced ^= bit
                return True
            W[old] ^= bit
            if x in bumper:
                x = bumper[x]
            elif old in via:
                x = via[old]
            else:  # old is a source color
                count[old] -= 1
                return True
            c = old

    # (A) the floors, from every surplus
    while short:
        if not augment(lo, [d for d in range(k0) if count[d] > lo[d]]):
            return None
        short = any(n < need for n, need in zip(count, lo))
    # (B) the ceilings, for the vertices still unplaced
    while unplaced:
        if not augment(hi, ()):
            return None
    return k0, tuple(W)


def flow_prune(
    pc: PartialColoring,
    decomp: CliqueDecomposition,
    k_lower: int,
    k_upper: int,
    stats,
    move: tuple[int, int] | None = None,
    start=None,
    *,
    found: list,
) -> bool:
    """True iff no k0 in the candidate range admits a feasible flow, i.e.
    the branch cannot reach a strictly better equitable coloring. Given a
    move (v, i), the node judged is the child that colors v with i, read
    from pc without extending it; decomp is the child's decomposition
    either way. Each flow test starts from `start`, the flow of the node
    judged's parent, if given. When the node survives, the flow that kept
    it is appended to `found`. Each flow test counts in
    `stats.flow_solves`, and a pruned node in `stats.prunes_flow`.

    The arithmetic Hall rules are necessary for feasibility, so each k0 is
    screened by them first and the flow problem is solved only when all
    rules pass; this never changes the verdict (property-tested against a
    plain loop of flow_feasible) but skips most infeasible solves.
    """
    for k0 in candidate_k0_values(pc, k_lower, k_upper, move):
        ctx = hallrules.HallContext(pc, decomp, k0, move)
        if hallrules.failing_rule(ctx) is not None:
            continue
        stats.flow_solves += 1
        flow = flow_feasible(ctx, start)
        if flow is not None:
            found.append(flow)
            return False
    stats.prunes_flow += 1
    return True
