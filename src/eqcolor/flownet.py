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
the flow puts into color c, and the tuple W is what `flow_feasible`
returns; its length is the color count k0.
Through a clique, vertex x's unit reaches color c on the clique's copy of
c, so one bit per (vertex, color) says everything the network's arcs do.
The arcs from the vertices are read the same way, per color: x has an
arc to c unless the context's `barred[c]` holds x.
The search queues a surviving child with the flow its test found, and the
tests of that child's own children start from it: the start is patched to
the new state, a patched start that is still a full flow is returned at
once, and otherwise only what the patch left open is completed. The
completion's augmenting searches run in `_augment`, a plain function of
this module, one call per path.
"""

from __future__ import annotations

from .coloring import PartialColoring, candidate_k0_values
from .decomposition import CliqueDecomposition
from . import hallrules


def flow_feasible(ctx: hallrules.HallContext, start=None):
    """A full flow W for the state behind ctx at ctx.k0, or None when
    there is none. Equivalent to `feasible_flow` on the literal
    network in `tests/literal_network.py`, property-tested against it,
    whenever no class is above ceil(n/k0), as at every k0
    `candidate_k0_values` offers (the literal network refuses the others).
    Outside that precondition the answer means nothing: on 8 isolated
    vertices with 4 colored 0, k0 = 3 gets a flow although class 0 is
    already above ceil(8/3) = 3, so no extension exists. The clique
    lookups assume what every decomposition the search makes holds: its
    cliques and residual part partition ctx's uncolored set.

    `start` is any earlier flow W', normally the parent node's; it
    is read, never changed. The patch keeps of it what is still valid:
    per color, the vertices that are still uncolored, free for the color
    and not already kept on a lower color, one vertex per clique of ctx's
    decomposition, and no more vertices than the class's ceiling leaves
    room for. What it drops is unplaced. With no start every vertex is.
    The same pass over the colors counts how many vertices the classes
    below their floors still lack. When no vertex is unplaced and none is
    lacking, the patched start is a full flow and is returned as it is.

    The completion, in order of cost:
    - each unplaced vertex goes directly on a free color that its clique
      does not hold and whose class is below its ceiling, preferring a
      class below its floor;
    - each class below its floor takes vertices that can move to it
      directly from classes above their floors;
    - what remains is settled by breadth-first augmenting paths, one call
      of `_augment` each. A vertex may move to any other free color,
      bumping its clique's holder of that color if there is one (this
      stands in for the clique's copy of the color); a class leads to its
      wearers. (A) While a class is below its floor, one search from
      every surplus (an unplaced vertex, or a class above its floor) must
      reach a class below its floor. (B) Then every unplaced vertex must
      reach a class below its ceiling. A search that reaches none proves
      that no full flow exists; one that does moves the vertices along
      its path.

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
    uncolored = ctx.uncolored
    barred = ctx.barred
    cliques = ctx.cliques
    covered = uncolored & ~ctx.residual  # the clique members
    prev = () if start is None else start
    if len(prev) < k0:
        prev = list(prev) + [0] * (k0 - len(prev))

    # the patch, in one pass over the colors: W[c] is what color c keeps
    # of the start, size[c] the size of its class with them
    W = []
    size = []
    deficit = 0  # how many vertices the classes below their floors lack
    unplaced = uncolored
    for s, w, bar in zip(ctx.class_sizes, prev, barred):
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
        t = s + w.bit_count()
        while t > ceil_size and w:
            w &= w - 1
            t -= 1
        W.append(w)
        size.append(t)
        unplaced ^= w
        if t < floor_size:
            deficit += floor_size - t

    # direct placements
    todo = unplaced
    while todo:
        bit = todo & -todo
        todo ^= bit
        q = 0  # bit's clique
        if bit & covered:
            for q in cliques:
                if q & bit:
                    break
        pick = -1
        for c in range(k0):
            if barred[c] & bit or size[c] >= ceil_size or W[c] & q:
                continue
            if size[c] < floor_size:
                pick = c
                deficit -= 1
                break
            if pick < 0:
                pick = c
        if pick >= 0:
            W[pick] |= bit
            size[pick] += 1
            unplaced ^= bit
    if not (deficit or unplaced):
        return tuple(W)

    # enter[c]: the vertices that can move directly into color c, free
    # for it, not wearing it and outside the cliques that hold it; the
    # direct shifts and `_augment` keep it current
    enter = []
    for wc, bar in zip(W, barred):
        into = uncolored & ~bar & ~wc
        if wc & covered:
            for q in cliques:
                if wc & q:
                    into &= ~q
        enter.append(into)

    # direct shifts into the classes below their floors
    for c in range(k0 if deficit else 0):
        if size[c] >= floor_size:
            continue
        for d in range(k0):
            bit = W[d] & enter[c]
            while bit and size[d] > floor_size:
                bit &= -bit
                q = bit  # bit's clique, or bit itself
                if bit & covered:
                    for q in cliques:
                        if q & bit:
                            break
                W[d] ^= bit
                W[c] |= bit
                enter[c] &= ~q
                # no member of bit's clique wears d now, so all can enter it
                enter[d] |= q & uncolored & ~barred[d]
                size[d] -= 1
                size[c] += 1
                deficit -= 1
                if size[c] == floor_size:
                    break
                bit = W[d] & enter[c]
            else:
                continue
            break  # c is at its floor

    # the augmenting searches
    net = (W, size, enter, uncolored, barred, cliques, covered)
    if deficit:
        # (A) the floors, from every surplus
        surplus = 0
        for d in range(k0):
            if size[d] > floor_size:
                surplus |= 1 << d
        while deficit:
            got = _augment(net, floor_size, surplus, unplaced)
            if not got:
                return None
            if got > 0:
                unplaced ^= got
            elif size[~got] == floor_size:
                surplus ^= 1 << ~got
            deficit -= 1
    # (B) the ceilings, for the vertices still unplaced
    while unplaced:
        got = _augment(net, ceil_size, 0, unplaced)
        if not got:
            return None
        unplaced ^= got
    return tuple(W)


def _augment(net, cap, sources, unplaced):
    """One breadth-first search of `flow_feasible`, a level at a time on
    vertex bitmasks, from the `unplaced` vertices and the colors in the
    bitmask `sources` to a class below the size `cap`. `net` is the
    flow's state (W, size, enter, uncolored, barred, cliques, covered),
    where enter[c] holds the vertices that can move directly into color
    c. On success the search moves the vertices on the path found, keeping
    W, size and enter current, and returns the path's start: the bit of
    the vertex it placed, or ~d for a source color d, which gave up one
    vertex. It returns 0 when no path exists."""
    W, size, enter, uncolored, barred, cliques, covered = net
    via = {}  # color reached -> the vertex bit that enters it
    bumper = {}  # vertex bit reached by a bump -> (the clique-mate taking its color, that color)
    # the entering masks of the colors not reached yet; a source's is zeroed
    opened = enter[:]
    front = unplaced
    m = sources
    while m:
        b = m & -m
        d = b.bit_length() - 1
        front |= W[d]
        opened[d] = 0
        m ^= b
    seen_v = front
    end = -1
    while front:
        nxt = 0
        for c, into in enumerate(opened):
            x = front & into
            if x:
                opened[c] = 0
                via[c] = x & -x
                if size[c] < cap:
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
                rest = q & ~seen_v  # the clique-mates not reached yet
                if not rest:
                    continue
                for c, w in enumerate(W):
                    y = w & rest
                    if y:
                        x = s & ~barred[c]
                        if x:
                            nxt |= y
                            bumper[y] = (x & -x, c)
            seen_v |= nxt
        front = nxt
    if end < 0:
        return 0
    size[end] += 1
    c = end
    bit = via[c]
    while True:  # bit moves into c
        q = bit  # bit's clique, or bit itself, can no longer enter c
        if bit & covered:
            for q in cliques:
                if q & bit:
                    break
        W[c] |= bit
        enter[c] &= ~q
        if bit & unplaced:
            return bit
        if bit in bumper:
            x, old = bumper[bit]
        else:  # a wearer: the one color other than c that holds it
            old = 0
            while not W[old] & bit or old == c:
                old += 1
            x = via.get(old)
        W[old] ^= bit
        # no member of bit's clique wears old now, so all can enter it
        enter[old] |= q & uncolored & ~barred[old]
        if x is None:  # old is a source color
            size[old] -= 1
            return ~old
        bit = x
        c = old


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
