"""The paper's extendability network built literally, for the tests: the
layered network with per-arc [lower, upper] bounds (`FlowNetwork`,
`build_network`), a lower-bound feasible-flow solver on a plain max-flow
(`feasible_flow`, `_max_flow`), the decoding of a flow into colors
(`extract_coloring`), and the exhaustive enumeration of the network's
Hoffman inequalities on tiny networks (`enumerate_hoffman`).

The search's engine, `eqcolor.flownet.flow_feasible`, builds no network
and shares no flow code with this module; the tests check its verdicts
against the network built here, and each flow it returns against the
network's arc bounds (`check_vertex_flow`). Tests import this module the
way they import `helpers`."""

from __future__ import annotations

from dataclasses import dataclass

from eqcolor.coloring import PartialColoring
from eqcolor.decomposition import CliqueDecomposition, mask_vertices
from eqcolor.oracle import OracleCapError
from helpers import free_colors, uncolored

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


class FlowNetwork:
    """Layered network with per-arc [lower, upper] bounds.

    Node ids: source=0, then U nodes, then F nodes (part-major, color-minor),
    then C nodes, then sink. `arcs` is a flat list of
    (tail, head, lower, upper) in A1, A2, A3, A4 order.
    """

    __slots__ = (
        "k0",
        "floor_size",
        "ceil_size",
        "class_sizes",
        "parts",
        "alphas",
        "u_vertices",
        "u_node",
        "source",
        "sink",
        "num_nodes",
        "arcs",
        "a2_info",
        "a1_count",
        "a2_count",
        "a3_count",
        "value_target",
    )

    def c_node(self, color: int) -> int:
        return 1 + len(self.u_vertices) + len(self.parts) * self.k0 + color

    def internal_node_count(self) -> int:
        """Nodes other than source and sink (U, F and C layers)."""
        return self.num_nodes - 2


def build_network(
    pc: PartialColoring, decomp: CliqueDecomposition, k0: int
) -> FlowNetwork:
    """Assemble the extendability network for (pc, decomp, k0).

    Raises ValueError when k0 < k_used, when the largest class already
    exceeds ceil(n/k0) (the caller must treat that as infeasible without
    building), or when the decomposition does not cover the uncolored set.
    Lower bounds on the color->sink arcs are clamped at 0: a class already
    at ceil(n/k0) would otherwise get a vacuous negative bound.
    """
    n = pc.n
    ceil_size = -(-n // k0)
    floor_size = n // k0
    if k0 < pc.k_used:
        raise ValueError(f"k0={k0} below the {pc.k_used} classes already in use")
    if pc.M > ceil_size:
        raise ValueError(f"class of size {pc.M} exceeds ceil(n/k0)={ceil_size}")
    parts = [mask_vertices(c) for c in decomp.masks]
    alphas = [1] * len(parts)
    if decomp.residual:
        parts.append(tuple(sorted(decomp.residual)))
        alphas.append(len(decomp.residual))
    u_vertices = [v for part in parts for v in part]
    if len(u_vertices) != len(set(u_vertices)) or set(u_vertices) != uncolored(pc):
        raise ValueError("decomposition does not cover the uncolored set exactly")

    net = FlowNetwork()
    net.k0 = k0
    net.floor_size = floor_size
    net.ceil_size = ceil_size
    net.class_sizes = pc.class_size[:k0]
    net.parts = parts
    net.alphas = alphas
    net.u_vertices = u_vertices
    net.u_node = {v: 1 + idx for idx, v in enumerate(u_vertices)}
    nu = len(u_vertices)
    net.source = 0
    net.sink = 1 + nu + len(parts) * k0 + k0
    net.num_nodes = net.sink + 1
    net.value_target = nu

    arcs = []
    a2_info = []
    for v in u_vertices:
        arcs.append((0, net.u_node[v], 0, 1))
    net.a1_count = nu
    for j, part in enumerate(parts):
        f_base = 1 + nu + j * k0
        for v in part:
            node_v = net.u_node[v]
            mask = free_colors(pc, v, k0)
            while mask:
                bit = mask & -mask
                i = bit.bit_length() - 1
                mask ^= bit
                arcs.append((node_v, f_base + i, 0, 1))
                a2_info.append((v, i))
    net.a2_count = len(arcs) - nu
    for j in range(len(parts)):
        f_base = 1 + nu + j * k0
        alpha = alphas[j]
        for i in range(k0):
            arcs.append((f_base + i, net.c_node(i), 0, alpha))
    net.a3_count = len(parts) * k0
    for i in range(k0):
        size = net.class_sizes[i]
        lo = floor_size - size
        if lo < 0:
            lo = 0
        arcs.append((net.c_node(i), net.sink, lo, ceil_size - size))
    net.arcs = arcs
    net.a2_info = a2_info
    return net


def feasible_flow(net: FlowNetwork) -> list[int] | None:
    """Per-arc flow of value `value_target` meeting every arc's
    [lower, upper] window, or None when the network has none.

    Lower bounds are removed with the standard excess/deficit reduction: an
    auxiliary super-source/super-sink absorbs the forced units while a
    circulation arc sink->source closes the loop. A feasible circulation
    exists iff the auxiliary max flow saturates all super-source arcs; the
    source->sink flow is then maximized in the residual network and
    compared against the target.
    """
    arcs = net.arcs
    num = net.num_nodes
    ss = num
    tt = num + 1
    to = []
    cap = []
    adj = [[] for _ in range(num + 2)]

    def add(u: int, v: int, c: int) -> int:
        a = len(to)
        to.extend((v, u))
        cap.extend((c, 0))
        adj[u].append(a)
        adj[v].append(a + 1)
        return a

    refs = []
    excess = [0] * num
    inf = net.value_target + 1
    for tail, head, lo, up in arcs:
        refs.append(add(tail, head, up - lo))
        if lo:
            excess[head] += lo
            excess[tail] -= lo
            if lo > 0:
                inf += lo
    circ = add(net.sink, net.source, inf + net.value_target)
    need = 0
    for w, e in enumerate(excess):
        if e > 0:
            add(ss, w, e)
            need += e
        elif e < 0:
            add(w, tt, -e)
    if _max_flow(to, cap, adj, ss, tt) != need:
        return None
    base = cap[circ ^ 1]
    cap[circ] = cap[circ ^ 1] = 0
    if base + _max_flow(to, cap, adj, net.source, net.sink) != net.value_target:
        return None
    return [arc[2] + cap[ref ^ 1] for arc, ref in zip(arcs, refs)]


def extract_coloring(net: FlowNetwork, flow: list[int] | None) -> dict[int, int]:
    """Decode a feasible flow into vertex->color assignments for the
    uncolored vertices (valid as a proper extension when every part is a
    clique, i.e. the residual was empty)."""
    if flow is None:
        raise ValueError("cannot extract a coloring from an infeasible network")
    assign = {}
    start = net.a1_count
    for offset, (v, i) in enumerate(net.a2_info):
        if flow[start + offset] == 1:
            assign[v] = i
    return assign


def check_vertex_flow(
    pc: PartialColoring, decomp: CliqueDecomposition, k0: int, W
) -> None:
    """Assert that `W`, a flow from `flow_feasible` with W[c] the
    bitmask of the uncolored vertices it puts into color c, is a full
    flow of the network for (pc, decomp, k0): each uncolored vertex is in
    exactly one W[c] and no colored vertex in any, c is free for it (no
    neighbor wears c), each clique holds at most one vertex per color,
    and every class ends within floor(n/k0)..ceil(n/k0). Reads the
    neighborhoods and `pc.coloring()`, not the barred masks the engine
    reads."""
    assert len(W) == k0, (len(W), k0)
    n = pc.n
    color_of = pc.coloring()
    for c, w in enumerate(W):
        assert 0 <= w < 1 << n, f"color {c} holds a vertex outside the graph"
    for v in range(n):
        wearing = [c for c in range(k0) if W[c] >> v & 1]
        if color_of[v] >= 0:
            assert not wearing, f"colored vertex {v} placed on {wearing}"
            continue
        assert len(wearing) == 1, f"uncolored vertex {v} placed on {wearing}"
        c = wearing[0]
        neighbors = mask_vertices(pc.adj_mask[v])
        assert all(color_of[w] != c for w in neighbors), f"{v} barred from {c}"
    for clique in decomp.masks:
        for c in range(k0):
            members = [v for v in mask_vertices(clique) if W[c] >> v & 1]
            assert len(members) <= 1, f"clique members {members} share color {c}"
    floor_size, ceil_size = n // k0, -(-n // k0)
    for c in range(k0):
        size = pc.class_size[c] + sum(1 for v in range(n) if W[c] >> v & 1)
        assert floor_size <= size <= ceil_size, f"class {c} ends at {size}"


@dataclass
class HoffmanViolation:
    """One violated inequality: the signed node selection and its slack."""

    t_plus: tuple[int, ...]
    t_minus: tuple[int, ...]
    s_plus: tuple[tuple[int, int], ...]
    s_minus: tuple[tuple[int, int], ...]
    r_plus: tuple[int, ...]
    r_minus: tuple[int, ...]
    slack: int


def _network_tables(net: FlowNetwork):
    """Per-layer data for the source/sink-free model: for each F node its
    stability bound and color; for each U node the list of its F targets."""
    k0 = net.k0
    nparts = len(net.parts)
    f_alpha = [net.alphas[j] for j in range(nparts) for _ in range(k0)]
    f_color = [i for _ in range(nparts) for i in range(k0)]
    u_index = {v: idx for idx, v in enumerate(net.u_vertices)}
    part_of = {v: j for j, part in enumerate(net.parts) for v in part}
    u_targets = [[] for _ in net.u_vertices]
    for v, i in net.a2_info:
        u_targets[u_index[v]].append(part_of[v] * k0 + i)
    return f_alpha, f_color, u_targets


def hoffman_slack(net: FlowNetwork, t_plus, t_minus, s_plus, s_minus, r_plus, r_minus):
    """Right-hand side minus left-hand side of the inequality induced by an
    explicit signed selection (colors in t_*, (part,color) pairs in s_*,
    U-layer indices in r_*). Computed literally from the arc lists, so it
    is independent of the optimized enumerator. Raises ValueError when the
    selection violates the sign-compatibility requirements."""
    k0 = net.k0
    f_alpha, f_color, u_targets = _network_tables(net)
    sp = {j * k0 + i for j, i in s_plus}
    sm = {j * k0 + i for j, i in s_minus}
    tp = set(t_plus)
    tm = set(t_minus)
    rp = set(r_plus)
    rm = set(r_minus)
    if rp & rm or sp & sm or tp & tm:
        raise ValueError("signed selections must be disjoint")
    for u in rp:
        if set(u_targets[u]) & sm:
            raise ValueError("arc from R+ into S-")
    for u in rm:
        if set(u_targets[u]) & sp:
            raise ValueError("arc from R- into S+")
    for f in sp:
        if f_color[f] in tm:
            raise ValueError("arc from S+ into T-")
    for f in sm:
        if f_color[f] in tp:
            raise ValueError("arc from S- into T+")
    floor_size, ceil_size = net.floor_size, net.ceil_size
    sizes = net.class_sizes
    lhs = len(rm) + sum(sizes[i] - ceil_size for i in tm)
    rhs = len(rp) + sum(sizes[i] - floor_size for i in tp)
    for u in range(len(u_targets)):
        if u in rm:
            rhs += sum(1 for f in u_targets[u] if f not in sm)
        elif u not in rp:
            rhs += sum(1 for f in u_targets[u] if f in sp)
    for f in range(len(f_color)):
        if f in sm:
            if f_color[f] not in tm:
                rhs += f_alpha[f]
        elif f not in sp and f_color[f] in tp:
            rhs += f_alpha[f]
    return rhs - lhs


def enumerate_hoffman(net: FlowNetwork, max_nodes: int = 14):
    """Exhaust every sign-compatible selection over the U/F/C layers and
    evaluate its inequality, choosing the U-layer signs optimally per
    assignment (the dominance arguments make that choice independent per
    vertex). Returns (all_hold, first_violation_or_None). Raises
    OracleCapError when the network has more than `max_nodes` internal
    nodes."""
    k0 = net.k0
    n_f = len(net.parts) * k0
    n_u = len(net.u_vertices)
    internal = n_u + n_f + k0
    if internal > max_nodes:
        raise OracleCapError(f"{internal} internal nodes exceed cap {max_nodes}")
    f_alpha, f_color, u_targets = _network_tables(net)
    floor_size, ceil_size = net.floor_size, net.ceil_size
    sizes = net.class_sizes

    c_signs = [0] * k0
    f_signs = [0] * n_f

    def eval_u(slack_base):
        """Optimal U contributions; returns (slack, choices)."""
        slack = slack_base
        choices = []
        for targets in u_targets:
            plus_ok = True
            minus_ok = True
            zero_gain = 0
            minus_gain = -1
            for f in targets:
                s = f_signs[f]
                if s == -1:
                    plus_ok = False
                elif s == 1:
                    minus_ok = False
                    zero_gain += 1
                else:
                    minus_gain += 1
            best, pick = zero_gain, 0
            if plus_ok and 1 < best:
                best, pick = 1, 1
            if minus_ok and minus_gain < best:
                best, pick = minus_gain, -1
            slack += best
            choices.append(pick)
        return slack, choices

    def assign_f(pos, slack):
        if pos == n_f:
            total, choices = eval_u(slack)
            if total < 0:
                return _violation(total, choices)
            return None
        c_sign = c_signs[f_color[pos]]
        for s in (0, 1, -1):
            if s * c_sign == -1:
                continue
            extra = 0
            if s == 0 and c_sign == 1:
                extra = f_alpha[pos]
            elif s == -1 and c_sign == 0:
                extra = f_alpha[pos]
            f_signs[pos] = s
            found = assign_f(pos + 1, slack + extra)
            if found is not None:
                f_signs[pos] = 0
                return found
        f_signs[pos] = 0
        return None

    def _violation(slack, u_choices):
        return HoffmanViolation(
            t_plus=tuple(i for i in range(k0) if c_signs[i] == 1),
            t_minus=tuple(i for i in range(k0) if c_signs[i] == -1),
            s_plus=tuple(
                (f // k0, f % k0) for f in range(n_f) if f_signs[f] == 1
            ),
            s_minus=tuple(
                (f // k0, f % k0) for f in range(n_f) if f_signs[f] == -1
            ),
            r_plus=tuple(u for u, c in enumerate(u_choices) if c == 1),
            r_minus=tuple(u for u, c in enumerate(u_choices) if c == -1),
            slack=slack,
        )

    def assign_c(pos, slack):
        if pos == k0:
            return assign_f(0, slack)
        for s in (0, 1, -1):
            if s == 1:
                extra = sizes[pos] - floor_size
            elif s == -1:
                extra = ceil_size - sizes[pos]
            else:
                extra = 0
            c_signs[pos] = s
            found = assign_c(pos + 1, slack + extra)
            if found is not None:
                c_signs[pos] = 0
                return found
        c_signs[pos] = 0
        return None

    violation = assign_c(0, 0)
    return violation is None, violation
