"""Shared test utilities: the example graphs and states several modules
use, random state generators, and independent reference implementations
used to cross-check the package (kept separate from the library so each
check has two routes)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from eqcolor import Graph, gen_gnp
from eqcolor.cli import instance_seed
from eqcolor.coloring import PartialColoring
from eqcolor.decomposition import (
    CliqueDecomposition,
    find_non_adjacent_cliques,
    mask_vertices,
)
from eqcolor.instances import by_name

if TYPE_CHECKING:  # literal_network imports free_colors from here
    from literal_network import FlowNetwork


def star(n: int) -> Graph:
    """The star on n vertices: center 0 joined to 1..n-1."""
    return Graph(n, [(0, v) for v in range(1, n)])


def complete(n: int) -> Graph:
    """The complete graph K_n."""
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def hub_triangles_graph() -> Graph:
    """Hub 0 joined to 1..5, plus two disjoint triangles {6,7,8} and
    {9,10,11}: chi_eq = 4, which std needs many nodes to prove."""
    edges = [(0, v) for v in range(1, 6)]
    edges += [(6, 7), (7, 8), (6, 8), (9, 10), (10, 11), (9, 11)]
    return Graph(12, edges)


def hub_triangles_state():
    """(graph, pc, decomposition) of `hub_triangles_graph` with the hub
    colored 0: the two triangles and the hub's private neighbors remain
    uncolored. No equitable 3-coloring extends this; a 4-coloring does."""
    g = hub_triangles_graph()
    pc = PartialColoring(g)
    pc.extend(0, 0)
    return g, pc, find_non_adjacent_cliques(g, pc.uncolored_mask)


def lopsided_state():
    """8-vertex state with class sizes (3,1,1,1) and two uncolored
    vertices: too few to balance the thin classes against the big one."""
    edges = [
        (0, 1), (1, 3), (2, 3), (0, 2), (2, 4), (3, 4),
        (1, 5), (3, 6), (4, 7), (5, 6), (6, 7),
    ]
    g = Graph(8, edges)
    pc = PartialColoring(g)
    for v, c in [(0, 0), (1, 1), (2, 2), (3, 3), (4, 0), (5, 0)]:
        pc.extend(v, c)
    return g, pc


# the instances of the benchmark's DIMACS workloads, and the p values of
# its gnp-comb workload: five G(50, p) at each, seeds
# instance_seed(1, 50, p, index) for index 0..4
BENCHMARK_DIMACS = ("myciel4", "myciel5", "queen6_6", "queen7_7", "2-Insertions_3", "1-FullIns_3")
GNP_COMB_P = (0.3, 0.5, 0.7, 0.9)


def gnp_comb_args() -> list[tuple[int, float, int]]:
    """The (n, p, seed) of the 20 graphs of the gnp-comb workload."""
    return [(50, p, instance_seed(1, 50, p, index)) for p in GNP_COMB_P for index in range(5)]


def benchmark_graphs() -> list[Graph]:
    """The six DIMACS instances and the 20 gnp-comb graphs the benchmark
    solves."""
    return [by_name(name) for name in BENCHMARK_DIMACS] + [
        gen_gnp(*args) for args in gnp_comb_args()
    ]


def messy_edge_lists(rng, count: int) -> list[tuple[int, list]]:
    """`count` random (n, edges) whose edge lists repeat pairs, give pairs
    in both orientations and name vertices 0 and 1 by False and True,
    ahead of two fixed cases."""
    out = [(3, [(0, True)]), (2, [(False, True), (1, 0), (0, 1)])]
    for _ in range(count):
        n = rng.randint(2, 40)
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3 * n))]
        pairs += [(v, u) for u, v in rng.sample(pairs, len(pairs) // 3)]
        pairs += rng.sample(pairs, len(pairs) // 4)
        pairs = [tuple(bool(w) if w < 2 and rng.random() < 0.5 else w for w in e) for e in pairs]
        rng.shuffle(pairs)
        out.append((n, pairs))
    return out


def snapshot(pc: PartialColoring):
    """All of pc that a move or a backtrack changes, as comparable values."""
    return (
        pc.coloring(),
        list(pc.class_size),
        pc.uncolored_mask,
        list(pc.free_mask),
        list(pc.sat),
        pc.M,
        pc.M_count,
        pc.k_used,
        list(pc._trail),
    )


def neighbors(g: Graph) -> list[set]:
    """Per vertex, the set of its neighbors, built from `g.edges` alone
    (which `Graph` reads off its masks; test_graph checks those masks
    against the edge lists the graphs are built from)."""
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def uncolored(pc: PartialColoring) -> set:
    """The uncolored vertices of pc, as a set."""
    return set(mask_vertices(pc.uncolored_mask))


def free_colors(pc: PartialColoring, v: int, k0: int) -> int:
    """Bitmask of the colors below k0 that no colored neighbor of v wears,
    recounted from the neighbors' colors."""
    free = (1 << k0) - 1
    color_of = pc.coloring()
    for w in mask_vertices(pc.adj_mask[v]):
        c = color_of[w]
        if c >= 0:
            free &= ~(1 << c)
    return free


def random_partial_coloring(rng, g: Graph, k0: int) -> PartialColoring:
    """Color a random subset greedily within the size windows of k0 so the
    state is a plausible search node (k_used <= k0, M <= ceil)."""
    n = g.n
    pc = PartialColoring(g)
    ceil = -(-n // k0)
    order = list(range(n))
    rng.shuffle(order)
    ncol = rng.randint(0, n - 1)
    for v in order[:ncol]:
        lim = min(pc.k_used + 1, k0)
        mask = free_colors(pc, v, lim)
        choices = [
            i for i in range(lim) if (mask >> i) & 1 and pc.class_size[i] < ceil
        ]
        if choices:
            pc.extend(v, rng.choice(choices))
    return pc


def random_state(rng, n_max=10, n_min=2, k0_max=None):
    """(graph, partial coloring, decomposition, k0) tuple satisfying the
    network preconditions; decomposition flavor is randomized."""
    while True:
        n = rng.randint(n_min, n_max)
        p = rng.uniform(0.05, 0.95)
        g = gen_gnp(n, p, rng.getrandbits(32))
        hi = n if k0_max is None else min(n, k0_max)
        k0 = rng.randint(1, hi)
        pc = random_partial_coloring(rng, g, k0)
        if pc.k_used > k0 or pc.M > -(-n // k0):
            continue
        decomp = random_decomposition(rng, g, uncolored(pc))
        return g, pc, decomp, k0


def mask(vertices) -> int:
    """The bitmask of a vertex collection."""
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def random_decomposition(rng, g: Graph, uncolored) -> CliqueDecomposition:
    """Trivial, greedy, or randomly seeded-greedy decomposition."""
    kind = rng.randrange(3)
    if kind == 0 or not uncolored:
        return CliqueDecomposition((), mask(uncolored))
    if kind == 1:
        return find_non_adjacent_cliques(g, mask(uncolored))
    return seeded_decomposition(g, mask(uncolored), rng.choice(sorted(uncolored)))


def seeded_decomposition(g: Graph, uncolored: int, seed: int) -> CliqueDecomposition:
    """The greedy decomposition with its first clique seeded at `seed`
    rather than at the lowest vertex: grow that clique by the lowest common
    neighbor, fence off its neighbors, and decompose the rest greedily."""
    clique = 1 << seed
    boundary = g.adj_mask[seed]
    common = boundary & uncolored
    while common:
        low = common & -common
        clique |= low
        w = low.bit_length() - 1
        common &= g.adj_mask[w]
        boundary |= g.adj_mask[w]
    if not clique & (clique - 1):  # a singleton joins the residual
        rest = find_non_adjacent_cliques(g, uncolored & ~clique)
        return CliqueDecomposition(rest.masks, rest.residual_mask | clique)
    fenced = boundary & uncolored & ~clique
    rest = find_non_adjacent_cliques(g, uncolored & ~clique & ~fenced)
    return CliqueDecomposition((clique,) + rest.masks, rest.residual_mask | fenced)


def cliques_only_state(rng, max_cliques=3, max_colored=4):
    """A state whose uncolored set is exactly a union of pairwise
    non-adjacent cliques (empty residual), for the exactness corpus."""
    sizes = [rng.randint(2, 3) for _ in range(rng.randint(1, max_cliques))]
    extra = rng.randint(0, max_colored)
    n = sum(sizes) + extra
    if n > 10:
        return None
    edges = []
    cliques = []
    base = 0
    for s in sizes:
        members = list(range(base, base + s))
        cliques.append(members)
        for a in range(s):
            for b in range(a + 1, s):
                edges.append((members[a], members[b]))
        base += s
    colored = list(range(base, n))
    for v in colored:
        for u in range(v):
            if rng.random() < 0.4:
                edges.append((u, v))
    g = Graph(n, edges)
    k0 = rng.randint(1, n)
    ceil = -(-n // k0)
    pc = PartialColoring(g)
    for v in colored:
        lim = min(pc.k_used + 1, k0)
        free = free_colors(pc, v, lim)
        choices = [
            i for i in range(lim) if (free >> i) & 1 and pc.class_size[i] < ceil
        ]
        if not choices:
            return None
        pc.extend(v, rng.choice(choices))
    if pc.k_used > k0 or pc.M > ceil:
        return None
    decomp = CliqueDecomposition([mask(c) for c in cliques], 0)
    return g, pc, decomp, k0


def find_extension(g: Graph, pc: PartialColoring, k0: int):
    """Independent extension search (no symmetry breaking, no pruning
    beyond the size windows): returns a full color list or None."""
    n = g.n
    floor_size = n // k0
    ceil_size = -(-n // k0)
    color_of = pc.coloring()
    sizes = [0] * k0
    for c in color_of:
        if c >= k0:
            return None
        if c >= 0:
            sizes[c] += 1
    if any(s > ceil_size for s in sizes):
        return None
    todo = sorted(uncolored(pc))
    adj = neighbors(g)

    def rec(idx):
        if idx == len(todo):
            if all(floor_size <= s <= ceil_size for s in sizes):
                return True
            return False
        v = todo[idx]
        for i in range(k0):
            if sizes[i] >= ceil_size:
                continue
            if any(color_of[w] == i for w in adj[v]):
                continue
            color_of[v] = i
            sizes[i] += 1
            if rec(idx + 1):
                return True
            sizes[i] -= 1
            color_of[v] = -1
        return False

    return color_of if rec(0) else None


def table1_flow(net: FlowNetwork, full_coloring) -> list[int]:
    """Transform a complete extension into per-arc flow values: one unit
    from the source per uncolored vertex, through its chosen color copy,
    summed per part on the copy->color arcs and per color into the sink."""
    flows = []
    part_of = {}
    for j, part in enumerate(net.parts):
        for v in part:
            part_of[v] = j
    k0 = net.k0
    for v in net.u_vertices:
        flows.append(1)
    f_loads = {}
    for v, i in net.a2_info:
        x = 1 if full_coloring[v] == i else 0
        flows.append(x)
        if x:
            key = (part_of[v], i)
            f_loads[key] = f_loads.get(key, 0) + 1
    c_loads = [0] * k0
    for j in range(len(net.parts)):
        for i in range(k0):
            x = f_loads.get((j, i), 0)
            flows.append(x)
            c_loads[i] += x
    for i in range(k0):
        flows.append(c_loads[i])
    return flows


def check_flow(net: FlowNetwork, flows) -> None:
    """Validate a flow vector: window per arc, conservation at internal
    nodes, and full value out of the source."""
    assert len(flows) == len(net.arcs)
    balance = [0] * net.num_nodes
    for (tail, head, lo, up), x in zip(net.arcs, flows):
        assert lo <= x <= up, f"arc ({tail},{head}) flow {x} outside [{lo},{up}]"
        balance[tail] -= x
        balance[head] += x
    for node in range(net.num_nodes):
        if node in (net.source, net.sink):
            continue
        assert balance[node] == 0, f"conservation violated at node {node}"
    assert -balance[net.source] == net.value_target
    assert balance[net.sink] == net.value_target


def assignment_feasible(net: FlowNetwork) -> bool:
    """Brute-force feasibility oracle for tiny networks: try every way of
    assigning each uncolored vertex one of its arcs (or checking the color
    windows directly), independent of any flow algorithm."""
    k0 = net.k0
    part_of = {}
    for j, part in enumerate(net.parts):
        for v in part:
            part_of[v] = j
    options = {v: [] for v in net.u_vertices}
    for v, i in net.a2_info:
        options[v].append(i)
    lo = []
    hi = []
    for tail, head, l, u in net.arcs[-k0:]:
        lo.append(l)
        hi.append(u)
    verts = list(net.u_vertices)
    loads = [0] * k0
    part_use = {}

    def rec(idx):
        if idx == len(verts):
            return all(lo[i] <= loads[i] <= hi[i] for i in range(k0))
        rest = len(verts) - idx
        need = sum(max(0, lo[i] - loads[i]) for i in range(k0))
        if need > rest:
            return False
        v = verts[idx]
        j = part_of[v]
        alpha = net.alphas[j]
        for i in options[v]:
            if loads[i] >= hi[i]:
                continue
            key = (j, i)
            if part_use.get(key, 0) >= alpha:
                continue
            loads[i] += 1
            part_use[key] = part_use.get(key, 0) + 1
            if rec(idx + 1):
                return True
            loads[i] -= 1
            part_use[key] -= 1
        return False

    return rec(0)


def reference_clique(g: Graph, start: int, candidates) -> list[int]:
    """Literal greedy growth: add the candidate of highest degree (ties to
    the lowest index) by a `min` over the candidates left, keep only its
    neighbors, repeat."""
    adj = neighbors(g)
    clique = [start]
    common = set(candidates)
    while common:
        v = min(common, key=lambda w: (-g.degree[w], w))
        clique.append(v)
        common &= adj[v]
    return clique


def reference_decomposition(g: Graph, uncolored):
    """Literal greedy decomposition, (cliques, residual): seed with the
    remaining vertex of highest degree (ties to the lowest index), grow by
    `reference_clique`, move the clique's remaining neighbors into the
    residual; a singleton joins the residual."""
    adj = neighbors(g)
    remaining = set(uncolored)
    cliques = []
    residual = set()
    while remaining:
        v = min(remaining, key=lambda w: (-g.degree[w], w))
        clique = reference_clique(g, v, adj[v] & remaining)
        remaining.difference_update(clique)
        if len(clique) == 1:
            residual.add(v)
            continue
        boundary = set().union(*(adj[u] for u in clique)) & remaining
        remaining -= boundary
        residual |= boundary
        cliques.append(tuple(clique))
    return cliques, residual


def check_decomposition(d: CliqueDecomposition, g: Graph, uncolored: int) -> None:
    """Raise ValueError unless d splits the uncolored set (a bitmask) into
    pairwise non-adjacent cliques of size >= 2 and a residual set."""
    adj = g.adj_mask
    seen = 0
    for c in d.masks:
        if c.bit_count() < 2:
            raise ValueError(f"clique {mask_vertices(c)} too small")
        if c & seen:
            raise ValueError("parts are not disjoint")
        seen |= c
        for u in mask_vertices(c):
            missing = c & ~adj[u] & ~(1 << u)
            if missing:
                v = missing.bit_length() - 1
                raise ValueError(f"{mask_vertices(c)} is not a clique: {u}-{v} missing")
    if d.covered_mask != seen:
        raise ValueError("kept clique mask is not the union of the cliques")
    if seen & d.residual_mask:
        raise ValueError("residual overlaps a clique")
    if seen | d.residual_mask != uncolored:
        raise ValueError("parts do not cover the uncolored set exactly")
    for i, a in enumerate(d.masks):
        reach = 0
        for u in mask_vertices(a):
            reach |= adj[u]
        for b in d.masks[i + 1 :]:
            if reach & b:
                raise ValueError(
                    f"cliques {mask_vertices(a)} and {mask_vertices(b)} are adjacent"
                )


def recompute_masks(pc: PartialColoring):
    """From-scratch (uncolored_mask, free_mask): the uncolored set, and
    per color the vertices with no neighbor of that color, each vertex
    tested against its own neighbors' colors."""
    n = pc.n
    uncolored = 0
    free = [0] * n
    color_of = pc.coloring()
    for v in range(n):
        if color_of[v] < 0:
            uncolored |= 1 << v
        worn = {color_of[w] for w in mask_vertices(pc.adj_mask[v])}
        for c in range(n):
            if c not in worn:
                free[c] |= 1 << v
    return uncolored, free


def literal_hall_context(pc: PartialColoring, decomp: CliqueDecomposition, k0: int):
    """The Hall context's fields recounted vertex by vertex from each
    vertex's free-color mask, as a dict: per clique the OR of its members'
    masks adds one supply to each color in it, each residual vertex adds
    one to each of its colors, and a mask with no bit or one bit counts
    toward `empty_free` or `single_free`."""
    supply = [0] * k0
    single_free = [0] * k0
    empty_free = 0
    clique_masks = []
    resid_masks = []

    def classify(fm):
        nonlocal empty_free
        if fm == 0:
            empty_free += 1
        elif fm & (fm - 1) == 0:
            single_free[fm.bit_length() - 1] += 1

    for clique in decomp.masks:
        masks = [free_colors(pc, v, k0) for v in mask_vertices(clique)]
        or_mask = 0
        for fm in masks:
            or_mask |= fm
            classify(fm)
        for f in range(k0):
            supply[f] += or_mask >> f & 1
        clique_masks.append(masks)
    for v in sorted(decomp.residual):
        fm = free_colors(pc, v, k0)
        resid_masks.append(fm)
        classify(fm)
        for f in range(k0):
            supply[f] += fm >> f & 1
    n = pc.n
    return {
        "k0": k0,
        "floor_size": n // k0,
        "ceil_size": -(-n // k0),
        "class_sizes": pc.class_size[:k0],
        "clique_masks": clique_masks,
        "resid_masks": resid_masks,
        "supply": supply,
        "single_free": single_free,
        "empty_free": empty_free,
    }


def saturation(pc: PartialColoring) -> list[int]:
    """Per vertex, colored or not, the number of colors whose recounted
    free mask lacks it."""
    _, free = recompute_masks(pc)
    return [sum(not f >> v & 1 for f in free) for v in range(pc.n)]


def recompute_sat(pc: PartialColoring) -> list[int]:
    """From-scratch saturation planes: bit v of plane j is bit j of v's
    recounted saturation, over n.bit_length() planes."""
    planes = [0] * pc.n.bit_length()
    for v, s in enumerate(saturation(pc)):
        for j in range(len(planes)):
            if s >> j & 1:
                planes[j] |= 1 << v
    return planes


def raising_on_call(fn, at: int, exc=KeyboardInterrupt):
    """`fn` wrapped to raise `exc` on its `at`-th call instead of running."""
    calls = 0

    def wrapped(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == at:
            raise exc
        return fn(*args, **kwargs)

    return wrapped


def proper_and_equitable(g: Graph, coloring, k: int) -> bool:
    """Independent validity check of a complete coloring."""
    if any(c < 0 for c in coloring):
        return False
    for u, v in g.edges:
        if coloring[u] == coloring[v]:
            return False
    sizes = {}
    for c in coloring:
        sizes[c] = sizes.get(c, 0) + 1
    if len(sizes) != k:
        return False
    return max(sizes.values()) - min(sizes.values()) <= 1
