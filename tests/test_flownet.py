import random
from collections import Counter

import pytest

from eqcolor import Graph, SearchStats, gen_gnp
from eqcolor.coloring import PartialColoring, candidate_k0_values
from eqcolor.decomposition import CliqueDecomposition, find_non_adjacent_cliques
from eqcolor.flownet import flow_feasible, flow_prune
from eqcolor.hallrules import HallContext
from extension_oracle import brute_extendable
from helpers import (
    assignment_feasible,
    check_flow,
    cliques_only_state,
    find_extension,
    free_colors,
    mask,
    proper_and_equitable,
    random_decomposition,
    random_state,
    table1_flow,
    uncolored,
)
from literal_network import (
    _max_flow,
    build_network,
    check_vertex_flow,
    extract_coloring,
    feasible_flow,
)


def hub_triangles_state():
    """Hub 0 colored first; two triangles and the hub's private neighbors
    remain. No equitable 3-coloring can extend this."""
    edges = [(0, v) for v in range(1, 6)]
    edges += [(6, 7), (7, 8), (6, 8), (9, 10), (10, 11), (9, 11)]
    g = Graph(12, edges)
    pc = PartialColoring(g)
    pc.extend(0, 0)
    decomp = find_non_adjacent_cliques(g, pc.uncolored_mask)
    return g, pc, decomp


def test_hub_triangles_sink_arc_bounds():
    _, pc, decomp = hub_triangles_state()
    net = build_network(pc, decomp, 3)
    sink_arcs = net.arcs[-3:]
    # 12/3 = 4 exactly, the hub's class already holds one vertex
    assert sink_arcs[0][2:] == (3, 3)
    assert sink_arcs[1][2:] == (4, 4)
    assert sink_arcs[2][2:] == (4, 4)


def test_hub_triangles_not_extendable_at_three_colors():
    g, pc, decomp = hub_triangles_state()
    net = build_network(pc, decomp, 3)
    assert feasible_flow(net) is None
    assert brute_extendable(g, pc, 3) is False
    # with a fourth color the state opens up again
    assert brute_extendable(g, pc, 4) is True
    assert feasible_flow(build_network(pc, decomp, 4)) is not None


def test_k2_empty_coloring_unit_windows():
    g = Graph(2, [(0, 1)])
    pc = PartialColoring(g)
    decomp = find_non_adjacent_cliques(g, pc.uncolored_mask)
    net = build_network(pc, decomp, 2)
    assert [arc[2:] for arc in net.arcs[-2:]] == [(1, 1), (1, 1)]
    flow = feasible_flow(net)
    assert flow is not None
    check_flow(net, flow)
    assert sum(flow[: net.a1_count]) == 2


def test_star_center_colored_seven_colors_feasible():
    g = Graph(12, [(0, v) for v in range(1, 12)])
    pc = PartialColoring(g)
    pc.extend(0, 0)
    decomp = find_non_adjacent_cliques(g, pc.uncolored_mask)
    assert not decomp.masks  # leaves are independent: all residual
    net = build_network(pc, decomp, 7)
    assert feasible_flow(net) is not None
    assert brute_extendable(g, pc, 7) is True


def test_sink_capacity_shortfall_is_infeasible():
    """Cut at the sink: when the color->sink upper bounds sum below |U| no
    flow can reach the target value. Built networks never produce this on
    their own, so squeeze one sink window by hand."""
    g = Graph(6, [])
    pc = PartialColoring(g)
    decomp = find_non_adjacent_cliques(g, pc.uncolored_mask)
    net = build_network(pc, decomp, 2)
    assert feasible_flow(net) is not None
    squeezed = []
    for tail, head, lo, up in net.arcs:
        if head == net.sink:
            squeezed.append((tail, head, 0, 1))
        else:
            squeezed.append((tail, head, lo, up))
    net.arcs = squeezed
    assert sum(arc[3] for arc in net.arcs[-2:]) < net.value_target
    assert feasible_flow(net) is None


def test_trivial_decomposition_copy_layer_not_binding():
    """With everything in the residual part the copy layer's bounds equal
    |U| and feasibility matches a direct assignment model."""
    rng = random.Random(61)
    for _ in range(300):
        g, pc, _, k0 = random_state(rng, n_max=7)
        trivial = CliqueDecomposition((), pc.uncolored_mask)
        net = build_network(pc, trivial, k0)
        for tail, head, lo, up in net.arcs[net.a1_count + net.a2_count :][: net.a3_count]:
            assert lo == 0 and up == pc.uncolored_mask.bit_count()
        assert (feasible_flow(net) is not None) == assignment_feasible(net)


def test_build_network_rejects_oversized_class():
    g = Graph(6, [])
    pc = PartialColoring(g)
    for v in range(4):
        pc.extend(v, 0)
    decomp = find_non_adjacent_cliques(g, pc.uncolored_mask)
    with pytest.raises(ValueError):
        build_network(pc, decomp, 2)  # ceil(6/2)=3 < 4


def test_build_network_rejects_low_k0():
    g = Graph(4, [])
    pc = PartialColoring(g)
    pc.extend(0, 0)
    pc.extend(1, 1)
    decomp = find_non_adjacent_cliques(g, pc.uncolored_mask)
    with pytest.raises(ValueError):
        build_network(pc, decomp, 1)


def test_arc_windows_well_formed():
    rng = random.Random(46)
    for _ in range(300):
        _, pc, decomp, k0 = random_state(rng, n_max=8)
        net = build_network(pc, decomp, k0)
        for tail, head, lo, up in net.arcs:
            assert 0 <= lo <= up, (tail, head, lo, up)


def test_feasible_flow_agrees_with_assignment_oracle():
    rng = random.Random(47)
    agree = 0
    for _ in range(600):
        _, pc, decomp, k0 = random_state(rng, n_max=7)
        net = build_network(pc, decomp, k0)
        assert (feasible_flow(net) is not None) == assignment_feasible(net)
        agree += 1
    assert agree == 600


def test_flow_soundness_against_brute_force():
    rng = random.Random(48)
    for _ in range(1500):
        g, pc, decomp, k0 = random_state(rng, n_max=8)
        if brute_extendable(g, pc, k0):
            net = build_network(pc, decomp, k0)
            assert feasible_flow(net) is not None


def test_flow_exactness_on_clique_decompositions():
    rng = random.Random(49)
    done = 0
    while done < 600:
        state = cliques_only_state(rng)
        if state is None:
            continue
        g, pc, decomp, k0 = state
        net = build_network(pc, decomp, k0)
        assert (feasible_flow(net) is not None) == brute_extendable(g, pc, k0)
        done += 1


def test_extension_transforms_to_admissible_flow():
    rng = random.Random(50)
    done = 0
    while done < 400:
        g, pc, decomp, k0 = random_state(rng, n_max=8)
        ext = find_extension(g, pc, k0)
        if ext is None:
            continue
        net = build_network(pc, decomp, k0)
        check_flow(net, table1_flow(net, ext))
        done += 1


def test_feasible_flow_decodes_to_extension_when_residual_empty():
    rng = random.Random(51)
    done = 0
    while done < 400:
        state = cliques_only_state(rng)
        if state is None:
            continue
        g, pc, decomp, k0 = state
        net = build_network(pc, decomp, k0)
        flow = feasible_flow(net)
        if flow is None:
            continue
        check_flow(net, flow)
        assign = extract_coloring(net, flow)
        assert set(assign) == uncolored(pc)
        full = pc.coloring()
        for v, c in assign.items():
            full[v] = c
        assert proper_and_equitable(g, full, k0)
        done += 1


def test_extract_requires_feasible():
    g, pc, decomp = hub_triangles_state()
    net = build_network(pc, decomp, 3)
    with pytest.raises(ValueError):
        extract_coloring(net, feasible_flow(net))


def test_flow_prune_hub_triangles_root():
    g, pc, decomp = hub_triangles_state()
    assert flow_prune(pc, decomp, 3, 4, SearchStats(), found=[]) is True
    # k0=4 is feasible
    assert flow_prune(pc, decomp, 3, 5, SearchStats(), found=[]) is False


def test_flow_prune_open_at_known_chi():
    g = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    pc = PartialColoring(g)
    decomp = find_non_adjacent_cliques(g, pc.uncolored_mask)
    # an equitable 3-coloring exists
    assert flow_prune(pc, decomp, 3, 5, SearchStats(), found=[]) is False


def test_flow_prune_empty_candidate_range():
    g = Graph(12, [])
    pc = PartialColoring(g)
    for v in range(5):
        pc.extend(v, 0)
    pc.extend(5, 1)
    pc.extend(6, 2)
    decomp = find_non_adjacent_cliques(g, pc.uncolored_mask)
    # k_used=3 forces k0=3, but M=5 > ceil(12/3)=4: nothing to test
    assert flow_prune(pc, decomp, 1, 4, SearchStats(), found=[]) is True
    assert brute_extendable(g, pc, 3) is False


def test_flow_prune_prefilter_equivalent():
    rng = random.Random(52)
    for _ in range(800):
        g, pc, decomp, k0 = random_state(rng, n_max=8)
        k_upper = rng.randint(k0, g.n + 1)
        k_lower = rng.randint(1, max(1, pc.k_used))
        unfiltered = not any(
            flow_feasible(HallContext(pc, decomp, k)) is not None
            for k in candidate_k0_values(pc, k_lower, k_upper)
        )
        pruned = flow_prune(pc, decomp, k_lower, k_upper, SearchStats(), found=[])
        assert pruned == unfiltered


def test_cold_flow_feasible_matches_literal_network():
    rng = random.Random(53)
    for _ in range(2000):
        _, pc, decomp, k0 = random_state(rng, n_max=9)
        ref = feasible_flow(build_network(pc, decomp, k0)) is not None
        flow = flow_feasible(HallContext(pc, decomp, k0))
        assert (flow is not None) == ref
        if flow is not None:
            check_vertex_flow(pc, decomp, k0, flow)


def test_search_places_a_vertex_by_bumping_its_clique_mate():
    """At k0 = 5, 11 vertices give class windows [2, 3]; classes 0-4 hold
    2/1/1/2/0, so the floors ask for 0/1/1/0/2 more. The direct
    placements put 2 on color 2, 3 on 1, and 6 and 7 on 4, which fills
    every floor. 8 is free for colors 1, 2 and 4 only, and its clique
    {2, 3, 7, 8} holds all three, so only a search places it: its path
    8 -> 3 -> color 3 bumps 3 off color 1 onto color 3, one above that
    class's floor."""
    g = Graph(11, [
        (0, 1), (0, 5), (0, 6), (0, 8), (0, 10), (1, 2), (1, 4), (1, 5),
        (1, 9), (2, 3), (2, 4), (2, 6), (2, 7), (2, 8), (2, 9), (3, 7),
        (3, 8), (3, 9), (4, 7), (4, 8), (5, 6), (5, 10), (6, 10), (7, 8),
        (7, 9), (8, 10),
    ])
    pc = PartialColoring(g)
    for v, c in ((0, 0), (1, 1), (4, 3), (5, 2), (9, 0), (10, 3)):
        pc.extend(v, c)
    decomp = CliqueDecomposition([mask([8, 2, 7, 3])], mask([6]))
    assert feasible_flow(build_network(pc, decomp, 5)) is not None
    flow = flow_feasible(HallContext(pc, decomp, 5))
    check_vertex_flow(pc, decomp, 5, flow)
    assert flow[1] == mask([8]) and flow[3] == mask([3])


def test_shift_out_of_a_class_lets_a_clique_mate_in():
    """k0 = 3 on 10 vertices: windows [3, 4]. 7, 8 and 9 wear colors 0, 1
    and 2; {0, 1, 6} is a clique. 9 bars 3, 4, 5 and 6 from color 2, and
    7 bars 2 from color 0. The direct placements put 0 on color 0, 1 and
    2 on color 1, 3 and 4 on color 0 and 5 on color 1, so classes 0-2
    hold 4/4/1 and 6 is unplaced: its clique holds colors 0 and 1. The
    direct shifts fill class 2 with 0 from color 0 and 2 from color 1;
    1, lower than 2 on color 1, may not follow its clique-mate 0 into
    color 2. Color 0 no longer holds the clique, so the search places 6
    on it."""
    g = Graph(10, [(0, 1), (0, 6), (1, 6), (2, 7), (3, 9), (4, 9), (5, 9), (6, 9)])
    pc = PartialColoring(g)
    for v, c in ((7, 0), (8, 1), (9, 2)):
        pc.extend(v, c)
    decomp = CliqueDecomposition([mask([0, 1, 6])], mask([2, 3, 4, 5]))
    assert feasible_flow(build_network(pc, decomp, 3)) is not None
    flow = flow_feasible(HallContext(pc, decomp, 3))
    assert flow is not None
    check_vertex_flow(pc, decomp, 3, flow)
    assert flow == (mask([3, 4, 6]), mask([1, 5]), mask([0, 2]))


def _isolated_uncolored_state(n, colored, edges):
    """The graph on n vertices with `edges`, `colored` as (vertex, color)
    pairs, and the greedy decomposition of the rest. The callers leave the
    uncolored vertices pairwise non-adjacent, so it is all residual."""
    g = Graph(n, edges)
    pc = PartialColoring(g)
    for v, c in colored:
        pc.extend(v, c)
    return g, pc, find_non_adjacent_cliques(g, pc.uncolored_mask)


def test_floors_short_although_every_vertex_fits_a_ceiling():
    """k0 = 3 on 10 vertices: windows [3, 4]. Vertex 0 wears color 2 and
    bars it from 1-8, so only 9 can join class 2, whose floor needs two.
    The direct placements put 1-8 on colors 0 and 1, above their floors,
    and 9 on color 2: every vertex fits under the ceilings, but no search
    from the surplus classes 0 and 1 reaches color 2."""
    g, pc, decomp = _isolated_uncolored_state(
        10, [(0, 2)], [(0, v) for v in range(1, 9)]
    )
    assert flow_feasible(HallContext(pc, decomp, 3)) is None
    assert feasible_flow(build_network(pc, decomp, 3)) is None
    assert brute_extendable(g, pc, 3) is False


def test_floor_search_fails_when_no_vertex_can_enter_a_short_class():
    """k0 = 3 on 7 vertices: windows [2, 3], classes 0-2 hold 2/1/1, so
    the floors ask for 0/1/1 more and color 0 has room for one above its
    floor. Every uncolored vertex is barred from color 1, so no flow meets
    its floor. The direct placements put 4, free only for color 0, on
    color 0 and 5 and 6 on color 2: every vertex is placed and two vertices
    went to classes then below their floors, but class 1 is still short
    and no surplus reaches it."""
    g, pc, decomp = _isolated_uncolored_state(
        7,
        [(0, 0), (1, 0), (2, 1), (3, 2)],
        [(4, 2), (4, 3), (5, 2), (6, 2)],
    )
    assert flow_feasible(HallContext(pc, decomp, 3)) is None
    assert feasible_flow(build_network(pc, decomp, 3)) is None
    assert brute_extendable(g, pc, 3) is False


def test_direct_placements_fill_floors_under_ceilings():
    """The state above with color 1 open again: vertex 4, free only for
    color 0, whose class is at its floor, goes on color 0 under its
    ceiling, and 5 and 6 fill the floors of 1 and 2."""
    g, pc, decomp = _isolated_uncolored_state(
        7, [(0, 0), (1, 0), (2, 1), (3, 2)], [(4, 2), (4, 3)]
    )
    flow = flow_feasible(HallContext(pc, decomp, 3))
    assert flow == (mask([4]), mask([5]), mask([6]))
    assert feasible_flow(build_network(pc, decomp, 3)) is not None
    assert brute_extendable(g, pc, 3) is True


def test_flow_feasible_precondition_no_class_above_ceiling():
    """flow_feasible reads no class above ceil(n/k0), so outside its
    precondition it may return a flow for a state that cannot extend. The
    search never asks: candidate_k0_values skips such a k0, and the
    literal network refuses it."""
    g, pc, decomp = _isolated_uncolored_state(8, [(v, 0) for v in range(4)], [])
    assert flow_feasible(HallContext(pc, decomp, 3)) is not None
    assert brute_extendable(g, pc, 3) is False
    assert 3 not in candidate_k0_values(pc, 1, 9)
    with pytest.raises(ValueError):
        build_network(pc, decomp, 3)


def _judge_from(pc, decomp, k0, start, move=None):
    """flow_feasible on the state pc, or on its child that makes `move`,
    started from `start`: the verdict equals the literal network's, the
    start comes back unchanged, and a returned flow passes
    check_vertex_flow. Returns the flow."""
    before = None if start is None else list(start)
    flow = flow_feasible(HallContext(pc, decomp, k0, move), start)
    assert before is None or list(start) == before
    if move is not None:
        pc.extend(*move)
    exact = feasible_flow(build_network(pc, decomp, k0)) is not None
    assert (flow is not None) == exact
    if flow is not None:
        check_vertex_flow(pc, decomp, k0, flow)
    if move is not None:
        pc.retract()
    return flow


def _partial_flow(rng, pc, decomp, k0):
    """A random partial flow within the ceilings: in random order, each
    uncolored vertex goes with probability 1/2 on a random free color
    that its clique does not hold and whose class is below its ceiling.
    W is a list, so a change to it would show."""
    ceil_size = -(-pc.n // k0)
    W = [0] * k0
    todo = sorted(uncolored(pc))
    for v in rng.sample(todo, len(todo)):
        clique = next((c for c in decomp.masks if c >> v & 1), 0)
        free = free_colors(pc, v, k0)
        colors = [
            c
            for c in range(k0)
            if free >> c & 1
            and not W[c] & clique
            and pc.class_size[c] + W[c].bit_count() < ceil_size
        ]
        if colors and rng.random() < 0.5:
            W[rng.choice(colors)] |= 1 << v
    return W


def test_flow_feasible_is_exact_from_any_start():
    """flow_feasible decides the literal network's question from any start
    (`_judge_from`), on three kinds of start:
    - a neighbor state's full flow: a state's flow for its child judged
      from the state plus the move, as the search passes it, on a new
      decomposition of the child and at every k0 the child offers; and
      the child's flow back for the state;
    - random partial flows within the ceilings;
    - random masks for a random color count, which put colored vertices,
      barred colors, two members of a clique and more than a ceiling on
      one color, and one vertex on several colors."""
    rng = random.Random(56)
    seen = Counter()
    for _ in range(1500):
        g, pc, decomp, k0 = random_state(rng, n_max=9)
        flow = _judge_from(pc, decomp, k0, _partial_flow(rng, pc, decomp, k0))
        seen["partial", flow is not None] += 1
        k = rng.randint(1, g.n)
        broken = [rng.getrandbits(g.n) for _ in range(k)]
        flow = _judge_from(pc, decomp, k0, broken)
        seen["broken", flow is not None] += 1
        if flow is None or not pc.uncolored_mask:
            continue
        v = rng.choice(sorted(uncolored(pc)))
        limit = min(pc.k_used + 1, g.n)
        free = free_colors(pc, v, limit)
        colors = [i for i in range(limit) if free >> i & 1]
        if not colors:
            continue
        move = (v, rng.choice(colors))
        child_decomp = random_decomposition(rng, g, uncolored(pc) - {v})
        for k in candidate_k0_values(pc, 1, g.n + 1, move):
            child_flow = _judge_from(pc, child_decomp, k, flow, move)
            seen["parent's", child_flow is not None] += 1
            if child_flow is not None:
                back = _judge_from(pc, decomp, k0, child_flow)
                seen["child's", back is not None] += 1
    assert min(seen.values()) > 100 and len(seen) == 7, seen


def test_full_start_comes_back_as_it_is():
    """A start that is already a full flow for the context comes back with
    equal W, and the start is not changed; one that places every vertex
    within the ceilings but leaves a class below its floor is completed.
    On 7 isolated vertices at k0 = 3 (windows [2, 3]), the start puts
    3/3/1 vertices on colors 0-2, so class 2 lacks one."""
    rng = random.Random(57)
    full = 0
    for _ in range(400):
        _, pc, decomp, k0 = random_state(rng, n_max=9)
        ctx = HallContext(pc, decomp, k0)
        flow = flow_feasible(ctx)
        if flow is None:
            continue
        start = list(flow)
        assert flow_feasible(ctx, start) == flow
        assert start == list(flow)
        full += 1
    assert full > 100
    _, pc, decomp = _isolated_uncolored_state(7, [], [])
    start = [mask([0, 1, 2]), mask([3, 4, 5]), mask([6])]
    flow = _judge_from(pc, decomp, 3, start)
    assert flow[2] & mask([6]) and flow[2].bit_count() == 2


def _random_paired_network(rng):
    n = rng.randint(2, 7)
    to, cap, adj, arcs = [], [], [[] for _ in range(n)], []
    for _ in range(rng.randint(0, 3 * n)):
        u, v, c = rng.randrange(n), rng.randrange(n), rng.randint(0, 3)
        arcs.append((u, v, c))
        adj[u].append(len(to))
        to.append(v)
        cap.append(c)
        adj[v].append(len(to))
        to.append(u)
        cap.append(0)
    return n, to, cap, adj, arcs


def test_max_flow_equals_min_cut_and_leaves_a_valid_flow():
    """On small random paired-arc networks the value is the brute-force
    minimum s-t cut, and the residual capacities encode a flow within
    every arc's capacity that is conserved at every inner node."""
    rng = random.Random(55)
    for _ in range(3000):
        n, to, cap, adj, arcs = _random_paired_network(rng)
        s, t = rng.sample(range(n), 2)
        min_cut = min(
            sum(c for u, v, c in arcs if side >> u & 1 and not side >> v & 1)
            for side in range(1 << n)
            if side >> s & 1 and not side >> t & 1
        )
        assert _max_flow(to, cap, adj, s, t) == min_cut
        balance = [0] * n
        for a, (u, v, c) in enumerate(arcs):
            flow = cap[2 * a + 1]
            assert 0 <= flow <= c and cap[2 * a] == c - flow
            balance[u] -= flow
            balance[v] += flow
        assert balance[t] == min_cut == -balance[s]
        assert all(b == 0 for w, b in enumerate(balance) if w not in (s, t))


def test_flow_prune_never_cuts_optimal_path():
    """A prune below the best reachable color count would break exactness:
    whenever some equitable k-coloring extends the state, flow_prune with
    that k inside its candidate range must keep the branch."""
    rng = random.Random(54)
    for _ in range(400):
        g, pc, decomp, _ = random_state(rng, n_max=9)
        feasible_ks = [
            k
            for k in range(max(1, pc.k_used), g.n + 1)
            if brute_extendable(g, pc, k)
        ]
        if feasible_ks:
            k_upper = feasible_ks[0] + 1
            assert flow_prune(pc, decomp, 1, k_upper, SearchStats(), found=[]) is False

