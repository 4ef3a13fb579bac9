import random
from collections import Counter

import pytest

from eqcolor import Graph, gen_gnp
from eqcolor.coloring import PartialColoring
from eqcolor.decomposition import CliqueDecomposition, find_non_adjacent_cliques
from eqcolor import oracle
from eqcolor.oracle import OracleCapError, brute_chi_eq
from extension_oracle import brute_extendable
from helpers import (
    find_extension,
    free_colors,
    hub_triangles_state,
    lopsided_state,
    random_state,
    star,
)
from literal_network import (
    build_network,
    enumerate_hoffman,
    feasible_flow,
    hoffman_slack,
)


def test_star12_needs_seven():
    assert brute_chi_eq(star(12)) == 7


def test_star_formula_small():
    for k in range(3, 13):
        assert brute_chi_eq(star(k)) == -(-(k - 1) // 2) + 1


def test_cycle5():
    g = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert brute_chi_eq(g) == 3


def test_chi_eq_cap_enforced(monkeypatch):
    with pytest.raises(OracleCapError):
        brute_chi_eq(star(13))
    monkeypatch.setattr(oracle, "MAX_N", 13)
    assert brute_chi_eq(star(13)) == 7


def test_lopsided_state_not_extendable():
    g, pc = lopsided_state()
    assert brute_extendable(g, pc, 4) is False


def test_hub_triangles_extendable_only_with_four():
    g, pc, _ = hub_triangles_state()
    assert brute_extendable(g, pc, 3) is False
    assert brute_extendable(g, pc, 4) is True


def test_empty_partial_extendable_at_chi():
    rng = random.Random(81)
    for _ in range(40):
        g = gen_gnp(rng.randint(2, 9), rng.random(), rng.getrandbits(32))
        chi = brute_chi_eq(g)
        pc = PartialColoring(g)
        assert brute_extendable(g, pc, chi) is True
        if chi > 1:
            assert brute_extendable(g, pc, chi - 1) is False


def test_extendable_respects_existing_classes():
    # 0 and 1 non-adjacent but pinned to different classes
    g = Graph(4, [(2, 3)])
    pc = PartialColoring(g)
    pc.extend(0, 0)
    pc.extend(1, 1)
    assert brute_extendable(g, pc, 2) is True
    pc2 = PartialColoring(g)
    pc2.extend(0, 0)
    pc2.extend(1, 0)
    pc2.extend(2, 0)  # class of three cannot balance at k0=2... ceil(4/2)=2
    assert brute_extendable(g, pc2, 2) is False


def test_extendable_tries_used_class_above_empty_ones():
    """Vertex 0 wears color 2 above the empty classes 0 and 1, and the
    hub 1 must open one of them: the completion [2, 2, 0, 0, 1, 1] puts
    the hub in class 2, so the search must try a used class that sits
    above two empty ones."""
    g = Graph(6, [(1, 2), (1, 3), (1, 4), (1, 5)])
    pc = PartialColoring(g)
    pc.extend(0, 2)
    assert brute_extendable(g, pc, 3) is True
    assert find_extension(g, pc, 3) is not None


def test_extendable_matches_plain_enumeration_with_gaps():
    """brute_extendable agrees with an enumeration that tries every color
    for every vertex (no symmetry breaking), on random states with n <= 8
    whose used classes leave gaps: colors are drawn from all k0 classes,
    not in first-use order, and in half the states from classes 2 and up
    only, so at least two empty classes sit below the used ones."""
    rng = random.Random(86)
    seen = Counter()
    for _ in range(2000):
        n = rng.randint(3, 8)
        g = gen_gnp(n, rng.uniform(0.2, 0.8), rng.getrandbits(32))
        k0 = rng.randint(3, n)
        lowest = rng.choice((0, 2))
        pc = PartialColoring(g)
        for v in rng.sample(range(n), rng.randint(1, n // 2)):
            free = free_colors(pc, v, k0)
            colors = [c for c in range(lowest, k0) if free >> c & 1]
            if colors:
                pc.extend(v, rng.choice(colors))
        top = max(c for c in range(k0) if pc.class_size[c])
        gaps = sum(1 for c in range(top) if not pc.class_size[c])
        want = find_extension(g, pc, k0) is not None
        assert brute_extendable(g, pc, k0) is want
        seen[min(gaps, 2), want] += 1
    assert seen[2, True] > 100 and seen[2, False] > 100, seen


def _tiny_net(rng):
    while True:
        _, pc, decomp, k0 = random_state(rng, n_max=6, k0_max=3)
        net = build_network(pc, decomp, k0)
        if net.internal_node_count() <= 14:
            return net


def test_hoffman_equivalence_random():
    rng = random.Random(82)
    for _ in range(400):
        net = _tiny_net(rng)
        all_hold, violation = enumerate_hoffman(net)
        assert all_hold == (feasible_flow(net) is not None)
        if not all_hold:
            assert violation is not None and violation.slack < 0


def test_hoffman_feasible_case_all_hold():
    g = Graph(2, [(0, 1)])
    pc = PartialColoring(g)
    net = build_network(pc, find_non_adjacent_cliques(g, pc.uncolored_mask), 2)
    all_hold, violation = enumerate_hoffman(net)
    assert all_hold and violation is None


def test_hoffman_positive_violation_on_starved_center():
    """Hub colored, k0=2: its class needs two more vertices but every
    remaining vertex neighbors the hub. A fill-up (positive) family
    inequality is violated: select the hub's color, its copy in the
    residual part, and the (empty) set of vertices able to take it."""
    g = star(7)
    pc = PartialColoring(g)
    pc.extend(0, 0)
    decomp = find_non_adjacent_cliques(g, pc.uncolored_mask)
    net = build_network(pc, decomp, 2)
    assert net.internal_node_count() <= 14
    all_hold, violation = enumerate_hoffman(net)
    assert all_hold is False and violation.slack < 0
    # floor(7/2) - |C_0| = 2 needed, no vertex has the hub's color free
    assert hoffman_slack(net, (0,), (), ((0, 0),), (), (), ()) == -2

def test_hoffman_negative_violation_on_clique_pigeonhole():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    pc = PartialColoring(g)
    decomp = find_non_adjacent_cliques(g, pc.uncolored_mask)
    net = build_network(pc, decomp, 2)
    all_hold, violation = enumerate_hoffman(net)
    assert all_hold is False
    assert feasible_flow(net) is None


def test_hoffman_empty_u_consistent_windows():
    g = Graph(4, [])
    pc = PartialColoring(g)
    for v in range(4):
        pc.extend(v, v % 2)
    net = build_network(pc, CliqueDecomposition((), 0, 0), 2)
    all_hold, _ = enumerate_hoffman(net)
    assert all_hold is True
    assert feasible_flow(net) is not None


def test_hoffman_cap_enforced():
    g = Graph(12, [])
    pc = PartialColoring(g)
    net = build_network(pc, CliqueDecomposition((), pc.uncolored_mask, 0), 4)
    with pytest.raises(OracleCapError):
        enumerate_hoffman(net)
    assert enumerate_hoffman(net, max_nodes=24)[0] is True


def test_violation_splits_into_one_sided_violation():
    """Each violated mixed selection decomposes: its slack is the sum of
    the slacks of the two one-sided selections, so at least one of those
    must be violated too."""
    rng = random.Random(83)
    found = 0
    while found < 60:
        net = _tiny_net(rng)
        all_hold, v = enumerate_hoffman(net)
        if all_hold:
            continue
        found += 1
        plus = hoffman_slack(net, v.t_plus, (), v.s_plus, (), v.r_plus, ())
        minus = hoffman_slack(net, (), v.t_minus, (), v.s_minus, (), v.r_minus)
        assert plus + minus == v.slack
        assert min(plus, minus) < 0


def _f_nodes(net):
    return [(j, i) for j in range(len(net.parts)) for i in range(net.k0)]


def _u_targets(net):
    part_of = {v: j for j, part in enumerate(net.parts) for v in part}
    u_index = {v: idx for idx, v in enumerate(net.u_vertices)}
    targets = {u: set() for u in range(len(net.u_vertices))}
    for v, i in net.a2_info:
        targets[u_index[v]].add((part_of[v], i))
    return targets


def test_dominance_maximal_positive_r():
    """Pulling every vertex with an arc into S+ into R+ never weakens the
    inequality."""
    rng = random.Random(84)
    for _ in range(300):
        net = _tiny_net(rng)
        s_plus = tuple(f for f in _f_nodes(net) if rng.random() < 0.4)
        t_plus = tuple(i for i in range(net.k0) if rng.random() < 0.5)
        sp = set(s_plus)
        targets = _u_targets(net)
        r_bar = tuple(u for u, ts in targets.items() if ts & sp)
        best = hoffman_slack(net, t_plus, (), s_plus, (), r_bar, ())
        for _ in range(6):
            r_rand = tuple(
                u for u in range(len(net.u_vertices)) if rng.random() < 0.5
            )
            assert best <= hoffman_slack(net, t_plus, (), s_plus, (), r_rand, ())


def test_dominance_maximal_negative_r():
    """Dually, R- maximal w.r.t. 'all arcs land inside S-' dominates."""
    rng = random.Random(85)
    for _ in range(300):
        net = _tiny_net(rng)
        s_minus = tuple(f for f in _f_nodes(net) if rng.random() < 0.5)
        t_minus = tuple(i for i in range(net.k0) if rng.random() < 0.5)
        sm = set(s_minus)
        targets = _u_targets(net)
        r_bar = tuple(u for u, ts in targets.items() if ts <= sm)
        best = hoffman_slack(net, (), t_minus, (), s_minus, (), r_bar)
        for _ in range(6):
            r_rand = tuple(
                u for u in range(len(net.u_vertices)) if rng.random() < 0.5
            )
            assert best <= hoffman_slack(net, (), t_minus, (), s_minus, (), r_rand)


def test_hoffman_slack_rejects_incompatible_selection():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    pc = PartialColoring(g)
    net = build_network(pc, find_non_adjacent_cliques(g, pc.uncolored_mask), 2)
    with pytest.raises(ValueError):
        hoffman_slack(net, (0,), (0,), (), (), (), ())
    with pytest.raises(ValueError):
        # S- copy of color 0 while color 0 sits in T+
        hoffman_slack(net, (0,), (), (), ((0, 0),), (), ())
