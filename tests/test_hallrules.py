import random

from eqcolor import Graph, SearchStats, gen_gnp
from eqcolor.coloring import PartialColoring, deficit_prune
from eqcolor.decomposition import CliqueDecomposition, find_non_adjacent_cliques
from eqcolor.flownet import flow_prune
from eqcolor.hallrules import (
    HallContext,
    _clique_has_sdr,
    check_clique_hall,
    check_negative_single_and_complement,
    check_positive_complement,
    check_positive_single,
    comb_prune,
    failing_rule,
)
from eqcolor.oracle import brute_extendable, build_network, feasible_flow
from helpers import random_state


def hub_triangles_state():
    edges = [(0, v) for v in range(1, 6)]
    edges += [(6, 7), (7, 8), (6, 8), (9, 10), (10, 11), (9, 11)]
    g = Graph(12, edges)
    pc = PartialColoring(g)
    pc.extend(0, 0)
    decomp = find_non_adjacent_cliques(g, pc.uncolored)
    return g, pc, decomp


def test_positive_single_k2_strong():
    g = Graph(2, [(0, 1)])
    pc = PartialColoring(g)
    decomp = CliqueDecomposition([[0, 1]], set())
    ctx = HallContext(pc, decomp, 2)
    assert check_positive_single(ctx) is True


def test_positive_single_fires_on_hub_triangles():
    """The first color needs floor(12/3) - 1 = 3 more vertices but only the
    two triangle cliques can offer one each."""
    _, pc, decomp = hub_triangles_state()
    ctx = HallContext(pc, decomp, 3)
    assert check_positive_single(ctx) is False


def test_positive_single_vacuous_when_class_full():
    g = Graph(4, [])
    pc = PartialColoring(g)
    pc.extend(0, 0)
    pc.extend(1, 0)  # class 0 at ceil(4/2)
    decomp = CliqueDecomposition((), pc.uncolored)
    ctx = HallContext(pc, decomp, 2)
    assert check_positive_single(ctx) is True


def test_positive_complement_open_when_everyone_free():
    g = Graph(4, [])
    pc = PartialColoring(g)
    decomp = CliqueDecomposition((), pc.uncolored)
    ctx = HallContext(pc, decomp, 2)
    assert check_positive_complement(ctx) is True


def test_positive_complement_fires_when_two_classes_starved():
    """Nine vertices, classes (3,2,2), both uncolored vertices can only
    take the first color: the other two classes cannot be topped up."""
    edges = []
    for v in (7, 8):
        for w in (3, 4, 5, 6):
            edges.append((v, w))
    g = Graph(9, edges)
    pc = PartialColoring(g)
    for v in (0, 1, 2):
        pc.extend(v, 0)
    for v in (3, 4):
        pc.extend(v, 1)
    for v in (5, 6):
        pc.extend(v, 2)
    decomp = CliqueDecomposition((), pc.uncolored)
    ctx = HallContext(pc, decomp, 3)
    assert check_positive_complement(ctx) is False
    assert brute_extendable(g, pc, 3) is False


def test_positive_complement_vacuous_single_color():
    g = Graph(3, [])
    pc = PartialColoring(g)
    ctx = HallContext(pc, CliqueDecomposition((), pc.uncolored), 1)
    assert check_positive_complement(ctx) is True


def test_clique_sdr_cases():
    assert _clique_has_sdr([0b01, 0b01], 2) is False  # both forced to color 0
    assert _clique_has_sdr([0b011, 0b110, 0b101], 3) is True
    assert _clique_has_sdr([0b0111, 0b0111, 0b0111, 0b0111], 4) is False  # 4 into 3
    assert _clique_has_sdr([], 2) is True


def test_clique_hall_uses_free_sets():
    # triangle with one color knocked out per vertex
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 0), (4, 1), (5, 2)])
    pc = PartialColoring(g)
    pc.extend(3, 0)
    pc.extend(4, 1)
    pc.extend(5, 2)
    decomp = CliqueDecomposition([[0, 1, 2]], set())
    ctx = HallContext(pc, decomp, 3)
    # 0 cannot take color 0, 1 cannot take 1, 2 cannot take 2: still an SDR
    assert check_clique_hall(ctx) is True
    ctx2 = HallContext(pc, decomp, 2)
    assert check_clique_hall(ctx2) is False  # three vertices, two colors


def test_negative_pigeonhole():
    """Three uncolored vertices squeezed into one color exceed its room."""
    edges = []
    for v in (4, 5, 6):
        for w in (2, 3):
            edges.append((v, w))
    g = Graph(7, edges)
    pc = PartialColoring(g)
    pc.extend(0, 0)
    pc.extend(1, 0)
    pc.extend(2, 1)
    pc.extend(3, 2)
    # k0=3: ceil(7/3)=3; 4,5,6 all have free set {0} and class 0 has room 1
    decomp = CliqueDecomposition((), pc.uncolored)
    ctx = HallContext(pc, decomp, 3)
    assert check_negative_single_and_complement(ctx) is False
    assert brute_extendable(g, pc, 3) is False


def test_negative_families_direct_evaluation():
    """State with spread free sets: family (a) vacuous, family (b) holds."""
    g = Graph(8, [(6, 0), (7, 1)])
    pc = PartialColoring(g)
    for v, c in [(0, 0), (1, 1), (2, 2), (3, 3), (4, 0), (5, 1)]:
        pc.extend(v, c)
    decomp = CliqueDecomposition((), pc.uncolored)
    ctx = HallContext(pc, decomp, 4)
    # |F(6)| = |F(7)| = 3, so nobody is forced into a single color
    assert ctx.single_free == [0, 0, 0, 0] and ctx.empty_free == 0
    # per color g: |{v: g not free}| = 1 <= sum of other ceilings' slack
    assert check_negative_single_and_complement(ctx) is True


def test_negative_open_with_full_freedom():
    g = Graph(6, [])
    pc = PartialColoring(g)
    for k0 in (1, 2, 3):
        ctx = HallContext(pc, CliqueDecomposition((), pc.uncolored), k0)
        assert check_negative_single_and_complement(ctx) is True


def test_comb_prune_hub_triangles():
    _, pc, decomp = hub_triangles_state()
    assert comb_prune(pc, decomp, 3, 4) is True
    assert failing_rule(HallContext(pc, decomp, 3)) == "positive_single"


def test_comb_prune_open_on_c5():
    g = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    pc = PartialColoring(g)
    decomp = find_non_adjacent_cliques(g, pc.uncolored)
    assert comb_prune(pc, decomp, 3, 5) is False


def test_comb_never_stronger_than_flow():
    rng = random.Random(67)
    for _ in range(1200):
        g, pc, decomp, k0 = random_state(rng, n_max=8)
        k_upper = rng.randint(k0, g.n + 1)
        k_lower = rng.randint(1, max(1, pc.k_used))
        if comb_prune(pc, decomp, k_lower, k_upper):
            assert flow_prune(pc, decomp, k_lower, k_upper) is True
        if not flow_prune(pc, decomp, k_lower, k_upper):
            assert comb_prune(pc, decomp, k_lower, k_upper) is False


def test_any_failing_rule_implies_flow_infeasible():
    rng = random.Random(68)
    for _ in range(2000):
        _, pc, decomp, k0 = random_state(rng, n_max=8)
        ctx = HallContext(pc, decomp, k0)
        if failing_rule(ctx) is not None:
            net = build_network(pc, decomp, k0)
            assert feasible_flow(net) is None


def test_deficit_prune_implies_flow_prune_under_full_freedom():
    """Disconnected colored block, trivial decomposition: every candidate
    color count the flow test examines is infeasible whenever the
    largest-class arithmetic already rules the state out."""
    rng = random.Random(69)
    checked = 0
    for _ in range(4000):
        n_col = rng.randint(1, 6)
        n_unc = rng.randint(0, 4)
        n = n_col + n_unc
        g = Graph(n, [])  # no edges: all colors free everywhere
        pc = PartialColoring(g)
        k_used_target = rng.randint(1, n_col)
        for v in range(n_col):
            lim = min(pc.k_used + 1, k_used_target)
            pc.extend(v, rng.randrange(lim))
        if not deficit_prune(pc, 0):
            continue
        decomp = CliqueDecomposition((), pc.uncolored)
        assert flow_prune(pc, decomp, pc.k_used, n + 1) is True
        checked += 1
    assert checked > 50


def test_rule_menu_misses_spread_deficits_that_flow_catches():
    """Known gap of the one-or-all-but-one color menu: two classes short by
    one each with a single uncolored vertex passes every arithmetic rule,
    while the exact test prunes. Documents why the flow engine dominates."""
    g = Graph(9, [])
    pc = PartialColoring(g)
    sizes = [3, 3, 1, 1]
    v = 0
    for i, s in enumerate(sizes):
        for _ in range(s):
            pc.extend(v, i)
            v += 1
    assert len(pc.uncolored) == 1
    decomp = CliqueDecomposition((), pc.uncolored)
    assert deficit_prune(pc, 0) is True
    ctx = HallContext(pc, decomp, 4)
    assert failing_rule(ctx) is None  # every rule passes at k0=4
    assert comb_prune(pc, decomp, 4, 5) is False
    assert flow_prune(pc, decomp, 4, 5) is True
    assert brute_extendable(g, pc, 4) is False


def test_comb_prune_counts_empty_candidate_range_as_pruned_node():
    """k_used=3 forces k0 >= 3, but the largest class (5) exceeds
    ceil(12/3)=4: no k0 is left, so the node is pruned with no rule
    firing."""
    g = Graph(12, [])
    pc = PartialColoring(g)
    for v in range(5):
        pc.extend(v, 0)
    pc.extend(5, 1)
    pc.extend(6, 2)
    decomp = find_non_adjacent_cliques(g, pc.uncolored)
    stats = SearchStats()
    assert comb_prune(pc, decomp, 1, 4, stats) is True
    assert stats.prunes_hall == 1
    assert stats.rule_firings == {}
