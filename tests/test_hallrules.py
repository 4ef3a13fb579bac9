import random
from collections import Counter

from eqcolor import Graph, SearchStats, SolverConfig, gen_gnp, solve, solver
from eqcolor.coloring import PartialColoring, candidate_k0_values, deficit_prune
from eqcolor.decomposition import (
    CliqueDecomposition,
    find_non_adjacent_cliques,
    mask_vertices,
)
from eqcolor.flownet import flow_feasible, flow_prune
from eqcolor.hallrules import (
    HallContext,
    _clique_has_sdr,
    check_clique_hall,
    check_negative_single,
    check_positive_single,
    comb_prune,
    failing_rule,
)
from eqcolor.instances import by_name
from extension_oracle import brute_extendable
from helpers import (
    free_colors,
    hub_triangles_state,
    literal_hall_context,
    mask,
    random_decomposition,
    random_state,
    recompute_sat,
    snapshot,
    uncolored,
)
from literal_network import build_network, check_vertex_flow, feasible_flow


def test_positive_single_k2_strong():
    g = Graph(2, [(0, 1)])
    pc = PartialColoring(g)
    decomp = CliqueDecomposition([mask([0, 1])], 0)
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
    decomp = CliqueDecomposition((), pc.uncolored_mask)
    ctx = HallContext(pc, decomp, 2)
    assert check_positive_single(ctx) is True


def test_two_starved_classes_fail_the_single_color_rules():
    """Nine vertices, classes (3,2,2), both uncolored vertices can only
    take the first color: the other two classes cannot be topped up. The
    single-color rules see it without the complement set: color 0 would
    overfill (negative) and color 1 cannot be filled (positive, checked
    first)."""
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
    decomp = CliqueDecomposition((), pc.uncolored_mask)
    ctx = HallContext(pc, decomp, 3)
    assert check_negative_single(ctx) is False
    assert failing_rule(ctx) == "positive_single"
    assert brute_extendable(g, pc, 3) is False


def _clique_and_free(masks, k0):
    """The clique matching's input for members 0, 1, ... with the given
    free-color masks: the clique's vertex bitmask and, per color below
    k0, the bitmask of the members it is free for."""
    free = [mask(w for w, m in enumerate(masks) if m >> c & 1) for c in range(k0)]
    return (1 << len(masks)) - 1, free


def test_clique_sdr_cases():
    def sdr(masks, k0):
        return _clique_has_sdr(*_clique_and_free(masks, k0))

    assert sdr([0b01, 0b01], 2) is False  # both forced to color 0
    assert sdr([0b011, 0b110, 0b101], 3) is True
    assert sdr([0b0111, 0b0111, 0b0111, 0b0111], 4) is False  # 4 into 3
    assert sdr([], 2) is True
    # The greedy gives colors 0 and 1 to members 0 and 1 (free for {0, 1}
    # and {1, 2}) and color 2 to nobody, leaving member 2 (free for {0}):
    # only the augmenting search places it, shifting member 1 to color 2
    # and member 0 to color 1.
    assert _clique_has_sdr(0b111, [0b101, 0b011, 0b010]) is True
    # with member 1 barred from color 2 as well, no path frees color 0
    assert _clique_has_sdr(0b111, [0b101, 0b011, 0b000]) is False


def test_clique_hall_uses_free_sets():
    # triangle with one color knocked out per vertex
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 0), (4, 1), (5, 2)])
    pc = PartialColoring(g)
    pc.extend(3, 0)
    pc.extend(4, 1)
    pc.extend(5, 2)
    decomp = CliqueDecomposition([mask([0, 1, 2])], 0)
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
    decomp = CliqueDecomposition((), pc.uncolored_mask)
    ctx = HallContext(pc, decomp, 3)
    assert check_negative_single(ctx) is False
    assert brute_extendable(g, pc, 3) is False


def test_negative_families_direct_evaluation():
    """State with spread free sets: no vertex is forced into one color, so
    the negative rule holds."""
    g = Graph(8, [(6, 0), (7, 1)])
    pc = PartialColoring(g)
    for v, c in [(0, 0), (1, 1), (2, 2), (3, 3), (4, 0), (5, 1)]:
        pc.extend(v, c)
    decomp = CliqueDecomposition((), pc.uncolored_mask)
    # |F(6)| = |F(7)| = 3, so nobody is forced into a single color
    fields = literal_hall_context(pc, decomp, 4)
    assert fields["single_free"] == [0, 0, 0, 0] and fields["empty_free"] == 0
    assert check_negative_single(HallContext(pc, decomp, 4)) is True


def test_negative_open_with_full_freedom():
    g = Graph(6, [])
    pc = PartialColoring(g)
    for k0 in (1, 2, 3):
        ctx = HallContext(pc, CliqueDecomposition((), pc.uncolored_mask), k0)
        assert check_negative_single(ctx) is True


def test_comb_prune_hub_triangles():
    _, pc, decomp = hub_triangles_state()
    assert comb_prune(pc, decomp, 3, 4, SearchStats()) is True
    assert failing_rule(HallContext(pc, decomp, 3)) == "positive_single"


def test_comb_prune_open_on_c5():
    g = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    pc = PartialColoring(g)
    decomp = find_non_adjacent_cliques(g, pc.uncolored_mask)
    assert comb_prune(pc, decomp, 3, 5, SearchStats()) is False


def test_comb_never_stronger_than_flow():
    rng = random.Random(67)
    for _ in range(1200):
        g, pc, decomp, k0 = random_state(rng, n_max=8)
        k_upper = rng.randint(k0, g.n + 1)
        k_lower = rng.randint(1, max(1, pc.k_used))
        comb = comb_prune(pc, decomp, k_lower, k_upper, SearchStats())
        flow = flow_prune(pc, decomp, k_lower, k_upper, SearchStats(), found=[])
        assert flow or not comb


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
        v, i = pc.retract()
        if not deficit_prune(pc, 0, i):
            continue
        pc.extend(v, i)
        decomp = CliqueDecomposition((), pc.uncolored_mask)
        assert flow_prune(pc, decomp, pc.k_used, n + 1, SearchStats(), found=[]) is True
        checked += 1
    assert checked > 50


def test_rule_menu_misses_spread_deficits_that_flow_catches():
    """Known gap of the single-color rule menu (the all-but-one sets it
    implies add nothing): two classes short by one each with a single
    uncolored vertex passes every arithmetic rule, while the exact test
    prunes. Documents why the flow engine dominates."""
    g = Graph(9, [])
    pc = PartialColoring(g)
    sizes = [3, 3, 1, 1]
    v = 0
    for i, s in enumerate(sizes):
        for _ in range(s):
            pc.extend(v, i)
            v += 1
    assert pc.uncolored_mask.bit_count() == 1
    decomp = CliqueDecomposition((), pc.uncolored_mask)
    v, i = pc.retract()
    assert deficit_prune(pc, 0, i) is True
    pc.extend(v, i)
    ctx = HallContext(pc, decomp, 4)
    assert failing_rule(ctx) is None  # every rule passes at k0=4
    assert comb_prune(pc, decomp, 4, 5, SearchStats()) is False
    assert flow_prune(pc, decomp, 4, 5, SearchStats(), found=[]) is True
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
    decomp = find_non_adjacent_cliques(g, pc.uncolored_mask)
    stats = SearchStats()
    assert comb_prune(pc, decomp, 1, 4, stats) is True
    assert stats.prunes_hall == 1
    assert stats.rule_firings == {}


def _harvest(monkeypatch, g, variant, every):
    """States a real search hands its pruning engine, one in every `every`
    calls: (graph, color_of, decomposition, k_lower, k_upper, move,
    start). The engine judges the child that makes `move` = (v, i) from
    its parent, and `color_of` is that child's: the parent's with v
    colored i. The graph is the one the search runs on (g relabeled by
    its order), which the decomposition's vertex ids refer to. `start` is
    the flow the flow tests start from: the parent's, None at the root
    and under comb."""
    name = f"{variant}_prune"
    real = getattr(solver, name)
    relabeled = g.relabeled()
    states = []
    calls = 0

    def spy(pc, decomp, k_lower, k_upper, stats, move, **flow_args):
        nonlocal calls
        calls += 1
        if calls % every == 0:
            v, i = move
            color_of = pc.coloring()
            color_of[v] = i
            start = flow_args.get("start")
            states.append((relabeled, color_of, decomp, k_lower, k_upper, move, start))
        return real(pc, decomp, k_lower, k_upper, stats, move, **flow_args)

    monkeypatch.setattr(solver, name, spy)
    solve(g, SolverConfig(variant=variant))
    monkeypatch.undo()
    return states


def _replay(g, color_of):
    """A PartialColoring of g in the state color_of describes."""
    pc = PartialColoring(g)
    for v, c in enumerate(color_of):
        if c >= 0:
            pc.extend(v, c)
    return pc


def test_rules_and_flow_agree_with_literal_network_on_search_states(monkeypatch):
    """Search-scale cross-check on states real searches reach: the hot-path
    flow test matches the literal network, both cold and, on the flow
    runs, from the flow the search passes (the parent's), and each flow it
    returns passes check_vertex_flow; a failing rule implies an infeasible
    network, and when every rule passes the two all-but-one conditions the
    menu leaves out hold too (they are implied for k0 >= k_used)."""
    runs = [
        (by_name("queen6_6"), "comb", 100),
        (gen_gnp(40, 0.5, 11), "flow", 10),
        (gen_gnp(40, 0.8, 12), "comb", 1),
        (by_name("2-Insertions_3"), "flow", 40),
        (by_name("queen7_7"), "flow", 40),
    ]
    pairs = failures = feasible = started = 0
    for graph, variant, every in runs:
        for g, color_of, decomp, k_lower, k_upper, _, start in _harvest(
            monkeypatch, graph, variant, every
        ):
            pc = _replay(g, color_of)
            for k0 in candidate_k0_values(pc, k_lower, k_upper):
                pairs += 1
                exact = feasible_flow(build_network(pc, decomp, k0)) is not None
                starts = [None] if start is None else [None, start]
                started += start is not None
                for s in starts:
                    flow = flow_feasible(HallContext(pc, decomp, k0), s)
                    assert (flow is not None) is exact
                    if flow is not None:
                        check_vertex_flow(pc, decomp, k0, flow)
                feasible += exact
                if failing_rule(HallContext(pc, decomp, k0)) is not None:
                    failures += 1
                    assert not exact
                    continue
                n_u = pc.uncolored_mask.bit_count()
                floor_size, ceil_size = g.n // k0, -(-g.n // k0)
                sizes = pc.class_size[:k0]
                masks = [free_colors(pc, v, k0) for v in uncolored(pc)]
                for c in range(k0):
                    only_c = sum(1 for m in masks if m in (0, 1 << c))
                    with_c = sum(1 for m in masks if m >> c & 1)
                    # positive, all colors but c
                    fill = k0 * floor_size - sum(sizes) - (floor_size - sizes[c])
                    assert k0 == 1 or fill <= n_u - only_c
                    # negative, all colors but c
                    room = k0 * ceil_size - sum(sizes) - (ceil_size - sizes[c])
                    assert n_u - with_c <= room
    assert pairs > 500 and failures > 50 and feasible > 300 and started > 300


def _context_fields(ctx):
    """The context's fields, with each member's free-color mask read off
    the per-color free masks."""

    def free_masks(vertices):
        return [
            mask(c for c, fr in enumerate(ctx.free) if fr >> w & 1)
            for w in mask_vertices(vertices)
        ]

    return {
        "k0": ctx.k0,
        "floor_size": ctx.floor_size,
        "ceil_size": ctx.ceil_size,
        "class_sizes": ctx.class_sizes,
        "clique_masks": [free_masks(c) for c in ctx.cliques],
        "resid_masks": free_masks(ctx.residual),
    }


def _matches_literal(ctx, pc, decomp, k0):
    """Each field the context has equals the literal recount's."""
    fields = _context_fields(ctx)
    literal = literal_hall_context(pc, decomp, k0)
    return fields == {name: literal[name] for name in fields}


def test_bit_sliced_context_matches_per_vertex_recount(monkeypatch):
    """Every field of the bit-sliced context equals a literal recount from
    the per-vertex free-color masks: on random states of every
    decomposition flavor, at each k0 from k_used up, and on the states
    real searches hand the engines."""
    rng = random.Random(73)
    checked = 0
    for _ in range(1500):
        _, pc, decomp, k0 = random_state(rng, n_max=12)
        for k in range(max(k0, pc.k_used, 1), min(k0 + 2, pc.n) + 1):
            ctx = HallContext(pc, decomp, k)
            assert _matches_literal(ctx, pc, decomp, k)
            checked += 1
    runs = [
        (by_name("queen6_6"), "comb", 20),
        (gen_gnp(40, 0.7, 13), "comb", 5),
        (by_name("2-Insertions_3"), "flow", 20),
    ]
    for graph, variant, every in runs:
        for g, color_of, decomp, k_lower, k_upper, _, _ in _harvest(
            monkeypatch, graph, variant, every
        ):
            pc = _replay(g, color_of)
            for k0 in candidate_k0_values(pc, k_lower, k_upper):
                ctx = HallContext(pc, decomp, k0)
                assert _matches_literal(ctx, pc, decomp, k0)
                checked += 1
    assert checked > 4000


_RULE_CHECKS = {
    "positive_single": check_positive_single,
    "clique_hall": check_clique_hall,
    "negative": check_negative_single,
}


def _literal_verdicts(fields):
    """Each rule's verdict, in failing_rule's order, computed from the
    literal recount of `literal_hall_context`."""
    k0, sizes = fields["k0"], fields["class_sizes"]
    positive = all(
        fields["floor_size"] - s <= supply for s, supply in zip(sizes, fields["supply"])
    )
    clique = all(
        _clique_has_sdr(*_clique_and_free(masks, k0))
        for masks in fields["clique_masks"]
    )
    room = [fields["ceil_size"] - s for s in sizes]
    negative = all(
        single + fields["empty_free"] <= r
        for single, r in zip(fields["single_free"], room)
    )
    return {"positive_single": positive, "clique_hall": clique, "negative": negative}


def _branches(fields):
    """The branches the rules take on this context, counted from the
    literal recount of `literal_hall_context`: each color the positive
    rule reaches that its residual vertices leave short, so that it
    counts the cliques; each clique the clique rule reaches, by whether
    the color-by-color greedy matches every member or, if not, whether
    the full matching still finds an SDR; and the classes the negative
    rule passes over by size (at most ceil - empty - |lone| members),
    those one member above that bound that overflow, and the contexts
    with no vertex free for exactly one color where some class
    overflows."""
    out = Counter()
    k0, sizes = fields["k0"], fields["class_sizes"]
    for f, size in enumerate(sizes):
        need = fields["floor_size"] - size
        if need > sum(m >> f & 1 for m in fields["resid_masks"]):
            out["positive counts cliques"] += 1
        if need > fields["supply"][f]:
            break
    for masks in fields["clique_masks"]:
        left = list(range(len(masks)))
        for c in range(k0):
            taker = next((m for m in left if masks[m] >> c & 1), None)
            if taker is not None:
                left.remove(taker)
        if not left:
            out["greedy settles clique"] += 1
        elif _hall_condition(masks):
            out["matching finds SDR"] += 1
        else:
            out["matching finds no SDR"] += 1
            break
    empty, ceil_size = fields["empty_free"], fields["ceil_size"]
    lone = sum(fields["single_free"])
    roomy = ceil_size - empty - lone
    for size, single in zip(sizes, fields["single_free"]):
        if size <= roomy:
            out["negative skips class"] += 1
        elif size == roomy + 1 and single + empty > ceil_size - size:
            out["negative overflow at bound"] += 1
    if not lone and max(sizes) > roomy:
        out["negative overflow, no lone vertex"] += 1
    return out


def _check_rules_on_demand(make_ctx, want):
    """Each rule alone on a fresh context, and after the other two in
    either order and then once more, gives its literal verdict, and
    failing_rule names the first literal failure; returns the names of
    the failing rules."""
    names = list(_RULE_CHECKS)
    for name, rule in _RULE_CHECKS.items():
        assert rule(make_ctx()) is want[name], name
        others = [other for other in names if other != name]
        for before in (others, others[::-1]):
            ctx = make_ctx()
            for other in before:
                assert _RULE_CHECKS[other](ctx) is want[other], (before, other)
            assert rule(ctx) is want[name], (before, name)
            assert rule(ctx) is want[name], (before, name, "again")
    first = next((name for name in names if not want[name]), None)
    assert failing_rule(make_ctx()) == first
    return tuple(name for name in names if not want[name])


def test_rules_on_demand_match_literal_recount_in_any_order(monkeypatch):
    """Each rule computes what it reads from the context alone and writes
    nothing back, so it gives the verdict of the literal recount alone on
    a fresh context and after the other two in either order, and failing_rule
    names the first failure in the order positive_single, clique_hall,
    negative: on random states and on the children real searches hand
    the engines, judged both after the move and from the parent plus the
    move. Every branch a rule can take is taken on these states, as
    `_branches` counts them from the literal recount."""
    rng = random.Random(76)
    failing = Counter()
    branches = Counter()
    for _ in range(1500):
        _, pc, decomp, k0 = random_state(rng, n_max=12)
        for k in range(max(k0, pc.k_used, 1), min(k0 + 2, pc.n) + 1):
            fields = literal_hall_context(pc, decomp, k)
            want = _literal_verdicts(fields)
            branches += _branches(fields)
            failing[_check_rules_on_demand(lambda: HallContext(pc, decomp, k), want)] += 1
    runs = [
        (by_name("queen6_6"), "comb", 20),
        (gen_gnp(40, 0.7, 13), "comb", 5),
        (by_name("2-Insertions_3"), "flow", 20),
    ]
    for graph, variant, every in runs:
        for g, color_of, decomp, k_lower, k_upper, move, _ in _harvest(
            monkeypatch, graph, variant, every
        ):
            child = _replay(g, color_of)
            color_of[move[0]] = -1
            parent = _replay(g, color_of)
            for k0 in candidate_k0_values(child, k_lower, k_upper):
                fields = literal_hall_context(child, decomp, k0)
                want = _literal_verdicts(fields)
                branches += _branches(fields)
                _check_rules_on_demand(lambda: HallContext(child, decomp, k0), want)
                failing[
                    _check_rules_on_demand(
                        lambda: HallContext(parent, decomp, k0, move), want
                    )
                ] += 1
    # every subset of the three rules fails together somewhere
    assert len(failing) == 8 and min(failing.values()) > 20, failing
    # and every branch of the rules is taken
    assert len(branches) == 7 and min(branches.values()) > 20, branches


def _judged(pc, decomp, move, k_lower, k_upper):
    """(candidate k0 values, context fields per k0, comb and flow verdicts
    with their stats) of the node pc, or of its child that makes `move`."""
    ks = list(candidate_k0_values(pc, k_lower, k_upper, move))
    contexts = [_context_fields(HallContext(pc, decomp, k0, move)) for k0 in ks]
    comb_stats, flow_stats = SearchStats(), SearchStats()
    comb = comb_prune(pc, decomp, k_lower, k_upper, comb_stats, move)
    flow = flow_prune(pc, decomp, k_lower, k_upper, flow_stats, move, found=[])
    verdicts = [(comb, vars(comb_stats)), (flow, vars(flow_stats))]
    return ks, contexts, verdicts


def _check_child_judged_from_parent(pc, decomp, move, k_lower, k_upper):
    """Judging the child from pc plus the move matches judging it after
    pc.extend(*move), and leaves pc as it was; returns the judgement."""
    pc.extend(*move)
    assert pc.sat == recompute_sat(pc)
    want = _judged(pc, decomp, None, k_lower, k_upper)
    pc.retract()
    assert pc.sat == recompute_sat(pc)
    before = snapshot(pc)
    assert _judged(pc, decomp, move, k_lower, k_upper) == want
    assert snapshot(pc) == before
    return want


def test_child_judged_from_parent_matches_extended_child(monkeypatch):
    """Judging a child from its parent plus the move (v, i) gives, field
    by field, the context of the extended child, the same candidate k0
    values, and the same comb and flow verdicts and counters: on random
    states with every decomposition flavor, and on the children real
    searches hand the engines. The parent comes back unchanged."""
    rng = random.Random(74)
    checked = 0
    verdicts = Counter()
    for _ in range(1500):
        g, pc, _, _ = random_state(rng, n_max=12)
        if not pc.uncolored_mask:
            continue
        v = rng.choice(sorted(uncolored(pc)))
        limit = min(pc.k_used + 1, g.n)
        free = free_colors(pc, v, limit)
        colors = [i for i in range(limit) if free >> i & 1]
        if not colors:
            continue
        move = (v, rng.choice(colors))
        decomp = random_decomposition(rng, g, uncolored(pc) - {v})
        k_lower = rng.randint(1, max(1, pc.k_used))
        k_upper = rng.randint(k_lower, g.n + 1)
        want = _check_child_judged_from_parent(pc, decomp, move, k_lower, k_upper)
        checked += len(want[0])
        verdicts.update(pruned for pruned, _ in want[2])
    runs = [
        (by_name("queen6_6"), "comb", 20),
        (gen_gnp(40, 0.85, 14), "comb", 2),
        (by_name("2-Insertions_3"), "flow", 20),
    ]
    for graph, variant, every in runs:
        for g, color_of, decomp, k_lower, k_upper, move, _ in _harvest(
            monkeypatch, graph, variant, every
        ):
            color_of[move[0]] = -1
            pc = _replay(g, color_of)
            want = _check_child_judged_from_parent(pc, decomp, move, k_lower, k_upper)
            checked += len(want[0])
            verdicts.update(pruned for pruned, _ in want[2])
    assert checked > 4000 and verdicts[True] > 1000 and verdicts[False] > 1000


def _hall_condition(masks):
    """Hall's condition checked over every nonempty subset of members."""
    for subset in range(1, 1 << len(masks)):
        union = 0
        for idx, m in enumerate(masks):
            if subset >> idx & 1:
                union |= m
        if union.bit_count() < subset.bit_count():
            return False
    return True


def test_clique_sdr_equals_hall_condition_exhaustively():
    """The greedy-seeded matching decides exactly Hall's condition, on
    random families of at most 7 free-color masks over k0 <= 8 colors,
    given as a clique and per-color free masks, including families the
    color-by-color greedy alone cannot settle and families with more
    members than colors."""
    rng = random.Random(75)
    outcomes = Counter()
    oversized = 0
    for _ in range(6000):
        k0 = rng.randint(1, 8)
        density = rng.random()
        masks = [
            sum(1 << c for c in range(k0) if rng.random() < density)
            for _ in range(rng.randint(0, 7))
        ]
        want = _hall_condition(masks)
        q, free = _clique_and_free(masks, k0)
        assert _clique_has_sdr(q, free) is want
        left = q
        for fr in free:  # the greedy: each color to its lowest free member
            x = left & fr
            left ^= x & -x
        outcomes[want, not left] += 1
        oversized += len(masks) > k0
    # the augmenting search ran, and both found and missed a matching
    assert outcomes[True, False] > 100 and outcomes[False, False] > 100
    # and cliques with more members than colors, which the matching refuses
    assert oversized > 100, oversized
