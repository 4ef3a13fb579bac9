import gc
import hashlib
import math
import random
import time

import pytest

from eqcolor import Graph, Solution, SolverConfig, gen_gnp, solve
from eqcolor import solver
from eqcolor.coloring import PartialColoring
from eqcolor.decomposition import CliqueDecomposition
from eqcolor.instances import by_name
from eqcolor.oracle import brute_chi_eq
from eqcolor.solver import initial_bounds
from helpers import (
    complete,
    hub_triangles_graph,
    proper_and_equitable,
    raising_on_call,
    star,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(variant="fast")
    with pytest.raises(ValueError):
        SolverConfig(cd_stride=0)
    with pytest.raises(ValueError):
        SolverConfig(cd_stride=float("nan"))
    with pytest.raises(ValueError):
        SolverConfig(cd_stride=1.5)
    with pytest.raises(ValueError):
        SolverConfig(time_limit=0)
    with pytest.raises(ValueError):
        SolverConfig(time_limit=float("nan"))
    # a bool is an int, but not a stride or a number of seconds
    with pytest.raises(ValueError):
        SolverConfig(cd_stride=True)
    with pytest.raises(ValueError):
        SolverConfig(time_limit=True)
    with pytest.raises(ValueError):
        SolverConfig(time_limit="5")
    assert SolverConfig(time_limit=5).time_limit == 5


def test_initial_bounds_complete_graph():
    k_lower, k_upper, coloring, clique = initial_bounds(complete(5), math.inf)
    assert sorted(clique) == [0, 1, 2, 3, 4]
    assert (k_lower, k_upper) == (5, 5)
    assert proper_and_equitable(complete(5), coloring, 5)


def test_initial_bounds_star12():
    k_lower, k_upper, coloring, clique = initial_bounds(star(12), math.inf)
    assert len(clique) == k_lower
    assert k_lower == 2
    assert 7 <= k_upper <= 12
    assert proper_and_equitable(star(12), coloring, k_upper)


def test_initial_bounds_edgeless():
    g = Graph(6, [])
    k_lower, k_upper, coloring, _ = initial_bounds(g, math.inf)
    assert (k_lower, k_upper) == (1, 1)
    assert coloring == [0] * 6


def test_star12_all_variants():
    for variant in ("std", "flow", "comb"):
        sol, stats = solve(star(12), SolverConfig(variant=variant))
        assert sol.chi_eq == 7
        assert sol.optimal
        assert proper_and_equitable(star(12), sol.coloring, 7)


def test_complete_graph_closes_at_root():
    for variant in ("std", "flow", "comb"):
        sol, stats = solve(complete(6), SolverConfig(variant=variant))
        assert sol.chi_eq == 6
        assert stats.nodes == 1
        assert stats.k_lower == sol.chi_eq


def test_hub_triangles_node_thresholds():
    g = hub_triangles_graph()
    counts = {}
    for variant in ("std", "flow", "comb"):
        sol, stats = solve(g, SolverConfig(variant=variant))
        assert sol.chi_eq == 4
        counts[variant] = stats.nodes
    assert counts["std"] >= 100
    assert counts["flow"] <= 20
    assert counts["comb"] <= 20


def test_matches_oracle_on_random_instances():
    rng = random.Random(314)
    for _ in range(150):
        g = gen_gnp(rng.randint(4, 12), rng.uniform(0.1, 0.9), rng.getrandbits(32))
        truth = brute_chi_eq(g)
        for variant in ("std", "flow", "comb"):
            sol, _ = solve(g, SolverConfig(variant=variant))
            assert sol.chi_eq == truth
            assert proper_and_equitable(g, sol.coloring, sol.chi_eq)


def test_node_dominance_random():
    rng = random.Random(159)
    for _ in range(60):
        g = gen_gnp(rng.randint(10, 22), rng.uniform(0.1, 0.9), rng.getrandbits(32))
        nodes = {}
        chi = set()
        for variant in ("std", "flow", "comb"):
            sol, stats = solve(g, SolverConfig(variant=variant))
            nodes[variant] = stats.nodes
            chi.add(sol.chi_eq)
        assert len(chi) == 1
        assert nodes["flow"] <= nodes["comb"] <= nodes["std"]


def test_incumbent_always_valid_en_route():
    rng = random.Random(265)
    for _ in range(40):
        g = gen_gnp(16, rng.uniform(0.3, 0.8), rng.getrandbits(32))
        sol, _ = solve(g, SolverConfig(variant="comb"))
        assert proper_and_equitable(g, sol.coloring, sol.chi_eq)


def test_lazy_cd_strides_agree():
    rng = random.Random(846)
    for _ in range(25):
        g = gen_gnp(20, rng.uniform(0.2, 0.8), rng.getrandbits(32))
        chi = set()
        for stride in (1, 2, 3, 5):
            sol, _ = solve(g, SolverConfig(variant="comb", cd_stride=stride))
            chi.add(sol.chi_eq)
        assert len(chi) == 1


def test_deterministic_replay():
    g = gen_gnp(24, 0.5, 101)
    for variant in ("std", "flow", "comb"):
        runs = [solve(g, SolverConfig(variant=variant)) for _ in range(2)]
        assert runs[0][0].chi_eq == runs[1][0].chi_eq
        assert runs[0][1].nodes == runs[1][1].nodes
        assert runs[0][0].coloring == runs[1][0].coloring


def test_timeout_returns_incumbent():
    g = gen_gnp(45, 0.5, 7)
    sol, stats = solve(g, SolverConfig(variant="std", time_limit=0.05))
    if stats.timed_out:
        assert not sol.optimal
        assert proper_and_equitable(g, sol.coloring, sol.chi_eq)
    else:
        assert sol.optimal  # machine fast enough to finish; still consistent


def test_stats_counters_populated():
    g = hub_triangles_graph()
    _, st_std = solve(g, SolverConfig(variant="std"))
    assert st_std.prunes_deficit >= 0 and st_std.flow_solves == 0
    _, st_flow = solve(g, SolverConfig(variant="flow"))
    assert st_flow.prunes_flow > 0
    _, st_comb = solve(g, SolverConfig(variant="comb"))
    assert st_comb.prunes_hall > 0
    assert set(st_comb.rule_firings) <= {"positive_single", "clique_hall", "negative"}


def test_capped_greedy_output_is_proper_complete_and_equitable():
    """A result uses exactly the colors 0..used-1 (no renumbering is
    needed), colors every vertex properly, stays within k colors and
    keeps class sizes within one of each other."""
    rng = random.Random(13)
    results = 0
    for _ in range(150):
        g = gen_gnp(rng.randint(1, 25), rng.uniform(0.05, 0.95), rng.getrandbits(32))
        for k in range(1, g.n + 1):
            result = solver._capped_greedy(g, k)
            if result is None:
                continue
            results += 1
            used, coloring = result
            assert used <= k
            assert sorted(set(coloring)) == list(range(used))
            assert proper_and_equitable(g, coloring, used)
    assert results > 1000


def test_empty_graph_solves_to_zero():
    for variant in ("std", "flow", "comb"):
        sol, stats = solve(Graph(0), SolverConfig(variant=variant))
        assert sol == Solution(0, [], True)
        assert stats.nodes == 0 and not stats.timed_out


@pytest.mark.parametrize(
    "corrupt",
    [
        [0, 0, 1, 1, 0],  # edge (0, 1) inside one class
        [0, 1, 0, 1, -1],  # vertex 4 uncolored
        [0, 1, 2, 0, 1],  # three classes for a claimed two
        [0, 1, 1, 1, 1],  # class sizes 1 and 4
    ],
)
def test_corrupted_incumbent_rejected(monkeypatch, corrupt):
    """The root closes the gap (clique of 2, greedy at 2 colors), so the
    greedy incumbent is what solve would return; a bad one must raise."""
    g = Graph(5, [(0, 1)])
    assert solve(g)[0].chi_eq == 2
    monkeypatch.setattr(solver, "_capped_greedy", lambda g, k: (2, list(corrupt)))
    with pytest.raises(RuntimeError, match="witness"):
        solve(g)


@pytest.mark.parametrize("variant", ["std", "comb", "flow"])
def test_deadline_checked_at_every_node(variant):
    """Flow nodes on G(150, 0.9) take milliseconds each, so reading the
    clock only every 1,024 nodes would overshoot a 0.5 s limit fourfold;
    every engine reads it after every extend, whether the node was popped
    or descended into straight from its parent."""
    g = gen_gnp(150, 0.9, 7)
    t0 = time.perf_counter()
    sol, stats = solve(g, SolverConfig(variant=variant, time_limit=0.5))
    wall = time.perf_counter() - t0
    assert stats.timed_out and not sol.optimal
    assert proper_and_equitable(g, sol.coloring, sol.chi_eq)
    assert wall <= 1.25


def test_initial_bounds_honor_the_deadline():
    """The capped-greedy ladder runs for about 0.3 s CPU on G(400, 0.9),
    six times the limit; past the deadline initial_bounds stops retrying
    and hands back one class per vertex, so the search times out at its
    first node."""
    g = gen_gnp(400, 0.9, 7)
    t0 = time.perf_counter()
    sol, stats = solve(g, SolverConfig(variant="comb", time_limit=0.05))
    wall = time.perf_counter() - t0
    assert stats.timed_out and not sol.optimal
    assert sol.chi_eq == g.n  # the ladder was cut, not finished
    assert proper_and_equitable(g, sol.coloring, sol.chi_eq)
    assert wall <= 1.25


def test_initial_bounds_past_deadline_is_one_class_per_vertex():
    k_lower, k_upper, coloring, clique = initial_bounds(star(12), -math.inf)
    assert (k_lower, k_upper) == (len(clique), 12)
    assert coloring == list(range(12))


def test_root_children_not_screened_past_the_deadline(monkeypatch):
    """Once initial_bounds has used up the time limit the search stops
    before the root's children are screened, which could cost k_upper
    engine calls per child."""
    g = gen_gnp(40, 0.5, 3)
    bounds = solver.initial_bounds
    prune = solver.comb_prune
    calls = []

    def late_bounds(g, deadline):
        result = bounds(g, deadline)
        while time.perf_counter() <= deadline:
            time.sleep(0.01)
        return result

    def counted_prune(*args):
        calls.append(args)
        return prune(*args)

    monkeypatch.setattr(solver, "initial_bounds", late_bounds)
    monkeypatch.setattr(solver, "comb_prune", counted_prune)
    sol, stats = solve(g, SolverConfig(variant="comb", time_limit=0.05))
    assert len(calls) == 0
    assert stats.timed_out and not sol.optimal
    assert proper_and_equitable(g, sol.coloring, sol.chi_eq)
    assert stats.k_lower < sol.chi_eq


@pytest.mark.parametrize("variant", ["std", "comb", "flow"])
def test_interrupt_returns_checked_incumbent(monkeypatch, variant):
    """Ctrl-C in the node loop ends the search like a timeout: the
    incumbent comes back checked, with optimal=False. Every engine runs
    the largest-class test on every child, so it raises under each."""
    g = by_name("queen6_6")
    monkeypatch.setattr(solver, "deficit_prune", raising_on_call(solver.deficit_prune, 20))
    sol, stats = solve(g, SolverConfig(variant=variant))
    assert stats.interrupted and not stats.timed_out and not sol.optimal
    assert stats.nodes > 1
    solver._check_witness(g, sol)
    assert proper_and_equitable(g, sol.coloring, sol.chi_eq)


def test_interrupt_before_the_node_loop(monkeypatch):
    """Ctrl-C during the initial bounds returns one class per vertex, and
    during the root decomposition the capped greedy's incumbent, both
    checked and not optimal."""
    g = gen_gnp(30, 0.5, 4)
    greedy = solver._capped_greedy
    monkeypatch.setattr(solver, "_capped_greedy", raising_on_call(greedy, 1))
    sol, stats = solve(g, SolverConfig(variant="comb"))
    assert stats.interrupted and not stats.timed_out and not sol.optimal
    assert sol.chi_eq == g.n and sorted(sol.coloring) == list(range(g.n))
    monkeypatch.undo()

    root = solver.restarted_decomposition
    monkeypatch.setattr(solver, "restarted_decomposition", raising_on_call(root, 1))
    sol, stats = solve(g, SolverConfig(variant="comb"))
    assert stats.interrupted and not sol.optimal
    assert stats.nodes == 1 and sol.chi_eq < g.n
    assert proper_and_equitable(g, sol.coloring, sol.chi_eq)


def test_interrupt_during_the_relabel(monkeypatch):
    """Ctrl-C while the graph is relabeled, before any bound exists,
    returns one class per vertex, checked and not optimal."""
    g = gen_gnp(30, 0.5, 4)
    monkeypatch.setattr(Graph, "relabeled", raising_on_call(Graph.relabeled, 1))
    sol, stats = solve(g, SolverConfig(variant="comb"))
    assert stats.interrupted and not stats.timed_out and not sol.optimal
    assert sol.chi_eq == g.n and sorted(sol.coloring) == list(range(g.n))


def test_witness_in_caller_vertex_ids():
    """The search runs on the graph relabeled by its order; the witness
    comes back in the caller's ids, and the search is the one on the
    relabeled graph itself."""
    graphs = [Graph(6, [(5, 0), (5, 1), (5, 2), (5, 3), (0, 1), (4, 3)])]
    graphs += [gen_gnp(14, p, 20 + i) for i, p in enumerate((0.3, 0.5, 0.7))]
    for g in graphs:
        assert g.order != tuple(range(g.n))
        h = g.relabeled()
        for variant in ("std", "flow", "comb"):
            cfg = SolverConfig(variant=variant)
            sol, stats = solve(g, cfg)
            assert proper_and_equitable(g, sol.coloring, sol.chi_eq)
            sol_h, stats_h = solve(h, cfg)
            assert (sol_h.chi_eq, stats_h.nodes) == (sol.chi_eq, stats.nodes)
            assert sol_h.coloring == [sol.coloring[v] for v in g.order]


@pytest.mark.parametrize("variant", ["comb", "flow"])
@pytest.mark.parametrize("stride", [1, 3])
def test_rebuild_nodes_use_the_rebuild(monkeypatch, variant, stride):
    """Every node whose turn it is to rebuild the decomposition (the root
    and every `cd_stride`-th node) branches on exactly
    `find_non_adjacent_cliques` of its uncolored set, whether it rebuilt
    it or took the projection queued with it, and some nodes take it.

    A node's decomposition is the one its children's projection is taken
    from (the `restricted_to` spy), and the node's count is one plus the
    extends made since the root was branched (the `extend` spy)."""
    real_prune = getattr(solver, f"{variant}_prune")
    real_restrict = CliqueDecomposition.restricted_to
    real_extend = PartialColoring.extend
    real_find = solver.find_non_adjacent_cliques
    checked = reused = 0
    for g in (by_name("queen6_6"), gen_gnp(40, 0.5, 2), gen_gnp(40, 0.8, 7)):
        relabeled = g.relabeled()
        built = {}  # id -> every decomposition the search rebuilt, kept alive
        seen = {"extends": 0, "root": None, "decomp": None, "node": None}

        def extend(pc, v, i):
            seen["extends"] += 1
            real_extend(pc, v, i)

        def restricted_to(decomp, uncolored):
            seen["decomp"] = decomp
            return real_restrict(decomp, uncolored)

        def find(g, uncolored):
            decomp = real_find(g, uncolored)
            built[id(decomp)] = decomp
            return decomp

        def prune(pc, decomp, k_lower, k_upper, stats, move, **flow_args):
            nonlocal checked, reused
            if seen["root"] is None:
                seen["root"] = seen["extends"]
            node = 1 + seen["extends"] - seen["root"]
            if seen["node"] != node and (node == 1 or node % stride == 0):
                seen["node"] = node
                got = seen["decomp"]
                want = real_find(relabeled, pc.uncolored_mask)
                assert (got.masks, got.residual_mask) == (want.masks, want.residual_mask)
                checked += 1
                reused += node > 1 and id(got) not in built
            return real_prune(pc, decomp, k_lower, k_upper, stats, move, **flow_args)

        monkeypatch.setattr(PartialColoring, "extend", extend)
        monkeypatch.setattr(CliqueDecomposition, "restricted_to", restricted_to)
        monkeypatch.setattr(solver, "find_non_adjacent_cliques", find)
        monkeypatch.setattr(solver, f"{variant}_prune", prune)
        sol, _ = solve(g, SolverConfig(variant=variant, cd_stride=stride))
        monkeypatch.undo()
        assert sol.optimal
    assert checked > 1000 and reused > 10


@pytest.mark.parametrize("variant", ["std", "comb", "flow"])
def test_a_solve_leaves_no_cyclic_garbage(variant):
    """A search allocates per node; none of it may need the cycle
    collector to be freed."""
    for g in (by_name("queen6_6"), gen_gnp(40, 0.7, 3)):
        gc.collect()
        gc.disable()
        try:
            solve(g, SolverConfig(variant=variant))
        finally:
            garbage = gc.collect()
            gc.enable()
        assert garbage == 0


# sha256 of every (vertex, color) move of a solve, the capped greedy's
# included, in order: (variant, cd_stride, graph) -> first 16 hex digits
VISIT_DIGESTS = {
    ("std", 1, "myciel4"): "71f913629a381b6b",
    ("std", 1, "queen6_6"): "9627ce6c37756cc9",
    ("std", 1, "gnp30"): "726bb6d66453a7d3",
    ("comb", 1, "myciel4"): "557168fb1ad6bc00",
    ("comb", 1, "queen6_6"): "6b907f5b77756cad",
    ("comb", 1, "gnp30"): "9f385d889904837e",
    ("flow", 1, "myciel4"): "84fabd96c4f6dd2f",
    ("flow", 1, "queen6_6"): "c4a76eccc4bad97b",
    ("flow", 1, "gnp30"): "c8a34a7a818ab293",
    ("comb", 3, "myciel4"): "b711b2e330c36ba7",
    ("comb", 3, "queen6_6"): "d493b8691231bfc8",
    ("comb", 3, "gnp30"): "9f385d889904837e",
}


@pytest.mark.parametrize("variant,stride,name", sorted(VISIT_DIGESTS))
def test_visit_order_pinned(monkeypatch, variant, stride, name):
    """The search visits its nodes in one fixed order: a child taken out of
    turn changes the digest even where the node count stays the same."""
    g = gen_gnp(30, 0.5, 3) if name == "gnp30" else by_name(name)
    real_extend = PartialColoring.extend
    moves = []

    def extend(pc, v, i):
        moves.append((v, i))
        real_extend(pc, v, i)

    monkeypatch.setattr(PartialColoring, "extend", extend)
    sol, _ = solve(g, SolverConfig(variant=variant, cd_stride=stride))
    assert sol.optimal
    digest = hashlib.sha256(repr(moves).encode()).hexdigest()[:16]
    assert digest == VISIT_DIGESTS[variant, stride, name]
