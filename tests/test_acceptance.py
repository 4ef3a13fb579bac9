"""Acceptance suite: each test runs one exit criterion at its stated size
and tolerance and prints a PASS line on success. Everything is seeded, so
reruns are bit-identical apart from wall-clock columns."""

import random
import time

import pytest

from eqcolor import SolverConfig, gen_gnp, solve
from eqcolor.hallrules import HallContext, failing_rule
from eqcolor.oracle import brute_chi_eq
from eqcolor.instances import by_name
from extension_oracle import brute_extendable
from helpers import (
    cliques_only_state,
    hub_triangles_graph,
    proper_and_equitable,
    random_state,
    star,
)
from literal_network import build_network, enumerate_hoffman, feasible_flow

VARIANTS = ("std", "flow", "comb")
P_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@pytest.fixture(scope="module")
def state_corpus():
    """10,000 random (graph, partial coloring, decomposition, k0) states on
    at most 10 vertices; roughly a fifth have an empty residual so the
    exactness direction gets real coverage."""
    rng = random.Random(0xEC0)
    states = []
    while len(states) < 8_000:
        states.append(random_state(rng, n_max=10))
    while len(states) < 10_000:
        s = cliques_only_state(rng)
        if s is not None:
            states.append(s)
    return states


def test_criterion_1_oracle_optimality():
    rng = random.Random(0xACC1)
    count = 0
    for idx in range(2_000):
        n = 6 + idx % 7
        p = P_GRID[idx % 9]
        g = gen_gnp(n, p, rng.getrandbits(48))
        truth = brute_chi_eq(g)
        for variant in VARIANTS:
            sol, _ = solve(g, SolverConfig(variant=variant))
            assert sol.chi_eq == truth, (variant, n, p, idx)
            assert proper_and_equitable(g, sol.coloring, sol.chi_eq)
        count += 1
    assert count == 2_000
    print("\nACCEPTANCE 1 oracle optimality on 2000 instances x 3 variants: PASS")


def test_criterion_2_flow_soundness_and_exactness(state_corpus):
    sound = exact = 0
    for g, pc, decomp, k0 in state_corpus:
        extendable = brute_extendable(g, pc, k0)
        feasible = feasible_flow(build_network(pc, decomp, k0)) is not None
        if extendable:
            assert feasible, "extendable state judged infeasible"
            sound += 1
        if not decomp.residual_mask:
            assert feasible == extendable, "exactness broken on clique cover"
            exact += 1
    assert len(state_corpus) >= 10_000 and exact >= 1_500
    print(
        f"\nACCEPTANCE 2 flow soundness ({len(state_corpus)} states) and "
        f"exactness ({exact} clique-cover states): PASS"
    )


def test_criterion_3_hoffman_equivalence():
    rng = random.Random(0xACC3)
    done = 0
    while done < 500:
        _, pc, decomp, k0 = random_state(rng, n_max=6, k0_max=3)
        net = build_network(pc, decomp, k0)
        if net.internal_node_count() > 14:
            continue
        all_hold, _ = enumerate_hoffman(net)
        assert all_hold == (feasible_flow(net) is not None)
        done += 1
    print("\nACCEPTANCE 3 exhaustive inequality enumeration == flow on 500 networks: PASS")


def test_criterion_4_rule_implies_flow_infeasible(state_corpus):
    fired = 0
    for _, pc, decomp, k0 in state_corpus:
        if failing_rule(HallContext(pc, decomp, k0)) is not None:
            assert feasible_flow(build_network(pc, decomp, k0)) is None
            fired += 1
    assert fired >= 500
    print(f"\nACCEPTANCE 4 failing rule => infeasible flow ({fired} firings): PASS")


def test_criterion_5_node_dominance():
    base = 0xACC5
    for idx in range(200):
        n = 20 if idx % 2 == 0 else 30
        p = P_GRID[idx % 9]
        g = gen_gnp(n, p, base + idx)
        nodes = {}
        chi = set()
        for variant in VARIANTS:
            sol, stats = solve(g, SolverConfig(variant=variant, time_limit=120))
            assert not stats.timed_out
            nodes[variant] = stats.nodes
            chi.add(sol.chi_eq)
        assert len(chi) == 1, (idx, chi)
        assert nodes["flow"] <= nodes["comb"] <= nodes["std"], (idx, nodes)
    print("\nACCEPTANCE 5 node dominance flow <= comb <= std on 200 instances: PASS")


def test_criterion_6_star_formula():
    """Stars pit the equitable optimum against a chromatic number of 2.
    The flow/comb engines certify the closed form at the root for every
    size; the baseline engine's tree on a star grows super-exponentially
    (leaves are interchangeable), so it only accompanies the small sizes."""
    for k in range(3, 41):
        g = star(k)
        expected = -(-(k - 1) // 2) + 1
        variants = VARIANTS if k <= 14 else ("flow", "comb")
        for variant in variants:
            sol, _ = solve(g, SolverConfig(variant=variant))
            assert sol.chi_eq == expected, (k, variant)
        if k <= 12:
            assert brute_chi_eq(g) == expected
    print(
        "\nACCEPTANCE 6 star formula: flow/comb k=3..40, std k=3..14, "
        "oracle k=3..12: PASS"
    )


def test_criterion_7_example_reproduction():
    g = hub_triangles_graph()
    nodes = {}
    for variant in VARIANTS:
        sol, stats = solve(g, SolverConfig(variant=variant))
        assert sol.chi_eq == 4
        nodes[variant] = stats.nodes
    assert nodes["flow"] <= 20 and nodes["comb"] <= 20
    assert nodes["std"] >= 100
    print(
        f"\nACCEPTANCE 7 hub-and-triangles example nodes std={nodes['std']} "
        f"flow={nodes['flow']} comb={nodes['comb']}: PASS"
    )


SMOKE_INSTANCES = (
    "myciel4",
    "myciel5",
    "queen6_6",
    "queen7_7",
    "2-Insertions_3",
    "1-FullIns_3",
)


def test_criterion_8_benchmark_smoke():
    myciel4_std_nodes = None
    for name in SMOKE_INSTANCES:
        g = by_name(name)
        chi = set()
        for variant in VARIANTS:
            start = time.perf_counter()
            sol, stats = solve(g, SolverConfig(variant=variant, time_limit=120))
            elapsed = time.perf_counter() - start
            assert elapsed <= 120, (name, variant, elapsed)
            assert not stats.timed_out, (name, variant)
            chi.add(sol.chi_eq)
            if name == "myciel4" and variant == "std":
                myciel4_std_nodes = stats.nodes
        assert len(chi) == 1, (name, chi)
    assert 962 / 10 <= myciel4_std_nodes <= 962 * 10
    print(
        f"\nACCEPTANCE 8 benchmark smoke, 6 instances x 3 variants in budget, "
        f"myciel4 std nodes={myciel4_std_nodes}: PASS"
    )


def test_criterion_9_lazy_update_stability():
    base = 0xACC9
    for idx in range(100):
        p = P_GRID[idx % 9]
        g = gen_gnp(30, p, base + idx)
        chi = set()
        nodes_by_stride = {}
        for stride in (1, 2, 3, 5):
            sol, stats = solve(g, SolverConfig(variant="comb", cd_stride=stride))
            chi.add(sol.chi_eq)
            nodes_by_stride[stride] = stats.nodes
        assert len(chi) == 1, (idx, chi)
        if idx % 10 == 0:
            for stride in (1, 2, 3, 5):
                _, again = solve(g, SolverConfig(variant="comb", cd_stride=stride))
                assert again.nodes == nodes_by_stride[stride]
    print("\nACCEPTANCE 9 lazy decomposition strides agree on 100 instances: PASS")
