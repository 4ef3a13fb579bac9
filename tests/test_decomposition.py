import random

import pytest

from eqcolor import Graph, SolverConfig, gen_gnp, solve, solver
from eqcolor.decomposition import (
    CliqueDecomposition,
    find_non_adjacent_cliques,
    mask_vertices,
)
from eqcolor.instances import by_name
from helpers import (
    check_decomposition,
    complete,
    decomposition,
    hub_triangles_graph,
    mask,
    reference_decomposition,
)


def clique_vertices(d):
    """The cliques of d, each as its vertices in ascending order."""
    return tuple(mask_vertices(c) for c in d.masks)


def test_hub_triangles_after_hub_colored():
    g = hub_triangles_graph()
    uncolored = mask(range(1, 12))
    d = find_non_adjacent_cliques(g, uncolored)
    check_decomposition(d, g, uncolored)
    assert sorted(sorted(c) for c in clique_vertices(d)) == [[6, 7, 8], [9, 10, 11]]
    assert mask_vertices(d.residual_mask) == (1, 2, 3, 4, 5)
    assert not mask([2, 3, 4, 5]) & ~d.residual_mask


def test_edgeless_all_residual():
    g = Graph(5, [])
    d = find_non_adjacent_cliques(g, mask(range(5)))
    assert clique_vertices(d) == ()
    assert d.residual_mask == mask(range(5))


def test_single_triangle():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    d = find_non_adjacent_cliques(g, mask(range(3)))
    assert clique_vertices(d) == ((0, 1, 2),)
    assert not d.residual_mask


def test_triangle_plus_pendant_covered_three():
    # pendant 3 hangs off corner 0; the greedy seeds at corner 0 and
    # recovers the full triangle
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    d = find_non_adjacent_cliques(g, mask(range(4)))
    assert d.covered_mask.bit_count() == 3
    assert mask_vertices(d.residual_mask) == (3,)


def test_k4_single_clique():
    d = find_non_adjacent_cliques(complete(4), mask(range(4)))
    assert clique_vertices(d) == ((0, 1, 2, 3),)
    assert not d.residual_mask


def test_validator_rejects_bad_decompositions():
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    every = mask(range(4))
    bad = [
        decomposition([mask([0, 3]), mask([1, 2])], 0),  # adjacent cliques
        decomposition([mask([1, 3])], mask([0, 2])),  # not a clique
        decomposition([mask([0, 1])], 0),  # missing coverage
    ]
    for d in bad:
        with pytest.raises(ValueError):
            check_decomposition(d, g, every)


def test_random_outputs_always_valid():
    rng = random.Random(23)
    for _ in range(150):
        g = gen_gnp(rng.randint(1, 14), rng.random(), rng.getrandbits(32))
        uncolored = mask(v for v in range(g.n) if rng.random() < 0.7)
        d = find_non_adjacent_cliques(g, uncolored)
        check_decomposition(d, g, uncolored)


def test_restricted_to_projects_cleanly():
    g = hub_triangles_graph()
    d = find_non_adjacent_cliques(g, mask(range(1, 12)))
    smaller = mask([1, 2, 6, 7, 9, 10, 11])
    r = d.restricted_to(smaller)
    check_decomposition(r, g, smaller)
    assert sorted(sorted(c) for c in clique_vertices(r)) == [[6, 7], [9, 10, 11]]
    assert mask_vertices(r.residual_mask) == (1, 2)
    # vertices this decomposition never saw land in the residual
    wider = smaller | mask([0])
    r2 = d.restricted_to(wider)
    check_decomposition(r2, g, wider)
    assert r2.residual_mask & mask([0])


def test_decomposition_matches_min_reference():
    """On a graph relabeled by its order, seeds and growth taken from the
    lowest bit give exactly the cliques, in the same order, and the
    residual of the `min`-by-(-degree, index) reference, which grows each
    clique in ascending order."""
    rng = random.Random(8)
    for _ in range(400):
        g = gen_gnp(rng.randint(1, 30), rng.uniform(0.05, 0.95), rng.getrandbits(32))
        g = g.relabeled()
        uncolored = {v for v in range(g.n) if rng.random() < rng.uniform(0.3, 1.0)}
        d = find_non_adjacent_cliques(g, mask(uncolored))
        cliques, residual = reference_decomposition(g, uncolored)
        ascending = [tuple(sorted(c)) for c in cliques]
        assert cliques == ascending
        assert list(clique_vertices(d)) == ascending
        assert mask_vertices(d.residual_mask) == tuple(sorted(residual))


def test_restricted_to_matches_set_projection():
    """On relabeled random graphs, projecting onto a new uncolored set
    keeps each clique's surviving members when two or more survive, in
    the same order, and puts every other vertex of the new set in the
    residual. Three kinds of new set: one that drops only residual
    vertices (the cliques tuple comes back as it was), one that drops
    clique members, and one that also adds vertices the decomposition
    never saw."""
    rng = random.Random(9)
    kinds = {"residual only": 0, "members": 0, "unseen": 0}
    for _ in range(300):
        g = gen_gnp(rng.randint(1, 30), rng.uniform(0.05, 0.95), rng.getrandbits(32))
        g = g.relabeled()
        uncolored = {v for v in range(g.n) if rng.random() < 0.8}
        d = find_non_adjacent_cliques(g, mask(uncolored))
        members = {v for c in clique_vertices(d) for v in c}
        residual_only = members | {v for v in mask_vertices(d.residual_mask) if rng.random() < 0.5}
        dropped = {v for v in uncolored if rng.random() < 0.8}
        widened = {v for v in range(g.n) if rng.random() < 0.7}
        for kind, smaller, exercised in (
            ("residual only", residual_only, bool(d.masks) and residual_only != uncolored),
            ("members", dropped, bool(members - dropped)),
            ("unseen", widened, bool(widened - uncolored)),
        ):
            r = d.restricted_to(mask(smaller))
            check_decomposition(r, g, mask(smaller))
            kept = [tuple(v for v in c if v in smaller) for c in clique_vertices(d)]
            kept = [c for c in kept if len(c) >= 2]
            assert list(clique_vertices(r)) == kept
            rest = smaller - {v for c in kept for v in c}
            assert mask_vertices(r.residual_mask) == tuple(sorted(rest))
            if kind == "residual only":
                assert r.masks is d.masks
            kinds[kind] += exercised
    assert min(kinds.values()) > 100, kinds


def test_rebuild_without_a_residual_vertex_is_the_projection():
    """Removing a residual vertex v from the uncolored set U changes no
    step of the greedy: it never seeds a clique of two or more with v,
    grows one with v, or needs v to fence one off. So the rebuild on U - v
    is the projection of the decomposition of U, cliques in the same
    order. Removing a clique member can change the rebuild, which the
    test sees happen."""
    rng = random.Random(21)
    residual_checks = member_changes = 0
    for _ in range(120):
        g = gen_gnp(rng.randint(8, 40), rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)), rng.getrandbits(32))
        if rng.random() < 0.5:
            g = g.relabeled()
        uncolored = mask(v for v in range(g.n) if rng.random() < rng.uniform(0.4, 1.0))
        d = find_non_adjacent_cliques(g, uncolored)
        for v in range(g.n):
            bit = 1 << v
            if not uncolored & bit:
                continue
            rebuilt = find_non_adjacent_cliques(g, uncolored ^ bit)
            projected = d.restricted_to(uncolored ^ bit)
            same = (rebuilt.masks, rebuilt.residual_mask) == (
                projected.masks,
                projected.residual_mask,
            )
            if d.residual_mask & bit:
                assert same
                residual_checks += 1
            else:
                member_changes += not same
    assert residual_checks > 500 and member_changes > 50


def test_trace_views_match_the_masks(monkeypatch):
    """The benchmark's layer trace times the root's decomposition under
    `solver.restarted_decomposition`, the same function as the node loop's
    rebuild, and reads `residual` and `covered()` of every decomposition
    it times: on those a comb search builds or projects, the two views
    are the residual mask's vertices and the clique union's size."""
    assert solver.restarted_decomposition is solver.find_non_adjacent_cliques
    real_find = solver.find_non_adjacent_cliques
    real_restrict = CliqueDecomposition.restricted_to
    seen = {"find": 0, "restrict": 0}

    def check(d):
        assert d.residual == frozenset(mask_vertices(d.residual_mask))
        assert d.covered() == d.covered_mask.bit_count()

    def find(g, uncolored):
        d = real_find(g, uncolored)
        check(d)
        seen["find"] += 1
        return d

    def restricted_to(d, uncolored):
        r = real_restrict(d, uncolored)
        check(d)
        check(r)
        seen["restrict"] += 1
        return r

    monkeypatch.setattr(solver, "restarted_decomposition", find)
    monkeypatch.setattr(solver, "find_non_adjacent_cliques", find)
    monkeypatch.setattr(CliqueDecomposition, "restricted_to", restricted_to)
    for g in (by_name("queen6_6"), gen_gnp(40, 0.7, 1)):
        sol, _ = solve(g, SolverConfig(variant="comb"))
        assert sol.optimal
    assert seen["find"] > 1000 and seen["restrict"] > 5000, seen
