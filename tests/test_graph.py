import random
from itertools import combinations

import pytest

from eqcolor import DimacsError, Graph, gen_gnp, parse_dimacs, write_dimacs
from eqcolor.graph import check_gnp_args, greedy_maximal_clique
from eqcolor.instances import mycielski_graph
from helpers import (
    benchmark_graphs,
    complete,
    gnp_comb_args,
    messy_edge_lists,
    neighbors,
    reference_clique,
    star,
)


def test_parse_basic():
    g = parse_dimacs("p edge 3 2\ne 1 2\ne 2 3")
    assert g.n == 3
    assert g.edges == {(0, 1), (1, 2)}
    assert g.degree == (1, 2, 1)


def test_parse_collapses_duplicates_and_orientations():
    g = parse_dimacs("p edge 2 1\ne 1 2\ne 2 1")
    assert g.m == 1
    assert g.adj_mask == (0b10, 0b01)


def test_parse_comments_and_blank_lines():
    g = parse_dimacs("c a comment\n\np edge 2 1\nc another\ne 1 2\n")
    assert g.n == 2 and g.m == 1


def test_parse_myciel4_shape():
    text = write_dimacs(mycielski_graph(4), name="myciel4")
    g = parse_dimacs(text)
    assert g.n == 23
    assert abs(g.density() - 0.28) < 0.005


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("e 1 2", "before 'p'"),
        ("p edge 2 1\np edge 2 1\ne 1 2", "duplicate"),
        ("p edge 2 1\ne 1 3", "out of range"),
        ("p edge 2 1\ne 1 x", "malformed edge"),
        ("p edge x 1\ne 1 2", "malformed problem"),
        ("p edge 2 1\nq 1 2", "unrecognized"),
        ("p edge 2 1\ne 1 1", "self-loop"),
        ("", "missing 'p'"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(DimacsError) as exc:
        parse_dimacs(text)
    assert fragment in str(exc.value)


def test_parse_error_carries_line_number():
    with pytest.raises(DimacsError) as exc:
        parse_dimacs("c hi\np edge 2 1\ne 1 5")
    assert exc.value.line == 3
    assert "line 3" in str(exc.value)


def test_parse_warns_on_edge_count_mismatch():
    with pytest.warns(UserWarning, match="declares 5 edges"):
        g = parse_dimacs("p edge 3 5\ne 1 2")
    assert g.m == 1


def test_roundtrip_write_parse():
    rng = random.Random(3)
    for _ in range(25):
        g = gen_gnp(rng.randint(1, 15), rng.random(), rng.getrandbits(32))
        h = parse_dimacs(write_dimacs(g))
        assert h.n == g.n and h.edges == g.edges


def _dimacs_from_sorted_edges(g: Graph, name=None) -> str:
    """The DIMACS text with the edges taken from `sorted(g.edges)`, as
    `write_dimacs` once made it: the reference for byte-identical output."""
    lines = [f"c {line}" for line in name.splitlines()] if name else []
    lines.append(f"p edge {g.n} {g.m}")
    lines += [f"e {u + 1} {v + 1}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def test_write_dimacs_equals_the_sorted_edge_form():
    """Walking each mask's bits above u writes the same bytes as sorting
    the edge set: on the benchmark's graphs, on messy edge lists, and at
    n = 0 and n = 1."""
    rng = random.Random(17)
    graphs = benchmark_graphs() + [Graph(0), Graph(1), Graph(1, [])]
    graphs += [Graph(n, pairs) for n, pairs in messy_edge_lists(rng, 100)]
    for index, g in enumerate(graphs):
        name = f"graph {index}" if index % 2 else None
        assert write_dimacs(g, name=name) == _dimacs_from_sorted_edges(g, name)
    assert sum(g.m for g in graphs) > 10_000


def test_roundtrip_keeps_a_multiline_name_in_comments():
    """A name that spans lines, by any line break the parser splits on,
    is written as one comment line per line and parses back."""
    g = Graph(2, [(0, 1)])
    for name in ("two\nlines", "a\r\nb\rc\n", "\nx\n\ny", "e 1 1\u2028p edge 9 9"):
        text = write_dimacs(g, name=name)
        h = parse_dimacs(text)
        assert h.n == g.n and h.edges == g.edges
        assert text.splitlines()[:-2] == ["c " + line for line in name.splitlines()]


def test_graph_rejects_self_loop_and_range():
    with pytest.raises(ValueError, match=r"^self-loop at vertex 1$"):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError, match=r"^edge \(0,3\) out of range for n=3$"):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError, match=r"^edge \(-1,2\) out of range for n=3$"):
        Graph(3, [(-1, 2)])
    with pytest.raises(ValueError, match=r"^vertex count must be non-negative$"):
        Graph(-1)


@pytest.mark.parametrize("n", [True, False, 2.0, "3", None])
def test_vertex_count_must_be_an_int(n):
    """bool is an int subclass, so True would pass as one vertex; a float
    or a string is refused with the same ValueError."""
    with pytest.raises(ValueError, match=r"^vertex count must be an integer$"):
        Graph(n)
    with pytest.raises(ValueError, match=r"^n must be an integer >= 1$"):
        check_gnp_args(n, 0.5)
    with pytest.raises(ValueError, match=r"^n must be an integer >= 1$"):
        gen_gnp(n, 0.5, 1)


def test_edges_are_the_canonical_pairs_of_any_edge_list():
    """Repeats and both orientations collapse in the masks, and `edges`
    reads them back as (u, v), u < v, with plain int ids (False and True
    name vertices 0 and 1); rebuilding from `edges` gives the same masks."""
    for n, pairs in messy_edge_lists(random.Random(23), 200):
        g = Graph(n, pairs)
        want = {(int(min(u, v)), int(max(u, v))) for u, v in pairs}
        assert g.edges == want and type(g.edges) is frozenset
        assert all(type(u) is int and type(v) is int for u, v in g.edges)
        assert g.m == len(want)
        adj = [0] * n
        for u, v in want:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        assert g.adj_mask == tuple(adj)
        assert Graph(n, g.edges).adj_mask == g.adj_mask


def test_gnp_extremes():
    assert gen_gnp(5, 0.0, 9).m == 0
    assert gen_gnp(5, 1.0, 9).m == 10


def test_gnp_deterministic():
    a = gen_gnp(40, 0.5, 1234)
    b = gen_gnp(40, 0.5, 1234)
    assert a.edges == b.edges
    c = gen_gnp(40, 0.5, 1235)
    assert c.edges != a.edges


def test_gnp_mean_edge_count():
    n, p, trials = 30, 0.35, 1000
    pairs = n * (n - 1) // 2
    counts = [gen_gnp(n, p, seed).m for seed in range(trials)]
    mean = sum(counts) / trials
    expectation = p * pairs
    sigma_of_mean = (pairs * p * (1 - p)) ** 0.5 / trials**0.5
    assert abs(mean - expectation) < 5 * sigma_of_mean


def test_gnp_equals_graph_built_from_its_edges():
    """gen_gnp builds its masks while it draws; the graph is the one
    `Graph` builds, with all its checks, from the same edges."""
    rng = random.Random(17)
    cases = [(n, p, rng.getrandbits(32)) for n in (1, 2, 3, 30, 60) for p in (0.0, 1.0)]
    cases += [(rng.randint(1, 60), rng.random(), rng.getrandbits(32)) for _ in range(200)]
    cases += gnp_comb_args()
    for n, p, seed in cases:
        g = gen_gnp(n, p, seed)
        h = Graph(n, sorted(g.edges))
        assert g.adj_mask == h.adj_mask == Graph(n, g.edges).adj_mask
        assert g.edges == h.edges and type(g.edges) is frozenset
        assert (g.degree, g.order, g.m) == (h.degree, h.order, h.m)
        assert g.relabeled().adj_mask == h.relabeled().adj_mask
    assert gen_gnp(60, 1.0, 0).m == 60 * 59 // 2


def test_gnp_validates_arguments():
    with pytest.raises(ValueError):
        gen_gnp(0, 0.5, 1)
    with pytest.raises(ValueError):
        gen_gnp(5, 1.5, 1)


def _all_maximal_cliques(g):
    adj = neighbors(g)
    out = []
    verts = range(g.n)
    for r in range(1, g.n + 1):
        for sub in combinations(verts, r):
            if all(v in adj[u] for u, v in combinations(sub, 2)):
                if not any(
                    all(u in adj[w] for u in sub) for w in verts if w not in sub
                ):
                    out.append(set(sub))
    return out


def test_greedy_clique_complete_graph():
    assert set(greedy_maximal_clique(complete(4), 0)) == {0, 1, 2, 3}


def test_greedy_clique_edgeless():
    g = Graph(4, [])
    assert greedy_maximal_clique(g, 2) == [2]


def test_greedy_clique_star_from_center():
    g = star(12)
    clique = greedy_maximal_clique(g, 0)
    assert len(clique) == 2 and clique[0] == 0
    # every maximal clique of a star is one edge
    assert all(len(c) == 2 for c in _all_maximal_cliques(g))


def test_greedy_clique_is_maximal_clique():
    rng = random.Random(11)
    for _ in range(40):
        g = gen_gnp(rng.randint(2, 9), rng.uniform(0.2, 0.9), rng.getrandbits(32))
        start = rng.randrange(g.n)
        clique = set(greedy_maximal_clique(g, start))
        adj = neighbors(g)
        for u in clique:
            for v in clique:
                assert u == v or v in adj[u]
        for w in range(g.n):
            if w not in clique:
                assert not all(w in adj[u] for u in clique)


def test_order_is_decreasing_degree_ties_to_lowest_index():
    # degrees: 0:1, 1:3, 2:2, 3:3, 4:2, 5:1, 6:0
    g = Graph(7, [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    assert g.degree == (1, 3, 2, 3, 2, 1, 0)
    assert g.order == (1, 3, 2, 4, 0, 5, 6)
    assert Graph(0).order == ()


def _relabeled_through_init(g: Graph) -> Graph:
    """The relabel as `Graph` builds it, with all its checks, from the
    edges mapped through the rank."""
    rank = [0] * g.n
    for r, v in enumerate(g.order):
        rank[v] = r
    return Graph(g.n, ((rank[u], rank[v]) for u, v in g.edges))


def test_relabeled_follows_the_order():
    """Vertex r of the relabeled graph is `order[r]`: edges map through the
    order, and the new order is the identity. The masks it maps are the
    graph `Graph` builds from the mapped edges, on random graphs, graphs
    from repeated and reversed edge lists and the benchmark's graphs."""
    rng = random.Random(6)
    graphs = [
        gen_gnp(rng.randint(1, 25), rng.uniform(0.05, 0.95), rng.getrandbits(32))
        for _ in range(100)
    ]
    graphs += [Graph(n, pairs) for n, pairs in messy_edge_lists(rng, 50)]
    graphs += benchmark_graphs()
    for g in graphs:
        h = g.relabeled()
        ref = _relabeled_through_init(g)
        assert (h.adj_mask, h.degree, h.order) == (ref.adj_mask, ref.degree, ref.order)
        assert h.order == tuple(range(g.n))
        assert h.degree == tuple(g.degree[v] for v in g.order)
        o = g.order
        assert {frozenset((o[a], o[b])) for a, b in h.edges} == {
            frozenset(e) for e in g.edges
        }
        assert h.adj_mask == tuple(sum(1 << w for w in s) for s in neighbors(h))
        assert h.degree == tuple(m.bit_count() for m in h.adj_mask)


def test_greedy_clique_matches_min_reference():
    """On a relabeled graph, growing by the lowest-index common neighbor
    picks exactly what a `min` by (-degree, index) over the common
    neighbors picks, in the same growth order."""
    rng = random.Random(5)
    for _ in range(300):
        g = gen_gnp(rng.randint(1, 30), rng.uniform(0.05, 0.95), rng.getrandbits(32))
        g = g.relabeled()
        adj = neighbors(g)
        for start in range(g.n):
            assert greedy_maximal_clique(g, start) == reference_clique(
                g, start, adj[start]
            )
