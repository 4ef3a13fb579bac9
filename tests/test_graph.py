import random
from itertools import combinations

import pytest

from eqcolor import DimacsError, Graph, gen_gnp, parse_dimacs, write_dimacs
from eqcolor.graph import greedy_maximal_clique
from eqcolor.instances import mycielski_graph
from helpers import complete, neighbors, reference_clique, star


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
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


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


def test_relabeled_follows_the_order():
    """Vertex r of the relabeled graph is `order[r]`: edges map through the
    order, and the new order is the identity."""
    rng = random.Random(6)
    for _ in range(100):
        g = gen_gnp(rng.randint(1, 25), rng.uniform(0.05, 0.95), rng.getrandbits(32))
        h = g.relabeled()
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
