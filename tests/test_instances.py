import hashlib

import pytest

from eqcolor.graph import write_dimacs
from eqcolor.instances import (
    by_name,
    full_insertions_graph,
    insertions_graph,
    mycielski_graph,
    queens_graph,
)
from helpers import neighbors


# published vertex/edge counts for the benchmark families
PUBLISHED = {
    "myciel3": (11, 20),
    "myciel4": (23, 71),
    "myciel5": (47, 236),
    "queen6_6": (36, 290),
    "queen7_7": (49, 476),
    "queen8_8": (64, 728),
    "1-Insertions_4": (67, 232),
    "2-Insertions_3": (37, 72),
    "3-Insertions_3": (56, 110),
    "1-FullIns_3": (30, 100),
    "2-FullIns_3": (52, 201),
}


@pytest.mark.parametrize("name,expected", sorted(PUBLISHED.items()))
def test_sizes_match_published(name, expected):
    g = by_name(name)
    assert (g.n, g.m) == expected


# first 16 hex digits of sha256(write_dimacs(by_name(name))): the exact
# edge lists and vertex numbering the benchmark's instances are built with
DIGESTS = {
    "myciel3": "b617a3edc5a894ea",
    "myciel4": "d072e32bbbeec89d",
    "myciel5": "2696e197e10d3de7",
    "queen6_6": "3075d271296be326",
    "queen7_7": "74e389e3c2a68475",
    "2-Insertions_3": "46a48901c04f8a69",
    "1-FullIns_3": "f0fca9cdce51d352",
    "1-Insertions_4": "333c5c11f4c5a326",
    "2-FullIns_3": "aa1c042a40c2ac7e",
}


@pytest.mark.parametrize("name,digest", sorted(DIGESTS.items()))
def test_instance_graphs_pinned(name, digest):
    text = write_dimacs(by_name(name))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_mycielski_preserves_triangle_freeness():
    g = mycielski_graph(5)
    adj = neighbors(g)
    for u, v in g.edges:
        assert not (adj[u] & adj[v]), "triangle found"


def test_queens_rows_are_cliques():
    g = queens_graph(5)
    adj = neighbors(g)
    for r in range(5):
        row = [r * 5 + c for c in range(5)]
        for a in row:
            for b in row:
                assert a == b or b in adj[a]


def test_insertions_first_step_is_odd_cycle():
    g = insertions_graph(2, 2)  # one step from a single edge
    assert g.n == 9 and g.m == 9
    assert all(d == 2 for d in g.degree)


def test_fullins_apex_clique_joined_to_top():
    g = full_insertions_graph(1, 2)
    assert (g.n, g.m) == (9, 14)
    apex = (6, 7, 8)  # built after the three levels of two vertices each
    adj = neighbors(g)
    for a in apex:
        for b in apex:
            assert a == b or b in adj[a]
        assert {4, 5} <= adj[a]  # completely joined to the top level


def test_by_name_rejects_unknown():
    with pytest.raises(ValueError):
        by_name("petersen")
