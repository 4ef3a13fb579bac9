import hashlib

import pytest

from eqcolor.cli import instance_seed
from eqcolor.graph import gen_gnp, write_dimacs
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


# first 16 hex digits of sha256(write_dimacs(gen_gnp(n, p, seed))): the 20
# G(50, p) graphs of the benchmark's gnp-comb workload (index 0..4 at each
# p, seeds instance_seed(1, 50, p, index)), then three edge cases: one
# vertex, p = 1 and p = 0
GNP_COMB_DIGESTS = {
    0.3: ("b20f4a6e3f8b3334", "6b398116f639a22d", "ddefb814ae25fcbd", "c69fa7d17c602a47", "09dc95b3014575e4"),
    0.5: ("7b9bb3821b7fc2ad", "4d8a8caf8c894741", "4d1adf50f1957dce", "3834c567bf869787", "025e26e7298ce69a"),
    0.7: ("cc9f8ac5053e3973", "1d57777a9472c2b3", "d13abd8a53e11596", "ec6605246f671db9", "e75b367d03b9ca95"),
    0.9: ("f8c25733840106c4", "ca93a4dd777c206c", "5e1d347db2191a28", "6f8fe61ddf0203c5", "0b5d68dbd429ec59"),
}
GNP_DIGESTS = [
    ((50, p, instance_seed(1, 50, p, index)), digest)
    for p, digests in GNP_COMB_DIGESTS.items()
    for index, digest in enumerate(digests)
]
GNP_DIGESTS += [
    ((1, 0.5, 3), "8d8fcdfafbd591f3"),
    ((2, 1.0, 0), "cc285fb6c093465e"),
    ((30, 0.0, 5), "e3e7467fa3f630d9"),
]


@pytest.mark.parametrize("args,digest", GNP_DIGESTS)
def test_gnp_graphs_pinned(args, digest):
    """gen_gnp keeps its reproducibility contract: every seeded graph the
    benchmark and the campaigns are built from stays edge for edge."""
    text = write_dimacs(gen_gnp(*args))
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
