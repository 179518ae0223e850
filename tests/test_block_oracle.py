"""Bridges, blocks and cut vertices against networkx.

The package counts the components of G - e for bridges and of G - c for
blocks and cut vertices; networkx finds them by depth-first search,
sharing no code with it.
"""

import random
from itertools import combinations

import pytest

from toughkit import Graph, blocks, bridges
from toughkit.enumeration import _labeled_graphs

nx = pytest.importorskip("networkx")


def _nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def _check(g):
    G = _nx(g)
    assert bridges(g) == {tuple(sorted(e)) for e in nx.bridges(G)}
    if g.n and not nx.is_connected(G):
        with pytest.raises(ValueError, match="disconnected"):
            blocks(g)
        return False
    blks, cuts = blocks(g)
    assert set(blks) == {frozenset(b) for b in nx.biconnected_components(G)}
    assert len(blks) == len(set(blks))
    assert [sorted(b) for b in blks] == sorted(sorted(b) for b in blks)
    assert cuts == frozenset(nx.articulation_points(G))
    return True


def test_every_labeled_graph_up_to_six_vertices():
    connected = 0
    total = 0
    for n in range(7):
        for g in _labeled_graphs(n, connected_only=False):
            connected += _check(g)
            total += 1
    assert (total, connected) == (33868, 27477)


def test_seeded_random_graphs_7_to_32_vertices():
    rng = random.Random(20261018)
    connected = 0
    for i in range(400):
        n = rng.randint(7, 32)
        # around the connectivity threshold, so graphs have many blocks
        p = rng.uniform(1.0, 3.0) / n if i % 2 else rng.choice([0.1, 0.2, 0.4])
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        connected += _check(g)
    assert connected >= 100
