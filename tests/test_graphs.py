import random
from fractions import Fraction
from itertools import combinations

import pytest

import zoo
from toughkit import (
    EdgeWitness,
    Graph,
    blocks,
    bridges,
    edge,
    edge_deletion_witness,
    parse_adjacency,
    parse_graph6,
    simplicial_vertices,
    split_expand,
    vertex_connectivity,
)
from toughkit.enumeration import _labeled_graphs, enumerate_trees
from toughkit.graphs import (
    component_count,
    component_masks,
    neighbourhood_tables,
    table_component_count,
)


def test_graph_construction_and_accessors():
    g = Graph(4, [(0, 1), (1, 2), (3, 1)])
    assert g.n == 4
    assert g.edges() == [(0, 1), (1, 2), (1, 3)]
    assert g.edge_count == 3
    assert g.degree(1) == 3
    assert g.neighbors(1) == (0, 2, 3)
    assert g.has_edge(3, 1) and not g.has_edge(0, 3)
    assert g.degrees() == (1, 3, 1, 1)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])
    with pytest.raises(ValueError):
        Graph(65)  # vertex sets must fit in a 64-bit word
    with pytest.raises(ValueError):
        Graph(-1)


def test_duplicate_edges_collapse():
    assert Graph(3, [(0, 1), (1, 0), (0, 1)]).edge_count == 1


def test_vertex_cap_configurable():
    # The input cap is a parser argument; Graph() itself admits up to 64.
    assert Graph(40).n == 40
    assert parse_adjacency("40\n0 1", cap=64).n == 40
    with pytest.raises(ValueError):
        parse_adjacency("40\n0 1")
    for bad in (0, 65):
        with pytest.raises(ValueError, match="vertex cap must be in 1..64"):
            parse_adjacency("2\n0 1", cap=bad)
        with pytest.raises(ValueError, match="vertex cap must be in 1..64"):
            parse_graph6("A_", cap=bad)


def test_edge_helper():
    assert edge(3, 1) == (1, 3)
    with pytest.raises(ValueError):
        edge(2, 2)


def test_delete_edge_and_add_edges():
    c4 = zoo.cycle(4)
    p4 = c4.delete_edge(0, 3)
    assert p4.edges() == [(0, 1), (1, 2), (2, 3)]
    assert Graph(4, p4.edges() + [(0, 3)]) == c4
    with pytest.raises(ValueError):
        c4.delete_edge(0, 2)


def test_component_masks_on_named_graphs():
    c4 = zoo.cycle(4)
    assert component_masks(c4._nbr, 0b1111) == [0b1111]
    assert component_masks(c4._nbr, 0b1010) == [0b0010, 0b1000]
    # removing the star center isolates the leaves
    assert component_count(zoo.star(3)._nbr, 0b1110) == 3


def test_component_masks_ordered_by_least_vertex():
    g = Graph(6, [(0, 1), (2, 3), (2, 4)])
    assert component_masks(g._nbr, 0b011111) == [0b000011, 0b011100]


@pytest.mark.parametrize("n", [1, 8, 9, 16, 17, 24, 25, 32, 64])
def test_table_count_matches_component_count(n):
    # chunk widths change at n = 9, 17 and 25, and the last chunk is short
    # at n = 9, 17 and 25; each graph is counted on random pools, the full
    # pool and the empty one
    rng = random.Random(n)
    for p in (0.05, 0.1, 0.2, 0.4):
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        tables = neighbourhood_tables(g._nbr)
        for pool in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(100)]:
            assert table_component_count(tables, pool) == component_count(g._nbr, pool)


def test_bridges_examples():
    assert bridges(zoo.path(4)) == frozenset({(0, 1), (1, 2), (2, 3)})
    assert bridges(zoo.cycle(4)) == frozenset()
    assert bridges(zoo.paw()) == frozenset({(0, 3)})


def test_bridges_definition_exhaustive_n5():
    # e is a bridge iff deleting it increases the component count
    for g in _labeled_graphs(5, connected_only=False):
        br = bridges(g)
        base = zoo.omega(g)
        for e in g.edges():
            expected = zoo.omega(g.delete_edge(*e)) > base
            assert (e in br) == expected


def test_blocks_examples():
    blks, cuts = blocks(zoo.bowtie())
    assert blks == [frozenset({0, 1, 4}), frozenset({2, 3, 4})]
    assert cuts == frozenset({4})
    blks, cuts = blocks(zoo.cycle(4))
    assert blks == [frozenset({0, 1, 2, 3})]
    assert cuts == frozenset()
    blks, cuts = blocks(zoo.path(3))
    assert blks == [frozenset({0, 1}), frozenset({1, 2})]
    assert cuts == frozenset({1})


def test_blocks_rejects_disconnected():
    with pytest.raises(ValueError):
        blocks(Graph(4, [(0, 1), (2, 3)]))


def test_every_tree_is_all_bridges_and_edge_blocks():
    for n in range(2, 8):
        for t in enumerate_trees(n):
            assert len(bridges(t)) == n - 1
            blks, _ = blocks(t)
            assert all(len(b) == 2 for b in blks)
            assert len(blks) == n - 1


def test_blocks_partition_edges_exhaustive_n5():
    for g in _labeled_graphs(5, connected_only=True):
        blks, _ = blocks(g)
        seen = set()
        for b in blks:
            for u, v in combinations(sorted(b), 2):
                if g.has_edge(u, v):
                    assert (u, v) not in seen
                    seen.add((u, v))
        assert seen == set(g.edges())


@pytest.mark.parametrize("e", [(-1, 0), (0, -1), (4, 3), (0, 4)])
def test_edge_queries_reject_vertices_outside_the_graph(e):
    c4 = zoo.cycle(4)
    assert not c4.has_edge(*e)
    for call in (
        lambda: c4.delete_edge(*e),
        lambda: split_expand(c4, e),
        lambda: edge_deletion_witness(c4, 1, e),
    ):
        with pytest.raises(ValueError, match="is not an edge"):
            call()
    for witness in (
        EdgeWitness(e, frozenset({1}), False, 1, 2, Fraction(1)),
        EdgeWitness(e, frozenset(), True, 1, 2, Fraction(0)),
    ):
        assert not witness.holds(c4, 1)


def test_edge_witness_holds_rejects_a_missing_vertex_and_t_zero():
    # vertex 9 is not in the bowtie; the set used to pass on its vertex 4
    w = EdgeWitness((0, 1), frozenset({4, 9}), False, 2, 3, Fraction(2))
    assert not w.holds(zoo.bowtie(), 1)
    # t = 0 used to divide by zero
    c5 = zoo.cycle(5)
    w = edge_deletion_witness(c5, 1, (0, 1))
    assert w.holds(c5, 1) and not w.holds(c5, 0)


@pytest.mark.parametrize("v", [-1, 4])
def test_vertex_queries_reject_vertices_outside_the_graph(v):
    # -1 used to answer with vertex 3's neighbourhood through negative indexing
    c4 = zoo.cycle(4)
    for call in (lambda: c4.degree(v), lambda: c4.neighbors(v)):
        with pytest.raises(ValueError, match=f"vertex {v} outside 0..3"):
            call()
    assert c4.degree(3) == 2 and c4.neighbors(3) == (0, 2)


def test_vertex_connectivity_examples():
    assert vertex_connectivity(zoo.cycle(5)) == (2, False)
    assert vertex_connectivity(zoo.complete(4)) == (3, True)
    assert vertex_connectivity(zoo.path(4)) == (1, False)
    assert vertex_connectivity(Graph(1)) == (0, True)
    assert vertex_connectivity(Graph(3, [(0, 1)])) == (0, False)
    assert vertex_connectivity(zoo.petersen()) == (3, False)


def _brute_force_kappa(g):
    # smallest vertex set whose removal disconnects (or empties) the graph
    for size in range(g.n - 1):
        for combo in combinations(range(g.n), size):
            if zoo.omega(g, combo) >= 2:
                return size
    return g.n - 1


def test_vertex_connectivity_brute_force_exhaustive_n5():
    for g in _labeled_graphs(5, connected_only=True):
        expected = _brute_force_kappa(g)
        got = vertex_connectivity(g)
        assert got.value == expected
        assert got.complete == g.is_complete()


def test_vertex_connectivity_random_vs_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(20240817)
    for _ in range(150):
        n = rng.randint(4, 9)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.45]
        g = Graph(n, edges)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(edges)
        if g.is_complete():
            continue
        assert vertex_connectivity(g).value == nx.node_connectivity(G)


def test_kappa_at_most_min_degree():
    for g in _labeled_graphs(5, connected_only=True):
        if not g.is_complete():
            assert vertex_connectivity(g).value <= g.min_degree()


def test_simplicial_vertices_examples():
    assert simplicial_vertices(zoo.star(3)) == frozenset({1, 2, 3})
    assert simplicial_vertices(zoo.cycle(4)) == frozenset()
    assert simplicial_vertices(zoo.paw()) == frozenset({1, 2, 3})


def test_simplicial_direct_definition_exhaustive_n5():
    for g in _labeled_graphs(5, connected_only=False):
        expected = set()
        for v in range(g.n):
            nb = g.neighbors(v)
            if all(g.has_edge(a, b) for a, b in combinations(nb, 2)):
                expected.add(v)
        assert simplicial_vertices(g) == expected
