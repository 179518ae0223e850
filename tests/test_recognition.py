from itertools import combinations

import random

import pytest

import zoo
from zoo import induces_2k2 as _induces_2k2, induces_cycle as _induces_cycle
from toughkit import (
    Graph,
    is_2k2_free,
    is_chordal,
    is_claw_free,
    is_split,
)
from toughkit.enumeration import _labeled_graphs, enumerate_connected_graphs, enumerate_trees
from toughkit.recognition import (
    _chordal_verdict,
    _clawfree_verdict,
    _lex_min_chordless_cycle,
    _split_verdict,
    _twok2_verdict,
)


def test_chordal_examples():
    for n in range(2, 8):
        for t in enumerate_trees(n):
            assert is_chordal(t).verdict
    c4 = is_chordal(zoo.cycle(4))
    assert not c4.verdict and c4.witness == (0, 1, 2, 3)
    c5 = is_chordal(zoo.cycle(5))
    assert not c5.verdict and c5.witness == (0, 1, 2, 3, 4)


def test_chordal_elimination_order_is_perfect():
    # every vertex must be simplicial in the graph induced on the later ones
    for g in _labeled_graphs(5, connected_only=False):
        cert = is_chordal(g)
        if not cert.verdict:
            continue
        order = cert.elimination_order
        assert sorted(order) == list(range(g.n))
        for i, v in enumerate(order):
            later = [w for w in order[i + 1 :] if g.has_edge(v, w)]
            assert all(g.has_edge(a, b) for a, b in combinations(later, 2))


def test_chordal_negative_witness_is_chordless_cycle():
    for g in _labeled_graphs(5, connected_only=False):
        cert = is_chordal(g)
        if cert.verdict:
            continue
        assert len(cert.witness) >= 4
        assert _induces_cycle(g, cert.witness)


def _all_subsets_chordless_cycle(g):
    # reference: scan every vertex subset for an induced cycle of length >= 4
    candidates = [
        vs
        for size in range(4, g.n + 1)
        for vs in combinations(range(g.n), size)
        if _induces_cycle(g, vs)
    ]
    return min(candidates)


def test_chordless_cycle_search_matches_all_subsets_scan():
    for n in range(4, 7):
        for g in _labeled_graphs(n, connected_only=False):
            if not _chordal_verdict(g):
                assert _lex_min_chordless_cycle(g) == _all_subsets_chordless_cycle(g)
    rng = random.Random(7)
    graphs = [zoo.cycle(n) for n in range(4, 13)]
    graphs += [zoo.circulant(n, (1, 3)) for n in range(7, 13)]
    for _ in range(60):
        n = rng.randint(7, 12)
        p = rng.choice((0.2, 0.35, 0.5))
        graphs.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    for g in graphs:
        if not _chordal_verdict(g):
            assert _lex_min_chordless_cycle(g) == _all_subsets_chordless_cycle(g)


def test_chordal_matches_networkx():
    nx = pytest.importorskip("networkx")
    for g in enumerate_connected_graphs(6, dedup=True):
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges())
        assert is_chordal(g).verdict == nx.is_chordal(G)


def test_split_examples():
    cert = is_split(zoo.paw())
    assert cert.verdict and cert.clique == {0, 1, 2} and cert.independent == {3}
    cert = is_split(zoo.path(4))
    assert cert.verdict and cert.clique == {1, 2} and cert.independent == {0, 3}
    assert not is_split(zoo.cycle(4)).verdict
    assert is_split(zoo.complete(5)).verdict
    assert is_split(Graph(3)).verdict
    assert is_split(Graph(0)).verdict


def test_split_partition_revalidates():
    for g in _labeled_graphs(5, connected_only=False):
        cert = is_split(g)
        assert cert.verdict == _split_verdict(g)
        if cert.verdict:
            C, I = cert.clique, cert.independent
            assert C | I == set(range(g.n)) and not (C & I)
            assert all(g.has_edge(u, v) for u, v in combinations(sorted(C), 2))
            assert not any(g.has_edge(u, v) for u, v in combinations(sorted(I), 2))
        else:
            w = cert.witness
            assert _induces_2k2(g, w) or _induces_cycle(g, w)


def _lex_least_split_clique(g):
    """Brute-force reference: the lexicographically least maximum clique
    whose complement is independent, or None when no maximum clique has an
    independent complement."""
    vertices = range(g.n)
    for size in range(g.n, -1, -1):
        cliques = [
            c
            for c in combinations(vertices, size)
            if all(g.has_edge(u, v) for u, v in combinations(c, 2))
        ]
        if cliques:
            break
    for c in cliques:
        rest = [v for v in vertices if v not in c]
        if not any(g.has_edge(u, v) for u, v in combinations(rest, 2)):
            return c
    return None


def test_split_partition_is_lex_least_maximum_clique():
    for n in range(0, 7):
        for g in _labeled_graphs(n, connected_only=False):
            want = _lex_least_split_clique(g)
            cert = is_split(g)
            assert cert.verdict == (want is not None)
            if want is not None:
                assert cert.clique == frozenset(want)
                assert cert.independent == frozenset(range(g.n)) - cert.clique


def _first_split_obstruction_scan(g):
    """The split witness as a subset scan found it: the smaller of the first
    induced 2K2 or C4 among the 4-sets and the first C5 among the 5-sets."""
    hits = []
    for size in (4, 5):
        for vs in combinations(range(g.n), size):
            if _induces_cycle(g, vs) or _induces_2k2(g, vs):
                hits.append(vs)
                break
    return min(hits)


def test_split_witness_is_the_subset_scans():
    rng = random.Random(17)
    graphs = [g for n in range(7) for g in _labeled_graphs(n, connected_only=False)]
    for _ in range(150):
        n = rng.randint(7, 12)
        p = rng.choice((0.2, 0.35, 0.5, 0.65, 0.8))
        graphs.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    rejected = 0
    for g in graphs:
        cert = is_split(g)
        if not cert.verdict:
            rejected += 1
            assert cert.witness == _first_split_obstruction_scan(g), g
    assert rejected == 23_512 + 141  # labeled n <= 6, then G(n, p)


def test_split_iff_forbidden_free():
    # the partition-based recognizer agrees with the forbidden-subgraph scan
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n, dedup=True):
            forb_free = not any(
                _induces_cycle(g, vs) or _induces_2k2(g, vs)
                for vs in combinations(range(g.n), 4)
            ) and not any(_induces_cycle(g, vs) for vs in combinations(range(g.n), 5))
            assert is_split(g).verdict == forb_free


def test_split_implies_chordal():
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n, dedup=True):
            if _split_verdict(g):
                assert _chordal_verdict(g)


def test_clawfree_examples():
    cert = is_claw_free(zoo.star(3))
    assert not cert.verdict and cert.witness == (0, 1, 2, 3)
    for n in range(3, 8):
        assert is_claw_free(zoo.cycle(n)).verdict
    assert is_claw_free(zoo.bowtie()).verdict
    assert is_claw_free(zoo.net()).verdict


def test_clawfree_witness_is_induced_claw():
    for g in _labeled_graphs(5, connected_only=False):
        cert = is_claw_free(g)
        assert cert.verdict == _clawfree_verdict(g)
        if not cert.verdict:
            w = cert.witness
            degs = sorted(sum(1 for u in w if g.has_edge(u, v)) for v in w)
            assert degs == [1, 1, 1, 3]


def _induced_degree_sequences(g):
    """Sorted induced degrees of every 4-vertex subset, by a scan that
    shares nothing with the recognizers."""
    adj = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges():
        adj[u][v] = adj[v][u] = 1
    return {
        tuple(sorted(sum(adj[v][u] for u in vs) for v in vs))
        for vs in combinations(range(g.n), 4)
    }


def test_mask_verdicts_match_a_4_subset_scan():
    # both directions on every labeled graph with n <= 6, disconnected ones
    # included: a wrong True is caught as well as a wrong False
    for n in range(1, 7):
        for g in _labeled_graphs(n, connected_only=False):
            seqs = _induced_degree_sequences(g)
            assert _clawfree_verdict(g) == ((1, 1, 1, 3) not in seqs), g
            assert _twok2_verdict(g) == ((1, 1, 1, 1) not in seqs), g


def test_2k2_examples():
    cert = is_2k2_free(zoo.path(5))
    assert not cert.verdict and cert.witness == (0, 1, 3, 4)
    assert is_2k2_free(zoo.cycle(5)).verdict
    assert is_2k2_free(zoo.paw()).verdict
    assert is_2k2_free(zoo.net()).verdict


def test_2k2_witness_is_induced():
    for g in _labeled_graphs(5, connected_only=False):
        cert = is_2k2_free(g)
        assert cert.verdict == _twok2_verdict(g)
        if not cert.verdict:
            assert _induces_2k2(g, cert.witness)


def test_witnesses_are_lex_min():
    for g in _labeled_graphs(5, connected_only=False):
        cert = is_claw_free(g)
        if not cert.verdict:
            first = min(
                vs
                for vs in combinations(range(g.n), 4)
                if sorted(sum(1 for u in vs if g.has_edge(u, v)) for v in vs)
                == [1, 1, 1, 3]
            )
            assert cert.witness == first
        cert = is_2k2_free(g)
        if not cert.verdict:
            first = min(
                vs for vs in combinations(range(g.n), 4) if _induces_2k2(g, vs)
            )
            assert cert.witness == first
