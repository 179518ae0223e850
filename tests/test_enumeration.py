import hashlib
import random
from itertools import combinations, permutations

import pytest

import zoo
from toughkit import (
    Graph,
    canonical_key,
    encode_graph6,
    enumerate_connected_graphs,
)
from toughkit import enumeration
from toughkit.enumeration import (
    _certificate,
    _dedup_levels,
    _edge_orbits,
    _is_canonical_deletion,
    _labeled_graphs,
    enumerate_trees,
    graph_from_key,
)


def brute_force_key(g):
    """Minimum adjacency encoding over all n! permutations, computed naively."""
    n = g.n
    best = None
    for perm in permutations(range(n)):
        val = 0
        for j in range(1, n):
            for i in range(j):
                val = val << 1 | int(g.has_edge(perm[i], perm[j]))
        if best is None or val < best:
            best = val
    return best or 0


def test_canonical_key_equals_brute_force_exhaustive_n5():
    for n in range(1, 6):
        for g in _labeled_graphs(n, connected_only=False):
            assert canonical_key(g) == brute_force_key(g)


def test_canonical_separates_isomorphism_classes_n4():
    # same key iff some permutation maps one graph onto the other
    gs = list(_labeled_graphs(4, connected_only=False))
    for g in gs:
        for h in gs:
            iso = any(
                all(
                    g.has_edge(u, v) == h.has_edge(p[u], p[v])
                    for u in range(4)
                    for v in range(u + 1, 4)
                )
                for p in permutations(range(4))
            )
            assert (canonical_key(g) == canonical_key(h)) == iso


def test_canonical_graph_is_stable():
    g = zoo.petersen()
    c = graph_from_key(g.n, canonical_key(g))
    assert canonical_key(c) == canonical_key(g)
    assert graph_from_key(c.n, canonical_key(c)) == c


def test_graph_from_key_round_trip():
    for g in _labeled_graphs(4, connected_only=False):
        k = canonical_key(g)
        assert canonical_key(graph_from_key(4, k)) == k


def test_connected_class_counts():
    expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    for n in (1, 2, 3, 4, 5):
        assert sum(1 for _ in enumerate_connected_graphs(n, dedup=True)) == expected[n]


@pytest.mark.slow
def test_connected_class_counts_n6_n7():
    assert sum(1 for _ in enumerate_connected_graphs(6, dedup=True)) == 112
    assert sum(1 for _ in enumerate_connected_graphs(7, dedup=True)) == 853


@pytest.mark.slow
def test_connected_class_representatives_n8_are_pinned():
    # 11,117 connected classes (OEIS A001349); the digest of their graph6
    # lines, in order, was taken from the all-graphs growth that tried every
    # neighbor subset and canonicalized every candidate
    lines = [encode_graph6(g) for g in enumerate_connected_graphs(8, dedup=True)]
    assert len(lines) == 11117
    assert (
        hashlib.sha256("\n".join(lines).encode()).hexdigest()
        == "28b9222da489bdd97eff49da6a8d2aed76ac19453b4b69ece911cb3dd855c398"
    )


def test_dedup_matches_networkx_atlas_up_to_n7():
    # the atlas lists every graph on at most 7 vertices, one per class,
    # and shares no code with the generator
    nx = pytest.importorskip("networkx")
    want = {n: set() for n in range(1, 8)}
    for h in nx.graph_atlas_g()[1:]:  # entry 0 is the null graph
        if nx.is_connected(h):
            want[h.number_of_nodes()].add(
                canonical_key(Graph(h.number_of_nodes(), list(h.edges())))
            )
    for n in range(1, 8):
        got = [canonical_key(g) for g in enumerate_connected_graphs(n, dedup=True)]
        assert len(got) == len(set(got)) == len(want[n])
        assert set(got) == want[n]


def _connected_without(g, m):
    start = 1 if m == 0 else 0
    seen, stack = {start}, [start]
    while stack:
        for w in g.neighbors(stack.pop()):
            if w != m and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n - 1


def test_filter_keeps_the_child_at_a_top_ranked_non_cut_vertex_up_to_n6():
    # the soundness argument itself, without the certificate dict: deleting
    # a non-cut vertex m of largest invariant leaves a connected parent, and
    # the child of that parent whose new vertex is m passes the filter
    for n in range(2, 7):
        for g in _labeled_graphs(n, connected_only=True):
            m = max((v for v in range(n) if _connected_without(g, v)), key=lambda v: (
                g.degree(v), sorted(g.degree(u) for u in g.neighbors(v))))
            pos = {u: i for i, u in enumerate([u for u in range(n) if u != m] + [m])}
            child = Graph(n, [(pos[u], pos[v]) for u, v in g.edges()])
            assert _is_canonical_deletion(child._nbr), (g.edges(), m)


def test_filtered_levels_match_unfiltered_growth_up_to_n7(monkeypatch):
    # the plain growth certifies every neighbor subset of every parent; the
    # filtered enumeration must find the same classes and representatives
    # (the test module's _certificate is the unpatched one)
    certified = {k: set() for k in range(1, 8)}

    def recording(masks):
        cert = _certificate(masks)
        certified[len(masks)].add(cert)
        return cert

    monkeypatch.setattr(enumeration, "_certificate", recording)
    filtered = dict(zip(range(1, 8), _dedup_levels()))
    reps = [Graph(1)]
    for k in range(2, 8):
        classes = {}
        for g in reps:
            for sub in range(1, 1 << (k - 1)):
                masks = tuple(m | (sub >> i & 1) << (k - 1) for i, m in enumerate(g._nbr))
                masks += (sub,)
                classes.setdefault(_certificate(masks), masks)
        assert set(classes) == certified[k]
        reps = [graph_from_key(k, key) for key in
                sorted(canonical_key(Graph._from_masks(k, m)) for m in classes.values())]
        assert reps == [g for g, _ in filtered[k]]


def test_n7_level_certifies_at_most_1477_candidates(monkeypatch):
    # without the filter the n = 7 level certifies 7,056 candidates
    calls = {k: 0 for k in range(2, 8)}

    def counting(masks):
        calls[len(masks)] += 1
        return _certificate(masks)

    monkeypatch.setattr(enumeration, "_certificate", counting)
    assert len(list(enumerate_connected_graphs(7, dedup=True))) == 853
    assert calls[7] <= 1477


def test_certificate_separates_exactly_the_classes_n5():
    # disconnected graphs included: equal certificates iff equal canonical keys
    for n in range(1, 6):
        pairs = {
            (_certificate(g._nbr), canonical_key(g))
            for g in _labeled_graphs(n, connected_only=False)
        }
        assert len({c for c, _ in pairs}) == len({k for _, k in pairs}) == len(pairs)


def _relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _complete_multipartite(*parts):
    part = [i for i, size in enumerate(parts) for _ in range(size)]
    return Graph(len(part), [(u, v) for u, v in combinations(range(len(part)), 2)
                             if part[u] != part[v]])


def test_certificate_is_invariant_where_refinement_barely_splits():
    # refinement leaves these graphs one colour class, or one per degree,
    # so the certificate rests on the search
    k33 = _complete_multipartite(3, 3)
    prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                      (0, 3), (1, 4), (2, 5)])
    graphs = [
        zoo.circulant(7, [1, 2]),
        zoo.circulant(8, [1, 3]),
        zoo.circulant(9, [1, 3]),
        zoo.circulant(10, [1, 2]),
        zoo.circulant(11, [1, 3]),
        zoo.circulant(12, [1, 4, 5]),
        zoo.petersen(),
        k33,
        prism,
        _complete_multipartite(2, 2, 3),
        _complete_multipartite(3, 3, 3),
        _complete_multipartite(1, 2, 3, 4),
        _complete_multipartite(4, 4, 4),
    ]
    rng = random.Random(20260)
    for g in graphs:
        cert = _certificate(g._nbr)
        # the certificate encodes a relabeled copy of g
        assert canonical_key(graph_from_key(g.n, cert)) == canonical_key(g)
        for _ in range(6):
            assert _certificate(_relabeled(g, rng)._nbr) == cert
    assert _certificate(k33._nbr) != _certificate(prism._nbr)


def test_canonical_key_equals_brute_force_on_twin_rich_graphs():
    # many twins, relabeled so that twin classes are not index intervals
    def k_minus_matching(n, m):
        return Graph(n, [e for e in combinations(range(n), 2)
                         if not (e[0] % 2 == 0 and e[1] == e[0] + 1 and e[1] < 2 * m)])

    graphs = [
        zoo.star(5),
        zoo.star(6),
        _complete_multipartite(2, 4),
        _complete_multipartite(3, 3),
        _complete_multipartite(2, 5),
        _complete_multipartite(3, 4),
        _complete_multipartite(2, 2, 2),
        _complete_multipartite(1, 2, 3),
        _complete_multipartite(2, 2, 3),
        _complete_multipartite(1, 1, 2, 3),
        k_minus_matching(6, 1),
        k_minus_matching(6, 3),
        k_minus_matching(7, 2),
        k_minus_matching(7, 3),
    ]
    rng = random.Random(4401)
    for g in graphs:
        assert g.n in (6, 7)
        h = _relabeled(g, rng)
        assert canonical_key(g) == canonical_key(h) == brute_force_key(h)


def _brute_force_edge_orbits(g):
    """Per edge, in g.edges() order, the index of the first edge of its
    orbit under every automorphism, found among all n! permutations."""
    edges = g.edges()
    orbit = {e: {e} for e in edges}
    for p in permutations(range(g.n)):
        if all(g.has_edge(p[u], p[v]) for u, v in edges):
            for u, v in edges:
                orbit[u, v].add((min(p[u], p[v]), max(p[u], p[v])))
    return tuple(edges.index(min(orbit[e], key=edges.index)) for e in edges)


def test_harvested_automorphisms_give_the_edge_orbits(monkeypatch):
    # every permutation the key search harvests is an automorphism of its
    # representative (n <= 8), and for n <= 6 the orbits they generate are
    # those of the whole automorphism group
    harvested = {k: [] for k in range(1, 9)}

    def recording(g, automorphisms):
        key = canonical_key(g, automorphisms)
        harvested[g.n].append((key, automorphisms))
        return key

    monkeypatch.setattr(enumeration, "canonical_key", recording)
    edges = orbits = 0
    for k, level in zip(range(1, 9), _dedup_levels()):
        for (g, lead), (key, autos) in zip(level, sorted(harvested[k]), strict=True):
            assert g == graph_from_key(k, key)
            for p in autos:
                assert sorted(p) == list(range(k)), (g, p)
                assert all(g.has_edge(p[u], p[v]) for u, v in g.edges()), (g, p)
            assert lead == _edge_orbits(g, autos)
            if k <= 6:
                assert lead == _brute_force_edge_orbits(g), g
            if k <= 7:
                edges += len(lead)
                orbits += sum(j == i for i, j in enumerate(lead))
    assert (edges, orbits) == (10_664, 6_425)


def test_labeled_connected_counts():
    expected = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728}
    for n, count in expected.items():
        assert sum(1 for _ in enumerate_connected_graphs(n, dedup=False)) == count


def test_dedup_yield_is_canonical_and_sorted():
    reps = list(enumerate_connected_graphs(5, dedup=True))
    keys = [canonical_key(g) for g in reps]
    assert keys == sorted(keys)
    assert all(graph_from_key(g.n, canonical_key(g)) == g for g in reps)


def test_dedup_covers_labeled_classes():
    labeled_keys = {
        canonical_key(g) for g in enumerate_connected_graphs(5, dedup=False)
    }
    dedup_keys = {canonical_key(g) for g in enumerate_connected_graphs(5, dedup=True)}
    assert labeled_keys == dedup_keys


def test_enumeration_bounds():
    with pytest.raises(ValueError):
        next(enumerate_connected_graphs(9, dedup=True))
    with pytest.raises(ValueError):
        next(enumerate_connected_graphs(8, dedup=False))
    with pytest.raises(ValueError):
        next(enumerate_connected_graphs(0, dedup=True))


def test_tree_counts():
    expected = [1, 1, 1, 2, 3, 6, 11, 23, 47]
    got = [sum(1 for _ in enumerate_trees(n)) for n in range(1, 10)]
    assert got == expected


def test_trees_are_trees_and_distinct():
    trees = list(enumerate_trees(7))
    assert all(t.is_tree() for t in trees)
    keys = {canonical_key(t) for t in trees}
    assert len(keys) == len(trees)
