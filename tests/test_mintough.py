import importlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

import zoo
from toughkit import (
    ClawfreeHalfFromTree,
    Graph,
    bridges,
    clawfree_half_witness,
    edge_deletion_witness,
    generate,
    is_minimally_t_tough,
    is_t_tough,
    minimal_toughness_value,
    split_clique_edge_witness,
    toughness,
    twok2_neighborhood_witness,
    validate_tough_set,
)
from toughkit.enumeration import (
    _labeled_graphs,
    enumerate_connected_graphs,
    enumerate_trees,
)
from toughkit.mintough import _build_witness, _edge_witness
from toughkit.recognition import _twok2_verdict
from toughkit.toughness import _cutsets

F = Fraction


def brute_force_minimal(g):
    """Independent minimal-toughness decision straight from the definition."""
    tau, _ = toughness(g)
    if not tau.is_finite:
        return None
    t = tau.value
    for e in g.edges():
        te = toughness(g.delete_edge(*e))[0]
        if not te < t:
            return None
    return t


def first_witness_by_definition(g, t, e):
    """Smallest (size, lex) set satisfying the witness conditions directly."""
    gm = g.delete_edge(*e)
    for size in range(0, g.n - 1):
        for combo in combinations(range(g.n), size):
            before = zoo.omega(g, combo)
            after = zoo.omega(gm, combo)
            if after >= 2 and after > F(size, 1) / t and before <= F(size, 1) / t:
                return frozenset(combo)
    return None


def test_examples():
    assert is_minimally_t_tough(zoo.cycle(4), 1)
    assert is_minimally_t_tough(zoo.path(4), F(1, 2))
    assert not is_minimally_t_tough(zoo.paw(), F(1, 2))
    assert not is_minimally_t_tough(zoo.complete(4), 1)
    assert not is_minimally_t_tough(zoo.complete(4), 100)
    with pytest.raises(ValueError):
        is_minimally_t_tough(zoo.cycle(4), 0)


def test_minimal_toughness_value_examples():
    assert minimal_toughness_value(zoo.cycle(5)) == 1
    assert minimal_toughness_value(zoo.star(4)) == F(1, 4)
    assert minimal_toughness_value(zoo.bowtie()) is None
    assert minimal_toughness_value(zoo.complete(4)) is None
    assert minimal_toughness_value(Graph(4, [(0, 1), (2, 3)])) is None
    assert minimal_toughness_value(zoo.net()) == F(1, 2)
    assert minimal_toughness_value(zoo.octahedron()) == 2


def test_paw_edge_deletion_keeps_toughness():
    # deleting a triangle edge at the pendant corner leaves a P4
    paw = zoo.paw()
    assert toughness(paw)[0] == F(1, 2)
    assert toughness(paw.delete_edge(0, 1))[0] == F(1, 2)


def test_agrees_with_definition_exhaustive_n5():
    for g in _labeled_graphs(5, connected_only=True):
        assert minimal_toughness_value(g) == brute_force_minimal(g)


def test_agrees_with_definition_on_every_class_up_to_7():
    # the decision scans only the sets that separate each edge's ends; the
    # definition recomputes tau(G - e) for every edge.  996 classes, 853 of
    # them at n = 7
    classes = 0
    for n in range(1, 8):
        for g in enumerate_connected_graphs(n, dedup=True):
            classes += 1
            assert minimal_toughness_value(g) == brute_force_minimal(g), g
    assert classes == 996


def _dense_gnp(n, p, seed):
    rng = random.Random(seed)
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


@pytest.mark.parametrize(
    "g, value, budget",
    [
        # scanning every set of V - {u, v} made 4,959, 22,939 and 620
        # counts; without the plain loop's common-neighbour skip the scans
        # made 4,349, 15,198 and 327, and without the walk's return once
        # G[K] joins u and v, 1,839, 16,651 and 156
        (zoo.circulant(16, (1, 2)), F(2), 1_229),
        (zoo.circulant(16, (1, 2, 3)), F(3), 9_572),
        (_dense_gnp(16, 0.6, 5), None, 156),
    ],
    ids=["C16(1,2)", "C16(1,2,3)", "G(16,0.6)"],
)
def test_separating_scan_work(count_components, g, value, budget):
    # the per-edge scans of the minimal-toughness decision count only sets
    # that hold the common neighbours of the edge's ends, and the walk stops
    # once its kept vertices join them; each budget is the count the scans
    # make, and the counter raises past it
    tau, _ = toughness(g)
    count_components(budget, "per-edge scans")
    assert minimal_toughness_value(g, tau) == value


def test_is_minimally_t_tough_stops_when_toughness_differs(monkeypatch):
    # tau(C_10(1,2)) = 2, so at t = 1 no per-edge scan is needed
    g = zoo.circulant(10, (1, 2))
    module = importlib.import_module("toughkit.mintough")
    calls = []
    real = module._drop_set
    monkeypatch.setattr(module, "_drop_set", lambda *a, **k: calls.append(a) or real(*a, **k))
    assert toughness(g)[0] == 2
    assert not is_minimally_t_tough(g, 1) and calls == []
    assert is_minimally_t_tough(g, 2) == (minimal_toughness_value(g) == 2)


def test_trees_are_minimally_inverse_max_degree():
    for n in range(3, 9):
        for t in enumerate_trees(n):
            assert minimal_toughness_value(t) == F(1, t.max_degree())


def test_edge_deletion_witness_examples():
    w = edge_deletion_witness(zoo.cycle(4), 1, (0, 1))
    assert w.vertices == frozenset({2}) and not w.bridge_case
    assert w.omega_before == 1 and w.omega_after == 2 and w.bound == 1
    w = edge_deletion_witness(zoo.path(4), F(1, 2), (1, 2))
    assert w.bridge_case and w.vertices == frozenset()
    # C5: both non-incident vertices qualify; lex order picks the smallest
    w = edge_deletion_witness(zoo.cycle(5), 1, (0, 1))
    assert w.vertices == frozenset({2})
    with pytest.raises(ValueError):
        edge_deletion_witness(zoo.cycle(4), 1, (0, 2))
    # deleting paw's edge 0-1 leaves a P4 with unchanged toughness: no witness
    with pytest.raises(RuntimeError):
        edge_deletion_witness(zoo.paw(), F(1, 2), (0, 1))


def test_separating_scan_gives_the_edge_deletion_witness():
    # every edge of every minimally tough connected labeled graph with
    # n <= 6: at t = tau(g) the separating scan behind edge_deletion_witness
    # gives the witness of the first violating tight cutset of G - e drawn
    # from every vertex, whether it separates the edge's ends or not
    checked = 0
    for n in range(2, 7):
        for g in _labeled_graphs(n, connected_only=True):
            t = minimal_toughness_value(g)
            if t is None:
                continue
            for e in g.edges():
                w = edge_deletion_witness(g, t, e)
                checked += 1
                if w.bridge_case:
                    assert e in bridges(g), (g, e)
                    continue
                p, q = t.numerator, t.denominator
                combo, _ = next(_cutsets(
                    g.delete_edge(*e)._nbr, range(n), lambda size: q * size // p + 1))
                assert w == _build_witness(g, e, t, combo), (g, e)
    assert checked > 10_000


def test_edge_deletion_witness_matches_definition_search():
    from toughkit import bridges

    for g in _labeled_graphs(5, connected_only=True):
        t = minimal_toughness_value(g)
        if t is None:
            continue
        for e in g.edges():
            w = edge_deletion_witness(g, t, e)
            assert w.holds(g, t)
            if w.bridge_case:
                assert e in bridges(g)
            else:
                assert w.vertices == first_witness_by_definition(g, t, e)


def test_split_clique_edge_witness_formula():
    # triangle with one pendant per corner: S = {third corner}
    net = zoo.net()
    w = split_clique_edge_witness(net, ({0, 1, 2}, {3, 4, 5}), (0, 1))
    assert w.vertices == frozenset({2})
    assert (w.omega_before, w.omega_after, w.bound) == (2, 3, F(2))
    # two pendants per corner
    st3 = zoo.split_triangle(3)
    w = split_clique_edge_witness(st3, ({0, 1, 2}, set(range(3, 9))), (0, 1))
    assert w.vertices == frozenset({2})
    assert (w.omega_before, w.omega_after, w.bound) == (3, 4, F(3))
    # double star: centers' edge is a bridge, formula gives the empty set
    ds = zoo.double_star(3, 2)
    w = split_clique_edge_witness(ds, ({0, 1}, {2, 3, 4, 5}), (0, 1))
    assert w.bridge_case and w.vertices == frozenset()


def test_split_clique_edge_witness_validation():
    with pytest.raises(ValueError):
        split_clique_edge_witness(zoo.net(), ({0, 1, 2}, {3, 4, 5}), (0, 3))
    with pytest.raises(ValueError):
        split_clique_edge_witness(zoo.net(), ({0, 1}, {2, 3, 4, 5}), (0, 1))
    # t = 0 used to divide by zero, t = -1 to blame the graph's minimality
    for t in (0, -1):
        with pytest.raises(ValueError, match="t must be positive"):
            split_clique_edge_witness(zoo.net(), ({0, 1, 2}, {3, 4, 5}), (0, 1), t)


def test_split_formula_matches_claim_on_all_small_split_graphs():
    from toughkit import is_split

    for g in _labeled_graphs(6, connected_only=True):
        t = minimal_toughness_value(g)
        if t is None:
            continue
        cert = is_split(g)
        if not cert.verdict:
            continue
        C = cert.clique
        for u, v in g.edges():
            if u in C and v in C:
                w = split_clique_edge_witness(g, (C, cert.independent), (u, v), t)
                assert w.holds(g, t)


def test_clawfree_half_witness_examples():
    v9 = zoo.triangle_p2_tails()
    w = clawfree_half_witness(v9, (0, 1))
    assert w.vertices == frozenset({2})
    assert w.omega_before == 2 and w.omega_after == 3
    assert clawfree_half_witness(zoo.path(4), (1, 2)).bridge_case
    assert clawfree_half_witness(zoo.path(5), (2, 3)).bridge_case
    with pytest.raises(RuntimeError):
        clawfree_half_witness(zoo.cycle(4), (0, 1))


def test_clawfree_half_witness_rejects_disconnected_and_two_vertex_sets():
    with pytest.raises(ValueError, match="disconnected"):
        clawfree_half_witness(Graph(5, [(0, 1), (1, 2), (3, 4)]), (0, 1))
    # hubs 0 and 1 with three common neighbors and the path 0-2-3-1: only
    # S = {0, 1} separates edge 2-3 (4 components before, 5 after)
    g = Graph(7, [(0, 2), (2, 3), (3, 1)] + [(h, x) for h in (0, 1) for x in (4, 5, 6)])
    assert edge_deletion_witness(g, F(1, 2), (2, 3)).vertices == {0, 1}
    with pytest.raises(RuntimeError, match="no single-vertex witness for edge"):
        clawfree_half_witness(g, (3, 2))


def clawfree_half_by_definition(g, e):
    """The empty set for a bridge, else the first x with c((G-e)-x) > 2 >= c(G-x)."""
    if e in bridges(g):
        return frozenset()
    gm = g.delete_edge(*e)
    for x in range(g.n):
        if zoo.omega(gm, [x]) > 2 >= zoo.omega(g, [x]):
            return frozenset({x})
    return None


def test_clawfree_half_witness_matches_definition_on_triangle_family():
    checked = 0
    for tree in zoo.half_trees(12):
        g = generate(ClawfreeHalfFromTree(tree))
        if g.n > 11:
            continue
        for e in g.edges():
            assert clawfree_half_witness(g, e).vertices == clawfree_half_by_definition(g, e)
            checked += 1
    assert checked > 100
    c4 = zoo.cycle(4)
    assert clawfree_half_by_definition(c4, (0, 1)) is None
    with pytest.raises(RuntimeError):
        clawfree_half_witness(c4, (0, 1))


@pytest.mark.parametrize("e", [(-1, 0), (0, -1), (4, 3)])
def test_witness_searches_reject_endpoints_outside_the_graph(e):
    c4 = zoo.cycle(4)
    calls = (
        lambda: edge_deletion_witness(c4, 1, e),
        lambda: twok2_neighborhood_witness(c4, 1, e),
        lambda: clawfree_half_witness(c4, e),
        lambda: split_clique_edge_witness(c4, ({0, 1}, {2, 3}), e),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"is not an edge"):
            call()


@pytest.mark.parametrize("t", [0, -1, F(-1, 2)])
def test_every_t_taking_entry_point_rejects_t_at_most_zero(t):
    c4 = zoo.cycle(4)
    calls = (
        lambda: is_t_tough(c4, t),
        lambda: validate_tough_set(c4, [0, 2], t),
        lambda: _edge_witness(c4, t, (0, 1), [2]),
        lambda: is_minimally_t_tough(c4, t),
        lambda: edge_deletion_witness(c4, t, (0, 1)),
        lambda: twok2_neighborhood_witness(c4, t, (0, 1)),
        lambda: split_clique_edge_witness(zoo.net(), ({0, 1, 2}, {3, 4, 5}), (0, 1), t),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"^t must be positive$"):
            call()


def test_per_edge_scans_work(monkeypatch, count_components):
    # deciding that C_16(1,2) is minimally 2-tough scans each G - e with
    # 4,959 component counts and no independence number; an exact alpha(G)
    # built at each scan's first walking size cost 2,085 calls here.  Past
    # either budget its counter raises
    module = importlib.import_module("toughkit.toughness")
    g = zoo.circulant(16, (1, 2))
    tau, _ = toughness(g)
    count_components(4_959, "component counts")

    def independence_number(nbr, pool):
        raise AssertionError("_independence_number ran past its budget")

    monkeypatch.setattr(module, "_independence_number", independence_number)
    assert minimal_toughness_value(g, tau) == 2


def test_clawfree_half_witness_on_family():
    for g in (zoo.net(), zoo.net_long_tail(), zoo.triangle_p2_tails()):
        assert minimal_toughness_value(g) == F(1, 2)
        for e in g.edges():
            w = clawfree_half_witness(g, e)
            assert len(w.vertices) <= 1
            assert w.holds(g, F(1, 2))


def test_twok2_neighborhood_witness_examples():
    w = twok2_neighborhood_witness(zoo.cycle(4), 1, (0, 1))
    assert w.vertices == frozenset({2})
    w = twok2_neighborhood_witness(zoo.cycle(5), 1, (0, 1))
    assert w.vertices == frozenset({2})
    assert twok2_neighborhood_witness(zoo.star(3), F(1, 3), (0, 1)).bridge_case


def test_twok2_neighborhood_witness_stays_in_neighborhood():
    for g in _labeled_graphs(6, connected_only=True):
        if not _twok2_verdict(g):
            continue
        t = minimal_toughness_value(g)
        if t is None:
            continue
        for u, v in g.edges():
            w = twok2_neighborhood_witness(g, t, (u, v))
            if w.bridge_case:
                continue
            hood = set(g.neighbors(u)) | set(g.neighbors(v))
            assert w.vertices <= hood - {u, v}
            assert w.holds(g, t)
