"""Property tests of the pruned subset searches against brute force.

The graphs are sparse or structured (trees with a few chords, circulants
C_n(a, b)) under random vertex relabelings: the inputs on which the
kappa/alpha cutoffs of the searches fire.  The brute-force references scan
every vertex subset with their own component count; for the per-edge
witness searches, every subset of the search's pool that separates the
edge's ends in G - e.  The
cutset scan's depth-first walk is compared with the plain per-size scan,
kept here as ``_combinations_cutsets``, on graphs of 11-16 vertices, G(n,p)
with p up to 0.7 among them, where the walk runs, and on fixed pools that
leave vertices out of a dense G(16, 0.6) less an edge.  The minimal-
toughness decision, which asks one edge per automorphism orbit, is
compared with asking every edge.
"""

import importlib
import random
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import zoo
from toughkit import (
    Graph,
    edge_deletion_witness,
    is_2k2_free,
    is_chordal,
    is_claw_free,
    is_split,
    is_t_tough,
    minimal_toughness_value,
    naive_toughness_oracle,
    toughness,
    twok2_neighborhood_witness,
    vertex_connectivity,
)
from toughkit.enumeration import _automorphisms, _labeled_graphs, enumerate_connected_graphs
from toughkit.graphs import component_count
from toughkit.mintough import _drop_set
from toughkit.toughness import _alpha_sums, _tight_pool
from toughkit.toughness import _cutsets as _cutsets_under_test


def _relabeled(draw, n, edges):
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


@st.composite
def trees_with_chords(draw, max_n, min_n=2):
    n = draw(st.integers(min_n, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    chords = st.sampled_from(list(combinations(range(n), 2)))
    edges |= set(draw(st.lists(chords, max_size=3)))
    return _relabeled(draw, n, edges)


@st.composite
def circulants(draw, max_n, min_n=4):
    n = draw(st.integers(min_n, max_n))
    a = draw(st.integers(1, n // 2))
    b = draw(st.integers(1, n // 2))
    edges = {tuple(sorted((i, (i + d) % n))) for i in range(n) for d in (a, b)}
    return _relabeled(draw, n, edges)


def graphs(max_n):
    return st.one_of(trees_with_chords(max_n), circulants(max_n))


def _cutsets(g, pool=None):
    """(S, c(G - S)) for every cutset S drawn from ``pool`` (default: every
    vertex), by size and then lexicographically."""
    pool = range(g.n) if pool is None else pool
    for size in range(1, g.n - 1):
        for vs in combinations(pool, size):
            omega = zoo.omega(g, vs)
            if omega >= 2:
                yield vs, omega


@settings(max_examples=120, deadline=None)
@given(graphs(12))
def test_toughness_matches_oracle_and_brute_force_witness(g):
    tau, w = toughness(g)
    assert tau == naive_toughness_oracle(g)
    if tau.is_finite:
        # the first strict minimiser: smallest size, then lex-first
        best, omega = min(
            _cutsets(g), key=lambda c: (Fraction(len(c[0]), c[1]), len(c[0]), c[0])
        )
        assert w.vertices == frozenset(best) and w.component_count == omega


@settings(max_examples=120, deadline=None)
@given(graphs(12), st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
                                     Fraction(1), Fraction(3, 2), Fraction(2),
                                     Fraction(5, 2), Fraction(3)]))
def test_is_t_tough_witness_is_brute_force_maximiser(g, t):
    ok, w = is_t_tough(g, t)
    if g.is_complete():
        assert (ok, w) == (True, None)
        return
    if zoo.omega(g, ()) >= 2:
        assert not ok and w.vertices == frozenset()
        return
    # the first strict maximiser of p*c - q*|S| with a positive score
    p, q = t.numerator, t.denominator
    scored = [(p * omega - q * len(vs), vs, omega) for vs, omega in _cutsets(g)]
    violations = [s for s in scored if s[0] > 0]
    if not violations:
        assert (ok, w) == (True, None)
        return
    _, best, omega = min(violations, key=lambda s: (-s[0], len(s[1]), s[1]))
    assert not ok
    assert w.vertices == frozenset(best) and w.component_count == omega


@settings(max_examples=80, deadline=None)
@given(graphs(9))
def test_minimal_toughness_value_matches_definition(g):
    # minimally t-tough: tau(g) = t finite and tau(g - e) < t for every edge
    tau = naive_toughness_oracle(g)
    expected = None
    if tau.is_finite and all(
        naive_toughness_oracle(g.delete_edge(*e)) < tau for e in g.edges()
    ):
        expected = tau.value
    assert minimal_toughness_value(g) == expected


@settings(max_examples=100, deadline=None)
@given(graphs(12))
def test_orbit_decision_matches_every_edge_decision(g):
    # one edge per orbit of the harvested automorphisms, against every edge
    for p in _automorphisms(g):
        assert all(g.has_edge(p[u], p[v]) for u, v in g.edges())
    tau, _ = toughness(g)
    expected = None
    if tau.is_finite and all(_drop_set(g, tau.value, e) is not None for e in g.edges()):
        expected = tau.value
    assert minimal_toughness_value(g, tau) == expected


@settings(max_examples=100, deadline=None)
@given(graphs(10), st.data())
def test_invariants_survive_relabeling(g, data):
    # tau, the class verdicts and the minimal toughness value are graph
    # invariants, whatever order the searches meet the vertices in
    h = _relabeled(data.draw, g.n, g.edges())
    assert toughness(h)[0] == toughness(g)[0]
    for verdict in (is_chordal, is_split, is_claw_free, is_2k2_free):
        assert verdict(h).verdict == verdict(g).verdict
    assert minimal_toughness_value(h) == minimal_toughness_value(g)


THRESHOLD_VALUES = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1),
                    Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)]
THRESHOLDS = st.sampled_from(THRESHOLD_VALUES)


def _separates(g, removed, u, v):
    """Whether u and v, both outside ``removed``, lie in different
    components of g - removed, by a depth-first search of its own."""
    left = set(range(g.n)) - set(removed)
    if u not in left or v not in left:
        return False
    seen, stack = {u}, [u]
    while stack:
        for w in g.neighbors(stack.pop()):
            if w in left and w not in seen:
                seen.add(w)
                stack.append(w)
    return v not in seen


def _expected_edge_witness(g, t, e, pool, separating=True):
    """What the search for edge e = uv must give: () for a bridge, else the
    first (size, lex) S in ``pool`` (default: every vertex) that separates
    u and v in G-e with t * c((G-e)-S) > |S|, or the RuntimeError message
    it must raise when there is no such S or S fails the witness
    conditions.  ``separating=False`` gives the reference of the search
    that took the first such S whether it separated u and v or not; at
    t <= tau(G) the two agree."""
    u, v = e
    minus = g.delete_edge(u, v)
    if zoo.omega(minus, ()) > zoo.omega(g, ()):
        return ()
    p, q = t.numerator, t.denominator
    first = next((vs for vs, c in _cutsets(minus, pool) if p * c > q * len(vs)
                  and (not separating or _separates(minus, vs, u, v))), None)
    if first is None:
        return "no witness"
    before, after = zoo.omega(g, first), zoo.omega(minus, first)
    # holds: c(G-S) <= |S|/t < c((G-e)-S) = c(G-S) + 1
    if p * before <= q * len(first) and after == before + 1:
        return first
    return "re-validation failed"


def _check_edge_search(search, g, t, e, pool):
    if zoo.omega(g, ()) >= 2:
        with pytest.raises(ValueError, match="disconnected"):
            search(g, t, e)
        return
    expected = _expected_edge_witness(g, t, e, pool)
    if isinstance(expected, str):
        with pytest.raises(RuntimeError, match=expected):
            search(g, t, e)
        return
    w = search(g, t, e)
    assert w.vertices == frozenset(expected) and w.bridge_case == (expected == ())
    assert w.holds(g, t)


@settings(max_examples=150, deadline=None)
@given(graphs(11), THRESHOLDS, st.data())
def test_edge_deletion_witness_is_first_violating_set(g, t, data):
    e = data.draw(st.sampled_from(g.edges()))
    _check_edge_search(edge_deletion_witness, g, t, e, None)


@settings(max_examples=150, deadline=None)
@given(graphs(11), THRESHOLDS, st.data())
def test_twok2_witness_is_first_violating_set_in_neighborhood(g, t, data):
    u, v = e = data.draw(st.sampled_from(g.edges()))
    hood = sorted((set(g.neighbors(u)) | set(g.neighbors(v))) - {u, v})
    _check_edge_search(twok2_neighborhood_witness, g, t, e, hood)


def _outcome(search, g, t, e):
    """The search's witness set as a sorted tuple, () for a bridge, or the
    part of its RuntimeError message that ``_expected_edge_witness`` gives."""
    try:
        w = search(g, t, e)
    except RuntimeError as exc:
        return "no witness" if "no witness" in str(exc) else "re-validation failed"
    assert w.holds(g, t) and w.bridge_case == (not w.vertices)
    return tuple(sorted(w.vertices))


def test_per_edge_searches_follow_the_separating_contract():
    # every connected labeled graph with n <= 5, every edge and every t of
    # THRESHOLD_VALUES and tau: both searches give the first set of their
    # pool that separates the edge's ends and violates, and at t <= tau
    # that of the search that took the first violating set of the pool.
    # Above tau the contracts part only where that search found no witness
    checked = parted = 0
    for n in range(2, 6):
        for g in _labeled_graphs(n, connected_only=True):
            tau, _ = toughness(g)
            ts = sorted(set(THRESHOLD_VALUES) | ({tau.value} if tau.is_finite else set()))
            for u, v in g.edges():
                hood = sorted((set(g.neighbors(u)) | set(g.neighbors(v))) - {u, v})
                for t, (search, pool) in product(
                        ts, ((edge_deletion_witness, None), (twok2_neighborhood_witness, hood))):
                    got = _outcome(search, g, t, (u, v))
                    assert got == _expected_edge_witness(g, t, (u, v), pool), (g, t, (u, v))
                    whole = _expected_edge_witness(g, t, (u, v), pool, separating=False)
                    if tau >= t:
                        assert got == whole, (g, t, (u, v))
                    elif got != whole:
                        assert isinstance(whole, str), (g, t, (u, v))
                        parted += 1
                    checked += 1
    assert (checked, parted) == (68_744, 2_737)


def test_neighborhood_search_keeps_its_component_bound():
    # the complement of the paths 3-0-2-4 and 5-6; the witness for the edge
    # 0-4 at t = 3/2 is its whole pool {1,3,5,6}, reached after pool sizes
    # that hold cutsets, so a bound k raised past those sizes would skip it
    missing = {(0, 2), (0, 3), (2, 4), (5, 6)}
    g = Graph(7, [e for e in combinations(range(7), 2) if e not in missing])
    t = Fraction(3, 2)
    _check_edge_search(twok2_neighborhood_witness, g, t, (0, 4), [1, 3, 5, 6])
    assert twok2_neighborhood_witness(g, t, (0, 4)).vertices == {1, 3, 5, 6}


def _combinations_cutsets(nbr, pool, need):
    """The cutset scan as it stood before the pruned walk: every subset of a
    size it does not skip is counted.  The reference for ``_cutsets``."""
    n = len(nbr)
    full = (1 << n) - 1
    k = 1
    alpha_sums = None
    for size in range(1, len(pool) + 1):
        least = max(need(size), 2)
        if least > n - size:
            return
        if least > 2:
            if alpha_sums is None:
                alpha_sums = _alpha_sums(nbr, range(n))
            if alpha_sums[size] // k < least:
                continue
        cut_seen = False
        for combo in combinations(pool, size):
            removed = 0
            for v in combo:
                removed |= 1 << v
            omega = component_count(nbr, full ^ removed)
            if omega >= 2:
                cut_seen = True
                if omega >= least:
                    yield combo, omega
        if not cut_seen:
            k = size + 1


def _driven(scan, nbr, pool, caller, t, live=False):
    """Every (S, c) that ``scan`` yields to a caller asking for components
    as ``toughness``, ``is_t_tough`` or the first-violating-set search does,
    with the callers' incumbents updated after each yield.  With ``live``,
    a set is dropped when c falls below the need at the moment it arrives:
    the stream of a scan that re-reads the need after every set, from one
    that reads it once a size."""
    p, q = t.numerator, t.denominator
    best = [len(nbr), 1, 0]  # toughness's ratio num/den, is_t_tough's score
    need = {
        "toughness": lambda size: size * best[1] // best[0] + 1,
        "is_t_tough": lambda size: (best[2] + q * size) // p + 1,
        "first": lambda size: q * size // p + 1,
    }[caller]
    seen = []
    for combo, omega in scan(nbr, pool, need):
        if live and omega < need(len(combo)):
            continue
        seen.append((combo, omega))
        if len(combo) * best[1] < best[0] * omega:
            best[:2] = len(combo), omega
        best[2] = max(best[2], p * omega - q * len(combo))
    return seen


@st.composite
def gnp(draw, min_n, max_n, densities=(0.2, 0.3, 0.4, 0.5, 0.6, 0.7)):
    n = draw(st.integers(min_n, max_n))
    p = draw(st.sampled_from(densities))
    edges = [e for e in combinations(range(n), 2) if draw(st.floats(0, 1)) < p]
    return Graph(n, edges)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(circulants(16, 11), trees_with_chords(16, 11), gnp(11, 16)),
    st.sampled_from(["toughness", "is_t_tough", "first"]),
    THRESHOLDS,
    st.data(),
)
def test_walk_yields_the_combinations_scan(g, caller, t, data):
    # graphs of 11-16 vertices, so that the sizes past the walk's subset
    # threshold take the pruned walk; the pools are every vertex, or, in
    # G - e, every vertex but e's ends or the ends' neighbourhood.  The scan
    # yields the plain scan's twin-class unions over the tight pool that meet
    # the caller's need when they arrive, in the same order, and the caller's
    # answer is the unfiltered plain scan's over the pool
    assume(g.is_connected() and not g.is_complete())
    u, v = data.draw(st.sampled_from(g.edges()))
    minus = g.delete_edge(u, v)
    runs = [(g, range(g.n))]
    if minus.is_connected():
        hood = sorted((set(g.neighbors(u)) | set(g.neighbors(v))) - {u, v})
        runs += [(minus, [x for x in range(g.n) if x not in (u, v)]), (minus, hood)]
    for h, pool in runs:
        tight, twins = _tight_pool(h._nbr, pool)
        unions = _class_unions(twins or [1 << v for v in range(h.n)])
        seen = _driven(_cutsets_under_test, h._nbr, pool, caller, t)
        assert seen == _driven(unions, h._nbr, tight, caller, t, live=True)
        full = _driven(_combinations_cutsets, h._nbr, pool, caller, t)
        assert _answer(seen, caller, t) == _answer(full, caller, t)


# The walk's component counts on V - {u, v} and on N({u, v}) - {u, v}, the
# budgets below.  A walk that starts without N(V - pool) in its reach, a
# sound but weaker K/L bound, made 632/374, 632/374, 205/150, 638/376,
# 205/150 and 894/480 in the same order.
_RESTRICTED_POOL_BUDGETS = {
    ("toughness", Fraction(3, 2)): (269, 180),
    ("toughness", Fraction(6)): (269, 180),
    ("is_t_tough", Fraction(3, 2)): (126, 103),
    ("is_t_tough", Fraction(6)): (271, 182),
    ("first", Fraction(3, 2)): (126, 103),
    ("first", Fraction(6)): (474, 277),
}


@pytest.mark.parametrize("caller", ["toughness", "is_t_tough", "first"])
@pytest.mark.parametrize("t", [Fraction(3, 2), Fraction(6)])
def test_walk_on_restricted_pools_yields_the_combinations_scan(monkeypatch, caller, t):
    # a dense G(16, 0.6) less an edge uv, scanned over V - {u, v} and
    # N({u, v}) - {u, v}: the walk starts with the vertices outside the pool
    # in K, which the hypothesis test above reaches only on its larger draws;
    # the walk's counter raises past its budget
    rng = random.Random(1)
    g = Graph(16, [e for e in combinations(range(16), 2) if rng.random() < 0.6])
    u, v = g.edges()[0]
    minus = g.delete_edge(u, v)
    hood = sorted((set(g.neighbors(u)) | set(g.neighbors(v))) - {u, v})
    work = [0, 0]  # component counts of the scan under test and the reference
    budget = 0

    def counter(i, count):
        def counted(nbr, pool):
            work[i] += 1
            assert i or work[0] <= budget, "the walk ran past its component-count budget"
            return count(nbr, pool)

        return counted

    module = importlib.import_module("toughkit.toughness")
    for name in ("component_count", "table_component_count"):
        monkeypatch.setattr(module, name, counter(0, getattr(module, name)))
    monkeypatch.setitem(globals(), "component_count", counter(1, component_count))
    pools = ([x for x in range(g.n) if x not in (u, v)], hood)
    for pool, budget in zip(pools, _RESTRICTED_POOL_BUDGETS[caller, t]):
        assert max(comb(len(pool), size) for size in range(len(pool))) > 200
        work[:] = 0, 0
        walked = _driven(_cutsets_under_test, minus._nbr, pool, caller, t)
        assert walked == _driven(_combinations_cutsets, minus._nbr, pool, caller, t)
        assert work[0] < work[1]  # the walk dropped sets, so it ran


@st.composite
def dense_circulants(draw, min_n, max_n):
    # C_n(1,2) and C_n(1,2,3): the common neighbours of an edge's ends are
    # the ones every separating set must hold
    n = draw(st.integers(min_n, max_n))
    steps = draw(st.sampled_from([(1, 2), (1, 2, 3)]))
    edges = {tuple(sorted((i, (i + d) % n))) for i in range(n) for d in steps}
    return _relabeled(draw, n, edges)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(dense_circulants(11, 16), gnp(11, 16, (0.3, 0.45, 0.6, 0.75))),
    st.data(),
)
def test_separating_scan_yields_the_separating_combinations(g, data):
    # with apart = (u, v), the scan of V - {u, v} in G - uv yields exactly
    # the reference's sets that leave u and v apart, i.e. that make uv a
    # bridge of G - S, in the same order, at every threshold's per-edge
    # need; from 12 vertices on the larger sizes take the walk
    assume(g.is_connected())
    u, v = data.draw(st.sampled_from(g.edges()))
    minus = g.delete_edge(u, v)
    assume(minus.is_connected())
    pools = [[x for x in range(g.n) if x not in (u, v)]]
    shared = set(g.neighbors(u)) & set(g.neighbors(v))
    if shared:  # a pool without a common neighbour separates nothing
        pools.append([x for x in pools[0] if x != min(shared)])
    for pool, t in product(pools, THRESHOLD_VALUES):
        p, q = t.numerator, t.denominator

        def need(size):
            return q * size // p + 1

        expected = [
            (vs, c)
            for vs, c in _combinations_cutsets(minus._nbr, pool, need)
            if zoo.omega(g, vs) < c
        ]
        assert list(_cutsets_under_test(minus._nbr, pool, need, (u, v))) == expected


def test_separating_scan_keeps_k_at_one():
    # in G - 12, {3} = N(1) & N(2) is no cutset and every other 1-set misses
    # it; were k raised to 2 after size 1, A_2 // 2 < 3 would skip size 2
    # and lose {0,3}, which leaves 3 components at t = 1
    g = Graph(6, [(0, 2), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3)])
    minus = g.delete_edge(1, 2)
    scan = _cutsets_under_test(minus._nbr, [0, 3, 4, 5], lambda size: size + 1, (1, 2))
    assert list(scan) == [((0, 3), 3)]


@st.composite
def complete_multipartite(draw, min_n, max_n):
    # each vertex draws one of up to six parts; the parts are the twin classes
    n = draw(st.integers(min_n, max_n))
    part = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2) if part[u] != part[v]])


@st.composite
def blow_ups(draw, min_n, max_n):
    # a graph on 3-6 vertices, each replaced by a clique or an independent
    # set of 1-4 vertices; two blobs are joined when their base vertices are
    base = draw(st.integers(3, 6))
    base_edges = draw(st.sets(st.sampled_from(list(combinations(range(base), 2)))))
    sizes = draw(st.lists(st.integers(1, 4), min_size=base, max_size=base))
    cliques = draw(st.lists(st.booleans(), min_size=base, max_size=base))
    assume(min_n <= sum(sizes) <= max_n)
    blob = [x for x in range(base) for _ in range(sizes[x])]
    edges = [
        (u, v) for u, v in combinations(range(len(blob)), 2)
        if (blob[u], blob[v]) in base_edges or blob[u] == blob[v] and cliques[blob[u]]
    ]
    return _relabeled(draw, len(blob), edges)


@st.composite
def split_graphs(draw, min_n, max_n):
    # a clique on the first vertices, an independent set on the rest
    n = draw(st.integers(min_n, max_n))
    clique = draw(st.integers(2, n - 2))
    cross = [(u, v) for u in range(clique) for v in range(clique, n)]
    edges = set(combinations(range(clique), 2)) | draw(st.sets(st.sampled_from(cross)))
    return _relabeled(draw, n, edges)


@st.composite
def chordal_graphs(draw, min_n, max_n):
    # each new vertex joins a clique of earlier ones: part of a neighbourhood
    # N[u], kept a clique, so the reverse order eliminates simplicial vertices
    n = draw(st.integers(min_n, max_n))
    hood = [set() for _ in range(n)]
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        chosen = {u}
        for w in sorted(hood[u]):
            if chosen <= hood[w] and draw(st.booleans()):
                chosen.add(w)
        for w in chosen:
            hood[w].add(v)
            hood[v].add(w)
    return _relabeled(draw, n, [(u, v) for v in range(n) for u in hood[v] if u < v])


def _class_unions(twins):
    """A scan with the same arguments as ``_combinations_cutsets`` that
    yields only its sets that are unions of the classes in ``twins``."""
    def scan(nbr, pool, need):
        for combo, omega in _combinations_cutsets(nbr, pool, need):
            removed = closed = 0
            for v in combo:
                removed |= 1 << v
                closed |= twins[v]
            if closed == removed:
                yield combo, omega

    return scan


def _answer(seen, caller, t):
    """The caller's answer from the (S, c) its scan yielded: the first
    least |S|/c, the first largest positive p*c - q*|S|, or the first set."""
    p, q = t.numerator, t.denominator
    if caller == "toughness":
        return min(seen, key=lambda s: Fraction(len(s[0]), s[1]), default=None)
    if caller == "is_t_tough":
        best = max(seen, key=lambda s: p * s[1] - q * len(s[0]), default=None)
        return best if best and p * best[1] > q * len(best[0]) else None
    return seen[0] if seen else None


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        complete_multipartite(6, 16), blow_ups(6, 16), split_graphs(6, 16),
        chordal_graphs(6, 16),
    ),
    st.sampled_from(["toughness", "is_t_tough", "first"]),
    THRESHOLDS,
)
def test_twin_scan_yields_the_class_unions_of_the_combinations_scan(g, caller, t):
    # given every vertex, the scan (its walk on the larger pools) yields the
    # plain scan's class unions over the tight pool that meet the caller's
    # need when they arrive, in the same order; and the caller's answer is
    # the full scan's
    assume(g.is_connected() and not g.is_complete())
    pool, twins = _tight_pool(g._nbr, range(g.n))
    unions = _class_unions(twins or [1 << v for v in range(g.n)])
    seen = _driven(_cutsets_under_test, g._nbr, range(g.n), caller, t)
    assert seen == _driven(unions, g._nbr, pool, caller, t, live=True)
    full = _driven(_combinations_cutsets, g._nbr, range(g.n), caller, t)
    assert _answer(seen, caller, t) == _answer(full, caller, t)


def test_class_unions_keep_k_until_a_size_holds_one():
    # 0 hangs off 5, which sees 1-4; {1, 2} and {3, 4} are twin classes.
    # Size 1 holds the cutset {5}, size 2 no union of classes.  Were k raised
    # to 3 there, A_3 // 3 = 7 // 3 < 3 would skip size 3 and lose {1, 2, 5},
    # which leaves 0, 3 and 4 apart and is the witness at t = 5/2.  Its score
    # 5 * 3 - 2 * 3 = 9 raises the need at size 3 to (9 + 2 * 3) // 5 + 1 = 4,
    # so {3, 4, 5}, which leaves 3 components, is no longer yielded
    g = Graph(6, [(0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 5), (4, 5)])
    pool, twins = _tight_pool(g._nbr, range(g.n))
    assert pool == [1, 2, 3, 4, 5] and [twins[v] for v in pool] == [6, 6, 24, 24, 32]
    t = Fraction(5, 2)
    seen = _driven(_cutsets_under_test, g._nbr, range(g.n), "is_t_tough", t)
    assert seen == [((5,), 2), ((1, 2, 5), 3)]
    assert is_t_tough(g, t)[1].vertices == {1, 2, 5}


def _alpha_by_brute_force(g):
    return max(
        size
        for size in range(g.n + 1)
        for vs in combinations(range(g.n), size)
        if not any(g.has_edge(a, b) for a, b in combinations(vs, 2))
    )


def test_walk_bounds_hold_on_every_connected_graph_up_to_5():
    # for every cutset S: kappa * c <= deg(S) - 2e(S), c <= deg(S) - e(S)
    # - |S| + 1 and c <= alpha(G); and for every split of 0..n-1 into a
    # prefix and a suffix, with K = prefix - S: c <= c(G[K]) + |suffix \ N(K)|
    for n in range(3, 6):
        for g in _labeled_graphs(n, connected_only=True):
            if g.is_complete():
                continue
            kappa = vertex_connectivity(g).value
            alpha = _alpha_by_brute_force(g)
            for vs, c in _cutsets(g):
                deg = sum(g.degree(v) for v in vs)
                inner = sum(g.has_edge(a, b) for a, b in combinations(vs, 2))
                assert kappa * c <= deg - 2 * inner
                assert c <= deg - inner - len(vs) + 1
                assert c <= alpha
                for j in range(g.n + 1):
                    kept = set(range(j)) - set(vs)
                    reach = {w for u in kept for w in g.neighbors(u)}
                    free = set(range(j, g.n)) - reach
                    assert c <= zoo.omega(g, set(range(g.n)) - kept) + len(free)


@settings(max_examples=100, deadline=None)
@given(st.one_of(graphs(12), gnp(4, 12)), THRESHOLDS, st.data())
def test_returned_witnesses_revalidate(g, t, data):
    # every WitnessSet of toughness and is_t_tough rebuilds from the graph,
    # and every EdgeWitness of the two per-edge searches holds
    for _, w in (toughness(g), is_t_tough(g, t)):
        assert w is None or w.revalidate(g)
    if not g.is_connected() or not g.edges():
        return
    e = data.draw(st.sampled_from(g.edges()))
    for search in (edge_deletion_witness, twok2_neighborhood_witness):
        try:
            w = search(g, t, e)
        except RuntimeError:
            continue  # no set at this t, or the set fails the conditions
        assert w.holds(g, t)


def _unseeded_toughness(g):
    """(tau, S*, c(G - S*)) from the search that starts at the ratio n/1,
    which every cutset beats, and keeps each strict improvement."""
    one = Fraction(1)
    combo, omega = _answer(
        _driven(_cutsets_under_test, g._nbr, range(g.n), "toughness", one), "toughness", one
    )
    return Fraction(len(combo), omega), frozenset(combo), omega


def test_seeded_toughness_matches_the_unseeded_search():
    # every connected noncomplete labeled graph with n <= 6 and class with
    # n = 7: the search seeded by V - I gives the unseeded value and witness
    graphs = [g for n in range(3, 7) for g in _labeled_graphs(n, connected_only=True)]
    graphs += list(enumerate_connected_graphs(7, dedup=True))
    for g in graphs:
        if not g.is_complete():
            tau, w = toughness(g)
            assert (tau.value, w.vertices, w.component_count) == _unseeded_toughness(g), g


@settings(max_examples=120, deadline=None)
@given(st.one_of(graphs(13), gnp(2, 13)))
def test_seeded_toughness_matches_the_oracle_and_the_unseeded_search(g):
    tau, w = toughness(g)
    assert tau == naive_toughness_oracle(g)
    if tau.is_finite:
        assert (tau.value, w.vertices, w.component_count) == _unseeded_toughness(g)
