"""Property tests of the pruned subset searches against brute force.

The graphs are sparse or structured (trees with a few chords, circulants
C_n(a, b)) under random vertex relabelings: the inputs on which the
kappa/alpha cutoffs of the searches fire.  The brute-force references scan
every vertex subset with their own component count.
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from toughkit import (
    Graph,
    is_t_tough,
    minimal_toughness_value,
    naive_toughness_oracle,
    toughness,
)


def _relabeled(draw, n, edges):
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


@st.composite
def trees_with_chords(draw, max_n):
    n = draw(st.integers(2, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    chords = st.sampled_from(list(combinations(range(n), 2)))
    edges |= set(draw(st.lists(chords, max_size=3)))
    return _relabeled(draw, n, edges)


@st.composite
def circulants(draw, max_n):
    n = draw(st.integers(4, max_n))
    a = draw(st.integers(1, n // 2))
    b = draw(st.integers(1, n // 2))
    edges = {tuple(sorted((i, (i + d) % n))) for i in range(n) for d in (a, b)}
    return _relabeled(draw, n, edges)


def graphs(max_n):
    return st.one_of(trees_with_chords(max_n), circulants(max_n))


def _omega(g, removed):
    """Components of g - removed, by a depth-first search of its own."""
    left = set(range(g.n)) - set(removed)
    count = 0
    while left:
        count += 1
        stack = [left.pop()]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if w in left:
                    left.remove(w)
                    stack.append(w)
    return count


def _cutsets(g):
    """(S, c(G - S)) for every cutset S, by size and then lexicographically."""
    for size in range(1, g.n - 1):
        for vs in combinations(range(g.n), size):
            omega = _omega(g, vs)
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
    if _omega(g, ()) >= 2:
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
