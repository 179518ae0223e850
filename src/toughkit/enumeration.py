"""Exhaustive enumeration of small graphs, with canonical-form deduplication.

The canonical form of a graph is the lexicographically minimal adjacency
encoding over all vertex permutations, in the same upper-triangle
column-major bit order used by the graph6 format.  It is computed by a
depth-first search over vertex placements: candidates at each position are
tried in order of (column bits, degree, index) and a branch is pruned as
soon as its bit prefix exceeds the incumbent, so the search is exact but
rarely explores more than a few permutations.  Desk scale only.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from .graphs import Graph, component_count, component_masks

MAX_DEDUP_N = 8
MAX_LABELED_N = 7


def canonical_key(g: Graph) -> int:
    """Lexicographically minimal adjacency encoding, as an integer.

    Bits are ordered (0,1), (0,2), (1,2), (0,3), ... with the first pair in
    the most significant position, so integer comparison matches
    lexicographic comparison of equal-length bit strings.
    """
    n = g.n
    if n < 2:
        return 0
    nbr = g._nbr
    total = n * (n - 1) // 2
    # Greedy first incumbent: vertices by ascending degree.
    order = sorted(range(n), key=lambda v: (nbr[v].bit_count(), v))
    best = _encode_order(nbr, order)

    def extend(prefix: int, placed: list[int], used: int, length: int) -> None:
        nonlocal best
        k = len(placed)
        if k == n:
            if prefix < best:
                best = prefix
            return
        cands = []
        for v in range(n):
            if used >> v & 1:
                continue
            col = 0
            nv = nbr[v]
            for u in placed:
                col = col << 1 | (nv >> u & 1)
            cands.append((col, nv.bit_count(), v))
        cands.sort()
        for col, _, v in cands:
            new_prefix = prefix << k | col
            new_len = length + k
            if new_prefix > best >> (total - new_len):
                continue
            placed.append(v)
            extend(new_prefix, placed, used | 1 << v, new_len)
            placed.pop()

    extend(0, [], 0, 0)
    return best


def _encode_order(nbr: tuple[int, ...], order: list[int]) -> int:
    val = 0
    for j in range(1, len(order)):
        vj = order[j]
        for i in range(j):
            val = val << 1 | (nbr[order[i]] >> vj & 1)
    return val


def graph_from_key(n: int, key: int) -> Graph:
    """Rebuild a graph from its adjacency-encoding integer."""
    masks = [0] * n
    shift = n * (n - 1) // 2
    for j in range(1, n):
        for i in range(j):
            shift -= 1
            if key >> shift & 1:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return Graph._from_masks(n, tuple(masks))


def canonical_graph(g: Graph) -> Graph:
    """A canonically labeled copy of ``g`` (isomorphic graphs map to equal copies)."""
    return graph_from_key(g.n, canonical_key(g))


def _labeled_graphs(n: int, connected_only: bool) -> Iterator[Graph]:
    pairs = list(combinations(range(n), 2))
    nbits = len(pairs)
    full = (1 << n) - 1
    for bits in range(1 << nbits):
        masks = [0] * n
        b = bits
        while b:
            low = b & -b
            b ^= low
            i, j = pairs[low.bit_length() - 1]
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        if connected_only and component_count(masks, full) != 1:
            continue
        yield Graph._from_masks(n, tuple(masks))


def _dedup_representatives(n: int) -> list[Graph]:
    """One canonically labeled representative per isomorphism class, all graphs.

    Built level by level: every graph on k vertices arises from a graph on
    k-1 vertices by attaching one new vertex to some neighbor subset, so
    augmenting every (k-1)-representative with every subset and
    canonicalizing covers every class on k vertices.
    """
    reps = [Graph(1)]
    for k in range(2, n + 1):
        seen: dict[int, None] = {}
        for g in reps:
            base = list(g._nbr) + [0]
            for sub in range(1 << (k - 1)):
                masks = base.copy()
                masks[k - 1] = sub
                s = sub
                while s:
                    b = s & -s
                    s ^= b
                    masks[b.bit_length() - 1] |= 1 << (k - 1)
                key = canonical_key(Graph._from_masks(k, tuple(masks)))
                if key not in seen:
                    seen[key] = None
        reps = [graph_from_key(k, key) for key in sorted(seen)]
    return reps


def enumerate_connected_graphs(n: int, dedup: bool) -> Iterator[Graph]:
    """Stream the connected graphs on exactly n vertices.

    dedup=False yields every labeled connected graph once, in increasing
    order of the edge bitmask; dedup=True yields one canonically labeled
    representative per isomorphism class, in increasing canonical-key order.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if dedup:
        if n > MAX_DEDUP_N:
            raise ValueError(f"dedup enumeration capped at n <= {MAX_DEDUP_N}")
        for g in _dedup_representatives(n):
            if g.is_connected():
                yield g
    else:
        if n > MAX_LABELED_N:
            raise ValueError(f"labeled enumeration capped at n <= {MAX_LABELED_N}")
        yield from _labeled_graphs(n, connected_only=True)


# -- trees ---------------------------------------------------------------------


def _tree_key(g: Graph) -> tuple:
    """Canonical form of a tree via rooted-subtree sorting at the centroid(s)."""

    def rooted(v: int, parent: int) -> tuple:
        return tuple(sorted(rooted(w, v) for w in g.neighbors(v) if w != parent))

    # Centroid(s): vertices minimizing the largest branch, that is the largest
    # component left when the vertex is removed.  O(n^2), n is tiny.
    full = (1 << g.n) - 1
    centroids: list[int] = []
    best_weight = g.n + 1
    for v in range(g.n):
        branches = component_masks(g._nbr, full ^ (1 << v))
        heaviest = max((m.bit_count() for m in branches), default=0)
        if heaviest < best_weight:
            best_weight = heaviest
            centroids = [v]
        elif heaviest == best_weight:
            centroids.append(v)
    return min(rooted(c, -1) for c in centroids)


def enumerate_trees(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of trees on n vertices.

    Grown by leaf attachment with canonical deduplication, so this works past
    the general dedup cap.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    level = [Graph(1)]
    for k in range(2, n + 1):
        seen: dict[tuple, Graph] = {}
        for t in level:
            for v in range(t.n):
                grown = Graph(k, t.edges() + [(v, k - 1)])
                key = _tree_key(grown)
                if key not in seen:
                    seen[key] = grown
        level = [seen[key] for key in sorted(seen)]
    yield from level
