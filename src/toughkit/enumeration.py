"""Exhaustive enumeration of small graphs, with canonical-form deduplication.

The canonical form of a graph is the lexicographically minimal adjacency
encoding over all vertex permutations, in the same upper-triangle
column-major bit order used by the graph6 format.  One pruned depth-first
search over vertex placements (``_min_encoding``) computes it, and also the
cheaper ``_certificate``, which searches only the orderings that respect the
colour-refined vertex partition.  The isomorph-free enumeration grows
connected graphs one vertex v at a time and drops a child when a non-cut
vertex outranks v by (degree, sorted neighbour degrees), the first test of
canonical augmentation (McKay 1998; proof at ``_dedup_levels``).
Survivors are told apart by certificate and canonicalized once per class.
Desk scale only.
"""

from __future__ import annotations

from itertools import combinations, islice
from typing import Iterator

from .graph6 import graph_from_key
from .graphs import Graph, component_count, component_masks

MAX_DEDUP_N = 8
MAX_LABELED_N = 7


def canonical_key(g: Graph) -> int:
    """Lexicographically minimal adjacency encoding, as an integer.

    Bits are ordered (0,1), (0,2), (1,2), (0,3), ... with the first pair in
    the most significant position, so integer comparison matches
    lexicographic comparison of equal-length bit strings.  The search is
    exponential on sparse graphs with many near-ties: it did not finish in
    30 s on a 39-vertex comb tree.  On the CLI path only the dedup
    enumeration (n <= 8) calls it.
    """
    return _min_encoding(g._nbr, [(1 << g.n) - 1] * g.n)


def _min_encoding(nbr: tuple[int, ...], cells: list[int]) -> int:
    """Least adjacency encoding over the orderings whose k-th vertex lies in
    the vertex mask ``cells[k]``.

    ``cells`` holds either all vertices at every position or an ordered
    partition, each cell repeated once per member.  Placing a vertex at
    position k appends its k-bit column, so under one prefix only the
    candidates with the least column can reach the minimum.  A vertex is
    skipped while a lower-indexed twin (N(v) - w == N(w) - v) is unplaced in
    the same cell: swapping the two is an automorphism that fixes every
    placed vertex and every cell, so both branches give the same encodings.
    """
    n = len(nbr)
    total = n * (n - 1) // 2
    low_twins = [
        sum(1 << w for w in range(v) if nbr[v] & ~(1 << w) == nbr[w] & ~(1 << v))
        for v in range(n)
    ]
    best = 1 << total  # above every encoding
    placed: list[int] = []

    def extend(prefix: int, used: int) -> None:
        nonlocal best
        k = len(placed)
        if k == n:
            best = prefix
            return
        free = cells[k] & ~used
        least, ties = 1 << k, []
        for v in range(n):
            if not free >> v & 1 or low_twins[v] & free:
                continue
            col = 0
            nv = nbr[v]
            for u in placed:
                col = col << 1 | (nv >> u & 1)
            if col < least:
                least, ties = col, [v]
            elif col == least:
                ties.append(v)
        prefix = prefix << k | least
        shift = total - k * (k + 1) // 2
        for v in ties:
            if prefix > best >> shift:
                return
            placed.append(v)
            extend(prefix, used | 1 << v)
            placed.pop()

    extend(0, 0)
    return best


def _certificate(nbr: tuple[int, ...]) -> int:
    """A complete isomorphism invariant, cheaper to compute than the key.

    Colour refinement starts from the degrees; each round ranks every
    vertex by (colour, sorted neighbour colours) until the number of colours
    stops growing.  The ordered partition is isomorphism-invariant, and the
    least encoding over orderings that respect it is that of a relabeled
    copy, so two graphs on n vertices have equal certificates exactly when
    they are isomorphic.
    """
    n = len(nbr)
    colour = [m.bit_count() for m in nbr]
    count = len(set(colour))
    adj = [[u for u in range(n) if m >> u & 1] for m in nbr]
    while True:
        sigs = [(colour[v], tuple(sorted([colour[u] for u in adj[v]]))) for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colour = [rank[s] for s in sigs]
        if len(rank) == count:
            break
        count = len(rank)
    cells = [0] * count
    for v in range(n):
        cells[colour[v]] |= 1 << v
    return _min_encoding(nbr, [cells[c] for c in sorted(colour)])


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


def _is_canonical_deletion(masks: tuple[int, ...]) -> bool:
    """False when a non-cut vertex outranks the last vertex by (degree,
    sorted neighbour degrees)."""
    v = len(masks) - 1
    deg = [m.bit_count() for m in masks]

    def nbr_degrees(x: int) -> list[int]:
        return sorted(deg[u] for u in range(v + 1) if masks[x] >> u & 1)

    mine = None
    for w in range(v):
        if deg[w] == deg[v]:
            mine = mine or nbr_degrees(v)
        outranks = deg[w] > deg[v] or deg[w] == deg[v] and nbr_degrees(w) > mine
        if outranks and component_count(masks, (2 << v) - 1 ^ 1 << w) == 1:
            return False
    return True


def _dedup_levels() -> Iterator[list[Graph]]:
    """Level k = 1, 2, ...: a canonical representative per connected class, in key order.

    Every connected graph has a non-cut vertex, whose deletion leaves a
    connected graph, so attaching a new vertex v to every non-empty neighbor
    subset of every connected (k-1)-representative reaches every connected
    class on k vertices.  A child is dropped before it is certified unless
    ``_is_canonical_deletion``.  No class is lost: let m be a non-cut vertex
    of largest invariant in a connected G; G - m is connected, so some
    representative P is isomorphic to it, and the child of P that is G with
    its new vertex at m is kept.  Survivors are told apart by
    ``_certificate``; the lex-min key is computed once per class.
    """
    k, classes = 1, {0: (0,)}
    while True:
        keys = sorted(canonical_key(Graph._from_masks(k, m)) for m in classes.values())
        reps = [graph_from_key(k, key) for key in keys]
        yield reps
        k, classes = k + 1, {}
        for g in reps:
            for sub in range(1, 1 << (k - 1)):
                masks = tuple(m | (sub >> i & 1) << (k - 1) for i, m in enumerate(g._nbr))
                masks += (sub,)
                if _is_canonical_deletion(masks):
                    classes.setdefault(_certificate(masks), masks)


def enumerate_connected_graphs(n: int, dedup: bool) -> Iterator[Graph]:
    """Stream the connected graphs on exactly n vertices.

    dedup=False yields every labeled connected graph once, in increasing
    order of the edge bitmask; dedup=True yields one canonically labeled
    representative per isomorphism class, in increasing canonical-key order.
    """
    _check_n(n, dedup)
    yield from (next(islice(_dedup_levels(), n - 1, None)) if dedup
                else _labeled_graphs(n, connected_only=True))


def _check_n(n: int, dedup: bool) -> None:
    """ValueError unless 1 <= n <= the cap of the mode, dedup or labeled."""
    if n < 1:
        raise ValueError("enumeration needs n >= 1")
    kind, cap = ("dedup", MAX_DEDUP_N) if dedup else ("labeled", MAX_LABELED_N)
    if n > cap:
        raise ValueError(f"{kind} enumeration capped at n <= {cap}")


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
