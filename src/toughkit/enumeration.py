"""Exhaustive enumeration of small graphs, with canonical-form deduplication.

The canonical form of a graph is the lexicographically minimal adjacency
encoding over all vertex permutations, in the same upper-triangle
column-major bit order used by the graph6 format.  One pruned depth-first
search over vertex placements (``_min_encoding``) computes it, and also the
cheaper ``_certificate``, which searches only the orderings that respect the
equitable vertex partition that ``_refine`` gives.  The isomorph-free
enumeration grows connected graphs one vertex v at a time and drops a child
when a non-cut vertex outranks v by (degree, sorted neighbour degrees), the
first test of canonical augmentation (McKay 1998; proof at
``_dedup_levels``).  Survivors are told apart by certificate and
canonicalized once per class.  ``_automorphisms`` finds automorphisms in
polynomial time by the same refinement and individualization without
backtracking; they give the edge orbits of the dedup sweep and of the
single-graph queries, whose graphs may lie far past the dedup cap.  Desk
scale only.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, islice
from typing import Iterator

from .graph6 import graph_from_key
from .graphs import Graph, component_count, component_masks, edge, mask_to_tuple

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
            best = min(best, prefix)
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

    ``_refine`` makes the unit partition equitable.  The ordered partition
    is isomorphism-invariant, and the least encoding over orderings that
    respect it is that of a relabeled copy, so two graphs on n vertices
    have equal certificates exactly when they are isomorphic.
    """
    cells = [(1 << len(nbr)) - 1]
    _refine(nbr, cells, deque(cells))
    return _min_encoding(nbr, [x for x in cells for _ in range(x.bit_count())])


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


def _refine(nbr: tuple[int, ...], cells: list[int], queue: deque[int]) -> None:
    """Refine the ordered partition ``cells`` (vertex masks) in place until
    it is equitable: the vertices of a cell have equally many neighbours in
    every cell.

    Each splitter W taken from ``queue`` splits every cell by the number of
    neighbours in W, into fragments in count order.  All fragments but the
    first largest join the queue; the counts into that one follow from its
    parent's and its siblings' (Hopcroft 1971).  So ``queue`` must start
    as the unit cell, or as the vertex just split off an equitable
    partition.  Every step depends only on counts, sizes and positions, so
    relabeling the graph relabels the result.
    """
    while queue:
        w = queue.popleft()
        i = 0
        while i < len(cells):
            x = cells[i]
            i += 1
            if not x & (x - 1):
                continue
            parts: dict[int, int] = {}
            while x:
                low = x & -x
                x ^= low
                count = (nbr[low.bit_length() - 1] & w).bit_count()
                parts[count] = parts.get(count, 0) | low
            if len(parts) > 1:
                split = [parts[c] for c in sorted(parts)]
                cells[i - 1:i] = split
                big = max(split, key=int.bit_count)
                queue.extend(p for p in split if p != big)
                i += len(split) - 1


def _individualized(nbr: tuple[int, ...], cells: list[int], i: int, v: int) -> list[int]:
    """A copy of the equitable ``cells`` with v split off ahead of the rest
    of ``cells[i]``, refined."""
    cells = cells[:i] + [1 << v, cells[i] ^ 1 << v] + cells[i + 1:]
    _refine(nbr, cells, deque([1 << v]))
    return cells


def _automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Automorphisms p of g (vertex i to p[i]) for ``_edge_orbits``, found
    by individualization and refinement (McKay & Piperno 2014) without
    backtracking.

    The first path individualizes the first vertex v of the first
    non-singleton cell of the equitable partition until it is discrete.
    Then, deepest level first, each other vertex w of that level's cell
    that the orbits found so far do not already join to v is individualized
    instead, and followed down the same rule to one leaf.  The map from the
    first leaf to it is kept only if it is an automorphism.  Every map kept
    so far fixes the vertices individualized above the current level, so
    their orbits are orbits of that level's stabilizer.  The work is
    polynomial; a group the harvest misses costs only work (README, "Edge
    orbits").
    """
    nbr, n = g._nbr, g.n
    edges = g.edges()
    cells = [(1 << n) - 1] if n else []
    _refine(nbr, cells, deque(cells))
    path: list[tuple[list[int], int]] = []  # (cells, target index) per level

    def leaf(cells: list[int], record: list | None = None) -> list[int]:
        while len(cells) < n:
            i = next(i for i, x in enumerate(cells) if x & (x - 1))
            if record is not None:
                record.append((cells, i))
            cells = _individualized(nbr, cells, i, (cells[i] & -cells[i]).bit_length() - 1)
        return [x.bit_length() - 1 for x in cells]

    first = leaf(cells, path)
    orbit = list(range(n))
    found = []
    for cells, i in reversed(path):
        v = (cells[i] & -cells[i]).bit_length() - 1
        for w in mask_to_tuple(cells[i]):
            if orbit[w] == orbit[v]:
                continue
            p = [0] * n
            for a, b in zip(first, leaf(_individualized(nbr, cells, i, w))):
                p[a] = b
            if all(nbr[p[a]] >> p[b] & 1 for a, b in edges):
                found.append(tuple(p))
                for a in range(n):  # join the orbits of a and p[a]
                    x, y = orbit[a], orbit[p[a]]
                    if x != y:
                        orbit = [x if o == y else o for o in orbit]
    return found


def _edge_orbits(g: Graph, automorphisms: list[tuple[int, ...]]) -> tuple[int, ...]:
    """For each edge of g, in ``g.edges()`` order, the index of the first
    edge of its orbit under the group the permutations generate."""
    edges = g.edges()
    index = {e: i for i, e in enumerate(edges)}
    lead = [-1] * len(edges)
    for i, e in enumerate(edges):
        if lead[i] >= 0:
            continue
        lead[i], todo = i, [e]
        while todo:  # the closure of e's orbit under the permutations
            u, v = todo.pop()
            for p in automorphisms:
                j = index[edge(p[u], p[v])]
                if lead[j] < 0:
                    lead[j] = i
                    todo.append(edges[j])
    return tuple(lead)


def _dedup_levels() -> Iterator[list[Graph]]:
    """Level k = 1, 2, ...: a canonical representative per connected class,
    in key order.

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
        reps = [graph_from_key(k, key) for key in
                sorted(canonical_key(Graph._from_masks(k, m)) for m in classes.values())]
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
