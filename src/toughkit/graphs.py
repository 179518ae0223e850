"""Immutable simple graphs on small vertex sets, plus basic structure queries.

Vertices are the integers 0..n-1 and neighborhoods are stored as bitmasks,
which keeps the exhaustive subset searches used elsewhere in the package
cheap.  ``Graph()`` admits up to ``MAX_VERTEX_CAP`` (64) vertices, so a
vertex set fits in one word; the lower cap on input is an argument of the
``graph6`` parsers.  Components, bridges and blocks all come from one
component search (``component_count``/``component_masks``), which the
cutset walk runs by table lookup (``table_component_count``); the max-flow
search behind ``vertex_connectivity`` is the only other traversal.  Graphs
are immutable, every function here is pure and the module holds no state,
so graphs and results are safe to share.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

MAX_VERTEX_CAP = 64


def edge(u: int, v: int) -> tuple[int, int]:
    """Canonical form of an edge: endpoints sorted ascending."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class Graph:
    """A simple undirected graph on vertices 0..n-1.

    ``_nbr[v]`` is the bitmask of neighbors of ``v``.  Instances are
    immutable; "mutating" operations return new graphs.
    """

    __slots__ = ("n", "_nbr")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0 or n > MAX_VERTEX_CAP:
            raise ValueError(f"vertex count {n} outside 0..{MAX_VERTEX_CAP}")
        nbr = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        self.n = n
        self._nbr = tuple(nbr)

    @classmethod
    def _from_masks(cls, n: int, masks: tuple[int, ...]) -> "Graph":
        # Trusted fast path: caller guarantees symmetry and irreflexivity.
        g = object.__new__(cls)
        g.n = n
        g._nbr = masks
        return g

    # -- basic accessors ---------------------------------------------------

    def _has_vertex(self, v: int) -> bool:
        return 0 <= v < self.n

    def _mask(self, v: int) -> int:
        if not self._has_vertex(v):
            raise ValueError(f"vertex {v} outside 0..{self.n - 1}")
        return self._nbr[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return mask_to_tuple(self._mask(v))

    def degree(self, v: int) -> int:
        return self._mask(v).bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self._nbr)

    def min_degree(self) -> int:
        return min((m.bit_count() for m in self._nbr), default=0)

    def max_degree(self) -> int:
        return max((m.bit_count() for m in self._nbr), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        """False unless u and v are both in 0..n-1 and adjacent."""
        return self._has_vertex(u) and self._has_vertex(v) and bool(self._nbr[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v)
            for u in range(self.n)
            for v in mask_to_tuple(self._nbr[u] >> (u + 1) << (u + 1))
        ]

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._nbr) // 2

    # -- derived graphs ----------------------------------------------------

    def delete_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not an edge")
        nbr = list(self._nbr)
        nbr[u] &= ~(1 << v)
        nbr[v] &= ~(1 << u)
        return Graph._from_masks(self.n, tuple(nbr))

    # -- global predicates ---------------------------------------------------

    def is_complete(self) -> bool:
        return self.edge_count == self.n * (self.n - 1) // 2

    def is_connected(self) -> bool:
        return component_count(self._nbr, (1 << self.n) - 1) <= 1

    def is_tree(self) -> bool:
        return self.n >= 1 and self.edge_count == self.n - 1 and self.is_connected()

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self._nbr == other._nbr
        )

    def __hash__(self) -> int:
        return hash((self.n, self._nbr))

    def __repr__(self) -> str:
        return f"Graph({self.n}, {self.edges()})"


def mask_to_tuple(mask: int) -> tuple[int, ...]:
    """The vertices in ``mask``, ascending; the inverse of ``set_to_mask``."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def set_to_mask(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def set_to_str(vertices: Iterable[int]) -> str:
    """The vertices as ``{a,b,...}``, ascending."""
    return "{" + ",".join(str(v) for v in sorted(vertices)) + "}"


# -- connected components ----------------------------------------------------
# The package's three BFS loops.  The count-only loop stays separate: it is the
# innermost loop of every cutset search, and replaying a sweep's counts through
# len(component_masks(...)) took 5-8% longer.  The walk of a large scan counts
# by ``table_component_count`` over tables built once per scan.


def component_count(nbr: Sequence[int], pool: int) -> int:
    """Number of connected components of the graph induced on the mask ``pool``.

    ``nbr[v]`` is the neighbor mask of v; a cutset search passes
    ``full ^ removed``.
    """
    count = 0
    while pool:
        count += 1
        comp = pool & -pool
        frontier = comp
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= nbr[b.bit_length() - 1]
            frontier = nxt & pool & ~comp
            comp |= frontier
        pool &= ~comp
    return count


def neighbourhood_tables(nbr: Sequence[int]) -> tuple[int, list[int]]:
    """(w, tables) for ``table_component_count``: the vertices fall into
    chunks of w consecutive vertices, at most 8 per chunk, and entry s of
    chunk c, at index c * 2^w + s, is the union of N(v) over the vertices
    of subset s of chunk c."""
    n = len(nbr)
    chunks = (n + 7) // 8 or 1
    width = -(-n // chunks) or 1
    tables: list[int] = []
    for start in range(0, n, width):
        table = [0]
        for nv in nbr[start:start + width]:
            table += [m | nv for m in table]
        tables += table
    return width, tables


def table_component_count(tables: tuple[int, list[int]], pool: int) -> int:
    """``component_count`` over ``neighbourhood_tables(nbr)``: a BFS level
    costs one lookup per chunk rather than one step per frontier vertex."""
    width, table = tables
    low, step = (1 << width) - 1, 1 << width
    count = 0
    while pool:
        count += 1
        frontier = pool & -pool
        pool ^= frontier
        while frontier:
            nxt = table[frontier & low]
            frontier >>= width
            base = step
            while frontier:
                nxt |= table[base | frontier & low]
                frontier >>= width
                base += step
            frontier = nxt & pool
            pool ^= frontier
    return count


def component_masks(nbr: Sequence[int], pool: int) -> list[int]:
    """Bitmasks of the components induced on ``pool``, ordered by smallest
    contained vertex."""
    out = []
    while pool:
        comp = pool & -pool
        frontier = comp
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= nbr[b.bit_length() - 1]
            frontier = nxt & pool & ~comp
            comp |= frontier
        out.append(comp)
        pool &= ~comp
    return out


# -- bridges and blocks --------------------------------------------------------


def bridges(g: Graph) -> frozenset[tuple[int, int]]:
    """Edges whose removal increases the number of components."""
    full = (1 << g.n) - 1
    ncomp = component_count(g._nbr, full)
    return frozenset(
        e for e in g.edges() if component_count(g.delete_edge(*e)._nbr, full) > ncomp
    )


class BlockDecomposition(NamedTuple):
    blocks: list[frozenset[int]]
    cut_vertices: frozenset[int]


def blocks(g: Graph) -> BlockDecomposition:
    """Block-cut decomposition of a connected graph.

    Blocks are returned as vertex sets (a 2-set is a bridge edge), sorted by
    their sorted vertex tuples so output is reproducible.  The block of an
    edge uv is the intersection, over the cut vertices c, of c plus the
    component of G - c that holds u (v when c = u).
    """
    full = (1 << g.n) - 1
    if component_count(g._nbr, full) > 1:
        raise ValueError("graph is disconnected")
    cuts = {}
    for c in range(g.n):
        if g._nbr[c] & (g._nbr[c] - 1):  # a vertex of degree <= 1 never cuts
            masks = component_masks(g._nbr, full ^ (1 << c))
            if len(masks) > 1:
                cuts[c] = masks
    found = set()
    for u, v in g.edges():
        block = full
        for c, masks in cuts.items():
            x = v if c == u else u
            for m in masks:
                if m >> x & 1:
                    block &= m | 1 << c
                    break
        found.add(block)
    return BlockDecomposition(
        [frozenset(b) for b in sorted(mask_to_tuple(b) for b in found)],
        frozenset(cuts),
    )


# -- vertex connectivity -----------------------------------------------------


class VertexConnectivity(NamedTuple):
    value: int
    complete: bool


def _local_connectivity(g: Graph, s: int, t: int) -> int:
    """Maximum number of internally vertex-disjoint s-t paths (s,t nonadjacent).

    Unit-capacity max flow on the split-vertex digraph: each vertex v becomes
    v_in -> v_out with capacity 1; each edge gives both directions with large
    capacity.
    """
    n = g.n
    big = n + 1
    # node 2v = v_in, 2v+1 = v_out
    cap: list[dict[int, int]] = [dict() for _ in range(2 * n)]
    for v in range(n):
        cap[2 * v][2 * v + 1] = 1
    for u, v in g.edges():
        cap[2 * u + 1][2 * v] = big
        cap[2 * v + 1][2 * u] = big
    src, sink = 2 * s + 1, 2 * t
    flow = 0
    while True:
        prev = {src: -1}
        queue = [src]
        for x in queue:
            if x == sink:
                break
            for y, c in cap[x].items():
                if c > 0 and y not in prev:
                    prev[y] = x
                    queue.append(y)
        if sink not in prev:
            return flow
        # augment by 1 (all augmenting paths here have bottleneck >= 1)
        y = sink
        while y != src:
            x = prev[y]
            cap[x][y] -= 1
            cap[y][x] = cap[y].get(x, 0) + 1
            y = x
        flow += 1


def vertex_connectivity(g: Graph) -> VertexConnectivity:
    """Size of a minimum vertex cut, with a marker for complete graphs.

    Complete graphs have no cutset; the conventional value n-1 is reported
    together with ``complete=True``.  Disconnected graphs give 0.
    """
    n = g.n
    if g.is_complete():
        return VertexConnectivity(max(n - 1, 0), True)
    if not g.is_connected():
        return VertexConnectivity(0, False)
    best = n - 1
    for s, t in combinations(range(n), 2):
        if not g.has_edge(s, t):
            k = _local_connectivity(g, s, t)
            if k < best:
                best = k
                if best == 1:
                    break
    return VertexConnectivity(best, False)


# -- simplicial vertices --------------------------------------------------------


def simplicial_in(nbr: Sequence[int], pool: int, v: int) -> bool:
    """Do the neighbors of v inside the mask ``pool`` form a clique?"""
    nv = nbr[v] & pool
    m = nv
    while m:
        b = m & -m
        m ^= b
        if (nv & ~b) & ~nbr[b.bit_length() - 1]:
            return False
    return True


def simplicial_vertices(g: Graph) -> frozenset[int]:
    """Vertices whose neighborhood induces a clique."""
    full = (1 << g.n) - 1
    return frozenset(v for v in range(g.n) if simplicial_in(g._nbr, full, v))
