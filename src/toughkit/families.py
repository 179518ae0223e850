"""Generators for the named minimally tough families, and the matching
characterization-based recognizers.

Vertex numbering is fixed per family so graph6 fixtures are stable:

* ``Star(b)``: center 0, leaves 1..b.
* ``Path(n)``: 0-1-...-(n-1).
* ``Cycle(n)``: 0-1-...-(n-1)-0.
* ``DoubleStar(b, k)``: adjacent centers 0 and 1; 0 carries leaves 2..b,
  1 carries leaves b+1..b+k (so 0 has degree b).
* ``SplitTriangle(b)``: triangle 0,1,2; triangle vertex i carries the b-1
  pendant leaves 3+i*(b-1) .. 3+(i+1)*(b-1)-1.
* ``ClawfreeHalfFromTree(tree)``: every degree-3 vertex of the tree is
  deleted and its three neighbors are joined into a triangle; surviving
  tree vertices are renumbered in ascending order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import MAX_VERTEX_CAP, Graph, blocks, bridges
from .recognition import _clawfree_verdict, _twok2_verdict
from .toughness import Toughness, toughness


@dataclass(frozen=True)
class Star:
    b: int


@dataclass(frozen=True)
class Path:
    n: int


@dataclass(frozen=True)
class Cycle:
    n: int


@dataclass(frozen=True)
class DoubleStar:
    b: int
    k: int


@dataclass(frozen=True)
class SplitTriangle:
    b: int


@dataclass(frozen=True)
class ClawfreeHalfFromTree:
    tree: Graph


FamilyDescriptor = Star | Path | Cycle | DoubleStar | SplitTriangle | ClawfreeHalfFromTree


def _valid_half_tree(tree: Graph) -> str | None:
    """Why ``tree`` is not a valid input for the triangle construction, or None."""
    if not tree.is_tree():
        return "input is not a tree"
    if tree.n < 3:
        return "tree needs at least 3 vertices"
    if tree.max_degree() > 3:
        return "tree has a vertex of degree above 3"
    special = [v for v in range(tree.n) if tree.degree(v) in (1, 3)]
    for i, u in enumerate(special):
        for v in special[i + 1 :]:
            if tree.has_edge(u, v):
                return (
                    f"degree-1/degree-3 vertices {u} and {v} are adjacent; "
                    "they must form an independent set"
                )
    return None


def _order(n: int) -> int:
    """n, checked against ``Graph``'s bound before a family builds its edges."""
    if n > MAX_VERTEX_CAP:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTEX_CAP}")
    return n


def generate(d: FamilyDescriptor) -> Graph:
    """Build the graph described by a family descriptor."""
    if isinstance(d, Star):
        if d.b < 1:
            raise ValueError("star needs b >= 1")
        n = _order(d.b + 1)
        return Graph(n, [(0, i) for i in range(1, n)])
    if isinstance(d, Path):
        if d.n < 1:
            raise ValueError("path needs n >= 1")
        n = _order(d.n)
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if isinstance(d, Cycle):
        if d.n < 3:
            raise ValueError("cycle needs n >= 3")
        n = _order(d.n)
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if isinstance(d, DoubleStar):
        if d.b < 2:
            raise ValueError("double star needs b >= 2")
        if not 1 <= d.k <= d.b - 1:
            raise ValueError("double star needs 1 <= k <= b-1")
        n = _order(d.b + d.k + 1)
        edges = [(0, 1)]
        edges += [(0, i) for i in range(2, d.b + 1)]
        edges += [(1, i) for i in range(d.b + 1, n)]
        return Graph(n, edges)
    if isinstance(d, SplitTriangle):
        if d.b < 1:
            raise ValueError("split triangle needs b >= 1")
        n = _order(3 * d.b)
        edges = [(0, 1), (0, 2), (1, 2)]
        nxt = 3
        for i in range(3):
            for _ in range(d.b - 1):
                edges.append((i, nxt))
                nxt += 1
        return Graph(n, edges)
    if isinstance(d, ClawfreeHalfFromTree):
        tree = d.tree
        reason = _valid_half_tree(tree)
        if reason is not None:
            raise ValueError(reason)
        deleted = [v for v in range(tree.n) if tree.degree(v) == 3]
        keep = [v for v in range(tree.n) if tree.degree(v) != 3]
        relabel = {v: i for i, v in enumerate(keep)}
        edges = [
            (relabel[u], relabel[v])
            for u, v in tree.edges()
            if u in relabel and v in relabel
        ]
        for v in deleted:
            a, b, c = (relabel[w] for w in tree.neighbors(v))
            edges += [(a, b), (a, c), (b, c)]
        return Graph(len(keep), edges)
    raise TypeError(f"unknown family descriptor: {d!r}")


def parse_descriptor(text: str) -> FamilyDescriptor:
    """Parse the command-line descriptor syntax.

    ``star:3``, ``path:5``, ``cycle:4``, ``doublestar:b,k``,
    ``splittriangle:b`` and ``clawhalf:<tree-file>`` (file read by the CLI).
    """
    kind, _, arg = text.partition(":")
    kind = kind.strip().lower()
    try:
        if kind == "star":
            return Star(int(arg))
        if kind == "path":
            return Path(int(arg))
        if kind == "cycle":
            return Cycle(int(arg))
        if kind == "doublestar":
            b, k = arg.split(",")
            return DoubleStar(int(b), int(k))
        if kind == "splittriangle":
            return SplitTriangle(int(arg))
    except ValueError as exc:
        raise ValueError(f"bad descriptor {text!r}: {exc}") from None
    raise ValueError(f"unknown family {kind!r}")


# -- recognizers -----------------------------------------------------------------


def recognize_clawfree_half(g: Graph) -> tuple[bool, Graph | None]:
    """Is g a minimally 1/2-tough claw-free graph?  Certified by a tree.

    Accepts exactly the connected claw-free graphs, on at least 3 vertices,
    whose blocks are single edges or triangles and whose reverse
    construction is a valid input tree: replace each triangle by a fresh
    vertex joined to the triangle's three corners, and require the result
    to be a tree with maximum degree 3 in which the fresh vertices are
    exactly the degree-3 vertices and the degree-1/degree-3 vertices form
    an independent set.  The certificate tree has the original vertices
    0..n-1 followed by one fresh vertex per triangle, in block order.
    """
    if g.n < 3 or not g.is_connected():
        return False, None
    if not _clawfree_verdict(g):
        return False, None
    decomposition = blocks(g)
    triangles = []
    for blk in decomposition.blocks:
        if len(blk) == 2:
            continue
        if len(blk) == 3:
            triangles.append(tuple(sorted(blk)))
        else:
            return False, None
    # Blocks are edge-disjoint, so distinct triangle blocks never share an edge.
    bridge_blocks = {b for b in decomposition.blocks if len(b) == 2}
    tree_edges = [e for e in g.edges() if frozenset(e) in bridge_blocks]
    n_tree = g.n + len(triangles)
    edges = list(tree_edges)
    for i, tri in enumerate(triangles):
        fresh = g.n + i
        edges += [(a, fresh) for a in tri]
    tree = Graph(n_tree, edges)
    deg3 = {v for v in range(n_tree) if tree.degree(v) == 3}
    if deg3 != set(range(g.n, n_tree)) or _valid_half_tree(tree) is not None:
        return False, None
    return True, tree


def recognize_split_min_tough(g: Graph) -> Fraction | None:
    """Match the two shapes of minimally tough split graphs.

    Either a tree with at most two internal vertices and maximum degree
    b >= 2 (a star or a double star), or a triangle whose three corners
    each carry b-1 >= 1 pendant leaves; both have toughness exactly 1/b.
    """
    if g.is_tree() and g.n >= 3:
        internal = [v for v in range(g.n) if g.degree(v) >= 2]
        if len(internal) <= 2:
            return Fraction(1, g.max_degree())
        return None
    core = [v for v in range(g.n) if g.degree(v) >= 2]
    if len(core) != 3:
        return None
    a, b_, c = core
    if not (g.has_edge(a, b_) and g.has_edge(a, c) and g.has_edge(b_, c)):
        return None
    degs = {g.degree(v) for v in core}
    if len(degs) != 1:
        return None
    b = degs.pop() - 1
    if b < 2:
        return None
    if any(g.degree(v) != 1 for v in range(g.n) if v not in core):
        return None
    return Fraction(1, b)


def is_long_cycle(g: Graph) -> bool:
    """Whether g is a cycle on at least 4 vertices."""
    return g.n >= 4 and g.is_connected() and all(g.degree(v) == 2 for v in range(g.n))


def recognize_clawfree_min_tough(g: Graph) -> Fraction | None:
    """Settled values for minimally tough claw-free graphs: 1 and 1/2.

    Cycles of length at least 4 are the minimally 1-tough members; the
    triangle-from-tree construction covers 1/2.  Other values are not
    characterized and give None.
    """
    if is_long_cycle(g):
        return Fraction(1)
    if recognize_clawfree_half(g)[0]:
        return Fraction(1, 2)
    return None


def split_expand(g: Graph, e: tuple[int, int]) -> Graph:
    """Delete an edge and complete its endpoint neighborhood into a clique.

    For a connected graph with no induced pair of independent edges and a
    non-bridge edge uv, everything sits within distance two of {u, v} and
    there are no edges among the far vertices, so the result is a split
    graph.  It contains g - e as a spanning subgraph, so its toughness is at
    least that of g - e, and it can be more: on the cricket (graph6 "D@{")
    expanding edge 2-4 gives 1/2 where g - e has 1/3.
    """
    if not _twok2_verdict(g):
        raise ValueError("graph has an induced pair of independent edges")
    u, v = e
    if not g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge")
    e = (u, v) if u < v else (v, u)
    if e in bridges(g):
        raise ValueError(f"edge {e} is a bridge")
    return delete_and_complete(g, e)


def delete_and_complete(g: Graph, e: tuple[int, int]) -> Graph:
    """g - e with the open neighborhood of e's endpoints made a clique.

    The construction behind ``split_expand``, without its checks: the caller
    guarantees that e is an edge (and, for a split result, a non-bridge of
    a 2K2-free graph).
    """
    u, v = e
    hood = (g._nbr[u] | g._nbr[v]) & ~(1 << u | 1 << v)
    masks = [
        m | hood & ~(1 << x) if hood >> x & 1 else m for x, m in enumerate(g._nbr)
    ]
    masks[u] &= ~(1 << v)
    masks[v] &= ~(1 << u)
    return Graph._from_masks(g.n, tuple(masks))


def recognize_2k2_min_tough(g: Graph) -> Fraction | None:
    """Minimal-toughness decision that only ever computes split toughness
    after the first deletion.

    Bridges always drop the toughness; a non-bridge edge counts as dropping
    when its expansion ``delete_and_complete`` (the graph ``split_expand``
    returns) has toughness below t.  The expansion's toughness is at least
    that of g - e, so a returned value is always the minimal toughness
    value.  None can be wrong, because the expansion can hide a drop: on
    the net (minimally 1/2-tough) and on the graph6 graph "F?NN_"
    (minimally 2/3-tough) this returns None.
    """
    if not _twok2_verdict(g):
        raise ValueError("graph has an induced pair of independent edges")
    tau, _ = toughness(g)
    if not tau.is_finite:
        return None
    t = tau.value
    bridge_set = bridges(g)
    for edge_ in g.edges():
        if edge_ in bridge_set:
            continue
        expanded = delete_and_complete(g, edge_)
        if not (toughness(expanded)[0] < Toughness.finite(t)):
            return None
    return t
