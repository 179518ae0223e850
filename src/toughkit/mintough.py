"""Minimally tough graphs and the vertex sets that certify them.

A graph is minimally t-tough when its toughness is exactly t and deleting
any single edge drops the toughness below t.  For every edge e of such a
graph there is a witness: either e is a bridge, or some set S satisfies
c(G-S) <= |S|/t and c((G-e)-S) > |S|/t, making e a bridge of G-S.  One
search, ``_drop_set``, finds every witness and decides every edge.  Every
witness, found by that search or given by a formula, is built by
``_edge_witness``, the one place that states the rule and counts the
components; ``EdgeWitness.holds`` checks a witness by rebuilding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .graphs import Graph, component_count, mask_to_tuple, set_to_mask, set_to_str
from .toughness import Toughness, _checked_set, _checked_t, _cutsets, toughness


@dataclass(frozen=True)
class EdgeWitness:
    """Evidence that deleting one edge drops the toughness below t.

    ``bridge_case`` means the edge disconnects the graph by itself and the
    set is empty.  Otherwise ``omega_before = c(G-S) <= bound = |S|/t`` and
    ``omega_after = c((G-e)-S) > bound``, which also makes the edge a bridge
    of G-S.
    """

    edge: tuple[int, int]
    vertices: frozenset[int]
    bridge_case: bool
    omega_before: int
    omega_after: int
    bound: Fraction

    def holds(self, g: Graph, t: Fraction | int) -> bool:
        """Does ``_edge_witness`` rebuild exactly this witness from the
        graph?  A bridge witness is checked by the bridge test alone,
        whatever its two component counts hold."""
        try:
            w = _edge_witness(g, t, self.edge, self.vertices)
        except ValueError:
            return False
        return w.bridge_case if self.bridge_case else w == self

    def __str__(self) -> str:
        u, v = self.edge
        if self.bridge_case:
            return f"edge {u}-{v}: bridge, S = {{}}"
        return (
            f"edge {u}-{v}: S = {set_to_str(self.vertices)}, "
            f"omega(G-S) = {self.omega_before} <= |S|/t = {self.bound}, "
            f"omega((G-e)-S) = {self.omega_after} > {self.bound}"
        )


def _edge_witness(
    g: Graph, t: Fraction | int, e: tuple[int, int], vertices: Iterable[int]
) -> EdgeWitness:
    """The witness that S = ``vertices`` gives edge e at t, with its counts
    taken from the graph.  ValueError unless t > 0, e is an edge, S lies in
    0..n-1 and misses both ends of e, and either S is empty and e is a
    bridge or c(G-S) <= |S|/t < c((G-e)-S) = c(G-S) + 1."""
    t = _checked_t(t)
    _checked_edge(g, e)
    u, v = e
    vs = _checked_set(g, vertices)
    if u in vs or v in vs:
        raise ValueError(f"{sorted(vs)} holds an end of the edge ({u},{v})")
    pool = ((1 << g.n) - 1) ^ set_to_mask(vs)
    before = component_count(g._nbr, pool)
    after = component_count(g.delete_edge(u, v)._nbr, pool)
    if not vs:
        if after > before:
            return EdgeWitness(e, vs, True, before, after, Fraction(0))
        raise ValueError(f"({u},{v}) is not a bridge")
    bound = len(vs) / t
    if not before <= bound < after == before + 1:
        raise ValueError(f"{sorted(vs)} does not separate the edge ({u},{v}) at t = {t}")
    return EdgeWitness(e, vs, False, before, after, bound)


def _drop_set(
    g: Graph, t: Fraction, e: tuple[int, int], pool: Sequence[int] | None = None
) -> tuple[int, ...] | None:
    """The set showing that deleting the edge e = uv of the connected g
    drops the toughness below t: () when e is a bridge, else the smallest
    (size, then lex) S drawn from ``pool`` (default V - {u, v}; it must
    miss u and v) that separates u and v in G-e with c((G-e)-S) > |S|/t, or
    None.  Only such an S makes e a bridge of G-S, as a witness must.  At
    t <= tau(g) the answer is that of a scan of every set; above tau(g) only
    a missing witness can change (README, "Exactness and determinism")."""
    u, v = e
    minus = g.delete_edge(u, v)._nbr
    if component_count(minus, (1 << g.n) - 1) > 1:
        return ()
    if pool is None:
        pool = [x for x in range(g.n) if x != u and x != v]
    p, q = t.numerator, t.denominator
    cutsets = _cutsets(minus, pool, lambda size: q * size // p + 1, e)
    return next((combo for combo, _ in cutsets), None)


def is_minimally_t_tough(g: Graph, t: Fraction | int) -> bool:
    """Toughness equals t and every single-edge deletion drops it below t."""
    t = _checked_t(t)
    tau, _ = toughness(g)
    return tau == t and minimal_toughness_value(g, tau) == t


def minimal_toughness_value(g: Graph, tau: Toughness | None = None) -> Fraction | None:
    """The t for which g is minimally t-tough, or None; ``tau`` is tau(g) if known.

    ``_drop_set`` decides each edge at t = tau(g).  Queries do not search
    tau(g - e) per edge, which took 10.2x as long on the benchmark's 14-18
    vertex graphs; a sweep asks ``_drop_set`` only after its cheaper rungs
    (``harness``).
    """
    if tau is None:
        tau, _ = toughness(g)
    if not tau.is_finite:
        return None
    t = tau.value
    return t if all(_drop_set(g, t, e) is not None for e in g.edges()) else None


def _build_witness(
    g: Graph, e: tuple[int, int], t: Fraction, combo: tuple[int, ...]
) -> EdgeWitness:
    try:
        return _edge_witness(g, t, e, combo)
    except ValueError:
        raise RuntimeError(
            f"witness re-validation failed for edge {e}; "
            "is the graph really minimally tough?"
        ) from None


def _checked_edge(g: Graph, e: tuple[int, int]) -> tuple[int, int]:
    """e in ascending order; ValueError unless it is an edge of g."""
    u, v = e
    if not g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge")
    return (u, v) if u < v else (v, u)


def _witness_search(
    g: Graph,
    t: Fraction | int,
    e: tuple[int, int],
    missing: str,
    hood: Callable[[int, int], Sequence[int]] | None = None,
) -> EdgeWitness:
    """The shared per-edge search: the witness ``_drop_set`` finds, drawing
    from ``hood(u, v)`` if given.  RuntimeError with ``missing`` (formatted
    with e and t) when it finds none."""
    t = _checked_t(t)
    e = _checked_edge(g, e)
    if not g.is_connected():
        raise ValueError("graph is disconnected")
    combo = _drop_set(g, t, e, None if hood is None else hood(*e))
    if combo is None:
        raise RuntimeError(missing.format(e=e, t=t))
    return _build_witness(g, e, t, combo)


def edge_deletion_witness(g: Graph, t: Fraction | int, e: tuple[int, int]) -> EdgeWitness:
    """Witness set for one edge of a minimally t-tough graph: the set
    ``_drop_set`` finds at t over V - {u, v}, empty for a bridge, built and
    checked by ``_edge_witness``.  RuntimeError when there is none; a
    disconnected graph, which is not minimally t-tough for any t, raises
    ValueError.
    """
    return _witness_search(
        g, t, e, "no witness for edge {e}: the graph is not minimally {t}-tough")


def split_clique_edge_witness(
    g: Graph,
    partition: tuple[Iterable[int], Iterable[int]],
    e: tuple[int, int],
    t: Fraction | int | None = None,
) -> EdgeWitness:
    """Closed-form witness for an edge inside the clique of a split graph.

    For a minimally t-tough split graph with partition (C, I) and an edge
    e = uv inside C, the witness is exactly
    (C minus {u, v}) union {w in I adjacent to both u and v}.
    An empty set means e is a bridge.
    """
    if t is not None:
        t = _checked_t(t)
    C = frozenset(partition[0])
    I = frozenset(partition[1])
    u, v = e
    e = _checked_edge(g, e)
    if u not in C or v not in C:
        raise ValueError(f"edge ({u},{v}) is not inside the clique side")
    if C & I or (C | I) != set(range(g.n)):
        raise ValueError("not a partition of the vertices")
    if any(not g.has_edge(a, b) for a in C for b in C if a < b):
        raise ValueError("clique side is not a clique")
    if any(g.has_edge(a, b) for a in I for b in I if a < b):
        raise ValueError("independent side is not independent")
    s = (C - {u, v}) | {w for w in I if g.has_edge(u, w) and g.has_edge(v, w)}
    if not s:
        try:
            return _edge_witness(g, 1, e, ())  # a bridge witness holds at any t
        except ValueError:
            raise RuntimeError(f"formula set empty but edge {e} is not a bridge") from None
    if t is None:
        tau, _ = toughness(g)
        if not tau.is_finite:
            raise ValueError("graph has no finite toughness")
        t = tau.value
    return _build_witness(g, e, t, tuple(sorted(s)))


def clawfree_half_witness(g: Graph, e: tuple[int, int]) -> EdgeWitness:
    """Witness of size at most one for a minimally 1/2-tough claw-free graph.

    A non-bridge edge always lies in a component that is separated off by a
    single cut vertex; removing that vertex and the edge leaves three
    components against the bound |S|/t = 2.  The witness is the size-one
    case of ``edge_deletion_witness`` at t = 1/2, whose search tries the
    smallest sets first (every x of a 1/2-tough graph has c(G-x) <= 2); a
    larger or missing set raises RuntimeError, a disconnected graph ValueError.
    """
    w = edge_deletion_witness(g, Fraction(1, 2), e)
    if len(w.vertices) > 1:
        raise RuntimeError(
            f"no single-vertex witness for edge {w.edge}: "
            "graph is not minimally 1/2-tough claw-free"
        )
    return w


def twok2_neighborhood_witness(
    g: Graph, t: Fraction | int, e: tuple[int, int]
) -> EdgeWitness:
    """Witness drawn from the open neighborhood of the edge's endpoints.

    The search is restricted to N({u,v}) minus {u,v}.  In a minimally
    t-tough graph with no induced pair of independent edges a non-bridge
    edge need not have a witness there: on the graph6 graph "F?NN_" the only
    witness for the edge 4-5 is a vertex adjacent to neither endpoint.
    Raises RuntimeError when the pool holds no witness, and ValueError on a
    disconnected graph.
    """
    return _witness_search(
        g, t, e, "no witness for edge {e} inside the endpoint neighborhood",
        lambda u, v: mask_to_tuple((g._nbr[u] | g._nbr[v]) & ~(1 << u | 1 << v)),
    )
