"""Recognizers for chordal, split, claw-free and 2K2-free graphs.

Each recognizer returns a certificate: a perfect elimination order or a
clique/independent partition on acceptance, or an induced forbidden
subgraph on rejection.  Negative witnesses are the lexicographically
smallest qualifying vertex tuple, so outputs are reproducible.  One pruned
depth-first search over sorted vertex tuples, ``_least_induced``, finds
all four.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .graphs import Graph, component_count, mask_to_tuple, set_to_mask, simplicial_in

CHORDAL = "chordal"
SPLIT = "split"
CLAW_FREE = "claw-free"
TWO_K2_FREE = "2k2-free"


@dataclass(frozen=True)
class ClassCertificate:
    """Verdict for one graph class, with a checkable positive or negative side.

    Exactly one side is populated: ``elimination_order`` (chordal) or
    ``clique``/``independent`` (split) on acceptance, ``witness`` (an induced
    forbidden subgraph, as a sorted vertex tuple) on rejection.  Claw-free
    and 2K2-free acceptance carries no positive data.
    """

    family: str
    verdict: bool
    elimination_order: tuple[int, ...] | None = None
    clique: frozenset[int] | None = None
    independent: frozenset[int] | None = None
    witness: tuple[int, ...] | None = None


# -- the witness search ----------------------------------------------------------

_HIT, _EXTEND, _DROP = range(3)

# Sorted induced degrees: (1,1,1,1) is 2K2, (2,2,2,2) C4, (2,2,2,2,2) C5 and
# (1,1,1,3) the claw, since no other graph on 4 or 5 vertices has them.
# 2K2, C4 and C5 are the minimal non-split graphs (Foldes & Hammer 1977).
_SPLIT_OBSTRUCTIONS = frozenset({(1, 1, 1, 1), (2, 2, 2, 2), (2, 2, 2, 2, 2)})
_CLAW = frozenset({(1, 1, 1, 3)})
_TWO_K2 = frozenset({(1, 1, 1, 1)})


def _least_induced(g: Graph, most: int, verdict) -> tuple[int, ...]:
    """The lexicographically least sorted tuple of at most ``most`` vertices
    that ``verdict`` calls a hit; g must hold one.

    A preorder DFS over sorted tuples visits them in lexicographic order, so
    its first hit is the least.  ``verdict(vs, mask)`` answers ``_HIT``,
    ``_EXTEND`` or ``_DROP``, the last when no tuple that adds larger
    vertices to vs can be a hit.
    """

    def walk(prefix: tuple[int, ...], mask: int) -> Iterator[tuple[int, ...]]:
        for v in range(prefix[-1] + 1 if prefix else 0, g.n):
            vs, grown = prefix + (v,), mask | 1 << v
            answer = verdict(vs, grown)
            if answer == _HIT:
                yield vs
            elif answer == _EXTEND and len(vs) < most:
                yield from walk(vs, grown)

    return next(walk((), 0))


def _least_shape(g: Graph, shapes: frozenset[tuple[int, ...]]) -> tuple[int, ...]:
    """The least sorted vertex tuple whose sorted induced degrees are one of
    ``shapes``.  Induced degrees only grow as vertices join, so a tuple is
    dropped once one of them exceeds every degree in ``shapes``."""
    nbr = g._nbr
    top = max(map(max, shapes))

    def verdict(vs: tuple[int, ...], mask: int) -> int:
        degrees = sorted([(nbr[v] & mask).bit_count() for v in vs])
        if degrees[-1] > top:
            return _DROP
        return _HIT if tuple(degrees) in shapes else _EXTEND

    return _least_induced(g, max(map(len, shapes)), verdict)


# -- chordal ---------------------------------------------------------------------


def _elimination_order(g: Graph) -> list[int]:
    """Repeatedly remove the smallest simplicial vertex of the remaining
    induced subgraph; the removed vertices, in order.  They cover all of g
    exactly when g is chordal."""
    masks = g._nbr
    remaining = (1 << g.n) - 1
    order = []
    while remaining:
        m = remaining
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            if simplicial_in(masks, remaining, v):
                order.append(v)
                remaining ^= b
                break
        else:
            break
    return order


def _chordal_verdict(g: Graph) -> bool:
    return len(_elimination_order(g)) == g.n


def _lex_min_chordless_cycle(g: Graph) -> tuple[int, ...]:
    """The lexicographically least sorted vertex tuple inducing a cycle of
    length >= 4.

    Extensions only add vertices above the last one, so a tuple is dropped
    when a vertex has induced degree > 2, when a vertex of degree d < 2 has
    fewer than 2 - d neighbors above the last vertex, or when every degree
    is 2 (a union of cycles, closed to growth) and it is not one cycle of
    length >= 4.
    """
    nbr = g._nbr

    def verdict(vs: tuple[int, ...], mask: int) -> int:
        above = -1 << (vs[-1] + 1)
        closed = True
        for x in vs:
            d = (nbr[x] & mask).bit_count()
            if d > 2 or (nbr[x] & above).bit_count() < 2 - d:
                return _DROP
            closed = closed and d == 2
        if not closed:
            return _EXTEND
        return _HIT if len(vs) >= 4 and component_count(nbr, mask) == 1 else _DROP

    return _least_induced(g, g.n, verdict)


def is_chordal(g: Graph) -> ClassCertificate:
    """Test for chordality (no induced cycle of length >= 4).

    Accepts with a perfect elimination order built by repeatedly removing
    the smallest simplicial vertex of the remaining induced subgraph;
    rejects with a chordless cycle.
    """
    order = _elimination_order(g)
    if len(order) < g.n:
        return ClassCertificate(CHORDAL, False, witness=_lex_min_chordless_cycle(g))
    return ClassCertificate(CHORDAL, True, elimination_order=tuple(order))


# -- split -----------------------------------------------------------------------


def _split_threshold(degrees: Iterable[int]) -> int | None:
    """Hammer-Simeone degree-sequence test.  With d1 >= d2 >= ... and
    m = max{i : d_i >= i-1}, the graph is split iff
    sum_{i<=m} d_i = m(m-1) + sum_{i>m} d_i; returns m for a split graph,
    where it is the clique number, and None otherwise."""
    d = sorted(degrees, reverse=True)
    m = 0
    for i, di in enumerate(d, start=1):
        if di >= i - 1:
            m = i
    return m if sum(d[:m]) == m * (m - 1) + sum(d[m:]) else None


def _split_verdict(g: Graph) -> bool:
    return _split_threshold(x.bit_count() for x in g._nbr) is not None


def is_split(g: Graph) -> ClassCertificate:
    """Test whether the vertices split into a clique plus an independent set.

    Acceptance reads the partition off the degree-sequence test: its
    threshold m is the clique number, and in a partition with a maximum
    clique every vertex of degree >= m is on the clique side and every
    vertex of degree <= m-2 on the independent side.  The clique is
    completed with the lex-first combination of degree-(m-1) vertices that
    leaves an independent complement, so the certificate is the
    lexicographically least such maximum clique.  Rejection produces an
    induced 2K2, C4 or C5.
    """
    nbr = g._nbr
    degrees = g.degrees()
    m = _split_threshold(degrees)
    if m is None:
        return ClassCertificate(SPLIT, False, witness=_least_shape(g, _SPLIT_OBSTRUCTIONS))
    full = (1 << g.n) - 1
    forced = set_to_mask(v for v, d in enumerate(degrees) if d >= m)
    loose = [v for v, d in enumerate(degrees) if d == m - 1]
    for extra in combinations(loose, m - forced.bit_count()):
        clique = forced | set_to_mask(extra)
        rest = full ^ clique
        if all(clique & ~nbr[v] == 1 << v for v in mask_to_tuple(clique)) and all(
            not nbr[v] & rest for v in mask_to_tuple(rest)
        ):
            return ClassCertificate(
                SPLIT,
                True,
                clique=frozenset(mask_to_tuple(clique)),
                independent=frozenset(mask_to_tuple(rest)),
            )
    raise RuntimeError("no clique/independent partition at the split threshold")


# -- claw-free -------------------------------------------------------------------


def _clawfree_verdict(g: Graph) -> bool:
    # a claw at v with least leaf a exists iff the vertices of N(v) - N[a]
    # above a do not form a clique
    nbr = g._nbr
    for nv in nbr:
        if nv.bit_count() < 3:
            continue
        for a in mask_to_tuple(nv):
            rest = nv & ~nbr[a] & (-2 << a)
            for x in mask_to_tuple(rest):
                if rest & ~nbr[x] & ~(1 << x):
                    return False
    return True


def is_claw_free(g: Graph) -> ClassCertificate:
    """Test for an induced star on three leaves."""
    if _clawfree_verdict(g):
        return ClassCertificate(CLAW_FREE, True)
    return ClassCertificate(CLAW_FREE, False, witness=_least_shape(g, _CLAW))


# -- 2K2-free --------------------------------------------------------------------


def _twok2_verdict(g: Graph) -> bool:
    # an edge ab lies in an induced 2K2 iff V - N[a] - N[b] spans an edge
    nbr = g._nbr
    full = (1 << g.n) - 1
    for a, b in g.edges():
        rest = full & ~(nbr[a] | nbr[b])
        if any(nbr[x] & rest for x in mask_to_tuple(rest)):
            return False
    return True


def is_2k2_free(g: Graph) -> ClassCertificate:
    """Test for an induced pair of independent edges."""
    if _twok2_verdict(g):
        return ClassCertificate(TWO_K2_FREE, True)
    return ClassCertificate(TWO_K2_FREE, False, witness=_least_shape(g, _TWO_K2))
