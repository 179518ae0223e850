"""Recognizers for chordal, split, claw-free and 2K2-free graphs.

Each recognizer returns a certificate: a perfect elimination order or a
clique/independent partition on acceptance, or an induced forbidden
subgraph on rejection.  Negative witnesses are the lexicographically
smallest qualifying vertex tuple, so outputs are reproducible.  Witness
extraction scans vertex subsets and is intended for desk-scale graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

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


def _induces_cycle(g: Graph, vs: tuple[int, ...]) -> bool:
    mask = set_to_mask(vs)
    # induced degrees all 2 and connected => a single chordless cycle
    for v in vs:
        if (g._nbr[v] & mask).bit_count() != 2:
            return False
    return component_count(g._nbr, mask) == 1


def _lex_min_chordless_cycle(g: Graph) -> tuple[int, ...]:
    """The lexicographically least sorted vertex tuple inducing a cycle of
    length >= 4.

    A preorder DFS over sorted tuples visits them in lexicographic order, so
    its first hit is the least.  Extensions only add vertices above the last
    one, so a prefix is cut off when a vertex has induced degree > 2, when a
    vertex of degree d < 2 has fewer than 2 - d neighbors above the last
    vertex, or when every degree is 2 (a union of cycles, closed to growth).
    """
    nbr, n = g._nbr, g.n

    def extend(prefix: tuple[int, ...], mask: int) -> tuple[int, ...] | None:
        for v in range(prefix[-1] + 1 if prefix else 0, n):
            vs = prefix + (v,)
            grown = mask | 1 << v
            above = -1 << (v + 1)
            closed = True
            for x in vs:
                d = (nbr[x] & grown).bit_count()
                if d > 2 or (nbr[x] & above).bit_count() < 2 - d:
                    break
                closed = closed and d == 2
            else:
                if not closed:
                    found = extend(vs, grown)
                    if found is not None:
                        return found
                elif len(vs) >= 4 and component_count(nbr, grown) == 1:
                    return vs
        return None

    found = extend((), 0)
    if found is None:
        raise RuntimeError("no chordless cycle found in a non-chordal graph")
    return found


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


def _lex_min_split_obstruction(g: Graph) -> tuple[int, ...]:
    # minimal obstructions to being split: induced 2K2, C4 or C5 (no 5-set
    # induces a 2K2).  Each size is scanned in lexicographic order, so its
    # first hit is its least.
    hits = []
    for size in (4, 5):
        for vs in combinations(range(g.n), size):
            if _induces_cycle(g, vs) or _induces_2k2(g, vs):
                hits.append(vs)
                break
    if not hits:
        raise RuntimeError("no 2K2/C4/C5 found in a non-split graph")
    return min(hits)


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
        return ClassCertificate(SPLIT, False, witness=_lex_min_split_obstruction(g))
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


def _induces_claw(g: Graph, vs: tuple[int, ...]) -> bool:
    mask = set_to_mask(vs)
    degs = sorted((g._nbr[v] & mask).bit_count() for v in vs)
    return degs == [1, 1, 1, 3]


def is_claw_free(g: Graph) -> ClassCertificate:
    """Test for an induced star on three leaves."""
    if _clawfree_verdict(g):
        return ClassCertificate(CLAW_FREE, True)
    witness = next(vs for vs in combinations(range(g.n), 4) if _induces_claw(g, vs))
    return ClassCertificate(CLAW_FREE, False, witness=witness)


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


def _induces_2k2(g: Graph, vs: tuple[int, ...]) -> bool:
    mask = set_to_mask(vs)
    return all((g._nbr[v] & mask).bit_count() == 1 for v in vs)


def is_2k2_free(g: Graph) -> ClassCertificate:
    """Test for an induced pair of independent edges."""
    if _twok2_verdict(g):
        return ClassCertificate(TWO_K2_FREE, True)
    witness = next(vs for vs in combinations(range(g.n), 4) if _induces_2k2(g, vs))
    return ClassCertificate(TWO_K2_FREE, False, witness=witness)
