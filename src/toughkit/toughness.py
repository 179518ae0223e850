"""Exact toughness of small graphs.

The toughness of a connected noncomplete graph is the minimum of |S| / c(S)
over all cutsets S, where c(S) is the number of components left after
removing S.  Complete graphs get the value infinity and disconnected graphs
get zero.  All arithmetic is exact: ratios are compared by integer
cross-multiplication and reported as fractions.  No floating point is used
anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from itertools import accumulate, combinations
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .graphs import (
    Graph,
    component_count,
    component_masks,
    mask_to_tuple,
    set_to_mask,
    set_to_str,
    simplicial_in,
    vertex_connectivity,
)
from .recognition import is_claw_free


@total_ordering
class Toughness:
    """Toughness value: infinite (complete graph), zero (disconnected), or a
    positive fraction.  Totally ordered, comparable against plain numbers."""

    __slots__ = ("_value",)

    def __init__(self, value: Fraction | None):
        if value is not None:
            value = Fraction(value)
            if value < 0:
                raise ValueError("toughness cannot be negative")
        self._value = value

    @classmethod
    def infinite(cls) -> "Toughness":
        return cls(None)

    @classmethod
    def zero(cls) -> "Toughness":
        return cls(Fraction(0))

    @classmethod
    def finite(cls, value: Fraction | int | str) -> "Toughness":
        tau = cls.__new__(cls)  # __init__ would build and check the value again
        tau._value = Fraction(value)
        if tau._value.numerator <= 0:
            raise ValueError("finite toughness must be positive")
        return tau

    @property
    def is_infinite(self) -> bool:
        return self._value is None

    @property
    def is_zero(self) -> bool:
        return self._value == 0

    @property
    def is_finite(self) -> bool:
        return self._value is not None and self._value > 0

    @property
    def value(self) -> Fraction:
        """The fraction behind a finite or zero value; raises when infinite."""
        if self._value is None:
            raise ValueError("infinite toughness has no fraction value")
        return self._value

    def _key(self, other: object) -> tuple[Fraction | None, Fraction | None]:
        if isinstance(other, Toughness):
            return self._value, other._value
        if isinstance(other, (int, Fraction)):
            return self._value, Fraction(other)
        return self._value, NotImplemented  # type: ignore[return-value]

    def __eq__(self, other: object) -> bool:
        a, b = self._key(other)
        if b is NotImplemented:
            return NotImplemented
        return a == b

    def __lt__(self, other: object) -> bool:
        a, b = self._key(other)
        if b is NotImplemented:
            return NotImplemented
        if a is None:
            return False
        return b is None or a < b

    def __hash__(self) -> int:
        return hash(self._value)

    def __str__(self) -> str:
        if self._value is None:
            return "inf"
        return str(self._value)

    def __repr__(self) -> str:
        return f"Toughness({str(self)!r})"


@dataclass(frozen=True)
class WitnessSet:
    """A cutset together with the quantities it certifies."""

    vertices: frozenset[int]
    cut_size: int
    component_count: int
    ratio: Fraction

    def revalidate(self, g: Graph) -> bool:
        """Does ``witness_for`` rebuild exactly this witness from the graph?
        A set that is no cutset of g, or holds a vertex outside it, fails."""
        try:
            return witness_for(g, self.vertices) == self
        except ValueError:
            return False

    def __str__(self) -> str:
        return set_to_str(self.vertices)


def _checked_set(g: Graph, vertices: Iterable[int]) -> frozenset[int]:
    """The vertices as a set; ValueError if one lies outside 0..n-1."""
    vs = frozenset(vertices)
    if any(not 0 <= v < g.n for v in vs):
        raise ValueError(f"{sorted(vs)} has a vertex outside 0..{g.n - 1}")
    return vs


def _checked_t(t: Fraction | int) -> Fraction:
    """t as a fraction; ValueError unless it is positive."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("t must be positive")
    return t


def witness_for(g: Graph, vertices: Iterable[int]) -> WitnessSet:
    """Build the WitnessSet for an explicit cutset (errors if not a cutset,
    or if a vertex lies outside the graph)."""
    vs = _checked_set(g, vertices)
    full = (1 << g.n) - 1
    omega = component_count(g._nbr, full ^ set_to_mask(vs))
    if omega < 2:
        raise ValueError(f"{sorted(vs)} is not a cutset (leaves {omega} component(s))")
    return WitnessSet(vs, len(vs), omega, Fraction(len(vs), omega))


def _independence_number(nbr: Sequence[int], pool: int) -> int:
    """Size of a largest independent set of the graph induced on ``pool``."""
    if not pool:
        return 0
    best_v, best_d = -1, -1
    m = pool
    while m:
        b = m & -m
        m ^= b
        v = b.bit_length() - 1
        d = (nbr[v] & pool).bit_count()
        if d <= 1:
            # some largest independent set holds a vertex of degree <= 1
            return 1 + _independence_number(nbr, pool & ~(b | nbr[v]))
        if d > best_d:
            best_v, best_d = v, d
    b = 1 << best_v
    return max(
        _independence_number(nbr, pool ^ b),
        1 + _independence_number(nbr, pool & ~(b | nbr[best_v])),
    )


def _alpha_sums(nbr: Sequence[int], pool: Iterable[int]) -> list[int]:
    """Entry s is the sum of the s largest alpha(G[N(v)]) over v in ``pool``.

    A vertex v of a cutset S touches at most alpha(G[N(v)]) components of
    G-S (one neighbor in each is an independent set), and every component
    has at least kappa neighbors in S, so kappa * c(G-S) <= entry |S| for
    every S drawn from the pool.
    """
    alphas = sorted((_independence_number(nbr, nbr[v]) for v in pool), reverse=True)
    return list(accumulate(alphas, initial=0))


def _tight_pool(
    nbr: Sequence[int], pool: Iterable[int]
) -> tuple[list[int], list[int] | None]:
    """The pool less its simplicial vertices, and by vertex the mask of its
    class of twins (N(u) - w = N(w) - u) among those left, or None when no
    two are twins.  ``_cutsets``, its only caller, draws each tight set from
    these vertices as a union of these classes.  Twins share N(v) or
    N(v) | v, never both kinds at once."""
    full = (1 << len(nbr)) - 1
    kept = [v for v in pool if not simplicial_in(nbr, full, v)]
    classes: dict[int, int] = {}
    for v in kept:
        for key in (nbr[v], nbr[v] | 1 << v):
            classes[key] = classes.get(key, 0) | 1 << v
    if len(classes) == 2 * len(kept):
        return kept, None
    twins = [0] * len(nbr)
    for v in kept:
        twins[v] = classes[nbr[v]] | classes[nbr[v] | 1 << v]
    return kept, twins


# ``_cutsets`` walks from the first size with more subsets than this.
_WALK_ABOVE = 200


def _cutsets(
    nbr: Sequence[int], pool: Sequence[int], need: Callable[[int], int],
    apart: tuple[int, int] | None = None,
) -> Iterator[tuple[tuple[int, ...], int]]:
    """(S, c(G - S)) for cutsets S of the connected graph behind ``nbr``,
    drawn from ``pool`` by size and then lexicographically.

    Without ``apart``, only tight sets are counted: each vertex of S sees
    two components of G - S.  The callers' answers are tight, as a vertex
    that sees at most one can leave S and lose none: the smallest minimizer
    of |S|/c, the first maximizer of t*c - |S|, the smallest S with c >
    |S|/t and a minimum separator.  A simplicial vertex's neighbours
    outside S lie in one component, and u in S would see only the
    component of a twin outside S, so the scan draws from
    ``_tight_pool(nbr, pool)`` and counts only unions of twin classes.

    With ``apart`` = (a, b), nonadjacent and outside the pool, the whole
    pool is scanned and only cutsets leaving a and b in different
    components are yielded.  Each holds W = N(a) & N(b), as a-w-b is a
    path, so the plain loop counts only subsets holding W, and none if the
    pool misses part of it.

    ``need(s)`` gives the fewest components a set of size s must leave to
    matter; it never falls as s grows or as the caller's incumbent
    improves.  It is read before each size and again after every yielded
    set, so a set the caller has just accepted prunes from the next one
    on.  Only cutsets meeting the need of the moment are yielded.  The
    scan ends at the first size where it exceeds n - s, the most an s-set
    can leave, and skips a size where it exceeds A_s // k (see
    ``_alpha_sums``): every component of G - S has at least k neighbors in
    S.  k is the size of the first cutset, known only while every smaller
    size was scanned: it starts at 1 and, without ``apart``, becomes s + 1
    after a size s that held no cutset while k = s.  For a component C of
    a later cutset S, N(C) is a cutset within S, tight when S is, so it
    has more than s vertices.  With ``apart`` k stays 1, as a size without
    a separating set proves nothing.  The alpha sums are built the first
    time a size needs more than two components, the fewest any cutset
    leaves.

    Sizes before the first with more than ``_WALK_ABOVE`` subsets count
    every subset.  From that size on, ``walk`` scans each size depth first
    in the same order and drops a partial set P, whose last vertex is
    pool[i], once no completion S can leave ``bound`` components.  ``bound``
    is the need, or 2 while k = s, so that a size without a cutset still
    raises k; once the size has held a cutset, k is settled and ``bound``
    follows the need.  Every cutset S of a connected graph obeys three
    bounds:

    * k * c <= e(S, V-S) = deg(S) - 2e(S), since each component sends at
      least k edges into S;
    * c <= deg(S) - e(S) - |S| + 1, since contracting each component to a
      vertex leaves a connected multigraph on |S| + c vertices with e(S) +
      e(S, V-S) edges;
    * c <= c(G[K]) + |L \\ N(K)| for any split of V into K, disjoint from
      S, and L: a component of G - S that meets K holds a whole component
      of G[K], and one that does not lies in L \\ N(K).

    With r vertices left to add, deg(S) <= deg(P) + D_r, D_r the sum of the
    r largest pool degrees, and e(S) >= e(P).  K is every vertex P can no
    longer remove: those outside the pool and the pool vertices before i
    that P passed over; L is the pool vertices after i.  The walk keeps the
    component masks of G[K] and N(K) as vertices join K.  The third bound
    with pool[i] counted in L never grows with i, so once it falls short
    the rest of the loop goes, as it does once a component of G[K] holds
    both vertices of ``apart``.

    On small graphs a walk step costs as much as the count it saves:
    walking every size halves the sweeps' component counts yet raises their
    CPU time by 5-13% on a 2-core host.  At 200 every scan with n <= 9
    keeps the loop; on the 14-18 vertex queries thresholds from 0 to 1,000
    time alike.
    """
    n = len(nbr)
    full = (1 << n) - 1
    k = 1
    twins, shared, ends = None, 0, -1  # mask & -1 == -1 holds for no mask
    if apart is None:
        pool, twins = _tight_pool(nbr, pool)
        free = pool
    else:
        shared, ends = nbr[apart[0]] & nbr[apart[1]], 1 << apart[0] | 1 << apart[1]
        free = [v for v in pool if not shared >> v & 1]
        if len(pool) - len(free) < shared.bit_count():
            return  # a common neighbour outside the pool joins a and b
    m = len(pool)

    def separated(removed):
        return apart is None or all(
            c & ends != ends for c in component_masks(nbr, full ^ removed))

    alpha_sums = None
    walk = None  # made, with its tables, at the first walking size
    for size in range(max(shared.bit_count(), 1), m + 1):
        least = max(need(size), 2)
        if least > n - size:
            return
        if least > 2:
            if alpha_sums is None:
                alpha_sums = _alpha_sums(nbr, pool)
            if alpha_sums[size] // k < least:
                continue
        if walk is None and comb(m, size) > _WALK_ABOVE:
            degs = [nbr[v].bit_count() for v in pool]
            top = list(accumulate(sorted(degs, reverse=True), initial=0))
            after = [0] * m  # after[i]: the pool vertices past index i
            for i in range(m - 1, 0, -1):
                after[i - 1] = after[i] | 1 << pool[i]
            outside = full ^ (after[0] | 1 << pool[0])
            outside_comps = component_masks(nbr, outside)
            outside_reach = 0
            for u in mask_to_tuple(outside):
                outside_reach |= nbr[u]

            def walk(start, chosen, removed, deg, inner, left, kept, reach):
                # the cutsets of this size that add ``left`` + 1 vertices from
                # pool[start:] to ``chosen``; kept: the component masks of G[K];
                # reach: N(K).  Made once a scan walks: made on every call
                # it slowed the n <= 6 scans by 5-7%
                nonlocal cut_seen, least, bound, cross, spare
                for i in range(start, m - left):
                    if i > start:  # pool[i - 1] was passed over and joins K
                        u = pool[i - 1]
                        nu = nbr[u]
                        merged, rest = 1 << u, []
                        for comp in kept:
                            if comp & nu:
                                merged |= comp
                            else:
                                rest.append(comp)
                        if merged & ends == ends:
                            return  # a and b share a component of G[K]
                        rest.append(merged)
                        kept = rest
                        reach |= nu
                    v = pool[i]
                    most = len(kept) + (after[i] & ~reach).bit_count()
                    if most < bound:
                        if most + (not reach >> v & 1) < bound:
                            return
                        continue
                    d = deg + degs[i]
                    e = inner + (nbr[v] & removed).bit_count()
                    room = d + top[left]
                    if room - 2 * e < cross or room - e < spare:
                        continue
                    if left:
                        yield from walk(
                            i + 1, chosen + (v,), removed | 1 << v, d, e,
                            left - 1, kept, reach
                        )
                        continue
                    if twins is not None:
                        closed = twins[v]
                        for u in chosen:
                            closed |= twins[u]
                        if closed != removed | 1 << v:
                            continue
                    omega = component_count(nbr, full ^ removed ^ 1 << v)
                    if omega >= 2:
                        cut_seen = True
                        if omega >= least and separated(removed | 1 << v):
                            yield chosen + (v,), omega
                            least = max(need(size), 2)
                        bound = least
                        cross, spare = k * bound, bound + size - 1
        cut_seen = False
        if walk is None:
            for combo in combinations(free, size - shared.bit_count()):
                removed = shared
                for v in combo:
                    removed |= 1 << v
                if twins is not None:
                    closed = 0
                    for v in combo:
                        closed |= twins[v]
                    if closed != removed:
                        continue
                omega = component_count(nbr, full ^ removed)
                if omega >= 2:
                    cut_seen = True
                    if omega >= least and separated(removed):
                        if shared:
                            combo = tuple(v for v in pool if removed >> v & 1)
                        yield combo, omega
                        least = max(need(size), 2)
        else:
            bound = 2 if k == size else least
            # prune unless k * bound <= deg(S) - 2e(S) and bound <= deg(S)
            # - e(S) - |S| + 1 can hold
            cross, spare = k * bound, bound + size - 1
            yield from walk(0, (), 0, 0, 0, size - 1, outside_comps, outside_reach)
        if apart is None and not cut_seen and k == size:
            k = size + 1


def toughness(g: Graph) -> tuple[Toughness, WitnessSet | None]:
    """Exact toughness with a minimizing cutset.

    Complete graphs give (inf, None).  Disconnected graphs give (0, witness
    with the empty set).  Otherwise ``_cutsets`` scans cutsets in
    increasing size, lexicographic within a size; the search keeps the
    first strict improvement, so the witness is the smallest minimizing
    cutset, ties broken by lexicographically least vertex tuple.  A size s
    matters only with more than s/r components, r the incumbent ratio; an
    improvement prunes the scan from the next set on.
    """
    n = g.n
    if g.is_complete():
        return Toughness.infinite(), None
    if not g.is_connected():
        return Toughness.zero(), witness_for(g, ())
    best_num, best_den = n, 1  # ratio n/1 beats any real cutset ratio
    best_set: tuple[int, ...] = ()
    for combo, omega in _cutsets(
        g._nbr, range(n), lambda size: size * best_den // best_num + 1
    ):
        if len(combo) * best_den < best_num * omega:
            best_num, best_den = len(combo), omega
            best_set = combo
    ratio = Fraction(best_num, best_den)
    return (
        Toughness.finite(ratio),
        WitnessSet(frozenset(best_set), len(best_set), best_den, ratio),
    )


def naive_toughness_oracle(g: Graph) -> Toughness:
    """Unpruned reference computation: iterate every one of the 2^n subsets.

    Exists solely to cross-validate the pruned search; capped at n <= 16.
    """
    n = g.n
    if n > 16:
        raise ValueError("naive oracle capped at n <= 16")
    if g.is_complete():
        return Toughness.infinite()
    nbr = g._nbr
    full = (1 << n) - 1
    if component_count(nbr, full) >= 2:
        return Toughness.zero()
    best: Fraction | None = None
    for removed in range(1, full + 1):
        omega = component_count(nbr, full ^ removed)
        if omega >= 2:
            ratio = Fraction(removed.bit_count(), omega)
            if best is None or ratio < best:
                best = ratio
    assert best is not None
    return Toughness.finite(best)


def is_t_tough(g: Graph, t: Fraction | int) -> tuple[bool, WitnessSet | None]:
    """Does every cutset S satisfy t * c(S) <= |S|?

    Complete graphs are t-tough for every t; disconnected graphs for none
    (witnessed by the empty set).  On a negative answer the returned witness
    maximizes c(S) * t - |S|, ties broken by smallest size then
    lexicographically least vertex tuple.  With t = p/q, ``_cutsets`` is
    asked at size s for more than (best score + q*s)/p components; a new
    best score prunes the scan from the next set on.
    """
    t = _checked_t(t)
    if g.is_complete():
        return True, None
    if not g.is_connected():
        return False, witness_for(g, ())
    p, q = t.numerator, t.denominator
    best_score = 0  # p*omega - q*size, positive = violation
    best: WitnessSet | None = None
    for combo, omega in _cutsets(
        g._nbr, range(g.n), lambda size: (best_score + q * size) // p + 1
    ):
        size = len(combo)
        score = p * omega - q * size
        if score > best_score:
            best_score = score
            best = WitnessSet(frozenset(combo), size, omega, Fraction(size, omega))
    return (best is None), best


def clawfree_toughness(g: Graph) -> Toughness:
    """Toughness via the connectivity identity for claw-free graphs.

    For a connected noncomplete claw-free graph the toughness equals half
    the vertex connectivity (Matthews-Sumner), taken from the max-flow
    ``vertex_connectivity``.  A graph with a claw raises ValueError.
    """
    cert = is_claw_free(g)
    if not cert.verdict:
        raise ValueError(f"graph contains a claw: {cert.witness}")
    if g.is_complete():
        return Toughness.infinite()
    if not g.is_connected():
        return Toughness.zero()
    kappa = vertex_connectivity(g).value
    return Toughness.finite(Fraction(kappa, 2))


def validate_tough_set(
    g: Graph, s: WitnessSet | Iterable[int], t: Fraction | int
) -> tuple[bool, list[str]]:
    """Check the structure of a tough set of a claw-free graph.

    For a minimizing cutset of a connected noncomplete claw-free graph with
    toughness t, every cut vertex must see exactly two of the remaining
    components, and every component must see exactly 2t cut vertices (2t is
    an integer or t = 1/2, where "exactly one" applies).  Returns the
    verdict plus diagnostics for every failed condition.
    """
    t = _checked_t(t)
    vs = _checked_set(g, s.vertices if isinstance(s, WitnessSet) else s)
    full = (1 << g.n) - 1
    removed = set_to_mask(vs)
    comp_masks = component_masks(g._nbr, full ^ removed)
    if len(comp_masks) < 2:
        raise ValueError(f"{sorted(vs)} is not a cutset")
    problems: list[str] = []
    ratio = Fraction(len(vs), len(comp_masks))
    if ratio != t:
        problems.append(f"|S|/components = {ratio}, not the stated toughness {t}")
    two_t = 2 * t
    if two_t.denominator != 1:
        problems.append(f"2t = {two_t} is not an integer")
        return False, problems
    for v in sorted(vs):
        touched = sum(1 for m in comp_masks if g._nbr[v] & m)
        if touched != 2:
            problems.append(f"vertex {v} has neighbors in {touched} components, not 2")
    for m in comp_masks:
        nbrs = set()
        for v in mask_to_tuple(m):
            nbrs.update(mask_to_tuple(g._nbr[v] & removed))
        if len(nbrs) != two_t:
            comp = sorted(mask_to_tuple(m))
            problems.append(
                f"component {comp} has {len(nbrs)} neighbors in S, not {two_t}"
            )
    return not problems, problems
