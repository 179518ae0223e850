"""Seeded single-graph query corpus for the ``query-n16`` workload.

The corpus has a fixed composition; the seed only picks vertex labellings,
random edges, thresholds and edges.  Two strata:

* ``sparse``: vertex-relabelled paths, cycles and circulants C_n(1,2) and
  C_n(1,3) on 14-18 vertices.  Their low degree against high connectivity
  is what a kappa/degree cutoff of the subset search exploits.  C_n(1,3)
  is taken at even n only, where its toughness has a closed form.
* ``random``: connected G(n,p) on 14-16 vertices at three densities, where
  such a cutoff does not fire.  n stays within the reach of the unpruned
  2^n oracle that checks their answers.

Every graph is asked the five single-graph CLI commands.  Smaller graphs
get several labellings (``COPIES``), so that the latency percentiles rest
on many samples; answers at n = 14 take milliseconds, at n = 18 seconds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

SPARSE_NS = (14, 15, 16, 17, 18)
RANDOM_NS = (14, 15, 16)
COPIES = {14: 3, 15: 3, 16: 2, 17: 1, 18: 1}
RANDOM_COPIES = {14: 2, 15: 2, 16: 1}
DENSITIES = (0.3, 0.45, 0.6)
THRESHOLDS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))
COMMANDS = ("toughness", "min-tough", "classify", "is-tough", "witness")


@dataclass(frozen=True)
class CorpusGraph:
    name: str  # family-n.copy, e.g. "cycle-17.0" or "gnp0.45-15.1"
    stratum: str  # "sparse" or "random"
    family: str  # path, cycle, c12, c13 or gnp
    n: int
    edges: tuple[tuple[int, int], ...]
    closed_form: Fraction | None  # toughness, where a formula gives it


@dataclass(frozen=True)
class Query:
    graph: CorpusGraph
    argv: tuple[str, ...]  # CLI command and arguments before the graph file
    file: str  # graph6 file, relative to the work directory


def _relabel(n: int, edges, rng: random.Random) -> tuple[tuple[int, int], ...]:
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))


def _circulant(n: int, steps) -> set[tuple[int, int]]:
    return {tuple(sorted((i, (i + d) % n))) for i in range(n) for d in steps}


def _sparse(n: int):
    # Closed forms: tau(P_n) = 1/2 (n >= 3), tau(C_n) = 1 (n >= 4).  In
    # C_n(1,2) every component boundary needs two consecutive removed
    # vertices, so tau = 2 for n >= 6.  C_n(1,3) for even n is bipartite
    # with a Hamiltonian cycle, so tau = 1.
    yield "path", [(i, i + 1) for i in range(n - 1)], Fraction(1, 2)
    yield "cycle", _circulant(n, (1,)), Fraction(1)
    yield "c12", _circulant(n, (1, 2)), Fraction(2)
    if n % 2 == 0:
        yield "c13", _circulant(n, (1, 3)), Fraction(1)


def _gnp(n: int, p: float, rng: random.Random):
    while True:
        edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < p]
        seen, frontier = {0}, [0]
        adj = {v: set() for v in range(n)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        while frontier:
            v = frontier.pop()
            for w in adj[v] - seen:
                seen.add(w)
                frontier.append(w)
        if len(seen) == n:
            return edges


def build_graphs(seed: int) -> list[CorpusGraph]:
    rng = random.Random(seed)
    out = []
    for n in SPARSE_NS:
        for family, edges, tau in _sparse(n):
            for copy in range(COPIES[n]):
                out.append(CorpusGraph(f"{family}-{n}.{copy}", "sparse", family, n,
                                       _relabel(n, edges, rng), tau))
    for n in RANDOM_NS:
        for p in DENSITIES:
            for copy in range(RANDOM_COPIES[n]):
                out.append(CorpusGraph(f"gnp{p}-{n}.{copy}", "random", "gnp", n,
                                       _relabel(n, _gnp(n, p, rng), rng), None))
    return out


def encode_graph6(n: int, edges) -> str:
    """graph6 encoding for n <= 62, written independently of toughkit."""
    adj = set(edges)
    bits = [1 if (i, j) in adj else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k:k + 6]:
            value = value * 2 + b
        chars.append(chr(value + 63))
    return "".join(chars)


def build_queries(graphs: list[CorpusGraph], seed: int) -> list[Query]:
    """Five commands per graph, in a seeded shuffled order."""
    rng = random.Random(seed ^ 0x5EED)
    queries = []
    for i, g in enumerate(graphs):
        file = f"g{i:02d}.g6"
        u, v = rng.choice(g.edges)
        args = {
            "toughness": (),
            "min-tough": (),
            "classify": (),
            "is-tough": (str(rng.choice(THRESHOLDS)),),
            "witness": (f"{u}-{v}",),
        }
        for command in COMMANDS:
            queries.append(Query(g, (command, *args[command]), file))
    rng.shuffle(queries)
    return queries
