"""Named small graphs built from explicit edge lists, and a component
count and induced-subgraph predicates of the tests' own.

Kept independent of the package's family generators and component search so
tests can use these as fixtures and oracles without circularity.
"""

from toughkit import Graph, enumerate_trees


def omega(g, removed=()):
    """Components of g - removed, by a depth-first search of its own."""
    left = set(range(g.n)) - set(removed)
    count = 0
    while left:
        count += 1
        stack = [left.pop()]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if w in left:
                    left.remove(w)
                    stack.append(w)
    return count


def _induced_degrees(g, vs):
    inside = sum(1 << v for v in set(vs))
    return [(g._nbr[v] & inside).bit_count() for v in vs]


def induces_cycle(g, vs):
    """Whether g[vs] is one chordless cycle: every induced degree is 2 and
    g[vs] is connected."""
    if any(d != 2 for d in _induced_degrees(g, vs)):
        return False
    return omega(g, set(range(g.n)) - set(vs)) == 1


def induces_2k2(g, vs):
    """Whether g[vs] is a perfect matching, on four vertices a 2K2."""
    return all(d == 1 for d in _induced_degrees(g, vs))


def complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def circulant(n, steps):
    """C_n(steps): vertex i adjacent to i +- d (mod n) for each step d."""
    return Graph(n, {tuple(sorted((i, (i + d) % n))) for i in range(n) for d in steps})


def star(b):
    return Graph(b + 1, [(0, i) for i in range(1, b + 1)])


def paw():
    # triangle 0,1,2 with pendant 3 attached at 0
    return Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])


def bowtie():
    # two triangles sharing vertex 4
    return Graph(5, [(0, 1), (0, 4), (1, 4), (2, 3), (2, 4), (3, 4)])


def net():
    # triangle 0,1,2 with one pendant per corner
    return Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])


def net_long_tail():
    # net with the pendant at 2 lengthened to a two-vertex tail
    return Graph(7, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5), (5, 6)])


def double_star_hub():
    # adjacent centers 4 and 5; leaves 0, 1 on 5 and 2, 3 on 4; hub 6 joined
    # to all four leaves (graph6 "F?NN_", minimally 2/3-tough, 2K2-free)
    return Graph(
        7,
        [(0, 5), (0, 6), (1, 5), (1, 6), (2, 4), (2, 6), (3, 4), (3, 6), (4, 5)],
    )


def triangle_p2_tails():
    # triangle 0,1,2; two-vertex tail on every corner
    return Graph(
        9,
        [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (1, 5), (5, 6), (2, 7), (7, 8)],
    )


def spider(*legs):
    # center 0 with paths of the given lengths hanging off it
    edges = []
    nxt = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph(nxt, edges)


def comb_tree():
    # path 0..20 with a two-vertex tail on each of 2, 4, ..., 18: 39 vertices,
    # above the default input cap of 32
    edges = [(i, i + 1) for i in range(20)]
    nxt = 21
    for v in range(2, 19, 2):
        edges += [(v, nxt), (nxt, nxt + 1)]
        nxt += 2
    return Graph(nxt, edges)


def double_star(b, k):
    # adjacent centers 0, 1 with b-1 and k leaves
    edges = [(0, 1)]
    edges += [(0, i) for i in range(2, b + 1)]
    edges += [(1, i) for i in range(b + 1, b + k + 1)]
    return Graph(b + k + 1, edges)


def split_triangle(b):
    # triangle 0,1,2 with b-1 pendants per corner
    edges = [(0, 1), (0, 2), (1, 2)]
    nxt = 3
    for i in range(3):
        for _ in range(b - 1):
            edges.append((i, nxt))
            nxt += 1
    return Graph(nxt, edges)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def octahedron():
    # K_{2,2,2}: complete graph minus the perfect matching 0-1, 2-3, 4-5
    skip = {(0, 1), (2, 3), (4, 5)}
    return Graph(
        6, [(u, v) for u in range(6) for v in range(u + 1, 6) if (u, v) not in skip]
    )


def cricket():
    # vertex 4 joined to everything, plus the edge 2-3
    return Graph(5, [(0, 4), (1, 4), (2, 3), (2, 4), (3, 4)])


def half_trees(max_n):
    """Trees on 3..max_n vertices that the triangle-from-tree construction
    accepts: maximum degree 3, degree-1/degree-3 vertices independent."""
    for n in range(3, max_n + 1):
        for t in enumerate_trees(n):
            if t.max_degree() > 3:
                continue
            special = [v for v in range(n) if t.degree(v) in (1, 3)]
            if any(
                t.has_edge(u, v)
                for i, u in enumerate(special)
                for v in special[i + 1 :]
            ):
                continue
            yield t
