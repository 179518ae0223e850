"""Answer checks for the query workload, run outside the timed region.

Toughness is checked against ``naive_toughness_oracle`` for n <= 16 and
against the corpus's closed forms for the structured families.  Printed
witness sets must pass ``witness_for(...).revalidate``, edge witnesses
``EdgeWitness.holds``.  Minimal toughness is decided again by an unpruned
subset scan written here, class verdicts by checking their certificates
(or, for claw-free and 2K2-free acceptance, by brute force).
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations

ORACLE_MAX_N = 16


def _components(adj: list[int], full: int, removed: int) -> int:
    left = full & ~removed
    count = 0
    while left:
        comp = frontier = left & -left
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= adj[b.bit_length() - 1]
            frontier = nxt & left & ~comp
            comp |= frontier
        left &= ~comp
        count += 1
    return count


def _violates(adj: list[int], n: int, t: Fraction) -> bool:
    """Is there a set S with t * c(G-S) > |S| and c(G-S) >= 2?"""
    full = (1 << n) - 1
    for size in range(0, n - 1):
        if t * (n - size) <= size:  # c(G-S) <= n - |S| cannot beat |S|/t
            break
        for combo in combinations(range(n), size):
            removed = 0
            for v in combo:
                removed |= 1 << v
            c = _components(adj, full, removed)
            if c >= 2 and t * c > size:
                return True
    return False


class Reference:
    """Expected answers for one corpus graph, computed once."""

    def __init__(self, tk, cg):
        self.tk = tk
        self.cg = cg
        self.g = tk.Graph(cg.n, cg.edges)
        adj = [0] * cg.n
        for u, v in cg.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.adj = adj
        if cg.n <= ORACLE_MAX_N:
            tau = tk.naive_toughness_oracle(self.g).value
            if cg.closed_form is not None and tau != cg.closed_form:
                raise AssertionError(f"{cg.name}: oracle {tau} != closed form")
        else:
            tau = cg.closed_form
        self.tau = tau
        self.minimal = all(self._drops(u, v) for u, v in cg.edges)

    def _drops(self, u: int, v: int) -> bool:
        adj = list(self.adj)
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        return _violates(adj, self.cg.n, self.tau)


_WITNESS = re.compile(r"^witness \{([\d,]*)\} \|S\|=(\d+) components=(\d+)$")
_EDGE_WITNESS = re.compile(
    r"^edge (\d+)-(\d+): S = \{([\d,]*)\}, omega\(G-S\) = (\d+) <= \|S\|/t = (\S+), "
    r"omega\(\(G-e\)-S\) = (\d+) > (\S+)$"
)
_BRIDGE_WITNESS = re.compile(r"^edge (\d+)-(\d+): bridge, S = \{\}$")


def _set(text: str) -> list[int]:
    return [int(x) for x in text.split(",")] if text else []


def _check_cutset(ref: Reference, line: str, expect_ratio) -> str | None:
    m = _WITNESS.match(line)
    if not m:
        return f"bad witness line {line!r}"
    vs = _set(m.group(1))
    w = ref.tk.witness_for(ref.g, vs)
    if not w.revalidate(ref.g):
        return "witness fails revalidate"
    if (w.cut_size, w.component_count) != (int(m.group(2)), int(m.group(3))):
        return "witness counts misprinted"
    if not expect_ratio(w.ratio):
        return f"witness ratio {w.ratio} wrong"
    return None


def _induced(ref: Reference, vs) -> list[int]:
    """Degrees inside the induced subgraph on vs."""
    mask = sum(1 << v for v in vs)
    return [(ref.adj[v] & mask).bit_count() for v in vs]


def _connected(ref: Reference, vs) -> bool:
    mask = sum(1 << v for v in vs)
    sub = [a & mask for a in ref.adj]
    return _components(sub, mask, 0) == 1


def _is_claw(ref: Reference, vs) -> bool:
    return len(vs) == 4 and sorted(_induced(ref, vs)) == [1, 1, 1, 3]


def _is_2k2(ref: Reference, vs) -> bool:
    return len(vs) == 4 and _induced(ref, vs) == [1] * 4 and not _connected(ref, vs)


def _is_long_hole(ref: Reference, vs) -> bool:
    return len(vs) >= 4 and set(_induced(ref, vs)) == {2} and _connected(ref, vs)


def _is_peo(ref: Reference, order) -> bool:
    if sorted(order) != list(range(ref.cg.n)):
        return False
    later = (1 << ref.cg.n) - 1
    for v in order:
        later &= ~(1 << v)
        nb = [w for w in range(ref.cg.n) if ref.adj[v] >> w & 1 and later >> w & 1]
        if any(not ref.adj[a] >> b & 1 for a, b in combinations(nb, 2)):
            return False
    return True


def _is_split_partition(ref: Reference, clique, indep) -> bool:
    if sorted(clique + indep) != list(range(ref.cg.n)):
        return False
    return all(ref.adj[a] >> b & 1 for a, b in combinations(clique, 2)) and not any(
        ref.adj[a] >> b & 1 for a, b in combinations(indep, 2)
    )


def _has_claw(ref: Reference) -> bool:
    for c in range(ref.cg.n):
        nb = [w for w in range(ref.cg.n) if ref.adj[c] >> w & 1]
        for a, b, d in combinations(nb, 3):
            if not (ref.adj[a] >> b & 1 or ref.adj[a] >> d & 1 or ref.adj[b] >> d & 1):
                return True
    return False


def _has_2k2(ref: Reference) -> bool:
    return any(
        _is_2k2(ref, (a, b, c, d))
        for (a, b), (c, d) in combinations(ref.cg.edges, 2)
        if len({a, b, c, d}) == 4
    )


def _is_split_obstruction(ref: Reference, vs) -> bool:
    return _is_2k2(ref, vs) or len(vs) in (4, 5) and _is_long_hole(ref, vs)


# Induced subgraphs whose presence refutes each class.
_OBSTRUCTION = {"chordal": _is_long_hole, "split": _is_split_obstruction,
                "claw-free": _is_claw, "2k2-free": _is_2k2}


def _check_classify(ref: Reference, lines: list[str]) -> str | None:
    rows = {}
    for line in lines:
        parts = line.split(None, 2)
        if len(parts) != 3:
            return f"bad classify line {line!r}"
        rows[parts[0]] = (parts[1] == "yes", parts[2])
    if list(rows) != list(_OBSTRUCTION):
        return f"bad classify rows {list(rows)}"
    for name, (yes, detail) in rows.items():
        if not yes:
            m = re.fullmatch(r"witness=\{([\d,]*)\}", detail)
            if not m or not _OBSTRUCTION[name](ref, _set(m.group(1))):
                return f"{name} witness {detail!r} is not an induced obstruction"
        elif name == "chordal":
            m = re.fullmatch(r"order=\[([\d,]*)\]", detail)
            if not m or not _is_peo(ref, _set(m.group(1))):
                return "chordal order is not a perfect elimination order"
        elif name == "split":
            m = re.fullmatch(r"C=\{([\d,]*)\} I=\{([\d,]*)\}", detail)
            if not m or not _is_split_partition(ref, _set(m.group(1)), _set(m.group(2))):
                return "split partition invalid"
        elif name == "claw-free" and _has_claw(ref):
            return "claw-free accepted a graph with a claw"
        elif name == "2k2-free" and _has_2k2(ref):
            return "2k2-free accepted a graph with a 2K2"
    return None


def check_answer(ref: Reference, argv: tuple[str, ...], code: int, out: str) -> str | None:
    """None when the command's exit code and output are right, else why not."""
    try:
        return _check(ref, argv, code, out)
    except ValueError as exc:  # unparsable number, or a witness that is no cutset
        return f"{argv[0]} output rejected: {exc}"


def _check(ref: Reference, argv: tuple[str, ...], code: int, out: str) -> str | None:
    lines = out.splitlines()
    command = argv[0]
    tau = ref.tau
    if command == "toughness":
        if code != 0 or not lines or Fraction(lines[0]) != tau or len(lines) != 2:
            return f"toughness printed {lines[:1]} exit {code}, expected {tau}"
        return _check_cutset(ref, lines[1], lambda r: r == tau)
    if command == "is-tough":
        t = Fraction(argv[1])
        expect = tau >= t
        if code != 0 or not lines or lines[0] != ("true" if expect else "false"):
            return f"is-tough {t} printed {lines[:1]} exit {code}, tau {tau}"
        if expect:
            return None if len(lines) == 1 else "witness printed for a true answer"
        return _check_cutset(ref, lines[1], lambda r: r < t) if len(lines) == 2 else "no witness"
    if command == "classify":
        return _check_classify(ref, lines) if code == 0 else f"classify exit {code}"
    if command == "min-tough":
        want = (f"minimally {tau}-tough" if ref.minimal
                else f"not minimally tough (tau = {tau})")
        if code != (0 if ref.minimal else 1) or lines != [want]:
            return f"min-tough printed {lines} exit {code}, expected {want!r}"
        return None
    if command == "witness":
        if not ref.minimal:
            want = ["graph is not minimally tough; no witness defined"]
            return None if code == 1 and lines == want else f"witness printed {lines}"
        if code != 0 or len(lines) != 2 or lines[0] != f"minimally {tau}-tough":
            return f"witness printed {lines} exit {code}"
        return _check_edge_witness(ref, argv[1], lines[1])
    return f"unknown command {command}"


def _check_edge_witness(ref: Reference, edge: str, line: str) -> str | None:
    tk = ref.tk
    u, v = sorted(int(x) for x in edge.split("-"))
    m = _BRIDGE_WITNESS.match(line)
    if m:
        w = tk.EdgeWitness((u, v), frozenset(), True, 0, 0, Fraction(0))
    else:
        m = _EDGE_WITNESS.match(line)
        if not m or m.group(5) != m.group(7):
            return f"bad edge witness {line!r}"
        w = tk.EdgeWitness((u, v), frozenset(_set(m.group(3))), False,
                           int(m.group(4)), int(m.group(6)), Fraction(m.group(5)))
    if (int(m.group(1)), int(m.group(2))) != (u, v):
        return f"witness for the wrong edge: {line!r}"
    return None if w.holds(ref.g, ref.tau) else f"edge witness fails holds: {line!r}"
