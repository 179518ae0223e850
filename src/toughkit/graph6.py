"""graph6 text format, plus the plain adjacency-list format for fixtures.

graph6 encodes a simple undirected graph as one line of printable ASCII:
a length header (chr(n+63) for n <= 62, or '~' + 3 chars of 18-bit
big-endian for larger n), followed by the upper triangle of the adjacency
matrix read column by column, packed big-endian into 6-bit groups, each
group offset by 63.  The trailing group is zero-padded.

The parsers hold outside input to the cap they are given (default 32
vertices); ``Graph`` itself only enforces the 64-vertex word bound.
"""

from __future__ import annotations

from .graphs import MAX_VERTEX_CAP, Graph

DEFAULT_VERTEX_CAP = 32


class Graph6Error(ValueError):
    """Raised for malformed graph6 input."""


_HEADER = ">>graph6<<"


def check_cap(cap: int) -> int:
    """Return ``cap`` if it is a valid input cap, 1..64; else raise ValueError."""
    if not 1 <= cap <= MAX_VERTEX_CAP:
        raise ValueError(f"vertex cap must be in 1..{MAX_VERTEX_CAP}, got {cap}")
    return cap


def parse_graph6(line: str, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Decode one graph6 line into a Graph.

    The optional '>>graph6<<' file header is tolerated.  Raises Graph6Error
    for a malformed length header, characters outside the printable range
    63..126, a vertex count above the cap, or trailing garbage.
    """
    check_cap(cap)
    s = line.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise Graph6Error("empty graph6 line")
    data = [ord(c) - 63 for c in s]
    if any(d < 0 or d > 63 for d in data):
        raise Graph6Error("character outside printable range 63..126")
    if data[0] < 63:
        n = data[0]
        pos = 1
    else:
        # '~' prefix: 18-bit count (the 36-bit '~~' form exceeds any cap here)
        if len(data) < 4:
            raise Graph6Error("truncated length header")
        if data[1] == 63:
            raise Graph6Error("vertex counts beyond 18 bits are not supported")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        if n < 63:
            raise Graph6Error("non-canonical length header")
        pos = 4
    if n > cap:
        raise Graph6Error(f"vertex count {n} exceeds cap {cap}")
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    body = data[pos:]
    if len(body) < nchars:
        raise Graph6Error("line too short for vertex count")
    if len(body) > nchars:
        raise Graph6Error("trailing garbage after adjacency bits")
    val = 0
    for d in body:
        val = val << 6 | d
    pad = nchars * 6 - nbits
    if val & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits")
    return graph_from_key(n, val >> pad)


def graph_from_key(n: int, key: int) -> Graph:
    """Rebuild a graph from its adjacency bits as one integer, in graph6
    order (0,1), (0,2), (1,2), (0,3), ... with the first pair most
    significant."""
    masks = [0] * n
    shift = n * (n - 1) // 2
    for j in range(1, n):
        for i in range(j):
            shift -= 1
            if key >> shift & 1:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return Graph._from_masks(n, tuple(masks))


def encode_graph6(g: Graph) -> str:
    """Encode a Graph as a canonical-length graph6 line (no trailing newline)."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + chr((n >> 12) + 63) + chr((n >> 6 & 63) + 63) + chr((n & 63) + 63)
    nbr = g._nbr
    val = 0
    for j in range(1, n):
        for i in range(j):
            val = val << 1 | (nbr[i] >> j & 1)
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    val <<= nchars * 6 - nbits
    chars = []
    for k in range(nchars - 1, -1, -1):
        chars.append(chr((val >> 6 * k & 63) + 63))
    return head + "".join(chars)


# -- adjacency-list text format -----------------------------------------------


def parse_adjacency(text: str, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Parse the plain fixture format: an "n" line, then one "u v" line per edge."""
    check_cap(cap)
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty adjacency-list input")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"bad vertex-count line: {lines[0]!r}") from None
    if n < 0 or n > cap:
        raise ValueError(f"vertex count {n} outside 0..{cap}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"bad edge line: {ln!r}") from None
        edges.append((u, v))
    return Graph(n, edges)


def format_adjacency(g: Graph) -> str:
    """Inverse of parse_adjacency (edges sorted, one per line)."""
    lines = [str(g.n)]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def parse_graph_auto(text: str, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Auto-detect the input format.

    graph6 if the first line starts with the '>>graph6<<' header, or if its
    first byte is >= 63 and it has no space; otherwise the adjacency-list
    format.
    """
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty graph input")
    first = stripped.splitlines()[0]
    if first.startswith(_HEADER) or (ord(first[0]) >= 63 and " " not in first):
        return parse_graph6(first, cap)
    return parse_adjacency(text, cap)
