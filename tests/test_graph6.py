import random
from itertools import combinations

import pytest

import zoo
from toughkit import (
    Graph,
    Graph6Error,
    encode_graph6,
    format_adjacency,
    parse_adjacency,
    parse_graph6,
    parse_graph_auto,
)


def reference_encode(g):
    """Independent reference encoder, written directly from the format rules
    with string bit-fiddling (deliberately unlike the production encoder)."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        bits18 = format(n, "018b")
        head = "~" + "".join(
            chr(int(bits18[i : i + 6], 2) + 63) for i in (0, 6, 12)
        )
    bits = ""
    for j in range(1, n):
        for i in range(j):
            bits += "1" if g.has_edge(i, j) else "0"
    while len(bits) % 6:
        bits += "0"
    body = "".join(chr(int(bits[i : i + 6], 2) + 63) for i in range(0, len(bits), 6))
    return head + body


def test_named_encodings():
    assert encode_graph6(zoo.complete(2)) == "A_"
    assert encode_graph6(zoo.complete(3)) == "Bw"
    assert encode_graph6(Graph(0)) == "?"
    assert parse_graph6("A_") == zoo.complete(2)
    assert parse_graph6("Bw") == zoo.complete(3)
    assert parse_graph6("?") == Graph(0)


def test_agrees_with_reference_encoder_on_zoo():
    for g in (
        zoo.path(4),
        zoo.cycle(4),
        zoo.cycle(5),
        zoo.star(3),
        zoo.paw(),
        zoo.bowtie(),
        zoo.net(),
        zoo.petersen(),
        Graph(1),
        Graph(5),
    ):
        assert encode_graph6(g) == reference_encode(g)
        assert parse_graph6(reference_encode(g)) == g


def test_round_trip_random_graphs():
    rng = random.Random(987123)
    for _ in range(300):
        n = rng.randint(0, 20)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        g = Graph(n, edges)
        line = encode_graph6(g)
        assert line == reference_encode(g)
        assert parse_graph6(line) == g


def test_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(555)
    for _ in range(100):
        n = rng.randint(1, 12)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph(n, edges)
        line = encode_graph6(g)
        G = nx.from_graph6_bytes(line.encode("ascii"))
        assert set(G.nodes) == set(range(n))
        assert {tuple(sorted(e)) for e in G.edges} == set(g.edges())
        assert nx.to_graph6_bytes(G, header=False).decode().strip() == line


def test_long_header_form():
    # three-character count header kicks in at n = 63
    g = Graph(63, [(0, 62)])
    line = encode_graph6(g)
    assert line.startswith("~")
    assert parse_graph6(line, cap=64) == g
    assert line == reference_encode(g)
    with pytest.raises(Graph6Error):
        parse_graph6(line)  # over the default cap of 32


def test_parsers_agree_on_the_cap():
    g6 = chr(40 + 63) + "?" * 130  # 40 vertices, no edges
    adj = "40\n0 1"
    assert parse_graph6(g6, cap=40) == Graph(40)
    assert parse_adjacency(adj, cap=40) == Graph(40, [(0, 1)])
    assert parse_graph_auto(g6, cap=40).n == parse_graph_auto(adj, cap=40).n == 40
    for parse, text in (
        (parse_graph6, g6),
        (parse_adjacency, adj),
        (parse_graph_auto, g6),
        (parse_graph_auto, adj),
    ):
        with pytest.raises(ValueError):
            parse(text)  # default cap 32
        with pytest.raises(ValueError):
            parse(text, cap=39)


def test_optional_file_header_stripped():
    assert parse_graph6(">>graph6<<A_") == zoo.complete(2)


def test_error_cases():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("A" + chr(62))  # byte below 63 in the body
    with pytest.raises(Graph6Error):
        parse_graph6("A")  # missing adjacency bits
    with pytest.raises(Graph6Error):
        parse_graph6("A__")  # trailing garbage
    with pytest.raises(Graph6Error):
        parse_graph6("Cl_")
    with pytest.raises(Graph6Error):
        parse_graph6(encode_graph6(Graph(20)), cap=10)  # over the cap
    with pytest.raises(Graph6Error):
        parse_graph6("~??")  # truncated long header
    # nonzero padding bits: K2's body char with a stray low bit
    with pytest.raises(Graph6Error):
        parse_graph6("A" + chr(ord("_") + 1))


def test_adjacency_list_format():
    text = "4\n0 1\n1 2\n2 3\n"
    assert parse_adjacency(text) == zoo.path(4)
    assert format_adjacency(zoo.path(4)) == text
    assert parse_adjacency(format_adjacency(zoo.petersen())) == zoo.petersen()
    with pytest.raises(ValueError):
        parse_adjacency("not a number")
    with pytest.raises(ValueError):
        parse_adjacency("3\n0 1 2")
    with pytest.raises(ValueError):
        parse_adjacency("2\n0 5")


def test_auto_detection():
    assert parse_graph_auto("Cl\n") == zoo.cycle(4)
    assert parse_graph_auto(">>graph6<<Cl\n") == zoo.cycle(4)
    assert parse_graph_auto("4\n0 1\n1 2\n2 3\n") == zoo.path(4)
    with pytest.raises(ValueError):
        parse_graph_auto("   ")
