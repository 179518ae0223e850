from fractions import Fraction

import pytest

import zoo
from toughkit import (
    ClawfreeHalfFromTree,
    Cycle,
    DoubleStar,
    Graph,
    Path,
    SplitTriangle,
    Star,
    canonical_key,
    generate,
    is_minimally_t_tough,
    is_split,
    minimal_toughness_value,
    recognize_2k2_min_tough,
    recognize_clawfree_half,
    recognize_clawfree_min_tough,
    recognize_split_min_tough,
    split_expand,
    toughness,
)
from toughkit.enumeration import _labeled_graphs
from toughkit.families import parse_descriptor
from toughkit.recognition import _twok2_verdict

F = Fraction


def test_generators_match_explicit_fixtures():
    assert generate(Star(3)) == zoo.star(3)
    assert generate(Path(4)) == zoo.path(4)
    assert generate(Cycle(5)) == zoo.cycle(5)
    assert generate(DoubleStar(3, 2)) == zoo.double_star(3, 2)
    assert generate(SplitTriangle(2)) == zoo.split_triangle(2)
    assert generate(SplitTriangle(1)) == zoo.complete(3)


def test_generator_validation():
    for bad in (Star(0), Path(0), Cycle(2), DoubleStar(1, 1), DoubleStar(3, 3),
                SplitTriangle(0)):
        with pytest.raises(ValueError):
            generate(bad)


def test_triangle_construction_from_trees():
    # spider with three length-2 legs: one degree-3 vertex becomes a triangle
    spider = zoo.spider(2, 2, 2)
    out = generate(ClawfreeHalfFromTree(spider))
    assert out.n == spider.n - 1
    assert canonical_key(out) == canonical_key(zoo.net())
    # length-3 legs give the triangle with two-vertex tails
    out9 = generate(ClawfreeHalfFromTree(zoo.spider(3, 3, 3)))
    assert canonical_key(out9) == canonical_key(zoo.triangle_p2_tails())
    # paths pass through unchanged
    assert generate(ClawfreeHalfFromTree(zoo.path(5))) == zoo.path(5)


def test_triangle_construction_rejects_bad_trees():
    with pytest.raises(ValueError):
        generate(ClawfreeHalfFromTree(zoo.star(3)))  # leaves adjacent to the center
    with pytest.raises(ValueError):
        generate(ClawfreeHalfFromTree(zoo.path(2)))  # adjacent leaves
    with pytest.raises(ValueError):
        generate(ClawfreeHalfFromTree(zoo.cycle(4)))  # not a tree
    with pytest.raises(ValueError):
        generate(ClawfreeHalfFromTree(zoo.star(4)))  # degree 4


def test_generated_family_members_are_minimally_tough():
    for b in (2, 3, 4):
        assert is_minimally_t_tough(generate(Star(b)), F(1, b))
        assert is_minimally_t_tough(generate(SplitTriangle(b)), F(1, b))
        for k in range(1, b):
            assert is_minimally_t_tough(generate(DoubleStar(b, k)), F(1, b))
    for n in (3, 4, 5, 6):
        assert is_minimally_t_tough(generate(Path(n)), F(1, 2))
    for n in (4, 5, 6, 7):
        assert is_minimally_t_tough(generate(Cycle(n)), F(1))
    for tree in zoo.half_trees(8):
        assert is_minimally_t_tough(generate(ClawfreeHalfFromTree(tree)), F(1, 2))


def test_generator_recognizer_round_trip():
    for tree in zoo.half_trees(8):
        out = generate(ClawfreeHalfFromTree(tree))
        accepted, cert = recognize_clawfree_half(out)
        assert accepted
        assert canonical_key(cert) == canonical_key(tree)


def test_recognize_clawfree_half_examples():
    ok, cert = recognize_clawfree_half(zoo.path(5))
    assert ok and cert == zoo.path(5)
    assert not recognize_clawfree_half(zoo.bowtie())[0]
    ok, cert = recognize_clawfree_half(zoo.triangle_p2_tails())
    assert ok and canonical_key(cert) == canonical_key(zoo.spider(3, 3, 3))
    assert not recognize_clawfree_half(zoo.complete(2))[0]
    assert not recognize_clawfree_half(zoo.complete(3))[0]
    assert not recognize_clawfree_half(zoo.cycle(5))[0]
    assert recognize_clawfree_half(zoo.net())[0]


def test_recognize_clawfree_half_certificate_above_input_cap():
    # the certificate tree has 39 vertices although the graph has 30, so it
    # must not be held to the input cap of 32
    tree = zoo.comb_tree()
    g = generate(ClawfreeHalfFromTree(tree))
    assert g.n == 30 and is_minimally_t_tough(g, F(1, 2))
    accepted, cert = recognize_clawfree_half(g)
    assert accepted and cert.n == 39 and cert.is_tree()
    assert generate(ClawfreeHalfFromTree(cert)) == g


def test_recognize_split_min_tough():
    assert recognize_split_min_tough(zoo.star(4)) == F(1, 4)
    assert recognize_split_min_tough(zoo.split_triangle(3)) == F(1, 3)
    assert recognize_split_min_tough(zoo.cycle(4)) is None
    assert recognize_split_min_tough(zoo.path(4)) == F(1, 2)
    assert recognize_split_min_tough(zoo.complete(3)) is None
    assert recognize_split_min_tough(zoo.complete(2)) is None
    assert recognize_split_min_tough(zoo.paw()) is None
    # triangle with unequal pendant counts is not minimally tough
    uneven = Graph(7, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5), (2, 6)])
    assert recognize_split_min_tough(uneven) is None
    assert minimal_toughness_value(uneven) is None


def test_recognize_split_min_tough_agrees_with_definition():
    from toughkit.recognition import _split_verdict

    for g in _labeled_graphs(6, connected_only=True):
        if not _split_verdict(g):
            assert recognize_split_min_tough(g) is None or not g.is_tree()
            continue
        assert recognize_split_min_tough(g) == minimal_toughness_value(g)


def test_recognize_clawfree_min_tough():
    assert recognize_clawfree_min_tough(zoo.cycle(6)) == F(1)
    assert recognize_clawfree_min_tough(zoo.path(3)) == F(1, 2)
    assert recognize_clawfree_min_tough(zoo.complete(3)) is None
    assert recognize_clawfree_min_tough(zoo.net()) == F(1, 2)
    assert recognize_clawfree_min_tough(zoo.octahedron()) is None  # t = 2 unsettled


def test_split_expand_examples():
    c5 = zoo.cycle(5)
    h = split_expand(c5, (0, 1))
    assert h == Graph(5, c5.delete_edge(0, 1).edges() + [(2, 4)])
    assert toughness(h)[0] == toughness(c5.delete_edge(0, 1))[0] == F(1, 2)
    c4 = zoo.cycle(4)
    assert split_expand(c4, (0, 1)) == c4.delete_edge(0, 1)  # level-1 pair adjacent
    paw = zoo.paw()
    h = split_expand(paw, (1, 2))
    assert h == zoo.star(3)
    assert toughness(h)[0] == F(1, 3)


def test_split_expand_validation():
    with pytest.raises(ValueError):
        split_expand(zoo.path(5), (1, 2))  # has an induced 2K2
    with pytest.raises(ValueError):
        split_expand(zoo.star(3), (0, 1))  # bridge
    with pytest.raises(ValueError):
        split_expand(zoo.cycle(4), (0, 2))  # not an edge


def test_split_expand_output_is_always_split():
    for g in _labeled_graphs(6, connected_only=True):
        if not _twok2_verdict(g):
            continue
        from toughkit import bridges

        bs = bridges(g)
        for e in g.edges():
            if e not in bs:
                assert is_split(split_expand(g, e)).verdict


def test_split_expand_preservation_fails_on_cricket():
    # the expansion can merge the two endpoint-side components and raise the
    # toughness: deleting 2-4 from the cricket leaves a tree of toughness 1/3
    # but the expanded split graph has toughness 1/2
    g = zoo.cricket()
    assert toughness(g.delete_edge(2, 4))[0] == F(1, 3)
    assert toughness(split_expand(g, (2, 4)))[0] == F(1, 2)


def test_recognize_2k2_examples():
    assert recognize_2k2_min_tough(zoo.cycle(4)) == F(1)
    assert recognize_2k2_min_tough(zoo.star(3)) == F(1, 3)
    assert recognize_2k2_min_tough(zoo.complete(4)) is None
    with pytest.raises(ValueError):
        recognize_2k2_min_tough(zoo.path(5))


def test_recognize_2k2_disagrees_on_net():
    # the expansion-based decision misses the net: deleting a triangle edge
    # genuinely drops the toughness to 1/3, but every expansion has
    # toughness 1/2, so the per-edge test reports no drop
    assert minimal_toughness_value(zoo.net()) == F(1, 2)
    assert recognize_2k2_min_tough(zoo.net()) is None


def test_descriptor_parsing():
    assert parse_descriptor("star:3") == Star(3)
    assert parse_descriptor("path:5") == Path(5)
    assert parse_descriptor("cycle:4") == Cycle(4)
    assert parse_descriptor("doublestar:3,2") == DoubleStar(3, 2)
    assert parse_descriptor("splittriangle:2") == SplitTriangle(2)
    for bad in ("star:x", "nope:3", "doublestar:3"):
        with pytest.raises(ValueError):
            parse_descriptor(bad)
