"""Acceptance suite: one test per pinned criterion, printed as pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s``.

Every expected value here is either computed by an independent oracle
inside the test (brute-force searches, the unpruned toughness engine, the
definition-level minimality check) or verified against such an oracle
before being frozen.  Four checks (A5a, A8a, A8c, A8e) concern claims that
exhaustive search refutes; they pin the verified refutations exactly, so
they fail if a counterexample disappears, if a new one appears, or if an
engine drifts.  Their docstrings carry the analysis, and
``tests/test_findings.py`` confirms each counterexample with networkx.
"""

import random
import re
import time
from fractions import Fraction
from itertools import combinations

import pytest

import zoo
from toughkit import (
    Graph,
    bridges,
    canonical_key,
    clawfree_half_witness,
    encode_graph6,
    enumerate_connected_graphs,
    enumerate_trees,
    generate,
    is_minimally_t_tough,
    is_split,
    minimal_toughness_value,
    naive_toughness_oracle,
    parse_graph6,
    recognize_2k2_min_tough,
    recognize_clawfree_half,
    split_clique_edge_witness,
    split_expand,
    toughness,
)
from toughkit.enumeration import _labeled_graphs
from toughkit.graph6 import graph_from_key
from toughkit.families import (
    ClawfreeHalfFromTree,
    DoubleStar,
    SplitTriangle,
    Star,
)
from toughkit.harness import SUITES, EnumerationSource, run_suites
from toughkit.recognition import _twok2_verdict

F = Fraction


def report(tag, ok, detail=""):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}{': ' + detail if detail else ''}")
    return ok


# -- A1: oracle equivalence ------------------------------------------------------


def test_a01_oracle_equivalence():
    """Pruned toughness equals the unpruned oracle on every labeled graph with
    n <= 6 and on 1000 random graphs with 7 <= n <= 12, within a minute."""
    start = time.monotonic()
    checked = 0
    for n in range(1, 7):
        for g in _labeled_graphs(n, connected_only=False):
            assert toughness(g)[0] == naive_toughness_oracle(g), g.edges()
            checked += 1
    elapsed = time.monotonic() - start
    ok = elapsed < 60
    rng = random.Random(20250810)
    for _ in range(1000):
        n = rng.randint(7, 12)
        p = rng.uniform(0.15, 0.8)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        assert toughness(g)[0] == naive_toughness_oracle(g), g.edges()
    assert report(
        "A1", ok, f"{checked} labeled graphs n<=6 in {elapsed:.1f}s + 1000 random"
    )


# -- A2: named values ------------------------------------------------------------


def test_a02_named_values():
    """Frozen toughness values for the named graphs and families."""
    assert toughness(zoo.cycle(4))[0] == 1
    assert toughness(zoo.cycle(5))[0] == 1
    for b in range(2, 7):
        assert toughness(zoo.star(b))[0] == F(1, b)
    for n in range(3, 9):
        for t in enumerate_trees(n):
            assert toughness(t)[0] == F(1, t.max_degree())
    for n in range(1, 8):
        assert toughness(zoo.complete(n))[0].is_infinite
    assert toughness(zoo.petersen())[0] == F(4, 3)
    assert naive_toughness_oracle(zoo.petersen()) == F(4, 3)
    assert report("A2", True, "cycles, stars, all trees n<=8, cliques, Petersen 4/3")


# -- A3: claw-free connectivity identity -------------------------------------------


def test_a03_clawfree_connectivity_identity(sweep7):
    """Twice the toughness equals the vertex connectivity for every connected
    noncomplete claw-free graph on up to 7 vertices."""
    rep = sweep7["T12"]
    assert report("A3", rep.verdict == "pass", f"scanned {rep.scanned}, "
                  f"violations {len(rep.violations)}")


# -- A4: minimally 1-tough claw-free graphs -----------------------------------------


def test_a04_minimally_one_tough_clawfree_are_long_cycles(sweep7):
    """On up to 7 vertices they are exactly C4, C5, C6, C7."""
    rep = sweep7["T16"]
    assert rep.verdict == "pass"
    found = {canonical_key(parse_graph6(g6)) for g6, _ in rep.instances}
    expected = {canonical_key(zoo.cycle(n)) for n in (4, 5, 6, 7)}
    assert report(
        "A4",
        found == expected,
        f"{len(found)} classes found, set equality with {{C4,...,C7}}",
    )


# -- A5: minimally 1/2-tough claw-free graphs ---------------------------------------


def test_a05a_clawfree_half_members_pinned_path_set(sweep7):
    """The minimally 1/2-tough claw-free graphs on up to 7 vertices are
    exactly P3..P7, the net and the net's long-tail variant.

    The claim that P3..P7 alone make up this set is refuted.  The net (a
    triangle with one pendant vertex per corner, 6 vertices) and its
    7-vertex variant with one lengthened tail are also minimally 1/2-tough
    and claw-free.  By hand: removing a triangle corner leaves 2 components,
    so the toughness is 1/2; deleting a triangle edge leaves a tree with a
    degree-3 vertex, of toughness 1/3; deleting a pendant edge disconnects
    the graph.  Both arise from the triangle-from-tree construction (the
    net is built from the spider with three length-2 legs), and the net is
    also the b=2 member of the split-triangle family, which A7 requires to
    be minimally 1/2-tough.  The check pins the sweep's member set to these
    seven classes and to the construction's output on every valid tree.
    """
    rep = sweep7["T17"]
    found = {canonical_key(parse_graph6(g6)) for g6, _ in rep.instances}
    expected = {canonical_key(zoo.path(n)) for n in range(3, 8)}
    expected |= {canonical_key(zoo.net()), canonical_key(zoo.net_long_tail())}
    # generate drops the degree-3 vertices; valid trees with two or more of
    # them give at least 9 vertices, so trees up to 9 cover every output n <= 7
    constructed = set()
    for tree in zoo.half_trees(9):
        out = generate(ClawfreeHalfFromTree(tree))
        if out.n <= 7:
            constructed.add(canonical_key(out))
    assert constructed == expected
    assert report(
        "A5a",
        found == expected,
        f"{len(found)} classes found, set equality with "
        "{P3,...,P7, net, net long tail}",
    )


def test_a05b_nine_vertex_triangle_member():
    """The triangle with three length-2 tails is minimally 1/2-tough and the
    recognizer accepts it with the 10-vertex spider as its tree."""
    g = zoo.triangle_p2_tails()
    assert naive_toughness_oracle(g) == F(1, 2)
    assert is_minimally_t_tough(g, F(1, 2))
    accepted, tree = recognize_clawfree_half(g)
    assert accepted and canonical_key(tree) == canonical_key(zoo.spider(3, 3, 3))
    assert report("A5b", True, "9-vertex triangle member verified directly")


def test_a05c_recognizer_agrees_with_definition(sweep7):
    """Recognizer versus brute-force minimal toughness on every claw-free
    connected graph with n <= 7: zero disagreements."""
    rep = sweep7["T17"]
    assert report("A5c", rep.verdict == "pass", f"scanned {rep.scanned}")


def test_a05d_tree_round_trip():
    """generate then recognize returns an isomorphic tree, for every valid
    tree on at most 9 vertices."""
    count = 0
    for tree in zoo.half_trees(9):
        out = generate(ClawfreeHalfFromTree(tree))
        accepted, cert = recognize_clawfree_half(out)
        assert accepted, tree.edges()
        assert canonical_key(cert) == canonical_key(tree)
        count += 1
    assert report("A5d", True, f"{count} valid trees round-tripped")


# -- A6: chordal nonexistence and simplicial degrees ---------------------------------


def test_a06_chordal_results(sweep7):
    """No minimally t-tough chordal graph with 1/2 < t <= 1; no minimally
    t-tough split graph with t > 1/2; small-t chordal instances have all
    simplicial vertices of degree 1.  Full n <= 7 sweep."""
    t4, t7, t8 = sweep7["T4"], sweep7["T7"], sweep7["T8"]
    ok = (
        t4.verdict == "pass"
        and not t4.instances
        and t8.verdict == "pass"
        and not t8.instances
        and t7.verdict == "pass"
        and t7.instances
    )
    assert report(
        "A6",
        ok,
        f"T4 instances {len(t4.instances)}, T8 instances {len(t8.instances)}, "
        f"T7 instances {len(t7.instances)} all simplicial-degree-1",
    )


# -- A7: split characterization ------------------------------------------------------


def test_a07_split_characterization(sweep7):
    """Minimally tough split graphs in the sweep match the recognizer, and
    the generated families verify as minimally 1/b-tough for b in 2..4."""
    rep = sweep7["T11"]
    assert rep.verdict == "pass"
    for b in (2, 3, 4):
        assert is_minimally_t_tough(generate(Star(b)), F(1, b))
        assert is_minimally_t_tough(generate(SplitTriangle(b)), F(1, b))
        for k in range(1, b):
            assert is_minimally_t_tough(generate(DoubleStar(b, k)), F(1, b))
    assert report("A7", True, f"T11 pass, {len(rep.instances)} split instances; "
                  "Star/DoubleStar/SplitTriangle b=2..4 verified")


# -- A8: 2K2-free results -------------------------------------------------------------


def test_a08a_expansion_preserves_toughness(sweep7):
    """Deleting a non-bridge edge and completing the endpoint neighborhood
    to a clique never lowers the toughness of g - e, but it can raise it.

    The claim that the expansion preserves the toughness of g - e, for
    every connected 2K2-free graph on up to 7 vertices, is refuted.  The
    bound holds because g - e is a spanning subgraph of the expansion;
    equality fails on 5, 6 and 7 vertices and never below.  The smallest
    counterexamples have 5 vertices, e.g. the cricket (a dominating vertex
    over a path, graph6 "D@{"): deleting edge 2-4 leaves a tree of
    toughness 1/3, while the expansion creates a K4 and has toughness 1/2.
    On the net the expansion merges the two components flanking the
    deleted edge; that case breaks the expansion-based recognition (see
    A8c).  The check pins the shape of T20's violations and recomputes
    every one on up to 5 vertices with the unpruned oracle.
    """
    rep = sweep7["T20"]
    assert not [v for v in rep.violations if "not-split" in v[1]]
    for g6, detail in rep.violations:
        m = re.fullmatch(
            r"edge=\d+-\d+ tau-expanded=(\S+) tau-deleted=(\S+)", detail
        )
        assert m, (g6, detail)
        assert F(m[1]) > F(m[2]), (g6, detail)
        assert parse_graph6(g6).n >= 5, (g6, detail)
    assert (encode_graph6(zoo.cricket()),
            "edge=2-4 tau-expanded=1/2 tau-deleted=1/3") in rep.violations
    # on up to 5 vertices the violations are exactly the oracle's
    small = [v for v in rep.violations if parse_graph6(v[0]).n <= 5]
    oracle = []
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n, dedup=False):
            if not _twok2_verdict(g):
                continue
            bs = bridges(g)
            for e in g.edges():
                if e in bs:
                    continue
                expanded = naive_toughness_oracle(split_expand(g, e))
                deleted = naive_toughness_oracle(g.delete_edge(*e))
                if expanded != deleted:
                    oracle.append((encode_graph6(g), f"edge={e[0]}-{e[1]} "
                                   f"tau-expanded={expanded} tau-deleted={deleted}"))
    assert sorted(small) == sorted(oracle)
    assert report(
        "A8a",
        True,
        f"{len(rep.violations)} strict increases over tau(g-e), none at n<=4; "
        f"{len(small)} on n<=5 recomputed by the oracle",
    )


def test_a08b_expansion_always_split():
    """The expansion output certifies as a split graph for every connected
    2K2-free graph on up to 7 vertices and every non-bridge edge."""
    count = 0
    for n in range(3, 8):
        for g in enumerate_connected_graphs(n, dedup=True):
            if not _twok2_verdict(g):
                continue
            bs = bridges(g)
            for e in g.edges():
                if e in bs:
                    continue
                assert is_split(split_expand(g, e)).verdict, (g.edges(), e)
                count += 1
    assert report("A8b", True, f"{count} expansions all certified split")


def test_a08c_expansion_recognizer_agrees_with_definition():
    """The expansion-based minimal-toughness decision agrees with the
    brute-force decision on every connected 2K2-free graph with n <= 7
    except the net and "F?NN_", where it wrongly answers None.

    The claim of full agreement is refuted: the decision disagrees on
    exactly two graphs, the net (6 vertices, minimally 1/2-tough) and the
    9-edge graph "F?NN_" on 7 vertices (minimally 2/3-tough).  On the net,
    deleting a triangle edge drops the toughness from 1/2 to 1/3, but
    completing the endpoint neighborhood re-merges the two separated
    components through an added edge, so the expanded graph has toughness
    1/2 and the per-edge test reports no drop; there the witness
    containment holds and the expansion step alone loses the violation.
    On "F?NN_" the failure is deeper: the only witness for its central
    edge lies outside the endpoint neighborhood (see A8e), so restricting
    attention to the first level discards it.  A returned value is always
    right, because g - e is a subgraph of the expansion; only None can be
    wrong.  The check pins the two disagreements and exact agreement on
    every other graph.
    """
    disagreements = {}
    checked = 0
    for n in range(1, 8):
        for g in enumerate_connected_graphs(n, dedup=True):
            if not _twok2_verdict(g):
                continue
            checked += 1
            pair = (recognize_2k2_min_tough(g), minimal_toughness_value(g))
            if pair[0] != pair[1]:
                disagreements[encode_graph6(g)] = pair
    # the dedup representatives are canonically labeled
    net, hub = zoo.net(), zoo.double_star_hub()
    expected = {
        encode_graph6(graph_from_key(net.n, canonical_key(net))): (None, F(1, 2)),
        encode_graph6(graph_from_key(hub.n, canonical_key(hub))): (None, F(2, 3)),
    }
    assert report(
        "A8c",
        disagreements == expected,
        f"{checked} graphs, disagreements exactly on the net and F?NN_, "
        "both answered None",
    ), disagreements


def test_a08d_cutsets_isolate_all_but_one_component(sweep7):
    """Every cutset of every 2K2-free graph leaves at most one component of
    size >= 2 (checked for all n <= 7 in the sweep, covering n <= 6)."""
    rep = sweep7["C18"]
    assert report("A8d", rep.verdict == "pass", f"scanned {rep.scanned}")


def test_a08e_neighborhood_witnesses_exist(sweep7):
    """Every minimally tough 2K2-free graph on up to 7 vertices has, for
    every non-bridge edge, a witness inside the open neighborhood of the
    endpoints, except "F?NN_" at the edge joining its two centers.

    The claim that such witnesses always exist is refuted at n = 7 by the
    graph "F?NN_" (minimally 2/3-tough, 2K2-free): a double star with
    centers 4 and 5 carrying two leaves each, plus a hub 6 joined to all
    four leaves.  For the central edge 4-5, enumerating every vertex subset
    of every size shows exactly one set satisfies both witness
    inequalities: the hub {6}, which is not adjacent to either endpoint.
    The containment argument breaks in the corner where the candidate
    witness is not a cutset of the intact graph: the isolated-components
    property (A8d) only applies to cutsets, and the counting step compares
    against |S|-1 = 0 removed vertices.  Every other minimally tough 2K2-free
    graph through n = 7 does carry in-neighborhood witnesses.  The check
    pins L19's single violation to that graph and edge.
    """
    rep = sweep7["L19"]
    assert rep.verdict == "fail" and rep.instances
    [(g6, detail)] = rep.violations
    g = parse_graph6(g6)
    assert canonical_key(g) == canonical_key(zoo.double_star_hub())
    u, v = map(int, re.match(r"edge=(\d+)-(\d+) ", detail).groups())
    assert g.has_edge(u, v) and g.degree(u) == g.degree(v) == 3
    assert report(
        "A8e",
        True,
        f"{len(rep.instances)} minimally tough 2K2-free instances, "
        f"one neighborhood-witness failure: {g6} {detail}",
    )


# -- A9: edge witnesses ----------------------------------------------------------------


def test_a09_edge_witnesses(sweep7):
    """Every edge of every minimally tough graph in the n <= 7 sweep yields a
    validating witness; the closed-form split-clique sets validate on the
    generated split families; claw-free 1/2-tough witnesses have size <= 1
    across the generated family suite up to 11 vertices."""
    rep = sweep7["C1"]
    assert rep.verdict == "pass" and rep.instances
    l14 = sweep7["L14"]
    assert l14.verdict == "pass"
    # closed-form split-clique witnesses on the generated families
    formula_checked = 0
    for b in (2, 3, 4, 5):
        for g in (generate(SplitTriangle(b)), generate(Star(b)),
                  generate(DoubleStar(b, 1))):
            t = minimal_toughness_value(g)
            assert t == F(1, b)
            cert = is_split(g)
            assert cert.verdict
            C, I = cert.clique, cert.independent
            for u, v in g.edges():
                if u in C and v in C:
                    w = split_clique_edge_witness(g, (C, I), (u, v), t)
                    assert w.bridge_case or w.holds(g, t)
                    formula_checked += 1
    # triangle-from-tree family members with up to 11 vertices
    family_checked = 0
    for tree in zoo.half_trees(12):
        g = generate(ClawfreeHalfFromTree(tree))
        if g.n > 11:
            continue
        for e in g.edges():
            w = clawfree_half_witness(g, e)
            assert len(w.vertices) <= 1 and w.holds(g, F(1, 2))
        family_checked += 1
    assert report(
        "A9",
        True,
        f"{len(rep.instances)} swept instances, {formula_checked} clique-edge "
        f"formula sets, {family_checked} family members with |S|<=1 witnesses",
    )


# -- A10: minimum-degree report -----------------------------------------------------------


def test_a10_min_degree_report(sweep7):
    """Report-only: every minimally t-tough graph in the n <= 7 sweep has
    minimum degree exactly ceil(2t); zero counterexamples expected."""
    rep = sweep7["KRIESELL"]
    ok = rep.verdict == "report-only" and not rep.violations and rep.instances
    assert report(
        "A10", ok, f"{len(rep.instances)} minimally tough graphs, "
        f"{len(rep.violations)} counterexamples"
    )


# -- A11: runtime budgets -----------------------------------------------------------------


def test_a11_runtime_budgets(sweep7):
    """Full n <= 6 suite under a minute; n <= 7 sweep under 30 minutes;
    graph6 round-trip over a 100k-line corpus under 5 seconds."""
    start = time.monotonic()
    run_suites(list(SUITES), EnumerationSource(range(1, 7)))
    suite6 = time.monotonic() - start
    sweep7_elapsed = sweep7["T4"].elapsed
    rng = random.Random(7)
    corpus = []
    for _ in range(100_000):
        n = rng.randint(1, 14)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        corpus.append(encode_graph6(Graph(n, edges)))
    start = time.monotonic()
    for line in corpus:
        assert encode_graph6(parse_graph6(line)) == line
    g6_elapsed = time.monotonic() - start
    ok = suite6 < 60 and sweep7_elapsed < 1800 and g6_elapsed < 5
    assert report(
        "A11",
        ok,
        f"n<=6 suite {suite6:.1f}s (<60), n<=7 sweep {sweep7_elapsed:.1f}s "
        f"(<1800), graph6 100k round-trip {g6_elapsed:.2f}s (<5)",
    )
