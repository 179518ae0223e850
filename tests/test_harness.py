import importlib
import io
from fractions import Fraction

import pytest

import zoo
from toughkit import (
    EnumerationSource,
    Graph,
    Graph6Source,
    canonical_key,
    encode_graph6,
    parse_graph6,
    run_suite,
    run_suites,
    scan_minimally_tough,
)
from toughkit import harness
from toughkit.harness import SUITES, _ToughnessMemo, classify
from toughkit.enumeration import enumerate_connected_graphs
from toughkit.families import delete_and_complete
from toughkit.graph6 import graph_from_key
from toughkit.graphs import component_count, set_to_mask
from toughkit.mintough import _drops, minimal_toughness_value
from toughkit.toughness import toughness

F = Fraction


def _canonical(g):
    """g relabeled as the dedup enumeration yields its class."""
    return graph_from_key(g.n, canonical_key(g))


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("T99", EnumerationSource([3]))


def test_enumeration_source_checks_range_up_front():
    # each n is checked against the cap of the mode it will use
    for ns, mode in (([], "auto"), ([0, 3], "auto"), (range(1, 10), "auto"),
                     ([9], "dedup"), ([8], "labeled")):
        with pytest.raises(ValueError):
            EnumerationSource(ns, mode=mode)
    assert EnumerationSource(range(1, 9)).ns == list(range(1, 9))
    assert EnumerationSource([7], mode="labeled").ns == [7]


def test_t16_instances_on_dedup_enumeration():
    rep = run_suite("T16", EnumerationSource(range(1, 7), mode="dedup"))
    assert rep.verdict == "pass"
    assert [g6 for g6, _ in rep.instances] == [
        encode_graph6(_canonical(zoo.cycle(n))) for n in (4, 5, 6)
    ]
    assert rep.scanned == 1 + 1 + 2 + 6 + 21 + 112


def test_t4_t8_empty_on_small_sweep():
    for suite in ("T4", "T8"):
        rep = run_suite(suite, EnumerationSource(range(1, 7), mode="dedup"))
        assert rep.verdict == "pass"
        assert rep.instances == [] and rep.violations == []


def test_t7_instances_are_small_t_chordal():
    rep = run_suite("T7", EnumerationSource(range(1, 6), mode="dedup"))
    assert rep.verdict == "pass"
    assert rep.instances  # trees at least
    assert all("t=" in d for _, d in rep.instances)


def test_t12_passes_and_t20_fails_small():
    reps = run_suites(["T12", "T20"], EnumerationSource(range(1, 6), mode="dedup"))
    t12, t20 = reports = {r.suite: r for r in reps}["T12"], {r.suite: r for r in reps}["T20"]
    assert t12.verdict == "pass"
    # the toughness-preservation claim for the split expansion is refuted
    # (smallest counterexamples appear at n = 5, e.g. the cricket)
    assert t20.verdict == "fail"
    cricket_g6 = encode_graph6(zoo.cricket())
    assert any(g6 == cricket_g6 for g6, _ in t20.violations)


def test_t17_pass_includes_net():
    rep = run_suite("T17", EnumerationSource(range(1, 7), mode="dedup"))
    assert rep.verdict == "pass"
    members = {g6 for g6, _ in rep.instances}
    assert encode_graph6(_canonical(zoo.path(3))) in members
    assert encode_graph6(_canonical(zoo.net())) in members


def test_labeled_and_dedup_modes_agree():
    for suite in ("T4", "T7", "T8", "T11", "T12", "T16", "C18", "KRIESELL"):
        lab = run_suite(suite, EnumerationSource(range(1, 6), mode="labeled"))
        ded = run_suite(suite, EnumerationSource(range(1, 6), mode="dedup"))
        assert lab.verdict == ded.verdict
        # labeled instances collapse onto the dedup instances up to relabeling
        lab_keys = {
            (encode_graph6(_canonical(parse_graph6(g6))), d)
            for g6, d in lab.instances
        }
        ded_keys = {
            (encode_graph6(_canonical(parse_graph6(g6))), d)
            for g6, d in ded.instances
        }
        assert lab_keys == ded_keys


def test_graph6_source_counts_malformed():
    lines = ["Cl", "", "@@@bad@@@ line", "Bw", "A_"]
    rep = run_suite("T16", Graph6Source(lines, "fixture"))
    assert rep.scanned == 3
    assert len(rep.malformed) == 1
    assert rep.verdict == "pass"
    assert "line 3" in rep.malformed[0]


def test_report_text_is_stable_and_excludes_timing():
    src = lambda: Graph6Source(["Cl", "Cs", "Bw"], "fixture")
    a = run_suite("KRIESELL", src()).to_text()
    b = run_suite("KRIESELL", src()).to_text()
    assert a == b
    assert "elapsed" not in a
    assert a.endswith("verdict report-only\n")
    assert "instance Cl t=1 mindeg=2 ceil2t=2" in a
    assert "instance Cs t=1/3 mindeg=1 ceil2t=1" in a


def test_kriesell_scan_rows():
    rows, malformed = scan_minimally_tough(
        EnumerationSource(range(1, 5), mode="dedup")
    )
    assert not malformed
    by_g6 = {r.g6: r for r in rows}
    c4 = encode_graph6(_canonical(zoo.cycle(4)))
    assert by_g6[c4].t == 1
    assert by_g6[c4].min_degree == 2 and by_g6[c4].ceil_2t == 2
    assert set(by_g6[c4].classes) == {"claw-free", "2k2-free"}
    star = encode_graph6(_canonical(zoo.star(3)))
    assert by_g6[star].t == F(1, 3)
    assert set(by_g6[star].classes) == {"chordal", "split", "2k2-free"}
    assert by_g6[star].min_degree == 1 and by_g6[star].ceil_2t == 1
    p3 = encode_graph6(_canonical(zoo.path(3)))
    assert by_g6[p3].t == F(1, 2) and by_g6[p3].min_degree == 1
    assert by_g6[p3].ceil_2t == 1


def test_all_suites_present():
    assert set(SUITES) == {
        "T4", "T7", "T8", "T11", "T12", "T16", "T17",
        "C18", "L19", "L14", "C1", "T20", "KRIESELL", "DEG1",
    }


def test_sweep_computes_each_toughness_once(monkeypatch):
    calls = []
    real = harness.toughness

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(harness, "toughness", counting)
    source = lambda: EnumerationSource(range(1, 6), mode="labeled")
    scanned = run_suites(list(SUITES), source())[0].scanned
    # every g - e and split expansion that classify and T20 ask about is
    # itself a connected labeled graph of the sweep, so none is searched twice
    assert scanned == 1 + 1 + 4 + 38 + 728
    assert len(calls) == len(set(calls)) == scanned
    # a second sweep starts from an empty memo
    run_suites(list(SUITES), source())
    assert len(calls) == 2 * scanned
    assert set(calls[:scanned]) == set(calls[scanned:])


def test_memo_answers_zero_for_disconnected_graphs(monkeypatch):
    calls = []
    real = harness.toughness
    monkeypatch.setattr(harness, "toughness", lambda g: calls.append(g) or real(g))
    memo = _ToughnessMemo()
    two_k2 = Graph(4, [(0, 1), (2, 3)])
    p3_k2 = Graph(5, [(0, 1), (1, 2), (3, 4)])
    for g in (two_k2, p3_k2, two_k2):
        assert memo(g).is_zero
    # no search, and nothing stored: the memo keeps connected graphs only
    assert calls == [] and memo._tau == {}
    assert memo(zoo.cycle(4)) == 1 and len(calls) == 1


def test_sweep_tests_connectivity_only_on_memo_misses(monkeypatch):
    modules = [
        importlib.import_module(f"toughkit.{name}")
        for name in ("graphs", "toughness", "mintough", "recognition", "enumeration")
    ]
    counts = {"connected": 0, "components": 0}
    real_count, real_connected = modules[0].component_count, Graph.is_connected

    def component_count(nbr, pool):
        counts["components"] += 1
        return real_count(nbr, pool)

    def is_connected(g):
        counts["connected"] += 1
        return real_connected(g)

    for module in modules:
        monkeypatch.setattr(module, "component_count", component_count)
    monkeypatch.setattr(Graph, "is_connected", is_connected)
    reports = run_suites(list(SUITES), EnumerationSource(range(1, 6), mode="labeled"))
    # classify and T20 ask the memo about every g - e; a connected one is a
    # hit, since it precedes g in the labeled enumeration, so connectivity is
    # tested only on a graph's first lookup and on each disconnected g - e
    assert reports[0].scanned == 772
    assert counts["connected"] <= 6_005 and counts["components"] <= 24_193


def test_sweep_computes_no_bridge_set(monkeypatch):
    from toughkit import families, graphs, mintough

    calls = []
    real = graphs.bridges

    def counting(g):
        calls.append(g)
        return real(g)

    for module in (graphs, harness, mintough, families):
        if hasattr(module, "bridges"):
            monkeypatch.setattr(module, "bridges", counting)
    reports = run_suites(list(SUITES), EnumerationSource(range(1, 6), mode="labeled"))
    # classify and T20 test each edge on g - e, and the witness searches
    # give a bridge its own witness, so no suite builds a bridge set
    assert reports[0].scanned == 772 and calls == []


def test_sweep_makes_no_max_flow_calls(monkeypatch):
    import toughkit
    from toughkit import families, graphs, mintough, recognition, toughness

    calls = []
    real = graphs.vertex_connectivity

    def counting(g):
        calls.append(g)
        return real(g)

    for module in (toughkit, graphs, harness, toughness, mintough, families, recognition):
        if hasattr(module, "vertex_connectivity"):
            monkeypatch.setattr(module, "vertex_connectivity", counting)
    reports = run_suites(list(SUITES), EnumerationSource(range(1, 6), mode="labeled"))
    # T12 takes kappa from the cutset scan, not from the max-flow search
    assert reports[0].scanned == 772 and calls == []


def test_scan_computes_each_toughness_once(monkeypatch):
    calls = []
    real = harness.toughness
    monkeypatch.setattr(harness, "toughness", lambda g: calls.append(g) or real(g))
    scan_minimally_tough(EnumerationSource(range(1, 6), mode="labeled"))
    assert len(calls) == len(set(calls)) == 772


@pytest.mark.parametrize(
    "max_n, dedup", [(5, False), (6, True)], ids=["labeled-n<=5", "dedup-n<=6"]
)
def test_classify_matches_minimal_toughness_value(max_n, dedup):
    for n in range(1, max_n + 1):
        for g in enumerate_connected_graphs(n, dedup=dedup):
            assert classify(g, _ToughnessMemo()).t == minimal_toughness_value(g), g


def test_witness_suites_report_failed_searches_per_edge():
    # no sweep gives these rows: a record whose t is not tau(g) makes every
    # non-bridge edge's witness search fail
    c4 = classify(zoo.cycle(4), _ToughnessMemo())
    edges = ("0-1", "0-3", "1-2", "2-3")
    assert SUITES["C1"](c4._replace(t=F(2))) == (["t=2"], [
        f"edge={e} witness re-validation failed for edge ({e[0]}, {e[2]}); "
        "is the graph really minimally tough?"
        for e in edges
    ])
    assert SUITES["L14"](c4._replace(t=F(1, 2))) == (["t=1/2"], [
        f"edge={e} no witness for edge ({e[0]}, {e[2]}): "
        "the graph is not minimally 1/2-tough"
        for e in edges
    ])
    # only S = {0, 1} separates edge 2-3: L14 names the set size
    hubs = classify(
        Graph(7, [(0, 2), (2, 3), (3, 1)] + [(h, x) for h in (0, 1) for x in (4, 5, 6)]),
        _ToughnessMemo(),
    )
    _, violations = SUITES["L14"](hubs._replace(clawfree=True, t=F(1, 2)))
    assert len(violations) == 9 and violations[-1] == (
        "edge=2-3 no single-vertex witness for edge (2, 3): "
        "graph is not minimally 1/2-tough claw-free"
    )


@pytest.mark.parametrize("source", [
    EnumerationSource(range(1, 6), mode="labeled"),
    Graph6Source(
        [encode_graph6(g) for g in (zoo.cycle(5), zoo.star(3), zoo.complete(4),
                                    zoo.net(), zoo.cycle(5))]
        + ["", "@@@bad@@@", "Cl", "C!", "Bw"],
        "fixture",
    ),
], ids=["labeled-n<=5", "graph6-lines"])
def test_scan_and_reports_read_one_stream(source, monkeypatch):
    memos = []
    real = harness._ToughnessMemo
    monkeypatch.setattr(harness, "_ToughnessMemo", lambda: memos.append(1) or real())
    rows, malformed = scan_minimally_tough(source)
    reports = run_suites(list(SUITES), source)
    # one memo per sweep, one malformed list for every report
    assert len(memos) == 2
    assert all(rep.malformed == malformed for rep in reports)
    assert len(malformed) == (0 if isinstance(source, EnumerationSource) else 2)
    # the scan keeps repeated lines, the reports list each graph once
    c1 = reports[list(SUITES).index("C1")]
    assert list(dict.fromkeys((r.g6, f"t={r.t}") for r in rows)) == c1.instances


def test_dedup_sweep_work(monkeypatch):
    # verify all --enumerate 7 --dedup always: toughness searches and the
    # toughness module's component counts, each against its budget, and one
    # canonical_key call per class of levels 1..7.  Searching every g - e
    # and expansion took 7,045 searches and 112,327 counts, and rebuilding
    # levels 1..n-1 for every n took 1,180 keys
    from toughkit import cli, enumeration

    module = importlib.import_module("toughkit.toughness")
    calls = {"search": 0, "count": 0, "key": 0}
    budget = {"search": 4_749, "count": 93_494, "key": 996}

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            assert calls[name] <= budget[name], f"{name} ran past its budget"
            return real(*args)
        return call

    monkeypatch.setattr(harness, "toughness", counted("search", harness.toughness))
    monkeypatch.setattr(module, "component_count", counted("count", module.component_count))
    monkeypatch.setattr(enumeration, "canonical_key", counted("key", enumeration.canonical_key))
    assert cli.run(["verify", "all", "--enumerate", "7", "--dedup", "always"], io.StringIO()) == 1
    assert calls["key"] == 996


@pytest.fixture(scope="module")
def ladder():
    """Every connected labeled graph with n <= 6 and every class with
    n = 7, and a cache of their searched toughness and that of the graphs
    derived from them."""
    graphs = [g for n in range(1, 7) for g in enumerate_connected_graphs(n, dedup=False)]
    answers = {}

    def searched(h):
        if h._nbr not in answers:
            answers[h._nbr] = toughness(h)
        return answers[h._nbr]

    return graphs + list(enumerate_connected_graphs(7, dedup=True)), searched


def test_each_rung_answers_as_the_searched_drop(ladder):
    # the definition tau(g - e) < tau(g), searched, against the proof from
    # the minimizing set S* of g and the first-violator scan on every edge,
    # and against classify on every graph with a fresh memo, so that no
    # stored answer hides the other rungs
    graphs, searched = ladder
    proved = scanned = 0
    for g in graphs:
        tau, cut = searched(g)
        if not tau.is_finite:
            continue
        rest = ((1 << g.n) - 1) ^ set_to_mask(cut.vertices)
        drops = []
        for u, v in g.edges():
            h = g.delete_edge(u, v)
            drops.append(searched(h)[0] < tau)
            if rest >> u & rest >> v & 1 and (
                    component_count(h._nbr, rest) > cut.component_count):
                assert drops[-1], (g, (u, v))
                proved += 1
            assert _drops(g, tau.value, (u, v)) == drops[-1], (g, (u, v))
            scanned += 1
        assert classify(g, _ToughnessMemo()).t == (tau.value if all(drops) else None), g
    # the proof settles about one edge question in six
    assert (scanned, proved) == (227_990, 37_499)


def test_t20_expansion_proof_matches_the_searched_toughness(ladder):
    # wherever S*(g - e) leaves as many components in the expansion, the
    # searched tau(expansion) equals tau(g - e); and T20 on the sweep's
    # records gives the rows of searching every g - e and every expansion
    graphs, searched = ladder
    memo = _ToughnessMemo()
    fired = 0
    for g in graphs:
        rec = classify(g, memo)
        if not rec.twok2 or rec.tau.is_zero:
            continue
        want = []
        for e in g.edges():
            tau_minus, cut = searched(g.delete_edge(*e))
            if tau_minus.is_zero:
                continue
            expanded = delete_and_complete(g, e)
            tau_exp, _ = searched(expanded)
            rest = ((1 << g.n) - 1) ^ set_to_mask(cut.vertices)
            if component_count(expanded._nbr, rest) == cut.component_count:
                assert tau_exp == tau_minus, (g, e)
                fired += 1
            if tau_exp != tau_minus:
                want.append(f"edge={e[0]}-{e[1]} tau-expanded={tau_exp} tau-deleted={tau_minus}")
        assert SUITES["T20"](rec) == ([], want), g
    assert fired == 79_605
