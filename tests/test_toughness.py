import importlib
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

import zoo
from toughkit import (
    Graph,
    Toughness,
    WitnessSet,
    clawfree_toughness,
    is_t_tough,
    naive_toughness_oracle,
    toughness,
    validate_tough_set,
    vertex_connectivity,
    witness_for,
)
from toughkit.enumeration import _labeled_graphs, enumerate_connected_graphs
from toughkit.graphs import component_masks, set_to_mask
from toughkit.mintough import edge_deletion_witness, twok2_neighborhood_witness
from toughkit.recognition import _clawfree_verdict
from toughkit.toughness import _cutsets

F = Fraction


def test_toughness_value_type():
    assert str(Toughness.infinite()) == "inf"
    assert str(Toughness.zero()) == "0"
    assert str(Toughness.finite(F(4, 3))) == "4/3"
    assert Toughness.zero() < Toughness.finite(F(1, 7)) < Toughness.infinite()
    assert Toughness.finite(1) == 1 and Toughness.zero() == 0
    assert Toughness.finite(F(1, 2)) < 1
    assert Toughness.infinite() > F(1000)
    for value in (0, -1, F(-1, 2), "0", "-3/2"):
        with pytest.raises(ValueError, match="finite toughness must be positive"):
            Toughness.finite(value)
    assert Toughness.finite("3/2").value == F(3, 2) and Toughness.finite(F(6, 4)) == F(3, 2)
    with pytest.raises(ValueError):
        Toughness.infinite().value


def test_toughness_order_agrees_with_value_order():
    ranked = [Toughness.zero(), Toughness.finite(F(1, 3)), Toughness.finite(1),
              Toughness.infinite()]
    for i, a in enumerate(ranked):
        for j, b in enumerate(ranked):
            assert (a < b, a <= b, a > b, a >= b, a == b) == (
                i < j, i <= j, i > j, i >= j, i == j
            )
    half = Toughness.finite(F(1, 2))
    assert half <= F(1, 2) <= half and half >= F(1, 2) and half > 0
    assert F(1, 3) < half < 1 and not half >= 1 and Toughness.infinite() >= 10**9


def test_named_toughness_values():
    cases = [
        (zoo.complete(4), Toughness.infinite()),
        (zoo.cycle(4), Toughness.finite(1)),
        (zoo.cycle(5), Toughness.finite(1)),
        (zoo.star(3), Toughness.finite(F(1, 3))),
        (zoo.path(4), Toughness.finite(F(1, 2))),
        (zoo.petersen(), Toughness.finite(F(4, 3))),
    ]
    for g, expected in cases:
        tau, witness = toughness(g)
        assert tau == expected
        if expected.is_infinite:
            assert witness is None
        else:
            assert witness.revalidate(g)
            assert witness.ratio == expected.value


def test_toughness_witness_tie_break():
    # C4's minimizing cutsets are {0,2} and {1,3}: lexicographically least wins
    _, w = toughness(zoo.cycle(4))
    assert w.vertices == frozenset({0, 2})
    _, w = toughness(zoo.star(3))
    assert w.vertices == frozenset({0})
    # P4 has {1} and {2}: smallest then lex
    _, w = toughness(zoo.path(4))
    assert w.vertices == frozenset({1})


def test_toughness_degenerate_graphs():
    assert toughness(Graph(0))[0].is_infinite
    assert toughness(Graph(1))[0].is_infinite
    assert toughness(zoo.complete(2))[0].is_infinite
    tau, w = toughness(Graph(4, [(0, 1), (2, 3)]))
    assert tau.is_zero
    assert w.vertices == frozenset() and w.component_count == 2


def test_oracle_named_values():
    assert naive_toughness_oracle(zoo.cycle(4)) == Toughness.finite(1)
    assert naive_toughness_oracle(zoo.star(3)) == Toughness.finite(F(1, 3))
    assert naive_toughness_oracle(Graph(4, [(0, 1), (2, 3)])).is_zero
    with pytest.raises(ValueError):
        naive_toughness_oracle(Graph(17))


def test_oracle_equivalence_exhaustive_n5():
    for n in range(1, 6):
        for g in _labeled_graphs(n, connected_only=False):
            assert toughness(g)[0] == naive_toughness_oracle(g)


def test_oracle_equivalence_random_medium():
    rng = random.Random(424242)
    for _ in range(150):
        n = rng.randint(7, 12)
        p = rng.uniform(0.2, 0.75)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        assert toughness(g)[0] == naive_toughness_oracle(g)


def test_is_t_tough_examples():
    assert is_t_tough(zoo.cycle(5), 1) == (True, None)
    ok, w = is_t_tough(zoo.cycle(5), F(3, 2))
    assert not ok and w.vertices == frozenset({0, 2})
    assert is_t_tough(zoo.complete(3), 100) == (True, None)
    ok, w = is_t_tough(Graph(4, [(0, 1), (2, 3)]), F(1, 5))
    assert not ok and w.vertices == frozenset()
    with pytest.raises(ValueError):
        is_t_tough(zoo.cycle(4), 0)


def test_is_t_tough_consistent_with_toughness():
    for g in _labeled_graphs(5, connected_only=True):
        tau, _ = toughness(g)
        if tau.is_infinite:
            assert is_t_tough(g, 10 ** 6)[0]
            continue
        t = tau.value
        assert is_t_tough(g, t)[0]
        ok, w = is_t_tough(g, t + F(1, 97))
        assert not ok
        # the returned cutset maximizes t*omega - |S|; at least it must violate
        assert w.component_count * (t + F(1, 97)) > w.cut_size


def test_is_t_tough_witness_maximizes():
    t = F(1, 2)
    for g in _labeled_graphs(5, connected_only=True):
        ok, w = is_t_tough(g, t)
        if ok:
            continue
        best = max(
            zoo.omega(g, set_) * t - len(set_)
            for size in range(1, g.n - 1)
            for set_ in combinations(range(g.n), size)
            if zoo.omega(g, set_) >= 2
        )
        assert w.component_count * t - w.cut_size == best


def test_clawfree_toughness_matches_engine():
    assert clawfree_toughness(zoo.cycle(5)) == Toughness.finite(1)
    assert clawfree_toughness(zoo.path(4)) == Toughness.finite(F(1, 2))
    assert clawfree_toughness(zoo.complete(5)).is_infinite
    assert clawfree_toughness(Graph(4, [(0, 1), (2, 3)])).is_zero
    with pytest.raises(ValueError):
        clawfree_toughness(zoo.star(3))
    for g in _labeled_graphs(6, connected_only=True):
        if _clawfree_verdict(g):
            assert clawfree_toughness(g) == toughness(g)[0]


def test_kappa_bound_and_clawfree_equality():
    for g in _labeled_graphs(5, connected_only=True):
        if g.is_complete():
            continue
        tau = toughness(g)[0].value
        kappa = vertex_connectivity(g).value
        assert 2 * tau <= kappa
        if _clawfree_verdict(g):
            assert 2 * tau == kappa


def test_first_cutset_size_is_the_connectivity():
    # suite T12 reads kappa off the size-ordered cutset scan; the max-flow
    # vertex_connectivity is the reference
    graphs = [g for n in range(3, 7) for g in _labeled_graphs(n, connected_only=True)]
    rng = random.Random(2018)
    for n in range(7, 13):
        graphs += [zoo.circulant(n, steps) for steps in ((1,), (1, 2), (1, 3), (2, 3))]
        for p in (0.3, 0.5, 0.7):
            graphs.append(
                Graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p])
            )
    checked = 0
    for g in graphs:
        if g.is_connected() and not g.is_complete():
            cut, _ = next(_cutsets(g._nbr, range(g.n), lambda size: 2))
            assert len(cut) == vertex_connectivity(g).value, g
            checked += 1
    assert checked > 27_000


def _scan_answers(g):
    """What toughness, is_t_tough at tau, 1/2, 1, 3/2 and 2, the two
    per-edge witness searches at tau (None where they find no set) and T12's
    first cutset give on g, and each returned set with the graph it is a
    cutset of."""
    tau, w = toughness(g)
    answers, sets = [(tau, w)], [(g, w.vertices)]
    for t in sorted({F(1, 2), F(1), F(3, 2), F(2), tau.value}):
        verdict, w = is_t_tough(g, t)
        answers.append((verdict, w))
        if w is not None:
            sets.append((g, w.vertices))
    for e in g.edges():
        minus = g.delete_edge(*e)
        for search in (edge_deletion_witness, twok2_neighborhood_witness):
            try:
                w = search(g, tau.value, e)
            except RuntimeError:
                w = None
            answers.append(w)
            if w is not None and w.vertices:
                sets.append((minus, w.vertices))
    cut, _ = next(_cutsets(g._nbr, range(g.n), lambda size: 2))
    answers.append(cut)
    sets.append((g, frozenset(cut)))
    return answers, sets


@pytest.mark.slow
def test_tight_scans_match_the_full_scans(monkeypatch):
    # every connected labeled graph with n <= 6 and every class at n = 7:
    # the scans over the tight pool and its twin classes give what the same
    # scans give over every vertex, and every set they return holds no
    # simplicial vertex and, with each vertex, all of its twins
    graphs = [g for n in range(3, 7) for g in _labeled_graphs(n, connected_only=True)]
    graphs += list(enumerate_connected_graphs(7, dedup=True))
    graphs = [g for g in graphs if not g.is_complete()]
    tight = [_scan_answers(g) for g in graphs]
    monkeypatch.setattr(
        importlib.import_module("toughkit.toughness"), "_tight_pool",
        lambda nbr, pool: (list(pool), None),
    )
    for g, (answers, sets) in zip(graphs, tight):
        assert _scan_answers(g)[0] == answers, g
        for h, vs in sets:
            hood = [set(h.neighbors(v)) for v in range(h.n)]
            for v in vs:
                assert any(not h.has_edge(a, b) for a, b in combinations(hood[v], 2)), (g, vs)
                assert all(w in vs for w in range(h.n) if hood[v] - {w} == hood[w] - {v}), (g, vs)


def test_edge_deletion_monotone():
    for g in _labeled_graphs(5, connected_only=True):
        tau, _ = toughness(g)
        for e in g.edges():
            assert toughness(g.delete_edge(*e))[0] <= tau


def test_dominance_pruning_property():
    # restricting to cutsets where every removed vertex sees >= 2 of the
    # remaining components never changes the minimum ratio
    for g in _labeled_graphs(5, connected_only=True):
        if g.is_complete():
            continue
        unrestricted = toughness(g)[0].value
        full = (1 << g.n) - 1
        restricted = None
        for size in range(1, g.n - 1):
            for combo in combinations(range(g.n), size):
                masks = component_masks(g._nbr, full ^ set_to_mask(combo))
                if len(masks) < 2:
                    continue
                if all(sum(1 for m in masks if g._nbr[v] & m) >= 2 for v in combo):
                    r = F(size, len(masks))
                    if restricted is None or r < restricted:
                        restricted = r
        assert restricted == unrestricted


def test_witness_for_and_revalidate():
    w = witness_for(zoo.cycle(4), [0, 2])
    assert w.ratio == 1 and w.revalidate(zoo.cycle(4))
    with pytest.raises(ValueError):
        witness_for(zoo.cycle(4), [0, 1])


def test_witness_for_rejects_vertices_outside_graph():
    # vertex 10 is not in the path 0-1-2: {1, 10} must not pass for a cutset
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        witness_for(g, [1, 10])
    with pytest.raises(ValueError):
        witness_for(g, [-1, 1])
    forged = WitnessSet(frozenset({1, 10}), 2, 2, F(1))
    assert not forged.revalidate(g)
    assert witness_for(g, [1]).revalidate(g)


@pytest.mark.parametrize(
    "g, tau, witness",
    [
        (zoo.path(32), F(1, 2), {1}),
        (zoo.circulant(32, (1,)), F(1), {0, 2}),
        (zoo.circulant(32, (1, 2)), F(2), {0, 1, 3, 4}),
    ],
)
def test_kappa_alpha_cutoff_work_at_vertex_cap(monkeypatch, g, tau, witness):
    # the search scans the sizes up to kappa and stops: 1 + sum C(n, s)
    # component counts for s <= kappa (33, 529 and 41,449 here); past that
    # budget the counter raises, so a lost cutoff fails instead of hanging
    module = importlib.import_module("toughkit.toughness")
    budget = 1 + sum(math.comb(g.n, s) for s in range(1, len(witness) + 1))
    calls = 0
    count = module.component_count

    def counted(nbr, pool):
        nonlocal calls
        calls += 1
        assert calls <= budget, "toughness search ran past its component-count bound"
        return count(nbr, pool)

    monkeypatch.setattr(module, "component_count", counted)
    value, w = toughness(g)
    assert value == tau and w.vertices == frozenset(witness)


def _dense_gnp(n, p, seed):
    rng = random.Random(seed)
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


@pytest.mark.parametrize(
    "g, t, value, witness, budget",
    [
        # the full per-size scan made 155,382, 106,762, 155,382 and 64,839
        # counts; the degree bounds alone left 41,304, 2,634, 5,796 and
        # 64,607; a walk that held each size's need fixed made 4,432, 2,598,
        # 5,795 and 632
        (zoo.circulant(18, (1, 3)), None, F(1), range(0, 18, 2), 2_167),
        (zoo.path(18), F(2), False, range(1, 17, 2), 142),
        (zoo.cycle(18), F(3, 2), False, range(0, 18, 2), 178),
        (_dense_gnp(16, 0.6, 1), None, F(3), {1, 2, 4, 5, 6, 7, 9, 10, 12, 13, 14, 15}, 539),
    ],
    ids=["C18(1,3)", "P18", "C18", "G(16,0.6)"],
)
def test_partial_set_pruning_work(monkeypatch, g, t, value, witness, budget):
    # the walk drops partial sets no completion of which leaves enough
    # components; each budget is the count it makes, and the counter raises
    # past it
    module = importlib.import_module("toughkit.toughness")
    calls = 0
    count = module.component_count

    def counted(nbr, pool):
        nonlocal calls
        calls += 1
        assert calls <= budget, "cutset scan ran past its component-count budget"
        return count(nbr, pool)

    monkeypatch.setattr(module, "component_count", counted)
    result, w = toughness(g) if t is None else is_t_tough(g, t)
    assert result == value and w.vertices == frozenset(witness)
    monkeypatch.undo()
    assert w.revalidate(g)


def test_live_need_work_on_circulants(monkeypatch):
    # C_n(1,2) for n = 14..18 and C_n(1,3) for n = 14, 16, 18: the summed
    # component counts of toughness, and of is_t_tough at 1, 3/2 and 2.  A
    # scan that read the need once a size, and kept bound = 2 through the
    # size kappa = 4 of C_n(1,2) after its first cutset gave tau = 2, made
    # 14,190 and 15,216; the counter raises past each budget
    graphs = [zoo.circulant(n, (1, 2)) for n in range(14, 19)]
    graphs += [zoo.circulant(n, (1, 3)) for n in (14, 16, 18)]
    module = importlib.import_module("toughkit.toughness")
    count = module.component_count
    calls, budget = 0, 7_928

    def counted(nbr, pool):
        nonlocal calls
        calls += 1
        assert calls <= budget, "cutset scan ran past its component-count budget"
        return count(nbr, pool)

    monkeypatch.setattr(module, "component_count", counted)
    for g in graphs:
        tau, w = toughness(g)
        if g.has_edge(0, 2):  # C_n(1,2)
            assert (tau, w.vertices) == (2, {0, 1, 3, 4})
        else:
            assert (tau, w.vertices) == (1, frozenset(range(0, g.n, 2)))
    calls, budget = 0, 10_316
    for g in graphs:
        for t in (F(1), F(3, 2), F(2)):
            is_t_tough(g, t)


def test_exhaustive_scan_work(monkeypatch):
    # every connected labeled graph with n <= 6 and the 853 classes at n = 7
    # (28,329 graphs): the summed component counts of toughness, and of
    # is_t_tough at 1/2, 1, 3/2 and 2.  Each budget is the count the scan
    # made with a second k rule for plain sets, so the one k rule loses no
    # pruning.  A scan that never raised k counts more, and the counter
    # raises past the budget
    graphs = [g for n in range(1, 7) for g in _labeled_graphs(n, connected_only=True)]
    graphs += list(enumerate_connected_graphs(7, dedup=True))
    assert len(graphs) == 28_329
    module = importlib.import_module("toughkit.toughness")
    count = module.component_count
    calls, budget = 0, 0

    def counted(nbr, pool):
        nonlocal calls
        calls += 1
        assert calls <= budget, "cutset scan ran past its component-count budget"
        return count(nbr, pool)

    monkeypatch.setattr(module, "component_count", counted)
    for search, budget in (
        (lambda g: [toughness(g)], 194_121),
        (lambda g: [is_t_tough(g, t) for t in (F(1, 2), F(1), F(3, 2), F(2))], 801_897),
    ):
        calls = 0
        for g in graphs:
            search(g)


def test_validate_tough_set():
    ok, problems = validate_tough_set(zoo.cycle(5), [0, 2], 1)
    assert ok and not problems
    ok, problems = validate_tough_set(zoo.cycle(4), [0, 2], 1)
    assert ok
    with pytest.raises(ValueError):
        validate_tough_set(zoo.cycle(5), [0, 1], 1)  # adjacent pair: not a cutset
    # wrong t: ratio mismatch reported
    ok, problems = validate_tough_set(zoo.cycle(4), [0, 2], F(1, 2))
    assert not ok and any("1/2" in p for p in problems)
    # a non-minimizing cutset of C6 fails the neighbor-count conditions
    ok, problems = validate_tough_set(zoo.cycle(6), [0, 2, 4], F(3, 2))
    assert not ok
    # vertices outside the graph: 9 used to raise IndexError, -1 "negative
    # shift count"
    for s in ([0, 2, 9], [0, 2, -1]):
        with pytest.raises(ValueError, match=r"has a vertex outside 0\.\.4"):
            validate_tough_set(zoo.cycle(5), s, 1)
