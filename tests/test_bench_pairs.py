"""The statistics of ``tools/bench_pairs.py``, on made-up runs: no
subprocess, no git, no benchmark run."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(**metrics):
    """One perfbench result line as ``run_once`` returns it."""
    return {
        "correct": True, "attempted": 3, "failed": 0,
        "metrics": {name: {"value": v, "unit": "u"} for name, v in metrics.items()},
        "raw": {"wall_s": 1.0},
    }


def _summary(metric, values):
    return bench_pairs.summarize([_run(**{metric: v}) for v in values])


def test_spread_gives_the_median_and_quartiles():
    assert bench_pairs.spread([7.0]) == {"value": 7.0, "q1": 7.0, "q3": 7.0}
    assert bench_pairs.spread([5, 1, 4, 2, 3]) == {"value": 3, "q1": 1.5, "q3": 4.5}
    assert bench_pairs.spread([1, 2, 3, 4]) == {"value": 2.5, "q1": 1.25, "q3": 3.75}


def test_summarize_sums_operations_and_spreads_each_metric():
    s = bench_pairs.summarize([_run(graphs_per_s=v) for v in (10, 30, 20)])
    assert (s["attempted"], s["failed"], s["runs"], s["correct"]) == (9, 0, 3, True)
    assert s["metrics"]["graphs_per_s"]["value"] == 20
    assert s["metrics"]["graphs_per_s"]["unit"] == "u"


def test_change_better_follows_the_metric_direction():
    better = bench_pairs.change_better
    assert better("graphs_per_s", _run(graphs_per_s=10), _run(graphs_per_s=11))
    assert not better("graphs_per_s", _run(graphs_per_s=10), _run(graphs_per_s=9))
    assert better("query_p50_ms", _run(query_p50_ms=5), _run(query_p50_ms=4))
    assert not better("query_p50_ms", _run(query_p50_ms=5), _run(query_p50_ms=6))
    # a tie counts for neither side
    assert not better("graphs_per_s", _run(graphs_per_s=10), _run(graphs_per_s=10))
    assert not better("query_p50_ms", _run(query_p50_ms=5), _run(query_p50_ms=5))


PARENT = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # q3 - q1 = 5.5


@pytest.mark.parametrize(
    "change, wins, holds",
    [
        ([v + 6 for v in PARENT], 10, True),
        ([v + 6 for v in PARENT], 9, True),
        ([v + 6 for v in PARENT], 8, False),  # fewer than nine tenths of the pairs
        ([v + 5 for v in PARENT], 10, False),  # the gap 5 is inside the spread 5.5
        ([v - 6 for v in PARENT], 10, False),  # a loss
    ],
)
def test_claim_holds_on_ten_pairs(change, wins, holds):
    parent, changed = _summary("graphs_per_s", PARENT), _summary("graphs_per_s", change)
    assert bench_pairs.claim_holds("graphs_per_s", parent, changed, wins, 10) is holds


def test_claim_holds_for_a_lower_is_better_metric_and_five_pairs():
    parent = _summary("query_p50_ms", [10, 10.5, 11, 11.5, 12])  # q3 - q1 = 1.5
    faster = _summary("query_p50_ms", [8, 8.5, 9, 9.5, 9.5])
    assert bench_pairs.claim_holds("query_p50_ms", parent, faster, 5, 5)
    # nine tenths of five pairs is 4.5, so four wins fall short
    assert not bench_pairs.claim_holds("query_p50_ms", parent, faster, 4, 5)
    assert not bench_pairs.claim_holds("query_p50_ms", faster, parent, 5, 5)
