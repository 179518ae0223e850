"""The statistics of ``tools/bench_pairs.py``, on made-up runs: no
subprocess, no git, no benchmark run."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(passes=4, **metrics):
    """One perfbench result line as ``run_once`` returns it."""
    return {
        "correct": True, "attempted": 3, "failed": 0,
        "metrics": {name: {"value": v, "unit": "u"} for name, v in metrics.items()},
        "raw": {"wall_s": 1.0},
        "passes": passes,
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


def test_parse_result_reads_the_passes_raw_figures_and_env():
    # the stdout of a perfbench run: info, error_rate and env lines, the
    # metric lines, and the result line last
    lines = [
        json.dumps({"info": {"passes": 59, "samples": 7080, "raw": {"setup_s": 0.2}}}),
        json.dumps({"error_rate": 0.0}),
        json.dumps({"env": {"python": "3.11.7", "nproc": 2}}),
        "queries_per_s 557 1/s",
        json.dumps({"correct": True, "attempted": 7080, "failed": 0,
                    "metrics": {"queries_per_s": {"value": 557, "unit": "1/s"}}}),
    ]
    r = bench_pairs.parse_result(lines)
    assert (r["passes"], r["raw"], r["env"]["nproc"]) == (59, {"setup_s": 0.2}, 2)
    assert (r["correct"], r["attempted"], r["failed"]) == (True, 7080, 0)
    assert r["metrics"]["queries_per_s"]["value"] == 557


def test_src_lines_counts_the_python_files_under_src(tmp_path):
    # a made-up exported tree: only the .py files below src/ count, however
    # deep, and a last line without a newline counts too
    (tmp_path / "src" / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "src" / "pkg" / "sub" / "b.py").write_text("\n\nz = 3")
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("not\ncode\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("t = 0\n")
    assert bench_pairs.src_lines(tmp_path) == 5


SOURCE_WITH_DOCSTRINGS = '''"""Module
docstring."""

# a comment
import os  # trailing

class C:
    r\'\'\'Class docstring.\'\'\'
    x = (1,

         2)

    def f(self):
        """Function
        docstring."""
        s = """not a
        docstring"""
        """an expression, not the first statement"""
        return s
'''


def test_src_code_lines_skips_blanks_comments_and_docstrings(tmp_path):
    # a made-up exported tree: module, class and function docstrings and
    # blank and comment-only lines do not count; each line of a statement
    # split over lines does, as do a string that is no docstring and a
    # line with a trailing comment
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text(SOURCE_WITH_DOCSTRINGS)
    (tmp_path / "src" / "pkg" / "b.py").write_text("# only a comment\n\n")
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("x = 1\n")
    assert bench_pairs.src_lines(tmp_path) == 19 + 2
    # import, class, "x = (1," and "2)", def, the two lines of s, the bare
    # string and return
    assert bench_pairs.src_code_lines(tmp_path) == 9


def test_summarize_spreads_the_passes():
    s = bench_pairs.summarize([_run(p, peak_rss_mb=30) for p in (52, 75, 59, 66, 40)])
    assert s["passes"] == {"value": 59, "q1": 46.0, "q3": 70.5}


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


def _runs(metric, values):
    return [_run(**{metric: v}) for v in values]


def test_no_regression_flags_a_median_worse_than_the_bound():
    # every bound but peak_rss_mb's is 0.25 of the parent's median
    parent = _runs("graphs_per_s", [98, 99, 100, 101, 102])
    slower = _runs("graphs_per_s", [73, 74, 74.5, 76, 77])  # median 74.5: -25.5%
    assert bench_pairs.no_regression("graphs_per_s", parent, slower) == "worse"
    within = _runs("graphs_per_s", [74, 75, 76, 77, 78])  # median 76: -24%
    assert bench_pairs.no_regression("graphs_per_s", parent, within) == "ok"
    parent = _runs("query_p50_ms", [9, 9.5, 10, 10.5, 11])
    later = _runs("query_p50_ms", [12, 12.5, 12.6, 13, 13])  # median 12.6: +26%
    assert bench_pairs.no_regression("query_p50_ms", parent, later) == "worse"
    assert bench_pairs.no_regression("query_p50_ms", later, parent) == "ok"
    parent, heavier, lighter = (_runs("peak_rss_mb", [mb] * 3) for mb in (30, 33.1, 32.9))
    assert bench_pairs.no_regression("peak_rss_mb", parent, heavier) == "worse"  # bound 0.1
    assert bench_pairs.no_regression("peak_rss_mb", parent, lighter) == "ok"


def test_no_regression_is_unresolved_when_the_parent_spreads_past_the_bound():
    # five query_p50_ms runs of one unchanged tree: q1 = 6.225 and q3 = 7.995
    # about the median 6.87, so (q3 - q1) / median = 0.258 exceeds 0.25
    parent = _runs("query_p50_ms", [6.14, 6.31, 6.87, 7.54, 8.45])
    close = _runs("query_p50_ms", [6.0, 6.5, 6.9, 7.0, 8.0])
    assert bench_pairs.no_regression("query_p50_ms", parent, close) == "unresolved"
    # every change run beats every parent run: resolved, and not worse
    faster = _runs("query_p50_ms", [5.0, 5.5, 5.9, 6.0, 6.1])
    assert bench_pairs.no_regression("query_p50_ms", parent, faster) == "ok"
    # a loss past the bound reads worse, whatever the spread
    slower = _runs("query_p50_ms", [8.0, 8.6, 8.7, 9.0, 9.5])
    assert bench_pairs.no_regression("query_p50_ms", parent, slower) == "worse"
