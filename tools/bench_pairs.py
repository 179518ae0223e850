#!/usr/bin/env python3
"""Benchmark a parent commit against a change in alternating pairs.

Run from the repository root, stdlib only:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pr 22 \\
        --what "what the change does" --first-seed 2201 \\
        --pairs sweep-dedup7=10 --pairs sweep-labeled6=5 --pairs query-n16=5

Each revision is exported with ``git archive`` into a fresh directory, so
neither tree holds a ``__pycache__`` or an earlier ``.bench_out``.  Every
pair runs ``perfbench/run.py --trace 0`` once in each tree for the
``run_seconds`` of ``BENCHMARK.json``, with ``PYTHONDONTWRITEBYTECODE=1``;
the parent goes first on odd seeds and the change first on even seeds.
Seeds count up from ``--first-seed`` across the workloads in the order
given.  The script writes ``BENCH_<pr>.json``: per side ``src_lines``,
the lines of the Python files under ``src/`` in its tree, and
``src_code_lines``, those of them that hold code (``code_lines``), and
per workload the median with quartiles q1 and q3 of every end-to-end
metric, of the unscaled wall-clock figures and of the passes a run made,
the summed attempted and failed operations, and per workload the number
of pairs in which the change did better on the workload's main metric
(queries_per_s for a ``query-`` workload, graphs_per_s otherwise), in
the direction that ``BENCHMARK.json`` gives for it, with the verdict
``claim_holds``: the change won at least nine tenths of the pairs and its
median beats the parent's by more than the parent's q3 - q1.  Per workload and end-to-end
metric, ``no_regression`` gives the verdict ``worse``, ``unresolved`` or
``ok`` against that metric's ``bound`` in ``BENCHMARK.json``.

``peak_rss_mb`` grows with the passes a run makes, because perfbench keeps
every pass's records until the run ends: a faster program fits more passes
into ``run_seconds`` and reads a higher peak RSS.  Read the two together.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = BENCHMARK["run_seconds"]
HIGHER_IS_BETTER = {m["name"] for m in BENCHMARK["end_to_end"] if m["better"] == "higher"}
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}


def main_metric(workload: str) -> str:
    return "queries_per_s" if workload.startswith("query-") else "graphs_per_s"


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> None:
    """Extract the committed tree of rev into dest."""
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        # the "data" filter exists from Python 3.11.4 and is the default from 3.14
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def src_lines(tree: Path) -> int:
    """The lines of the Python files under tree/src."""
    return sum(len(path.read_bytes().splitlines()) for path in (tree / "src").rglob("*.py"))


def code_lines(source: bytes) -> int:
    """The lines of one Python file that hold a token other than a comment
    or a docstring: blank lines, comment-only lines and docstrings do not
    count, and a statement split over lines counts each line it holds."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node, clean=False):
            doc = node.body[0].value
            docstrings.add((doc.lineno, doc.col_offset))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in skip and not (tok.type == tokenize.STRING and tok.start in docstrings):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def src_code_lines(tree: Path) -> int:
    """The lines of the Python files under tree/src that hold code, by
    ``code_lines``."""
    return sum(code_lines(path.read_bytes()) for path in (tree / "src").rglob("*.py"))


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One perfbench run: its final result line, with info.raw merged in."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed in {tree} ({workload}, seed {seed}):\n"
                         f"{proc.stderr}")
    return parse_result(lines)


def parse_result(lines: list[str]) -> dict:
    """The final result line of a perfbench run's stdout, with info.raw,
    info.passes and env merged in."""
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith('{"info"'):
            info = json.loads(line)["info"]
            result["raw"], result["passes"] = info["raw"], info["passes"]
        elif line.startswith('{"env"'):
            result["env"] = json.loads(line)["env"]
    return result


def spread(values: list[float]) -> dict:
    """Median with quartiles (statistics.quantiles, n=4; the value for one run)."""
    if len(values) < 2:
        return {"value": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict]) -> dict:
    metrics = {}
    for name, m in runs[0]["metrics"].items():
        metrics[name] = dict(spread([r["metrics"][name]["value"] for r in runs]),
                             unit=m["unit"])
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "runs": len(runs),
        "passes": spread([r["passes"] for r in runs]),
        "metrics": metrics,
        "raw": {name: spread([r["raw"][name] for r in runs]) for name in runs[0]["raw"]},
    }


def change_better(metric: str, parent: dict, change: dict) -> bool:
    a, b = parent["metrics"][metric]["value"], change["metrics"][metric]["value"]
    return b > a if metric in HIGHER_IS_BETTER else b < a


def claim_holds(metric: str, parent: dict, change: dict, wins: int, pairs: int) -> bool:
    """May a gain on metric be claimed?  The change won at least nine tenths
    of the pairs, ties counting for neither, and its median (of a
    ``summarize`` result) beats the parent's by more than the parent's
    quartile spread q3 - q1."""
    a, b = parent["metrics"][metric], change["metrics"][metric]
    gap = b["value"] - a["value"] if metric in HIGHER_IS_BETTER else a["value"] - b["value"]
    return 10 * wins >= 9 * pairs and gap > a["q3"] - a["q1"]


def no_regression(metric: str, parent: list[dict], change: list[dict]) -> str:
    """``worse`` when the change's median of metric (over ``run_once``
    results) is worse than the parent's by more than the metric's bound, a
    fraction of the parent's median; ``unresolved`` when the parent's
    (q3 - q1) / median exceeds the bound and not every change run beats
    every parent run; ``ok`` otherwise."""
    a = spread([r["metrics"][metric]["value"] for r in parent])
    b = spread([r["metrics"][metric]["value"] for r in change])
    loss = a["value"] - b["value"] if metric in HIGHER_IS_BETTER else b["value"] - a["value"]
    bound = BOUNDS[metric] * a["value"]
    if loss > bound:
        return "worse"
    if a["q3"] - a["q1"] > bound and not all(
            change_better(metric, p, c) for p in parent for c in change):
        return "unresolved"
    return "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", default="HEAD", help="git revision of the change")
    parser.add_argument("--pr", required=True, help="the N of the BENCH_N.json written")
    parser.add_argument("--what", required=True, help="one line on what the change does")
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N")
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args(argv)
    known = [w["name"] for w in BENCHMARK["workloads"]]
    plan = []
    for item in args.pairs:
        workload, _, count = item.partition("=")
        if (workload not in known or workload in dict(plan)
                or not count.isdigit() or int(count) < 1):
            parser.error(f"--pairs wants WORKLOAD=N, each WORKLOAD once from {known}")
        plan.append((workload, int(count)))
    revs = {side: git("rev-parse", rev).decode().strip()
            for side, rev in (("parent", args.parent), ("change", args.change))}

    seeds, runs, lines = {}, {"parent": {}, "change": {}}, {}
    seed = args.first_seed
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in revs}
        for side, rev in revs.items():
            export(rev, trees[side])
            lines[side] = src_lines(trees[side]), src_code_lines(trees[side])
        for workload, count in plan:
            seeds[workload] = list(range(seed, seed + count))
            seed += count
            for s in seeds[workload]:
                order = ("parent", "change") if s % 2 else ("change", "parent")
                for side in order:
                    r = run_once(trees[side], workload, s)
                    runs[side].setdefault(workload, []).append(r)
                    print(f"{workload} seed {s} {side}: "
                          f"{main_metric(workload)} "
                          f"{r['metrics'][main_metric(workload)]['value']:.6g}",
                          file=sys.stderr, flush=True)

    summaries = {side: {w: summarize(runs[side][w]) for w, _ in plan} for side in revs}
    wins = {}
    for workload, count in plan:
        metric = main_metric(workload)
        pairs = zip(runs["parent"][workload], runs["change"][workload])
        better = sum(change_better(metric, p, c) for p, c in pairs)
        wins[workload] = {"metric": metric, "change_better": better, "pairs": count,
                          "claim_holds": claim_holds(metric, summaries["parent"][workload],
                                                     summaries["change"][workload], better, count)}
    first = runs["change"][plan[0][0]][0]["env"]
    bench = {
        "what": args.what,
        "command": (f"PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py --workload W --seed S "
                    f"--seconds {SECONDS} --trace 0, each tree a fresh git archive "
                    f"export without __pycache__"),
        "statistic": ("median over runs, with the quartiles q1 and q3 (statistics.quantiles, "
                      "n=4); attempted and failed are summed; raw holds the unscaled "
                      "wall-clock figures from info.raw, passes the info.passes of each run"),
        "pairs": dict(plan),
        "seeds": seeds,
        "order": "alternating: parent first on odd seeds, change first on even seeds",
        "python": first["python"],
        "nproc": first["nproc"],
        "wins": wins,
        "no_regression": {w: {m: no_regression(m, runs["parent"][w], runs["change"][w])
                              for m in BOUNDS} for w, _ in plan},
    }
    for side, rev in revs.items():
        bench[side] = {
            "git_rev": rev,
            "src_sha256": runs[side][plan[0][0]][0]["env"]["src_sha256"],
            "src_lines": lines[side][0],
            "src_code_lines": lines[side][1],
            "workloads": summaries[side],
        }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
