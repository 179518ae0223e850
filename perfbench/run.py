#!/usr/bin/env python3
"""toughkit benchmark: two verification sweeps and a single-graph query mix.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-labeled6 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Workloads (closed loop, one caller, one thread, toughkit imported in-process
from ``src/``):

* ``sweep-labeled6``: ``verify all --enumerate 6 --dedup never``, 27,476
  labeled graphs through classify and all 14 suites.
* ``sweep-dedup7``: ``verify all --enumerate 7 --dedup always``, 996 class
  representatives; canonical labeling does most of the work.
* ``query-n16``: ``toughness``, ``min-tough``, ``classify``, ``is-tough`` and
  ``witness`` on a seeded corpus of graph6 files with 14-18 vertices (see
  ``corpus.py``).

An operation is one CLI command: a sweep pass or a query.  A run repeats
whole passes (the sweep, or the query corpus) while the next one is
predicted to end within ``--seconds``, and always makes at least one.
Outputs are checked after the timed region: sweeps against the golden
digests in ``golden.json``, queries by ``checks.py``.

Times are scaled to a reference host speed measured during the same pass
(see ``speed.py``), so that a busy shared host does not read as a slower
program; the unscaled wall-clock figures are printed under ``info.raw``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
untraced, then one pass with every module-boundary function wrapped by
``tracer.py``, and prints the per-layer metrics.  Spans and results are
written under ``.bench_out/`` in the repository root.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

# The script's own directory is on sys.path, so its sibling modules import.
import checks
import corpus
from speed import SpeedProbe
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SWEEPS = {
    "sweep-labeled6": ("verify", "all", "--enumerate", "6", "--dedup", "never"),
    "sweep-dedup7": ("verify", "all", "--enumerate", "7", "--dedup", "always"),
}
WORKLOADS = (*SWEEPS, "query-n16")
SETUP_REPEATS = 21
SPEED_MARGIN = 50  # probes, about one second of CPU time
CRASHED = -1  # exit code recorded when cli.run raises

# harness.SUITES at the seed commit; fixed here so the metric names stay fixed.
SUITE_IDS = ("T4", "T7", "T8", "T11", "T12", "T16", "T17", "C18", "L19", "L14",
             "C1", "T20", "KRIESELL", "DEG1")

# (module, attribute, span name, is a generator function)
TRACED = (
    ("enumeration", "canonical_key", "enumeration.canonical_key", False),
    ("enumeration", "enumerate_connected_graphs", "enumeration.enumerate_connected_graphs", True),
    ("harness", "run_suites", "harness.run_suites", False),
    ("harness", "classify", "harness.classify", False),
    ("families", "split_expand", "families.split_expand", False),
    ("families", "recognize_split_min_tough", "families.recognize_split_min_tough", False),
    ("families", "recognize_clawfree_half", "families.recognize_clawfree_half", False),
    ("recognition", "_chordal_verdict", "recognition.chordal_verdict", False),
    ("recognition", "_split_verdict", "recognition.split_verdict", False),
    ("recognition", "_clawfree_verdict", "recognition.clawfree_verdict", False),
    ("recognition", "_twok2_verdict", "recognition.twok2_verdict", False),
    ("recognition", "is_split", "recognition.is_split", False),
    ("recognition", "is_chordal", "recognition.is_chordal", False),
    ("recognition", "is_claw_free", "recognition.is_claw_free", False),
    ("recognition", "is_2k2_free", "recognition.is_2k2_free", False),
    ("toughness", "toughness", "toughness.toughness", False),
    ("toughness", "is_t_tough", "toughness.is_t_tough", False),
    ("mintough", "minimal_toughness_value", "mintough.minimal_toughness_value", False),
    ("mintough", "edge_deletion_witness", "mintough.edge_deletion_witness", False),
    ("mintough", "twok2_neighborhood_witness", "mintough.twok2_neighborhood_witness", False),
    ("mintough", "clawfree_half_witness", "mintough.clawfree_half_witness", False),
    ("graphs", "bridges", "graphs.bridges", False),
    ("graphs", "vertex_connectivity", "graphs.vertex_connectivity", False),
    ("graphs", "simplicial_vertices", "graphs.simplicial_vertices", False),
    ("graph6", "encode_graph6", "graph6.encode_graph6", False),
    ("graph6", "parse_graph_auto", "graph6.parse_graph_auto", False),
    ("cli", "run", "cli.run", False),
)
# Spans whose call counts are reported as per-layer metrics.
COUNTED = ("enumeration.canonical_key", "families.split_expand", "recognition.is_split",
           "toughness.toughness", "graphs.bridges", "graph6.encode_graph6")
TOUGHNESS_GROUPS = ("classify", "suite.T20", "cli")


# -- environment ----------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _steal_ticks() -> int | None:
    for line in _read("/proc/stat").splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu" and len(fields) > 8:
            return int(fields[8])
    return None


def _git_rev() -> str:
    head = _read(str(ROOT / ".git" / "HEAD")).strip()
    if head.startswith("ref: "):
        return _read(str(ROOT / ".git" / head[5:])).strip() or "unknown"
    return head or "unknown"


def src_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "toughkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def env_sample() -> dict:
    return {"loadavg": _read("/proc/loadavg").split()[:3], "steal_ticks": _steal_ticks()}


# -- set-up ---------------------------------------------------------------------


class State:
    """Everything a run needs, built by one set-up."""

    def __init__(self, workload: str, seed: int, work: Path):
        for name in [k for k in sys.modules if k == "toughkit" or k.startswith("toughkit.")]:
            del sys.modules[name]
        self.tk = importlib.import_module("toughkit")
        self.mods = {m: importlib.import_module(f"toughkit.{m}") for m in
                     ("cli", "enumeration", "families", "graph6", "graphs", "harness",
                      "mintough", "recognition", "toughness")}
        self.golden = json.loads((HERE / "golden.json").read_text())
        self.workload = workload
        if workload in SWEEPS:
            self.ops = [(SWEEPS[workload], None)]
        else:
            graphs = corpus.build_graphs(seed)
            work.mkdir(parents=True, exist_ok=True)
            for i, g in enumerate(graphs):
                (work / f"g{i:02d}.g6").write_text(corpus.encode_graph6(g.n, g.edges) + "\n")
            self.ops = [((*q.argv, str(work / q.file)), q)
                        for q in corpus.build_queries(graphs, seed)]


def set_up(workload: str, seed: int, work: Path) -> tuple[State, float, float]:
    """Set up SETUP_REPEATS times; returns the last state, the median
    set-up seconds without probe time, and the host speed meanwhile."""
    times = []
    with SpeedProbe() as probe:
        for _ in range(SETUP_REPEATS):
            a = probe.mark()
            t0 = time.perf_counter()
            state = State(workload, seed, work)
            times.append(time.perf_counter() - t0 - probe.spent(a, probe.mark()))
    return state, statistics.median(times), probe.speed(0, probe.mark()) or 1.0


# -- timed passes ---------------------------------------------------------------


class Record(NamedTuple):
    op: tuple  # (argv, query or None for a sweep)
    code: int
    out: str
    seconds: float  # wall time without probe time
    speed: float  # host speed around the operation; 1.0 when unprobed


def one_pass(state: State, tracer=None, probe=None) -> list[Record]:
    """Run every operation once.  Each operation's host speed is taken over
    its own probes and SPEED_MARGIN probes on either side."""
    cli = state.mods["cli"]
    runs = []
    sink = io.StringIO()
    with contextlib.redirect_stderr(sink):
        for i, (argv, query) in enumerate(state.ops):
            if tracer is not None:
                tracer.op = i
                tracer.tag = query.graph.stratum if query else "-"
            out = io.StringIO()
            a = probe.mark() if probe else 0
            t0 = time.perf_counter()
            try:
                code = cli.run(list(argv), out)
            except Exception:  # a crash is a failed operation, not a failed run
                code = CRASHED
                out.write(traceback.format_exc())
            dt = time.perf_counter() - t0
            b = probe.mark() if probe else 0
            runs.append(((argv, query), code, out.getvalue(), dt, a, b))
            sink.seek(0)
            sink.truncate()
    if probe is None:
        return [Record(op, code, text, dt, 1.0) for op, code, text, dt, _a, _b in runs]
    return [Record(op, code, text, dt - probe.spent(a, b),
                   probe.speed(a, b, SPEED_MARGIN) or 1.0)
            for op, code, text, dt, a, b in runs]


def timed_passes(state: State, seconds: float) -> list[list[Record]]:
    """Whole passes while the next one is predicted to end within seconds."""
    passes = []
    start = time.perf_counter()
    with SpeedProbe() as probe:
        while True:
            passes.append(one_pass(state, probe=probe))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > seconds:
                return passes


# -- checks ---------------------------------------------------------------------


class Checker:
    """Checks every operation's exit code and output; memoizes per query."""

    def __init__(self, state: State):
        self.state = state
        self.refs: dict[str, object] = {}
        self.verified: dict[tuple, tuple[int, str]] = {}
        self.errors: list[str] = []

    def check(self, op, code: int, text: str) -> bool:
        argv, query = op
        if code == CRASHED:
            err = "raised " + text.strip().splitlines()[-1]
        elif query is None:
            gold = self.state.golden[self.state.workload]
            digest = hashlib.sha256(text.encode()).hexdigest()
            err = None
            if scanned(text) != gold["scanned"]:
                err = f"scanned {scanned(text)} graphs, expected {gold['scanned']}"
            elif code != gold["exit"] or digest != gold["sha256"]:
                err = (f"exit {code} stdout sha256 {digest[:12]}, "
                       f"expected {gold['exit']} {gold['sha256'][:12]}")
        else:
            key = query.argv + (query.graph.name,)
            if self.verified.get(key) == (code, text):
                return True
            ref = self.refs.get(query.graph.name)
            if ref is None:
                ref = checks.Reference(self.state.tk, query.graph)
                self.refs[query.graph.name] = ref
            err = checks.check_answer(ref, query.argv, code, text)
            if err is None:
                self.verified[key] = (code, text)
        if err is not None:
            self.errors.append(f"{' '.join(argv)}: {err}")
            return False
        return True


# -- metrics --------------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scanned(text: str) -> int:
    """The graph count a sweep report states, or -1 without one."""
    for line in text.splitlines():
        if line.startswith("scanned "):
            return int(line.split()[1])
    return -1


def graphs_in(rec: Record) -> int:
    """Graphs an operation processed: a sweep's scanned count, one per query."""
    return max(scanned(rec.out), 0) if rec.op[1] is None else 1


def end_to_end(passes: list[list[Record]], setup_s: float,
               setup_speed: float) -> tuple[dict, dict]:
    """Metrics at reference host speed; the raw wall-clock figures go to info."""

    def figures(scale):
        lat_ms = [r.seconds * scale(r) * 1000 for p in passes for r in p]
        rates = [sum(graphs_in(r) for r in p) / sum(r.seconds * scale(r) for r in p)
                 for p in passes]
        return {
            "graphs_per_s": statistics.median(rates),
            "queries_per_s": 1000 * len(lat_ms) / sum(lat_ms),
            "query_p50_ms": statistics.median(lat_ms),
            "query_p90_ms": percentile(lat_ms, 90),
        }, lat_ms

    scaled, lat_ms = figures(lambda r: r.speed)
    raw, _ = figures(lambda r: 1.0)
    metrics = {"setup_s": (setup_s * setup_speed, "s")}
    for name, unit in (("graphs_per_s", "1/s"), ("queries_per_s", "1/s"),
                       ("query_p50_ms", "ms"), ("query_p90_ms", "ms")):
        metrics[name] = (scaled[name], unit)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    info = {
        "passes": len(passes),
        "samples": len(lat_ms),
        "beyond_p90": sum(1 for x in lat_ms if x > scaled["query_p90_ms"]),
        "host_speed": statistics.median(r.speed for p in passes for r in p),
        "setup_host_speed": setup_speed,
        "raw": dict(raw, setup_s=setup_s),
    }
    return metrics, info


def per_layer(tracer: Tracer, untraced_s: float, traced_s: float) -> dict:
    totals = tracer.totals()

    def row(name):  # [calls, self seconds, total seconds]
        return totals.get(name, [0, 0.0, 0.0])

    m = {}
    for _mod, _attr, name, _gen in TRACED:
        if name in COUNTED:
            m[f"{name}.calls"] = (row(name)[0], "count")
        m[f"{name}.self_s"] = (row(name)[1], "s")
    m["enumeration.graphs_yielded"] = (
        tracer.yields.get("enumeration.enumerate_connected_graphs", 0), "count")
    m["harness.records"] = (row("harness.classify")[0], "count")
    for sid in SUITE_IDS:
        name = f"harness.suite.{sid}"
        m[f"{name}.self_s"] = (row(name)[1], "s")
        m[f"{name}.total_s"] = (row(name)[2], "s")
    for group in TOUGHNESS_GROUPS:
        c, s = tracer.by("toughness.toughness", group=group)
        m[f"toughness.toughness.calls.{group}"] = (c, "count")
        m[f"toughness.toughness.self_s.{group}"] = (s, "s")
    for stratum in ("sparse", "random"):
        m[f"toughness.toughness.self_s.{stratum}"] = (
            tracer.by("toughness.toughness", tag=stratum)[1], "s")
    accounted = sum(r[1] for r in totals.values())
    m["trace.wall_s"] = (traced_s, "s")
    m["trace.residue_s"] = (traced_s - accounted, "s")
    m["trace.overhead"] = (untraced_s / traced_s, "ratio")
    return m


def determinism(workload: str, seed: int, tracer, fingerprint: str, golden: dict) -> list[str]:
    """Call counts must repeat exactly across runs of the same seed and code."""
    counts = {name: row[0] for name, row in sorted(tracer.totals().items())}
    counts["enumeration.graphs_yielded"] = tracer.yields.get(
        "enumeration.enumerate_connected_graphs", 0)
    errors = []
    gold = golden.get(workload, {})
    if fingerprint == golden["seed_src_sha256"]:
        for name, want in gold.get("seed_counts", {}).items():
            if counts.get(name, 0) != want:
                errors.append(f"{name} = {counts.get(name, 0)}, seed commit gives {want}")
    path = OUT / "counts" / f"{workload}-seed{seed}.json"
    try:
        prev = json.loads(path.read_text())
    except (OSError, ValueError):
        prev = None
    if prev and prev.get("src_sha256") == fingerprint and prev["counts"] != counts:
        diff = sorted(k for k in set(prev["counts"]) | set(counts)
                      if prev["counts"].get(k) != counts.get(k))
        errors.append(f"call counts differ from an earlier run of this seed: {diff}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"src_sha256": fingerprint, "counts": counts}, indent=1))
    return errors


# -- entry points ---------------------------------------------------------------


def run_workload(args) -> dict:
    env_before = env_sample()
    work = OUT / "work" / str(os.getpid())
    try:
        state, setup_s, setup_speed = set_up(args.workload, args.seed, work)
        checker = Checker(state)
        if args.trace:
            untraced = one_pass(state)
            tracer = Tracer()
            tracer.install([(state.mods[m], a, n, g) for m, a, n, g in TRACED],
                           state.mods["harness"].SUITES)
            try:
                traced = one_pass(state, tracer)
            finally:
                tracer.uninstall()
            passes = [untraced, traced]
        else:
            passes = timed_passes(state, args.seconds)
            metrics, info = end_to_end(passes, setup_s, setup_speed)
        failed = sum(not checker.check(*r[:3]) for p in passes for r in p)
        attempted = sum(len(p) for p in passes)
        if args.trace:
            fingerprint = src_fingerprint()
            metrics = per_layer(tracer, sum(r.seconds for r in untraced),
                                sum(r.seconds for r in traced))
            checker.errors += determinism(args.workload, args.seed, tracer, fingerprint,
                                          state.golden)
            info = {"spans": len(tracer.span_start)}
            tracer.write(OUT / "trace" / f"{args.workload}-seed{args.seed}.spans",
                         {"workload": args.workload, "seed": args.seed})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_rev": _git_rev(),
        "src_sha256": src_fingerprint(),
        "before": env_before,
        "after": env_sample(),
    }
    return {
        "correct": failed == 0 and not checker.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "error_rate": failed / attempted,
        "info": info,
        "errors": checker.errors[:20],
        "env": env,
    }


def run_all(args) -> int:
    """Run every workload in its own process and print a table."""
    rows = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        info = next(json.loads(l)["info"] for l in lines if l.startswith('{"info"'))
        rows.append((workload, json.loads(lines[-1]), info))
    for workload, result, info in rows:
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              f"error_rate={result['failed'] / result['attempted']:.4f} "
              f"latency samples={info.get('samples')} beyond p90={info.get('beyond_p90')}")
        for name, m in result["metrics"].items():
            print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "toughkit" / "__init__.py").is_file():
        print(f"perfbench: no toughkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True
    result = run_workload(args)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "results" / name).write_text(json.dumps(result, indent=1))
    for key in ("info", "error_rate", "env"):
        print(json.dumps({key: result[key]}))
    for err in result["errors"]:
        print(f"error: {err}")
    for metric, m in result["metrics"].items():
        print(f"{metric} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
