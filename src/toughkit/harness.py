"""Sweep graph corpora and check the structural facts about minimally tough
graphs, emitting deterministic machine-readable reports.

A source is either an enumeration of all small connected graphs or a
stream of graph6 lines.  Every graph is classified once (exact toughness,
minimal toughness, class memberships) and each requested suite
evaluates its predicate against the classification with exact arithmetic.
Reports are byte-stable: records are sorted canonically and elapsed time is
kept out of the payload.

Both sweeps, ``run_suites`` and ``scan_minimally_tough``, read the source
through one stream, ``_classified``, which owns the sweep's toughness memo
(keyed by the adjacency-mask tuple) and collects the malformed lines.  The
memo alone tests connectivity: it answers zero for a disconnected graph
unsearched and unstored, and searches each connected graph once per sweep,
keeping its minimizing set S*.  ``classify`` asks if deleting an edge e
drops tau(g) by the cheapest rung that answers: the memo's stored tau(g -
e); a proof from S*(g); if g has an induced 2K2, the unstored scan
``mintough._drops``; else the memo's search, as T20 prints tau(g - e).  T20
takes tau(X) = tau(g - e) for the split expansion X when S*(g - e) proves
it, so it searches X mostly for its violation rows (proofs: README,
"Exactness and determinism").  The memo is dropped when the stream ends.

Suites (all checked with exact rational arithmetic):

* ``T4``   no minimally t-tough chordal graph has 1/2 < t <= 1
* ``T7``   minimally t-tough chordal, t <= 1/2: simplicial vertices have degree 1
* ``T8``   no minimally t-tough split graph has t > 1/2
* ``T11``  minimally tough split graphs match the star/double-star/triangle shapes
* ``T12``  connected noncomplete claw-free: twice the toughness equals connectivity,
  the size of the first cutset the toughness search's scan meets
* ``T16``  minimally 1-tough claw-free graphs are exactly the cycles >= 4
* ``T17``  minimally 1/2-tough claw-free graphs match the triangle-from-tree family
* ``C18``  2K2-free: no cutset leaves two components of size >= 2
* ``L19``  minimally tough 2K2-free: witnesses exist inside edge neighborhoods
* ``L14``  minimally 1/2-tough claw-free: witnesses of size <= 1
* ``C1``   minimally tough: every edge has a validating deletion witness
* ``T20``  2K2-free: split expansion preserves the toughness of g - e
* ``KRIESELL`` report-only: minimally t-tough graphs have min degree ceil(2t)
* ``DEG1`` minimally 1/2-tough claw-free graphs have a vertex of degree 1
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from typing import Callable, Iterable, Iterator, NamedTuple

from .enumeration import _check_n, _dedup_levels, enumerate_connected_graphs
from .families import (
    delete_and_complete,
    is_long_cycle,
    recognize_clawfree_half,
    recognize_split_min_tough,
)
from .graph6 import DEFAULT_VERTEX_CAP, Graph6Error, check_cap, encode_graph6, parse_graph6
from .graphs import (
    Graph, component_count, component_masks, set_to_mask, set_to_str, simplicial_vertices,
)
from .mintough import (
    _drops,
    clawfree_half_witness,
    edge_deletion_witness,
    twok2_neighborhood_witness,
)
from .recognition import (
    CHORDAL,
    CLAW_FREE,
    SPLIT,
    TWO_K2_FREE,
    _chordal_verdict,
    _clawfree_verdict,
    _split_verdict,
    _twok2_verdict,
)
from .toughness import Toughness, WitnessSet, _cutsets, toughness

HALF = Fraction(1, 2)
ONE = Fraction(1)

_Answer = tuple[Toughness, WitnessSet | None]  # what ``toughness`` returns


# -- sources -------------------------------------------------------------------


class EnumerationSource:
    """All connected graphs with n in the given range.

    mode="auto" enumerates labeled graphs for n <= 6 and one representative
    per isomorphism class for larger n; "labeled"/"dedup" force one mode.
    Both modes must produce identical suite verdicts.  Each n is checked
    against the cap of the mode it uses here, before any work.
    """

    def __init__(self, ns: Iterable[int], mode: str = "auto"):
        self.ns = sorted(set(ns))
        if mode not in ("auto", "labeled", "dedup"):
            raise ValueError(f"unknown enumeration mode {mode!r}")
        self.mode = mode
        # only the smallest n can be below 1, only the largest above its cap
        for n in (self.ns[0], self.ns[-1]) if self.ns else (0,):
            _check_n(n, self._dedup(n))

    def _dedup(self, n: int) -> bool:
        return n > 6 if self.mode == "auto" else self.mode == "dedup"

    @property
    def description(self) -> str:
        lo, hi = self.ns[0], self.ns[-1]
        span = f"n={lo}..{hi}" if lo != hi else f"n={lo}"
        return f"enumeration {span} mode={self.mode}"

    def __iter__(self) -> Iterator[tuple[Graph | None, str | None]]:
        levels = enumerate(_dedup_levels(), start=1)
        for n in self.ns:  # sorted: one run builds each dedup level once
            yield from ((g, None) for g in (
                next(level for k, level in levels if k == n) if self._dedup(n)
                else enumerate_connected_graphs(n, dedup=False)))


class Graph6Source:
    """A stream of graph6 lines; malformed lines, including those above
    ``cap`` vertices, are reported, not fatal."""

    def __init__(self, lines: Iterable[str], description: str = "graph6 stream",
                 cap: int = DEFAULT_VERTEX_CAP):
        self.lines = lines
        self.description = description
        self.cap = check_cap(cap)

    def __iter__(self) -> Iterator[tuple[Graph | None, str | None]]:
        for i, line in enumerate(self.lines, start=1):
            if not line.strip():
                continue
            try:
                yield parse_graph6(line, self.cap), None
            except Graph6Error as exc:
                yield None, f"line {i}: {exc}"


# -- per-graph classification -----------------------------------------------------


class _ToughnessMemo:
    """Toughness of every graph one sweep asks about, each searched once.

    A disconnected graph gets zero from one connectivity test, unsearched
    and unstored.  Keys are adjacency-mask tuples, which also fix n.  Each
    entry is what ``toughness`` returned; equal answers share one tuple, so
    an entry is one pointer, as when only tau was kept.
    """

    __slots__ = ("_tau", "_values")

    def __init__(self) -> None:
        self._tau: dict[tuple[int, ...], _Answer] = {}
        self._values: dict[_Answer, _Answer] = {}

    def __call__(self, g: Graph) -> Toughness:
        return self.search(g)[0]

    def peek(self, g: Graph) -> _Answer | None:
        return self._tau.get(g._nbr)

    def search(self, g: Graph) -> _Answer:
        answer = self._tau.get(g._nbr)
        if answer is None:
            if not g.is_connected():
                return Toughness.zero(), None
            answer = toughness(g)
            answer = self._tau[g._nbr] = self._values.setdefault(answer, answer)
        return answer


class _Record(NamedTuple):
    g: Graph
    tau: Toughness  # zero exactly when g is disconnected
    t: Fraction | None  # minimal toughness value, None if not minimally tough
    chordal: bool
    split: bool
    clawfree: bool
    twok2: bool
    tau_of: _ToughnessMemo  # the sweep's toughness memo
    # of a 2K2-free g, each edge classify asked about: g - e, its answer
    minus: dict[tuple[int, int], tuple[Graph, _Answer | None]]

    @property
    def g6(self) -> str:
        return encode_graph6(self.g)


def classify(g: Graph, tau_of: _ToughnessMemo) -> _Record:
    """One-pass classification shared by every suite.

    ``tau_of`` is the sweep's toughness memo.  g is minimally t-tough,
    t = tau(g), when deleting any edge drops the toughness below t; edges
    are asked in turn, until one does not, by the module's ladder.
    """
    tau, cut = tau_of.search(g)
    twok2 = _twok2_verdict(g)
    minus = {}
    t = tau.value if tau.is_finite else None
    rest = ((1 << g.n) - 1) ^ set_to_mask(cut.vertices) if t else 0
    for u, v in g.edges() if t else ():
        h = g.delete_edge(u, v)
        known = tau_of.peek(h)
        if known is None and rest >> u & rest >> v & 1 and (
                component_count(h._nbr, rest) > cut.component_count):  # a bridge of G - S*
            drop = True
        elif known is None and not twok2:
            drop = _drops(g, t, (u, v))
        else:
            known = known or tau_of.search(h)
            drop = known[0] < tau
        if twok2:
            minus[u, v] = h, known
        if not drop:
            t = None
            break
    return _Record(g, tau, t, _chordal_verdict(g), _split_verdict(g), _clawfree_verdict(g),
                   twok2, tau_of, minus)


def _classified(
    source: EnumerationSource | Graph6Source, malformed: list[str]
) -> Iterator[_Record]:
    """The record of every graph of the source, in source order; each
    malformed line's message goes to ``malformed`` instead.  The sweep's
    toughness memo is built here and lives as long as the stream."""
    tau_of = _ToughnessMemo()
    for g, err in source:
        if g is None:
            malformed.append(err or "malformed line")
        else:
            yield classify(g, tau_of)


# -- report --------------------------------------------------------------------


@dataclass
class VerificationReport:
    """One suite's rows over one source.  ``elapsed`` is the wall time of the
    whole sweep that produced the report: all suites of one ``run_suites``
    call are evaluated graph by graph together and share that figure."""

    suite: str
    source: str
    scanned: int = 0
    malformed: list[str] = field(default_factory=list)
    instances: list[tuple[str, str]] = field(default_factory=list)
    violations: list[tuple[str, str]] = field(default_factory=list)
    elapsed: float = 0.0
    report_only: bool = False

    @property
    def verdict(self) -> str:
        if self.report_only:
            return "report-only"
        return "pass" if not self.violations else "fail"

    def lines(self) -> Iterator[str]:
        """Stable rendering, one line at a time without line ends; elapsed
        time is deliberately excluded so identical runs are byte-identical."""
        yield f"suite {self.suite}"
        yield f"source {self.source}"
        for m in self.malformed:
            yield f"malformed {m}"
        for g6, d in self.instances:
            yield f"instance {g6} {d}".rstrip()
        for g6, d in self.violations:
            yield f"violation {g6} {d}".rstrip()
        yield f"scanned {self.scanned}"
        yield f"malformed-lines {len(self.malformed)}"
        yield f"instances {len(self.instances)}"
        yield f"violations {len(self.violations)}"
        yield f"verdict {self.verdict}"

    def to_text(self) -> str:
        return "\n".join(self.lines()) + "\n"


def _sort_records(rows: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """Distinct rows by graph6 length, then lexicographically."""
    out = sorted(set(rows))
    out.sort(key=lambda r: len(r[0]))
    return out


# -- suite predicates ------------------------------------------------------------
# Each returns (instances, violations) as lists of detail strings.


def _suite_t4(rec: _Record) -> tuple[list[str], list[str]]:
    if rec.chordal and rec.t is not None and HALF < rec.t <= ONE:
        return [f"t={rec.t}"], [f"t={rec.t} minimally-tough-chordal-in-(1/2,1]"]
    return [], []


def _suite_t7(rec: _Record) -> tuple[list[str], list[str]]:
    if not (rec.chordal and rec.t is not None and rec.t <= HALF):
        return [], []
    bad = [v for v in simplicial_vertices(rec.g) if rec.g.degree(v) != 1]
    if bad:
        return [f"t={rec.t}"], [
            f"t={rec.t} simplicial={v} degree={rec.g.degree(v)}" for v in sorted(bad)
        ]
    return [f"t={rec.t}"], []


def _suite_t8(rec: _Record) -> tuple[list[str], list[str]]:
    if rec.split and rec.t is not None and rec.t > HALF:
        return [f"t={rec.t}"], [f"t={rec.t} minimally-tough-split-above-1/2"]
    return [], []


def _suite_t11(rec: _Record) -> tuple[list[str], list[str]]:
    if not rec.split:
        return [], []
    recognized = recognize_split_min_tough(rec.g)
    if recognized == rec.t:
        return ([f"t={rec.t}"], []) if rec.t is not None else ([], [])
    return [], [f"minimal={_frac(rec.t)} recognized={_frac(recognized)}"]


def _suite_t12(rec: _Record) -> tuple[list[str], list[str]]:
    if not (rec.clawfree and rec.tau.is_finite):  # connected and noncomplete
        return [], []
    # the size-ordered scan meets its first cutset at size kappa, as did the
    # toughness search classify already ran, so this costs no more than that
    cut, _ = next(_cutsets(rec.g._nbr, range(rec.g.n), lambda size: 2))
    kappa = len(cut)
    if 2 * rec.tau.value != kappa:
        return [], [f"tau={rec.tau} kappa={kappa}"]
    return [], []


def _suite_t16(rec: _Record) -> tuple[list[str], list[str]]:
    if not (rec.clawfree and not rec.tau.is_zero):
        return [], []
    minimal_one = rec.t == ONE
    cycle = is_long_cycle(rec.g)
    if minimal_one != cycle:
        return [], [f"minimal-1-tough={minimal_one} cycle>=4={cycle}"]
    return ([f"t=1"], []) if minimal_one else ([], [])


def _suite_t17(rec: _Record) -> tuple[list[str], list[str]]:
    if not (rec.clawfree and not rec.tau.is_zero):
        return [], []
    minimal_half = rec.t == HALF
    accepted, _ = recognize_clawfree_half(rec.g)
    if minimal_half != accepted:
        return [], [f"minimal-1/2-tough={minimal_half} recognized={accepted}"]
    return ([f"t=1/2"], []) if minimal_half else ([], [])


def _suite_c18(rec: _Record) -> tuple[list[str], list[str]]:
    if not rec.twok2:
        return [], []
    g = rec.g
    full = (1 << g.n) - 1
    violations = []
    for removed in range(1, full):
        comps = component_masks(g._nbr, full ^ removed)
        if len(comps) < 2:
            continue
        big = sum(1 for m in comps if m.bit_count() >= 2)
        if big > 1:
            cut = [v for v in range(g.n) if removed >> v & 1]
            violations.append(f"cutset={set_to_str(cut)} big-components={big}")
    return [], violations


def _witness_failures(rec: _Record, witness: Callable[..., object], *args) -> list[str]:
    """``edge=u-v <reason>`` for each edge e whose ``witness(g, *args, e)``
    raises RuntimeError; a returned witness was built by
    ``mintough._edge_witness``, which checks the rule.  A bridge gets the
    search's own bridge witness, so it never raises."""
    violations = []
    for e in rec.g.edges():
        try:
            witness(rec.g, *args, e)
        except RuntimeError as exc:
            violations.append(f"edge={e[0]}-{e[1]} {exc}")
    return violations


def _suite_l19(rec: _Record) -> tuple[list[str], list[str]]:
    if not (rec.twok2 and rec.t is not None):
        return [], []
    return [f"t={rec.t}"], _witness_failures(rec, twok2_neighborhood_witness, rec.t)


def _suite_l14(rec: _Record) -> tuple[list[str], list[str]]:
    if not (rec.clawfree and rec.t == HALF):
        return [], []
    return ["t=1/2"], _witness_failures(rec, clawfree_half_witness)


def _suite_c1(rec: _Record) -> tuple[list[str], list[str]]:
    if rec.t is None:
        return [], []
    return [f"t={rec.t}"], _witness_failures(rec, edge_deletion_witness, rec.t)


def _suite_t20(rec: _Record) -> tuple[list[str], list[str]]:
    if not (rec.twok2 and not rec.tau.is_zero):
        return [], []
    g = rec.g
    full = (1 << g.n) - 1
    violations = []
    for e in g.edges():
        h, known = rec.minus.get(e) or (g.delete_edge(*e), None)
        tau_minus, cut = known or rec.tau_of.search(h)
        if tau_minus.is_zero:  # e is a bridge
            continue
        # the record's twok2 and the connected g - e give split_expand's preconditions
        expanded = delete_and_complete(g, e)
        known = rec.tau_of.peek(expanded)
        if known is not None:
            tau_exp = known[0]
        elif component_count(expanded._nbr, full ^ set_to_mask(cut.vertices)) == (
                cut.component_count):  # S*(g - e) proves tau(expanded) = tau(g - e)
            tau_exp = tau_minus
        else:
            tau_exp = rec.tau_of(expanded)
        if tau_exp != tau_minus:
            violations.append(
                f"edge={e[0]}-{e[1]} tau-expanded={tau_exp} tau-deleted={tau_minus}"
            )
        if not _split_verdict(expanded):
            violations.append(f"edge={e[0]}-{e[1]} expansion-not-split")
    return [], violations


def _suite_kriesell(rec: _Record) -> tuple[list[str], list[str]]:
    if rec.t is None:
        return [], []
    need = math.ceil(2 * rec.t)
    mindeg = rec.g.min_degree()
    detail = f"t={rec.t} mindeg={mindeg} ceil2t={need}"
    if mindeg != need:
        return [detail], [detail + " counterexample"]
    return [detail], []


def _suite_deg1(rec: _Record) -> tuple[list[str], list[str]]:
    if not (rec.clawfree and rec.t == HALF):
        return [], []
    mindeg = rec.g.min_degree()
    if mindeg != 1:
        return [], [f"mindeg={mindeg}"]
    return [f"mindeg=1"], []


SUITES: dict[str, Callable[[_Record], tuple[list[str], list[str]]]] = {
    "T4": _suite_t4,
    "T7": _suite_t7,
    "T8": _suite_t8,
    "T11": _suite_t11,
    "T12": _suite_t12,
    "T16": _suite_t16,
    "T17": _suite_t17,
    "C18": _suite_c18,
    "L19": _suite_l19,
    "L14": _suite_l14,
    "C1": _suite_c1,
    "T20": _suite_t20,
    "KRIESELL": _suite_kriesell,
    "DEG1": _suite_deg1,
}

REPORT_ONLY_SUITES = frozenset({"KRIESELL"})


def _frac(x: Fraction | None) -> str:
    return "none" if x is None else str(x)


# -- runners -------------------------------------------------------------------


def run_suites(
    suite_ids: Iterable[str],
    source: EnumerationSource | Graph6Source,
) -> list[VerificationReport]:
    """Classify the source once and evaluate every requested suite on it;
    one report per entry of ``suite_ids``, in order."""
    ids = list(suite_ids)
    for sid in ids:
        if sid not in SUITES:
            raise ValueError(f"unknown suite {sid!r}")
    rows: dict[str, tuple[list, list]] = {sid: ([], []) for sid in ids}
    malformed: list[str] = []
    scanned = 0
    start = time.monotonic()
    for scanned, rec in enumerate(_classified(source, malformed), start=1):
        g6 = None
        for sid, (instances, violations) in rows.items():
            inst, viol = SUITES[sid](rec)
            if inst or viol:
                if g6 is None:
                    g6 = rec.g6
                # a sweep repeats a few hundred distinct details across its rows
                instances += [(g6, sys.intern(d)) for d in inst]
                violations += [(g6, sys.intern(d)) for d in viol]
    elapsed = time.monotonic() - start
    rec = None  # the last record holds the memo: let it go before sorting
    return [
        VerificationReport(
            sid,
            source.description,
            scanned,
            malformed,
            _sort_records(rows[sid][0]),
            _sort_records(rows[sid][1]),
            elapsed,
            sid in REPORT_ONLY_SUITES,
        )
        for sid in ids
    ]


def run_suite(
    suite: str, source: EnumerationSource | Graph6Source
) -> VerificationReport:
    """Run one suite over a source."""
    return run_suites([suite], source)[0]


class ScanRow(NamedTuple):
    g6: str
    t: Fraction
    classes: tuple[str, ...]
    min_degree: int
    ceil_2t: int

    def to_line(self) -> str:
        cls = ",".join(self.classes) if self.classes else "-"
        return (
            f"{self.g6} t={self.t} classes={cls} "
            f"mindeg={self.min_degree} ceil2t={self.ceil_2t}"
        )


_CLASSES = (CHORDAL, SPLIT, CLAW_FREE, TWO_K2_FREE)


def scan_minimally_tough(
    source: EnumerationSource | Graph6Source,
) -> tuple[list[ScanRow], list[str]]:
    """Every minimally tough graph in the source, with class flags and the
    min-degree comparison.  Returns (rows, malformed line reports)."""
    malformed: list[str] = []
    rows = [
        ScanRow(
            rec.g6,
            rec.t,
            tuple(compress(_CLASSES, (rec.chordal, rec.split, rec.clawfree, rec.twok2))),
            rec.g.min_degree(),
            math.ceil(2 * rec.t),
        )
        for rec in _classified(source, malformed)
        if rec.t is not None
    ]
    rows.sort(key=lambda r: (len(r.g6), r.g6))
    return rows, malformed
