"""Command-line entry point.

Single-graph commands read one graph from a file argument or stdin, in
graph6 or adjacency-list format (auto-detected: graph6 when the first line
starts with '>>graph6<<', or when its first byte is >= 63 and it has no
space).  Rationals are always printed as "p/q" (or "inf"/"0" for the two
special toughness values).  Output on stdout is byte-stable across runs;
timing goes to stderr.  Exit codes:
0 success (or report-only), 1 computational violation, 2 usage error.
``run`` reads TOUGHKIT_CAP (1..64, default 32) once; it caps the vertex
count of input graphs and of generated graphs.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from fractions import Fraction
from functools import cache

from . import __version__
from .families import ClawfreeHalfFromTree, generate, parse_descriptor
from .graph6 import DEFAULT_VERTEX_CAP, check_cap, encode_graph6, parse_graph_auto
from .graphs import Graph, set_to_str
from .harness import (
    SUITES,
    EnumerationSource,
    Graph6Source,
    run_suites,
    scan_minimally_tough,
)
from .mintough import edge_deletion_witness, minimal_toughness_value
from .recognition import is_2k2_free, is_chordal, is_claw_free, is_split
from .toughness import is_t_tough, toughness

_T_PATTERN = re.compile(r"^([1-9][0-9]*)(?:/([1-9][0-9]*))?$")


def _parse_t(text: str) -> Fraction:
    m = _T_PATTERN.match(text.strip())
    if not m:
        raise SystemExit2(f"bad toughness value {text!r}: expected p/q or integer")
    return Fraction(int(m.group(1)), int(m.group(2) or 1))


def _parse_edge(text: str) -> tuple[int, int]:
    parts = text.split("-")
    if len(parts) != 2:
        raise SystemExit2(f"bad edge {text!r}: expected u-v")
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError:
        raise SystemExit2(f"bad edge {text!r}: expected u-v") from None
    return u, v


class SystemExit2(Exception):
    """Usage error carrying the message to print (exit code 2)."""


def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit2(f"cannot read {path}: {exc}") from None


def _read_graph(path: str | None, cap: int) -> Graph:
    try:
        return parse_graph_auto(_read_text(path), cap)
    except ValueError as exc:
        raise SystemExit2(f"bad graph input: {exc}") from None


# -- subcommands -----------------------------------------------------------------


def _print_answer(answer, witness, out) -> int:
    """The answer line, then the witness cutset line if there is one."""
    print(answer, file=out)
    if witness is not None:
        print(
            f"witness {witness} |S|={witness.cut_size} "
            f"components={witness.component_count}",
            file=out,
        )
    return 0


def _cmd_toughness(args, out) -> int:
    return _print_answer(*toughness(_read_graph(args.graph, args.cap)), out)


def _cmd_is_tough(args, out) -> int:
    g = _read_graph(args.graph, args.cap)
    ok, witness = is_t_tough(g, _parse_t(args.t))
    return _print_answer("true" if ok else "false", witness, out)


def _cmd_classify(args, out) -> int:
    g = _read_graph(args.graph, args.cap)
    for cert in (is_chordal(g), is_split(g), is_claw_free(g), is_2k2_free(g)):
        if not cert.verdict:
            detail = f"witness={set_to_str(cert.witness)}"
        elif cert.elimination_order is not None:
            detail = f"order=[{','.join(map(str, cert.elimination_order))}]"
        elif cert.clique is not None:
            detail = f"C={set_to_str(cert.clique)} I={set_to_str(cert.independent)}"
        else:
            detail = "-"
        print(f"{cert.family:<9} {'yes' if cert.verdict else 'no':<3} {detail}", file=out)
    return 0


def _cmd_min_tough(args, out) -> int:
    g = _read_graph(args.graph, args.cap)
    tau, _ = toughness(g)
    t = minimal_toughness_value(g, tau)
    if t is None:
        print(f"not minimally tough (tau = {tau})", file=out)
        return 1
    print(f"minimally {t}-tough", file=out)
    return 0


def _cmd_witness(args, out) -> int:
    g = _read_graph(args.graph, args.cap)
    u, v = _parse_edge(args.edge)
    if not g.has_edge(u, v):
        raise SystemExit2(f"{args.edge} is not an edge of the input graph")
    t = minimal_toughness_value(g)
    if t is None:
        print("graph is not minimally tough; no witness defined", file=out)
        return 1
    print(f"minimally {t}-tough", file=out)
    print(edge_deletion_witness(g, t, (u, v)), file=out)
    return 0


def _cmd_generate(args, out) -> int:
    text = args.descriptor
    if text.startswith("clawhalf:"):
        tree = _read_graph(text.partition(":")[2], args.cap)
        descriptor = ClawfreeHalfFromTree(tree)
    else:
        try:
            descriptor = parse_descriptor(text)
        except ValueError as exc:
            raise SystemExit2(str(exc)) from None
    try:
        g = generate(descriptor)
    except ValueError as exc:
        raise SystemExit2(str(exc)) from None
    if g.n > args.cap:
        raise SystemExit2(f"vertex count {g.n} outside 0..{args.cap}")
    print(encode_graph6(g), file=out)
    return 0


def _make_source(args):
    if args.source is not None:
        if args.dedup is not None:
            raise SystemExit2("--dedup applies only to --enumerate")
        text = _read_text(args.source)
        name = args.source if args.source != "-" else "stdin"
        return Graph6Source(text.splitlines(), f"file {name}", args.cap)
    mode = {"auto": "auto", "always": "dedup", "never": "labeled"}[args.dedup or "auto"]
    try:
        return EnumerationSource(range(1, args.enumerate + 1), mode=mode)
    except ValueError as exc:
        raise SystemExit2(str(exc)) from None


def _cmd_verify(args, out) -> int:
    if args.suite == "all":
        ids = list(SUITES)
    elif args.suite in SUITES:
        ids = [args.suite]
    else:
        raise SystemExit2(
            f"unknown suite {args.suite!r}; known: {', '.join(SUITES)} or 'all'"
        )
    reports = run_suites(ids, _make_source(args))
    for i, rep in enumerate(reports):
        if i:
            print(file=out)
        for line in rep.lines():
            print(line, file=out)
    # the suites run together graph by graph, so only the sweep has a time
    print(f"# sweep {reports[0].elapsed:.2f}s", file=sys.stderr)
    return 1 if any(rep.verdict == "fail" for rep in reports) else 0


def _cmd_scan(args, out) -> int:
    rows, malformed = scan_minimally_tough(_make_source(args))
    for m in malformed:
        print(f"malformed {m}", file=out)
    for row in rows:
        print(row.to_line(), file=out)
    print(f"minimally-tough {len(rows)}", file=out)
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared, unchanged, by
    every later one; building it costs far more than one ``parse_args``."""
    parser = argparse.ArgumentParser(
        prog="toughkit",
        description="Exact graph toughness toolkit",
    )
    parser.add_argument("--version", action="version", version=f"toughkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_arg(p):
        p.add_argument(
            "graph",
            nargs="?",
            default=None,
            help="graph file (graph6 or adjacency list); stdin when omitted",
        )

    p = sub.add_parser("toughness", help="exact toughness with a minimizing cutset")
    add_graph_arg(p)
    p.set_defaults(func=_cmd_toughness)

    p = sub.add_parser("is-tough", help="decide t-toughness")
    p.add_argument("t", help="threshold, p/q or integer")
    add_graph_arg(p)
    p.set_defaults(func=_cmd_is_tough)

    p = sub.add_parser("classify", help="chordal/split/claw-free/2k2-free verdicts")
    add_graph_arg(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("min-tough", help="decide minimal toughness")
    add_graph_arg(p)
    p.set_defaults(func=_cmd_min_tough)

    p = sub.add_parser("witness", help="edge-deletion witness set for one edge")
    p.add_argument("edge", help="edge as u-v")
    add_graph_arg(p)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("generate", help="emit a named family member as graph6")
    p.add_argument(
        "descriptor",
        help="star:3 path:5 cycle:4 doublestar:b,k splittriangle:b clawhalf:<tree-file>",
    )
    p.set_defaults(func=_cmd_generate)

    for name, help_ in (
        ("verify", "run a verification suite"),
        ("scan", "list minimally tough graphs in a corpus"),
    ):
        p = sub.add_parser(name, help=help_)
        if name == "verify":
            p.add_argument("suite", help="suite id or 'all'")
        corpus = p.add_mutually_exclusive_group(required=True)
        corpus.add_argument("--enumerate", type=int, metavar="N", help="sweep n=1..N")
        corpus.add_argument("--source", metavar="FILE", help="graph6 file ('-' = stdin)")
        p.add_argument(
            "--dedup",
            choices=["auto", "always", "never"],
            default=None,
            help="isomorphism dedup for the enumeration (default auto)",
        )
        p.set_defaults(func=_cmd_verify if name == "verify" else _cmd_scan)

    return parser


def run(argv: list[str], out=None) -> int:
    """Run the CLI; returns the exit code (0 ok, 1 violation, 2 usage)."""
    out = out or sys.stdout
    try:
        cap = check_cap(int(os.environ.get("TOUGHKIT_CAP", DEFAULT_VERTEX_CAP)))
    except ValueError as exc:
        print(f"toughkit: bad TOUGHKIT_CAP: {exc}", file=sys.stderr)
        return 2
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args.cap = cap
    try:
        return args.func(args, out)
    except SystemExit2 as exc:
        print(f"toughkit: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    start = time.monotonic()
    code = run(sys.argv[1:])
    print(f"# elapsed {time.monotonic() - start:.2f}s", file=sys.stderr)
    sys.exit(code)
