import argparse
import hashlib
import io
import os
import random
import re
import resource
import subprocess
import sys
import tempfile
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toughkit
import zoo
from toughkit import (
    ClawfreeHalfFromTree,
    Graph,
    Graph6Error,
    encode_graph6,
    enumerate_connected_graphs,
    format_adjacency,
    generate,
    parse_graph6,
)
from toughkit.cli import run
from toughkit.enumeration import enumerate_trees


def run_cli(argv, stdin_text="", env_cap=None, monkeypatch=None):
    out = io.StringIO()
    code = run_with_stdin(argv, stdin_text, out, env_cap, monkeypatch)
    return code, out.getvalue()


def run_with_stdin(argv, stdin_text, out, env_cap, monkeypatch):
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    old_env = os.environ.pop("TOUGHKIT_CAP", None)
    if env_cap is not None:
        os.environ["TOUGHKIT_CAP"] = env_cap
    try:
        return run(argv, out=out)
    finally:
        sys.stdin = old_stdin
        os.environ.pop("TOUGHKIT_CAP", None)
        if old_env is not None:
            os.environ["TOUGHKIT_CAP"] = old_env


def test_toughness_command():
    code, out = run_cli(["toughness"], stdin_text="Cl\n")
    assert code == 0
    assert out == "1\nwitness {0,2} |S|=2 components=2\n"
    code, out = run_cli(["toughness"], stdin_text=encode_graph6(zoo.complete(4)))
    assert code == 0 and out == "inf\n"


def test_toughness_from_file_and_adjacency(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text(format_adjacency(zoo.star(3)))
    code, out = run_cli(["toughness", str(p)])
    assert code == 0
    assert out.splitlines()[0] == "1/3"


def test_is_tough_command():
    code, out = run_cli(["is-tough", "1"], stdin_text="Dhc\n")  # C5
    assert code == 0 and out == "true\n"
    code, out = run_cli(["is-tough", "3/2"], stdin_text="Dhc\n")
    assert code == 0
    assert out.splitlines()[0] == "false"
    code, out = run_cli(["is-tough", "0/2"], stdin_text="Cl\n")
    assert code == 2
    code, out = run_cli(["is-tough", "1.5"], stdin_text="Cl\n")
    assert code == 2


def test_classify_command():
    code, out = run_cli(["classify"], stdin_text="Cl\n")
    assert code == 0
    assert out == (
        "chordal   no  witness={0,1,2,3}\n"
        "split     no  witness={0,1,2,3}\n"
        "claw-free yes -\n"
        "2k2-free  yes -\n"
    )
    code, out = run_cli(["classify"], stdin_text=encode_graph6(zoo.paw()))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("chordal   yes order=")
    assert lines[1] == "split     yes C={0,1,2} I={3}"


def test_min_tough_command():
    code, out = run_cli(["min-tough"], stdin_text="Cs\n")  # star on 3 leaves
    assert code == 0 and out == "minimally 1/3-tough\n"
    code, out = run_cli(["min-tough"], stdin_text=encode_graph6(zoo.paw()))
    assert code == 1 and out == "not minimally tough (tau = 1/2)\n"
    code, out = run_cli(["min-tough"], stdin_text=encode_graph6(zoo.complete(4)))
    assert code == 1 and out == "not minimally tough (tau = inf)\n"


def test_min_tough_computes_toughness_once(monkeypatch):
    import toughkit.cli
    import toughkit.mintough

    calls = []
    for module in (toughkit.cli, toughkit.mintough):
        real = module.toughness
        monkeypatch.setattr(
            module, "toughness", lambda g, real=real: calls.append(g) or real(g)
        )
    code, out = run_cli(["min-tough"], stdin_text=encode_graph6(zoo.paw()))
    assert code == 1 and out == "not minimally tough (tau = 1/2)\n"
    assert len(calls) == 1


def test_witness_command():
    code, out = run_cli(["witness", "0-1"], stdin_text="Cl\n")
    assert code == 0
    assert out == (
        "minimally 1-tough\n"
        "edge 0-1: S = {2}, omega(G-S) = 1 <= |S|/t = 1, "
        "omega((G-e)-S) = 2 > 1\n"
    )
    code, out = run_cli(["witness", "0-2"], stdin_text="Cl\n")
    assert code == 2
    code, out = run_cli(["witness", "01"], stdin_text="Cl\n")
    assert code == 2
    code, out = run_cli(["witness", "0-1"], stdin_text=encode_graph6(zoo.paw()))
    assert code == 1


@pytest.mark.parametrize("edge", ["4-3", "0-4"])
def test_witness_rejects_endpoints_outside_the_graph(edge, capsys):
    # a negative endpoint cannot be written as u-v: argparse reads it as a flag
    code, out = run_cli(["witness", edge], stdin_text=encode_graph6(zoo.cycle(4)))
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"toughkit: {edge} is not an edge of the input graph\n"


def test_generate_command(tmp_path):
    code, out = run_cli(["generate", "star:3"])
    assert code == 0 and out == "Cs\n"
    code, out = run_cli(["generate", "cycle:4"])
    assert code == 0 and out == "Cl\n"
    code, out = run_cli(["generate", "doublestar:3,2"])
    assert code == 0 and out.strip() == encode_graph6(zoo.double_star(3, 2))
    tree = tmp_path / "tree.g6"
    tree.write_text(encode_graph6(zoo.spider(2, 2, 2)) + "\n")
    code, out = run_cli(["generate", f"clawhalf:{tree}"])
    assert code == 0
    from toughkit import canonical_key, parse_graph6

    assert canonical_key(parse_graph6(out.strip())) == canonical_key(zoo.net())
    code, out = run_cli(["generate", "star:0"])
    assert code == 2
    code, out = run_cli(["generate", "widget:9"])
    assert code == 2


@pytest.mark.parametrize(
    "descriptor",
    [
        "star:1000000000",
        "path:1000000000",
        "cycle:1000000000",
        "doublestar:1000000000,1",
        "splittriangle:1000000000",
    ],
)
def test_generate_checks_the_vertex_count_before_building(descriptor):
    # a CLI process limited to 1 GiB of address space (the limit is set in
    # the child only): an edge list for 10**9 vertices would run out of
    # memory and exit 1 with a traceback, or, without the limit, grow for
    # minutes
    def limit_memory():
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        soft = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    src = Path(toughkit.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "toughkit", "generate", descriptor],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=limit_memory,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert re.search(r"^toughkit: vertex count \d+ outside 0\.\.64$", proc.stderr, re.M)


def test_verify_command_pass_and_fail():
    code, out = run_cli(["verify", "T16", "--enumerate", "5", "--dedup", "always"])
    assert code == 0
    assert "verdict pass" in out
    assert "suite T16" in out and "scanned 31" in out
    # T20 is genuinely refuted at n = 5
    code, out = run_cli(["verify", "T20", "--enumerate", "5", "--dedup", "always"])
    assert code == 1
    assert "verdict fail" in out
    code, out = run_cli(["verify", "NOPE", "--enumerate", "4"])
    assert code == 2
    code, out = run_cli(["verify", "T16"])
    assert code == 2  # neither --enumerate nor --source


@pytest.mark.parametrize("command", [["verify", "T16"], ["scan"]])
def test_enumerate_and_source_are_exclusive(command, tmp_path, capsys):
    # giving both used to drop --enumerate without a word
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("Cl\n")
    code, out = run_cli(command + ["--enumerate", "4", "--source", str(corpus)])
    assert code == 2 and out == ""
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["verify", "all"], ["scan"]])
@pytest.mark.parametrize("mode", ["auto", "always", "never"])
def test_dedup_is_rejected_with_source(command, mode, tmp_path, capsys):
    # the flag used to be ignored on a graph6 corpus without a word
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("Cl\nCl\n")
    code, out = run_cli(command + ["--source", str(corpus), "--dedup", mode])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "toughkit: --dedup applies only to --enumerate\n"


@pytest.mark.parametrize("command", [["verify", "all"], ["scan"]])
def test_non_ascii_source_is_a_usage_error(command, tmp_path, capsys):
    # a byte outside ASCII used to escape as a traceback with exit code 1,
    # the code of a violation
    corpus = tmp_path / "corpus.g6"
    corpus.write_bytes(b"C~\n\xc4\x80\n")
    code, out = run_cli(command + ["--source", str(corpus)])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"toughkit: cannot read {corpus}: ")
    assert "can't decode byte 0xc4" in err


def test_verify_from_file(tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("Cl\nbad line!!\nBw\n")
    code, out = run_cli(["verify", "T12", "--source", str(corpus)])
    assert code == 0
    assert "scanned 2" in out and "malformed-lines 1" in out


def test_scan_command():
    code, out = run_cli(["scan", "--enumerate", "4", "--dedup", "always"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "minimally-tough 4"
    assert any("t=1/3" in ln and "mindeg=1" in ln for ln in lines)


def test_jobs_flag():
    # there is no --jobs option: sweeps run in one thread
    code, out = run_cli(["verify", "T4", "--enumerate", "4", "--jobs", "4"])
    assert code == 2 and out == ""
    code, _ = run_cli(["scan", "--enumerate", "4", "--jobs", "4"])
    assert code == 2


@pytest.mark.parametrize("command", [["verify", "all"], ["scan"]])
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--enumerate", "0"], "enumeration needs n >= 1"),
        (["--enumerate", "-2"], "enumeration needs n >= 1"),
        (["--enumerate", "9"], "dedup enumeration capped at n <= 8"),
        (["--enumerate", "9", "--dedup", "always"], "dedup enumeration capped at n <= 8"),
        (["--enumerate", "8", "--dedup", "never"], "labeled enumeration capped at n <= 7"),
        (["--enumerate", "10" * 6], "dedup enumeration capped at n <= 8"),
        (["--enumerate", "10" * 6, "--dedup", "never"], "labeled enumeration capped at n <= 7"),
    ],
)
def test_enumerate_bounds_checked_before_any_work(command, flags, message, capsys):
    # out-of-range n stops with a usage error at once, not after sweeping
    # every smaller n first
    code, out = run_cli(command + flags)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"toughkit: {message}\n"


def test_verify_prints_one_sweep_time(capsys):
    code, _ = run_cli(["verify", "all", "--enumerate", "4"])
    assert code == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.fullmatch(r"# sweep \d+\.\d\ds", err[0])


@pytest.mark.parametrize(
    "argv, want_code, want_sha256",
    [
        (
            ["verify", "all", "--enumerate", "5", "--dedup", "never"],
            1,
            "7a461f0cea35a1a333dcc262c02c1a0c26c86cd49cf01f9e5b57ca408b034093",
        ),
        (
            ["scan", "--enumerate", "6", "--dedup", "never"],
            0,
            "6da340adde22cd826756bfe4199f7c3a91e77505a535a69d67154f8102903b77",
        ),
        (
            ["verify", "all", "--enumerate", "7", "--dedup", "always"],
            1,
            "ddd31cb13f9f4b66870fc72062eb133de9d155a4563b3ab6cefdeea577186f77",
        ),
        (
            ["scan", "--enumerate", "7", "--dedup", "always"],
            0,
            "444d0650b595a9722f9f33f617fe366b7b50e7669c491ee1d063660113156f06",
        ),
    ],
)
def test_sweep_stdout_is_pinned(argv, want_code, want_sha256):
    # reference outputs: caching toughness within a sweep, answering the
    # per-edge questions by the cheapest rung and building each dedup level
    # once must not change a byte
    code, out = run_cli(argv)
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == want_sha256


def test_classify_stdout_is_pinned():
    # reference output: chordal orders, split partitions and obstruction
    # witnesses of every connected graph class n <= 6, byte for byte
    digest = hashlib.sha256()
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n, dedup=True):
            code, out = run_cli(["classify"], stdin_text=encode_graph6(g) + "\n")
            assert code == 0
            digest.update(out.encode())
    assert (
        digest.hexdigest()
        == "307206299e2d1281a41fe55f1df53567f3a15da12ae25644681a9cd2944fbece"
    )


def _query_graphs():
    # sparse families and seeded G(n, p), each under a seeded relabeling
    rng = random.Random(20181)
    graphs = []
    for n in (10, 11, 12):
        graphs.append((n, zoo.path(n).edges()))
        for steps in ((1,), (1, 2), (1, 3)):
            graphs.append((n, zoo.circulant(n, steps).edges()))
    for n, p in ((10, 0.3), (11, 0.45), (12, 0.6)):
        edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < p]
        graphs.append((n, edges))
    for n, edges in graphs:
        perm = list(range(n))
        rng.shuffle(perm)
        yield Graph(n, [(perm[u], perm[v]) for u, v in edges])


def test_query_stdout_is_pinned():
    # reference output: values, witnesses and verdicts of the single-graph
    # commands must not change a byte when the subset searches are pruned
    digest = hashlib.sha256()
    for g in _query_graphs():
        u, v = g.edges()[0]
        text = encode_graph6(g) + "\n"
        for argv in (
            ["toughness"],
            ["is-tough", "1/2"],
            ["is-tough", "1"],
            ["is-tough", "3/2"],
            ["is-tough", "2"],
            ["min-tough"],
            ["witness", f"{u}-{v}"],
            ["classify"],
        ):
            code, out = run_cli(argv, stdin_text=text)
            digest.update(f"{code}\n{out}".encode())
    assert (
        digest.hexdigest()
        == "d63972aea1c98b0daf35cff59b461386b340eaa76ffcd6cd7a6b741c23bbc938"
    )


def _clawfree_corpus():
    # claw-free graphs on 8-12 vertices (the circulants C_n(1,2), L(K5), C9
    # and a triangle-from-tree member), then the net, a disconnected graph,
    # a blank line and a malformed line
    pairs = list(combinations(range(5), 2))
    line_k5 = Graph(
        10, [(i, j) for i, j in combinations(range(10), 2) if set(pairs[i]) & set(pairs[j])]
    )
    graphs = [zoo.circulant(n, (1, 2)) for n in range(8, 13)]
    graphs += [line_k5, zoo.cycle(9), generate(ClawfreeHalfFromTree(zoo.spider(3, 3, 4)))]
    graphs += [zoo.net(), Graph(4, [(0, 1), (2, 3)])]
    lines = [encode_graph6(g) for g in graphs]
    return "\n".join(lines[:5] + ["", "bad line!!"] + lines[5:]) + "\n"


@pytest.mark.parametrize(
    "argv, want_code, want_sha256",
    [
        (
            ["verify", "all"],
            1,
            "0e3a6b8f3dc31824097267c532a770d4526f96eb9f80c51205926ad4cdc034e3",
        ),
        (
            ["scan"],
            0,
            "2254269d422e00b6e04e40950c96d1764bf188d9ce51cd9ad9eabafd3d0c644c",
        ),
    ],
)
def test_source_stdout_is_pinned(argv, want_code, want_sha256, tmp_path):
    # reference outputs over graphs above 7 vertices, where T12 compares
    # tau with kappa on every claw-free member
    corpus = tmp_path / "clawfree.g6"
    corpus.write_text(_clawfree_corpus())
    code, out = run_cli(argv + ["--source", str(corpus)])
    assert code == want_code
    out = out.replace(str(corpus), "F")
    assert hashlib.sha256(out.encode()).hexdigest() == want_sha256


def _connectivity_corpus():
    # where "connected" and "tau is not zero" could part: Graph(0) and K1,
    # edgeless graphs, K2 and disconnected graphs with edges, and P4, C4, K4
    graphs = [Graph(0), Graph(1), Graph(2), Graph(3), zoo.complete(2),
              Graph(3, [(0, 1)]), Graph(4, [(0, 1), (2, 3)]),
              Graph(5, [(0, 1), (1, 2), (3, 4)]),
              Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
              zoo.path(4), zoo.cycle(4), zoo.complete(4)]
    return "".join(encode_graph6(g) + "\n" for g in graphs)


@pytest.mark.parametrize(
    "argv, want_sha256",
    [
        (["verify", "all"], "d1fdcd2db329445dec811c046b885f2f203cabb7dad0b7ab9db19e011fef971c"),
        (["scan"], "fee17aa036be984843973303a327bb8b57541afcdc4d7716cae44062d39b6a7a"),
    ],
)
def test_disconnected_source_stdout_is_pinned(argv, want_sha256, tmp_path):
    # reference outputs: the suites read connectivity from tau alone, and
    # a bridge is an edge whose deletion disconnects the graph
    corpus = tmp_path / "connectivity.g6"
    corpus.write_text(_connectivity_corpus())
    code, out = run_cli(argv + ["--source", str(corpus)])
    assert code == 0
    out = out.replace(str(corpus), "F")
    assert hashlib.sha256(out.encode()).hexdigest() == want_sha256


def test_env_cap_respected():
    big = encode_graph6(zoo.complete(2))  # harmless graph, but cap must gate parsing
    code, out = run_cli(["toughness"], stdin_text=big, env_cap="1")
    assert code == 2
    code, out = run_cli(["toughness"], stdin_text=big, env_cap="33")
    assert code == 0
    code, out = run_cli(["toughness"], stdin_text=big, env_cap="weird")
    assert code == 2
    code, out = run_cli(["generate", "path:40"])
    assert code == 2 and out == ""
    code, out = run_cli(["generate", "path:40"], env_cap="40")
    assert code == 0 and out == encode_graph6(zoo.path(40)) + "\n"


def test_env_cap_does_not_outlive_run():
    line = chr(40 + 63) + "?" * 130  # 40 vertices, no edges
    code, out = run_cli(["toughness"], stdin_text=line, env_cap="40")
    assert code == 0 and out.startswith("0\n")
    code, out = run_cli(["toughness"], stdin_text=line)
    assert code == 2 and out == ""
    with pytest.raises(Graph6Error):
        parse_graph6(line)


def test_verify_accepts_certificates_above_input_cap(tmp_path):
    # 30 vertices, minimally 1/2-tough and claw-free; its certificate tree
    # for T17 has 39 vertices
    corpus = tmp_path / "g.g6"
    corpus.write_text(encode_graph6(generate(ClawfreeHalfFromTree(zoo.comb_tree()))))
    code, out = run_cli(["verify", "T17", "--source", str(corpus)])
    assert code == 0
    assert "instances 1" in out and "verdict pass" in out


def test_graph6_file_header_accepted():
    for argv in (
        ["toughness"],
        ["is-tough", "1"],
        ["classify"],
        ["min-tough"],
        ["witness", "0-1"],
    ):
        plain = run_cli(argv, stdin_text="Cl\n")
        assert plain[0] == 0
        assert run_cli(argv, stdin_text=">>graph6<<Cl\n") == plain


# generate's descriptors: a family name, clawhalf among them, and a short
# argument; "clawhalf:-" reads its tree from stdin
DESCRIPTORS = st.builds(
    "{}:{}".format,
    st.sampled_from(
        ["star", "path", "cycle", "doublestar", "splittriangle", "clawhalf", "Cycle", "tree"]
    ),
    st.one_of(st.just("-"), st.text(alphabet="0123456789,- ", max_size=5)),
)
# graph6 lines of the trees on 1-7 vertices, so that clawhalf:- and the
# single-graph commands also meet well-formed input
TREE_LINES = [encode_graph6(t) + "\n" for n in range(1, 8) for t in enumerate_trees(n)]


@settings(max_examples=250, deadline=None)
@given(
    st.sampled_from(
        ["toughness", "classify", "min-tough", "is-tough", "witness", "verify", "scan",
         "generate"]
    ),
    st.one_of(
        st.text(max_size=24),
        st.text(alphabet="0123456789 \n-#?@ABC_~>graph<", max_size=24),
        st.sampled_from(TREE_LINES),
    ),
    st.one_of(st.text(alphabet="0123456789/-", max_size=6), st.text(max_size=8)),
    DESCRIPTORS,
)
def test_cli_never_raises_on_short_input(command, text, arg, descriptor):
    # the graph comes on stdin, or for the sweeps from a file; is-tough's t,
    # witness's edge and generate's descriptor are fuzzed too
    if command == "generate":
        code, _ = run_cli([command, descriptor], stdin_text=text)
        assert code in (0, 1, 2)
        return
    if command in ("verify", "scan"):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "corpus")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            suite = ["all"] if command == "verify" else []
            code, _ = run_cli([command, *suite, "--source", path])
    else:
        args = [arg] if command in ("is-tough", "witness") else []
        code, _ = run_cli([command, *args], stdin_text=text)
    assert code in (0, 1, 2)


def _quick_enumerate(text):
    """Does --enumerate text stay clear of the sweeps over n = 5..8, which
    take seconds to minutes?  int() reads signs, spaces, underscores,
    leading zeros and non-ASCII digits, as argparse does."""
    try:
        return not 5 <= int(text) <= 8
    except ValueError:
        return True


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["verify", "scan"]),
    st.one_of(st.sampled_from([*toughkit.harness.SUITES, "all"]), st.text(max_size=6)),
    st.one_of(
        st.text(max_size=6),
        st.text(alphabet="0123456789+-_ \u0667\uff15", max_size=6),
        st.integers().filter(lambda n: not 5 <= n <= 8).map(str),
    ).filter(_quick_enumerate),
    st.one_of(st.sampled_from(["auto", "always", "never"]), st.text(max_size=8)),
)
def test_enumerate_and_dedup_never_raise(command, suite, n, dedup):
    # a usage error prints nothing on stdout
    argv = [command, *([suite] if command == "verify" else []),
            "--enumerate", n, "--dedup", dedup]
    code, out = run_cli(argv)
    assert code in (0, 1, 2)
    assert code != 2 or out == ""


def test_run_builds_its_parser_once(monkeypatch):
    assert run_cli(["toughness"], stdin_text="Cl\n")[0] == 0

    def refuse(self, *args, **kwargs):
        raise AssertionError("run built a second parser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert run_cli(["toughness"], stdin_text="Cl\n") == (
        0, "1\nwitness {0,2} |S|=2 components=2\n"
    )
    assert run_cli(["frobnicate"])[0] == 2


def test_version_and_usage():
    code, _ = run_cli(["--version"])
    assert code == 0
    code, _ = run_cli([])
    assert code == 2
    code, _ = run_cli(["frobnicate"])
    assert code == 2
