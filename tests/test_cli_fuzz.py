"""Argv fuzz of the CLI: whatever the arguments, a command ends with one of
its documented exit codes, never with an exception or a traceback.

Each case runs ``cli.main`` in process with stdout and stderr redirected to
``StringIO``; the extents stay small enough for the whole run to take a few
seconds (n <= 14 where a command enumerates, verify bounds <= (8, 3, 7)).
``count`` and ``table`` also draw h from 10^5..10^9, where a step that costs
O(h) would show; ``seq F-ext``/``L-ext`` do not, since their output starts
at -h.
"""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import fibcubes.cli as cli  # noqa: E402

SIGNED = st.integers(-3, 8)
LARGE_H = st.integers(10**5, 10**9)
CAP = st.one_of(st.none(), st.integers(-2, 24))
H_TEXT = st.one_of(
    st.builds(str, st.integers(-2, 12)),
    st.builds("{}:{}".format, st.integers(-2, 12), st.integers(-2, 12)),
    st.sampled_from(["", ":", "1:", ":3", "x", "1:2:3", "0x1", " 2", "1.5"]),
)
OUT_KINDS = ("none", "-", "dir", "missing-dir", "file")


def opt(flag, values):
    """Either nothing or ``[flag, value]``."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


def cap_opt():
    return CAP.map(lambda c: [] if c is None else ["--cap", str(c)])


@st.composite
def table_argv(draw):
    return (["table", draw(st.sampled_from(["pk", "ck", "p", "c", "F", "L", "H", "M"]))]
            + draw(opt("--h", st.one_of(H_TEXT, st.builds(str, LARGE_H))))
            + draw(opt("--n-max", st.integers(-2, 14)))
            + draw(opt("--k-max", st.integers(-2, 10)))
            + draw(st.sampled_from([[], ["--paper-layout"]]))
            + draw(opt("--format", st.sampled_from(["tsv", "csv", "json"]))))


@st.composite
def cube_argv(draw):
    return (["cube", draw(st.sampled_from(["path", "cycle"])),
             str(draw(st.integers(-2, 14))), str(draw(st.integers(-2, 6)))]
            + draw(opt("--format", st.sampled_from(["dot", "json", "edgelist"])))
            + draw(cap_opt()))


@st.composite
def graph_argv(draw):
    return (["graph", draw(st.sampled_from(["path", "cycle"])),
             str(draw(st.integers(-2, 60))), str(draw(SIGNED))]
            + draw(opt("--format", st.sampled_from(["edgelist", "dot"]))))


@st.composite
def count_argv(draw):
    route = draw(st.sampled_from(["closed", "recurrence", "conv", "oracle"]))
    # Past 21,000 the values outgrow the interpreter's int-to-str digit limit.
    n = draw(st.integers(-2, 14) if route == "oracle"
             else st.one_of(st.integers(-2, 40), st.integers(21_000, 25_000)))
    k = draw(st.one_of(st.none(), st.integers(-4, 12)))
    return (["count", draw(st.sampled_from(["path", "cycle", "path-edges", "cycle-edges"])),
             str(n), str(draw(st.one_of(SIGNED, LARGE_H)))]
            + ([] if k is None else [str(k)])
            + ["--route", route]
            + draw(cap_opt()))


@st.composite
def seq_argv(draw):
    return (["seq", draw(st.sampled_from(["F", "L", "F-ext", "L-ext"])),
             "--h", draw(st.one_of(st.builds(str, SIGNED), st.sampled_from(["x", "", "1:2"])))]
            + draw(opt("--n-max", st.integers(-5, 300)))
            + draw(opt("--format", st.sampled_from(["tsv", "json"]))))


@st.composite
def verify_argv(draw):
    # Always all three bounds: the defaults take seconds.
    return (["verify", "--n-max", str(draw(st.integers(-1, 8))),
             "--h-max", str(draw(st.integers(-1, 3))),
             "--oracle-n-max", str(draw(st.integers(-1, 7)))]
            + draw(opt("--format", st.sampled_from(["summary", "json"]))))


ARGV = st.one_of(table_argv(), cube_argv(), graph_argv(), count_argv(), seq_argv(),
                 verify_argv())


def negative_argument(argv) -> bool:
    """Whether a positional n, h or k, or seq's --h, is a negative integer."""
    if argv[0] in ("count", "cube", "graph"):
        values = argv[2:5] if argv[0] == "count" else argv[2:4]
    elif argv[0] == "seq":
        values = argv[3:4]
    else:
        return False
    return any(v.lstrip("-").isdigit() and int(v) < 0 for v in values)


@pytest.fixture(scope="module")
def out_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("out")
    return {"none": None, "-": "-", "dir": str(root),
            "missing-dir": str(root / "missing" / "x"), "file": str(root / "file.txt")}


@settings(max_examples=300, deadline=None)
@given(argv=ARGV, out_kind=st.sampled_from(OUT_KINDS))
def test_every_argv_ends_in_a_documented_exit_code(out_paths, argv, out_kind):
    out = out_paths[out_kind]
    full = argv + ([] if out is None else ["--out", out])
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(full)
        except SystemExit as exc:  # argparse rejects the argv
            assert exc.code == 2, full
            return
    allowed = {0, 1, 2, 3} if argv[0] == "verify" else {0, 2, 3}
    assert code in allowed, (full, code, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
    if code in (2, 3):
        assert stderr.getvalue().startswith("error:"), (full, stderr.getvalue())
        assert stdout.getvalue() == "", full
    if negative_argument(argv):
        assert code == 2, (full, code, stdout.getvalue())
    if out_kind in ("dir", "missing-dir"):
        assert code in (2, 3), (full, code)
