"""Command-line behavior: output formats, routes, and the exit-code contract
(0 ok, 1 verification failure, 2 usage, 3 capacity)."""

import contextlib
import inspect
import json
import os
import stat
import subprocess
import sys
import tracemalloc

import pytest

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import fibcubes.cli as cli
from fibcubes import counting, cube, verify
from fibcubes.counting import path_count, path_count_rec
from fibcubes.graphs import GapGraph


def run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# --- count -----------------------------------------------------------------


@pytest.mark.parametrize("argv,expected", [
    (["count", "path", "10", "2"], "60"),
    (["count", "path", "8", "3", "--route", "oracle"], "19"),
    (["count", "path", "12", "3", "--route", "oracle"], "69"),
    (["count", "path", "13", "1", "--route", "recurrence"], "610"),
    (["count", "path", "8", "2", "3"], "4"),
    (["count", "cycle", "8", "2"], "21"),
    (["count", "cycle", "16", "1", "--route", "recurrence"], "2207"),
    (["count", "cycle", "12", "2", "3", "--route", "oracle"], "40"),
    (["count", "path-edges", "6", "1"], "38"),
    (["count", "path-edges", "13", "2", "--route", "conv"], "520"),
    (["count", "path-edges", "6", "1", "--route", "oracle"], "38"),
    (["count", "cycle-edges", "8", "2", "--route", "closed"], "32"),
    (["count", "cycle-edges", "15", "1", "--route", "conv"], "5655"),
    (["count", "cycle-edges", "15", "1", "--route", "recurrence"], "5655"),  # n * F(n-h)
    (["count", "cycle-edges", "5", "1", "--route", "oracle"], "15"),
    (["count", "cycle-edges", "2", "2"], "2"),
])
def test_count_routes(argv, expected, capsys):
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == expected + "\n"


def test_count_routes_agree_where_defined(capsys):
    for route in ("closed", "recurrence", "oracle"):
        code, out, _ = run(["count", "cycle", "9", "2", "--route", route], capsys)
        assert code == 0 and out == "31\n"
    for route in ("closed", "recurrence", "conv", "oracle"):
        code, out, _ = run(["count", "cycle-edges", "9", "2", "--route", route], capsys)
        assert code == 0 and out == "54\n"


@pytest.mark.parametrize("argv", [
    ["count", "path", "10", "2", "--route", "conv"],        # conv is edges-only
    ["count", "cycle", "10", "2", "--route", "conv"],
    ["count", "path-edges", "10", "2", "--route", "recurrence"],
    ["count", "path-edges", "10", "2", "3"],                # edges take no k
    ["count", "path", "10", "2", "3", "--route", "recurrence"],
    ["count", "cycle-edges", "2", "2", "--route", "conv"],  # conv needs n > h
    ["count", "path", "-1", "2"],
    # No set has a negative size; a printed 0 would be a silent wrong answer.
    ["count", "path", "5", "1", "-1"],
    ["count", "cycle", "5", "1", "-3"],
    ["count", "path", "5", "1", "-1", "--route", "oracle"],
    ["count", "cycle", "5", "1", "-3", "--route", "oracle"],
])
def test_count_usage_errors(argv, capsys):
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv,message", [
    (["count", "cycle-edges", "2", "2", "--route", "recurrence"],
     "n * F(n-h) needs n > h, got n=2 h=2"),
    # A refused route lists the routes that do count the quantity.
    (["count", "path-edges", "10", "2", "--route", "recurrence"],
     "the recurrence route does not count path-edges (routes: closed, conv, oracle)"),
    (["count", "path", "10", "2", "3", "--route", "recurrence"],
     "the recurrence route does not count path of one subset size (routes: closed, oracle)"),
    (["count", "cycle-edges", "10", "2", "3"],
     "the closed route does not count cycle-edges of one subset size (routes: none)"),
])
def test_count_usage_errors_say_why(argv, message, capsys):
    assert run(argv, capsys) == (2, "", f"error: {message}\n")


def test_failed_command_leaves_out_file_alone(tmp_path, capsys):
    target = tmp_path / "kept.txt"
    target.write_text("kept\n")
    code, _, err = run(["count", "path", "5", "1", "-1", "--out", str(target)], capsys)
    assert (code, err) == (2, "error: n, h and k must be nonnegative\n")
    assert target.read_text() == "kept\n"


def test_count_oracle_respects_cap(capsys):
    code, _, err = run(["count", "path", "30", "1", "--route", "oracle"], capsys)
    assert code == 3
    assert "cap" in err
    code, out, _ = run(
        ["count", "path", "26", "1", "--route", "oracle", "--cap", "26"], capsys)
    assert code == 0
    assert out == "317811\n"  # p(26) at h=1, the 28th Fibonacci number


def test_unknown_quantity_is_usage_error(capsys):
    assert run(["count", "triangle", "5", "1"], capsys) == (
        2, "", "error: argument quantity: invalid choice: 'triangle' "
               "(choose from 'path', 'cycle', 'path-edges', 'cycle-edges')\n")


@pytest.mark.parametrize("argv", [
    ["count", "path", "5", "1", "--route", "oracle", "--cap", "-2"],
    ["count", "path", "5", "1", "--cap", "-2"],  # the closed route never reads it
    ["cube", "path", "3", "1", "--cap", "-1"],
    ["cube", "path", "3", "1", "--cap=-1"],
])
def test_negative_cap_is_usage_error(argv, capsys):
    # Exit 2, not the capacity error 3: no size fits under a negative cap.
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: argument --cap: must be nonnegative, got -")
    assert err.count("\n") == 1


# --- argument parsing --------------------------------------------------------

MALFORMED_ARGV = {
    "no-command": ([], "the following arguments are required: command"),
    "unknown-command": (["triangle", "5"], "argument command: invalid choice: 'triangle'"),
    "unknown-flag": (["count", "path", "5", "1", "--bogus"], "unrecognized arguments: --bogus"),
    "value-missing-at-end": (["count", "path", "5", "1", "--route"],
                             "argument --route: expected one argument"),
    "value-missing-before-flag": (["table", "p", "--n-max", "--format", "csv"],
                                  "argument --n-max: expected one argument"),
    "bad-int": (["count", "path", "x", "1"], "argument n: invalid int value: 'x'"),
    "bad-int-option": (["verify", "--n-max=1.5"], "argument --n-max: invalid int value: '1.5'"),
    "bad-choice": (["table", "p", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
    "missing-positional": (["cube", "path", "3"], "the following arguments are required: h"),
    "extra-positional": (["graph", "path", "3", "1", "7"], "unrecognized arguments: 7"),
    "seq-without-h": (["seq", "F"], "the following arguments are required: --h"),
    "abbreviated-flag": (["count", "path", "5", "1", "--rou", "oracle"],
                         "unrecognized arguments: --rou"),
    "value-on-bare-flag": (["table", "p", "--paper-layout=yes"],
                           "argument --paper-layout: ignored explicit argument 'yes'"),
}


@pytest.mark.parametrize("argv,message", MALFORMED_ARGV.values(), ids=MALFORMED_ARGV)
def test_malformed_argv_is_one_error_line(argv, message, capsys):
    # Returned, not raised as SystemExit: parsing runs inside the one boundary.
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["count", "path", "10", "2", "--route", "recurrence", "--out", "-"],
    ["seq", "L-ext", "--h", "2", "--n-max", "6", "--format", "json"],
    ["table", "pk", "--h", "2", "--k-max", "-1"],
    ["verify", "--n-max", "3", "--h-max", "1", "--oracle-n-max", "3"],
])
def test_flag_equals_value_matches_flag_then_value(argv, capsys):
    joined, tokens = [], iter(argv)
    for token in tokens:
        joined.append(f"{token}={next(tokens)}" if token.startswith("--") else token)
    assert run(joined, capsys) == run(argv, capsys)


@pytest.mark.parametrize("argv,expected", [
    (["count", "--route", "oracle", "path", "8", "3"], "19\n"),   # options first
    (["count", "path", "8", "--route", "oracle", "3"], "19\n"),   # between positionals
    (["count", "path", "8", "2", "--route", "oracle", "3"], "4\n"),  # trailing k
    (["count", "path", "10", "2", "--route", "oracle", "--route", "closed"], "60\n"),
    (["seq", "F", "--h", "5", "--h", "1", "--n-max", "2"], "1\t1\n2\t1\n"),
])
def test_options_in_any_position_last_one_wins(argv, expected, capsys):
    assert run(argv, capsys) == (0, expected, "")


def _flags(command):
    return [a.name for a in cli._COMMANDS[command][2] if a.name.startswith("--")]


@pytest.mark.parametrize("argv", [["--help"], ["-h"]])
def test_help_lists_every_command_and_flag(argv, capsys):
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    for command, (_, summary, _) in cli._COMMANDS.items():
        assert f"fibcubes {command} " in out and summary in out
        assert all(flag in out for flag in _flags(command)), command


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_command_help_lists_every_argument(command, capsys):
    code, out, err = run([command, "--help"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: fibcubes {command} ")
    for arg in cli._COMMANDS[command][2]:
        assert arg.name in out and arg.help in out, arg.name
    # -h after a whole, valid argv: help, and the command does not run.
    assert run(CHEAP_COMMANDS[command] + ["-h"], capsys) == (0, out, "")


def test_verify_help_shows_run_suite_defaults(capsys):
    code, out, _ = run(["verify", "--help"], capsys)
    assert code == 0
    lines = {line.split()[0]: line for line in out.split("\n\n", 1)[1].splitlines()}
    for name, param in inspect.signature(verify.run_suite).parameters.items():
        flag = "--" + name.replace("_", "-")
        assert lines[flag].endswith(f" (default {param.default})"), lines[flag]


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_argument_line_of_command_help_has_text(command, capsys):
    code, out, _ = run([command, "--help"], capsys)
    lines = out.split("\n\n", 1)[1].splitlines()
    spec = cli._COMMANDS[command][2]
    assert code == 0 and len(lines) == len(spec)
    for line, arg in zip(lines, spec):
        name, text = line.split(None, 1)
        assert name == arg.name and text.strip(), line


def test_cli_leaves_argparse_gettext_and_locale_unloaded():
    # Parsing costs no import: argparse alone, with gettext and locale behind
    # it, took about 4.7 ms of every command; dataclasses, with inspect
    # behind it, about 8 ms; json, which only JSON output needs, about 2 ms.
    code = ("import sys, fibcubes.cli; fibcubes.cli.main(['count', 'path', '10', '2']); "
            "print(sorted({'argparse', 'gettext', 'locale', 'dataclasses', 'inspect', 'json'}"
            " & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    assert out.stdout == "60\n[]\n"


def test_json_output_of_table_seq_and_cube_leaves_json_unloaded():
    # Their only strings are fixed ASCII names and bit strings, quoted as
    # they are; importing json for them took about 2.9 ms of each command.
    code = """if True:
        import io, sys
        from contextlib import redirect_stderr, redirect_stdout
        if "json" in sys.modules:
            print("preloaded")
            raise SystemExit
        from fibcubes import cli
        loaded = []
        for argv in (["table", "pk", "--h", "1", "--paper-layout", "--format", "json"],
                     ["seq", "F-ext", "--h", "2", "--n-max", "9", "--format", "json"],
                     ["cube", "cycle", "7", "2", "--format", "json"]):
            with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
            loaded.append((rc, out.getvalue()[:1], "json" in sys.modules))
        print(loaded)
    """
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    if out.stdout == "preloaded\n":
        pytest.skip("site loaded json before the program")
    assert out.stdout == "[(0, '{', False), (0, '{', False), (0, '{', False)]\n"


def test_cli_leaves_re_unloaded_without_site():
    # The two argv patterns are string tests, not regexes; re, with enum
    # behind it, was the largest import left on the start-up path.  -S,
    # because site may load re itself.
    code = ("import sys, fibcubes.cli; fibcubes.cli.main(['count', 'path', '10', '2']); "
            "print('re' in sys.modules)")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    assert out.stdout == "60\nFalse\n"


# Tokens on which a string test and a regex easily part: empty parts, stray
# signs, points and colons, whitespace and newlines, underscores (which int()
# takes), and digits outside ASCII: Arabic-Indic, fullwidth and mathematical
# bold are Unicode decimals, superscript two a digit but not a decimal.
TRICKY_TOKENS = ["", "-", "--", ".", "-.", "-5", "-05", "-5.", "-.5", "-1.5", "-1..5",
                 "-1.5.2", "-.5.", "--5", "-+5", "+5", "-1e5", "-1_0", "- 5", "-5 ", "-5\n",
                 "-٣", "-٣.٤", "-５", "-\U0001d7d3", "-²", "-².5",
                 "5", "0", "02", "1_0", " 2", "2 ", "2\n", "+2", "٣", "１", "²",
                 "a", "2:", ":3", ":", "0:10", "02:3", "3:2", "1:2:3", "1::2", "1: 2",
                 "٣:4", "1:４", "1:²", "-1:2"]


@pytest.mark.parametrize("token", TRICKY_TOKENS)
def test_argv_string_tests_accept_what_the_regexes_accepted(token):
    import re

    # The patterns the CLI used: ASCII digits in an h range, any Unicode
    # decimal digit (\d) in a negative number.
    h_range = re.fullmatch(r"([0-9]+)(?::([0-9]+))?", token)
    try:
        parsed = cli._parse_h_range(token)
    except ValueError:
        parsed = None
    if h_range is None or int(h_range.groups(h_range[1])[1]) < int(h_range[1]):
        assert parsed is None
    else:
        assert parsed == tuple(int(v) for v in h_range.groups(h_range[1]))
    negative = re.compile(r"-\d+|-\d*\.\d+").fullmatch(token) is not None
    assert cli._is_negative_number(token) is negative


# --- table -----------------------------------------------------------------


def test_table_small_fibonacci_row(capsys):
    code, out, _ = run(["table", "F", "--h", "1", "--n-max", "5"], capsys)
    assert code == 0
    assert out == "\tn=1\t2\t3\t4\t5\nh=1\t1\t1\t2\t3\t5\n"


def test_table_h_range(capsys):
    code, out, _ = run(["table", "p", "--h", "0:2", "--n-max", "3"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "\tn=0\t1\t2\t3",
        "h=0\t1\t2\t4\t8",
        "1\t1\t2\t3\t5",
        "2\t1\t2\t3\t4",
    ]


def test_table_per_size_defaults_to_structural_k(capsys):
    code, out, _ = run(["table", "pk", "--h", "2", "--n-max", "6"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "\tn=0\t1\t2\t3\t4\t5\t6"
    assert lines[1].startswith("k=0")
    assert len(lines) == 4  # k = 0, 1, 2


def test_table_pk_gap_zero_is_pascal(capsys):
    code, out, _ = run(["table", "pk", "--h", "0", "--n-max", "4"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "\tn=0\t1\t2\t3\t4",
        "k=0\t1\t1\t1\t1\t1",
        "1\t0\t1\t2\t3\t4",
        "2\t0\t0\t1\t3\t6",
        "3\t0\t0\t0\t1\t4",
        "4\t0\t0\t0\t0\t1",
    ]


def test_table_csv_and_json(capsys):
    code, out, _ = run(
        ["table", "L", "--h", "2:2", "--n-max", "4", "--format", "csv"], capsys)
    assert code == 0
    assert out == ",n=1,2,3,4\nh=2,3,1,1,4\n"
    code, out, _ = run(
        ["table", "L", "--h", "2", "--n-max", "4", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["row"] == "h" and payload["col"] == "n"
    assert payload["values"] == [[3, 1, 1, 4]]


def test_table_paper_layout_edge_table_fills_zeros(capsys):
    code, out, _ = run(["table", "M", "--paper-layout"], capsys)
    assert code == 0
    row5 = out.splitlines()[6].split("\t")
    assert row5[0] == "5"
    # n = 1..5 print as 0 in the published layout even though the library
    # value there is n
    assert row5[1:7] == ["0", "0", "0", "0", "0", "0"]
    code, out, _ = run(["table", "M", "--h", "5:5", "--n-max", "5"], capsys)
    assert out == "\tn=0\t1\t2\t3\t4\t5\nh=5\t0\t1\t2\t3\t4\t5\n"


# argv, and the exact stderr message it gives.  The rules are checked in a
# fixed order; where an argv breaks two of them, the first in that order wins.
TABLE_USAGE_ERRORS = [
    (["table", "pk", "--paper-layout"], "table pk needs --h"),
    (["table", "pk", "--h", "5", "--paper-layout"],  # no published table for h=5
     "--paper-layout for pk exists only for --h in [1, 2, 3]"),
    (["table", "pk", "--h", "1:3"], "table pk needs a single --h, not a range"),
    (["table", "p", "--paper-layout", "--n-max", "9"],
     "--paper-layout fixes the extents; drop --n-max/--k-max"),
    (["table", "p", "--paper-layout", "--h", "2"], "--paper-layout fixes the h range; drop --h"),
    (["table", "p", "--k-max", "4"], "table p has no k axis"),
    (["table", "F", "--h", "3:1"], "bad h range '3:1'"),
    # F starts at n=1
    (["table", "F", "--h", "1", "--n-max", "0"], "empty column range: n runs 1..0"),
    (["table", "pk", "--h", "0:2", "--paper-layout"],
     "--paper-layout for pk exists only for --h in [1, 2, 3]"),
    (["table", "p", "--paper-layout", "--h", "2", "--k-max", "1"],
     "--paper-layout fixes the extents; drop --n-max/--k-max"),
    (["table", "pk", "--h", "1:3", "--paper-layout", "--n-max", "3"],
     "--paper-layout fixes the extents; drop --n-max/--k-max"),
    (["table", "ck", "--k-max", "1", "--paper-layout"],
     "--paper-layout fixes the extents; drop --n-max/--k-max"),
    (["table", "ck", "--n-max", "3"], "table ck needs --h"),
    (["table", "p", "--h", "3:1", "--k-max", "1"], "table p has no k axis"),
    (["table", "ck", "--h", "0", "--paper-layout"],
     "--paper-layout for ck exists only for --h in [1, 2, 3]"),
    (["table", "pk", "--h", "1:3", "--n-max", "-1"], "table pk needs a single --h, not a range"),
    (["table", "pk", "--h", "1", "--n-max", "-1", "--k-max", "-1"],
     "empty column range: n runs 0..-1"),
    (["table", "p", "--h", "1", "--n-max", "-1"], "empty column range: n runs 0..-1"),
]


@pytest.mark.parametrize("argv,message", TABLE_USAGE_ERRORS,
                         ids=[f"argv{i}" for i in range(len(TABLE_USAGE_ERRORS))])
def test_table_usage_errors(argv, message, capsys):
    assert run(argv, capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("text", ["1:", ":3", "0x1"])
def test_table_rejects_malformed_h_range(text, capsys):
    # Only INT or INT:INT; "1:" used to read as --h 1.
    assert run(["table", "p", "--h", text, "--n-max", "3"], capsys) == (
        2, "", f"error: bad h range '{text}'\n")


@pytest.mark.parametrize("which", ["pk", "ck"])
@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_table_empty_k_range_is_usage_error(which, fmt, capsys):
    code, out, err = run(["table", which, "--h", "2", "--k-max", "-1", "--format", fmt], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: empty row range: k runs 0..-1\n"


def test_table_unknown_kind_exits_2(capsys):
    code, out, err = run(["table", "X"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: argument which: invalid choice: 'X' (choose from 'pk',")
    assert err.count("\n") == 1


def test_table_out_file(tmp_path, capsys):
    target = tmp_path / "t.tsv"
    code, out, _ = run(["table", "F", "--h", "1", "--n-max", "3", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.read_text() == "\tn=1\t2\t3\nh=1\t1\t1\t2\n"


def test_output_written_in_slices_is_whole(tmp_path, capsys, monkeypatch):
    # Output is written a slice at a time; slices of 7 characters must still
    # give the text that one write gives, to the file and to stdout.
    argv = ["cube", "cycle", "7", "1", "--format", "json"]
    code, whole, _ = run(argv, capsys)
    monkeypatch.setattr(cli.cube, "_CHUNK_CHARS", 7)
    target = tmp_path / "c.json"
    assert run(argv + ["--out", str(target)], capsys)[:2] == (0, "")
    assert target.read_text() == whole
    assert run(argv, capsys)[1] == whole
    assert code == 0 and len(whole) > 7


STREAMED = {
    "table-json": ["table", "pk", "--h", "1", "--n-max", "390", "--format", "json"],
    "table-k-rows": ["table", "pk", "--h", "1", "--n-max", "1", "--k-max", "200000"],
    "table-h-rows-json": ["table", "p", "--h", "0:200000", "--n-max", "0", "--format", "json"],
    "seq-ext": ["seq", "F-ext", "--h", "400000", "--n-max", "1"],
    "graph": ["graph", "path", "200000", "1"],
}


@pytest.mark.parametrize("argv", STREAMED.values(), ids=STREAMED)
def test_streamed_output_peaks_below_a_quarter_of_its_size(argv, tmp_path):
    # A row or a chunk of lines at a time: the whole text never exists at once.
    target = tmp_path / "out"
    tracemalloc.start()
    try:
        code = cli.main(argv + ["--out", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = target.stat().st_size
    assert code == 0 and size > 1 << 20
    assert peak < size // 4, f"peak {peak} bytes for {size} bytes written"


# A cube export is streamed too, but the command keeps the cube's masks and
# the cover rows of one rank pair, which outweigh a quarter of the text at
# any size that runs in about a second: the masks alone take about 36 bytes
# a vertex, and the edge list of path 15 0 is about 85 bytes a vertex.  What
# streaming removes is the text itself, so beyond the cube that the command
# builds, an export peaks below the size of its output: 0.23 (json), 0.43
# (dot) and 0.71 (edgelist) times it on Python 3.11, where a text made
# whole before it is written peaks at 1.07, 1.20 and 1.35 times it.
CUBE_STREAMED = {
    "json": ["cube", "path", "14", "0", "--format", "json"],
    "dot": ["cube", "path", "14", "0", "--format", "dot"],
    "edgelist": ["cube", "path", "15", "0", "--format", "edgelist"],
}


@pytest.mark.parametrize("argv", CUBE_STREAMED.values(), ids=CUBE_STREAMED)
def test_cube_export_peaks_below_its_size_beyond_the_cube(argv, tmp_path):
    target = tmp_path / "out"
    tracemalloc.start()
    try:
        c = cube.build_cube(GapGraph(argv[1], int(argv[2]), int(argv[3])))
        held = tracemalloc.get_traced_memory()[0]
        del c
        tracemalloc.reset_peak()
        code = cli.main(argv + ["--out", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = target.stat().st_size
    assert code == 0 and size > 1 << 20
    assert peak - held < size, f"{peak - held} bytes beyond the cube for {size} bytes written"


def _fail_second_rank_pair(monkeypatch, error):
    """Make every cover walk raise ``error`` at its second rank pair, after
    the first pair's rows, and write every row as a chunk of its own."""
    real, calls = cube._place_covers, []

    def place(*args):
        calls.append(args)
        if len(calls) % 2 == 0:
            raise error
        return real(*args)

    monkeypatch.setattr(cube, "_place_covers", place)
    monkeypatch.setattr(cube, "_CHUNK_CHARS", 1)


# The end of the rows of rank 0 in each export of path 2 0: the empty set
# below the two singletons.
RANK_0_ROWS = {"dot": "  0 -- 2;\n", "json": "      0,\n      2\n    ]", "edgelist": "0 2\n"}


@pytest.mark.parametrize("error,code,err", [(MemoryError, 3, "error: out of memory\n"),
                                            (ArithmeticError("not subset-closed"), None, "")],
                         ids=["out-of-memory", "not-subset-closed"])
@pytest.mark.parametrize("fmt", list(RANK_0_ROWS))
def test_cube_export_failing_mid_stream(fmt, error, code, err, tmp_path, monkeypatch, capsys):
    argv = ["cube", "path", "2", "0", "--format", fmt]
    whole = run(argv, capsys)[1]
    _fail_second_rank_pair(monkeypatch, error)

    def failing(argv):
        # Out of memory is exit 3; a broken invariant propagates.
        if code is None:
            with pytest.raises(ArithmeticError, match="not subset-closed"):
                cli.main(argv)
            return (None, *capsys.readouterr())
        return run(argv, capsys)

    # On stdout the chunks before the failure are out: the header, any
    # labels and the rows of rank 0, and nothing after them ...
    end = whole.index(RANK_0_ROWS[fmt]) + len(RANK_0_ROWS[fmt])
    assert failing(argv) == (code, whole[:end], err)
    # ... but an existing --out file keeps its text, and nothing is left beside it.
    target = tmp_path / "kept.txt"
    target.write_text("kept\n")
    assert failing(argv + ["--out", str(target)]) == (code, "", err)
    assert target.read_text() == "kept\n"
    assert os.listdir(tmp_path) == ["kept.txt"]


@pytest.mark.parametrize("fmt,first", [
    ("tsv", "\tn=0\t1\t2\nh=0\t1\t2\t4\n"),
    ("json", '{\n  "row": "h",\n  "rows": [\n    0,\n    1\n  ],\n  "col": "n",\n'
             '  "cols": [\n    0,\n    1,\n    2\n  ],\n  "values": [\n    [\n      1,\n'
             '      2,\n      4\n    ]'),
])
def test_failure_after_the_first_row_leaves_out_file_alone(fmt, first, tmp_path, monkeypatch,
                                                            capsys):
    real = verify.path_count_row
    calls = []

    def failing_row(n_max, h, unit):
        calls.append(h)
        if len(calls) == 2:
            raise ValueError("second row failed")
        return real(n_max, h, unit)

    monkeypatch.setattr(verify, "path_count_row", failing_row)
    argv = ["table", "p", "--h", "0:1", "--n-max", "2", "--format", fmt]
    # On stdout the first row is out before the second is computed ...
    assert run(argv, capsys) == (2, first, "error: second row failed\n")
    # ... but an existing --out file keeps its text, and nothing is left beside it.
    target = tmp_path / "kept.txt"
    target.write_text("kept\n")
    calls.clear()
    assert run(argv + ["--out", str(target)], capsys) == (2, "", "error: second row failed\n")
    assert target.read_text() == "kept\n"
    assert os.listdir(tmp_path) == ["kept.txt"]


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_out_to_a_device_is_written_in_place():
    mode = os.stat("/dev/null").st_mode
    assert cli.main(["graph", "path", "3", "1", "--out", "/dev/null"]) == 0
    assert os.stat("/dev/null").st_mode == mode and stat.S_ISCHR(mode)


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
def test_out_file_mode_follows_umask_or_the_file_it_replaces(tmp_path, capsys):
    new, old = tmp_path / "new.txt", tmp_path / "old.txt"
    old.write_text("old\n")
    old.chmod(0o640)
    umask = os.umask(0o022)
    try:
        for target in (new, old):
            assert run(CHEAP_COMMANDS["seq"] + ["--out", str(target)], capsys)[:2] == (0, "")
    finally:
        os.umask(umask)
    assert new.read_text() == old.read_text() == "1\t1\n2\t1\n3\t2\n"
    assert stat.S_IMODE(new.stat().st_mode) == 0o644
    assert stat.S_IMODE(old.stat().st_mode) == 0o640


# Argvs whose JSON output must be exactly json.dumps(..., indent=2) of itself.
JSON_ARGVS = [
    ["table", "pk", "--h", "1", "--paper-layout", "--format", "json"],
    ["table", "M", "--paper-layout", "--format", "json"],
    ["table", "c", "--h", "0:3", "--n-max", "6", "--format", "json"],
    ["table", "F", "--h", "2", "--n-max", "1", "--format", "json"],
    ["seq", "L-ext", "--h", "3", "--n-max", "20", "--format", "json"],
    ["seq", "F", "--h", "2", "--n-max", "0", "--format", "json"],  # "values": []
    # Many chunks each, so the layout is checked across chunk boundaries.
    ["seq", "F", "--h", "1", "--n-max", "3000", "--format", "json"],
    ["table", "p", "--h", "0:20000", "--n-max", "0", "--format", "json"],
]


@pytest.mark.parametrize("argv", JSON_ARGVS)
def test_json_output_is_the_indent_2_layout(argv, capsys):
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# --- cube / graph ------------------------------------------------------------


def test_cube_dot_and_counts_on_stderr(capsys):
    code, out, err = run(["cube", "path", "4", "1", "--format", "dot"], capsys)
    assert code == 0
    assert err.strip() == "8 vertices, 10 edges"
    assert out.startswith("graph cube_path_4_1 {")


def test_cube_json(capsys):
    code, out, err = run(["cube", "cycle", "4", "1", "--format", "json"], capsys)
    assert code == 0
    assert err.strip() == "7 vertices, 8 edges"
    payload = json.loads(out)
    assert sum(len(r) for r in payload["ranks"]) == 7
    assert len(payload["covers"]) == 8


def test_cube_edgelist_trivial(capsys):
    code, out, err = run(["cube", "path", "0", "2", "--format", "edgelist"], capsys)
    assert code == 0
    assert out == ""
    assert err.strip() == "1 vertices, 0 edges"


def test_cube_capacity_exit_3(capsys):
    code, _, err = run(["cube", "path", "30", "1"], capsys)
    assert code == 3
    assert "cap" in err


def test_graph_exports(capsys):
    code, out, _ = run(["graph", "path", "3", "1"], capsys)
    assert code == 0
    assert out == "1 2\n2 3\n"
    code, out, _ = run(["graph", "cycle", "3", "1", "--format", "dot"], capsys)
    assert code == 0
    assert "v1 -- v3;" in out


# --- seq ---------------------------------------------------------------------


def test_seq_fibonacci(capsys):
    code, out, _ = run(["seq", "F", "--h", "1", "--n-max", "6"], capsys)
    assert code == 0
    assert out == "1\t1\n2\t1\n3\t2\n4\t3\n5\t5\n6\t8\n"


def test_seq_extended_lucas_starts_below_zero(capsys):
    code, out, _ = run(["seq", "L-ext", "--h", "2", "--n-max", "5"], capsys)
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert rows[0] == ["-2", "3"]
    assert rows[1] == ["-1", "-2"]
    assert [r[1] for r in rows[3:]] == ["3", "1", "1", "4", "5"]


def test_seq_json(capsys):
    code, out, _ = run(["seq", "F-ext", "--h", "2", "--n-max", "4", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["start"] == -2
    assert payload["values"] == [1, 0, 0, 1, 1, 1, 2]


def test_seq_extended_needs_h_at_least_2(capsys):
    code, _, err = run(["seq", "F-ext", "--h", "1"], capsys)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv,message", [
    (["seq", "F", "--h", "-1", "--n-max", "0"], "h must be nonnegative"),
    (["seq", "L", "--h", "-3", "--n-max", "-5"], "h must be nonnegative"),
    (["seq", "F-ext", "--h", "1", "--n-max", "-3"], "only defined for h >= 2"),
    (["seq", "L-ext", "--h", "0", "--n-max", "-1", "--format", "json"], "only defined for h >= 2"),
])
def test_seq_rejects_bad_h_below_the_first_index(argv, message, capsys):
    # No term is asked for, but the sequence itself does not exist.
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and message in err


def test_seq_below_the_first_index_prints_nothing(capsys):
    assert run(["seq", "F", "--h", "2", "--n-max", "0"], capsys) == (0, "", "")
    assert run(["seq", "L-ext", "--h", "2", "--n-max", "-3"], capsys) == (0, "", "")


# --- verify --------------------------------------------------------------------


def test_verify_summary_exit_0(capsys):
    code, out, _ = run(
        ["verify", "--n-max", "8", "--h-max", "2", "--oracle-n-max", "6"], capsys)
    assert code == 0
    assert "29 identities, 29 passed, 0 failed" in out


def test_verify_json(capsys):
    code, out, _ = run(
        ["verify", "--n-max", "6", "--h-max", "1", "--oracle-n-max", "5",
         "--format", "json"], capsys)
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 29
    assert all(r["status"] == "pass" for r in reports)
    assert all(r["bounds"] == {"n_max": 6, "h_max": 1, "oracle_n_max": 5}
               for r in reports)


@pytest.mark.parametrize("flag", ["--n-max", "--h-max", "--oracle-n-max"])
def test_verify_negative_bound_is_usage_error(flag, capsys):
    argv = ["verify", "--n-max", "3", "--h-max", "1", "--oracle-n-max", "3"]
    argv[argv.index(flag) + 1] = "-1"
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: verify bounds must be nonnegative")
    assert "Traceback" not in err


# --- output that cannot be written ------------------------------------------------

CHEAP_COMMANDS = {
    "table": ["table", "F", "--h", "1", "--n-max", "3"],
    "cube": ["cube", "path", "3", "1"],
    "graph": ["graph", "path", "3", "1"],
    "count": ["count", "path", "10", "1"],
    "seq": ["seq", "F", "--h", "1", "--n-max", "3"],
    "verify": ["verify", "--n-max", "3", "--h-max", "1", "--oracle-n-max", "3"],
}


@pytest.mark.parametrize("command", sorted(CHEAP_COMMANDS))
@pytest.mark.parametrize("where", ["missing-dir", "dir"])
def test_unwritable_out_is_usage_error(command, where, tmp_path, capsys):
    # Exit 2, not 1: for verify, 1 would read as a failed identity.
    target = tmp_path / "missing" / "x" if where == "missing-dir" else tmp_path
    code, out, err = run(CHEAP_COMMANDS[command] + ["--out", str(target)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err


def _python_m_fibcubes(*argv):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as on a plain host
    return [sys.executable, "-m", "fibcubes", *argv], env


@pytest.mark.parametrize("argv,read", [
    (["cube", "path", "16", "0", "--format", "edgelist"], 10),
    (["seq", "F", "--h", "1", "--n-max", "20000"], 10),
    # Closed before the child writes anything: the whole output stays in
    # stdout's buffer, which the interpreter flushes once more at exit.
    (["count", "path", "10", "2"], 0),
])
def test_closed_stdout_pipe_is_usage_error(argv, read):
    cmd, env = _python_m_fibcubes(*argv)
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.read(read)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 2
    assert err == "error: cannot write stdout: Broken pipe\n"


def test_stdout_closed_at_start_is_usage_error():
    cmd, env = _python_m_fibcubes("count", "path", "10", "2")
    out = subprocess.run(["sh", "-c", '"$@" >&-', "sh", *cmd], capture_output=True,
                         text=True, env=env, timeout=60)
    assert (out.returncode, out.stderr) == (2, "error: cannot write stdout: it is closed\n")


# A stderr that cannot be written changes neither the exit code nor stdout.
UNWRITABLE_STDERR_CASES = [
    (["count", "path", "-1", "2"], 2, ""),
    (["cube", "path", "3", "0", "--format", "edgelist"], 0,
     "0 1\n0 2\n0 3\n1 4\n1 5\n2 4\n2 6\n3 5\n3 6\n4 7\n5 7\n6 7\n"),
]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv,code,stdout", UNWRITABLE_STDERR_CASES,
                         ids=["count-usage-error", "cube-edgelist"])
def test_full_stderr_keeps_exit_code(argv, code, stdout):
    cmd, env = _python_m_fibcubes(*argv)
    with open("/dev/full", "w") as full:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=full, text=True,
                             env=env, timeout=60)
    assert (out.returncode, out.stdout) == (code, stdout)


@pytest.mark.parametrize("argv,code,stdout", UNWRITABLE_STDERR_CASES,
                         ids=["count-usage-error", "cube-edgelist"])
def test_stderr_closed_at_start_keeps_exit_code(argv, code, stdout):
    cmd, env = _python_m_fibcubes(*argv)
    out = subprocess.run(["sh", "-c", '"$@" 2>&-', "sh", *cmd], stdout=subprocess.PIPE,
                         text=True, env=env, timeout=60)
    assert (out.returncode, out.stdout) == (code, stdout)


def test_count_at_huge_h_is_quick():
    # The closed route takes one diagonal step here, of one factor; a step of
    # h+1 factors would multiply numbers of billions of digits.
    cmd, env = _python_m_fibcubes("count", "path", "1", "1000000000")
    out = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=30)
    assert (out.returncode, out.stdout, out.stderr) == (0, "2\n", "")


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))


needs_rlimit_as = pytest.mark.skipif(resource is None or not hasattr(resource, "RLIMIT_AS"),
                                     reason="no RLIMIT_AS")


@needs_rlimit_as
def test_recurrence_just_past_huge_h_seeds_runs_in_a_small_address_space():
    # Five terms past the seeds, each reading its t(n-h-1) from the seed
    # function: no window of h+1 terms is filled.
    n, h = 1000000005, 1000000000
    cmd, env = _python_m_fibcubes("count", "path", str(n), str(h), "--route", "recurrence")
    out = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120,
                         preexec_fn=_limit_address_space)
    assert (out.returncode, out.stdout, out.stderr) == (0, f"{path_count(n, h)}\n", "")
    assert out.stdout == "1000000016\n"


@needs_rlimit_as
@pytest.mark.parametrize("argv,expected", [
    (["count", "path-edges", "5", "1000000000", "--route", "conv"], "5\n"),
    (["count", "cycle-edges", "1000000005", "1000000000", "--route", "conv"], "1000000005\n"),
], ids=["path-edges", "cycle-edges"])
def test_conv_at_huge_h_and_a_small_index_is_quick(argv, expected):
    # Convolution index 5 at h = 10^9: five streamed terms, in a small
    # address space; the jump's cost rule declines before any list of h.
    cmd, env = _python_m_fibcubes(*argv)
    out = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=30,
                         preexec_fn=_limit_address_space)
    assert (out.returncode, out.stdout, out.stderr) == (0, expected, "")


@needs_rlimit_as
@pytest.mark.parametrize("argv", [
    ["count", "path-edges", "1000000005", "1000000000", "--route", "conv"],
    ["count", "path", "40", "0", "--route", "oracle", "--cap", "40"],
    ["cube", "path", "30", "0", "--cap", "30"],
], ids=["conv", "oracle", "cube"])
def test_out_of_memory_is_capacity_error(argv):
    # Each command outgrows a 300 MB address space within seconds.
    cmd, env = _python_m_fibcubes(*argv)
    out = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120,
                         preexec_fn=_limit_address_space)
    assert (out.returncode, out.stdout, out.stderr) == (3, "", "error: out of memory\n")


@needs_rlimit_as
@pytest.mark.parametrize("which,cell", [("pk", counting.path_count_k),
                                        ("ck", counting.cycle_count_k)], ids=["pk", "ck"])
def test_huge_h_size_table_runs_in_a_small_address_space(which, cell):
    # Every delay of h or more columns is clipped to the row's 7 columns; a
    # row of h zeros would outgrow the address space.
    h = 10**9
    cmd, env = _python_m_fibcubes("table", which, "--h", str(h), "--n-max", "6",
                                  "--k-max", "3")
    out = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120,
                         preexec_fn=_limit_address_space)
    grid = ["\tn=0\t1\t2\t3\t4\t5\t6"]
    grid += ["\t".join([f"k={k}" if k == 0 else str(k), *(str(cell(n, h, k)) for n in range(7))])
             for k in range(4)]
    assert (out.returncode, out.stdout, out.stderr) == (0, "\n".join(grid) + "\n", "")


@needs_rlimit_as
def test_enumeration_out_of_memory_frees_its_partial_list():
    # The error is still held, and its traceback with every frame it passed,
    # yet the partial list is gone: unwinding through those frames with the
    # memory still taken could lose the error, which then left a command as
    # a SystemError traceback instead of exit 3.
    code = ("from fibcubes.enumeration import iter_masks; from fibcubes.graphs import GapGraph\n"
            "try:\n"
            "    iter_masks(GapGraph('path', 30, 0), cap=30)\n"
            "except MemoryError as exc:\n"
            "    print(len(bytearray(200 << 20)) >> 20, exc.__traceback__ is not None)\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120,
                         preexec_fn=_limit_address_space)
    assert (out.returncode, out.stdout, out.stderr) == (0, "200 True\n", "")


@needs_rlimit_as
def test_cube_build_out_of_memory_frees_its_partial_lists():
    # As above, for the mask list that build_cube collects and the two ranks
    # that its generator holds.
    code = ("from fibcubes.cube import build_cube; from fibcubes.graphs import GapGraph\n"
            "try:\n"
            "    build_cube(GapGraph('path', 30, 0), cap=30)\n"
            "except MemoryError as exc:\n"
            "    print(len(bytearray(200 << 20)) >> 20, exc.__traceback__ is not None)\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120,
                         preexec_fn=_limit_address_space)
    assert (out.returncode, out.stdout, out.stderr) == (0, "200 True\n", "")


@needs_rlimit_as
def test_cube_export_out_of_memory_frees_its_partial_text():
    # path 22 0 builds in about 195 MB of address space, and its cover walk
    # outgrows 300 MB at the middle ranks, after about 59 MB of edge list
    # has streamed out.  The text is never held, and the rows and labels of
    # the walk are gone before the error unwinds: 40-60 MB more fits here
    # with the error and its traceback still held, where keeping them left
    # no room for a line of /proc/self/status.
    code = ("from fibcubes.cube import build_cube; from fibcubes.graphs import GapGraph\n"
            "c = build_cube(GapGraph('path', 22, 0))\n"
            "written = 0\n"
            "try:\n"
            "    for chunk in c.to_edgelist_text():\n"
            "        written += len(chunk)\n"
            "except MemoryError as exc:\n"
            "    print(written > 50 << 20, len(bytearray(20 << 20)) >> 20,\n"
            "          exc.__traceback__ is not None)\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120,
                         preexec_fn=_limit_address_space)
    assert (out.returncode, out.stdout, out.stderr) == (0, "True 20 True\n", "")


@needs_rlimit_as
def test_cube_export_out_of_memory_leaves_the_file_alone(tmp_path):
    # As above, the edge list runs out of memory after about 59 MB has been
    # written beside the target: the command exits 3, the target keeps its
    # text, and the partial file is gone.
    target = tmp_path / "cube.txt"
    target.write_text("keep\n", encoding="utf-8")
    cmd, env = _python_m_fibcubes("cube", "path", "22", "0", "--format", "edgelist",
                                  "--out", str(target))
    out = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120,
                         preexec_fn=_limit_address_space)
    assert (out.returncode, out.stdout, out.stderr) == (3, "", "error: out of memory\n")
    assert target.read_text(encoding="utf-8") == "keep\n"
    assert os.listdir(tmp_path) == ["cube.txt"]


@needs_rlimit_as
def test_mask_of_huge_length_is_checked_in_a_small_address_space():
    # The range check reads the bits' length: a bound of 1 << n would take
    # n / 8 bytes, 1.25 GB here.
    code = ("from fibcubes.enumeration import VertexMask; "
            "m = VertexMask(10**10, 5); print(m.vertices(), m.bits.bit_count())")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60,
                         preexec_fn=_limit_address_space)
    assert (out.returncode, out.stdout, out.stderr) == (0, "(1, 3) 2\n", "")


# --- integers past the interpreter's int-to-str digit limit -------------------

needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="interpreter has no digit limit")


@contextlib.contextmanager
def digit_limit(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@needs_digit_limit
def test_count_prints_values_past_the_digit_limit(capsys):
    with digit_limit(4300):
        code, out, err = run(["count", "path", "21000", "1"], capsys)
        assert sys.get_int_max_str_digits() == 4300  # restored for the caller
    assert code == 0 and err == ""
    with digit_limit(0):
        expected = str(path_count_rec(21000, 1))
    assert len(expected) > 4300
    assert out == expected + "\n"


@needs_digit_limit
def test_seq_and_table_print_values_past_the_digit_limit(monkeypatch, capsys):
    big = 7 * 10 ** 5000 + 3
    monkeypatch.setattr(counting, "_fib_base", lambda h, n: big + n)
    monkeypatch.setattr(verify, "path_count_row",
                        lambda n_max, h, unit: [-big - n for n in range(n_max + 1)])
    seq_argv = ["seq", "F", "--h", "1", "--n-max", "2"]
    table_argv = ["table", "p", "--h", "0", "--n-max", "1"]
    with digit_limit(4300):
        seq = run(seq_argv, capsys)
        table = run(table_argv + ["--format", "csv"], capsys)
        seq_json = run(seq_argv + ["--format", "json"], capsys)
        table_json = run(table_argv + ["--format", "json"], capsys)
    with digit_limit(0):
        assert seq == (0, f"1\t{big + 1}\n2\t{big + 2}\n", "")
        assert table == (0, f",n=0,1\nh=0,{-big},{-big - 1}\n", "")
        assert seq_json[0] == table_json[0] == 0
        assert json.loads(seq_json[1])["values"] == [big + 1, big + 2]
        assert json.loads(table_json[1])["values"] == [[-big, -big - 1]]


@needs_digit_limit
def test_argv_integers_past_the_digit_limit_parse(capsys):
    # Arguments are parsed with int(text) and echoed in error messages, so
    # main lifts the limit for these even where no output value is large.
    big = "1" + "0" * 5000
    with digit_limit(4300):
        seq = run(["seq", "F", "--h", big, "--n-max", "3"], capsys)
        count = run(["count", "path", big, "1", "--route", "oracle"], capsys)
    assert seq == (0, "1\t1\n2\t1\n3\t1\n", "")
    assert count == (3, "", f"error: refusing to enumerate n={big} (cap 24)\n")


def test_package_runs_as_module():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-m", "fibcubes", "count", "path", "10", "2"],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (0, "60\n", "")


def test_cli_import_leaves_array_unloaded():
    # It loads on the first cube build, so it adds nothing to other commands' start-up.
    code = "import sys, fibcubes.cli; print('array' in sys.modules)"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    assert out.stdout == "False\n"
