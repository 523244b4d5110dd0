"""Command-line behavior: output formats, routes, and the exit-code contract
(0 ok, 1 verification failure, 2 usage, 3 capacity)."""

import contextlib
import json
import os
import subprocess
import sys

import pytest

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import fibcubes.cli as cli
from fibcubes import counting
from fibcubes.counting import path_count_rec


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
    for route in ("closed", "conv", "oracle"):
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
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "triangle", "5", "1"])
    assert exc.value.code == 2


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


@pytest.mark.parametrize("argv", [
    ["table", "pk", "--paper-layout"],            # pk needs --h
    ["table", "pk", "--h", "5", "--paper-layout"],  # no published table for h=5
    ["table", "pk", "--h", "1:3"],                # per-size tables need one h
    ["table", "p", "--paper-layout", "--n-max", "9"],
    ["table", "p", "--paper-layout", "--h", "2"],
    ["table", "p", "--k-max", "4"],               # no k axis on sweep tables
    ["table", "F", "--h", "3:1"],
    ["table", "F", "--h", "1", "--n-max", "0"],  # F starts at n=1
])
def test_table_usage_errors(argv, capsys):
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("which", ["pk", "ck"])
@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_table_empty_k_range_is_usage_error(which, fmt, capsys):
    code, out, err = run(["table", which, "--h", "2", "--k-max", "-1", "--format", fmt], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: empty row range: k runs 0..-1\n"


def test_table_unknown_kind_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "X"])
    assert exc.value.code == 2


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
    monkeypatch.setattr(cli, "_WRITE_SLICE", 7)
    target = tmp_path / "c.json"
    assert run(argv + ["--out", str(target)], capsys)[:2] == (0, "")
    assert target.read_text() == whole
    assert run(argv, capsys)[1] == whole
    assert code == 0 and len(whole) > 7


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
    assert "27 identities, 27 passed, 0 failed" in out


def test_verify_json(capsys):
    code, out, _ = run(
        ["verify", "--n-max", "6", "--h-max", "1", "--oracle-n-max", "5",
         "--format", "json"], capsys)
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 27
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


@pytest.mark.skipif(resource is None or not hasattr(resource, "RLIMIT_AS"),
                    reason="no RLIMIT_AS")
@pytest.mark.parametrize("argv", [
    ["count", "path", "1000000005", "1000000000", "--route", "recurrence"],
    ["count", "path-edges", "1000000005", "1000000000", "--route", "conv"],
    ["count", "path", "40", "0", "--route", "oracle", "--cap", "40"],
    ["cube", "path", "30", "0", "--cap", "30"],
], ids=["recurrence", "conv", "oracle", "cube"])
def test_out_of_memory_is_capacity_error(argv):
    # Each command outgrows a 300 MB address space within seconds.
    cmd, env = _python_m_fibcubes(*argv)
    out = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120,
                         preexec_fn=_limit_address_space)
    assert (out.returncode, out.stdout, out.stderr) == (3, "", "error: out of memory\n")


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
    monkeypatch.setattr(cli, "path_count", lambda n, h: -big - n)
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
