"""Command-line interface.

Subcommands:

* ``table``  -- render count/sequence tables (tsv, csv, json)
* ``cube``   -- export an inclusion diagram (dot, json, edgelist)
* ``graph``  -- export a path/cycle power (edgelist, dot)
* ``count``  -- print one exact count, selectable computation route
* ``seq``    -- dump a delayed Fibonacci/Lucas sequence
* ``verify`` -- run the identity cross-check suite

Exit codes: 0 success, 1 verification failure, 2 usage error (a bad
argument, a negative n, h or k, or output that cannot be written), 3 capacity
error (beyond the enumeration cap, or out of memory).  All numeric output is
full decimal, never scientific notation.

Commands raise on bad input; ``_run`` alone turns an exception into an
``error: ...`` line on stderr and an exit code.  Any other exception, such as
an ``ArithmeticError`` from a broken internal invariant, propagates.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import counting, cube, enumeration, verify
from .counting import (
    EXTENDED_FIBONACCI,
    EXTENDED_LUCAS,
    FIBONACCI,
    LUCAS,
    HSequence,
    cycle_count,
    cycle_count_k,
    cycle_count_rec,
    cycle_edges,
    cycle_edges_conv,
    max_subset_size,
    path_count,
    path_count_k,
    path_count_rec,
    path_edges,
    path_edges_conv,
)
from .enumeration import DEFAULT_CAP, CapacityError
from .graphs import CYCLE, PATH, GapGraph, edgelist_text, graph_dot

__all__ = ["main", "script", "PAPER_TABLE_LAYOUTS"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

# Extents of the published reference tables that --paper-layout reproduces.
# Per-size tables exist for h = 1, 2, 3 and map h -> (n_max, k_max); the
# h-by-n sweep tables map to (first n, last n) with h always 0..10.
PAPER_TABLE_LAYOUTS = {
    "pk": {1: (15, 8), 2: (16, 6), 3: (17, 5)},
    "ck": {1: (16, 8), 2: (17, 5), 3: (18, 4)},
    "p": (0, 13),
    "F": (1, 15),
    "H": (0, 13),
    "c": (0, 16),
    "L": (1, 15),
    "M": (0, 15),
}
PAPER_H_RANGE = (0, 10)

_PER_SIZE_TABLES = ("pk", "ck")
_WRITE_SLICE = 1 << 20  # characters per write


def _emit(text: str, out: str | None) -> None:
    # A slice at a time: writing one large str encodes all of it into a
    # second, byte copy first.  --out opens only now, after the command's
    # work, so a command that fails leaves an existing file untouched.
    to_stdout = out is None or out == "-"
    if to_stdout and sys.stdout is None:  # the interpreter started with fd 1 closed
        raise ValueError("cannot write stdout: it is closed")
    try:
        with contextlib.nullcontext(sys.stdout) if to_stdout else open(out, "w", encoding="utf-8") as fh:
            for i in range(0, len(text), _WRITE_SLICE):
                fh.write(text[i:i + _WRITE_SLICE])
            fh.flush()
    except OSError as exc:
        if to_stdout:
            _discard(sys.stdout)
        raise ValueError(f"cannot write {'stdout' if to_stdout else out}: "
                         f"{exc.strerror or exc}") from None


def _note(line: str) -> None:
    # Diagnostics never change the exit code: a stderr that is closed or
    # cannot be written (a full device) is skipped.
    if sys.stderr is None:  # the interpreter started with fd 2 closed
        return
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        _discard(sys.stderr)


def _discard(stream) -> None:
    # Send what a failed standard stream still buffers nowhere, so the
    # interpreter's own flush at exit has nothing left to fail on.
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, stream.fileno())
    os.close(null)


def _parse_h_range(text: str) -> tuple[int, int]:
    """Parse "2" or "0:10" into an inclusive (lo, hi) range."""
    lo, _, hi = text.partition(":")
    a = int(lo)
    b = int(hi) if hi else a
    if a < 0 or b < a:
        raise ValueError(f"bad h range {text!r}")
    return a, b


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _render_grid(fmt: str, row_tag: str, rows: list, cols: list, row_values) -> str:
    """One line per row against the n columns ``cols``; ``row_values(r)``
    gives row ``r``'s values, one int per column."""
    values = [row_values(r) for r in rows]
    if fmt == "json":
        payload = {"row": row_tag, "rows": rows, "col": "n", "cols": cols, "values": values}
        return json.dumps(payload, indent=2) + "\n"
    sep = "\t" if fmt == "tsv" else ","
    labels = [f"{row_tag}={rows[0]}", *map(str, rows[1:])]
    header = sep.join(["", f"n={cols[0]}", *map(str, cols[1:])]) + "\n"
    return header + "".join(sep.join([label, *map(str, row)]) + "\n"
                            for label, row in zip(labels, values))


def _cmd_table(args) -> int:
    which = args.which
    per_size = which in _PER_SIZE_TABLES
    if args.paper_layout:
        if args.n_max is not None or args.k_max is not None:
            raise ValueError("--paper-layout fixes the extents; drop --n-max/--k-max")
        if not per_size and args.h is not None:
            raise ValueError("--paper-layout fixes the h range; drop --h")
    elif not per_size and args.k_max is not None:
        raise ValueError(f"table {which} has no k axis")
    if per_size and args.h is None:
        raise ValueError(f"table {which} needs --h")
    h_lo, h_hi = PAPER_H_RANGE if args.h is None else _parse_h_range(args.h)

    if per_size:
        h = h_lo
        n_min = 0
        if args.paper_layout:
            layouts = PAPER_TABLE_LAYOUTS[which]
            if h_lo != h_hi or h not in layouts:
                raise ValueError(
                    f"--paper-layout for {which} exists only for --h in {sorted(layouts)}")
            n_max, k_max = layouts[h]
        else:
            if h_lo != h_hi:
                raise ValueError(f"table {which} needs a single --h, not a range")
            n_max = args.n_max if args.n_max is not None else 15
            k_max = args.k_max if args.k_max is not None else max_subset_size(n_max, h)
    elif args.paper_layout:
        n_min, n_max = PAPER_TABLE_LAYOUTS[which]
    else:
        n_min = 1 if which in ("F", "L") else 0
        n_max = args.n_max if args.n_max is not None else 15

    cols = list(range(n_min, n_max + 1))
    if not cols:
        raise ValueError(f"empty column range: n runs {n_min}..{n_max}")
    if per_size:
        rows = list(range(k_max + 1))
        if not rows:
            raise ValueError(f"empty row range: k runs 0..{k_max}")
        count_k = path_count_k if which == "pk" else cycle_count_k
        text = _render_grid(args.format, "k", rows, cols,
                            lambda k: [count_k(n, h, k) for n in cols])
    else:
        paper = args.paper_layout
        row_values = {
            "p": lambda hh: [path_count(n, hh) for n in cols],
            "c": lambda hh: [cycle_count(n, hh) for n in cols],
            # F and L columns run 1..n_max: one prefix of the sequence.
            "F": lambda hh: HSequence(FIBONACCI, hh).prefix(n_max),
            "L": lambda hh: HSequence(LUCAS, hh).prefix(n_max),
            "H": lambda hh: [path_edges(n, hh) for n in cols],
            # The published edge table prints 0 in the n <= h corner it makes
            # no claim about; the library value there is cycle_edges itself.
            "M": lambda hh: [0 if paper and n <= hh else cycle_edges(n, hh) for n in cols],
        }
        text = _render_grid(args.format, "h", list(range(h_lo, h_hi + 1)), cols,
                            row_values[which])

    _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# cube / graph
# ---------------------------------------------------------------------------

def _cmd_cube(args) -> int:
    c = cube.build_cube(GapGraph(args.kind, args.n, args.h), cap=args.cap)
    if args.format == "dot":
        text = c.to_dot()
    elif args.format == "json":
        text = c.to_json()
    else:
        text = c.to_edgelist_text()
    _emit(text, args.out)
    _note(f"{c.vertex_count} vertices, {c.cover_count} edges")
    return EXIT_OK


def _cmd_graph(args) -> int:
    g = GapGraph(args.kind, args.n, args.h)
    text = edgelist_text(g) if args.format == "edgelist" else graph_dot(g)
    _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def _oracle_set_count(kind: str, a) -> int:
    masks = enumeration.iter_masks(GapGraph(kind, a.n, a.h), cap=a.cap)
    if a.k is None:
        return len(masks)
    return sum(1 for m in masks if m.bit_count() == a.k)


# (quantity, route) -> value(args); a quantity ending in "-k" is the count of
# one subset size k.  Entries look functions up by module-level name when
# called, so names rebound after import (as a call tracer does) take effect.
_COUNT_ROUTES = {
    ("path", "closed"): lambda a: path_count(a.n, a.h),
    ("path", "recurrence"): lambda a: path_count_rec(a.n, a.h),
    ("path", "oracle"): lambda a: _oracle_set_count(PATH, a),
    ("path-k", "closed"): lambda a: path_count_k(a.n, a.h, a.k),
    ("path-k", "oracle"): lambda a: _oracle_set_count(PATH, a),
    ("cycle", "closed"): lambda a: cycle_count(a.n, a.h),
    ("cycle", "recurrence"): lambda a: cycle_count_rec(a.n, a.h),
    ("cycle", "oracle"): lambda a: _oracle_set_count(CYCLE, a),
    ("cycle-k", "closed"): lambda a: cycle_count_k(a.n, a.h, a.k),
    ("cycle-k", "oracle"): lambda a: _oracle_set_count(CYCLE, a),
    ("path-edges", "closed"): lambda a: path_edges(a.n, a.h),
    ("path-edges", "conv"): lambda a: path_edges_conv(a.n, a.h),
    ("path-edges", "oracle"): lambda a: cube.cover_count(GapGraph(PATH, a.n, a.h), cap=a.cap),
    ("cycle-edges", "closed"): lambda a: cycle_edges(a.n, a.h),
    ("cycle-edges", "conv"): lambda a: cycle_edges_conv(a.n, a.h),
    ("cycle-edges", "oracle"): lambda a: cube.cover_count(GapGraph(CYCLE, a.n, a.h), cap=a.cap),
}


def _cmd_count(args) -> int:
    # Checked here, not left to the routes: the per-size forms follow the
    # binomial convention, so path_count_k(-1, 2, 0) is 1 and a negative k
    # counts 0 sets.
    if min(args.n, args.h, 0 if args.k is None else args.k) < 0:
        raise ValueError("n, h and k must be nonnegative")
    quantity = args.quantity if args.k is None else f"{args.quantity}-k"
    fn = _COUNT_ROUTES.get((quantity, args.route))
    if fn is None:
        sized = "" if args.k is None else " of one subset size"
        raise ValueError(f"the {args.route} route does not count {args.quantity}{sized}")
    _emit(f"{fn(args)}\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# seq
# ---------------------------------------------------------------------------

_SEQ_KINDS = {"F": FIBONACCI, "L": LUCAS, "F-ext": EXTENDED_FIBONACCI,
              "L-ext": EXTENDED_LUCAS}


def _cmd_seq(args) -> int:
    seq = HSequence(_SEQ_KINDS[args.kind], args.h)
    start = seq.min_index
    values = seq.prefix(args.n_max)
    if args.format == "json":
        payload = {"kind": args.kind, "h": args.h, "start": start, "values": values}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit("".join(f"{n}\t{v}\n" for n, v in enumerate(values, start)), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    reports = verify.run_suite(args.n_max, args.h_max, args.oracle_n_max)
    if args.format == "json":
        text = verify.reports_to_json(reports)
    else:
        text = verify.format_summary(reports)
    _emit(text, args.out)
    failed = any(r.failed for r in reports)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibcubes",
        description="Exact counts, diagrams, and identity checks for "
                    "independent sets of path and cycle powers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="render a count/sequence table")
    t.add_argument("which", choices=["pk", "ck", "p", "c", "F", "L", "H", "M"])
    t.add_argument("--h", help="gap parameter, single value or lo:hi range")
    t.add_argument("--n-max", type=int, default=None)
    t.add_argument("--k-max", type=int, default=None)
    t.add_argument("--paper-layout", action="store_true",
                   help="reproduce the published table extents cell-for-cell")
    t.add_argument("--format", default="tsv", choices=["tsv", "csv", "json"])
    t.add_argument("--out", default=None)
    t.set_defaults(func=_cmd_table)

    c = sub.add_parser("cube", help="export an inclusion diagram")
    c.add_argument("kind", choices=[PATH, CYCLE])
    c.add_argument("n", type=int)
    c.add_argument("h", type=int)
    c.add_argument("--format", default="dot", choices=["dot", "json", "edgelist"])
    c.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help=f"enumeration size cap (default {DEFAULT_CAP})")
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_cube)

    g = sub.add_parser("graph", help="export a path/cycle power")
    g.add_argument("kind", choices=[PATH, CYCLE])
    g.add_argument("n", type=int)
    g.add_argument("h", type=int)
    g.add_argument("--format", default="edgelist", choices=["edgelist", "dot"])
    g.add_argument("--out", default=None)
    g.set_defaults(func=_cmd_graph)

    k = sub.add_parser("count", help="print one exact count")
    k.add_argument("quantity",
                   choices=["path", "cycle", "path-edges", "cycle-edges"],
                   help="independent-set totals, or inclusion-diagram edges")
    k.add_argument("n", type=int)
    k.add_argument("h", type=int)
    k.add_argument("k", type=int, nargs="?", default=None,
                   help="subset size (set counts only)")
    k.add_argument("--route", default="closed",
                   choices=["closed", "recurrence", "conv", "oracle"])
    k.add_argument("--cap", type=int, default=DEFAULT_CAP)
    k.add_argument("--out", default=None)
    k.set_defaults(func=_cmd_count)

    s = sub.add_parser("seq", help="dump a delayed Fibonacci/Lucas sequence")
    s.add_argument("kind", choices=["F", "L", "F-ext", "L-ext"])
    s.add_argument("--h", type=int, required=True)
    s.add_argument("--n-max", type=int, default=15)
    s.add_argument("--format", default="tsv", choices=["tsv", "json"])
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_seq)

    v = sub.add_parser("verify", help="run the identity cross-check suite")
    v.add_argument("--n-max", type=int, default=40)
    v.add_argument("--h-max", type=int, default=10)
    v.add_argument("--oracle-n-max", type=int, default=16)
    v.add_argument("--format", default="summary", choices=["summary", "json"])
    v.add_argument("--out", default=None)
    v.set_defaults(func=_cmd_verify)

    return parser


def _run(args) -> int:
    """Run one command; the only place that turns errors into exit codes."""
    try:
        return args.func(args)
    except (CapacityError, ValueError) as exc:
        _note(f"error: {exc}")
        return EXIT_CAPACITY if isinstance(exc, CapacityError) else EXIT_USAGE
    except MemoryError:
        _note("error: out of memory")
        return EXIT_CAPACITY


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if not hasattr(sys, "set_int_max_str_digits"):  # an interpreter with no digit limit
        return _run(args)
    # Counts outgrow the default 4,300-digit int-to-str limit; lift it for the
    # command, in every output format, and restore it for in-process callers.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(args)
    finally:
        sys.set_int_max_str_digits(limit)


def script() -> None:
    sys.exit(main())


if __name__ == "__main__":
    script()
