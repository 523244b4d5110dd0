"""Command-line interface: ``table``, ``cube``, ``graph``, ``count``, ``seq``
and ``verify``.

``_COMMANDS`` declares each command once: its handler, its one-line help and
its arguments.  ``_parse`` reads argv against it and ``--help`` renders it.

Every count comes from ``verify._routes()``, one table keyed by (quantity,
method): ``count`` takes its dispatch and its error text from it and its
``--route`` choices from ``verify._METHODS``, and ``_TABLE_ROUTES`` names
the entry whose row each table but ``F`` and ``L`` prints.  To add a route,
add its entry there and an identity that checks it; this module needs no
change.

Exit codes: 0 success, 1 verification failure, 2 usage error (a malformed
argv, a negative n, h, k or cap, or output that cannot be written), 3 capacity
error (beyond the enumeration cap, or out of memory).  All numeric output is
full decimal, never scientific notation.

``seq`` and the h-by-n tables (``p``, ``c``, ``F``, ``L``, ``H``, ``M``)
decide once, before any work, whether their values are born as ints or as
exact ``decimal.Decimal``: Decimal when the largest value is predicted to
reach ``_DECIMAL_DIGITS`` digits, since a Decimal prints in time linear in
its digits and an int in quadratic time.  Decimal values are made and
printed inside one context that raises on any rounding, active until the
output is written; ``decimal`` is imported only then.  ``count`` and the
per-size tables ``pk`` and ``ck`` always print ints.

Parsing and the commands raise on bad input; ``_run``, which does both, alone
turns an exception into an ``error: ...`` line on stderr and an exit code.
Any other exception, such as an ``ArithmeticError`` from a broken internal
invariant, propagates.

Output is streamed: ``table`` computes and writes one row at a time, ``seq``
and ``graph`` a chunk of lines at a time, ``cube`` a chunk of labels or
cover rows at a time from its walk over the ranks, and ``_emit`` writes each
chunk as it arrives, so memory stays flat in the size of the output.  Only
``verify`` builds its text first and writes it the same way.  One size,
``cube._CHUNK_CHARS``, sets both the chunks of ``cube._chunks``, which
concatenate to the whole text, and the slices ``_emit`` writes.  Every usage
check runs before the first byte is written.  ``--out`` to a regular file
writes beside it and renames over it once the output is whole, so a command
that fails midway leaves an existing file untouched.  To stdout, a command
that fails midway leaves the text it wrote: a ``cube`` export that runs out
of memory, or whose family is not subset-closed, in its cover walk leaves
the chunks before it.  JSON is the
``json.dumps(..., indent=2)`` layout, written directly; outside ``verify``
its strings are fixed ASCII names and bit strings, quoted as they are.  Only
``verify``'s JSON imports ``json``, and only Decimal values ``decimal``, so
neither adds to the start-up of a command that does not use it.
"""

from __future__ import annotations

import contextlib
import math
import os
import stat
import sys
from itertools import chain, count, islice
from types import SimpleNamespace

from . import cube, verify
from .counting import (EXTENDED_FIBONACCI, EXTENDED_LUCAS, FIBONACCI, LUCAS, HSequence,
                       max_subset_size)
from .cube import _chunks, _json_array
from .enumeration import DEFAULT_CAP, CapacityError
from .graphs import CYCLE, PATH, GapGraph, dot_lines, edgelist_lines

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

# table kind -> the verify._routes() entry whose row it prints (F, L: sequences)
_TABLE_ROUTES = {"pk": ("path-k", "recurrence"), "ck": ("cycle-k", "recurrence"),
                 "p": ("path", "recurrence"), "c": ("cycle", "recurrence"),
                 "H": ("path-edges", "conv"), "M": ("cycle-edges", "recurrence")}
_TABLE_N_MAX = 15  # last column n unless --n-max or --paper-layout sets it

# Sequence-backed output whose largest value is predicted to have at least
# this many digits is computed in Decimal, the rest in int.  CPython 3.11
# turns an int into decimal text in time quadratic in its digits, libmpdec
# a Decimal in linear time.  Measured on Python 3.11.7, 2 CPUs: str takes
# 0.32 us for a 100-digit Decimal against 0.33 us for the int, 0.93 against
# 2.8 at 400 digits, and 4.6 against 45 at 1,600.  A Decimal add costs more
# (0.09 against 0.06 us at 100 digits), a row's values run from one digit
# up to its largest, and importing decimal adds about 2 ms to the command,
# so in a fresh process Decimal breaks even near 400 digits for ``seq F
# --h 1`` and near 480 for ``table F --h 0:10``; small output stays on int.
_DECIMAL_DIGITS = 450


def _emit(chunks, out: str | None) -> None:
    """Write the text ``chunks`` (a plain str is one chunk) to stdout, or to
    the file ``out`` names, each as it arrives and a slice at a time:
    writing one large str encodes all of it into a second, byte copy first.
    """
    if isinstance(chunks, str):
        chunks = (chunks,)
    step = cube._CHUNK_CHARS
    to_stdout = out is None or out == "-"
    if to_stdout and sys.stdout is None:  # the interpreter started with fd 1 closed
        raise ValueError("cannot write stdout: it is closed")
    try:
        with contextlib.nullcontext(sys.stdout) if to_stdout else _out_file(out) as fh:
            for chunk in chunks:
                for i in range(0, len(chunk), step):
                    fh.write(chunk[i:i + step])
            fh.flush()
    except OSError as exc:
        if to_stdout:
            _discard(sys.stdout)
        raise ValueError(f"cannot write {'stdout' if to_stdout else out}: "
                         f"{exc.strerror or exc}") from None


@contextlib.contextmanager
def _out_file(path: str):
    # A regular file, new or existing, is written beside itself and renamed
    # over the target only once whole, so a command that fails midway leaves
    # an existing file untouched.  Any other target, such as /dev/null or a
    # pipe, is written in place and never replaced.
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    folder, name = os.path.split(target)
    tmp = os.path.join(folder, f".{name}.{os.getpid()}.tmp")
    fh = open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "w", encoding="utf-8")
    try:
        with fh:
            if mode is not None:
                os.chmod(tmp, stat.S_IMODE(mode))
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


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


def _digits_per_index(h: int) -> float:
    """log10 of the growth rate of t(n) = t(n-1) + t(n-h-1): of the root
    r > 1 of r^h (r - 1) = 1, found by bisection on y = ln r, where
    h = -ln(e^y - 1) / y.  A negative h reads as h = 0, and an h past about
    10^16 as that h; h is compared, never converted, so any int will do."""
    lo, hi = 0.0, math.log(2)
    for _ in range(50):
        mid = (lo + hi) / 2
        if h < -math.log(math.expm1(mid)) / mid:
            lo = mid
        else:
            hi = mid
    return hi / math.log(10)


def _exact_numbers(h: int, n_max: int):
    """The unit that sequences of gap h or more are run from through index
    n_max, and the context that keeps their values exact: ``1`` and no
    context while the largest value is predicted under ``_DECIMAL_DIGITS``
    digits, else ``Decimal(1)`` and a context that raises on any rounding.
    The context must stay active until the output is written."""
    if n_max < _DECIMAL_DIGITS / _digits_per_index(h):  # no float of n_max, which may be huge
        return 1, contextlib.nullcontext()
    import decimal  # only here, so small output never loads it

    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                            Emin=decimal.MIN_EMIN,
                            traps=[decimal.Inexact, decimal.Rounded,
                                   decimal.InvalidOperation, decimal.DivisionByZero])
    return decimal.Decimal(1), decimal.localcontext(exact)


def _parse_h_range(text: str) -> tuple[int, int]:
    """Parse "2" or "0:10" into an inclusive (lo, hi) range; the bounds are
    ASCII digits only."""
    lo, colon, hi = text.partition(":")
    if not colon:
        hi = lo  # "2" means 2:2
    if not (lo.isascii() and lo.isdigit() and hi.isascii() and hi.isdigit()):
        raise ValueError(f"bad h range {text!r}")
    lo, hi = int(lo), int(hi)
    if hi < lo:
        raise ValueError(f"bad h range {text!r}")
    return lo, hi


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _render_grid(fmt: str, row_tag: str, rows: range, cols: range, values):
    """Yield the grid of one line per row against the n columns ``cols``, a
    row at a time; ``values`` yields each row's values, one int per column,
    and is read only as far as ``rows`` runs, a row when its chunk is wanted."""
    if fmt == "json":  # json.dumps(payload, indent=2) + "\n", written directly
        yield f'{{\n  "row": "{row_tag}",\n  "rows": '
        yield from _chunks(_json_array(map(str, rows), 1))
        yield (f',\n  "col": "n",\n  "cols": {"".join(_json_array(map(str, cols), 1))},\n'
               f'  "values": ')
        # A row's values are one join, written between its brackets rather
        # than copied into them: ``rows`` and ``cols`` are never empty here.
        lead, cell = "[\n    [\n      ", ",\n      "
        for _, row in zip(rows, values):
            yield from (lead, cell.join(map(str, row)), "\n    ]")
            lead = ",\n    [\n      "
        yield "\n  ]\n}\n"
        return
    sep = "\t" if fmt == "tsv" else ","
    yield sep.join(["", f"n={cols[0]}", *map(str, cols[1:])]) + "\n"
    for label, row in zip(chain([f"{row_tag}={rows[0]}"], map(str, rows[1:])), values):
        yield sep.join([label, *map(str, row)])
        yield "\n"  # not appended to the row, which would copy it


def _cmd_table(args) -> int:
    which, paper = args.which, args.paper_layout
    per_size = which in ("pk", "ck")
    if paper:
        if args.n_max is not None or args.k_max is not None:
            raise ValueError("--paper-layout fixes the extents; drop --n-max/--k-max")
        if not per_size and args.h is not None:
            raise ValueError("--paper-layout fixes the h range; drop --h")
    elif not per_size and args.k_max is not None:
        raise ValueError(f"table {which} has no k axis")
    if per_size and args.h is None:
        raise ValueError(f"table {which} needs --h")
    h, h_hi = PAPER_H_RANGE if args.h is None else _parse_h_range(args.h)

    # The extents: columns n_min..n_max, and rows k = 0..k_max of one h or h..h_hi.
    n_max = _TABLE_N_MAX if args.n_max is None else args.n_max
    layout = PAPER_TABLE_LAYOUTS[which]
    if not per_size:
        n_min, n_max = layout if paper else (1 if which in ("F", "L") else 0, n_max)
        row_tag, rows = "h", range(h, h_hi + 1)
    elif paper and (h != h_hi or h not in layout):
        raise ValueError(f"--paper-layout for {which} exists only for --h in {sorted(layout)}")
    elif h != h_hi:
        raise ValueError(f"table {which} needs a single --h, not a range")
    else:
        n_min, k_max = 0, args.k_max
        if paper:
            n_max, k_max = layout[h]
        elif k_max is None:
            k_max = max_subset_size(n_max, h)
        row_tag, rows = "k", range(k_max + 1)
    cols = range(n_min, n_max + 1)
    if not cols:
        raise ValueError(f"empty column range: n runs {n_min}..{n_max}")
    if not rows:
        raise ValueError(f"empty row range: {row_tag} runs {rows.start}..{rows.stop - 1}")

    # Every row is one linear pass over its columns: 0..n_max, but 1..n_max
    # for F and L.  The h rows grow fastest at their first h, and are made
    # from ``unit``; the k rows are one stream, each made from those above.
    unit, exact = (1, contextlib.nullcontext()) if per_size else _exact_numbers(h, n_max)
    if which in _SEQ_KINDS:
        values = (islice(HSequence(_SEQ_KINDS[which], hh, unit), n_max) for hh in rows)
    else:
        row = verify._routes()[_TABLE_ROUTES[which]]["row"]
        values = row(n_max, h) if per_size else (row(n_max, hh, unit) for hh in rows)
    if which == "M" and paper:
        # The published edge table prints 0 in the n <= h corner it makes
        # no claim about; the library value there is cycle_edges itself.
        values = ([0 if n <= hh else e for n, e in enumerate(r)] for hh, r in zip(rows, values))
    with exact:
        _emit(_render_grid(args.format, row_tag, rows, cols, values), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# cube / graph
# ---------------------------------------------------------------------------

def _cmd_cube(args) -> int:
    c = cube.build_cube(GapGraph(args.kind, args.n, args.h), cap=args.cap)
    if args.format == "dot":
        chunks = c.to_dot()
    elif args.format == "json":
        chunks = c.to_json()
    else:
        chunks = c.to_edgelist_text()
    _emit(chunks, args.out)
    _note(f"{c.vertex_count} vertices, {c.cover_count} edges")
    return EXIT_OK


def _cmd_graph(args) -> int:
    g = GapGraph(args.kind, args.n, args.h)
    lines = edgelist_lines(g) if args.format == "edgelist" else dot_lines(g)
    _emit(_chunks(lines), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def _cmd_count(args) -> int:
    # Checked here, not left to the routes: the per-size forms follow the
    # binomial convention, so path_count_k(-1, 2, 0) is 1 and a negative k
    # counts 0 sets.
    if min(args.n, args.h, 0 if args.k is None else args.k) < 0:
        raise ValueError("n, h and k must be nonnegative")
    quantity, nums = ((args.quantity, (args.n, args.h)) if args.k is None
                      else (f"{args.quantity}-k", (args.n, args.h, args.k)))
    routes = verify._routes(args.cap)
    scalar = routes.get((quantity, args.route), {}).get("scalar")
    if scalar is None:
        sized = "" if args.k is None else " of one subset size"
        methods = [m for (q, m), r in routes.items() if q == quantity and "scalar" in r]
        raise ValueError(f"the {args.route} route does not count {args.quantity}{sized} "
                         f"(routes: {', '.join(methods) or 'none'})")
    _emit(f"{scalar(*nums)}\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# seq
# ---------------------------------------------------------------------------

_SEQ_KINDS = {"F": FIBONACCI, "L": LUCAS, "F-ext": EXTENDED_FIBONACCI,
              "L-ext": EXTENDED_LUCAS}


def _cmd_seq(args) -> int:
    unit, exact = _exact_numbers(args.h, args.n_max)
    with exact:
        seq = HSequence(_SEQ_KINDS[args.kind], args.h, unit)
        start = seq.min_index
        terms = islice(seq, max(args.n_max - start + 1, 0))  # through n_max
        if args.format == "json":  # json.dumps(payload, indent=2) + "\n", written directly
            head = (f'{{\n  "kind": "{args.kind}",\n  "h": {args.h},\n'
                    f'  "start": {start},\n  "values": ')
            text = chain([head], _chunks(_json_array(map(str, terms), 1)), ["\n}\n"])
        else:
            # !s: str() of a Decimal is quicker than its __format__.
            text = _chunks(f"{n}\t{v!s}\n" for n, v in zip(count(start), terms))
        _emit(text, args.out)
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
# command table and parser
# ---------------------------------------------------------------------------

class _Arg:
    """A positional ``name`` or an option ``--name``: ``kind`` is ``int``,
    ``str`` or ``None``, a bare flag that stores True when given."""

    def __init__(self, name, kind=str, choices=(), default=None, required=False, *, help,
                 nonnegative=False):
        self.name, self.kind, self.choices, self.default = name, kind, choices, default
        self.required, self.help, self.nonnegative = required, help, nonnegative
        self.dest = name.lstrip("-").replace("-", "_")

    def convert(self, text: str):
        if self.kind is None:  # "--flag" alone, never "--flag=text"
            if text:
                raise ValueError(f"argument {self.name}: ignored explicit argument {text!r}")
            return True
        try:
            value = self.kind(text)
        except ValueError:
            raise ValueError(f"argument {self.name}: invalid int value: {text!r}") from None
        if self.choices and value not in self.choices:
            raise ValueError(f"argument {self.name}: invalid choice: {text!r} "
                             f"(choose from {', '.join(map(repr, self.choices))})")
        if self.nonnegative and value < 0:
            raise ValueError(f"argument {self.name}: must be nonnegative, got {value}")
        return value


_GRAPH_KIND = _Arg("kind", choices=(PATH, CYCLE), required=True, help="which graph is powered")
_N = _Arg("n", int, required=True, help="vertex count")
_H = _Arg("h", int, required=True, help="power: vertices up to h apart are adjacent")
_CAP = _Arg("--cap", int, default=DEFAULT_CAP, nonnegative=True,
            help="largest n the enumeration accepts")
_OUT = _Arg("--out", help="write to this file, not stdout; replaced only once complete")

# command -> (handler, help, arguments): the one declaration argv is read against.
_COMMANDS = {
    "table": (_cmd_table, "render a count/sequence table", (
        _Arg("which", choices=("pk", "ck", "p", "c", "F", "L", "H", "M"), required=True,
             help="per-size counts, totals, sequences or diagram edges"),
        _Arg("--h", help="gap parameter, single value or lo:hi range"),
        _Arg("--n-max", int, help=f"last column n (default {_TABLE_N_MAX})"),
        _Arg("--k-max", int, help="last row k of pk/ck (default the largest subset size)"),
        _Arg("--paper-layout", None, default=False,
             help="reproduce the published table extents cell-for-cell"),
        _Arg("--format", choices=("tsv", "csv", "json"), default="tsv", help="output format"),
        _OUT)),
    "cube": (_cmd_cube, "export an inclusion diagram", (
        _GRAPH_KIND, _N, _H,
        _Arg("--format", choices=("dot", "json", "edgelist"), default="dot",
             help="export format"),
        _CAP, _OUT)),
    "graph": (_cmd_graph, "export a path/cycle power", (
        _GRAPH_KIND, _N, _H,
        _Arg("--format", choices=("edgelist", "dot"), default="edgelist", help="export format"),
        _OUT)),
    "count": (_cmd_count, "print one exact count", (
        _Arg("quantity", choices=("path", "cycle", "path-edges", "cycle-edges"), required=True,
             help="independent-set totals, or inclusion-diagram edges"),
        _N, _H, _Arg("k", int, help="subset size (set counts only)"),
        _Arg("--route", choices=verify._METHODS,
             default="closed", help="how the count is computed"),
        _CAP, _OUT)),
    "seq": (_cmd_seq, "dump a delayed Fibonacci/Lucas sequence", (
        _Arg("kind", choices=tuple(_SEQ_KINDS), required=True,
             help="Fibonacci or Lucas, -ext from index -h (needs h >= 2)"),
        _Arg("--h", int, required=True, help="gap parameter"),
        _Arg("--n-max", int, default=15, help="last index"),
        _Arg("--format", choices=("tsv", "json"), default="tsv", help="output format"), _OUT)),
    "verify": (_cmd_verify, "run the identity cross-check suite", (
        _Arg("--n-max", int, default=verify.DEFAULT_BOUNDS.n_max,
             help="largest n of the algebraic sweeps"),
        _Arg("--h-max", int, default=verify.DEFAULT_BOUNDS.h_max, help="largest h of every sweep"),
        _Arg("--oracle-n-max", int, default=verify.DEFAULT_BOUNDS.oracle_n_max,
             help="largest n of the enumeration sweeps"),
        _Arg("--format", choices=("summary", "json"), default="summary",
             help="summary lines or the JSON report"),
        _OUT)),
}
_COMMAND = _Arg("command", choices=tuple(_COMMANDS), help="the command to run")
_HELP = ("-h", "--help")
_DESCRIPTION = ("fibcubes: exact counts, diagrams, and identity checks for independent sets "
                "of path and cycle powers.  fibcubes <command> --help describes one command.")


def _is_negative_number(token: str) -> bool:
    """Whether token is "-" and digits (-5), or "-", digits or none, "."
    and digits (-.5, -1.5); a digit is any Unicode decimal digit, as
    str.isdecimal takes it."""
    if token[:1] != "-":
        return False
    whole, point, fraction = token[1:].partition(".")
    if point:
        return fraction.isdecimal() and (not whole or whole.isdecimal())
    return whole.isdecimal()


def _is_option(token: str) -> bool:
    # A negative number or a lone "-" is a value, not an option.
    return token[:1] == "-" and token != "-" and not _is_negative_number(token)


def _parse(argv: list[str]) -> SimpleNamespace:
    """Read argv against ``_COMMANDS`` into the namespace its handler takes;
    a malformed argv raises ValueError, and ``-h``/``--help`` selects help.
    Options go anywhere, as ``--flag value`` or ``--flag=value``; the last wins."""
    if not argv:
        raise ValueError("the following arguments are required: command")
    if argv[0] in _HELP:
        return SimpleNamespace(func=_cmd_help, command=None)
    command = _COMMAND.convert(argv[0])
    func, _, spec = _COMMANDS[command]
    args = SimpleNamespace(func=func, command=command, **{a.dest: a.default for a in spec})
    positionals = iter([a for a in spec if a.name[0] != "-"])
    options = {a.name: a for a in spec if a.name[0] == "-"}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _HELP:
            return SimpleNamespace(func=_cmd_help, command=command)
        if _is_option(token):
            flag, eq, text = token.partition("=")
            arg = options.get(flag)
            if arg is not None and arg.kind is not None and not eq:
                text = next(tokens, None)
                if text is None or _is_option(text):
                    raise ValueError(f"argument {flag}: expected one argument")
        else:
            arg, text = next(positionals, None), token
        if arg is None:
            raise ValueError(f"unrecognized arguments: {token}")
        setattr(args, arg.dest, arg.convert(text))
    missing = [a.name for a in spec if a.required and getattr(args, a.dest) is None]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    return args


def _usage(command: str) -> str:
    words = ["fibcubes", command]
    for a in _COMMANDS[command][2]:
        meta = "{" + ",".join(a.choices) + "}" if a.choices else a.dest.upper()
        word = meta if a.name[0] != "-" else a.name if a.kind is None else f"{a.name} {meta}"
        words.append(word if a.required else f"[{word}]")
    return " ".join(words)


def _default(arg: _Arg) -> str:
    return "" if arg.default is None or arg.kind is None else f" (default {arg.default})"


def _cmd_help(args) -> int:
    # Every command's usage line, or one command's and a line per argument.
    lines = [] if args.command else [_DESCRIPTION, ""]
    for name in [args.command] if args.command else _COMMANDS:
        _, summary, spec = _COMMANDS[name]
        lines += [f"usage: {_usage(name)}", f"    {summary}"]
        if args.command:
            lines += ["", *(f"  {a.name:<16}{a.help}" + _default(a) for a in spec)]
    _emit("\n".join(lines) + "\n", None)
    return EXIT_OK


def _run(argv: list[str]) -> int:
    """Parse and run one command; the only place that turns errors into exit codes."""
    try:
        args = _parse(argv)
        return args.func(args)
    except (CapacityError, ValueError) as exc:
        _note(f"error: {exc}")
        return EXIT_CAPACITY if isinstance(exc, CapacityError) else EXIT_USAGE
    except MemoryError:
        _note("error: out of memory")
        return EXIT_CAPACITY


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not hasattr(sys, "set_int_max_str_digits"):  # an interpreter with no digit limit
        return _run(argv)
    # Counts outgrow the default 4,300-digit int-to-str limit; lift it for the
    # command, in every output format, and restore it for in-process callers.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def script() -> None:
    sys.exit(main())


if __name__ == "__main__":
    script()
