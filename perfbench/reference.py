"""Independent reference values and output checks for the benchmark.

Nothing here imports ``fibcubes``: every expected value is rebuilt from the
delayed recurrences and from binomials grown one factor at a time, so a
wrong answer from the program cannot also be the answer it is compared with.

Conventions match the program's: vertices are 1-indexed, a gap h means set
members are more than h apart, and C(m, 0) = 1 for every m while impossible
selections count 0.
"""

from __future__ import annotations

import json

# Extents of the twelve published tables that ``table --paper-layout`` prints.
PAPER_SWEEP = {"p": (0, 13), "F": (1, 15), "H": (0, 13),
               "c": (0, 16), "L": (1, 15), "M": (0, 15)}
PAPER_PER_SIZE = {"pk": {1: (15, 8), 2: (16, 6), 3: (17, 5)},
                  "ck": {1: (16, 8), 2: (17, 5), 3: (18, 4)}}
PAPER_H = (0, 10)


# ---------------------------------------------------------------------------
# Sequences by delayed recurrence
# ---------------------------------------------------------------------------

def path_totals(h: int, n_max: int) -> list[int]:
    """p(0..n_max): p(m) = m + 1 while m <= h + 1, then p(m-1) + p(m-h-1)."""
    p = []
    for m in range(n_max + 1):
        p.append(m + 1 if m <= h + 1 else p[m - 1] + p[m - h - 1])
    return p


def cycle_totals(h: int, n_max: int) -> list[int]:
    """c(0..n_max): c(m) = m + 1 while the cycle power is complete (m <= 2h+1)."""
    c = []
    for m in range(n_max + 1):
        c.append(m + 1 if m <= 2 * h + 1 else c[m - 1] + c[m - h - 1])
    return c


def delayed(h: int, head: list[int], count: int) -> list[int]:
    """``head`` followed by t(m) = t(m-1) + t(m-h-1), ``count`` terms in all."""
    t = list(head[:count])
    while len(t) < count:
        t.append(t[-1] + t[-h - 1])
    return t


def fib_terms(h: int, n_max: int) -> list[int]:
    """Delayed Fibonacci F(1..n_max), as a list indexed from 0 for F(1)."""
    return delayed(h, [1] * (h + 1), n_max)


def lucas_terms(h: int, n_max: int) -> list[int]:
    """Delayed Lucas L(1..n_max): h+1, then h ones, then the recurrence."""
    return delayed(h, [h + 1] + [1] * h, n_max)


def extended_terms(kind: str, h: int, n_max: int) -> list[int]:
    """Extended sequences t(-h..n_max) for h >= 2 (``F-ext`` or ``L-ext``)."""
    head = [1] + [0] * h if kind == "F-ext" else [h + 1, -h] + [0] * (h - 1)
    return delayed(h, head, n_max + h + 1)


def path_edges_row(h: int, n_max: int) -> list[int]:
    """E(0..n_max) for paths: sets without vertex m, plus sets with it.

    A set containing m is m joined to a set S on the first m-h-1 vertices;
    it covers S and one set per element of S, so
    E(m) = E(m-1) + E(m-h-1) + p(m-h-1), with p = 1 and E = 0 below zero.
    """
    p = path_totals(h, n_max)
    e = []
    for m in range(n_max + 1):
        if m == 0:
            e.append(0)
            continue
        j = m - h - 1
        e.append(e[m - 1] + (e[j] if j > 0 else 0) + (p[j] if j >= 0 else 1))
    return e


def cycle_edges_value(n: int, h: int, fib: list[int] | None = None) -> int:
    """Cover count of a cycle power's diagram: n * F(n-h), or n for n <= h."""
    if n <= h:
        return n
    f = fib if fib is not None else fib_terms(h, n - h)
    return n * f[n - h - 1]


# ---------------------------------------------------------------------------
# Binomials grown one factor at a time
# ---------------------------------------------------------------------------

def binomial(m: int, k: int) -> int:
    """C(m, k) with the subset convention, by the multiplicative formula."""
    if k < 0:
        return 0
    if k == 0:
        return 1
    if m < 0 or k > m:
        return 0
    k = min(k, m - k)
    b = 1
    for i in range(1, k + 1):
        b = b * (m - k + i) // i
    return b


def path_count_k(n: int, h: int, k: int) -> int:
    return binomial(n - h * k + h, k)


def cycle_count_k(n: int, h: int, k: int) -> int:
    if k < 0:
        return 0
    if k <= 1:
        return 1 if k == 0 else n
    num = n * binomial(n - h * k - 1, k - 1)
    if num % k:
        raise ArithmeticError(f"cycle count not integral at n={n} h={h} k={k}")
    return num // k


def path_edges_binomial(n: int, h: int) -> int:
    """sum_k k * C(n - h(k-1), k), each binomial grown from the previous one.

    From C(m, k-1) one factor gives C(m, k); then h single steps
    C(m, k) -> C(m-1, k) = C(m, k) * (m-k) / m lower the top to n - h(k-1).
    """
    total = 0
    m, b = n, 1          # b = C(m, k-1) for the current k
    k = 1
    while k <= m:
        b = b * (m - k + 1) // k            # C(m, k)
        total += k * b
        for _ in range(h):                   # C(m, k) -> C(m-h, k)
            if m - 1 < k:
                return total
            b = b * (m - k) // m
            m -= 1
        k += 1
    return total


def path_per_size_grid(h: int, n_max: int, k_max: int) -> list[list[int]]:
    """pk[k][n]: subsets avoiding vertex n, plus those through it."""
    grid = [[0] * (n_max + 1) for _ in range(k_max + 1)]

    def at(m: int, k: int) -> int:
        if k == 0:
            return 1
        return grid[k][m] if m > 0 else 0

    for n in range(n_max + 1):
        for k in range(k_max + 1):
            grid[k][n] = 1 if k == 0 else (at(n - 1, k) + at(n - h - 1, k - 1)
                                           if n > 0 else 0)
    return grid


def cycle_per_size_grid(h: int, n_max: int, k_max: int) -> list[list[int]]:
    """ck[k][n]. At most one of the vertices 1..h is chosen. Without one, the
    rest is a path on n-h vertices; with vertex j, its 2h neighbours go too
    and a path on n-2h-1 vertices is left. A complete power (n <= 2h+1) has
    only the empty set and the singletons."""
    pk = path_per_size_grid(h, n_max, k_max)

    def p(m: int, k: int) -> int:
        if k == 0:
            return 1
        return pk[k][m] if m > 0 else 0

    grid = [[0] * (n_max + 1) for _ in range(k_max + 1)]
    for n in range(n_max + 1):
        for k in range(k_max + 1):
            if n <= 2 * h + 1:
                grid[k][n] = (1, n)[k] if k <= 1 else 0
            else:
                grid[k][n] = p(n - h, k) + (h * p(n - 2 * h - 1, k - 1) if k else 0)
    return grid


# ---------------------------------------------------------------------------
# Expected command outputs
# ---------------------------------------------------------------------------

def count_value(quantity: str, n: int, h: int, k: int | None) -> int:
    """What ``fibcubes count`` must print, whatever the route."""
    if quantity == "path":
        return path_totals(h, n)[n] if k is None else path_count_k(n, h, k)
    if quantity == "cycle":
        return cycle_totals(h, n)[n] if k is None else cycle_count_k(n, h, k)
    if quantity == "path-edges":
        return path_edges_binomial(n, h)
    return cycle_edges_value(n, h)


def sweep_grid(which: str, h_lo: int, h_hi: int, n_lo: int, n_hi: int,
               paper: bool) -> list[list[int]]:
    """Rows h_lo..h_hi, columns n_lo..n_hi of a totals, sequence or edge table."""
    rows = []
    for h in range(h_lo, h_hi + 1):
        if which == "p":
            row = path_totals(h, n_hi)
        elif which == "c":
            row = cycle_totals(h, n_hi)
        elif which == "F":
            row = [0] + fib_terms(h, n_hi)
        elif which == "L":
            row = [0] + lucas_terms(h, n_hi)
        elif which == "H":
            row = path_edges_row(h, n_hi)
        else:
            fib = fib_terms(h, max(n_hi - h, 1))
            row = [0 if paper and n <= h else cycle_edges_value(n, h, fib)
                   for n in range(n_hi + 1)]
        rows.append(row[n_lo:n_hi + 1])
    return rows


def render_grid(row_tag: str, rows: list[int], cols: list[int],
                values: list[list[int]], fmt: str) -> str:
    """The table text the program prints for this grid (tsv, csv or json)."""
    if fmt == "json":
        payload = {"row": row_tag, "rows": rows, "col": "n", "cols": cols,
                   "values": values}
        return json.dumps(payload, indent=2) + "\n"
    sep = "\t" if fmt == "tsv" else ","
    lines = [sep.join([""] + [f"n={cols[0]}"] + [str(c) for c in cols[1:]])]
    for i, (r, vals) in enumerate(zip(rows, values)):
        label = f"{row_tag}={r}" if i == 0 else str(r)
        lines.append(sep.join([label] + [str(v) for v in vals]))
    return "".join(line + "\n" for line in lines)


def table_text(which: str, h: str | None, n_max: int | None, paper: bool,
               fmt: str) -> str:
    """Expected output of ``fibcubes table`` for the arguments the workloads use."""
    if which in ("pk", "ck"):
        hh = int(h)
        if paper:
            n_max, k_max = PAPER_PER_SIZE[which][hh]
        else:
            k_max = -(-n_max // (hh + 1))
        build = path_per_size_grid if which == "pk" else cycle_per_size_grid
        grid = build(hh, n_max, k_max)
        return render_grid("k", list(range(k_max + 1)), list(range(n_max + 1)),
                           grid, fmt)
    if paper:
        h_lo, h_hi = PAPER_H
        n_lo, n_hi = PAPER_SWEEP[which]
    else:
        lo, _, hi = h.partition(":")
        h_lo, h_hi = int(lo), int(hi or lo)
        n_lo, n_hi = (1 if which in ("F", "L") else 0), n_max
    values = sweep_grid(which, h_lo, h_hi, n_lo, n_hi, paper)
    return render_grid("h", list(range(h_lo, h_hi + 1)),
                       list(range(n_lo, n_hi + 1)), values, fmt)


def seq_text(kind: str, h: int, n_max: int, fmt: str) -> str:
    """Expected output of ``fibcubes seq``."""
    if kind in ("F", "L"):
        start = 1
        values = (fib_terms if kind == "F" else lucas_terms)(h, n_max)
    else:
        start = -h
        values = extended_terms(kind, h, n_max)
    if fmt == "json":
        payload = {"kind": kind, "h": h, "start": start, "values": values}
        return json.dumps(payload, indent=2) + "\n"
    return "".join(f"{start + i}\t{v}\n" for i, v in enumerate(values))


def cube_size(kind: str, n: int, h: int) -> tuple[int, int]:
    """Predicted (vertices, covers) of the inclusion diagram, before enumeration."""
    if kind == "path":
        return path_totals(h, n)[n], path_edges_row(h, n)[n]
    return cycle_totals(h, n)[n], cycle_edges_value(n, h)


# ---------------------------------------------------------------------------
# Output checks: each returns None when the output is right, else a reason
# ---------------------------------------------------------------------------

def check_text(expected: str, actual: str) -> str | None:
    if actual == expected:
        return None
    for i, (a, b) in enumerate(zip(expected.splitlines(), actual.splitlines())):
        if a != b:
            return f"line {i + 1} differs: expected {a[:80]!r}, got {b[:80]!r}"
    return f"length differs: expected {len(expected)} chars, got {len(actual)}"


def check_cube(kind: str, n: int, h: int, fmt: str, text: str, stderr: str) -> str | None:
    """Vertex, cover and record counts of an exported diagram."""
    vertices, covers = cube_size(kind, n, h)
    if stderr.strip() != f"{vertices} vertices, {covers} edges":
        return f"stderr {stderr.strip()!r}, expected {vertices} vertices, {covers} edges"
    if fmt == "json":
        doc = json.loads(text)
        if (doc["kind"], doc["n"], doc["h"]) != (kind, n, h):
            return "json header mismatch"
        grid = (path_per_size_grid if kind == "path" else cycle_per_size_grid)(
            h, n, len(doc["ranks"]))
        ranks = [len(r) for r in doc["ranks"]]
        want = [grid[k][n] for k in range(len(ranks))]
        if ranks != want or grid[len(ranks)][n]:
            return f"rank sizes {ranks}, expected {want}"
        got = len(doc["covers"])
    else:
        lines = text.splitlines()
        if fmt == "dot":
            if lines[0] != f"graph cube_{kind}_{n}_{h} {{" or lines[-1] != "}":
                return "dot frame mismatch"
            labelled = sum(1 for line in lines if line.endswith('"];'))
            if labelled != vertices:
                return f"{labelled} labelled vertices, expected {vertices}"
            got = sum(1 for line in lines if " -- " in line)
        else:
            got = len(lines)
            top = max((int(line.split()[1]) for line in lines), default=0)
            if covers and top != vertices - 1:
                return f"highest vertex index {top}, expected {vertices - 1}"
    if got != covers:
        return f"{got} cover records, expected {covers}"
    return None


def check_verify(text: str) -> str | None:
    """Every identity of the report passes."""
    reports = json.loads(text)
    if not reports:
        return "no identity reports"
    bad = [r["identity"] for r in reports if r["status"] != "pass" or r["failed"]]
    return f"identities failed: {', '.join(bad)}" if bad else None
