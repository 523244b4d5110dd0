"""Acceptance gate.

One test per acceptance criterion.  Every comparison is exact (integer
equality or byte equality); each criterion also carries a wall-clock budget
that is asserted, and a PASS line is printed per criterion (run with
``pytest tests/test_acceptance.py -v -s`` to see them).
"""

import itertools
import os
import time
from pathlib import Path

import fibcubes.cli as cli
from fibcubes import counting, cube, enumeration, verify
from fibcubes.counting import (
    binom,
    cycle_count,
    cycle_count_k,
    cycle_edges,
    cycle_edges_closed,
    cycle_edges_conv,
    extended_fib,
    extended_lucas,
    h_fibonacci,
    h_lucas,
    max_subset_size,
    path_count,
    path_count_k,
    path_edges,
    path_edges_conv,
)
from fibcubes.enumeration import VertexMask, avoids_substrings, bijection_f, bijection_f_inv, gap_check
from fibcubes.graphs import CYCLE, PATH, GapGraph

GOLDEN = Path(__file__).parent / "golden"


def _finish(name, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s < {budget}s)")


# -- 1. reference tables reproduce byte-for-byte --------------------------------

TABLE_RUNS = [
    ("table01.tsv", ["table", "pk", "--h", "1", "--paper-layout"]),
    ("table02.tsv", ["table", "pk", "--h", "2", "--paper-layout"]),
    ("table03.tsv", ["table", "pk", "--h", "3", "--paper-layout"]),
    ("table04.tsv", ["table", "p", "--paper-layout"]),
    ("table05.tsv", ["table", "F", "--paper-layout"]),
    ("table06.tsv", ["table", "H", "--paper-layout"]),
    ("table07.tsv", ["table", "ck", "--h", "1", "--paper-layout"]),
    ("table08.tsv", ["table", "ck", "--h", "2", "--paper-layout"]),
    ("table09.tsv", ["table", "ck", "--h", "3", "--paper-layout"]),
    ("table10.tsv", ["table", "c", "--paper-layout"]),
    ("table11.tsv", ["table", "L", "--paper-layout"]),
    ("table12.tsv", ["table", "M", "--paper-layout"]),
]


def test_reference_table_reproduction(tmp_path):
    started = time.perf_counter()
    for golden_name, argv in TABLE_RUNS:
        out = tmp_path / golden_name
        assert cli.main(argv + ["--out", str(out)]) == 0
        produced = out.read_bytes()
        expected = (GOLDEN / golden_name).read_bytes()
        assert produced == expected, f"{golden_name} differs"
    _finish("table-reproduction", started, 5.0)


# (row r, column n, the run's --h) -> the per-cell closed form of that table.
# `table` renders rows in one pass, so this keeps the published cells pinned
# to the closed forms themselves.
CELL_FORMS = {
    "pk": lambda k, n, h: path_count_k(n, h, k),
    "ck": lambda k, n, h: cycle_count_k(n, h, k),
    "p": lambda h, n, _: path_count(n, h),
    "c": lambda h, n, _: cycle_count(n, h),
    "F": lambda h, n, _: h_fibonacci(h, n),
    "L": lambda h, n, _: h_lucas(h, n),
    "H": lambda h, n, _: path_edges(n, h),
    # The published edge table prints 0 in its n <= h corner.
    "M": lambda h, n, _: 0 if n <= h else cycle_edges(n, h),
}


def test_reference_tables_match_closed_forms():
    started = time.perf_counter()
    cells = 0
    for golden_name, argv in TABLE_RUNS:
        form = CELL_FORMS[argv[1]]
        run_h = int(argv[3]) if argv[2] == "--h" else None
        header, *lines = (GOLDEN / golden_name).read_text().splitlines()
        cols = [int(c.rpartition("=")[2]) for c in header.split("\t")[1:]]
        for line in lines:
            label, *values = line.split("\t")
            r = int(label.rpartition("=")[2])
            assert len(values) == len(cols), (golden_name, label)
            for n, v in zip(cols, values):
                assert int(v) == form(r, n, run_h), (golden_name, r, n)
                cells += 1
    assert cells == 1728
    _finish("table-closed-forms", started, 1.0)


# -- 2. path-edge convolution identity -------------------------------------------


def test_path_edge_convolution_sweep():
    started = time.perf_counter()
    cases = 0
    for h in range(11):
        for n in range(41):
            assert path_edges(n, h) == path_edges_conv(n, h), (n, h)
            cases += 1
    assert cases == 451
    _finish("path-edges-convolution", started, 1.0)


# -- 3. cycle-edge closed form and convolution ------------------------------------


def test_cycle_edge_three_route_sweep():
    started = time.perf_counter()
    for h in range(11):
        for n in range(h + 1, 41):
            e = cycle_edges(n, h)
            assert e == cycle_edges_closed(n, h), (n, h)
            assert e == cycle_edges_conv(n, h), (n, h)
    _finish("cycle-edges-identities", started, 1.0)


# -- 4. enumeration agrees with every closed form -----------------------------------


def _streamed_cover_count(masks):
    # One cover per deletable bit; every deletion must land in the family.
    members = set(masks)
    total = 0
    for bits in masks:
        rest = bits
        while rest:
            low = rest & -rest
            assert bits ^ low in members
            total += 1
            rest ^= low
    return total


def test_enumeration_matches_closed_forms():
    started = time.perf_counter()
    for kind in (PATH, CYCLE):
        count_k = path_count_k if kind == PATH else cycle_count_k
        count_total = path_count if kind == PATH else cycle_count
        for h in range(7):
            for n in range(21):
                g = GapGraph(kind, n, h)
                masks = enumeration.iter_masks(g)
                assert len(masks) == count_total(n, h), (kind, n, h)

                if n <= 16:
                    hist = {}
                    for m in masks:
                        k = m.bit_count()
                        hist[k] = hist.get(k, 0) + 1
                    for k in range(max_subset_size(n, h) + 2):
                        assert hist.get(k, 0) == count_k(n, h, k), (kind, n, h, k)
                    built = cube.build_cube(g)
                    assert built.vertex_count == count_total(n, h)
                    covers = sum(1 for _ in built.covers)
                else:
                    covers = _streamed_cover_count(masks)

                if kind == PATH:
                    assert covers == path_edges(n, h), (kind, n, h)
                elif n > h:
                    assert covers == cycle_edges(n, h), (kind, n, h)
                else:
                    assert covers == sum(m.bit_count() for m in masks)
    _finish("oracle-equivalence", started, 60.0)


# -- 5. the index-spreading bijection -------------------------------------------------


def test_subset_spreading_bijection():
    started = time.perf_counter()
    for h in range(5):
        for n in range(15):
            for k in range(max_subset_size(n, h) + 1):
                top = n - h * k + h
                if top < 0:
                    continue
                images = set()
                for combo in itertools.combinations(range(1, top + 1), k):
                    mask = bijection_f(combo, n, h)
                    assert gap_check(mask, h)
                    assert bijection_f_inv(mask, h) == list(combo)
                    images.add(mask.bits)
                assert len(images) == binom(top, k), (n, h, k)
    _finish("subset-bijection", started, 30.0)


# -- 6. per-vertex membership counts ---------------------------------------------------


def test_vertex_membership_identities():
    started = time.perf_counter()
    for h in range(5):
        for n in range(1, 17):
            tally = {}
            for bits in enumeration.iter_masks(GapGraph(PATH, n, h)):
                k = bits.bit_count()
                rest = bits
                while rest:
                    low = rest & -rest
                    tally[(k, low.bit_length())] = tally.get((k, low.bit_length()), 0) + 1
                    rest ^= low
            grand = 0
            for k in range(1, max_subset_size(n, h) + 1):
                for i in range(1, n + 1):
                    t = counting.t_count(n, h, k, i)
                    assert t == tally.get((k, i), 0), (n, h, k, i)
                    grand += t
            assert grand == path_edges(n, h), (n, h)
    _finish("vertex-membership-counts", started, 30.0)


# -- 7. substring characterization ------------------------------------------------------


def test_substring_characterization():
    started = time.perf_counter()
    for h in range(1, 6):
        for n in range(15):
            for bits in range(1 << n):
                m = VertexMask(n, bits)
                assert gap_check(m, h) == avoids_substrings(m, h), (n, h, bits)
                assert gap_check(m, h, circular=True) == avoids_substrings(
                    m, h, circular=True), (n, h, bits)
    _finish("substring-characterization", started, 30.0)


# -- 8. sequence bridges -----------------------------------------------------------------


def test_sequence_bridges():
    started = time.perf_counter()
    for h in range(11):
        for i in range(1, 41):
            assert h_fibonacci(h, i) == path_count(max(i - h - 1, 0), h), (h, i)
        for i in range(h + 2, 41):
            assert h_lucas(h, i) == cycle_count(i - 1, h), (h, i)
        for n in range(h + 1, 41):
            assert h_lucas(h, n + 1) == h_fibonacci(h, n) + (h + 1) * h_fibonacci(h, n - h)
    for h in range(2, 11):
        for n in range(1, 41):
            assert extended_fib(h, n) == h_fibonacci(h, n), (h, n)
            assert extended_lucas(h, n) == h_lucas(h, n), (h, n)
    _finish("sequence-bridges", started, 1.0)


# -- 9. classical specializations -----------------------------------------------------------


def _fib_classic(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _lucas_classic(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_classical_specializations():
    started = time.perf_counter()
    for n in range(41):
        assert path_count(n, 1) == _fib_classic(n + 2)
        assert path_edges(n, 1) == sum(
            _fib_classic(i) * _fib_classic(n - i + 1) for i in range(1, n + 1))
        assert path_count(n, 0) == 2 ** n
        assert path_edges(n, 0) == (n * 2 ** (n - 1) if n else 0)
        if n > 1:
            assert cycle_count(n, 1) == _lucas_classic(n)
            assert cycle_edges(n, 1) == n * _fib_classic(n - 1)
    _finish("classical-specializations", started, 1.0)


# -- 10. mutation sensitivity ------------------------------------------------------------------


def _verify_exit():
    return cli.main([
        "verify", "--n-max", "12", "--h-max", "4", "--oracle-n-max", "8",
        "--out", os.devnull,
    ])


def test_mutation_sensitivity(monkeypatch):
    started = time.perf_counter()
    assert _verify_exit() == 0  # baseline

    # 1. break the leading run of ones in the delayed Fibonacci base
    with monkeypatch.context() as mp:
        mp.setattr(counting, "_fib_base", lambda h, n: 2 if n == 1 else 1)
        assert _verify_exit() != 0

    # 2. break the delayed Lucas head term (h+1 -> h)
    with monkeypatch.context() as mp:
        mp.setattr(counting, "_lucas_base", lambda h, n: h if n == 1 else 1)
        assert _verify_exit() != 0

    # 3. break the negative-top binomial rule (signed instead of subset)
    import math

    def signed_binom(m, k):
        if k < 0:
            return 0
        if m < 0:
            return (-1) ** k * math.comb(-m + k - 1, k)
        return math.comb(m, k) if k <= m else 0

    with monkeypatch.context() as mp:
        mp.setattr(counting, "binom", signed_binom)
        assert _verify_exit() != 0

    assert _verify_exit() == 0  # and healthy again once restored
    _finish("mutation-sensitivity", started, 60.0)
