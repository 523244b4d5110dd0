"""Closed-form, recurrence, and convolution counting.

Expected values come from two places: hand-derivable trivial cases, and the
published reference tables that the golden files under tests/golden/ were
transcribed from.  Cross-route equalities (closed form vs recurrence vs
convolution) are swept exhaustively over small ranges.
"""

import collections
import itertools
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc

import pytest

from fibcubes import counting, verify
from fibcubes.counting import (
    FIBONACCI,
    LUCAS,
    HSequence,
    binom,
    convolve,
    cycle_count,
    cycle_count_k,
    cycle_count_rec,
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
    path_count_rec,
    path_edges,
    path_edges_conv,
    t_count,
)

# --- binomial convention -----------------------------------------------------


def test_binom_small_values():
    assert binom(4, 2) == 6
    assert binom(5, 0) == 1
    assert binom(5, 5) == 1
    assert binom(5, 6) == 0


def test_binom_subset_convention_at_edge_cases():
    # Negative-size sets have exactly one subset: the empty one.
    assert binom(-1, 0) == 1
    assert binom(-7, 0) == 1
    assert binom(-1, 1) == 0  # not -1 as the signed convention would give
    assert binom(-3, 2) == 0
    assert binom(3, -1) == 0


def test_max_subset_size_is_ceiling():
    assert max_subset_size(0, 3) == 0
    assert max_subset_size(7, 1) == 4
    assert max_subset_size(6, 2) == 2
    assert max_subset_size(7, 2) == 3
    # and it is the true bound: every per-size count above it is 0
    for h in range(6):
        for n in range(25):
            for k in range(max_subset_size(n, h) + 1, n + 3):
                assert path_count_k(n, h, k) == 0, (n, h, k)
                assert cycle_count_k(n, h, k) == 0, (n, h, k)


def test_bound_check_survives_optimized_mode():
    # Under python -O an assert would vanish and the broken convention below
    # would go unnoticed; the explicit check still raises.
    code = textwrap.dedent("""
        import math
        from fibcubes import counting

        def signed_binom(m, k):
            if k < 0:
                return 0
            if m < 0:
                return (-1) ** k * math.comb(-m + k - 1, k)
            return math.comb(m, k) if k <= m else 0

        counting.binom = signed_binom
        try:
            counting.path_count(1, 2)
        except ArithmeticError:
            print("raised")
    """)
    src = os.path.dirname(os.path.dirname(counting.__file__))
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src},
                         check=True, timeout=60)
    assert out.stdout == "raised\n"


@pytest.mark.parametrize("fn,n,h", [
    (path_count, -3, 1),
    (path_count, 5, -1),
    (cycle_count, -2, 0),
    (path_edges, -4, 2),
    (cycle_edges, -4, 2),
])
def test_totals_reject_negative_arguments(fn, n, h):
    with pytest.raises(ValueError):
        fn(n, h)


# A negative h is meaningless in every per-size form, and so is a negative n
# for cycles; path_count_k keeps the binomial convention for a negative n.
@pytest.mark.parametrize("fn,args", [
    (path_count_k, (5, -2, 2)),
    (cycle_count_k, (6, -2, 2)),
    (cycle_count_k, (-3, 1, 1)),
    (max_subset_size, (5, -1)),
    (t_count, (5, -1, 1, 1)),
])
def test_per_size_forms_reject_negative_arguments(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


def test_recurrence_routes_reject_negative_n_after_warming():
    path_count_rec(30, 1)
    cycle_count_rec(30, 1)
    with pytest.raises(ValueError):
        path_count_rec(-2, 1)
    with pytest.raises(ValueError):
        cycle_count_rec(-1, 1)


def test_recurrence_routes_do_not_share_fibonacci_seeds(monkeypatch):
    # The recurrence route must stay independent of F, or the
    # path/cycle-count-recurrence identities would compare F with itself.
    expected = [(path_count_rec(n, h), cycle_count_rec(n, h))
                for h in range(5) for n in range(30)]
    with monkeypatch.context() as mp:
        mp.setattr(counting, "_fib_base", lambda h, n: 2 if n == 1 else 1)
        mp.setattr(counting, "_lucas_base", lambda h, n: h if n == 1 else 1)
        assert [(path_count_rec(n, h), cycle_count_rec(n, h))
                for h in range(5) for n in range(30)] == expected


# --- totals as walked binomial sums ---------------------------------------------

# Every n up to 60 covers n = 0, n <= h and n <= 2h+1 for each h <= 12; the
# stride adds larger n, most not divisible by h+1.
_SUM_SWEEP_N = [*range(61), *range(61, 401, 13), 400]


def test_totals_equal_per_size_sums():
    # The totals walk consecutive binomials; path_count_k and cycle_count_k
    # take each one afresh from math.comb.
    for h in range(13):
        for n in _SUM_SWEEP_N:
            ks = range(max_subset_size(n, h) + 2)
            assert path_count(n, h) == sum(path_count_k(n, h, k) for k in ks), (n, h)
            assert path_edges(n, h) == sum(k * path_count_k(n, h, k) for k in ks), (n, h)
            assert cycle_count(n, h) == sum(cycle_count_k(n, h, k) for k in ks), (n, h)
            assert cycle_edges(n, h) == sum(k * cycle_count_k(n, h, k) for k in ks), (n, h)


@pytest.mark.parametrize("h", [1, 10])
def test_closed_totals_match_recurrence_at_large_n(h):
    assert path_count(20000, h) == path_count_rec(20000, h)
    assert cycle_count(20000, h) == cycle_count_rec(20000, h)


# --- path counts --------------------------------------------------------------


@pytest.mark.parametrize("n,h,k,expected", [
    (5, 1, 2, 6),
    (8, 2, 3, 4),
    (13, 3, 3, 35),
    (0, 0, 0, 1),
    (3, 1, 0, 1),
    (4, 9, 2, 0),
])
def test_path_count_k_values(n, h, k, expected):
    assert path_count_k(n, h, k) == expected


@pytest.mark.parametrize("n,h,expected", [
    (10, 2, 60),
    (13, 1, 610),
    (6, 0, 64),
    (0, 5, 1),
    (4, 2, 6),
])
def test_path_count_values(n, h, expected):
    assert path_count(n, h) == expected


def test_path_count_rec_base_and_step():
    assert path_count_rec(3, 5) == 4  # n <= h+1: one vertex at most, n+1 sets
    assert path_count_rec(7, 2) == 19  # 13 + 6
    assert path_count_rec(22, 4) == path_count(22, 4)


def test_path_count_routes_agree():
    for h in range(11):
        for n in range(31):
            assert path_count(n, h) == path_count_rec(n, h), (n, h)


def test_path_count_k_shift_symmetry():
    # Reducing the gap by one while shrinking n by k-1 leaves counts alone.
    for h in range(1, 8):
        for n in range(25):
            for k in range(n + 2):
                if n - k + 1 >= 0:
                    assert path_count_k(n, h, k) == path_count_k(n - k + 1, h - 1, k)


# --- cycle counts ---------------------------------------------------------------


@pytest.mark.parametrize("n,h,k,expected", [
    (8, 1, 3, 16),
    (12, 2, 3, 40),
    (16, 3, 4, 4),
    (5, 2, 2, 0),
    (9, 0, 0, 1),
    (9, 4, 1, 9),
])
def test_cycle_count_k_values(n, h, k, expected):
    assert cycle_count_k(n, h, k) == expected


def test_cycle_singletons_come_from_the_general_share():
    # k = 1 takes n * C(n-h-1, 0) / 1, and C(m, 0) = 1 for every m, even
    # where n <= h makes m negative.
    for h in range(11):
        for n in range(41):
            assert cycle_count_k(n, h, 1) == n, (n, h)


@pytest.mark.parametrize("n,h,expected", [
    (7, 2, 15),
    (16, 1, 2207),
    (5, 2, 6),
    (0, 0, 1),
])
def test_cycle_count_values(n, h, expected):
    assert cycle_count(n, h) == expected


def test_cycle_count_rec_base_and_step():
    assert cycle_count_rec(3, 4) == 4  # n <= 2h+1
    assert cycle_count_rec(7, 2) == 15  # 10 + 5
    assert cycle_count_rec(20, 3) == cycle_count(20, 3)


def test_cycle_count_routes_agree():
    for h in range(11):
        for n in range(31):
            assert cycle_count(n, h) == cycle_count_rec(n, h), (n, h)


def test_cycle_division_always_exact():
    # (n/k) * C(n-hk-1, k-1) never truncates; a remainder would assert.
    for h in range(11):
        for n in range(41):
            for k in range(max_subset_size(n, h) + 3):
                assert cycle_count_k(n, h, k) >= 0


@pytest.mark.parametrize("name,fake,call", [
    ("binom", lambda m, k: 1, lambda: counting.cycle_count_k(7, 1, 2)),
    ("_diagonal_binomials", lambda m, h, last: iter([1] * (last + 1)),
     lambda: counting.cycle_count(7, 1)),
])
def test_inexact_cycle_division_raises(name, fake, call, monkeypatch):
    # With every binomial forced to 1, n * 1 / 2 leaves a remainder at an odd n.
    monkeypatch.setattr(counting, name, fake)
    with pytest.raises(ArithmeticError, match=r"^inexact division for cycle count "
                                              r"n=[17] h=1 k=2$"):
        call()


# --- sequences ------------------------------------------------------------------


@pytest.mark.parametrize("h,n,expected", [
    (2, 13, 60),
    (1, 10, 55),
    (4, 3, 1),
    (0, 5, 16),
    (10**8, 3, 1),  # inside the seed run: no h+1 window is built
])
def test_h_fibonacci_values(h, n, expected):
    assert h_fibonacci(h, n) == expected


@pytest.mark.parametrize("h,n,expected", [
    (2, 7, 10),
    (4, 1, 5),
    (3, 12, 34),
    (0, 4, 8),
    (10**8, 1, 10**8 + 1),
])
def test_h_lucas_values(h, n, expected):
    assert h_lucas(h, n) == expected


def test_sequence_prefixes():
    assert HSequence(FIBONACCI, 1).prefix(10) == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert HSequence(LUCAS, 2).prefix(8) == [3, 1, 1, 4, 5, 6, 10, 15]


def test_sequence_rejects_indices_before_start():
    with pytest.raises(ValueError):
        h_fibonacci(2, 0)
    with pytest.raises(ValueError):
        h_lucas(1, -3)


def test_sequence_rejects_bad_parameters():
    with pytest.raises(ValueError):
        counting.HSequence("nonsense", 2)
    with pytest.raises(ValueError):
        counting.HSequence(counting.FIBONACCI, -1)


def test_all_sequence_kinds_agree_across_threads():
    # Sequences share no state, so no thread can see another's partial
    # work.  Threads run the same long seed runs (a Python call per seed, so
    # a thread can be switched out midway) and read a short-seeded sequence
    # term by term while others run theirs; any state shared between
    # sequences would show up as a wrong term.
    import threading

    routes = (h_fibonacci, h_lucas,
              lambda h, n: path_count_rec(n, h), lambda h, n: cycle_count_rec(n, h))
    expected = [route(200, n) for route in routes for n in range(1, 1500)]
    fib3 = counting.HSequence(counting.FIBONACCI, 3)
    expected_fib3 = [fib3.term(n) for n in range(1, 301)]
    seen = []

    def worker():
        start.wait()
        for route in routes:
            route(200, 999)
        seen.append([h_fibonacci(3, n) for n in range(1, 301)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            seen.clear()
            start = threading.Barrier(12, timeout=30)
            threads = [threading.Thread(target=worker) for _ in range(12)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert seen == [expected_fib3] * 12
    finally:
        sys.setswitchinterval(interval)
    # and past the raced indices, once every round is done
    assert [route(200, n) for route in routes for n in range(1, 1500)] == expected


# --- extended sequences ----------------------------------------------------------


def test_extended_fib_base_cases():
    assert extended_fib(2, -2) == 1
    assert extended_fib(2, -1) == 0
    assert extended_fib(2, 0) == 0
    assert extended_fib(2, 8) == h_fibonacci(2, 8) == 9


def test_extended_lucas_base_cases():
    assert extended_lucas(3, -3) == 4
    assert extended_lucas(3, -2) == -3  # the single negative term
    assert extended_lucas(3, -1) == 0
    assert extended_lucas(3, 0) == 0
    assert extended_lucas(2, 5) == h_lucas(2, 5) == 5


def test_extended_sequences_agree_with_plain_on_positive_indices():
    for h in range(2, 11):
        for n in range(1, 41):
            assert extended_fib(h, n) == h_fibonacci(h, n)
            assert extended_lucas(h, n) == h_lucas(h, n)


def test_extended_sequences_reject_small_h_and_deep_indices():
    with pytest.raises(ValueError):
        extended_fib(1, 3)
    with pytest.raises(ValueError):
        extended_lucas(0, 1)
    with pytest.raises(ValueError):
        extended_fib(3, -4)


# --- convolution ------------------------------------------------------------------


def test_convolve_values():
    f1 = HSequence(FIBONACCI, 1)
    assert convolve(f1, f1, 6) == 38
    f5 = HSequence(FIBONACCI, 5)
    assert convolve(f5, f5, 1) == 1
    assert convolve(HSequence(FIBONACCI, 2), HSequence(LUCAS, 2), 6) == 32


_KINDS = (counting.FIBONACCI, counting.LUCAS, counting.EXTENDED_FIBONACCI,
          counting.EXTENDED_LUCAS, counting._PATH_TOTALS, counting._CYCLE_TOTALS)


@pytest.mark.parametrize("kind_a,kind_b", list(itertools.product(_KINDS, repeat=2)))
def test_convolve_matches_literal_sum(kind_a, kind_b):
    # Every ordered pair of kinds: extended Lucas goes negative, and the
    # cycle totals have the longest numerator (2h+1 coefficients).  Fresh
    # sequences each time, so b's numerator is taken before any term.
    extended = (counting.EXTENDED_FIBONACCI, counting.EXTENDED_LUCAS)
    for h in range(6):
        if h < 2 and (kind_a in extended or kind_b in extended):
            continue
        a, b = counting.HSequence(kind_a, h), counting.HSequence(kind_b, h)
        for n in range(1, 41):
            literal = sum(a.term(i) * b.term(n + 1 - i) for i in range(1, n + 1))
            assert convolve(a, counting.HSequence(kind_b, h), n) == literal, (h, n)
        if kind_a == kind_b:
            for n in range(1, 41):
                literal = sum(a.term(i) * a.term(n + 1 - i) for i in range(1, n + 1))
                assert convolve(a, a, n) == literal, (h, n)


@pytest.mark.parametrize("kind_a,kind_b", list(itertools.product(_KINDS, repeat=2)))
def test_convolve_is_symmetric(kind_a, kind_b):
    # The two orders drive different streams through different numerators.
    extended = (counting.EXTENDED_FIBONACCI, counting.EXTENDED_LUCAS)
    for h in range(6):
        if h < 2 and (kind_a in extended or kind_b in extended):
            continue
        a, b = counting.HSequence(kind_a, h), counting.HSequence(kind_b, h)
        for n in range(1, 41):
            assert convolve(a, b, n) == convolve(b, a, n), (h, n)


class _ProductCountingInt(int):
    """An int that stays one under addition and counts its products."""

    products = 0

    def __add__(self, other):
        return _ProductCountingInt(int.__add__(self, other))

    __radd__ = __add__

    def __mul__(self, other):
        _ProductCountingInt.products += 1
        return int.__mul__(self, other)

    __rmul__ = __mul__


@pytest.mark.parametrize("h", [0, 1, 2, 5])
def test_cycle_edges_conv_applies_the_numerator_once(monkeypatch, h):
    # The cost shape without timing: streamed, F * L multiplies only to
    # apply L's numerator beta at the end, never once per index.  At h = 0
    # this index is past the jump's crossover, so the jump is turned off.
    n = 200
    beta = HSequence(LUCAS, h).numerator(n - h)
    expected = cycle_edges_closed(n, h)
    _ProductCountingInt.products = 0
    assert 2 * _ProductCountingInt(3) == 6 and _ProductCountingInt.products == 1
    _ProductCountingInt.products = 0
    monkeypatch.setattr(counting, "_fib_base", lambda h, n: _ProductCountingInt(1))
    monkeypatch.setattr(counting, "_conv_jump_pays", lambda h, steps: False)
    assert cycle_edges_conv(n, h) == expected
    assert _ProductCountingInt.products <= len(beta), (_ProductCountingInt.products, beta)


@pytest.mark.parametrize("h", [0, 1, 2, 5])
@pytest.mark.parametrize("n", [200, 5000])
def test_conv_jump_multiplies_terms_only_in_its_last_step(monkeypatch, h, n):
    # The jump's squarings multiply coefficients of x^r mod P^2 alone; only
    # its last step multiplies streamed values, d per coefficient of x^r,
    # so at most d^2 = (2h+2)^2 products of terms, whatever n.
    expected = cycle_edges_closed(n, h)
    monkeypatch.setattr(counting, "_fib_base", lambda h, n: _ProductCountingInt(1))
    monkeypatch.setattr(counting, "_conv_jump_pays", lambda h, steps: True)
    _ProductCountingInt.products = 0
    assert cycle_edges_conv(n, h) == expected
    assert 0 < _ProductCountingInt.products <= (2 * h + 2) ** 2, _ProductCountingInt.products


@pytest.mark.parametrize("lucas_base", [
    lambda h, n: h if n == 1 else 1,       # the verify fault injection
    lambda h, n: 3 * n * n - h,            # no delayed-Lucas shape at all
], ids=["short-head", "quadratic"])
def test_cycle_edges_conv_follows_patched_lucas_seeds(monkeypatch, lucas_base):
    # The numerator comes from the sequence's own seeds: under a broken
    # Lucas head the convolution still equals the literal sum over the
    # broken sequence, which a hard-coded (h+1, -h) would not.
    with monkeypatch.context() as mp:
        mp.setattr(counting, "_lucas_base", lucas_base)
        for h in range(6):
            f = counting.HSequence(counting.FIBONACCI, h)
            lucas = counting.HSequence(counting.LUCAS, h)
            for n in range(h + 1, 41):
                m = n - h
                literal = sum(f.term(i) * lucas.term(m + 1 - i) for i in range(1, m + 1))
                assert cycle_edges_conv(n, h) == literal, (h, n)


def _traced_peak(fn, *args):
    """Peak bytes that tracemalloc sees allocated during fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fn", [path_count_rec, path_edges_conv, cycle_edges_conv])
def test_recurrence_and_conv_routes_keep_no_memo(fn):
    # Every term of F up to n = 20000 at h = 1 takes about 17 MB; the
    # recurrence route, F * F and F * L keep a window of h+1 terms, a few KB.
    peak = _traced_peak(fn, 20000, 1)
    assert peak < 1 << 20, f"peak {peak} bytes"


@pytest.mark.parametrize("fn,n", [(path_edges_conv, 5), (cycle_edges_conv, 10**6 + 5)])
def test_conv_cost_follows_the_index_not_h(fn, n):
    # At h = 10^6 the convolution index is 5: the numerator and the window
    # need five terms, not h+1 seeds (about 8 MB of list slots each).
    peak = _traced_peak(fn, n, 10**6)
    assert peak < 1 << 20, f"peak {peak} bytes"


class _Decided(Exception):
    pass


def test_conv_decides_on_the_jump_before_it_allocates(monkeypatch):
    # At h = 10^9 and index 10^9 + 5 the stream needs a numerator and a
    # window of h+1 terms and runs out of memory; the jump's cost rule is
    # asked first, with nothing allocated yet, and declines.
    decisions = []
    pays = counting._conv_jump_pays

    def spy(h, steps):
        decisions.append((tracemalloc.get_traced_memory()[1], pays(h, steps)))
        raise _Decided

    monkeypatch.setattr(counting, "_conv_jump_pays", spy)
    tracemalloc.start()
    try:
        with pytest.raises(_Decided):
            path_edges_conv(10**9 + 5, 10**9)
    finally:
        tracemalloc.stop()
    [(peak, jumps)] = decisions
    assert not jumps
    assert peak < 4 << 10, f"peak {peak} bytes"


ALL_KINDS = (counting.FIBONACCI, counting.LUCAS, counting.EXTENDED_FIBONACCI,
             counting.EXTENDED_LUCAS, counting._PATH_TOTALS, counting._CYCLE_TOTALS)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_terms_follow_the_literal_recurrence_through_every_phase(kind):
    # Seeds, the h+1 terms whose t(n-h-1) is still a seed, then the window.
    for h in range(2 if "extended" in kind else 0, 7):
        seq = counting.HSequence(kind, h)
        first, last = seq.min_index, seq._last
        t = {}
        for n in range(first, last + 2 * h + 4):
            t[n] = seq._seed(h, n) if n <= last else t[n - 1] + t[n - h - 1]
        literal = [t[n] for n in sorted(t)]
        assert seq.prefix(max(t)) == literal, (kind, h)
        assert [seq.term(n) for n in sorted(t)] == literal, (kind, h)


def _refuse(*args):
    raise AssertionError("this route must not run")


@pytest.mark.parametrize("kind,h", [(kind, h) for kind in ALL_KINDS for h in (0, 3, 10)
                                    if h >= 2 or "extended" not in kind])
def test_term_jumps_only_past_the_crossover(kind, h, monkeypatch):
    seq = counting.HSequence(kind, h)
    last = seq._last
    crossover = next(s for s in range(1, 1 << 16) if counting._jump_pays(h, s))
    far, near = last + crossover, last + crossover - 1
    expected = {n: seq._iterate(n) for n in (far, far + 1000, near, last + h + 2)}
    monkeypatch.setattr(counting.HSequence, "__iter__", _refuse)
    assert seq.term(far) == expected[far]
    assert seq.term(far + 1000) == expected[far + 1000]
    monkeypatch.undo()
    monkeypatch.setattr(counting.HSequence, "_jump", _refuse)
    assert seq.term(near) == expected[near]
    assert seq.term(last + h + 2) == expected[last + h + 2]


def test_term_never_jumps_where_verify_and_table_reach(monkeypatch):
    # verify and table stop at n = 40; the crossover is past 128 steps.
    monkeypatch.setattr(counting.HSequence, "_jump", _refuse)
    for kind in ALL_KINDS:
        for h in range(2 if "extended" in kind else 0, 41):
            seq = counting.HSequence(kind, h)
            assert [seq.term(n) for n in range(seq.min_index, 41)] == seq.prefix(40)
    assert not any(counting._jump_pays(h, s) for h in range(100) for s in range(129))


@pytest.mark.parametrize("fn,args,closed", [
    (path_count_rec, (10**6 + 5, 10**6), path_count),
    (cycle_count_rec, (2 * 10**6 + 7, 10**6), cycle_count),
    (h_fibonacci, (10**6, 10**6 + 6), lambda h, n: path_count(n - h - 1, h)),
])
def test_term_just_past_long_seeds_keeps_no_window(fn, args, closed):
    # A window of h+1 seeds would take about 8 MB of slots here.
    peak = _traced_peak(fn, *args)
    assert peak < 64 << 10, f"peak {peak} bytes"
    assert fn(*args) == closed(*args)


def test_iterating_past_long_seeds_keeps_only_the_new_terms():
    # F-ext at h = 4*10^5 has 4*10^5 + 1 seeds; past them only the terms
    # made since are kept, not a window of h+1 seeds.
    seq = counting.HSequence(counting.EXTENDED_FIBONACCI, 4 * 10**5)
    peak = _traced_peak(lambda: collections.deque(itertools.islice(seq, 4 * 10**5 + 4), 1))
    assert peak < 64 << 10, f"peak {peak} bytes"


H_LARGE = 10**5


@pytest.mark.parametrize("fn,n,expected", [
    (path_count, 1, 2),
    (path_edges, 1, 1),
    (cycle_count, 2 * H_LARGE + 2, 3 * H_LARGE + 4),
    (cycle_edges, 2 * H_LARGE + 2, 4 * H_LARGE + 4),
])
def test_closed_step_cost_follows_the_size_not_h(fn, n, expected):
    # A diagonal step from size k multiplies and divides min(k, h) + 1
    # factors; h+1 factors would build products near (h+1)! here.
    tracemalloc.start()
    try:
        assert fn(n, H_LARGE) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10, f"peak {peak} bytes"


def _stream_at_most(monkeypatch, limit):
    # _driven, the one stream under every convolution, may run to ``limit``.
    real = counting._driven

    def driven(a, n):
        assert n <= limit, f"streamed to {n}, past {limit}"
        return real(a, n)
    monkeypatch.setattr(counting, "_driven", driven)


@pytest.mark.parametrize("kind_a,kind_b,h", [
    (kind_a, kind_b, h) for kind_a, kind_b in [(counting.FIBONACCI, counting.FIBONACCI),
                                              (counting.FIBONACCI, counting.LUCAS),
                                              (counting.EXTENDED_LUCAS, counting._CYCLE_TOTALS)]
    for h in (0, 3, 10) if h >= 2 or "extended" not in kind_a])
def test_convolve_jumps_only_past_the_crossover(kind_a, kind_b, h, monkeypatch):
    a, b = counting.HSequence(kind_a, h), counting.HSequence(kind_b, h)
    start, d = counting._conv_start(a, b), 2 * h + 2
    crossover = next(s for s in range(1, 1 << 16) if counting._conv_jump_pays(h, s))
    far, near = start + crossover, start + crossover - 1
    stream = list(counting._convolution(a, b, far + 1000))
    # Past the crossover only the jump's 2d-1 seeds are streamed.
    _stream_at_most(monkeypatch, start + 2 * d - 2)
    assert convolve(a, b, far) == stream[far - 1]
    assert convolve(a, b, far + 1000) == stream[far + 999]
    monkeypatch.undo()
    monkeypatch.setattr(counting, "_conv_jump", _refuse)
    for n in (near, start + 2 * d, start, 1):
        assert convolve(a, b, n) == stream[n - 1], n


def test_convolve_never_jumps_where_verify_and_table_reach(monkeypatch):
    # verify and table stop at n = 40; the crossover is past 128 steps, and
    # the rows stream whatever their length.
    monkeypatch.setattr(counting, "_conv_jump", _refuse)
    monkeypatch.setattr(counting, "_jump_terms", _refuse)
    for h in range(41):
        f, lucas = HSequence(FIBONACCI, h), HSequence(LUCAS, h)
        for b in (f, lucas):
            assert [convolve(f, b, n) for n in range(1, 41)] == [
                *counting._convolution(f, b, 40)], h
    rows = [route["row"] for route in verify._routes().values() if "row" in route]
    for h in range(41):
        for row in rows:
            list(itertools.islice(row(40, h), 50))
    assert counting.path_edges_row(3000, 2)[3000] == path_edges(3000, 2)
    assert not any(counting._conv_jump_pays(h, s) for h in range(100) for s in range(129))


def test_convolve_rejects_mixed_h_and_bad_index():
    with pytest.raises(ValueError):
        convolve(HSequence(FIBONACCI, 1), HSequence(FIBONACCI, 2), 4)
    with pytest.raises(ValueError):
        convolve(HSequence(FIBONACCI, 1), HSequence(FIBONACCI, 1), 0)


# --- diagram edge counts -----------------------------------------------------------


@pytest.mark.parametrize("n,h,expected", [
    (6, 1, 38),
    (12, 2, 330),
    (0, 3, 0),
])
def test_path_edges_values(n, h, expected):
    assert path_edges(n, h) == expected


@pytest.mark.parametrize("n,h,expected", [
    (6, 1, 38),
    (4, 0, 32),
    (13, 2, 520),
])
def test_path_edges_conv_values(n, h, expected):
    assert path_edges_conv(n, h) == expected


def test_path_edges_routes_agree():
    for h in range(11):
        for n in range(41):
            assert path_edges(n, h) == path_edges_conv(n, h), (n, h)


@pytest.mark.parametrize("n,h,expected", [
    (8, 2, 32),
    (6, 1, 30),
    (15, 3, 285),
])
def test_cycle_edges_values(n, h, expected):
    assert cycle_edges(n, h) == expected


def test_cycle_edges_closed_values():
    assert cycle_edges_closed(8, 2) == 32  # 8 * F(6)
    assert cycle_edges_closed(6, 1) == 30  # 6 * F(5)
    for h in range(11):
        assert cycle_edges_closed(h + 1, h) == h + 1  # n * F(1)


def test_cycle_edges_conv_values():
    assert cycle_edges_conv(8, 2) == 32
    assert cycle_edges_conv(15, 1) == 5655
    assert cycle_edges_conv(12, 5) == 24


def test_cycle_edges_routes_agree_above_h():
    for h in range(11):
        for n in range(h + 1, 41):
            e = cycle_edges(n, h)
            assert e == cycle_edges_closed(n, h) == cycle_edges_conv(n, h), (n, h)


def test_cycle_edge_shortcuts_reject_small_n():
    with pytest.raises(ValueError):
        cycle_edges_closed(2, 2)
    with pytest.raises(ValueError):
        cycle_edges_conv(3, 3)
    # the defining sum itself is total: n singletons under the empty set
    assert cycle_edges(2, 2) == 2
    assert cycle_edges(0, 4) == 0


def test_lucas_decomposes_into_fibonacci():
    for h in range(11):
        for n in range(h + 1, 41):
            assert h_lucas(h, n + 1) == h_fibonacci(h, n) + (h + 1) * h_fibonacci(h, n - h)


# --- per-vertex membership counts ----------------------------------------------------


def test_t_count_single_membership():
    assert t_count(5, 1, 1, 3) == 1


def test_t_count_sums_to_weighted_subset_count():
    assert sum(t_count(8, 1, 3, i) for i in range(1, 9)) == 3 * path_count_k(8, 1, 3) == 60


def test_t_count_matches_direct_filter():
    # membership counts derived independently below in enumeration tests;
    # here: v5 in P_9^(2) pairs only with the 4 vertices at distance > 2
    assert t_count(9, 2, 2, 5) == 4


def _literal_t_count(n, h, k, i):
    # The split at vertex i, summed over every r: segments of i-h-1 and
    # n-i-h vertices, negative lengths clamped to the empty segment.
    left, right = max(i - h - 1, 0), max(n - i - h, 0)
    return sum(path_count_k(left, h, r) * path_count_k(right, h, k - 1 - r)
               for r in range(k))


def test_t_count_matches_its_literal_definition():
    # Covers h = 0, sizes past the structural bound (where both read 0) and
    # vertices whose segments leave no room for the other k-1 members.
    for n in range(1, 31):
        for h in range(8):
            top = max_subset_size(n, h)
            for k in range(1, top + 3):
                for i in range(1, n + 1):
                    want = _literal_t_count(n, h, k, i)
                    assert t_count(n, h, k, i) == want, (n, h, k, i)
                    assert k <= top or want == 0, (n, h, k, i)


def test_t_count_rejects_bad_vertex_or_size():
    # The vertex is checked first, then the size, then h.
    for args, message in [
        ((5, 1, 2, 0), "vertex index 0 out of range 1..5"),
        ((5, 1, 2, 6), "vertex index 6 out of range 1..5"),
        ((5, 1, 0, 3), "subset size k must be >= 1"),
        ((5, -1, 2, 3), "h must be nonnegative, got h=-1"),
        ((5, -1, 0, 6), "vertex index 6 out of range 1..5"),
        ((5, -1, 0, 3), "subset size k must be >= 1"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            t_count(*args)


# --- sequence / count bridges ---------------------------------------------------------


def test_fibonacci_terms_are_shifted_path_totals():
    for h in range(11):
        for i in range(1, 41):
            expected = path_count(max(i - h - 1, 0), h)
            assert h_fibonacci(h, i) == expected, (h, i)


def test_lucas_terms_are_shifted_cycle_totals():
    for h in range(11):
        for i in range(h + 2, 41):
            assert h_lucas(h, i) == cycle_count(i - 1, h), (h, i)
