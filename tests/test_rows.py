"""Table rows: each row function equals its per-cell route at every n.

``fibcubes table`` renders a row of a count table from one linear pass
(a sequence prefix, the streamed convolution, or a binomial stepped along
n); the per-cell closed forms stay the reference here.
"""

import pytest

from fibcubes import counting
from fibcubes.counting import (
    cycle_count,
    cycle_count_k,
    cycle_count_k_row,
    cycle_count_row,
    cycle_edges,
    cycle_edges_row,
    max_subset_size,
    path_count,
    path_count_k,
    path_count_k_row,
    path_count_row,
    path_edges,
    path_edges_row,
)

TOTAL_ROWS = [
    (path_count_row, path_count),
    (cycle_count_row, cycle_count),
    (path_edges_row, path_edges),
    (cycle_edges_row, cycle_edges),
]
SIZE_ROWS = [(path_count_k_row, path_count_k), (cycle_count_k_row, cycle_count_k)]


def _check_rows(n_max, h):
    ns = range(n_max + 1)
    for row, cell in TOTAL_ROWS:
        assert row(n_max, h) == [cell(n, h) for n in ns], (row.__name__, n_max, h)
    for k in range(-1, max_subset_size(n_max, h) + 3):
        for row, cell in SIZE_ROWS:
            assert row(n_max, h, k) == [cell(n, h, k) for n in ns], (row.__name__, n_max, h, k)


@pytest.mark.parametrize("n_max", [0, 1, 2, 5, 17, 80])
def test_rows_match_cells(n_max):
    for h in range(13):
        _check_rows(n_max, h)


@pytest.mark.parametrize("h", [10**5, 10**9])
def test_rows_match_cells_at_huge_h(h):
    for n_max in range(15):
        _check_rows(n_max, h)


@pytest.mark.parametrize("row", [r for r, _ in TOTAL_ROWS] + [r for r, _ in SIZE_ROWS])
def test_rows_reject_negative_h_and_are_empty_below_n_0(row):
    args = (2,) if row in (path_count_k_row, cycle_count_k_row) else ()
    with pytest.raises(ValueError):
        row(3, -1, *args)
    assert row(-1, 2, *args) == []


def test_cycle_size_row_checks_each_division(monkeypatch):
    # A broken binomial makes n * C(n-h*k-1, k-1) indivisible by k at n = 1.
    monkeypatch.setattr(counting, "_binomial_row", lambda m, k, count: [1] * count)
    with pytest.raises(ArithmeticError, match="n=1 h=0 k=2"):
        cycle_count_k_row(3, 0, 2)


@pytest.mark.parametrize("fib_base", [
    lambda h, n: 2 if n == 1 else 1,       # the verify fault injection
    lambda h, n: 3 * n * n - h,            # no delayed-Fibonacci shape at all
], ids=["long-head", "quadratic"])
def test_path_edges_row_follows_patched_fibonacci_seeds(monkeypatch, fib_base):
    # Under broken seeds F's numerator is no longer 1, so the row applies it
    # at every index; it must still be the literal self-convolution.
    monkeypatch.setattr(counting, "_fib_base", fib_base)
    for h in range(6):
        f = counting.HSequence(counting.FIBONACCI, h)
        literal = [sum(f.term(i) * f.term(n + 1 - i) for i in range(1, n + 1))
                   for n in range(41)]
        assert path_edges_row(40, h) == literal, h
