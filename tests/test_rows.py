"""Table rows: each row function equals its per-cell route at every n.

``fibcubes table`` renders a row of a count table from one linear pass
(a sequence prefix or the streamed convolution), or takes the per-size rows
k = 0, 1, 2, ... from a stream made by addition alone; the per-cell closed
forms stay the reference here.
"""

from itertools import islice

import pytest

from fibcubes import counting, verify
from fibcubes.counting import max_subset_size, path_edges_row

# Every row of the route table against the closed scalar of its quantity;
# a "-k" quantity's rows are the rows k = 0, 1, ... of one size each.
ROUTES = verify._routes()
_PAIRS = [(quantity, route["row"], ROUTES[quantity, "closed"]["scalar"])
          for (quantity, _), route in ROUTES.items() if "row" in route]
TOTAL_ROWS = [(row, cell) for quantity, row, cell in _PAIRS if not quantity.endswith("-k")]
SIZE_ROWS = [(rows, cell) for quantity, rows, cell in _PAIRS if quantity.endswith("-k")]


def _check_rows(n_max, h):
    ns = range(n_max + 1)
    for row, cell in TOTAL_ROWS:
        assert row(n_max, h) == [cell(n, h) for n in ns], (row.__name__, n_max, h)
    sizes = max_subset_size(n_max, h) + 3  # rows k = 0..max_subset_size + 2
    for rows, cell in SIZE_ROWS:
        for k, row in enumerate(islice(rows(n_max, h), sizes)):
            assert row == [cell(n, h, k) for n in ns], (rows.__name__, n_max, h, k)


@pytest.mark.parametrize("n_max", [0, 1, 2, 5, 17, 80])
def test_rows_match_cells(n_max):
    for h in range(13):
        _check_rows(n_max, h)


@pytest.mark.parametrize("h", [10**5, 10**9])
def test_rows_match_cells_at_huge_h(h):
    for n_max in range(15):
        _check_rows(n_max, h)


@pytest.mark.parametrize("row", [r for r, _ in TOTAL_ROWS])
def test_rows_reject_negative_h_and_are_empty_below_n_0(row):
    with pytest.raises(ValueError):
        row(3, -1)
    assert row(-1, 2) == []


@pytest.mark.parametrize("rows", [r for r, _ in SIZE_ROWS])
def test_size_rows_reject_negative_h_at_the_first_row_and_are_empty_below_n_0(rows):
    with pytest.raises(ValueError):
        next(rows(3, -1))
    assert list(islice(rows(-1, 2), 5)) == [[]] * 5


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
