"""Property tests: every counting route agrees at random (n, h).

The sweeps in test_counting.py stop at small n; here n reaches 10^4, where
only the closed forms, the recurrences and the convolutions are cheap.
"""

import collections
from itertools import islice

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fibcubes import counting, verify  # noqa: E402


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 10**4), h=st.integers(0, 40))
def test_routes_agree_at_random_sizes(n, h):
    assert counting.path_count(n, h) == counting.path_count_rec(n, h)
    assert counting.cycle_count(n, h) == counting.cycle_count_rec(n, h)
    assert counting.path_edges(n, h) == counting.path_edges_conv(n, h)
    if n > h:
        edges = counting.cycle_edges(n, h)
        assert edges == counting.cycle_edges_closed(n, h) == counting.cycle_edges_conv(n, h)


# Each row of the route table against the closed scalar of its quantity; a
# few cells per row, since the per-cell closed forms are quadratic in n.
ROUTES = verify._routes()
_PAIRS = [(quantity, route["row"], ROUTES[quantity, "closed"]["scalar"])
          for (quantity, _), route in ROUTES.items() if "row" in route]
ROWS = [(row, cell) for quantity, row, cell in _PAIRS if not quantity.endswith("-k")]
SIZE_ROWS = [(rows, cell) for quantity, rows, cell in _PAIRS if quantity.endswith("-k")]


@settings(max_examples=60, deadline=None)
@given(n_max=st.integers(0, 2000), h=st.integers(0, 40), data=st.data())
def test_rows_match_cells_at_random_sizes(n_max, h, data):
    ns = data.draw(st.lists(st.integers(0, n_max), max_size=3)) + [n_max]
    for row, cell in ROWS:
        values = row(n_max, h)
        assert len(values) == n_max + 1, row.__name__
        assert [values[n] for n in ns] == [cell(n, h) for n in ns], row.__name__
    sizes = counting.max_subset_size(n_max, h) + 3  # rows k = 0..max_subset_size + 2
    for rows, cell in SIZE_ROWS:
        for k, values in enumerate(islice(rows(n_max, h), sizes)):
            assert len(values) == n_max + 1, (rows.__name__, k)
            assert [values[n] for n in ns] == [cell(n, h, k) for n in ns], (rows.__name__, k)


KINDS = (counting.FIBONACCI, counting.LUCAS, counting.EXTENDED_FIBONACCI,
         counting.EXTENDED_LUCAS, counting._PATH_TOTALS, counting._CYCLE_TOTALS)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(KINDS), h=st.integers(0, 12), n=st.integers(-12, 3000))
@example(kind=counting.FIBONACCI, h=0, n=3000)
@example(kind=counting.EXTENDED_LUCAS, h=2, n=-1)  # the jump's seeds hold t(-1) = -2
@example(kind=counting.EXTENDED_LUCAS, h=12, n=3000)
@example(kind=counting._CYCLE_TOTALS, h=12, n=3000)
def test_jump_equals_iteration(kind, h, n):
    # The jump starts h below the last seed; below that it is not defined.
    if kind in (counting.EXTENDED_FIBONACCI, counting.EXTENDED_LUCAS):
        h = max(h, 2)
    seq = counting.HSequence(kind, h)
    n = max(n, seq._last - h)
    assert seq._jump(n) == seq._iterate(n)


@settings(max_examples=80, deadline=None)
@given(kind_a=st.sampled_from(KINDS), kind_b=st.sampled_from(KINDS), h=st.integers(0, 12),
       n=st.integers(1, 3000))
@example(kind_a=counting.FIBONACCI, kind_b=counting.FIBONACCI, h=0, n=3000)  # (x - 2)^2
@example(kind_a=counting.FIBONACCI, kind_b=counting.LUCAS, h=0, n=2999)
@example(kind_a=counting.EXTENDED_LUCAS, kind_b=counting.EXTENDED_LUCAS, h=2, n=1)  # first index
@example(kind_a=counting.FIBONACCI, kind_b=counting.LUCAS, h=12, n=3000)
@example(kind_a=counting._CYCLE_TOTALS, kind_b=counting.EXTENDED_LUCAS, h=12, n=3000)
def test_conv_jump_equals_iteration(kind_a, kind_b, h, n):
    # Every pair of kinds that convolve accepts: equal h, and h >= 2 for
    # the extended kinds.  The jump serves from the first index where the
    # convolution obeys P(E)^2 g = 0; below that it is not defined.
    if "extended" in kind_a or "extended" in kind_b:
        h = max(h, 2)
    a, b = counting.HSequence(kind_a, h), counting.HSequence(kind_b, h)
    n = max(n, counting._conv_start(a, b))
    streamed = collections.deque(counting._convolution(a, b, n), maxlen=1)
    assert counting._conv_jump(a, b, n) == streamed[0]
