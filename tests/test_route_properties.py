"""Property tests: every counting route agrees at random (n, h).

The sweeps in test_counting.py stop at small n; here n reaches 10^4, where
only the closed forms, the recurrences and the convolutions are cheap.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fibcubes import counting  # noqa: E402


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 10**4), h=st.integers(0, 40))
def test_routes_agree_at_random_sizes(n, h):
    assert counting.path_count(n, h) == counting.path_count_rec(n, h)
    assert counting.cycle_count(n, h) == counting.cycle_count_rec(n, h)
    assert counting.path_edges(n, h) == counting.path_edges_conv(n, h)
    if n > h:
        edges = counting.cycle_edges(n, h)
        assert edges == counting.cycle_edges_closed(n, h) == counting.cycle_edges_conv(n, h)
