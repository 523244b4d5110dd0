"""Adjacency of path and cycle powers.

The closed forms checked here (window edge count, completeness threshold,
circular-distance form of cycle adjacency) are all independently derivable
from the |j-i| definition, which is what the double loops below recompute.
"""

import copy
import itertools
import pickle
import tracemalloc

import pytest

from fibcubes.enumeration import VertexMask, is_independent
from fibcubes.graphs import CYCLE, PATH, GapGraph, dot_lines, edgelist_lines


def test_small_path_power_edges():
    g = GapGraph(PATH, 4, 2)
    assert list(g.iter_edges()) == [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]


@pytest.mark.parametrize("kind", [PATH, CYCLE])
def test_edges_match_double_loop_over_is_edge(kind):
    # iter_edges() generates the window and wrap pairs directly; is_edge is the
    # literal definition.
    for n in range(31):
        for h in range(n + 2):
            g = GapGraph(kind, n, h)
            literal = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                       if g.is_edge(i, j)]
            assert list(g.iter_edges()) == literal, (n, h)


def test_gap_graph_value_semantics():
    g = GapGraph(PATH, 4, 1)
    assert g == GapGraph(kind=PATH, n=4, h=1)
    assert g != GapGraph(CYCLE, 4, 1) and g != GapGraph(PATH, 5, 1) and g != GapGraph(PATH, 4, 2)
    assert g != (PATH, 4, 1) and (PATH, 4, 1) != g and g != [PATH, 4, 1] and g != "path"
    assert hash(g) == hash(GapGraph(PATH, 4, 1)) == hash((PATH, 4, 1))
    assert len({g, GapGraph(PATH, 4, 1), GapGraph(CYCLE, 4, 1)}) == 2
    assert repr(g) == "GapGraph(kind='path', n=4, h=1)"
    assert GapGraph.__match_args__ == ("kind", "n", "h")
    for name in ("kind", "n", "h"):
        with pytest.raises(AttributeError):
            setattr(g, name, 1)
    with pytest.raises(AttributeError):
        del g.h
    assert not hasattr(g, "__dict__")
    twins = [pickle.loads(pickle.dumps(g, protocol))
             for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in [*twins, copy.copy(g), copy.deepcopy(g)]:
        assert type(twin) is GapGraph and twin == g and hash(twin) == hash(g)
        assert repr(twin) == repr(g) and list(twin.iter_edges()) == list(g.iter_edges())
        with pytest.raises(AttributeError):
            twin.n = 5
    # is_independent keeps adjacency rows in a slot that is not a field: a
    # graph that has them stays equal to a fresh one, and copies drop them.
    assert g._rows is None
    assert is_independent(g, VertexMask.from_string("1010"))
    assert g._rows == {1: 0b0010, 3: 0b1010}
    fresh = GapGraph(PATH, 4, 1)
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    twins = [pickle.loads(pickle.dumps(g, protocol))
             for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in [*twins, copy.copy(g), copy.deepcopy(g)]:
        assert type(twin) is GapGraph and twin == g and hash(twin) == hash(g)
        assert twin._rows is None
    for name in ("kind", "n", "h", "_rows"):
        with pytest.raises(AttributeError):
            setattr(g, name, 1)
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert not hasattr(g, "__dict__")
    assert g._rows == {1: 0b0010, 3: 0b1010}


def test_zero_power_is_edgeless():
    assert list(GapGraph(PATH, 7, 0).iter_edges()) == []
    assert list(GapGraph(CYCLE, 7, 0).iter_edges()) == []


def test_plain_cycle():
    assert list(GapGraph(CYCLE, 5, 1).iter_edges()) == [(1, 2), (1, 5), (2, 3), (3, 4), (4, 5)]


def test_wrap_adjacency_only_on_cycles():
    assert GapGraph(CYCLE, 7, 2).is_edge(1, 6)  # |6-1| = 5 >= 7-2
    assert not GapGraph(PATH, 7, 2).is_edge(1, 6)


def test_irreflexive():
    assert not GapGraph(PATH, 5, 1).is_edge(3, 3)
    assert not GapGraph(CYCLE, 5, 4).is_edge(2, 2)


def test_index_range_enforced():
    g = GapGraph(PATH, 5, 1)
    with pytest.raises(ValueError):
        g.is_edge(0, 3)
    with pytest.raises(ValueError):
        g.is_edge(1, 6)


def test_constructor_validation():
    with pytest.raises(ValueError):
        GapGraph("tree", 4, 1)
    with pytest.raises(ValueError):
        GapGraph(PATH, -1, 1)
    with pytest.raises(ValueError):
        GapGraph(PATH, 4, -2)


def test_path_edge_count_closed_form():
    # n*h - h*(h+1)/2 once the window fits: every distance d in 1..h
    # occurs n-d times.
    for h in range(11):
        for n in range(2 * h + 1, 51):
            expected = n * h - h * (h + 1) // 2
            assert sum(1 for _ in GapGraph(PATH, n, h).iter_edges()) == expected, (n, h)


def test_small_cycle_powers_are_complete():
    for h in range(7):
        for n in range(2 * h + 2):
            g = GapGraph(CYCLE, n, h)
            assert sum(1 for _ in g.iter_edges()) == n * (n - 1) // 2, (n, h)


def test_cycle_adjacency_is_circular_distance():
    for h in range(11):
        for n in range(1, 41):
            g = GapGraph(CYCLE, n, h)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    d = j - i
                    assert g.is_edge(i, j) == (min(d, n - d) <= h)


def test_path_edges_subset_of_cycle_edges():
    for h in range(6):
        for n in range(26):
            p = set(GapGraph(PATH, n, h).iter_edges())
            c = set(GapGraph(CYCLE, n, h).iter_edges())
            assert p <= c, (n, h)


def test_edges_sorted_without_duplicates():
    for g in (GapGraph(PATH, 9, 3), GapGraph(CYCLE, 9, 3)):
        es = list(g.iter_edges())
        assert es == sorted(set(es))
        assert all(i < j for i, j in es)


# --- exports -----------------------------------------------------------------


def test_edgelist_text():
    assert list(edgelist_lines(GapGraph(PATH, 3, 1))) == ["1 2\n", "2 3\n"]
    assert list(edgelist_lines(GapGraph(PATH, 2, 0))) == []


def test_graph_dot():
    dot = "".join(dot_lines(GapGraph(CYCLE, 3, 1)))
    assert dot == (
        "graph cycle_3_1 {\n"
        "  v1;\n  v2;\n  v3;\n"
        "  v1 -- v2;\n  v1 -- v3;\n  v2 -- v3;\n"
        "}\n"
    )


def test_edges_and_lines_are_made_as_they_are_wanted():
    g = GapGraph(PATH, 10**9, 2)  # about 2*10^9 edges, far too many to list
    assert list(itertools.islice(g.iter_edges(), 3)) == [(1, 2), (1, 3), (2, 3)]
    assert list(itertools.islice(edgelist_lines(g), 2)) == ["1 2\n", "1 3\n"]
    assert next(dot_lines(g)) == "graph path_1000000000_2 {\n"


@pytest.mark.parametrize("kind", [PATH, CYCLE])
def test_text_exports_join_their_lines(kind):
    for n in range(7):
        for h in range(4):
            g = GapGraph(kind, n, h)
            edges = list(g.iter_edges())
            lines = list(edgelist_lines(g))
            assert "".join(lines).splitlines(keepends=True) == lines
            assert [tuple(map(int, line.split())) for line in lines] == edges
            lines = list(dot_lines(g))
            assert "".join(lines).splitlines(keepends=True) == lines
            assert lines[1:n + 1] == [f"  v{i};\n" for i in range(1, n + 1)]
            assert lines[n + 1:-1] == [f"  v{i} -- v{j};\n" for i, j in edges]


def test_edge_count_lists_no_edges():
    # Counting the generated pairs holds none of them.
    tracemalloc.start()
    try:
        assert sum(1 for _ in GapGraph(CYCLE, 10**5, 2).iter_edges()) == 2 * 10**5
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10, f"peak {peak} bytes"
