"""Inclusion diagrams: construction, rank structure, and exports."""

import json

import pytest

from fibcubes import cube
from fibcubes.counting import cycle_count, cycle_edges, path_count, path_edges, t_count
from fibcubes.cube import build_cube, cover_count
from fibcubes.enumeration import CapacityError, VertexMask
from fibcubes.graphs import CYCLE, PATH, GapGraph


def test_small_path_cube_shape():
    c = build_cube(GapGraph(PATH, 4, 2))
    assert c.vertex_count == 6
    assert c.cover_count == 6


def test_small_cycle_cube_shape():
    c = build_cube(GapGraph(CYCLE, 4, 1))
    assert c.vertex_count == 7
    assert c.cover_count == 8


def test_zero_gap_gives_boolean_lattice():
    for n in range(8):
        c = build_cube(GapGraph(PATH, n, 0))
        assert c.vertex_count == 2 ** n
        assert c.cover_count == (n * 2 ** (n - 1) if n else 0)


def test_vertices_grouped_by_rank_then_numeric():
    c = build_cube(GapGraph(PATH, 5, 1))
    keys = [(v.size(), v.bits) for v in c.vertices]
    assert keys == sorted(keys)


def test_covers_differ_in_exactly_one_bit():
    for g in (GapGraph(PATH, 8, 1), GapGraph(CYCLE, 9, 2)):
        c = build_cube(g)
        assert c.covers == sorted(set(c.covers))
        for lo, hi in c.covers:
            a, b = c.vertices[lo], c.vertices[hi]
            assert a.size() + 1 == b.size()
            assert a.bits & b.bits == a.bits  # proper subset
            assert (a.bits ^ b.bits).bit_count() == 1


def test_rank_profile_columns():
    assert build_cube(GapGraph(PATH, 5, 1)).rank_profile() == {0: 1, 1: 5, 2: 6, 3: 1}
    assert build_cube(GapGraph(CYCLE, 6, 2)).rank_profile() == {0: 1, 1: 6, 2: 3}
    assert build_cube(GapGraph(PATH, 0, 4)).rank_profile() == {0: 1}


def test_hamming_pairs_equal_covers():
    assert build_cube(GapGraph(PATH, 6, 1)).hamming_pairs() == 38
    assert build_cube(GapGraph(CYCLE, 5, 1)).hamming_pairs() == 15
    assert build_cube(GapGraph(PATH, 1, 0)).hamming_pairs() == 1
    for kind in (PATH, CYCLE):
        for h in range(4):
            for n in range(11):
                c = build_cube(GapGraph(kind, n, h))
                assert c.hamming_pairs() == c.cover_count, (kind, n, h)


def test_vertex_filter_count():
    c = build_cube(GapGraph(PATH, 5, 1))
    assert c.vertex_filter_count(2, 1) == 3  # {1,3}, {1,4}, {1,5}
    assert c.vertex_filter_count(1, 4) == 1
    with pytest.raises(ValueError):
        c.vertex_filter_count(1, 6)


def test_vertex_filter_count_matches_membership_formula():
    c = build_cube(GapGraph(PATH, 9, 2))
    for k in range(1, 4):
        for i in range(1, 10):
            assert c.vertex_filter_count(k, i) == t_count(9, 2, k, i)


def test_counts_match_closed_forms():
    for h in range(4):
        for n in range(12):
            cp = build_cube(GapGraph(PATH, n, h))
            assert cp.vertex_count == path_count(n, h)
            assert cp.cover_count == path_edges(n, h)
            cc = build_cube(GapGraph(CYCLE, n, h))
            assert cc.vertex_count == cycle_count(n, h)
            assert cc.cover_count == cycle_edges(n, h)


def test_complete_cycle_powers_give_stars():
    for h in range(5):
        for n in range(2 * h + 2):
            c = build_cube(GapGraph(CYCLE, n, h))
            assert c.vertex_count == n + 1
            assert c.cover_count == n


def test_capacity_error_propagates():
    with pytest.raises(CapacityError):
        build_cube(GapGraph(PATH, 30, 1))
    with pytest.raises(CapacityError):
        cover_count(GapGraph(CYCLE, 26, 2))


def test_cover_count_streams_same_totals():
    for kind in (PATH, CYCLE):
        for h in range(4):
            for n in range(12):
                g = GapGraph(kind, n, h)
                assert cover_count(g) == build_cube(g).cover_count


def test_cover_count_raises_on_family_not_subset_closed(monkeypatch):
    # {0b11, 0b01} lacks 0b10 and the empty set, so two bit deletions leave it.
    monkeypatch.setattr(cube, "iter_masks", lambda g, cap: [0b01, 0b11])
    with pytest.raises(ArithmeticError, match="not subset-closed"):
        cover_count(GapGraph(PATH, 2, 0))


def test_index_of():
    c = build_cube(GapGraph(PATH, 4, 1))
    for i, v in enumerate(c.vertices):
        assert c.index_of(v) == i
    # rank-2 block starts at 5 and is numerically ordered: 1010, 1001, 0101
    assert c.index_of(VertexMask.from_string("1001")) == 6


# --- exports -----------------------------------------------------------------


def test_dot_export():
    dot = build_cube(GapGraph(PATH, 2, 1)).to_dot()
    assert dot == (
        "graph cube_path_2_1 {\n"
        '  0 [label="00"];\n'
        '  1 [label="10"];\n'
        '  2 [label="01"];\n'
        "  0 -- 1;\n"
        "  0 -- 2;\n"
        "}\n"
    )


def test_json_export():
    payload = json.loads(build_cube(GapGraph(CYCLE, 3, 1)).to_json())
    assert payload == {
        "kind": "cycle",
        "n": 3,
        "h": 1,
        "ranks": [["000"], ["100", "010", "001"]],
        "covers": [[0, 1], [0, 2], [0, 3]],
    }


def test_edgelist_export():
    text = build_cube(GapGraph(PATH, 2, 1)).to_edgelist_text()
    assert text == "0 1\n0 2\n"


def _cubes_up_to(n_max, h_max):
    for kind in (PATH, CYCLE):
        for h in range(h_max + 1):
            for n in range(n_max + 1):
                yield build_cube(GapGraph(kind, n, h))


def test_json_export_is_the_indented_json_dumps_layout():
    for c in _cubes_up_to(9, 3):
        assert c.to_json() == json.dumps(c.to_json_dict(), indent=2) + "\n", c
    empty = build_cube(GapGraph(CYCLE, 0, 2)).to_json()
    assert '\n  "covers": []\n' in empty
    assert json.loads(empty)["ranks"] == [[""]]


def test_dot_labels_are_the_vertex_strings():
    for c in _cubes_up_to(9, 3):
        labels = [line.split('"')[1] for line in c.to_dot().splitlines() if "label=" in line]
        assert labels == [c.vertices[i].to_string() for i in range(c.vertex_count)], c


def test_vertices_sequence_matches_masks_and_positions():
    for c in _cubes_up_to(9, 3):
        assert len(c.vertices) == c.vertex_count == len(c.masks)
        for i in range(c.vertex_count):
            v = c.vertices[i]
            assert v == VertexMask(c.source.n, c.masks[i])
            assert c.index_of(v) == i
        assert list(c.vertices) == c.vertices[:]


def test_vertices_are_made_on_access(monkeypatch):
    made = []

    def counting_mask(n, bits):
        made.append(bits)
        return VertexMask(n, bits)

    monkeypatch.setattr(cube, "VertexMask", counting_mask)
    c = build_cube(GapGraph(PATH, 12, 1))
    c.to_dot(), c.to_json(), c.to_edgelist_text(), c.rank_profile(), c.hamming_pairs()
    assert made == []
    assert len(c.vertices) == 377
    assert c.vertices[5].bits == c.masks[5]
    assert made == [c.masks[5]]
