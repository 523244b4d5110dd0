"""Inclusion diagrams: construction, rank structure, and exports."""

import json
import os
import subprocess
import sys
import textwrap

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


def test_build_cube_raises_on_family_not_subset_closed(monkeypatch):
    # {0, 0b11} lacks 0b01 and 0b10, so deleting a bit of 0b11 leaves it.
    monkeypatch.setattr(cube, "iter_masks", lambda g, cap: [0, 0b11])
    with pytest.raises(ArithmeticError, match="not subset-closed at mask 0x3"):
        build_cube(GapGraph(PATH, 2, 0))


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


# --- the cover rows and the covers view ---------------------------------------


def _literal_covers(c):
    # Every (subset, set) pair one bit deletion apart, sorted: the definition.
    pos = {m: i for i, m in enumerate(c.masks)}
    return sorted((pos[m ^ (1 << b)], i) for i, m in enumerate(c.masks)
                  for b in range(c.source.n) if m >> b & 1)


def test_cover_rows_are_ascending_and_complete():
    for c in _cubes_up_to(9, 3):
        starts, uppers = c._starts, c._uppers
        assert starts.typecode == uppers.typecode == "I"
        assert len(starts) == c.vertex_count + 1
        assert starts[0] == 0 and starts[-1] == len(uppers) == c.cover_count
        rows = [list(uppers[a:b]) for a, b in zip(starts, starts[1:])]
        assert all(row == sorted(set(row)) for row in rows), c
        assert [(lo, hi) for lo, row in enumerate(rows) for hi in row] == _literal_covers(c)


def test_covers_view_is_the_sorted_pair_list():
    for c in _cubes_up_to(9, 3):
        pairs = _literal_covers(c)
        covers = c.covers
        assert len(covers) == len(pairs) == c.cover_count
        assert list(covers) == pairs  # iteration is lexicographic
        assert covers == pairs and pairs == covers and covers == tuple(pairs)
        assert covers == covers[:]
        for i in range(len(pairs)):
            assert covers[i] == pairs[i]
            assert covers[-1 - i] == pairs[-1 - i]
        m = len(pairs)
        for a, b, step in ((0, m // 2, 1), (m // 3, None, 1), (-3, None, 1),
                           (None, None, 2), (None, None, -1), (m - 1, 0, -3), (5, 2, 1)):
            assert covers[a:b:step] == pairs[a:b:step], (c, a, b, step)
        for i in (m, -m - 1):
            with pytest.raises(IndexError):
                covers[i]


def test_covers_view_inequality():
    c = build_cube(GapGraph(PATH, 4, 1))
    pairs = list(c.covers)
    assert c.covers != pairs[:-1]
    assert c.covers != [list(p) for p in pairs]
    assert c.covers != pairs[:-1] + [(pairs[-1][0], pairs[-1][1] + 1)]
    assert c.covers != 5 and c.covers != "covers"
    assert c.covers == build_cube(GapGraph(PATH, 4, 1)).covers
    with pytest.raises(TypeError):
        hash(c.covers)


def test_covers_view_of_the_empty_and_star_diagrams():
    for kind in (PATH, CYCLE):
        c = build_cube(GapGraph(kind, 0, 2))
        assert list(c._starts) == [0, 0] and len(c._uppers) == 0
        assert len(c.covers) == 0 and list(c.covers) == [] and c.covers == []
        assert c.covers[:] == [] and c.covers[-5:] == []
        with pytest.raises(IndexError):
            c.covers[0]
    for h in range(5):
        for n in range(1, 2 * h + 2):
            c = build_cube(GapGraph(CYCLE, n, h))
            star = [(0, i) for i in range(1, n + 1)]
            assert c.covers == star and list(c.covers) == star
            assert c.covers[-1] == (0, n) and c.covers[1:] == star[1:]
            assert list(c._starts) == [0] + [n] * (n + 1)


def test_exports_do_not_depend_on_the_chunk_size(monkeypatch):
    cubes = list(_cubes_up_to(7, 2))
    want = [(c.to_dot(), c.to_json(), c.to_edgelist_text()) for c in cubes]
    for size in (1, 2, 3):
        monkeypatch.setattr(cube, "_CHUNK_CHARS", size)
        assert [(c.to_dot(), c.to_json(), c.to_edgelist_text()) for c in cubes] == want


@pytest.mark.parametrize("size", [1, 2, 7, None])
@pytest.mark.parametrize("sep", ["", ",", ",\n    "])
def test_chunks_concatenate_to_the_whole(size, sep, monkeypatch):
    # Empty pieces are pieces too: the chunks, written one after another,
    # are the sep-joined text whatever the chunk size.
    if size is not None:
        monkeypatch.setattr(cube, "_CHUNK_CHARS", size)
    long = "z" * (cube._CHUNK_CHARS + 3)
    for pieces in (["", "x", "y"], ["a", "", "", "b"], [""] * 3, [], ["ab", long, "", "c"],
                   [str(i) for i in range(50)]):
        assert "".join(cube._chunks(pieces, sep)) == sep.join(pieces)
        assert "".join(cube._chunks(iter(pieces), sep)) == sep.join(pieces)


def test_cover_count_reads_no_pairs(monkeypatch):
    c = build_cube(GapGraph(CYCLE, 9, 1))

    def boom(*args):
        raise AssertionError("a cover pair was made")

    monkeypatch.setattr(cube._Covers, "__iter__", boom)
    monkeypatch.setattr(cube._Covers, "__getitem__", boom)
    assert len(c.covers) == c.cover_count == cycle_edges(9, 1)
    c.to_dot(), c.to_json(), c.to_edgelist_text()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_edgelist_export_peak_memory(tmp_path):
    # Peak memory of the export of path 16 0 (65,536 vertices, 524,288
    # covers) above that of path 1 0, both in this interpreter, so that its
    # own footprint cancels: about 91 MB when covers were a list of pair
    # tuples, about 25 MB as row arrays (Python 3.10 and 3.11).
    code = textwrap.dedent("""
        import sys
        from fibcubes.cli import main
        rc = main(["cube", "path", sys.argv[2], "0", "--format", "edgelist", "--out", sys.argv[1]])
        with open("/proc/self/status") as fh:
            hwm = next(line for line in fh if line.startswith("VmHWM:"))
        print(rc, hwm.split()[1])
    """)
    src = os.path.dirname(os.path.dirname(cube.__file__))

    def peak_kb(n):
        out = tmp_path / f"cube{n}.txt"
        run = subprocess.run([sys.executable, "-c", code, str(out), str(n)],
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
        rc, kb = run.stdout.split()
        assert rc == "0"
        with open(out) as fh:
            assert sum(1 for _ in fh) == path_edges(n, 0)
        return int(kb)

    growth = (peak_kb(16) - peak_kb(1)) / 1024
    assert growth < 45, f"export peak {growth:.1f} MB above the baseline"
