"""Inclusion diagrams: construction, rank structure, and exports."""

import itertools
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter, deque

import pytest

from fibcubes import cli, cube
from fibcubes.counting import cycle_count, cycle_edges, path_count, path_edges
from fibcubes.cube import build_cube, cover_count
from fibcubes.enumeration import CapacityError, VertexMask, gap_check, iter_masks
from fibcubes.graphs import CYCLE, PATH, GapGraph


def test_small_path_cube_shape():
    c = build_cube(GapGraph(PATH, 4, 2))
    assert c.vertex_count == 6
    assert len(list(c.covers)) == c.cover_count == 6


def test_small_cycle_cube_shape():
    c = build_cube(GapGraph(CYCLE, 4, 1))
    assert c.vertex_count == 7
    assert len(list(c.covers)) == c.cover_count == 8


def test_zero_gap_gives_boolean_lattice():
    for n in range(8):
        c = build_cube(GapGraph(PATH, n, 0))
        assert c.vertex_count == 2 ** n
        assert len(list(c.covers)) == c.cover_count == (n * 2 ** (n - 1) if n else 0)


def test_vertices_grouped_by_rank_then_numeric():
    c = build_cube(GapGraph(PATH, 5, 1))
    keys = [(v.bits.bit_count(), v.bits) for v in c.vertices]
    assert keys == sorted(keys)


def test_covers_differ_in_exactly_one_bit():
    for g in (GapGraph(PATH, 8, 1), GapGraph(CYCLE, 9, 2)):
        c = build_cube(g)
        pairs = list(c.covers)
        assert pairs == sorted(set(pairs))
        for lo, hi in pairs:
            a, b = c.vertices[lo], c.vertices[hi]
            assert a.bits.bit_count() + 1 == b.bits.bit_count()
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
                assert c.hamming_pairs() == len(list(c.covers)), (kind, n, h)


def _cube_from_ranks(n, ranks):
    """The cube of path n 0 as a broken rank generator would build it, one
    that yields the lists ``ranks``: the only way to a family that is not
    the independent sets of a gap graph."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cube, "_ranks", lambda *graph: iter(ranks))
        return build_cube(GapGraph(PATH, n, 0))


def _hamming_pairs_reference(masks):
    return sum(1 for a, b in itertools.combinations(masks, 2) if (a ^ b).bit_count() == 1)


def test_hamming_pairs_match_the_pairwise_definition():
    for kind in (PATH, CYCLE):
        for h in range(4):
            for n in range(10):
                c = build_cube(GapGraph(kind, n, h))
                assert c.hamming_pairs() == _hamming_pairs_reference(c.masks), (kind, n, h)
    # Families that are not down-closed: no pair, then one.
    for ranks, pairs in (([[0], [], [0b11]], 0), ([[], [0b01], [0b11]], 1)):
        assert _cube_from_ranks(2, ranks).hamming_pairs() == pairs
    # A repeated mask counts its pairs once per copy, so the flips no
    # longer pair up.
    with pytest.raises(ArithmeticError, match="^odd Hamming pair count 3$"):
        _cube_from_ranks(1, [[0], [1, 1]]).hamming_pairs()


def test_rank_readers_match_a_scan_of_the_masks():
    # Every reader of the rank split against popcounts of the masks: the
    # blocks, the profile, the cover total and index_of.
    for c in _cubes_up_to(10, 3):
        n, masks = c.source.n, c.masks
        sizes = Counter(map(int.bit_count, masks))
        top = max(sizes)
        assert masks == sorted(masks, key=lambda m: (m.bit_count(), m))
        starts = list(itertools.accumulate((sizes[k] for k in range(top + 1)), initial=0))
        assert [list(b) for b in c._rank_blocks()] == [masks[a:b] for a, b in itertools.pairwise(starts)]
        assert c.rank_profile() == dict(sizes)
        assert c.cover_count == sum(k * v for k, v in sizes.items())
        for i, m in enumerate(masks):
            assert c.index_of(VertexMask(n, m)) == i
        members = set(masks)
        for k in range(min(top + 1, n) + 1):
            outside = next((b for b in range(1 << n) if b.bit_count() == k and b not in members), None)
            if outside is not None:
                with pytest.raises(KeyError):
                    c.index_of(VertexMask(n, outside))


def test_rank_readers_on_a_family_that_skips_a_rank():
    # {0, 0b11} has no rank 1: the profile has no entry for it, the other
    # readers see the two vertices, and covers still fail at the closure,
    # though their len, the rank sum, answers.
    c = _cube_from_ranks(2, [[0], [], [0b11]])
    assert c.rank_profile() == {0: 1, 2: 1}
    assert len(c.covers) == c.cover_count == 2
    assert [c.index_of(VertexMask(2, m)) for m in (0, 0b11)] == [0, 1]
    for m in (0b01, 0b10):
        with pytest.raises(KeyError):
            c.index_of(VertexMask(2, m))
    for read in (lambda: list(c.covers), c.to_dot, c.to_json, c.to_edgelist_text):
        with pytest.raises(ArithmeticError, match="^family not subset-closed at mask 0x3$"):
            read()


def test_constructor_builds_the_cube_of_its_graph():
    # There is one way to a cube: its graph, whose family the constructor
    # generates itself.
    for kind in (PATH, CYCLE):
        for h in range(4):
            for n in range(9):
                g = GapGraph(kind, n, h)
                c, built = cube.CubeGraph(g), build_cube(g)
                assert (c.masks, c._offsets) == (built.masks, built._offsets), (kind, n, h)


def test_constructor_checks_the_cap_and_takes_no_masks():
    with pytest.raises(CapacityError, match=r"^refusing to enumerate n=5 \(cap 4\)$"):
        cube.CubeGraph(GapGraph(PATH, 5, 1), cap=4)
    with pytest.raises(TypeError):
        cube.CubeGraph(GapGraph(PATH, 1, 0), [0, 1])


def _ranked(g):
    return list(cube._ranks(g.n, g.h, g.kind == CYCLE))


def test_rank_generator_gives_the_enumeration_in_vertex_order():
    # Each yielded list is one rank, ascending, with no rank skipped, and
    # together they are iter_masks sorted by (size, value); build_cube keeps
    # them as they come.
    for kind in (PATH, CYCLE):
        for n in range(15):
            for h in range(6):
                g = GapGraph(kind, n, h)
                ranks = _ranked(g)
                assert all(rank and {m.bit_count() for m in rank} == {k}
                           for k, rank in enumerate(ranks)), (kind, n, h)
                masks = [m for rank in ranks for m in rank]
                assert masks == sorted(iter_masks(g), key=lambda m: (m.bit_count(), m)), (kind, n, h)
                assert build_cube(g).masks == masks


def test_rank_generator_matches_a_filter_of_all_masks():
    # The gap rule read off every length-n string, independently of any
    # enumeration.
    for kind in (PATH, CYCLE):
        for n in range(11):
            for h in range(6):
                g = GapGraph(kind, n, h)
                valid = [b for b in range(1 << n) if gap_check(VertexMask(n, b), h, kind == CYCLE)]
                assert [m for rank in _ranked(g) for m in rank] == sorted(
                    valid, key=lambda m: (m.bit_count(), m)), (kind, n, h)


def test_build_cube_checks_the_cap_before_generating(monkeypatch):
    calls = []
    monkeypatch.setattr(cube, "_ranks", lambda n, h, cycle: calls.append(n) or iter([[0]]))
    with pytest.raises(CapacityError, match=r"^refusing to enumerate n=31 \(cap 30\)$"):
        build_cube(GapGraph(PATH, 31, 0), cap=30)
    assert calls == []
    build_cube(GapGraph(CYCLE, 30, 0), cap=30)  # n = cap is built
    assert calls == [30]


def test_counts_match_closed_forms():
    for h in range(4):
        for n in range(12):
            cp = build_cube(GapGraph(PATH, n, h))
            assert cp.vertex_count == path_count(n, h)
            assert len(list(cp.covers)) == cp.cover_count == path_edges(n, h)
            cc = build_cube(GapGraph(CYCLE, n, h))
            assert cc.vertex_count == cycle_count(n, h)
            assert len(list(cc.covers)) == cc.cover_count == cycle_edges(n, h)


def test_complete_cycle_powers_give_stars():
    for h in range(5):
        for n in range(2 * h + 2):
            c = build_cube(GapGraph(CYCLE, n, h))
            assert c.vertex_count == n + 1
            assert len(list(c.covers)) == c.cover_count == n


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
                assert cover_count(g) == len(list(build_cube(g).covers))


def test_cover_count_raises_on_family_not_subset_closed(monkeypatch):
    # {0b11, 0b01} lacks 0b10 and the empty set, so two bit deletions leave it.
    monkeypatch.setattr(cube, "iter_masks", lambda g, cap: [0b01, 0b11])
    with pytest.raises(ArithmeticError, match="not subset-closed"):
        cover_count(GapGraph(PATH, 2, 0))


@pytest.mark.parametrize("read", [
    lambda c: list(c.covers), cube.CubeGraph.to_dot, cube.CubeGraph.to_json,
    cube.CubeGraph.to_edgelist_text],
    ids=["covers", "to_dot", "to_json", "to_edgelist_text"])
def test_covers_and_exports_raise_on_family_not_subset_closed(read):
    # {0, 0b11} lacks 0b01 and 0b10, so deleting a bit of 0b11 leaves it.
    # Covers are generated where they are walked, so the check runs there.
    c = _cube_from_ranks(2, [[0], [], [0b11]])
    with pytest.raises(ArithmeticError, match="^family not subset-closed at mask 0x3$"):
        read(c)


def test_index_of():
    c = build_cube(GapGraph(PATH, 4, 1))
    for i, v in enumerate(c.vertices):
        assert c.index_of(v) == i
    # rank-2 block starts at 5 and is numerically ordered: 1010, 1001, 0101
    assert c.index_of(VertexMask.from_string("1001")) == 6


def test_index_of_rejects_a_mask_of_another_length():
    # The bits alone would name a vertex: 1 is {1} and 8 is {4} of path 4.
    c = build_cube(GapGraph(PATH, 4, 1))
    for mask in (VertexMask(5, 1), VertexMask(9, 8), VertexMask(3, 0)):
        with pytest.raises(ValueError, match=f"mask length {mask.n} does not match graph order 4"):
            c.index_of(mask)


def test_index_of_raises_key_error_for_a_non_vertex():
    # Every mask of the right length: below, between and past the vertices
    # of each rank, and ranks above the top one (1111 of path 4 1).
    for g in (GapGraph(PATH, 4, 1), GapGraph(PATH, 6, 2), GapGraph(CYCLE, 6, 2)):
        c = build_cube(g)
        members = set(c.masks)
        for bits in range(1 << g.n):
            if bits in members:
                assert c.masks[c.index_of(VertexMask(g.n, bits))] == bits
            else:
                with pytest.raises(KeyError):
                    c.index_of(VertexMask(g.n, bits))


def test_built_cube_holds_under_100_bytes_per_vertex():
    # What the cube keeps after its covers have been walked to the end: the
    # masks list and the int objects, about 40 bytes a vertex for path 14 0
    # (16,384 vertices, 7 covers each) on Python 3.11. Two cover arrays
    # kept on first read took it to about 72; a {mask: index} map kept
    # beside the masks, to about 136.
    g = GapGraph(PATH, 14, 0)
    tracemalloc.start()
    try:
        c = build_cube(g)
        deque(c.covers, maxlen=0)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert c.vertex_count == 1 << 14
    assert held / c.vertex_count < 100, f"{held / c.vertex_count:.1f} bytes per vertex"


def test_building_a_cube_peaks_under_160_bytes_per_vertex():
    # Building the cube and walking its covers to the end. At its peak this
    # holds the masks, one rank's {mask: row} map, that rank's rows and a
    # slice of the masks of each of the two ranks in hand: about 89 bytes a
    # vertex for path 16 0 (65,536 vertices) on Python 3.11, against about
    # 41 for the build alone. Two cover arrays kept beside them took it to
    # about 102; a {mask: index} map of the whole cube, as covers were once
    # placed, to about 187.
    g = GapGraph(PATH, 16, 0)
    tracemalloc.start()
    try:
        c = build_cube(g)
        deque(c.covers, maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.vertex_count == 1 << 16
    assert peak / c.vertex_count < 160, f"{peak / c.vertex_count:.1f} bytes per vertex"


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
    # Among them path 0 h, with no cover, and path 1 0, with one.
    for c in _cubes_up_to(9, 3):
        g = c.source
        layout = {
            "kind": g.kind,
            "n": g.n,
            "h": g.h,
            "ranks": [[VertexMask(g.n, m).to_string() for m in block] for block in c._rank_blocks()],
            "covers": [list(p) for p in c.covers],
        }
        assert c.to_json() == json.dumps(layout, indent=2) + "\n", c
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


# --- the cover rows and the covers walk ---------------------------------------


def _literal_covers(c):
    # Every (subset, set) pair one bit deletion apart, sorted: the definition.
    pos = {m: i for i, m in enumerate(c.masks)}
    return sorted((pos[m ^ (1 << b)], i) for i, m in enumerate(c.masks)
                  for b in range(c.source.n) if m >> b & 1)


def test_cover_rows_are_ascending_and_complete():
    for c in _cubes_up_to(9, 3):
        pairs = list(c.covers)
        assert len(pairs) == c.cover_count
        rows = [[] for _ in range(c.vertex_count)]
        for lo, hi in pairs:
            rows[lo].append(hi)
        assert all(row == sorted(set(row)) for row in rows), c
        assert [(lo, hi) for lo, row in enumerate(rows) for hi in row] == _literal_covers(c)


def test_covers_view_is_the_sorted_pair_list():
    for c in _cubes_up_to(9, 3):
        pairs = _literal_covers(c)
        covers = c.covers
        assert len(covers) == len(pairs) == c.cover_count
        assert list(covers) == pairs  # iteration is lexicographic


def test_covers_are_walked_afresh_on_every_iteration():
    for c in _cubes_up_to(9, 3):
        covers = c.covers
        first = list(covers)
        assert list(covers) == first == _literal_covers(c), c
        assert list(c.covers) == first, c
        # Two walks in step do not share a position.
        a, b = iter(covers), iter(covers)
        assert list(zip(a, b)) == [(p, p) for p in first], c


def test_covers_view_inequality():
    # The view keeps no pairs, so it neither indexes nor compares equal to
    # them: a caller that wants a sequence takes list(c.covers).
    c = build_cube(GapGraph(PATH, 4, 1))
    pairs = list(c.covers)
    assert c.covers != pairs and c.covers != tuple(pairs)
    assert pairs == list(build_cube(GapGraph(PATH, 4, 1)).covers)
    assert pairs != list(build_cube(GapGraph(PATH, 4, 2)).covers)
    with pytest.raises(TypeError):
        c.covers[0]


def test_covers_view_of_the_empty_and_star_diagrams():
    for kind in (PATH, CYCLE):
        c = build_cube(GapGraph(kind, 0, 2))
        assert len(c.covers) == 0 and list(c.covers) == []
    for h in range(5):
        for n in range(1, 2 * h + 2):
            c = build_cube(GapGraph(CYCLE, n, h))
            star = [(0, i) for i in range(1, n + 1)]
            assert len(c.covers) == n and list(c.covers) == star


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


def test_whole_is_the_concatenation_of_its_chunks():
    long = "z" * (cube._CHUNK_CHARS + 3)
    for parts in ([], [[]], [[""]], [["", "a"], [""]], [["ab"], [long, "", "c"], ["d"]]):
        want = "".join(itertools.chain.from_iterable(parts))
        assert cube._whole(*parts) == cube._whole(*map(iter, parts)) == want


def test_whole_holds_the_text_once():
    # The text grows in place, so its peak is the text plus the chunk in
    # hand: about 1.02 times the text here on Python 3.11.  "".join and
    # io.StringIO keep a second copy beside it, 2.00 times.
    count, size = 160, cube._CHUNK_CHARS
    fresh = (chr(97 + i % 26) * size for i in range(count))  # none of them interned
    tracemalloc.start()
    try:
        text = cube._whole(fresh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) == count * size
    assert peak <= 1.1 * count * size, f"peak {peak / (count * size):.2f} times the text"


def test_json_export_to_a_file_peaks_below_1_6_times_its_size(tmp_path):
    # Build, export and write of path 14 0 (4.6 MB of JSON): the masks, one
    # rank's rows, the text once and one slice being written, about 1.21
    # times the bytes written on Python 3.11; a join beside its chunks
    # would read 2.15.
    target = tmp_path / "cube.json"
    tracemalloc.start()
    try:
        code = cli.main(["cube", "path", "14", "0", "--format", "json", "--out", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = target.stat().st_size
    assert code == 0 and size > 4 << 20
    assert peak < 1.6 * size, f"peak {peak / size:.2f} times the {size} bytes written"


def test_cover_count_reads_no_pairs(monkeypatch):
    c = build_cube(GapGraph(CYCLE, 9, 1))

    def boom(*args):
        raise AssertionError("a cover pair was made")

    monkeypatch.setattr(cube._Covers, "__iter__", boom)
    assert len(c.covers) == c.cover_count == cycle_edges(9, 1)
    c.to_dot(), c.to_json(), c.to_edgelist_text()


def test_covers_len_walks_no_rank(monkeypatch):
    c = build_cube(GapGraph(PATH, 10, 2))

    def boom(*args):
        raise AssertionError("the covers were walked")

    monkeypatch.setattr(cube.CubeGraph, "_rows", boom)
    assert len(c.covers) == c.cover_count == path_edges(10, 2)
    with pytest.raises(AssertionError, match="walked"):
        list(c.covers)


def test_exported_covers_are_the_covers_view():
    # The exports and the covers view are the two readers of one generator
    # of cover rows; they must list the same pairs in the same order.
    for c in _cubes_up_to(9, 3):
        pairs = [list(p) for p in c.covers]
        dot = [line for line in c.to_dot().splitlines() if " -- " in line]
        assert [list(map(int, line.strip(" ;").split(" -- "))) for line in dot] == pairs, c
        edges = [list(map(int, line.split())) for line in c.to_edgelist_text().splitlines()]
        assert edges == pairs, c
        assert json.loads(c.to_json())["covers"] == pairs, c


EXPORTS = {"dot": "to_dot", "json": "to_json", "edgelist": "to_edgelist_text"}
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("fmt", list(EXPORTS))
def test_cube_command_builds_no_cover_arrays(fmt, monkeypatch, tmp_path, capsys):
    def boom(self):
        raise AssertionError("covers was read")

    want = getattr(build_cube(GapGraph(CYCLE, 9, 1)), EXPORTS[fmt])()
    monkeypatch.setattr(cube.CubeGraph, "covers", property(boom))
    out = tmp_path / "cube.out"
    assert cli.main(["cube", "cycle", "9", "1", "--format", fmt, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == want
    assert capsys.readouterr().err == f"76 vertices, {cycle_edges(9, 1)} edges\n"


@pytest.mark.parametrize("args", [("path", "9", "1"), ("cycle", "10", "2")])
@pytest.mark.parametrize("fmt,ext", [("dot", "dot"), ("json", "json"), ("edgelist", "txt")])
def test_cube_exports_match_the_goldens(args, fmt, ext, tmp_path):
    out = tmp_path / f"cube.{ext}"
    assert cli.main(["cube", *args, "--format", fmt, "--out", str(out)]) == 0
    with open(os.path.join(GOLDEN, f"cube_{'_'.join(args)}.{ext}"), "rb") as fh:
        assert out.read_bytes() == fh.read()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_edgelist_export_peak_memory(tmp_path):
    # Peak memory of the export of path 16 0 (65,536 vertices, 524,288
    # covers) above that of path 1 0, both in this interpreter, so that its
    # own footprint cancels: about 91 MB when covers were a list of pair
    # tuples, about 25 MB as row arrays (Python 3.10 and 3.11), about 16 MB
    # with each row formatted as it is generated (Python 3.11).
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
