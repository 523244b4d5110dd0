"""Exhaustive enumeration of independent sets and the string encodings.

This module is the oracle for the closed forms, so its own checks leaning on
counting formulas are deliberately limited to small, separately spot-checked
values; the wide cross-sweeps live in the verification suite and acceptance
tests.
"""

import copy
import itertools
import pickle
import time
from collections import Counter

import pytest

from fibcubes.counting import path_count, path_count_k
from fibcubes.enumeration import (
    DEFAULT_CAP,
    _CACHED_GAPS,
    _bit_string,
    CapacityError,
    VertexMask,
    avoids_substrings,
    bijection_f,
    bijection_f_inv,
    count_by_size,
    gap_check,
    is_independent,
    iter_masks,
)
from fibcubes.graphs import CYCLE, PATH, GapGraph

# --- VertexMask ---------------------------------------------------------------


def test_mask_string_roundtrip():
    m = VertexMask.from_string("10010")
    assert m.bits == 0b01001  # b_1 is the least significant bit
    assert m.to_string() == "10010"
    assert str(m) == "10010"
    assert m.vertices() == (1, 4)
    assert m.bits.bit_count() == 2


def test_mask_validation():
    with pytest.raises(ValueError):
        VertexMask(2, 0b100)
    with pytest.raises(ValueError):
        VertexMask.from_string("10x")
    assert VertexMask(0, 0).to_string() == ""


def test_mask_caching_keeps_value_semantics():
    m = VertexMask(6, 0b101001)
    vs, s = m.vertices(), m.to_string()
    assert (vs, s) == ((1, 4, 6), "100101")
    assert m.vertices() == vs and m.vertices() is vs
    assert m.to_string() == s and m.to_string() is s
    fresh = VertexMask(6, 0b101001)  # nothing cached yet
    assert m == fresh and hash(m) == hash(fresh)
    assert m != VertexMask(6, 0b101000) and m != VertexMask(7, 0b101001)
    assert repr(m) == "VertexMask(n=6, bits=41)"
    assert VertexMask.__match_args__ == ("n", "bits")
    moved = VertexMask(6, 0b000011)
    assert moved.vertices() == (1, 2) and moved.to_string() == "110000"
    back = pickle.loads(pickle.dumps(m))
    assert back == m and back.vertices() == vs and back.to_string() == s
    with pytest.raises(AttributeError):
        m.bits = 0
    with pytest.raises(ValueError):
        VertexMask(6, 1 << 6)
    with pytest.raises(ValueError):
        VertexMask(-1, 0)


def test_mask_value_semantics():
    m = VertexMask(6, 0b101001)
    assert m == VertexMask(n=6, bits=0b101001)
    assert m != VertexMask(6, 0b101000) and m != VertexMask(5, 0b01001)
    assert m != (6, 0b101001) and (6, 0b101001) != m and m != GapGraph(PATH, 6, 0b101001)
    assert m != 41 and m != "100101"
    for bits in (-1, -(1 << 70)):  # each fits in 80 bits but its sign
        with pytest.raises(ValueError, match="out of range"):
            VertexMask(80, bits)
    assert hash(m) == hash(VertexMask(6, 0b101001)) == hash((6, 0b101001))
    assert len({m, VertexMask(6, 0b101001), VertexMask(6, 0)}) == 2
    assert repr(VertexMask(0, 0)) == "VertexMask(n=0, bits=0)"
    assert str(m) == "100101"
    for name in ("n", "bits", "other"):
        with pytest.raises(AttributeError):
            setattr(m, name, 1)
    with pytest.raises(AttributeError):
        del m.n
    m.vertices(), m.to_string()  # both caches filled
    twins = [pickle.loads(pickle.dumps(m, protocol))
             for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in [*twins, copy.copy(m), copy.deepcopy(m)]:
        assert type(twin) is VertexMask and twin == m and hash(twin) == hash(m)
        assert repr(twin) == repr(m)
        assert twin.vertices() == (1, 4, 6) and twin.to_string() == "100101"
        with pytest.raises(AttributeError):
            twin.bits = 0


def test_mask_keeps_no_instance_dict():
    # Its caches live in slots too, so a mask is four pointers and a header.
    m = VertexMask(6, 0b101001)
    m.vertices(), m.to_string()
    assert not hasattr(m, "__dict__")


def _literal_vertices(n, bits):
    return [i + 1 for i in range(n) if bits >> i & 1]


def test_mask_strings_and_vertex_tuples_roundtrip_exhaustively():
    for n in range(11):
        for bits in range(1 << n):
            m = VertexMask(n, bits)
            s = m.to_string()
            assert s == "".join("1" if bits >> i & 1 else "0" for i in range(n))
            assert VertexMask.from_string(s) == m
            assert list(m.vertices()) == _literal_vertices(n, bits)
            assert VertexMask(n, sum(1 << (v - 1) for v in m.vertices())) == m


def test_bit_string_is_the_reversed_padded_binary():
    assert _bit_string(0, 0) == ""
    for n in range(1, 13):
        for bits in range(1 << n):
            assert _bit_string(n, bits) == format(bits, f"0{n}b")[::-1]


# --- independence predicates ----------------------------------------------------


def test_is_independent_examples():
    assert is_independent(GapGraph(PATH, 5, 1), VertexMask.from_string("10101"))
    assert not is_independent(GapGraph(CYCLE, 5, 1), VertexMask.from_string("10001"))
    assert is_independent(GapGraph(PATH, 4, 2), VertexMask.from_string("1001"))


def test_is_independent_asks_only_is_edge_once_per_pair_and_graph(monkeypatch):
    # Adjacency comes from is_edge alone: the edge generators must not be
    # read, and a graph instance asks each ordered pair at most once however
    # many masks read it. A second instance of an equal graph asks afresh.
    asked = Counter()
    real = GapGraph.is_edge

    def recorder(g, i, j):
        asked[id(g), i, j] += 1
        return real(g, i, j)

    def unused(g):
        raise AssertionError("adjacency must come from is_edge")

    monkeypatch.setattr(GapGraph, "is_edge", recorder)
    monkeypatch.setattr(GapGraph, "iter_edges", unused)
    m = VertexMask.from_string("1010101")
    path, cycle, cycle_twin = GapGraph(PATH, 7, 1), GapGraph(CYCLE, 7, 1), GapGraph(CYCLE, 7, 1)
    for _ in range(2):
        assert is_independent(path, m)
        assert not is_independent(cycle, m)  # v_7 ~ v_1 around the wrap
        for bits in range(1 << 7):
            mask = VertexMask(7, bits)
            assert is_independent(path, mask) == gap_check(mask, 1)
            assert is_independent(cycle, mask) == gap_check(mask, 1, circular=True)
    assert not is_independent(cycle_twin, m)
    assert max(asked.values()) == 1
    every_pair = {(i, j) for i in range(1, 8) for j in range(1, 8) if i != j}
    assert {(i, j) for g, i, j in asked if g == id(cycle)} == every_pair
    assert {(i, j) for g, i, j in asked if g == id(cycle_twin)} == {(1, j) for j in range(2, 8)}


def test_a_fake_adjacency_flips_is_independent(monkeypatch):
    m = VertexMask.from_string("1010101")
    assert is_independent(GapGraph(PATH, 7, 1), m)
    real = GapGraph.is_edge
    monkeypatch.setattr(GapGraph, "is_edge",
                        lambda g, i, j: {i, j} == {1, 7} or real(g, i, j))
    assert not is_independent(GapGraph(PATH, 7, 1), m)
    assert is_independent(GapGraph(PATH, 7, 1), VertexMask.from_string("1010100"))
    monkeypatch.setattr(GapGraph, "is_edge", lambda g, i, j: False)
    assert is_independent(GapGraph(PATH, 7, 1), VertexMask.from_string("1111111"))


@pytest.mark.parametrize("kind", [PATH, CYCLE])
def test_is_independent_matches_the_pairwise_definition(kind):
    # One graph instance per (n, h) serves every mask, so a row kept stale
    # or shared between vertices would show on a later mask.
    for n in range(11):
        for h in range(6):
            g = GapGraph(kind, n, h)
            for bits in range(1 << n):
                mask = VertexMask(n, bits)
                pairwise = not any(g.is_edge(a, b)
                                   for a, b in itertools.combinations(mask.vertices(), 2))
                assert is_independent(g, mask) == pairwise, (kind, n, h, bits)


def test_is_independent_reads_rows_only_for_the_mask_vertices():
    # A first row costs n - 1 is_edge calls: two rows of a 10^5-vertex graph
    # stay far under a second, and no other vertex gets a row.
    n = 10**5
    g = GapGraph(PATH, n, 2)
    start = time.perf_counter()
    assert is_independent(g, VertexMask(n, 1 | 1 << (n - 1)))
    assert time.perf_counter() - start < 1.0
    assert g._rows == {1: 0b110, n: 0b11 << (n - 3)}
    # The scan stops at the first row that meets the mask.
    g = GapGraph(PATH, n, 2)
    assert not is_independent(g, VertexMask(n, 0b101 | 1 << (n - 1)))
    assert list(g._rows) == [1]


def test_is_independent_rejects_length_mismatch():
    with pytest.raises(ValueError):
        is_independent(GapGraph(PATH, 4, 1), VertexMask.from_string("101"))


def test_gap_check_examples():
    m = VertexMask.from_string("10010")
    assert gap_check(m, 2)
    assert not gap_check(m, 2, circular=True)  # wrap gap is 2
    assert gap_check(m, 3) is False
    assert gap_check(VertexMask.from_string("00000"), 9)
    assert gap_check(VertexMask.from_string("00000"), 9, circular=True)


@pytest.mark.parametrize("circular", [False, True])
def test_gap_check_rejects_negative_gap(circular):
    # No h-power has a negative h; True here would be a silent wrong answer.
    with pytest.raises(ValueError, match="h must be nonnegative"):
        gap_check(VertexMask(4, 0b0011), -2, circular)


def test_gap_check_matches_independence_exhaustively():
    for h in range(4):
        for n in range(11):
            path = GapGraph(PATH, n, h)
            cyc = GapGraph(CYCLE, n, h)
            for bits in range(1 << n):
                m = VertexMask(n, bits)
                assert gap_check(m, h) == is_independent(path, m)
                assert gap_check(m, h, circular=True) == is_independent(cyc, m)


def _gap_check_reference(n, bits, h, circular):
    # The pair-loop definition: every two set positions more than h apart,
    # also the short way round when circular.
    vs = _literal_vertices(n, bits)
    for a in range(len(vs)):
        for b in range(a + 1, len(vs)):
            d = vs[b] - vs[a]
            if d <= h or (circular and n - d <= h):
                return False
    return True


def test_gap_check_matches_pair_loop_reference():
    # Substring avoidance is held to the same definition, for h >= 1.  The
    # sweep reaches h >= n and n = 0, 1, where the shift loop and the
    # pattern list are empty, and rows 0 to 11 of the pattern table.
    for n in range(13):
        for h in range(max(n + 2, 13)):
            for bits in range(1 << n):
                m = VertexMask(n, bits)
                for circular in (False, True):
                    want = _gap_check_reference(n, bits, h, circular)
                    assert gap_check(m, h, circular) == want, (n, h, bits, circular)
                    if h:
                        assert avoids_substrings(m, h, circular) == want, (n, h, bits, circular)


# --- enumeration -----------------------------------------------------------------


def test_enumerate_small_path_in_numeric_order():
    masks = iter_masks(GapGraph(PATH, 4, 2))
    assert [VertexMask(4, b).vertices() for b in masks] == [(), (1,), (2,), (3,), (4,), (1, 4)]
    assert masks == sorted(masks)


def test_enumerate_counts():
    assert len(iter_masks(GapGraph(CYCLE, 7, 2))) == 15
    assert len(iter_masks(GapGraph(PATH, 0, 3))) == 1
    assert len(iter_masks(GapGraph(PATH, 10, 0))) == 1024


def test_enumerate_respects_cap():
    with pytest.raises(CapacityError):
        iter_masks(GapGraph(PATH, DEFAULT_CAP + 1, 1))
    # overridable
    assert len(iter_masks(GapGraph(PATH, 25, 12), cap=25)) == path_count(25, 12)


def test_every_enumerated_mask_is_independent():
    for kind, circular in ((PATH, False), (CYCLE, True)):
        for h in range(4):
            for n in range(12):
                g = GapGraph(kind, n, h)
                masks = iter_masks(g)
                assert len(set(masks)) == len(masks)
                assert all(gap_check(VertexMask(n, b), h, circular) for b in masks)


def test_count_by_size_columns():
    assert count_by_size(GapGraph(PATH, 5, 1)) == {0: 1, 1: 5, 2: 6, 3: 1}
    assert count_by_size(GapGraph(CYCLE, 8, 1)) == {0: 1, 1: 8, 2: 20, 3: 16, 4: 2}
    assert count_by_size(GapGraph(CYCLE, 12, 3)) == {0: 1, 1: 12, 2: 30, 3: 4}


# --- the index-spreading bijection ------------------------------------------------


def test_bijection_examples():
    assert bijection_f([1, 3], 5, 1).vertices() == (1, 4)
    assert bijection_f([], 7, 2).vertices() == ()
    assert bijection_f([2, 3, 4], 9, 1).vertices() == (2, 4, 6)


def test_bijection_inverse_examples():
    assert bijection_f_inv(VertexMask(5, 0b01001), 1) == [1, 3]
    assert bijection_f_inv(VertexMask(6, 0), 2) == []


def test_bijection_rejects_out_of_range_and_unsorted():
    # for n=5, h=2, k=2 the source indices live in 1..3
    assert bijection_f([1, 2], 5, 2).vertices() == (1, 4)
    with pytest.raises(ValueError):
        bijection_f([2, 4], 5, 2)
    with pytest.raises(ValueError):
        bijection_f([3, 2], 9, 1)
    with pytest.raises(ValueError):
        bijection_f([1, 1], 9, 1)
    with pytest.raises(ValueError):
        bijection_f([1, 2], 2, 3)  # no 2-subsets fit at all


def test_bijection_inverse_rejects_gap_violations():
    with pytest.raises(ValueError):
        bijection_f_inv(VertexMask.from_string("1100"), 1)


def test_bijection_rejects_negative_gap():
    # A shift down by a negative h spreads indices apart: (1, 2) went to the
    # one-element mask 10000, and 1001 on four vertices to [1, 5].
    with pytest.raises(ValueError, match="h must be nonnegative"):
        bijection_f((1, 2), 5, -1)
    with pytest.raises(ValueError, match="h must be nonnegative"):
        bijection_f_inv(VertexMask(4, 0b1001), -1)


def test_bijection_roundtrip_is_exhaustive_on_small_paths():
    n, h = 10, 2
    seen = set()
    for k in range(0, 5):
        top = n - h * k + h
        if top < 0:
            continue
        for combo in itertools.combinations(range(1, top + 1), k):
            mask = bijection_f(combo, n, h)
            assert gap_check(mask, h)
            assert bijection_f_inv(mask, h) == list(combo)
            seen.add(mask.bits)
    # images of all sizes together are exactly the independent sets
    assert seen == set(iter_masks(GapGraph(PATH, n, h)))


def test_bijection_image_size_is_the_closed_form():
    for h in range(4):
        for n in range(11):
            for k in range(5):
                top = n - h * k + h
                if top < 0:
                    continue
                images = {bijection_f(c, n, h).bits
                          for c in itertools.combinations(range(1, top + 1), k)}
                assert len(images) == path_count_k(n, h, k)


# --- substring avoidance ------------------------------------------------------------


def test_avoids_substrings_examples():
    assert avoids_substrings(VertexMask.from_string("1001"), 2)
    assert not avoids_substrings(VertexMask.from_string("0110"), 1)
    assert not avoids_substrings(VertexMask.from_string("1001"), 3, circular=True)


def test_avoids_substrings_rejects_zero_gap():
    with pytest.raises(ValueError):
        avoids_substrings(VertexMask.from_string("101"), 0)


def test_avoids_substrings_matches_gap_check():
    for h in range(1, 5):
        for n in range(11):
            for bits in range(1 << n):
                m = VertexMask(n, bits)
                assert avoids_substrings(m, h) == gap_check(m, h), (n, h, bits)
                assert avoids_substrings(m, h, circular=True) == gap_check(m, h, circular=True)


def _avoids_substrings_reference(s, h, circular):
    # Every window of the doubled string that starts inside s.
    n = len(s)
    doubled = s + s
    for gap in range(1, h + 1):
        pat = "1" + "0" * (gap - 1) + "1"
        if pat in s:
            return False
        if circular and len(pat) <= n and any(
                doubled[i:i + len(pat)] == pat for i in range(n)):
            return False
    return True


def test_avoids_substrings_with_patterns_as_long_as_the_string():
    # h = n - 2 and h = n - 1 make the longest pattern n - 1 and n long;
    # h = n makes it longer than the string, so it never matches.
    for n in range(2, 11):
        for h in (n - 2, n - 1, n):
            if h < 1:
                continue
            for bits in range(1 << n):
                m = VertexMask(n, bits)
                for circular in (False, True):
                    got = avoids_substrings(m, h, circular)
                    assert got == _avoids_substrings_reference(m.to_string(), h, circular)
                    assert got == gap_check(m, h, circular), (n, h, bits, circular)
    assert not avoids_substrings(VertexMask.from_string("10001"), 4)
    assert avoids_substrings(VertexMask.from_string("10001"), 3)
    assert not avoids_substrings(VertexMask.from_string("10001"), 3, circular=True)
    # found only around the wrap
    assert avoids_substrings(VertexMask.from_string("10010"), 2)
    assert not avoids_substrings(VertexMask.from_string("10010"), 2, circular=True)


def test_avoids_substrings_with_patterns_past_the_enumeration_cap():
    # Gaps above _CACHED_GAPS have no cached pattern; two set bits d apart
    # on n vertices reach gaps up to n - 1, both ways round.
    n = _CACHED_GAPS + 6
    for d in range(1, n):
        for start in (0, n - 1 - d):
            m = VertexMask(n, 1 << start | 1 << (start + d))
            for h in (_CACHED_GAPS - 1, _CACHED_GAPS, _CACHED_GAPS + 1, n - 2, n - 1, n):
                for circular in (False, True):
                    got = avoids_substrings(m, h, circular)
                    assert got == _avoids_substrings_reference(m.to_string(), h, circular)
                    assert got == gap_check(m, h, circular), (d, start, h, circular)


# --- enumeration as counting oracle ---------------------------------------------------


def test_histograms_match_closed_forms_on_small_graphs():
    from fibcubes.counting import cycle_count_k

    for h in range(4):
        for n in range(13):
            hist = count_by_size(GapGraph(PATH, n, h))
            for k in range(6):
                assert hist.get(k, 0) == path_count_k(n, h, k), (n, h, k)
            hist = count_by_size(GapGraph(CYCLE, n, h))
            for k in range(6):
                assert hist.get(k, 0) == cycle_count_k(n, h, k), (n, h, k)
