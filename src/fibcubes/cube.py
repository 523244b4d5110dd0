"""Inclusion diagrams of independent-set families.

The vertices are the independent sets of a gap graph; the edges are the
cover pairs S < T with |T \\ S| = 1.  Because the family is closed under
taking subsets, deleting any single bit of a vertex lands on another vertex,
which is how covers are generated, and cover pairs coincide with pairs at
Hamming distance 1.

Vertices stay integer masks (b_1 the low bit) from enumeration to the
exported text; :class:`VertexMask` objects are made only when a caller
indexes or iterates ``CubeGraph.vertices``.  Covers are stored as rows, one
per lower vertex, in two ``array('I')``: one holds the V+1 row offsets,
the other the upper indices, row after row, so a cover costs 4 bytes.
``CubeGraph.covers`` reads (lower, upper) pairs from them on access, and
the exporters write one string per row.

For h = 0 this is the Boolean lattice (the n-cube); for h = 1 on paths and
cycles it is the classic Fibonacci and Lucas cube.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence
from operator import eq

from .enumeration import DEFAULT_CAP, VertexMask, _bit_string, iter_masks
from .graphs import GapGraph

__all__ = ["CubeGraph", "build_cube", "cover_count"]

# Row strings joined into one intermediate string of export text: at most
# this many, and fewer once they are long, so a chunk stays near _CHUNK_CHARS.
_ROWS_PER_CHUNK = 4096
_CHUNK_CHARS = 1 << 16


def _chunks(pieces, sep: str = ""):
    """Yield the nonempty strings ``pieces`` ``sep``-joined a chunk at a time;
    the chunks ``sep``-joined give the whole.

    Each chunk takes as many pieces as the last one's length says fit in
    ``_CHUNK_CHARS``, and at most twice as many, so a chunk's size stays flat
    as pieces grow (terms of a sequence gain digits along it).
    """
    pieces = iter(pieces)
    take = 1
    while chunk := sep.join(itertools.islice(pieces, take)):
        yield chunk
        take = max(1, min(_ROWS_PER_CHUNK, 2 * take, take * _CHUNK_CHARS // len(chunk)))


def _json_array(items, depth: int):
    """Yield the ``json.dumps(..., indent=2)`` layout of an array at nesting
    depth ``depth`` whose items come already encoded, one piece per item
    (and a closing piece), so an item is made only when its piece is wanted."""
    pad = "\n" + "  " * (depth + 1)
    lead = "[" + pad
    for item in items:
        yield lead + item
        lead = "," + pad
    yield "[]" if lead[0] == "[" else "\n" + "  " * depth + "]"


class _Vertices(Sequence):
    """The cube's masks as VertexMasks, each made when it is accessed."""

    __slots__ = ("_n", "_masks")

    def __init__(self, n: int, masks: list[int]):
        self._n = n
        self._masks = masks

    def __len__(self) -> int:
        return len(self._masks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [VertexMask(self._n, m) for m in self._masks[i]]
        return VertexMask(self._n, self._masks[i])


class _Covers(Sequence):
    """The (lower, upper) pairs of the cover rows, in lexicographic order.

    Pairs are made on access and ``len`` builds nothing.  Equal to any
    sequence of the same pairs, such as a list of tuples.
    """

    __slots__ = ("_starts", "_uppers")

    def __init__(self, starts: Sequence[int], uppers: Sequence[int]):
        self._starts = starts
        self._uppers = uppers

    def __len__(self) -> int:
        return len(self._uppers)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]  # checks the bounds, resolves a negative index
        # Empty rows repeat an offset; the last row starting at or before i
        # is the one holding it.
        return bisect_right(self._starts, i) - 1, self._uppers[i]

    def __iter__(self):
        uppers = self._uppers
        for lo, (a, b) in enumerate(itertools.pairwise(self._starts)):
            for hi in uppers[a:b]:
                yield lo, hi

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


class CubeGraph:
    """Ranked vertex masks plus cover rows; built once, then immutable.

    Vertex order is (rank, numeric mask value): all size-0 sets first, then
    size-1, and so on, each block ascending.  ``position`` maps each integer
    mask to its index in that order and is the only per-vertex table kept;
    ``masks`` lists its keys in order.  ``vertices`` is a read-only sequence
    of :class:`VertexMask` whose items are made on access.

    The covers of lower vertex ``lo`` are the ascending upper indices
    ``_uppers[_starts[lo]:_starts[lo + 1]]``.  ``covers`` is a read-only
    sequence of the (lower, upper) pairs, sorted lexicographically, whose
    items are made on access.
    """

    def __init__(self, source: GapGraph, position: dict[int, int],
                 starts: Sequence[int], uppers: Sequence[int]):
        self.source = source
        self.masks = list(position)
        self.vertices = _Vertices(source.n, self.masks)
        self._starts = starts
        self._uppers = uppers
        self.covers = _Covers(starts, uppers)
        self._position = position

    def __repr__(self) -> str:
        g = self.source
        return (f"CubeGraph({g.kind} n={g.n} h={g.h}: "
                f"{len(self.masks)} vertices, {len(self.covers)} covers)")

    @property
    def vertex_count(self) -> int:
        return len(self.masks)

    @property
    def cover_count(self) -> int:
        return len(self.covers)

    def index_of(self, mask: VertexMask) -> int:
        return self._position[mask.bits]

    def _cover_rows(self, row, sep: str = "") -> str:
        """``sep``-joined ``row(lower_name, upper_names)`` over the nonempty rows.

        Each index is formatted once, not at every cover; the row strings are
        joined a chunk at a time, so they never all exist at once.
        """
        s = list(map(str, range(len(self.masks))))
        name = s.__getitem__
        starts, uppers = self._starts, self._uppers
        rows = (row(lo, map(name, uppers[a:b]))
                for lo, a, b in zip(s, starts, starts[1:]) if a != b)
        chunks = list(_chunks(rows, sep))
        del s, name, rows  # before the final join, which holds the text twice
        return sep.join(chunks)

    def _rank_blocks(self):
        # Masks are in rank order and a down-closed family skips no rank.
        return (block for _, block in itertools.groupby(self.masks, int.bit_count))

    def rank_profile(self) -> dict[int, int]:
        """Vertex counts by rank (= subset size)."""
        return dict(Counter(map(int.bit_count, self.masks)))

    def hamming_pairs(self) -> int:
        """Vertex pairs at Hamming distance exactly 1.

        Counted by flipping every bit of every vertex and testing membership,
        independently of how the covers were generated; on a subset-closed
        family this must equal the number of covers.
        """
        pos = self._position
        n = self.source.n
        hits = 0
        for bits in self.masks:
            for b in range(n):
                if bits ^ (1 << b) in pos:
                    hits += 1
        if hits % 2:
            raise ArithmeticError(f"odd Hamming pair count {hits}")
        return hits // 2

    def vertex_filter_count(self, rank: int, contains: int) -> int:
        """Vertices of the given rank whose set includes vertex ``contains``."""
        n = self.source.n
        if not 1 <= contains <= n:
            raise ValueError(f"vertex index {contains} out of range 1..{n}")
        want = 1 << (contains - 1)
        return sum(1 for m in self.masks if m & want and m.bit_count() == rank)

    # -- exports ------------------------------------------------------------
    # A row of covers is one string: its lower name is repeated through the
    # separator of one join over its upper names.

    def to_dot(self) -> str:
        g = self.source
        n = g.n
        labels = "".join([f'  {i} [label="{_bit_string(n, m)}"];\n' for i, m in enumerate(self.masks)])
        covers = self._cover_rows(lambda lo, his: f"  {lo} -- " + f";\n  {lo} -- ".join(his) + ";\n")
        return f"graph cube_{g.kind}_{g.n}_{g.h} {{\n{labels}{covers}}}\n"

    def to_json_dict(self) -> dict:
        n = self.source.n
        return {
            "kind": self.source.kind,
            "n": n,
            "h": self.source.h,
            "ranks": [[_bit_string(n, m) for m in block] for block in self._rank_blocks()],
            "covers": [list(c) for c in self.covers],
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), indent=2) + "\\n"``, written directly."""
        g = self.source
        n = g.n
        ranks = ("".join(_json_array((f'"{_bit_string(n, m)}"' for m in block), 2))
                 for block in self._rank_blocks())
        head = (f'{{\n  "kind": {json.dumps(g.kind)},\n  "n": {n},\n  "h": {g.h},\n'
                f'  "ranks": {"".join(_json_array(ranks, 1))},\n  "covers": ')
        covers = self._cover_rows(
            lambda lo, his: (f"[\n      {lo},\n      "
                             + f"\n    ],\n    [\n      {lo},\n      ".join(his) + "\n    ]"),
            ",\n    ")
        if not covers:
            return head + "[]\n}\n"
        return f"{head}[\n    {covers}\n  ]\n}}\n"

    def to_edgelist_text(self) -> str:
        return self._cover_rows(lambda lo, his: f"{lo} " + f"\n{lo} ".join(his) + "\n")


def build_cube(g: GapGraph, cap: int = DEFAULT_CAP) -> CubeGraph:
    """Construct the inclusion diagram of g's independent sets.

    Covers come from bit deletion: clearing any set bit of a vertex yields a
    subset, which down-closure guarantees is itself a vertex (raising if it
    is not).  The uppers of one rank are visited in ascending index, so the
    rows of the rank below fill in ascending order and are written out, in
    lower-index order, once that rank is done: no pair tuples, no sort.
    """
    # One bucket per rank, plus an always-empty one above the top, so that
    # the top rank's (empty) rows are written too.
    by_rank: list[list[int]] = [[] for _ in range(g.n + 2)]
    for m in iter_masks(g, cap):  # ascending, so each bucket is too
        by_rank[m.bit_count()].append(m)
    position = {m: i for i, m in enumerate(itertools.chain.from_iterable(by_rank))}
    from array import array  # here, so that commands building no cube never load it

    starts = array("I", [0])
    uppers = array("I")
    base = 0  # index of the lower rank's first vertex
    for lower, upper in itertools.pairwise(by_rank):
        rows: list[list[int]] = [[] for _ in lower]
        try:
            for hi, bits in enumerate(upper, base + len(lower)):
                rest = bits
                while rest:
                    low = rest & -rest
                    rows[position[bits ^ low] - base].append(hi)
                    rest ^= low
        except KeyError:
            raise ArithmeticError(f"family not subset-closed at mask 0x{bits:x}") from None
        for row in rows:
            uppers.extend(row)
            starts.append(len(uppers))
        base += len(lower)
    return CubeGraph(g, position, starts, uppers)


def cover_count(g: GapGraph, cap: int = DEFAULT_CAP) -> int:
    """Number of cover pairs, without materializing them.

    Streams over the vertex set once, checking that each bit deletion lands
    back in the set (raising if down-closure ever failed).
    """
    masks = iter_masks(g, cap)
    members = set(masks)
    total = 0
    for bits in masks:
        rest = bits
        while rest:
            low = rest & -rest
            if bits ^ low not in members:
                raise ArithmeticError(f"family not subset-closed at mask 0x{bits:x}")
            total += 1
            rest ^= low
    return total
