"""Inclusion diagrams of independent-set families.

The vertices are the independent sets of a gap graph; the edges are the
cover pairs S < T with |T \\ S| = 1.  Because the family is closed under
taking subsets, deleting any single bit of a vertex lands on another vertex,
which is how covers are generated, and cover pairs coincide with pairs at
Hamming distance 1.

Vertices stay integer masks (b_1 the low bit), in one rank-ordered list,
from enumeration to the exported text; :class:`VertexMask` objects are made
only when a caller indexes or iterates ``CubeGraph.vertices``.  Covers are
rows, one per lower vertex, in two ``array('I')``: V+1 row offsets and the
upper indices, row after row, so a cover costs 4 bytes.  ``covers`` reads
(lower, upper) pairs from them on access.  An export is one join of chunks
of about ``_CHUNK_CHARS`` characters, which ``_chunks`` makes from one
string per label or row and which concatenate to the whole.

``build_cube`` places the covers one rank at a time, through a
``{mask: row}`` map of the rank below alone; no map of the whole cube is
ever held, not even while building.

For h = 0 this is the Boolean lattice (the n-cube); for h = 1 on paths and
cycles it is the classic Fibonacci and Lucas cube.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Sequence
from operator import eq

from .enumeration import DEFAULT_CAP, VertexMask, _bit_string, iter_masks
from .graphs import GapGraph

__all__ = ["CubeGraph", "build_cube", "cover_count"]

_CHUNK_CHARS = 1 << 15  # characters per chunk of _chunks and per write of cli._emit


def _chunks(pieces, sep: str = ""):
    """Yield ``sep.join(pieces)`` a chunk at a time; the chunks concatenate to
    it, for any pieces.  A chunk joins pieces until their length reaches
    ``_CHUNK_CHARS``, and every chunk after the first starts with ``sep``.
    """
    batch, size, lead = [], 0, ""
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= _CHUNK_CHARS:
            yield lead + sep.join(batch)
            batch, size, lead = [], 0, sep
    if batch:
        yield lead + sep.join(batch)


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
    size-1, and so on, each block ascending.  ``masks`` lists the integer
    masks in that order, the only per-vertex table kept; ``index_of``
    bisects it on (rank, value).  ``vertices`` is a read-only sequence of
    :class:`VertexMask` whose items are made on access.

    The covers of lower vertex ``lo`` are the ascending upper indices
    ``_uppers[_starts[lo]:_starts[lo + 1]]``.  ``covers`` is a read-only
    sequence of the (lower, upper) pairs, sorted lexicographically, whose
    items are made on access.
    """

    def __init__(self, source: GapGraph, masks: list[int],
                 starts: Sequence[int], uppers: Sequence[int]):
        self.source = source
        self.masks = masks
        self.vertices = _Vertices(source.n, masks)
        self._starts = starts
        self._uppers = uppers
        self.covers = _Covers(starts, uppers)

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
        """The index of ``mask`` in vertex order; KeyError if it is no vertex."""
        if mask.n != self.source.n:
            raise ValueError(f"mask length {mask.n} does not match graph order {self.source.n}")
        bits = mask.bits
        i = bisect_left(self.masks, (bits.bit_count(), bits), key=lambda m: (m.bit_count(), m))
        if self.masks[i:i + 1] != [bits]:
            raise KeyError(bits)
        return i

    def _cover_rows(self, row, sep: str = ""):
        """Chunks of the ``sep``-joined ``row(lower_name, upper_names)`` over the
        nonempty rows; each index is formatted once, not at every cover."""
        s = list(map(str, range(len(self.masks))))
        name = s.__getitem__
        starts, uppers = self._starts, self._uppers
        return _chunks((row(lo, map(name, uppers[a:b]))
                        for lo, a, b in zip(s, starts, starts[1:]) if a != b), sep)

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
        members = set(self.masks)
        n = self.source.n
        hits = 0
        for bits in self.masks:
            for b in range(n):
                if bits ^ (1 << b) in members:
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
    # separator of one join over its upper names.  An export is one join.

    def to_dot(self) -> str:
        g = self.source
        n = g.n
        labels = _chunks(f'  {i} [label="{_bit_string(n, m)}"];\n' for i, m in enumerate(self.masks))
        covers = self._cover_rows(lambda lo, his: f"  {lo} -- " + f";\n  {lo} -- ".join(his) + ";\n")
        head = f"graph cube_{g.kind}_{n}_{g.h} {{\n"
        return "".join(itertools.chain((head,), labels, covers, ("}\n",)))

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
        import json  # only here, so output other than JSON never loads it

        g = self.source
        n = g.n
        ranks = ("".join(_json_array((f'"{_bit_string(n, m)}"' for m in block), 2))
                 for block in self._rank_blocks())
        head = f'{{\n  "kind": {json.dumps(g.kind)},\n  "n": {n},\n  "h": {g.h},\n  "ranks": '
        covers = self._cover_rows(
            lambda lo, his: (f"[\n      {lo},\n      "
                             + f"\n    ],\n    [\n      {lo},\n      ".join(his) + "\n    ]"),
            ",\n    ")
        opening, closing = ("[\n    ", "\n  ]") if self.cover_count else ("[", "]")
        return "".join(itertools.chain((head,), _chunks(_json_array(ranks, 1)),
                                       (',\n  "covers": ' + opening,), covers, (closing + "\n}\n",)))

    def to_edgelist_text(self) -> str:
        return "".join(self._cover_rows(lambda lo, his: f"{lo} " + f"\n{lo} ".join(his) + "\n"))


def build_cube(g: GapGraph, cap: int = DEFAULT_CAP) -> CubeGraph:
    """Construct the inclusion diagram of g's independent sets.

    Covers come from bit deletion: clearing any set bit of a vertex yields a
    subset, which down-closure guarantees is a vertex of the rank below
    (raising if it is not), found in a ``{mask: row}`` map of that rank.
    The uppers of one rank are visited in ascending index, so the rows of
    the rank below fill in ascending order and are written out, in
    lower-index order, once that rank is done: no pair tuples, no sort.
    """
    # One bucket per rank, plus an always-empty one above the top, so that
    # the top rank's (empty) rows are written too.
    by_rank: list[list[int]] = [[] for _ in range(g.n + 2)]
    for m in iter_masks(g, cap):  # ascending, so each bucket is too
        by_rank[m.bit_count()].append(m)
    masks = list(itertools.chain.from_iterable(by_rank))
    from array import array  # here, so that commands building no cube never load it

    starts = array("I", [0])
    uppers = array("I")
    first = 0  # index of the upper rank's first vertex
    for lower, upper in itertools.pairwise(by_rank):
        first += len(lower)
        row_of = {m: r for r, m in enumerate(lower)}
        rows: list[list[int]] = [[] for _ in lower]
        try:
            for hi, bits in enumerate(upper, first):
                rest = bits
                while rest:
                    low = rest & -rest
                    rows[row_of[bits ^ low]].append(hi)
                    rest ^= low
        except KeyError:
            raise ArithmeticError(f"family not subset-closed at mask 0x{bits:x}") from None
        for row in rows:
            uppers.extend(row)
            starts.append(len(uppers))
    return CubeGraph(g, masks, starts, uppers)


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
