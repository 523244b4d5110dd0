"""Inclusion diagrams of independent-set families.

The vertices are the independent sets of a gap graph; the edges are the
cover pairs S < T with |T \\ S| = 1.  Because the family is closed under
taking subsets, deleting any single bit of a vertex lands on another vertex,
which is how covers are generated, and cover pairs coincide with pairs at
Hamming distance 1.

Vertices stay integer masks (b_1 the low bit) from enumeration to the
exported text; :class:`VertexMask` objects are made only when a caller
indexes or iterates ``CubeGraph.vertices``.

For h = 0 this is the Boolean lattice (the n-cube); for h = 1 on paths and
cycles it is the classic Fibonacci and Lucas cube.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from collections.abc import Sequence
from operator import itemgetter

from .enumeration import DEFAULT_CAP, VertexMask, _bit_string, iter_masks
from .graphs import GapGraph

__all__ = ["CubeGraph", "build_cube", "cover_count"]


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


class CubeGraph:
    """Ranked vertex masks plus cover pairs; built once, then immutable.

    Vertex order is (rank, numeric mask value): all size-0 sets first, then
    size-1, and so on, each block ascending.  ``position`` maps each integer
    mask to its index in that order and is the only per-vertex table kept;
    ``masks`` lists its keys in order.  ``vertices`` is a read-only sequence
    of :class:`VertexMask` whose items are made on access.  Cover pairs are
    (lower, upper) indices, sorted lexicographically.
    """

    def __init__(self, source: GapGraph, position: dict[int, int],
                 covers: list[tuple[int, int]]):
        self.source = source
        self.masks = list(position)
        self.vertices = _Vertices(source.n, self.masks)
        self.covers = covers
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

    def _index_names(self) -> list[str]:
        # Formatting each index once beats formatting it at every cover.
        return list(map(str, range(len(self.masks))))

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

    def to_dot(self) -> str:
        g = self.source
        n = g.n
        lines = [f"graph cube_{g.kind}_{g.n}_{g.h} {{"]
        lines += [f'  {i} [label="{_bit_string(n, m)}"];' for i, m in enumerate(self.masks)]
        s = self._index_names()
        lines += [f"  {s[lo]} -- {s[hi]};" for lo, hi in self.covers]
        lines.append("}")
        return "\n".join(lines) + "\n"

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
        ranks = [_json_array([f'"{_bit_string(n, m)}"' for m in block], 2)
                 for block in self._rank_blocks()]
        s = self._index_names()
        covers = [f"[\n      {s[lo]},\n      {s[hi]}\n    ]" for lo, hi in self.covers]
        return (f'{{\n  "kind": {json.dumps(g.kind)},\n  "n": {n},\n  "h": {g.h},\n'
                f'  "ranks": {_json_array(ranks, 1)},\n'
                f'  "covers": {_json_array(covers, 1)}\n}}\n')

    def to_edgelist_text(self) -> str:
        s = self._index_names()
        return "".join([f"{s[lo]} {s[hi]}\n" for lo, hi in self.covers])


def _json_array(items: list[str], depth: int) -> str:
    # The indent=2 layout of an array at nesting depth `depth` whose items
    # are already encoded.
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def build_cube(g: GapGraph, cap: int = DEFAULT_CAP) -> CubeGraph:
    """Construct the inclusion diagram of g's independent sets.

    Covers come from bit deletion: clearing any set bit of a vertex yields a
    subset, which down-closure guarantees is itself a vertex.
    """
    by_rank: list[list[int]] = [[] for _ in range(g.n + 1)]
    for m in iter_masks(g, cap):  # ascending, so each bucket is too
        by_rank[m.bit_count()].append(m)
    position = {m: i for i, m in enumerate(itertools.chain.from_iterable(by_rank))}
    covers: list[tuple[int, int]] = []
    add = covers.append
    for bits, hi_idx in position.items():
        rest = bits
        while rest:
            low = rest & -rest
            add((position[bits ^ low], hi_idx))
            rest ^= low
    # Generated in ascending upper index, so a stable sort on the lower one
    # gives lexicographic order.
    covers.sort(key=itemgetter(0))
    return CubeGraph(g, position, covers)


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
