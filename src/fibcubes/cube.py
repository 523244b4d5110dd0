"""Inclusion diagrams of independent-set families.

The vertices are the independent sets of a gap graph; the edges are the
cover pairs S < T with |T \\ S| = 1.  Because the family is closed under
taking subsets, deleting any single bit of a vertex lands on another vertex,
which is how covers are generated, and cover pairs coincide with pairs at
Hamming distance 1.

For h = 0 this is the Boolean lattice (the n-cube); for h = 1 on paths and
cycles it is the classic Fibonacci and Lucas cube.
"""

from __future__ import annotations

import json

from .enumeration import DEFAULT_CAP, VertexMask, iter_masks
from .graphs import GapGraph

__all__ = ["CubeGraph", "build_cube", "cover_count"]


class CubeGraph:
    """Ranked vertex list plus cover pairs; built once, then immutable.

    Vertex order is (rank, numeric mask value): all size-0 sets first, then
    size-1, and so on, each block ascending.  Cover pairs are (lower, upper)
    indices into that list, sorted lexicographically.
    """

    def __init__(self, source: GapGraph, vertices: list[VertexMask],
                 covers: list[tuple[int, int]]):
        self.source = source
        self.vertices = vertices
        self.covers = covers
        self._position = {v.bits: i for i, v in enumerate(vertices)}

    def __repr__(self) -> str:
        g = self.source
        return (f"CubeGraph({g.kind} n={g.n} h={g.h}: "
                f"{len(self.vertices)} vertices, {len(self.covers)} covers)")

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def cover_count(self) -> int:
        return len(self.covers)

    def index_of(self, mask: VertexMask) -> int:
        return self._position[mask.bits]

    def rank_profile(self) -> dict[int, int]:
        """Vertex counts by rank (= subset size)."""
        profile: dict[int, int] = {}
        for v in self.vertices:
            r = v.size()
            profile[r] = profile.get(r, 0) + 1
        return profile

    def hamming_pairs(self) -> int:
        """Vertex pairs at Hamming distance exactly 1.

        Counted by flipping every bit of every vertex and testing membership,
        independently of how the covers were generated; on a subset-closed
        family this must equal the number of covers.
        """
        pos = self._position
        n = self.source.n
        hits = 0
        for v in self.vertices:
            bits = v.bits
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
        return sum(1 for v in self.vertices if v.size() == rank and v.bits & want)

    # -- exports ------------------------------------------------------------

    def to_dot(self) -> str:
        g = self.source
        lines = [f"graph cube_{g.kind}_{g.n}_{g.h} {{"]
        lines.extend(f'  {i} [label="{v}"];' for i, v in enumerate(self.vertices))
        lines.extend(f"  {lo} -- {hi};" for lo, hi in self.covers)
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        ranks: list[list[str]] = []
        for v in self.vertices:
            while len(ranks) <= v.size():
                ranks.append([])
            ranks[v.size()].append(v.to_string())
        return {
            "kind": self.source.kind,
            "n": self.source.n,
            "h": self.source.h,
            "ranks": ranks,
            "covers": [list(c) for c in self.covers],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def to_edgelist_text(self) -> str:
        return "".join(f"{lo} {hi}\n" for lo, hi in self.covers)


def build_cube(g: GapGraph, cap: int = DEFAULT_CAP) -> CubeGraph:
    """Construct the inclusion diagram of g's independent sets.

    Covers come from bit deletion: clearing any set bit of a vertex yields a
    subset, which down-closure guarantees is itself a vertex.
    """
    masks = sorted(iter_masks(g, cap), key=lambda m: (m.bit_count(), m))
    position = {m: i for i, m in enumerate(masks)}
    covers: list[tuple[int, int]] = []
    for hi_idx, bits in enumerate(masks):
        rest = bits
        while rest:
            low = rest & -rest
            covers.append((position[bits ^ low], hi_idx))
            rest ^= low
    covers.sort()
    vertices = [VertexMask(g.n, m) for m in masks]
    return CubeGraph(g, vertices, covers)


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
