"""Inclusion diagrams of independent-set families.

The vertices are the independent sets of a gap graph; the edges are the
cover pairs S < T with |T \\ S| = 1.  Because the family is closed under
taking subsets, deleting any single bit of a vertex lands on another vertex,
which is how covers are generated, and cover pairs coincide with pairs at
Hamming distance 1.

Vertices stay integer masks (b_1 the low bit) from construction to the
exported text.  ``build_cube`` makes them a rank at a time, each rank from
the one below (a set is its top element plus a set of the rank below that
lies more than h under it), so they come in vertex order with no path list
and no sort; they are kept in one list, split by rank once.
:class:`VertexMask` objects are made only when a caller indexes or iterates
``CubeGraph.vertices``.

Covers are generated where they are read, by one walk over the ranks that
places each cover through a ``{mask: row}`` map of the rank below alone; no
map of the whole cube is ever held.  The walk labels each row with what its
reader wants: the exporters take decimal strings, formatted a rank at a
time, and ``covers`` takes indices, which it keeps, on first read, in two
``array('I')``: V+1 row offsets and the upper indices, row after row, so a
cover costs 4 bytes.  An export is one join of chunks of about
``_CHUNK_CHARS`` characters, which ``_chunks`` makes from one string per
label or row and which concatenate to the whole.

For h = 0 this is the Boolean lattice (the n-cube); for h = 1 on paths and
cycles it is the classic Fibonacci and Lucas cube.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from operator import eq, le

from .enumeration import DEFAULT_CAP, VertexMask, _bit_string, _check_cap, iter_masks
from .graphs import CYCLE, GapGraph

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


def _place_covers(lower: Iterable[int], upper: Iterable[int], names: Iterable) -> list[list]:
    """For each vertex of the rank ``lower``, the names of its covers in the
    next rank ``upper``, which ``names`` labels, ascending.

    Clearing any set bit of an upper vertex yields a subset, which
    down-closure guarantees is in ``lower`` (raising if it is not).  The
    uppers are visited in ascending index, so each row fills in order: no
    pair tuples, no sort.
    """
    # One pass: making the rows first and zipping them into the map raised
    # the VmHWM of ``cube cycle 29 2 --format dot`` by about 2 MB.
    row_of = {m: [] for m in lower}
    rows = list(row_of.values())
    try:
        for name, bits in zip(names, upper):
            rest = bits
            while rest:
                low = rest & -rest
                row_of[bits ^ low].append(name)
                rest ^= low
    except KeyError:
        raise ArithmeticError(f"family not subset-closed at mask 0x{bits:x}") from None
    return rows


def _rank_sizes(masks: list[int], n: int) -> list[int]:
    """The number of masks of each rank 0..top; ValueError unless every mask
    has length n and they are non-decreasing in (rank, value)."""
    if masks and (min(masks) < 0 or max(masks) >> n):
        raise ValueError(f"masks out of range for length {n}")
    ranks = list(map(int.bit_count, masks))
    # Tuples compare by rank, then value; non-decreasing, not strict, so that
    # a repeated mask reaches the checks of the readers.
    if not all(map(le, zip(ranks, masks), zip(ranks[1:], masks[1:]))):
        raise ValueError("masks are not in vertex order: (rank, value) must not decrease")
    top = ranks[-1] if ranks else -1
    return [bisect_right(ranks, k) - bisect_left(ranks, k) for k in range(top + 1)]


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
    masks in that order, the only per-vertex table kept; rank k spans
    ``_ranks[k]:_ranks[k + 1]`` of it, for k = 0..n + 1, which every
    question by rank reads.  ``vertices`` is a read-only sequence of
    :class:`VertexMask` whose items are made on access.

    ``covers`` is a read-only sequence of the (lower, upper) pairs, sorted
    lexicographically, whose items are made on access.  Its cover rows are
    a cache filled on first read: the covers of lower vertex ``lo`` are the
    upper indices ``covers._uppers[covers._starts[lo]:covers._starts[lo + 1]]``,
    ascending.  The exports never fill it.

    The masks must have length n and come in vertex order, non-decreasing,
    or ValueError is raised: that costs a pass over them, which
    ``build_cube`` skips by handing over the size of each rank it made, as
    ``_sizes``.
    """

    def __init__(self, source: GapGraph, masks: list[int], _sizes: list[int] | None = None):
        n = source.n
        if _sizes is None:
            _sizes = _rank_sizes(masks, n)
        self.source = source
        self.masks = masks
        self.vertices = _Vertices(n, masks)
        self._covers = None
        # Rank n + 1 is empty, and so is any rank past the top or that a
        # family not down-closed skips.
        self._ranks = list(itertools.accumulate(_sizes + [0] * (n + 2 - len(_sizes)), initial=0))

    def __repr__(self) -> str:
        g = self.source
        return (f"CubeGraph({g.kind} n={g.n} h={g.h}: "
                f"{len(self.masks)} vertices, {self.cover_count} covers)")

    @property
    def vertex_count(self) -> int:
        return len(self.masks)

    @property
    def cover_count(self) -> int:
        """Σ_k k·|rank k|: one cover below a vertex per element, so the number
        of covers of a subset-closed family, without generating them."""
        return sum(k * (b - a) for k, (a, b) in enumerate(itertools.pairwise(self._ranks)))

    @property
    def covers(self) -> _Covers:
        if self._covers is None:
            from array import array  # here, so that commands reading no covers never load it

            starts, uppers = array("I", [0]), array("I")
            for _, row in self._rows(lambda indices: indices):
                uppers.extend(row)
                starts.append(len(uppers))
            self._covers = _Covers(starts, uppers)
        return self._covers

    def index_of(self, mask: VertexMask) -> int:
        """The index of ``mask`` in vertex order; KeyError if it is no vertex."""
        if mask.n != self.source.n:
            raise ValueError(f"mask length {mask.n} does not match graph order {self.source.n}")
        bits = mask.bits
        k = bits.bit_count()  # at most n, so that its rank has both offsets
        i = bisect_left(self.masks, bits, *self._ranks[k:k + 2])
        if self.masks[i:i + 1] != [bits]:
            raise KeyError(bits)
        return i

    def _rows(self, label):
        """Yield ``(label of lo, labels of its uppers)`` for every vertex
        ``lo`` in index order, the uppers ascending; ``label(indices)`` gives
        the labels of one rank's range of indices.  Only the labels of the
        two ranks in hand and the rows of the lower one are held.
        """
        masks, bounds = self.masks, self._ranks  # rank n + 1 is empty: the top rank's rows too
        names = label(range(bounds[0], bounds[1]))
        for a, b, c in zip(bounds, bounds[1:], bounds[2:]):
            lower_names, names = names, label(range(b, c))
            lower, upper = itertools.islice(masks, a, b), itertools.islice(masks, b, c)
            yield from zip(lower_names, _place_covers(lower, upper, names))

    def _cover_rows(self, row, sep: str = ""):
        """Chunks of the ``sep``-joined ``row(lower_name, upper_names)`` over the
        nonempty rows; each index is formatted once, not at every cover."""
        rows = self._rows(lambda indices: list(map(str, indices)))
        return _chunks((row(lo, his) for lo, his in rows if his), sep)

    def _rank_blocks(self):
        masks = self.masks
        return (itertools.islice(masks, a, b) for a, b in itertools.pairwise(self._ranks) if b > a)

    def rank_profile(self) -> dict[int, int]:
        """Vertex counts by rank (= subset size), over the nonempty ranks."""
        return {k: b - a for k, (a, b) in enumerate(itertools.pairwise(self._ranks)) if b > a}

    def hamming_pairs(self) -> int:
        """Vertex pairs at Hamming distance exactly 1.

        Counted by flipping every bit of every vertex and testing membership,
        independently of how the covers were generated; on a subset-closed
        family this must equal the number of covers.
        """
        masks = self.masks
        members = set(masks)
        # One C-level pass per bit b: flip b in every vertex, test membership.
        hits = sum(sum(map(members.__contains__, map((1 << b).__xor__, masks)))
                   for b in range(self.source.n))
        if hits % 2:
            raise ArithmeticError(f"odd Hamming pair count {hits}")
        return hits // 2

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
        g = self.source
        n = g.n
        ranks = ("".join(_json_array((f'"{_bit_string(n, m)}"' for m in block), 2))
                 for block in self._rank_blocks())
        head = f'{{\n  "kind": "{g.kind}",\n  "n": {n},\n  "h": {g.h},\n  "ranks": '
        covers = self._cover_rows(
            lambda lo, his: (f"[\n      {lo},\n      "
                             + f"\n    ],\n    [\n      {lo},\n      ".join(his) + "\n    ]"),
            ",\n    ")
        # The top vertex is nonzero exactly when some vertex has a cover below
        # it; a family with no vertex has none.
        opening, closing = ("[\n    ", "\n  ]") if any(self.masks[-1:]) else ("[", "]")
        return "".join(itertools.chain((head,), _chunks(_json_array(ranks, 1)),
                                       (',\n  "covers": ' + opening,), covers, (closing + "\n}\n",)))

    def to_edgelist_text(self) -> str:
        return "".join(self._cover_rows(lambda lo, his: f"{lo} " + f"\n{lo} ".join(his) + "\n"))


def _ranks(n: int, h: int, cycle: bool):
    """Yield the gap-valid masks of length n, one list per rank, each
    ascending, from rank 0 to the top rank.

    A set of rank k >= 2 is its top element t plus a set of rank k - 1
    lying more than h below it: rank k is, for each t in turn, 1 << t OR-ed
    onto the prefix of rank k - 1 below 1 << (t - h), found by bisection.
    So each rank comes out ascending, and nothing is sorted.  On a cycle the
    wrap from t round to the lowest element must be more than h too, so
    there only the sets whose lowest bit is at least t - n + h + 1 are kept;
    such a set is a cycle set already, so no path list is made.
    """
    lower = rank = []
    try:
        yield [0]
        rank = [1 << t for t in range(n)]  # any single vertex
        while rank:
            yield rank
            lower, rank = rank, []
            for t in range(h + 1, n):
                top = 1 << t
                below = itertools.islice(lower, bisect_left(lower, top >> h))
                low = t - n + h + 1
                if cycle and low > 0:
                    clear = (1 << low) - 1
                    rank += [top | m for m in below if not m & clear]
                else:
                    rank += map(top.__or__, below)
    except MemoryError:
        # As in enumeration._path_mask_ints, free the partial lists before
        # the error unwinds: the traceback keeps this frame.  Emptied in
        # place, not deleted, in case a consumer still holds the rank
        # yielded last; build_cube's chain holds none.
        lower.clear()
        rank.clear()
        raise


def build_cube(g: GapGraph, cap: int = DEFAULT_CAP) -> CubeGraph:
    """Construct the inclusion diagram of g's independent sets: the ranks
    of ``_ranks`` joined into one mask list in vertex order, with the size
    of each rank noted as it passes.  The list is partial only inside
    ``list()``, which frees it if memory runs out.  Covers are generated
    when they are read, and a family that is not subset-closed raises
    ArithmeticError then."""
    _check_cap(g, cap)
    sizes = []

    def tally(rank):
        sizes.append(len(rank))
        return rank

    masks = list(itertools.chain.from_iterable(map(tally, _ranks(g.n, g.h, g.kind == CYCLE))))
    return CubeGraph(g, masks, sizes)


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
