"""Brute-force enumeration of independent sets as bit strings.

Everything counting-related in :mod:`fibcubes.counting` can be re-derived
here by exhaustion, which is the whole point: this module is the oracle the
closed forms are checked against, so it stays as literal as possible.

The three independence predicates are compared with one another by
``verify``, so each keeps its own mechanism: ``gap_check`` tests one shift
per distance (and the wrap), ``is_independent`` reads adjacency rows built
from ``GapGraph.is_edge``, and ``avoids_substrings`` searches the string for
gap patterns.  A kernel may shed per-call overhead, such as reading a
mask's decoded vertices or string from its slot once filled, or taking its
patterns from a table built at import, but never borrows another's test.

Bit convention: an independent set of v_1..v_n is a length-n binary string
b_1..b_n with b_i = 1 iff v_i is in the set.  In the integer encoding b_1 is
the least significant bit, so "numeric order" of masks is well defined and
the string reads left to right as b_1..b_n.
"""

from __future__ import annotations

from collections import Counter

from .graphs import CYCLE, GapGraph, _set, _Value

__all__ = [
    "DEFAULT_CAP",
    "CapacityError",
    "VertexMask",
    "is_independent",
    "gap_check",
    "iter_masks",
    "enumerate_independent",
    "count_by_size",
    "bijection_f",
    "bijection_f_inv",
    "avoids_substrings",
]

DEFAULT_CAP = 24


class CapacityError(Exception):
    """Raised when an enumeration would exceed the configured size cap."""


def _bit_string(n: int, bits: int) -> str:
    """The b_1..b_n string of a length-n mask: b_1, the low bit, first."""
    # The bit above b_n keeps the leading zeros; the reversed slice drops
    # it with the "0b", in one call and with no format spec built per mask.
    return bin(bits | 1 << n)[:2:-1]


class VertexMask(_Value):
    """A length-n bit string encoding a vertex subset (bit i-1 <-> v_i).

    A frozen, slotted value with the fields ``(n, bits)``.  ``vertices()``
    and ``to_string()`` are derived on first use and kept in two more slots,
    which hold ``None`` until then; no descriptor or lock sits on the path.
    They are not fields, so ``==``, ``hash`` and ``repr`` see only ``n`` and
    ``bits``.
    """

    __slots__ = ("n", "bits", "_string", "_vertices")
    __match_args__ = ("n", "bits")

    def __init__(self, n: int, bits: int):
        if n < 0:
            raise ValueError("mask length must be nonnegative")
        # bit_length, not 1 << n: the bound would be an n-bit number.
        if bits < 0 or bits.bit_length() > n:
            raise ValueError(f"bits 0x{bits:x} out of range for length {n}")
        _set(self, "n", n)
        _set(self, "bits", bits)
        _set(self, "_string", None)
        _set(self, "_vertices", None)

    @classmethod
    def from_string(cls, s: str) -> "VertexMask":
        """Parse a b_1..b_n string of '0'/'1' characters."""
        bits = 0
        for pos, ch in enumerate(s):
            if ch == "1":
                bits |= 1 << pos
            elif ch != "0":
                raise ValueError(f"invalid mask character {ch!r}")
        return cls(len(s), bits)

    def to_string(self) -> str:
        s = self._string
        if s is None:
            s = _bit_string(self.n, self.bits)
            _set(self, "_string", s)
        return s

    __str__ = to_string

    def vertices(self) -> tuple[int, ...]:
        """Set vertices as ascending 1-based indices."""
        vs = self._vertices
        if vs is None:
            out = []
            rest = self.bits
            while rest:
                low = rest & -rest
                out.append(low.bit_length())
                rest ^= low
            vs = tuple(out)
            _set(self, "_vertices", vs)
        return vs


def _adjacency_row(g: GapGraph, i: int) -> int:
    """The mask of every v_j with ``g.is_edge(i, j)``: bit j-1 for each j != i.

    Built here, not on GapGraph, so each ``is_edge`` call crosses from this
    module into :mod:`fibcubes.graphs`.
    """
    row = 0
    is_edge = g.is_edge
    for j in range(1, g.n + 1):
        if j != i and is_edge(i, j):
            row |= 1 << (j - 1)
    return row


def is_independent(g: GapGraph, mask: VertexMask) -> bool:
    """Whether no vertex of the mask has a neighbour in the mask.

    Reads the adjacency row of each set vertex v, the mask of every v_j with
    ``g.is_edge(v, j)``, and stops at the first row that meets the mask.  A
    row is built the first time its vertex is read, with n - 1 ``is_edge``
    calls, and kept in a dict on that graph instance, so each vertex of a
    graph asks ``is_edge`` once, however many masks read it, and a graph
    keeps rows only for the vertices read.

    ``g._rows`` is that dict, keyed by vertex: a list of n + 1 slots would
    hold a slot for every vertex, read or not, 80 MB of pointers on a
    10^7-vertex graph.  The mask's vertex tuple is read from its slot once
    ``vertices()`` has filled it.
    """
    if mask.n != g.n:
        raise ValueError(f"mask length {mask.n} does not match graph order {g.n}")
    rows = g._rows
    if rows is None:
        rows = {}
        _set(g, "_rows", rows)
    bits = mask.bits
    vs = mask._vertices
    if vs is None:
        vs = mask.vertices()
    for v in vs:
        try:
            row = rows[v]
        except KeyError:
            row = rows[v] = _adjacency_row(g, v)
        if bits & row:
            return False
    return True


def gap_check(mask: VertexMask, h: int, circular: bool = False) -> bool:
    """Whether all 1-bits are more than h apart (also around the wrap when
    circular).  Equivalent to independence in the matching gap graph."""
    if h < 0:
        raise ValueError(f"h must be nonnegative, got h={h}")
    bits, n = mask.bits, mask.n
    # Two set bits d apart meet under a shift by d.  On a cycle, bits n - d
    # apart are d apart the other way round.
    for d in range(1, (h if h < n else n - 1) + 1):
        if bits & (bits >> d):
            return False
        if circular and bits & (bits >> (n - d)):
            return False
    return True


def _path_mask_ints(n: int, h: int) -> list[int]:
    """All gap-valid masks for a path, ascending as integers.

    Grown bottom-up: masks using bits [0, m) are the masks using [0, m-1)
    followed by bit m-1 OR-ed onto every mask whose bits stop below m-1-h.
    The growing list is its own table of prefixes, so nothing is recomputed.
    """
    out = [0]
    sizes = [1]  # sizes[m] = number of valid masks with all bits below m
    try:
        for m in range(1, n + 1):
            b = m - 1
            hi = 1 << b
            limit = sizes[max(b - h, 0)]
            out.extend(hi | out[i] for i in range(limit))
            sizes.append(len(out))
    except MemoryError:
        # Free the partial list before the error unwinds. Held by the
        # traceback, it leaves the interpreter no memory for the frames the
        # error passes, and CPython 3.11 can then lose the error and raise
        # SystemError instead.
        del out
        raise
    return out


def _wraps_ok(bits: int, n: int, h: int) -> bool:
    # Gap between the extreme set bits measured the short way around.
    if bits.bit_count() < 2:
        return True
    span = bits.bit_length() - 1 - ((bits & -bits).bit_length() - 1)
    return n - span > h


def _check_cap(g: GapGraph, cap: int) -> None:
    if g.n > cap:
        raise CapacityError(f"refusing to enumerate n={g.n} (cap {cap})")


def iter_masks(g: GapGraph, cap: int = DEFAULT_CAP) -> list[int]:
    """Integer encodings of all independent sets of g, ascending.

    Paths are enumerated by gap-pruned construction; cycles additionally
    filter on the wrap-around gap.  Raises CapacityError above the cap.
    """
    _check_cap(g, cap)
    masks = _path_mask_ints(g.n, g.h)
    if g.kind == CYCLE:
        n, h = g.n, g.h
        masks = [m for m in masks if _wraps_ok(m, n, h)]
    return masks


def enumerate_independent(g: GapGraph, cap: int = DEFAULT_CAP) -> list[VertexMask]:
    """All independent sets of g as VertexMasks, in ascending numeric order."""
    return [VertexMask(g.n, bits) for bits in iter_masks(g, cap)]


def count_by_size(g: GapGraph, cap: int = DEFAULT_CAP) -> dict[int, int]:
    """Histogram of independent-set sizes, by exhaustive enumeration."""
    return dict(sorted(Counter(m.bit_count() for m in iter_masks(g, cap)).items()))


def bijection_f(subset, n: int, h: int) -> VertexMask:
    """Spread a k-subset of {1..n-hk+h} into an independent set of the path
    power: the j-th smallest index is shifted up by (j-1)*h."""
    if h < 0:
        raise ValueError(f"h must be nonnegative, got h={h}")
    idx = list(subset)
    k = len(idx)
    top = n - h * k + h
    if top < 0:
        raise ValueError(f"no {k}-subsets exist for n={n} h={h}")
    bits = 0
    prev = 0
    for j, i in enumerate(idx, start=1):
        if not prev < i <= top:
            raise ValueError(f"indices must be strictly increasing within 1..{top}")
        prev = i
        bits |= 1 << (i + (j - 1) * h - 1)
    return VertexMask(n, bits)


def bijection_f_inv(mask: VertexMask, h: int) -> list[int]:
    """Inverse of bijection_f: shift the j-th set position down by (j-1)*h."""
    if not gap_check(mask, h, circular=False):
        raise ValueError("mask violates the gap condition; not in the image")
    return [p - (j - 1) * h for j, p in enumerate(mask.vertices(), start=1)]


def _gap_pattern(gap: int) -> str:
    return "1" + "0" * (gap - 1) + "1"


# "11", "101", ..., the pattern of each gap up to _CACHED_GAPS, which covers
# every graph that enumeration admits by default; longer ones are made when
# asked for.  _PATTERNS_UP_TO[top] holds the gaps 1..top, as slices of the one
# tuple, so the table adds no strings.
_CACHED_GAPS = 24
_GAP_PATTERNS = tuple(map(_gap_pattern, range(1, _CACHED_GAPS + 1)))
_PATTERNS_UP_TO = tuple(_GAP_PATTERNS[:top] for top in range(_CACHED_GAPS + 1))


def avoids_substrings(mask: VertexMask, h: int, circular: bool = False) -> bool:
    """Whether the mask's string contains none of 11, 101, ..., 1 0^{h-1} 1.

    With ``circular`` the string is read around the wrap (patterns longer
    than the string cannot occur).  For h >= 1 this is yet another phrasing
    of the gap condition.
    """
    if h < 1:
        raise ValueError("substring characterization needs h >= 1")
    s = mask._string
    if s is None:
        s = mask.to_string()
    n = mask.n
    # A pattern of gap n or more is longer than the string, so only gaps up
    # to n - 1 are tested, one ``in`` each. Around the wrap, the text is s
    # followed by its first h characters: its windows that start in s and
    # run past its end are the wrapped ones, and those wholly in the
    # appended prefix are windows of s.
    top = h if h < n else max(n - 1, 0)
    patterns = (_PATTERNS_UP_TO[top] if top <= _CACHED_GAPS
                else map(_gap_pattern, range(1, top + 1)))
    if circular:
        s += s[:h]
    for pat in patterns:
        if pat in s:
            return False
    return True
