"""Powers of paths and cycles.

A gap graph is determined by (kind, n, h): vertices v_1..v_n, with v_i ~ v_j
(i != j) when |j - i| <= h, plus the wrap-around pairs |j - i| >= n - h for
cycles.  Adjacency is computed on demand; no matrix is stored.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain
from operator import attrgetter

__all__ = ["PATH", "CYCLE", "GapGraph", "edgelist_lines", "edgelist_text", "dot_lines",
           "graph_dot"]

PATH = "path"
CYCLE = "cycle"

_set = object.__setattr__


class _Value:
    """Base of the package's value classes, whose ``__match_args__`` name
    their fields.

    ``==`` holds only against an instance of the same class with equal
    fields, and ``hash`` and ``repr`` read the fields, as for a frozen
    dataclass.  Instances are frozen: ``__init__`` stores the fields with
    ``object.__setattr__`` and any other assignment raises AttributeError,
    so pickle and copy go through ``__reduce__``, which calls the class on
    the fields.  Class attributes stay assignable.  ``dataclasses`` is not
    used because importing it loads ``inspect`` and ``ast``, about 8 ms of
    every command's start-up.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # Every value class has two fields or more, so this returns a tuple.
        cls._fields = attrgetter(*cls.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GapGraph(_Value):
    """The h-power of a path or cycle on n vertices (1-indexed).

    A frozen, slotted value with the fields ``(kind, n, h)``.  One more
    slot, ``_rows``, holds ``None`` until ``enumeration.is_independent``
    first reads the graph; it then keeps the adjacency rows that function
    builds from ``is_edge``, one per vertex read.  It is not a field, so ``==``, ``hash``, ``repr``, pickle
    and copy see only ``(kind, n, h)``, and a copy starts without rows.
    ``is_edge`` makes one range check and one distance test, on the
    distance the short way round for a cycle.
    """

    __slots__ = ("kind", "n", "h", "_rows")
    __match_args__ = ("kind", "n", "h")

    def __init__(self, kind: str, n: int, h: int):
        if kind not in (PATH, CYCLE):
            raise ValueError(f"kind must be {PATH!r} or {CYCLE!r}, got {kind!r}")
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if h < 0:
            raise ValueError("power must be nonnegative")
        _set(self, "kind", kind)
        _set(self, "n", n)
        _set(self, "h", h)
        _set(self, "_rows", None)

    def is_edge(self, i: int, j: int) -> bool:
        """Whether v_i ~ v_j.  Irreflexive; indices must be in 1..n."""
        n = self.n
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"vertex index out of range 1..{n}: ({i}, {j})")
        d = j - i if i < j else i - j
        if d + d > n and self.kind == CYCLE:  # the short way round
            d = n - d
        return 0 < d <= self.h

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """All unordered adjacent pairs (i, j), i < j, in lexicographic order.

        Generated directly in O(edges): for each i, the window j in
        (i, i+h], then on a cycle the wrap-around j >= i + n - h past it.
        """
        n, h = self.n, self.h
        wrap = self.kind == CYCLE
        return (
            (i, j)
            for i in range(1, n + 1)
            for j in chain(
                range(i + 1, min(i + h, n) + 1),
                range(max(i + h + 1, i + n - h), n + 1) if wrap else (),
            )
        )

    def edges(self) -> list[tuple[int, int]]:
        """The pairs of :meth:`iter_edges` as a list."""
        return list(self.iter_edges())


def edgelist_lines(g: GapGraph) -> Iterator[str]:
    """The lines of :func:`edgelist_text`, one per edge, made as they are wanted."""
    return (f"{i} {j}\n" for i, j in g.iter_edges())


def dot_lines(g: GapGraph) -> Iterator[str]:
    """The lines of :func:`graph_dot`, made as they are wanted."""
    return chain([f"graph {g.kind}_{g.n}_{g.h} {{\n"],
                 (f"  v{i};\n" for i in range(1, g.n + 1)),
                 (f"  v{i} -- v{j};\n" for i, j in g.iter_edges()),
                 ["}\n"])


def edgelist_text(g: GapGraph) -> str:
    """Plain-text edge list, one "i j" pair per line."""
    return "".join(edgelist_lines(g))


def graph_dot(g: GapGraph) -> str:
    """Undirected DOT with vertices labeled v1..vn."""
    return "".join(dot_lines(g))
