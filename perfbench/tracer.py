"""Boundary tracer for the benchmark's traced run; it runs inside the child.

Every public function of ``counting``, ``enumeration``, ``graphs``, ``cube``
and ``verify`` is wrapped only where another fibcubes module calls it: the
tracer rebinds the name in the *calling* module's namespace (or, for a
module imported whole, replaces that module reference with a namespace of
wrapped functions). Calls inside one module stay unwrapped, so every span
sits exactly on a layer boundary. Methods called on objects across a
boundary (``GapGraph.is_edge``, the ``CubeGraph`` exporters and
``hamming_pairs``) are wrapped on the class and skip spans when the caller
is their own module.

Each span keeps a name, a start, an end and its parent. One child runs one
command, so all spans of a command share its identifier, the child's
process id. Spans live in arrays until the command ends; ``summary`` then
reduces them to calls, inclusive time and self time per name.

``verify`` identities are timed from outside: the tracer rebinds
``verify.IdentityReport`` to a subclass that timestamps each construction,
which ``run_suite`` makes right after an identity's sweep finishes.
"""

from __future__ import annotations

import os
import sys
import time
import types
from array import array

from fibcubes import cli, counting, cube, enumeration, graphs, verify

MODULES = {"cli": cli, "verify": verify, "cube": cube,
           "enumeration": enumeration, "graphs": graphs, "counting": counting}
ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [0]
        self.counters: dict[str, int] = {}
        self.identities: list[tuple[str, float, int]] = []
        self._suite_span = -1
        self._mark = 0.0
        self._path_totals: dict[tuple[int, int], int] = {}
        self._install()

    # -- spans ----------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def begin(self, start: float) -> None:
        """Open the root span: the command's whole timed region."""
        self.name.append(self._intern(ROOT))
        self.parent.append(-1)
        self.start.append(start)
        self.end.append(start)

    def _wrap(self, name: str, fn, measure=None, home: dict | None = None):
        ix = self._intern(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter
        getframe = sys._getframe

        def traced(*args, **kwargs):
            if home is not None and getframe(1).f_globals is home:
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(ix)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if measure is not None:
                measure(args, result)
            return result

        return traced

    def _count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- what each boundary measures -------------------------------------------

    def _measure(self, name: str):
        count = self._count
        if name.startswith("counting."):
            def bits(args, result):
                if isinstance(result, int):
                    count("counting.result_bits", result.bit_length())
            return bits
        if name == "enumeration.iter_masks":
            return self._masks
        if name == "cube.build_cube":
            def sizes(args, result):
                count("cube.build_cube.vertices", len(result.vertices))
                count("cube.build_cube.covers", len(result.covers))
            return sizes
        if name == "cube.cover_count":
            return lambda args, result: count("cube.cover_count.covers", result)
        if name.startswith("cube.to_"):
            return lambda args, result: count(f"{name}.bytes", len(result))
        return None

    def _masks(self, args, result) -> None:
        # Cycles are enumerated as path masks and filtered on the wrap gap;
        # the generated count is the path total, from its own recurrence.
        g = args[0]
        self._count("enumeration.iter_masks.masks", len(result))
        self._count("enumeration.path_masks", self._path_total(g.n, g.h))

    def _path_total(self, n: int, h: int) -> int:
        key = (n, h)
        if key not in self._path_totals:
            p = []
            for m in range(n + 1):
                p.append(m + 1 if m <= h + 1 else p[m - 1] + p[m - h - 1])
            self._path_totals[key] = p[n]
        return self._path_totals[key]

    # -- installation ------------------------------------------------------------

    def _install(self) -> None:
        layer_of = {mod.__name__: layer for layer, mod in MODULES.items()}
        wrapped: dict[int, object] = {}

        def boundary(value, caller: str):
            layer = layer_of.get(getattr(value, "__module__", None))
            public = not getattr(value, "__name__", "_").startswith("_")
            if layer is None or layer == caller or not public:
                return None
            if isinstance(value, types.FunctionType) or value is enumeration.VertexMask:
                if id(value) not in wrapped:
                    name = f"{layer}.{value.__name__}"
                    wrapped[id(value)] = self._wrap(name, value, self._measure(name))
                return wrapped[id(value)]
            return None

        for caller, module in MODULES.items():
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.ModuleType) and value.__name__ in layer_of:
                    if value is not module:
                        ns = {k: boundary(v, caller) or v for k, v in vars(value).items()}
                        setattr(module, attr, types.SimpleNamespace(**ns))
                    continue
                replacement = boundary(value, caller)
                if replacement is not None:
                    setattr(module, attr, replacement)

        methods = ((graphs.GapGraph, "is_edge", "graphs.GapGraph.is_edge", graphs),
                   (cube.CubeGraph, "to_dot", "cube.to_dot", cube),
                   (cube.CubeGraph, "to_json", "cube.to_json", cube),
                   (cube.CubeGraph, "to_edgelist_text", "cube.to_edgelist_text", cube),
                   (cube.CubeGraph, "hamming_pairs", "cube.hamming_pairs", cube))
        for cls, attr, name, home in methods:
            setattr(cls, attr, self._wrap(name, getattr(cls, attr),
                                          self._measure(name), vars(home)))

        tracer = self

        class TimedIdentityReport(verify.IdentityReport):
            def __init__(self, *args, **kwargs):
                tracer._identity_done(kwargs["identity"], kwargs["checked"])
                super().__init__(*args, **kwargs)

        verify.IdentityReport = TimedIdentityReport

    def _identity_done(self, identity: str, checked: int) -> None:
        now = time.perf_counter()
        suite = self.stack[-1]          # the open verify.run_suite span
        if suite != self._suite_span:
            self._suite_span, self._mark = suite, self.start[suite]
        self.identities.append((identity, now - self._mark, checked))
        self._mark = now

    # -- reduction -------------------------------------------------------------------

    def summary(self, done: float) -> dict:
        """Close the root span and reduce all spans to per-name totals."""
        self.end[0] = done
        starts, ends, parents, names = self.start, self.end, self.parent, self.name
        count = len(names)
        dur = [e - s for s, e in zip(starts, ends)]
        child = [0.0] * count
        for i in range(1, count):
            child[parents[i]] += dur[i]
        per_name = [[0, 0.0, 0.0] for _ in self.names]
        for i in range(count):
            row = per_name[names[i]]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return {
            "command": os.getpid(),
            "spans": count,
            "names": {n: row for n, row in zip(self.names, per_name) if row[0]},
            "counters": self.counters,
            "identities": self.identities,
        }
