"""Cross-checking suite for every counting identity the library implements.

Identities compare two or more independent computation routes (closed form,
recurrence, convolution, exhaustive enumeration) over bounded parameter
ranges and report witness tuples for any disagreement, so a single failure
pinpoints the broken convention immediately.

Each identity is one registry row: an id, a description, and a runner,
either ``_agree`` over two routes at each (n, h) or (n, h, k), or ``_sweep``
over a body ``check(n, h, s)``. ``_sweep`` alone runs the (h, n) loops and
clips them by the suite bounds: h by h_max, n by n_max, or by oracle_n_max
for enumeration-backed identities.

The routes are one table, ``_routes``, keyed by (quantity, method). An entry
holds a scalar, which ``fibcubes count`` runs, a row, which ``fibcubes
table`` prints, or both, and the two-route rows read it. To add a route, add
its entry (and a new method to ``_METHODS``) and an identity that compares
it with another route of its quantity; the CLI needs no change.
``_registry`` builds the table and the rows on every run from the functions
bound in this module at that moment, so a function rebound here (by a
test's monkeypatch, or by the benchmark tracer's per-call spans) is the one
that runs.

Values that two rows read are memoized per run: ``_registry`` wraps them in
fresh caches, so nothing in them outlives the run. The per-vertex sums of
``t_count``, which ``edge-count-by-vertex-sums`` and
``vertex-split-product`` both read, are computed once per (n, h), and the
clamped path totals once per (m, h).

Three rows keep their own loops. The independence sweep runs n, bits, then h,
so that one mask serves every h, and tallies its comparisons inline. It
makes its graphs afresh on every run, and ``is_independent`` keeps on each
graph the adjacency rows it reads, so ``is_edge`` is asked once per (vertex,
graph) and a patched ``is_edge`` reaches the next run. The two jump rows
run each sequence kind, or each convolution pair, at a few indices per h,
not an (n, h) grid.

A witness locates a failure by n, h, k and i. The rows that loop over
several kinds at one (n, h), the independence sweep and
``hamming-distance-covers`` (path and cycle), ``recurrence-jump`` (its six
sequence kinds) and ``convolution-jump`` (F * F and F * L), add the kind
first.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter

from . import cube, enumeration
from .counting import (
    _CYCLE_TOTALS,
    _PATH_TOTALS,
    EXTENDED_FIBONACCI,
    EXTENDED_LUCAS,
    FIBONACCI,
    LUCAS,
    HSequence,
    _conv_jump,
    _conv_start,
    _convolution,
    cycle_count,
    cycle_count_k,
    cycle_count_k_rows,
    cycle_count_rec,
    cycle_count_row,
    cycle_edges,
    cycle_edges_closed,
    cycle_edges_conv,
    cycle_edges_row,
    extended_fib,
    extended_lucas,
    h_fibonacci,
    h_lucas,
    max_subset_size,
    path_count,
    path_count_clamped,
    path_count_k,
    path_count_k_rows,
    path_count_rec,
    path_count_row,
    path_edges,
    path_edges_conv,
    path_edges_row,
    t_count,
)
from .enumeration import DEFAULT_CAP, VertexMask, avoids_substrings, gap_check, is_independent
from .graphs import CYCLE, PATH, GapGraph, _set, _Value

__all__ = [
    "Bounds",
    "DEFAULT_BOUNDS",
    "IdentityReport",
    "ALL_IDENTITY_IDS",
    "run_suite",
    "reports_to_json",
    "format_summary",
]

FAILURE_WITNESS_LIMIT = 20


class Bounds(_Value):
    __slots__ = __match_args__ = ("n_max", "h_max", "oracle_n_max")

    def __init__(self, n_max: int, h_max: int, oracle_n_max: int):
        _set(self, "n_max", n_max)
        _set(self, "h_max", h_max)
        _set(self, "oracle_n_max", oracle_n_max)

    def n(self, cap: int) -> int:
        return min(self.n_max, cap)

    def h(self, cap: int) -> int:
        return min(self.h_max, cap)

    def oracle(self, cap: int) -> int:
        return min(self.oracle_n_max, cap)


# The bounds of run_suite() and of a bare `fibcubes verify`.
DEFAULT_BOUNDS = Bounds(n_max=40, h_max=10, oracle_n_max=16)


class IdentityReport(_Value):
    """Outcome of sweeping one identity: pass/fail plus witness tuples.

    Unlike the other value classes, a report is mutable and unhashable, and
    it keeps an instance dict.
    """

    __match_args__ = ("identity", "description", "bounds", "checked", "failed", "failures")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, identity: str, description: str, bounds: dict, checked: int = 0,
                 failed: int = 0, failures: list | None = None):
        self.identity = identity
        self.description = description
        self.bounds = bounds
        self.checked = checked
        self.failed = failed
        self.failures = [] if failures is None else failures

    @property
    def status(self) -> str:
        return "pass" if self.failed == 0 else "fail"

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "description": self.description,
            "bounds": self.bounds,
            "status": self.status,
            "checked": self.checked,
            "failed": self.failed,
            "failures": self.failures,
        }


class _Tally:
    """Collects equality checks and keeps the first few counterexamples.

    A check given a ``kind`` puts it first in its witness.
    """

    def __init__(self):
        self.checked = 0
        self.failed = 0
        self.failures = []

    def eq(self, expected, actual, n=None, h=None, k=None, i=None, kind=None):
        self.checked += 1
        if expected != actual:
            self._fail(expected, actual, n, h, k, i, kind)

    def crash(self, exc: BaseException, n=None, h=None, k=None, i=None):
        self._fail("no exception", repr(exc), n, h, k, i)

    def _fail(self, expected, actual, n, h, k, i, kind=None):
        self.failed += 1
        if len(self.failures) < FAILURE_WITNESS_LIMIT:
            witness = {"n": n, "h": h, "k": k, "i": i,
                       "expected": expected, "actual": actual}
            self.failures.append(witness if kind is None else {"kind": kind, **witness})


# ---------------------------------------------------------------------------
# The sweep driver
# ---------------------------------------------------------------------------

def _sweep(check, h_cap=10, n_cap=40, h_lo=0, n_lo=lambda h: 0, oracle=False):
    """Runner calling check(n, h, s) for h in h_lo..h_cap and, for each h, n in
    n_lo(h)..n_cap. The suite bounds clip h_cap by h_max, and n_cap by n_max,
    or by oracle_n_max for an enumeration-backed (oracle) identity."""
    def run(b: Bounds, s: _Tally):
        n_hi = (b.oracle if oracle else b.n)(n_cap)
        for h in range(h_lo, b.h(h_cap) + 1):
            for n in range(n_lo(h), n_hi + 1):
                check(n, h, s)
    return run


def _agree(lhs, rhs, ks=None, **ranges):
    """Sweep checking lhs(n, h) == rhs(n, h) over ``ranges`` (see _sweep), or,
    given ks, lhs(n, h, k) == rhs(n, h, k) for each k in ks(n, h)."""
    if ks is None:
        return _sweep(lambda n, h, s: s.eq(lhs(n, h), rhs(n, h), n=n, h=h), **ranges)

    def check(n, h, s):
        for k in ks(n, h):
            s.eq(lhs(n, h, k), rhs(n, h, k), n=n, h=h, k=k)
    return _sweep(check, **ranges)


# ---------------------------------------------------------------------------
# Algebraic identities (bounded by n_max / h_max)
# ---------------------------------------------------------------------------

def _vertex_sums(n, h):
    # For i = 1..n, the subsets of the path power through v_i: the sum over
    # k of t_count(n, h, k, i). Two rows read it, through a per-run cache.
    ks = range(1, max_subset_size(n, h) + 1)
    return [sum(t_count(n, h, k, i) for k in ks) for i in range(1, n + 1)]


def _vertex_split_product(vertex_sums, clamped):
    # All subsets through vertex i = (left-segment total) * (right-segment total).
    def check(n, h, s):
        sums = vertex_sums(n, h)
        for i in range(1, n + 1):
            split = clamped(i - h - 1, h) * clamped(n - h - i, h)
            s.eq(split, sums[i - 1], n=n, h=h, i=i)
    return check


def _run_recurrence_jump(b: Bounds, s: _Tally):
    # HSequence.term jumps only far past the seeds, beyond every n swept
    # here, so this row forces the jump on each kind and compares it with
    # one iterated prefix: at the h+1 indices past the last seed, which
    # term steps to from the seeds, at the next one, where term would first
    # leave that path, and at n_max, each as far as n_max allows.
    for kind, h_lo in ((FIBONACCI, 0), (LUCAS, 0), (EXTENDED_FIBONACCI, 2),
                       (EXTENDED_LUCAS, 2), (_PATH_TOTALS, 0), (_CYCLE_TOTALS, 0)):
        for h in range(h_lo, b.h(10) + 1):
            seq = HSequence(kind, h)
            last = seq._last
            ns = [*range(last + 1, min(last + h + 2, b.n_max) + 1)]
            if b.n_max > last + h + 2:
                ns.append(b.n_max)
            terms = seq.prefix(b.n_max)
            for n in ns:
                s.eq(terms[n - seq.min_index], seq._jump(n), n=n, h=h, kind=kind)


def _run_convolution_jump(b: Bounds, s: _Tally):
    # convolve jumps only far out, beyond every n swept here, so this row
    # forces the jump on F * F and F * L and compares it with one streamed
    # prefix: at the first index it serves, at the two just past its 2d-1
    # seeds (d = 2h+2), where its last step and then its squarings first
    # reduce by P^2, and at n_max, each as far as n_max allows.
    for kind in (FIBONACCI, LUCAS):
        for h in range(b.h(10) + 1):
            f, other = HSequence(FIBONACCI, h), HSequence(kind, h)
            first = _conv_start(f, other)
            past = first + 4 * h + 3  # first + 2d - 1
            terms = [*_convolution(f, other, b.n_max)]
            for n in sorted({first, past, past + 1, b.n_max}):
                if first <= n <= b.n_max:
                    s.eq(terms[n - 1], _conv_jump(f, other, n), n=n, h=h,
                         kind=f"{FIBONACCI}*{kind}")


def _exact_arithmetic_sanity(n, h, s):
    # Counts are never negative and the cycle division is always exact.
    for k in range(max_subset_size(n, h) + 3):
        try:
            pk = path_count_k(n, h, k)
            ck = cycle_count_k(n, h, k)
        except ArithmeticError as exc:
            s.crash(exc, n=n, h=h, k=k)
            continue
        s.eq(True, pk >= 0 and ck >= 0, n=n, h=h, k=k)


# ---------------------------------------------------------------------------
# Enumeration-backed identities (bounded by oracle_n_max)
# ---------------------------------------------------------------------------

def _oracle_counts(routes, kind):
    # Exhaustive size histogram against the per-size and total closed forms;
    # the oracle routes of one (n, h) share one enumeration.
    total, found = (routes[kind, m]["scalar"] for m in ("closed", "oracle"))
    count_k, found_k = (routes[f"{kind}-k", m]["scalar"] for m in ("closed", "oracle"))

    def check(n, h, s):
        s.eq(total(n, h), found(n, h), n=n, h=h)
        for k in range(max_subset_size(n, h) + 2):
            s.eq(count_k(n, h, k), found_k(n, h, k), n=n, h=h, k=k)
    return check


def _run_independence_characterizations(b: Bounds, s: _Tally):
    # gap condition == graph independence == substring avoidance (h >= 1),
    # over every bit string, linear and circular. The sweep runs n, then
    # bits, then h: one mask per bit string serves every h, and its vertex
    # tuple and string are decoded once. Witnesses come in (n, bits, h) order
    # and name the graph kind, path or cycle.
    # Its 720,874 comparisons at the default bounds are tallied inline: s.eq
    # would add a keyword call to each.
    hs = range(b.h(5) + 1)
    checked = 0
    try:
        for n in range(b.oracle(14) + 1):
            graphs = [(h, circular, GapGraph(CYCLE if circular else PATH, n, h))
                      for h in hs for circular in (False, True)]
            for bits in range(1 << n):
                mask = VertexMask(n, bits)
                for h, circular, g in graphs:
                    by_gap = gap_check(mask, h, circular)
                    other = is_independent(g, mask)
                    checked += 1
                    if by_gap != other:
                        s._fail(by_gap, other, n, h, None, bits, g.kind)
                    if h >= 1:
                        other = avoids_substrings(mask, h, circular)
                        checked += 1
                        if by_gap != other:
                            s._fail(by_gap, other, n, h, None, bits, g.kind)
    finally:
        s.checked += checked


def _subset_shift_bijection(n, h, s):
    # The index-spreading map is injective, lands on gap-valid masks, inverts
    # cleanly, and its image is exactly as large as the closed form says.
    for k in range(max_subset_size(n, h) + 1):
        top = n - h * k + h  # >= 1 for n >= 1, since k <= ceil(n / (h+1))
        images = set()
        ok = True
        for combo in itertools.combinations(range(1, top + 1), k):
            mask = enumeration.bijection_f(combo, n, h)
            if not gap_check(mask, h):
                s.eq("gap-valid image", str(mask), n=n, h=h, k=k)
                ok = False
                break
            if enumeration.bijection_f_inv(mask, h) != list(combo):
                s.eq(list(combo), enumeration.bijection_f_inv(mask, h), n=n, h=h, k=k)
                ok = False
                break
            images.add(mask.bits)
        if ok:
            s.eq(path_count_k(n, h, k), len(images), n=n, h=h, k=k)


def _vertex_membership_counts(n, h, s):
    # t_count against exhaustive (size, member) tallies.
    tally: dict[tuple[int, int], int] = {}
    for bits in enumeration.iter_masks(GapGraph(PATH, n, h)):
        k = bits.bit_count()
        rest = bits
        while rest:
            low = rest & -rest
            pos = low.bit_length()  # 1-based vertex index
            tally[(k, pos)] = tally.get((k, pos), 0) + 1
            rest ^= low
    for k in range(1, max_subset_size(n, h) + 1):
        for i in range(1, n + 1):
            s.eq(tally.get((k, i), 0), t_count(n, h, k, i), n=n, h=h, k=k, i=i)


def _cube_counts(routes, kind):
    # Diagram vertex and cover counts against the closed forms.
    count, edges = routes[kind, "closed"]["scalar"], routes[f"{kind}-edges", "closed"]["scalar"]
    cover_count = routes[f"{kind}-edges", "oracle"]["scalar"]

    def check(n, h, s):
        g = GapGraph(kind, n, h)
        masks = enumeration.iter_masks(g)
        covers = cover_count(n, h)
        # The literal enumeration's sizes against the cube built rank by rank.
        s.eq(Counter(map(int.bit_count, masks)), cube.build_cube(g).rank_profile(), n=n, h=h)
        s.eq(count(n, h), len(masks), n=n, h=h)
        if kind == PATH or n > h:  # the cycle edge count is claimed for n > h
            s.eq(edges(n, h), covers, n=n, h=h)
    return check


def _hamming_distance_covers(n, h, s):
    for kind in (PATH, CYCLE):
        c = cube.build_cube(GapGraph(kind, n, h))
        s.eq(sum(1 for _ in c.covers), c.hamming_pairs(), n=n, h=h, kind=kind)


def _small_cycle_star_poset(n, h, s):
    # A cycle power with n <= 2h+1 is complete, so its diagram is a star.
    if n <= 2 * h + 1:
        c = cube.build_cube(GapGraph(CYCLE, n, h))
        s.eq(n + 1, c.vertex_count, n=n, h=h)
        s.eq(n, sum(1 for _ in c.covers), n=n, h=h)


# ---------------------------------------------------------------------------
# Classical specializations
# ---------------------------------------------------------------------------

def _classical(n: int, first: int, second: int) -> int:
    # Term n >= 1 of t(n) = t(n-1) + t(n-2) from t(1), t(2) = first, second:
    # Fibonacci from 1, 1 and Lucas from 1, 3, computed locally so the bridge
    # checks are independent.
    for _ in range(n - 1):
        first, second = second, first + second
    return first


def _hypercube_specialization(n, h, s):
    # Boolean-lattice counts hold at h = 0 only, so the row sets h_cap=0.
    edges = n * 2 ** (n - 1) if n else 0
    s.eq(2 ** n, path_count(n, h), n=n, h=h)
    s.eq(edges, path_edges(n, h), n=n, h=h)
    s.eq(2 ** n, cycle_count(n, h), n=n, h=h)
    s.eq(edges, cycle_edges(n, h), n=n, h=h)


def _classical_fibonacci_bridge(n, h, s):
    # Classical Fibonacci numbers hold at h = 1 only, so the row fixes h.
    s.eq(_classical(n + 2, 1, 1), path_count(n, h), n=n, h=h)
    conv = sum(_classical(i, 1, 1) * _classical(n - i + 1, 1, 1) for i in range(1, n + 1))
    s.eq(conv, path_edges(n, h), n=n, h=h)


def _classical_lucas_bridge(n, h, s):
    s.eq(_classical(n, 1, 3), cycle_count(n, h), n=n, h=h)
    s.eq(n * _classical(n - 1, 1, 1), cycle_edges(n, h), n=n, h=h)


# ---------------------------------------------------------------------------
# Routes and registry
# ---------------------------------------------------------------------------

# The methods of ``_routes()`` in the order they first appear there, which is
# the order of ``fibcubes count --route``'s choices; a test keeps the two in step.
_METHODS = ("closed", "recurrence", "conv", "oracle")


def _routes(cap: int = DEFAULT_CAP) -> dict:
    """Every route, keyed by (quantity, method), built anew on every call
    from the functions bound in this module right now, as ``_registry`` is.

    An entry holds a "scalar", which takes (n, h), or (n, h, k) for a
    quantity of one subset size k ("path-k", "cycle-k"); a "row", which takes
    (n_max, h) and gives the values at n = 0..n_max, or for a "-k" quantity
    yields such rows for k = 0, 1, ...; or both. The oracle routes enumerate
    under ``cap``; the set counts keep the size histogram of the last graph
    asked, so asking each k enumerates once.  Nothing is made for them
    until one is asked: ``fibcubes count`` builds this table once, to
    dispatch one scalar, and takes its ``--route`` choices from ``_METHODS``."""
    @functools.lru_cache(maxsize=1)
    def sizes(*graph):
        return enumeration.count_by_size(GapGraph(*graph), cap)

    def covers(kind):
        return {"scalar": lambda n, h: cube.cover_count(GapGraph(kind, n, h), cap)}

    return {
        ("path", "closed"): {"scalar": path_count},
        ("path-k", "closed"): {"scalar": path_count_k},
        ("cycle", "closed"): {"scalar": cycle_count},
        ("cycle-k", "closed"): {"scalar": cycle_count_k},
        ("path-edges", "closed"): {"scalar": path_edges},
        ("cycle-edges", "closed"): {"scalar": cycle_edges},
        ("path", "recurrence"): {"scalar": path_count_rec, "row": path_count_row},
        ("path-k", "recurrence"): {"row": path_count_k_rows},
        ("cycle", "recurrence"): {"scalar": cycle_count_rec, "row": cycle_count_row},
        ("cycle-k", "recurrence"): {"row": cycle_count_k_rows},
        ("cycle-edges", "recurrence"): {"scalar": cycle_edges_closed, "row": cycle_edges_row},
        ("path-edges", "conv"): {"scalar": path_edges_conv, "row": path_edges_row},
        ("cycle-edges", "conv"): {"scalar": cycle_edges_conv},
        ("path", "oracle"): {"scalar": lambda n, h: sum(sizes(PATH, n, h).values())},
        ("path-k", "oracle"): {"scalar": lambda n, h, k: sizes(PATH, n, h).get(k, 0)},
        ("cycle", "oracle"): {"scalar": lambda n, h: sum(sizes(CYCLE, n, h).values())},
        ("cycle-k", "oracle"): {"scalar": lambda n, h, k: sizes(CYCLE, n, h).get(k, 0)},
        ("path-edges", "oracle"): covers(PATH),
        ("cycle-edges", "oracle"): covers(CYCLE),
    }


def _registry():
    """The identity rows (id, description, runner), built anew on every call
    so that each row's routes are the ones bound in this module right now
    and the caches of values that rows share start empty."""
    vertex_sums = functools.cache(_vertex_sums)
    clamped = functools.cache(path_count_clamped)
    routes = _routes()

    def agree(quantity, method, other, **ranges):
        return _agree(*(routes[quantity, m]["scalar"] for m in (method, other)), **ranges)

    return (
        ("path-count-recurrence",
         "path totals: closed-form sum equals delayed recurrence",
         agree("path", "closed", "recurrence", n_cap=30)),
        ("cycle-count-recurrence",
         "cycle totals: closed-form sum equals delayed recurrence",
         agree("cycle", "closed", "recurrence", n_cap=30)),
        # F(i) equals the path total at i-h-1, with negative indices clamped to 1.
        ("fib-matches-path-counts",
         "delayed Fibonacci terms are shifted path totals",
         _agree(lambda i, h: path_count_clamped(i - h - 1, h), lambda i, h: h_fibonacci(h, i),
                n_lo=lambda h: 1)),
        # L(i) equals the cycle total at i-1 once i >= h+2.
        ("lucas-matches-cycle-counts",
         "delayed Lucas terms are shifted cycle totals",
         _agree(lambda i, h: cycle_count(i - 1, h), lambda i, h: h_lucas(h, i),
                n_lo=lambda h: h + 2)),
        ("path-edges-convolution",
         "path diagram edges equal Fibonacci self-convolution",
         agree("path-edges", "closed", "conv")),
        ("cycle-edges-closed-form",
         "cycle diagram edges equal n times a Fibonacci term",
         agree("cycle-edges", "closed", "recurrence", n_lo=lambda h: h + 1)),
        ("cycle-edges-convolution",
         "cycle diagram edges equal Fibonacci-Lucas convolution",
         agree("cycle-edges", "closed", "conv", n_lo=lambda h: h + 1)),
        # L(n+1) = F(n) + (h+1) F(n-h) for n > h.
        ("lucas-from-fibonacci",
         "Lucas terms decompose into two Fibonacci terms",
         _agree(lambda n, h: h_fibonacci(h, n) + (h + 1) * h_fibonacci(h, n - h),
                lambda n, h: h_lucas(h, n + 1), n_lo=lambda h: h + 1)),
        ("recurrence-jump",
         "delayed recurrences: the square-and-multiply jump equals iteration",
         _run_recurrence_jump),
        ("convolution-jump",
         "convolution routes: the square-and-multiply jump equals the driven stream",
         _run_convolution_jump),
        # Splitting a cycle at a vertex or at a wrap pair leaves path segments:
        # c(n-h-1, k-1) = p(n-2h-1, k-1) + h*p(n-3h-2, k-2) once n > 3h+2.
        ("path-cycle-count-bridge",
         "cycle per-size counts from path counts via vertex/pair splitting",
         _agree(lambda n, h, k: cycle_count_k(n - h - 1, h, k - 1),
                lambda n, h, k: (path_count_k(n - 2 * h - 1, h, k - 1)
                                 + h * path_count_k(n - 3 * h - 2, h, k - 2)),
                ks=lambda n, h: range(1, max_subset_size(n - h - 1, h) + 2),
                n_lo=lambda h: 3 * h + 3)),
        ("edge-count-by-vertex-sums",
         "per-vertex membership counts sum to the edge count",
         # Summing per-vertex membership counts hits each k-subset k times.
         _agree(path_edges, lambda n, h: sum(vertex_sums(n, h)), h_cap=5, n_cap=25,
                n_lo=lambda h: 1)),
        ("vertex-split-product",
         "membership counts through a vertex factor into segment totals",
         _sweep(_vertex_split_product(vertex_sums, clamped), h_cap=5, n_cap=25, n_lo=lambda h: 1)),
        ("extended-fibonacci-agreement",
         "negatively-indexed Fibonacci extension matches the plain sequence",
         _agree(lambda n, h: h_fibonacci(h, n), lambda n, h: extended_fib(h, n),
                h_lo=2, n_lo=lambda h: 1)),
        ("extended-lucas-agreement",
         "negatively-indexed Lucas extension matches the plain sequence",
         _agree(lambda n, h: h_lucas(h, n), lambda n, h: extended_lucas(h, n),
                h_lo=2, n_lo=lambda h: 1)),
        # Dropping the gap by one while shrinking n by k-1 preserves the count;
        # k <= n+1 keeps the shrunk n nonnegative.
        ("path-count-shift-symmetry",
         "per-size path counts shift between neighboring gaps",
         _agree(path_count_k, lambda n, h, k: path_count_k(n - k + 1, h - 1, k),
                ks=lambda n, h: range(min(n, max_subset_size(n, h)) + 2), h_lo=1)),
        ("exact-arithmetic-sanity",
         "counts are nonnegative and cycle divisions are exact",
         _sweep(_exact_arithmetic_sanity)),
        ("oracle-path-counts",
         "exhaustive path enumeration matches closed forms (per size and total)",
         _sweep(_oracle_counts(routes, PATH), h_cap=6, n_cap=20, oracle=True)),
        ("oracle-cycle-counts",
         "exhaustive cycle enumeration matches closed forms (per size and total)",
         _sweep(_oracle_counts(routes, CYCLE), h_cap=6, n_cap=20, oracle=True)),
        ("independence-characterizations",
         "gap condition == graph independence == substring avoidance",
         _run_independence_characterizations),
        ("subset-shift-bijection",
         "index-spreading bijection is injective, valid, and invertible",
         _sweep(_subset_shift_bijection, h_cap=4, n_cap=14, oracle=True)),
        ("vertex-membership-counts",
         "per-vertex membership formula matches exhaustive tallies",
         _sweep(_vertex_membership_counts, h_cap=4, n_cap=16, n_lo=lambda h: 1, oracle=True)),
        ("cube-path-counts",
         "path diagram vertex/cover counts match closed forms",
         _sweep(_cube_counts(routes, PATH), h_cap=6, n_cap=20, oracle=True)),
        ("cube-cycle-counts",
         "cycle diagram vertex/cover counts match closed forms",
         _sweep(_cube_counts(routes, CYCLE), h_cap=6, n_cap=20, oracle=True)),
        ("hamming-distance-covers",
         "cover pairs coincide with Hamming-distance-1 pairs",
         _sweep(_hamming_distance_covers, h_cap=6, n_cap=12, oracle=True)),
        ("small-cycle-star-poset",
         "complete cycle powers give star-shaped diagrams",
         _sweep(_small_cycle_star_poset, n_cap=16, oracle=True)),
        ("hypercube-specialization",
         "gap 0 reproduces Boolean-lattice counts 2^n and n*2^(n-1)",
         _sweep(_hypercube_specialization, h_cap=0)),
        ("classical-fibonacci-bridge",
         "gap 1 path counts/edges reproduce classical Fibonacci identities",
         _sweep(_classical_fibonacci_bridge, h_lo=1, h_cap=1)),
        ("classical-lucas-bridge",
         "gap 1 cycle counts/edges reproduce classical Lucas identities",
         _sweep(_classical_lucas_bridge, h_lo=1, h_cap=1, n_lo=lambda h: 2)),
    )


ALL_IDENTITY_IDS = tuple(row[0] for row in _registry())

if len(set(ALL_IDENTITY_IDS)) != len(ALL_IDENTITY_IDS):
    raise RuntimeError("duplicate identity id")


def run_suite(n_max: int = DEFAULT_BOUNDS.n_max, h_max: int = DEFAULT_BOUNDS.h_max,
              oracle_n_max: int = DEFAULT_BOUNDS.oracle_n_max) -> list[IdentityReport]:
    """Run every registered identity and return one report per identity.

    Failures are data, not exceptions: a crashing identity is reported as
    failed with the exception as its witness. A negative bound, which would
    sweep nothing and pass vacuously, raises ValueError.
    """
    if min(n_max, h_max, oracle_n_max) < 0:
        raise ValueError(f"verify bounds must be nonnegative, got n_max={n_max}, "
                         f"h_max={h_max}, oracle_n_max={oracle_n_max}")
    bounds = Bounds(n_max, h_max, oracle_n_max)
    reports = []
    for identity, description, runner in _registry():
        tally = _Tally()
        try:
            runner(bounds, tally)
        except Exception as exc:  # record, never abort the suite
            tally.crash(exc)
        reports.append(IdentityReport(
            identity=identity,
            description=description,
            bounds={"n_max": n_max, "h_max": h_max, "oracle_n_max": oracle_n_max},
            checked=tally.checked,
            failed=tally.failed,
            failures=tally.failures,
        ))
    reports.sort(key=lambda r: r.identity)
    return reports


def reports_to_json(reports: list[IdentityReport]) -> str:
    import json  # only here, so output other than JSON never loads it

    return json.dumps([r.to_dict() for r in reports], indent=2) + "\n"


def format_summary(reports: list[IdentityReport]) -> str:
    """Human-readable one-line-per-identity summary table."""
    width = max(len(r.identity) for r in reports)
    lines = [f"{'identity'.ljust(width)}  status  checked  failed"]
    for r in reports:
        lines.append(f"{r.identity.ljust(width)}  {r.status:6}  {r.checked:7}  {r.failed:6}")
    bad = sum(1 for r in reports if r.failed)
    lines.append(f"{len(reports)} identities, {len(reports) - bad} passed, {bad} failed")
    return "\n".join(lines) + "\n"
