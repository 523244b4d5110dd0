"""Cross-checking suite for every counting identity the library implements.

Identities compare two or more independent computation routes (closed form,
recurrence, convolution, exhaustive enumeration) over bounded parameter
ranges and report witness tuples for any disagreement, so a single failure
pinpoints the broken convention immediately.

Each identity is one registry row: an id, a description, its sweep ranges,
and either two routes, which ``_agree`` compares at each (n, h) or
(n, h, k), or a body ``check(n, h, s)``. One driver, ``_sweep``, runs every
(h, n) loop and clips the ranges by the suite bounds: h by h_max, n by n_max,
or by oracle_n_max for enumeration-backed identities. ``_registry`` builds
the rows on every run, so a row names its routes directly and gets the
functions bound in this module at that moment: a function rebound here (by
a test's monkeypatch, or by the benchmark tracer's per-call spans) is the
one the identity runs.

Values that two rows read are memoized per run: ``_registry`` wraps them in
fresh caches, so nothing in them outlives the run. The per-vertex sums of
``t_count``, which ``edge-count-by-vertex-sums`` and
``vertex-split-product`` both read, are computed once per (n, h), and the
clamped path totals once per (m, h).

Two rows keep their own loops. The independence sweep's n-bits-h order
lets one mask serve every h. It makes its graphs afresh on every run, and
``is_independent`` keeps on each graph the adjacency row of every vertex it
reads, so ``is_edge`` is asked once per (vertex, graph) in a run, not once
per vertex pair of every mask, and a patched ``is_edge`` reaches the next
run. The sweep tallies inline: it compares the routes itself, counts the
comparisons it made (also when a route raises mid-sweep), and records a
witness only on a mismatch, instead of a keyword call to the tally per
comparison. The jump row runs each sequence kind at a few indices per h,
not an (n, h) grid.

A witness locates a failure by n, h, k and i. The rows that loop over
several kinds at one (n, h), the independence sweep and
``hamming-distance-covers`` (path and cycle) and ``recurrence-jump`` (its
six sequence kinds), add the kind first.
"""

from __future__ import annotations

import functools
import itertools

from . import cube, enumeration
from .counting import (
    _CYCLE_TOTALS,
    _PATH_TOTALS,
    EXTENDED_FIBONACCI,
    EXTENDED_LUCAS,
    FIBONACCI,
    LUCAS,
    HSequence,
    cycle_count,
    cycle_count_k,
    cycle_count_rec,
    cycle_edges,
    cycle_edges_closed,
    cycle_edges_conv,
    extended_fib,
    extended_lucas,
    h_fibonacci,
    h_lucas,
    max_subset_size,
    path_count,
    path_count_clamped,
    path_count_k,
    path_count_rec,
    path_edges,
    path_edges_conv,
    t_count,
)
from .enumeration import VertexMask, avoids_substrings, gap_check, is_independent
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


def _edge_count_by_vertex_sums(vertex_sums):
    # Summing per-vertex membership counts hits each k-subset k times.
    def check(n, h, s):
        total = sum(vertex_sums(n, h))
        s.eq(path_edges(n, h), total, n=n, h=h)
    return check


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

def _oracle_counts(kind, count_k, count_total):
    # Exhaustive size histogram against the per-size and total closed forms.
    def check(n, h, s):
        hist = enumeration.count_by_size(GapGraph(kind, n, h))
        s.eq(count_total(n, h), sum(hist.values()), n=n, h=h)
        for k in range(max_subset_size(n, h) + 2):
            s.eq(count_k(n, h, k), hist.get(k, 0), n=n, h=h, k=k)
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


def _cube_counts(kind, count, edges):
    # Diagram vertex and cover counts against the closed forms.
    def check(n, h, s):
        g = GapGraph(kind, n, h)
        masks = enumeration.iter_masks(g)
        rank_weight = sum(m.bit_count() for m in masks)
        covers = cube.cover_count(g)
        # Structural sanity for every n: one cover per element of each set.
        s.eq(rank_weight, covers, n=n, h=h)
        s.eq(count(n, h), len(masks), n=n, h=h)
        if kind == PATH or n > h:  # the cycle edge count is claimed for n > h
            s.eq(edges(n, h), covers, n=n, h=h)
    return check


def _hamming_distance_covers(n, h, s):
    for kind in (PATH, CYCLE):
        c = cube.build_cube(GapGraph(kind, n, h))
        s.eq(len(c.covers), c.hamming_pairs(), n=n, h=h, kind=kind)


def _small_cycle_star_poset(n, h, s):
    # A cycle power with n <= 2h+1 is complete, so its diagram is a star.
    if n <= 2 * h + 1:
        c = cube.build_cube(GapGraph(CYCLE, n, h))
        s.eq(n + 1, c.vertex_count, n=n, h=h)
        s.eq(n, c.cover_count, n=n, h=h)


# ---------------------------------------------------------------------------
# Classical specializations
# ---------------------------------------------------------------------------

def _classical_fib(n: int) -> int:
    # F(1) = F(2) = 1, computed locally so the bridge check is independent.
    a, bb = 1, 1
    if n <= 0:
        return 0
    for _ in range(n - 1):
        a, bb = bb, a + bb
    return a


def _classical_lucas(n: int) -> int:
    # L(1) = 1, L(2) = 3.
    a, bb = 1, 3
    if n == 1:
        return 1
    for _ in range(n - 2):
        a, bb = bb, a + bb
    return bb


def _hypercube_specialization(n, h, s):
    # Boolean-lattice counts hold at h = 0 only, so the row sets h_cap=0.
    edges = n * 2 ** (n - 1) if n else 0
    s.eq(2 ** n, path_count(n, h), n=n, h=h)
    s.eq(edges, path_edges(n, h), n=n, h=h)
    s.eq(2 ** n, cycle_count(n, h), n=n, h=h)
    s.eq(edges, cycle_edges(n, h), n=n, h=h)


def _classical_fibonacci_bridge(n, h, s):
    # Classical Fibonacci numbers hold at h = 1 only, so the row fixes h.
    s.eq(_classical_fib(n + 2), path_count(n, h), n=n, h=h)
    conv = sum(_classical_fib(i) * _classical_fib(n - i + 1) for i in range(1, n + 1))
    s.eq(conv, path_edges(n, h), n=n, h=h)


def _classical_lucas_bridge(n, h, s):
    s.eq(_classical_lucas(n), cycle_count(n, h), n=n, h=h)
    s.eq(n * _classical_fib(n - 1), cycle_edges(n, h), n=n, h=h)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _registry():
    """The identity rows (id, description, runner), built anew on every call
    so that each row's routes are the ones bound in this module right now
    and the caches of values that rows share start empty."""
    vertex_sums = functools.cache(_vertex_sums)
    clamped = functools.cache(path_count_clamped)
    return (
        ("path-count-recurrence",
         "path totals: closed-form sum equals delayed recurrence",
         _agree(path_count, path_count_rec, n_cap=30)),
        ("cycle-count-recurrence",
         "cycle totals: closed-form sum equals delayed recurrence",
         _agree(cycle_count, cycle_count_rec, n_cap=30)),
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
         _agree(path_edges, path_edges_conv)),
        ("cycle-edges-closed-form",
         "cycle diagram edges equal n times a Fibonacci term",
         _agree(cycle_edges, cycle_edges_closed, n_lo=lambda h: h + 1)),
        ("cycle-edges-convolution",
         "cycle diagram edges equal Fibonacci-Lucas convolution",
         _agree(cycle_edges, cycle_edges_conv, n_lo=lambda h: h + 1)),
        # L(n+1) = F(n) + (h+1) F(n-h) for n > h.
        ("lucas-from-fibonacci",
         "Lucas terms decompose into two Fibonacci terms",
         _agree(lambda n, h: h_fibonacci(h, n) + (h + 1) * h_fibonacci(h, n - h),
                lambda n, h: h_lucas(h, n + 1), n_lo=lambda h: h + 1)),
        ("recurrence-jump",
         "delayed recurrences: the square-and-multiply jump equals iteration",
         _run_recurrence_jump),
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
         _sweep(_edge_count_by_vertex_sums(vertex_sums), h_cap=5, n_cap=25, n_lo=lambda h: 1)),
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
         _sweep(_oracle_counts(PATH, path_count_k, path_count), h_cap=6, n_cap=20, oracle=True)),
        ("oracle-cycle-counts",
         "exhaustive cycle enumeration matches closed forms (per size and total)",
         _sweep(_oracle_counts(CYCLE, cycle_count_k, cycle_count), h_cap=6, n_cap=20,
                oracle=True)),
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
         _sweep(_cube_counts(PATH, path_count, path_edges), h_cap=6, n_cap=20, oracle=True)),
        ("cube-cycle-counts",
         "cycle diagram vertex/cover counts match closed forms",
         _sweep(_cube_counts(CYCLE, cycle_count, cycle_edges), h_cap=6, n_cap=20, oracle=True)),
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
