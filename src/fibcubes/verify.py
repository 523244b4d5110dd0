"""Cross-checking suite for every counting identity the library implements.

Each identity is registered with an id, a description, and a sweep runner.
Runners compare two or more independent computation routes (closed form,
recurrence, convolution, exhaustive enumeration) over bounded parameter
ranges and report witness tuples for any disagreement, so a single failure
pinpoints the broken convention immediately.

An identity that equates two routes at each (n, h) is one registry row: its
two routes sit next to its id as lambdas, and ``_agree`` sweeps them. The
lambdas look each counting function up in this module's namespace when they
are called, not at import, so a function rebound here (by a test's
monkeypatch, or by the benchmark tracer's per-call spans) is the one the
identity runs. Identities with a k or i loop, or a custom body, stay
functions.

Every identity applies its own documented sweep range, clipped by the
suite-level bounds; enumeration-backed identities are clipped by the oracle
bound instead of the algebraic one.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from . import cube, enumeration
from .counting import (
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
from .graphs import CYCLE, PATH, GapGraph

__all__ = [
    "Bounds",
    "IdentityReport",
    "ALL_IDENTITY_IDS",
    "run_suite",
    "reports_to_json",
    "format_summary",
]

FAILURE_WITNESS_LIMIT = 20


@dataclass(frozen=True)
class Bounds:
    n_max: int
    h_max: int
    oracle_n_max: int

    def n(self, cap: int) -> int:
        return min(self.n_max, cap)

    def h(self, cap: int) -> int:
        return min(self.h_max, cap)

    def oracle(self, cap: int) -> int:
        return min(self.oracle_n_max, cap)


@dataclass
class IdentityReport:
    """Outcome of sweeping one identity: pass/fail plus witness tuples."""

    identity: str
    description: str
    bounds: dict
    checked: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

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


class _Sweep:
    """Collects equality checks and keeps the first few counterexamples."""

    def __init__(self):
        self.checked = 0
        self.failed = 0
        self.failures = []

    def eq(self, expected, actual, n=None, h=None, k=None, i=None):
        self.checked += 1
        if expected != actual:
            self._fail(expected, actual, n, h, k, i)

    def crash(self, exc: BaseException, n=None, h=None, k=None, i=None):
        self._fail("no exception", repr(exc), n, h, k, i)

    def _fail(self, expected, actual, n, h, k, i):
        self.failed += 1
        if len(self.failures) < FAILURE_WITNESS_LIMIT:
            self.failures.append({"n": n, "h": h, "k": k, "i": i,
                                  "expected": expected, "actual": actual})


# ---------------------------------------------------------------------------
# Algebraic identities (bounded by n_max / h_max)
# ---------------------------------------------------------------------------

def _agree(lhs, rhs, n_cap=40, h_lo=0, n_lo=lambda h: 0):
    """Runner checking lhs(n, h) == rhs(n, h) over h_lo..10, n_lo(h)..n_cap."""
    def run(b: Bounds, s: _Sweep):
        for h in range(h_lo, b.h(10) + 1):
            for n in range(n_lo(h), b.n(n_cap) + 1):
                s.eq(lhs(n, h), rhs(n, h), n=n, h=h)
    return run


def _run_path_cycle_count_bridge(b: Bounds, s: _Sweep):
    # Splitting a cycle at a vertex or at a wrap pair leaves path segments:
    # p(n-2h-1, k-1) + h*p(n-3h-2, k-2) = c(n-h-1, k-1) once n > 3h+2.
    for h in range(b.h(10) + 1):
        for n in range(3 * h + 3, b.n(40) + 1):
            for k in range(1, max_subset_size(n - h - 1, h) + 2):
                lhs = (path_count_k(n - 2 * h - 1, h, k - 1)
                       + h * path_count_k(n - 3 * h - 2, h, k - 2))
                s.eq(cycle_count_k(n - h - 1, h, k - 1), lhs, n=n, h=h, k=k)


def _run_edge_count_by_vertex_sums(b: Bounds, s: _Sweep):
    # Summing per-vertex membership counts hits each k-subset k times.
    for h in range(b.h(5) + 1):
        for n in range(1, b.n(25) + 1):
            total = sum(
                t_count(n, h, k, i)
                for k in range(1, max_subset_size(n, h) + 1)
                for i in range(1, n + 1)
            )
            s.eq(path_edges(n, h), total, n=n, h=h)


def _run_vertex_split_product(b: Bounds, s: _Sweep):
    # All subsets through vertex i = (left-segment total) * (right-segment total).
    for h in range(b.h(5) + 1):
        for n in range(1, b.n(25) + 1):
            kmax = max_subset_size(n, h)
            for i in range(1, n + 1):
                through = sum(t_count(n, h, k, i) for k in range(1, kmax + 1))
                split = (path_count_clamped(i - h - 1, h)
                         * path_count_clamped(n - h - i, h))
                s.eq(split, through, n=n, h=h, i=i)


def _run_path_count_shift_symmetry(b: Bounds, s: _Sweep):
    # Dropping the gap by one while shrinking n by k-1 preserves the count.
    for h in range(1, b.h(10) + 1):
        for n in range(b.n(40) + 1):
            for k in range(0, min(n + 1, max_subset_size(n, h) + 1) + 1):
                if n - k + 1 < 0:
                    continue
                s.eq(path_count_k(n, h, k),
                     path_count_k(n - k + 1, h - 1, k), n=n, h=h, k=k)


def _run_exact_arithmetic_sanity(b: Bounds, s: _Sweep):
    # Counts are never negative and the cycle division is always exact.
    for h in range(b.h(10) + 1):
        for n in range(b.n(40) + 1):
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

def _run_oracle_counts(kind: str, count_k, count_total, b: Bounds, s: _Sweep):
    for h in range(b.h(6) + 1):
        for n in range(b.oracle(20) + 1):
            hist = enumeration.count_by_size(GapGraph(kind, n, h))
            s.eq(count_total(n, h), sum(hist.values()), n=n, h=h)
            for k in range(max_subset_size(n, h) + 2):
                s.eq(count_k(n, h, k), hist.get(k, 0), n=n, h=h, k=k)


def _run_independence_characterizations(b: Bounds, s: _Sweep):
    # gap condition == graph independence == substring avoidance (h >= 1),
    # over every bit string, linear and circular. The sweep runs n, then
    # bits, then h: one mask per bit string serves every h, and its vertex
    # tuple and string are decoded once. Witnesses come in (n, bits, h) order.
    hs = range(b.h(5) + 1)
    for n in range(b.oracle(14) + 1):
        graphs = [(h, circular, GapGraph(CYCLE if circular else PATH, n, h))
                  for h in hs for circular in (False, True)]
        for bits in range(1 << n):
            mask = VertexMask(n, bits)
            for h, circular, g in graphs:
                by_gap = gap_check(mask, h, circular)
                s.eq(by_gap, is_independent(g, mask), n=n, h=h, i=bits)
                if h >= 1:
                    s.eq(by_gap, avoids_substrings(mask, h, circular),
                         n=n, h=h, i=bits)


def _run_subset_shift_bijection(b: Bounds, s: _Sweep):
    # The index-spreading map is injective, lands on gap-valid masks, inverts
    # cleanly, and its image is exactly as large as the closed form says.
    for h in range(b.h(4) + 1):
        for n in range(b.oracle(14) + 1):
            for k in range(max_subset_size(n, h) + 1):
                top = n - h * k + h
                if top < 0:
                    continue
                images = set()
                ok = True
                for combo in itertools.combinations(range(1, top + 1), k):
                    mask = enumeration.bijection_f(combo, n, h)
                    if not gap_check(mask, h):
                        s.eq("gap-valid image", str(mask), n=n, h=h, k=k)
                        ok = False
                        break
                    if enumeration.bijection_f_inv(mask, h) != list(combo):
                        s.eq(list(combo), enumeration.bijection_f_inv(mask, h),
                             n=n, h=h, k=k)
                        ok = False
                        break
                    images.add(mask.bits)
                if ok:
                    s.eq(path_count_k(n, h, k), len(images), n=n, h=h, k=k)


def _run_vertex_membership_counts(b: Bounds, s: _Sweep):
    # t_count against exhaustive (size, member) tallies.
    for h in range(b.h(4) + 1):
        for n in range(1, b.oracle(16) + 1):
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


def _run_cube_counts(kind: str, b: Bounds, s: _Sweep):
    for h in range(b.h(6) + 1):
        for n in range(b.oracle(20) + 1):
            g = GapGraph(kind, n, h)
            masks = enumeration.iter_masks(g)
            rank_weight = sum(m.bit_count() for m in masks)
            covers = cube.cover_count(g)
            # Structural sanity for every n: one cover per element of each set.
            s.eq(rank_weight, covers, n=n, h=h)
            if kind == PATH:
                s.eq(path_count(n, h), len(masks), n=n, h=h)
                s.eq(path_edges(n, h), covers, n=n, h=h)
            else:
                s.eq(cycle_count(n, h), len(masks), n=n, h=h)
                if n > h:
                    s.eq(cycle_edges(n, h), covers, n=n, h=h)


def _run_hamming_distance_covers(b: Bounds, s: _Sweep):
    for kind in (PATH, CYCLE):
        for h in range(b.h(6) + 1):
            for n in range(b.oracle(12) + 1):
                c = cube.build_cube(GapGraph(kind, n, h))
                s.eq(len(c.covers), c.hamming_pairs(), n=n, h=h)


def _run_small_cycle_star_poset(b: Bounds, s: _Sweep):
    # A cycle power with n <= 2h+1 is complete, so its diagram is a star.
    for h in range(b.h(10) + 1):
        for n in range(min(2 * h + 1, b.oracle(16)) + 1):
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


def _run_hypercube_specialization(b: Bounds, s: _Sweep):
    for n in range(b.n(40) + 1):
        s.eq(2 ** n, path_count(n, 0), n=n, h=0)
        s.eq(n * 2 ** (n - 1) if n else 0, path_edges(n, 0), n=n, h=0)
        s.eq(2 ** n, cycle_count(n, 0), n=n, h=0)
        s.eq(n * 2 ** (n - 1) if n else 0, cycle_edges(n, 0), n=n, h=0)


def _run_classical_fibonacci_bridge(b: Bounds, s: _Sweep):
    for n in range(b.n(40) + 1):
        s.eq(_classical_fib(n + 2), path_count(n, 1), n=n, h=1)
        conv = sum(_classical_fib(i) * _classical_fib(n - i + 1) for i in range(1, n + 1))
        s.eq(conv, path_edges(n, 1), n=n, h=1)


def _run_classical_lucas_bridge(b: Bounds, s: _Sweep):
    for n in range(2, b.n(40) + 1):
        s.eq(_classical_lucas(n), cycle_count(n, 1), n=n, h=1)
        s.eq(n * _classical_fib(n - 1), cycle_edges(n, 1), n=n, h=1)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY = (
    ("path-count-recurrence",
     "path totals: closed-form sum equals delayed recurrence",
     _agree(lambda n, h: path_count(n, h), lambda n, h: path_count_rec(n, h), n_cap=30)),
    ("cycle-count-recurrence",
     "cycle totals: closed-form sum equals delayed recurrence",
     _agree(lambda n, h: cycle_count(n, h), lambda n, h: cycle_count_rec(n, h), n_cap=30)),
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
     _agree(lambda n, h: path_edges(n, h), lambda n, h: path_edges_conv(n, h))),
    ("cycle-edges-closed-form",
     "cycle diagram edges equal n times a Fibonacci term",
     _agree(lambda n, h: cycle_edges(n, h), lambda n, h: cycle_edges_closed(n, h),
            n_lo=lambda h: h + 1)),
    ("cycle-edges-convolution",
     "cycle diagram edges equal Fibonacci-Lucas convolution",
     _agree(lambda n, h: cycle_edges(n, h), lambda n, h: cycle_edges_conv(n, h),
            n_lo=lambda h: h + 1)),
    # L(n+1) = F(n) + (h+1) F(n-h) for n > h.
    ("lucas-from-fibonacci",
     "Lucas terms decompose into two Fibonacci terms",
     _agree(lambda n, h: h_fibonacci(h, n) + (h + 1) * h_fibonacci(h, n - h),
            lambda n, h: h_lucas(h, n + 1), n_lo=lambda h: h + 1)),
    ("path-cycle-count-bridge",
     "cycle per-size counts from path counts via vertex/pair splitting",
     _run_path_cycle_count_bridge),
    ("edge-count-by-vertex-sums",
     "per-vertex membership counts sum to the edge count",
     _run_edge_count_by_vertex_sums),
    ("vertex-split-product",
     "membership counts through a vertex factor into segment totals",
     _run_vertex_split_product),
    ("extended-fibonacci-agreement",
     "negatively-indexed Fibonacci extension matches the plain sequence",
     _agree(lambda n, h: h_fibonacci(h, n), lambda n, h: extended_fib(h, n),
            h_lo=2, n_lo=lambda h: 1)),
    ("extended-lucas-agreement",
     "negatively-indexed Lucas extension matches the plain sequence",
     _agree(lambda n, h: h_lucas(h, n), lambda n, h: extended_lucas(h, n),
            h_lo=2, n_lo=lambda h: 1)),
    ("path-count-shift-symmetry",
     "per-size path counts shift between neighboring gaps",
     _run_path_count_shift_symmetry),
    ("exact-arithmetic-sanity",
     "counts are nonnegative and cycle divisions are exact",
     _run_exact_arithmetic_sanity),
    ("oracle-path-counts",
     "exhaustive path enumeration matches closed forms (per size and total)",
     lambda b, s: _run_oracle_counts(PATH, path_count_k, path_count, b, s)),
    ("oracle-cycle-counts",
     "exhaustive cycle enumeration matches closed forms (per size and total)",
     lambda b, s: _run_oracle_counts(CYCLE, cycle_count_k, cycle_count, b, s)),
    ("independence-characterizations",
     "gap condition == graph independence == substring avoidance",
     _run_independence_characterizations),
    ("subset-shift-bijection",
     "index-spreading bijection is injective, valid, and invertible",
     _run_subset_shift_bijection),
    ("vertex-membership-counts",
     "per-vertex membership formula matches exhaustive tallies",
     _run_vertex_membership_counts),
    ("cube-path-counts",
     "path diagram vertex/cover counts match closed forms",
     lambda b, s: _run_cube_counts(PATH, b, s)),
    ("cube-cycle-counts",
     "cycle diagram vertex/cover counts match closed forms",
     lambda b, s: _run_cube_counts(CYCLE, b, s)),
    ("hamming-distance-covers",
     "cover pairs coincide with Hamming-distance-1 pairs",
     _run_hamming_distance_covers),
    ("small-cycle-star-poset",
     "complete cycle powers give star-shaped diagrams",
     _run_small_cycle_star_poset),
    ("hypercube-specialization",
     "gap 0 reproduces Boolean-lattice counts 2^n and n*2^(n-1)",
     _run_hypercube_specialization),
    ("classical-fibonacci-bridge",
     "gap 1 path counts/edges reproduce classical Fibonacci identities",
     _run_classical_fibonacci_bridge),
    ("classical-lucas-bridge",
     "gap 1 cycle counts/edges reproduce classical Lucas identities",
     _run_classical_lucas_bridge),
)

ALL_IDENTITY_IDS = tuple(entry[0] for entry in _REGISTRY)

if len(set(ALL_IDENTITY_IDS)) != len(ALL_IDENTITY_IDS):
    raise RuntimeError("duplicate identity id")


def run_suite(n_max: int = 40, h_max: int = 10, oracle_n_max: int = 16) -> list[IdentityReport]:
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
    for identity, description, runner in _REGISTRY:
        sweep = _Sweep()
        try:
            runner(bounds, sweep)
        except Exception as exc:  # record, never abort the suite
            sweep.crash(exc)
        reports.append(IdentityReport(
            identity=identity,
            description=description,
            bounds={"n_max": n_max, "h_max": h_max, "oracle_n_max": oracle_n_max},
            checked=sweep.checked,
            failed=sweep.failed,
            failures=sweep.failures,
        ))
    reports.sort(key=lambda r: r.identity)
    return reports


def reports_to_json(reports: list[IdentityReport]) -> str:
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
