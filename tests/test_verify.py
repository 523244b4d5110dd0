"""The identity cross-check suite: registry coverage, determinism, a golden
report, and sensitivity to deliberately injected faults.

The mutation tests monkeypatch one base case at a time (sequences keep no
memo, so a patch takes effect at once) and demand that the CLI verify
command flips to a nonzero exit; that is what certifies the suite would
actually catch a broken convention. The per-route tests shift one route of
each two-route identity and demand that every check of that identity fails.
"""

import os
from pathlib import Path

import pytest

import fibcubes.cli as cli
from fibcubes import counting, cube, enumeration, verify
from fibcubes.counting import path_count_clamped, path_edges
from fibcubes.graphs import CYCLE, PATH, GapGraph

SMALL = dict(n_max=12, h_max=4, oracle_n_max=8)
GOLDEN = Path(__file__).resolve().parent / "golden"

# Every identity the suite must implement; adding one here without an
# implementation (or vice versa) is a test failure by design.
EXPECTED_IDENTITIES = (
    "classical-fibonacci-bridge",
    "classical-lucas-bridge",
    "convolution-jump",
    "cube-cycle-counts",
    "cube-path-counts",
    "cycle-count-recurrence",
    "cycle-edges-closed-form",
    "cycle-edges-convolution",
    "edge-count-by-vertex-sums",
    "exact-arithmetic-sanity",
    "extended-fibonacci-agreement",
    "extended-lucas-agreement",
    "fib-matches-path-counts",
    "hamming-distance-covers",
    "hypercube-specialization",
    "independence-characterizations",
    "lucas-from-fibonacci",
    "lucas-matches-cycle-counts",
    "oracle-cycle-counts",
    "oracle-path-counts",
    "path-count-recurrence",
    "path-count-shift-symmetry",
    "path-cycle-count-bridge",
    "path-edges-convolution",
    "recurrence-jump",
    "small-cycle-star-poset",
    "subset-shift-bijection",
    "vertex-membership-counts",
    "vertex-split-product",
)


def _suite(**kw):
    return verify.run_suite(**{**SMALL, **kw})


def test_registry_is_complete_and_duplicate_free():
    assert tuple(sorted(verify.ALL_IDENTITY_IDS)) == EXPECTED_IDENTITIES
    assert len(set(verify.ALL_IDENTITY_IDS)) == len(verify.ALL_IDENTITY_IDS)


def test_suite_passes_on_small_bounds():
    reports = _suite()
    assert [r.identity for r in reports] == sorted(r.identity for r in reports)
    assert all(r.status == "pass" for r in reports), [
        (r.identity, r.failures[:2]) for r in reports if r.failed
    ]
    assert all(r.failed == 0 and r.failures == [] for r in reports)


def test_suite_vacuous_bounds_still_pass():
    assert all(r.status == "pass" for r in verify.run_suite(0, 0, 0))


def test_h_max_bounds_every_identity():
    # Exactly the identities whose rows start at h >= 1 sweep nothing at
    # --h-max 0; every other one still runs its h = 0 row.
    reports = verify.run_suite(40, 0, 16)
    assert {r.identity for r in reports if r.checked == 0} == {
        "classical-fibonacci-bridge",
        "classical-lucas-bridge",
        "extended-fibonacci-agreement",
        "extended-lucas-agreement",
        "path-count-shift-symmetry",
    }


@pytest.mark.parametrize("bounds", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
def test_suite_rejects_negative_bounds(bounds):
    with pytest.raises(ValueError, match="nonnegative"):
        verify.run_suite(*bounds)


def test_report_matches_golden_json():
    # At these bounds every algebraic identity runs to its own n and h caps,
    # so a wrong cap or lower bound in any identity changes a checked count.
    text = verify.reports_to_json(verify.run_suite(40, 10, 8))
    assert text.encode("utf-8") == (GOLDEN / "verify_n40_h10_o8.json").read_bytes()


def test_default_report_matches_golden_json():
    # Only the default oracle bound reaches the n <= 14 independence sweep.
    text = verify.reports_to_json(verify.run_suite())
    assert text.encode("utf-8") == (GOLDEN / "verify_default.json").read_bytes()


def test_benchmark_sized_report_matches_golden_json():
    # The oracle bound 12 clips the independence sweep and the cube
    # identities where neither other golden report does.
    text = verify.reports_to_json(verify.run_suite(36, 8, 12))
    assert text.encode("utf-8") == (GOLDEN / "verify_n36_h8_o12.json").read_bytes()


def test_reports_are_deterministic():
    a = verify.reports_to_json(_suite())
    b = verify.reports_to_json(_suite())
    assert a == b


def test_summary_formatting():
    reports = _suite()
    text = verify.format_summary(reports)
    lines = text.splitlines()
    assert lines[0].split() == ["identity", "status", "checked", "failed"]
    assert len(lines) == len(reports) + 2
    assert lines[-1].endswith("0 failed")


def _verify_exit_code():
    return cli.main([
        "verify", "--n-max", "12", "--h-max", "4", "--oracle-n-max", "8",
        "--out", os.devnull,
    ])


def test_cli_verify_passes_unmutated():
    assert _verify_exit_code() == 0


# --- fault injection ----------------------------------------------------------


def test_broken_fibonacci_base_is_detected(monkeypatch):
    monkeypatch.setattr(counting, "_fib_base", lambda h, n: 2 if n == 1 else 1)
    reports = _suite()
    failed = {r.identity for r in reports if r.failed}
    assert "fib-matches-path-counts" in failed
    assert "path-edges-convolution" in failed
    assert _verify_exit_code() == 1


def test_broken_lucas_head_is_detected(monkeypatch):
    # First Lucas term h instead of h+1.
    monkeypatch.setattr(counting, "_lucas_base", lambda h, n: h if n == 1 else 1)
    reports = _suite()
    failed = {r.identity for r in reports if r.failed}
    assert "cycle-edges-convolution" in failed
    assert "lucas-from-fibonacci" in failed
    assert _verify_exit_code() == 1


def test_broken_binomial_convention_is_detected(monkeypatch):
    import math

    def signed_binom(m, k):
        # The generalized signed convention: C(-1, 1) = -1 and so on.
        if k < 0:
            return 0
        if m < 0:
            return (-1) ** k * math.comb(-m + k - 1, k)
        return math.comb(m, k) if k <= m else 0

    monkeypatch.setattr(counting, "binom", signed_binom)
    reports = _suite()
    assert any(r.failed for r in reports)
    assert _verify_exit_code() == 1


def test_failure_witnesses_carry_locations(monkeypatch):
    monkeypatch.setattr(counting, "_fib_base", lambda h, n: 2 if n == 1 else 1)
    reports = _suite()
    report = next(r for r in reports if r.identity == "fib-matches-path-counts")
    assert report.status == "fail"
    assert report.failed >= 1
    w = report.failures[0]
    assert set(w) == {"n", "h", "k", "i", "expected", "actual"}
    assert w["expected"] != w["actual"]


def test_witness_lists_are_truncated(monkeypatch):
    monkeypatch.setattr(counting, "_fib_base", lambda h, n: 2 if n == 1 else 1)
    reports = verify.run_suite(30, 6, 6)
    for r in reports:
        assert len(r.failures) <= verify.FAILURE_WITNESS_LIMIT
        if r.failed:
            assert r.failures


def test_crash_witnesses_are_truncated(monkeypatch):
    def broken(n, h, k):
        raise ArithmeticError("inexact cycle division")

    monkeypatch.setattr(verify, "cycle_count_k", broken)
    report = next(r for r in _suite() if r.identity == "exact-arithmetic-sanity")
    assert report.failed == 390
    assert len(report.failures) == verify.FAILURE_WITNESS_LIMIT


def _recorded_independence(monkeypatch, wrong=None):
    asked = []
    real = verify.is_independent

    def recorder(g, mask):
        key = (g.kind, g.n, g.h, mask.bits)
        asked.append(key)
        return (not real(g, mask)) if key == wrong else real(g, mask)

    monkeypatch.setattr(verify, "is_independent", recorder)
    report = next(r for r in _suite() if r.identity == "independence-characterizations")
    return asked, report


def test_independence_sweep_asks_every_case_once(monkeypatch):
    asked, report = _recorded_independence(monkeypatch)
    expected = {(kind, n, h, bits) for kind in (PATH, CYCLE)
                for n in range(9) for h in range(5) for bits in range(1 << n)}
    assert len(asked) == len(expected) and set(asked) == expected
    assert report.status == "pass"


def test_independence_sweep_reports_a_single_wrong_answer(monkeypatch):
    bits = 0b001001  # {v1, v4}: independent in the square of P_6
    _, report = _recorded_independence(monkeypatch, wrong=(PATH, 6, 2, bits))
    assert report.failed == 1
    assert report.failures == [{"kind": PATH, "n": 6, "h": 2, "k": None, "i": bits,
                                "expected": True, "actual": False}]


def test_independence_sweep_counts_the_checks_made_before_a_crash(monkeypatch):
    real = verify.is_independent

    def crashing(g, mask):
        if (g.kind, g.n, g.h, mask.bits) == (CYCLE, 6, 2, 0b001001):
            raise RuntimeError("injected")
        return real(g, mask)

    monkeypatch.setattr(verify, "is_independent", crashing)
    report = next(r for r in _suite() if r.identity == "independence-characterizations")
    # Each mask is compared 18 times at h <= 4: once per graph (10) and once
    # per graph with h >= 1 (8). The 63 masks of n <= 5 and the 9 of n = 6
    # below 0b001001 make 1,296; that mask adds 8 (h = 0 twice, h = 1 and
    # the path at h = 2 twice each) before its (cycle, h = 2) call raises,
    # which counts no comparison.
    assert report.checked == 63 * 18 + 9 * 18 + 8
    assert report.failed == 1
    assert report.failures == [{"n": None, "h": None, "k": None, "i": None,
                                "expected": "no exception",
                                "actual": "RuntimeError('injected')"}]


def _wide_wrap(monkeypatch):
    # Cycle pairs at distance n - h - 1, just outside the wrap band, counted
    # as edges.
    real = GapGraph.is_edge
    monkeypatch.setattr(GapGraph, "is_edge", lambda g, i, j: real(g, i, j) or (
        g.kind == CYCLE and abs(i - j) == g.n - g.h - 1))


def test_an_is_edge_fault_fails_only_the_independence_sweep(monkeypatch):
    _wide_wrap(monkeypatch)
    reports = _suite()
    assert {r.identity for r in reports if r.failed} == {"independence-characterizations"}
    failures = _failures(reports, "independence-characterizations")
    # {v1, v2} on C_2 with h = 0: no gap is violated, but the fault joins them.
    assert failures[0] == {"kind": CYCLE, "n": 2, "h": 0, "k": None, "i": 0b11,
                           "expected": True, "actual": False}
    assert {w["kind"] for w in failures} == {CYCLE}


def test_an_is_edge_patch_reaches_the_next_run_and_leaves_with_it(monkeypatch):
    # The sweep builds its graphs, and so their adjacency rows, on every run.
    def independence():
        return next(r for r in _suite() if r.identity == "independence-characterizations")

    assert independence().status == "pass"
    _wide_wrap(monkeypatch)
    assert independence().status == "fail"
    monkeypatch.undo()
    assert independence().status == "pass"


def _misreduced(s, taps):
    # The deepest tap one step short: under P = x^(h+1) - x^h - 1, x^k
    # reduced to x^(k-1) + x^(k-h) instead of x^(k-1) + x^(k-h-1).
    d = taps[-1][0]
    for k in range(len(s) - 1, d - 1, -1):
        v = s[k]
        for e, c in taps:
            s[k - e + (e == d)] += c * v
    del s[d:]
    return s


def _flip_deepest_tap(monkeypatch, power):
    # P^power with the sign of its deepest tap flipped: a modulus of the
    # right degree that misreduces.  Every other power stays right.
    real = counting._modulus

    def modulus(h, m):
        *taps, (d, c) = real(h, m)
        return (*taps, (d, -c if m == power else c))
    monkeypatch.setattr(counting, "_modulus", modulus)


def test_rows_over_several_kinds_name_the_kind_in_their_witnesses(monkeypatch):
    # Both jumps reduce through one _reduce, so both jump rows fail.
    monkeypatch.setattr(counting, "_reduce", _misreduced)
    reports = _suite()
    assert {r.identity for r in reports if r.failed} == {"recurrence-jump", "convolution-jump"}
    jump = _failures(reports, "recurrence-jump")
    assert {w["kind"] for w in jump} == {counting.FIBONACCI, counting.LUCAS}
    assert len({(w["kind"], w["n"], w["h"]) for w in jump}) == len(jump)
    conv = _failures(reports, "convolution-jump")
    assert {w["kind"] for w in conv} == {"fibonacci*fibonacci", "fibonacci*lucas"}
    assert all(list(w)[0] == "kind" for w in conv)
    assert len({(w["kind"], w["n"], w["h"]) for w in conv}) == len(conv)
    monkeypatch.undo()
    real = cube.CubeGraph.hamming_pairs
    monkeypatch.setattr(cube.CubeGraph, "hamming_pairs",
                        lambda c: real(c) + (c.source.kind == CYCLE))
    reports = _suite()
    assert {r.identity for r in reports if r.failed} == {"hamming-distance-covers"}
    assert _failures(reports, "hamming-distance-covers")[:2] == [
        {"kind": CYCLE, "n": 0, "h": 0, "k": None, "i": None, "expected": 0, "actual": 1},
        {"kind": CYCLE, "n": 1, "h": 0, "k": None, "i": None, "expected": 1, "actual": 2}]


def test_a_cover_walk_that_drops_an_upper_fails_both_cube_rows(monkeypatch):
    # The walk side of the two cube rows: drop one upper from the first
    # nonempty row of each pair of ranks.  Both rows must count the covers
    # by walking them; their len, the rank sum, would not see this.
    real = cube._place_covers

    def dropping(lower, upper, names):
        rows = real(lower, upper, names)
        first = next((row for row in rows if row), None)
        if first:
            first.pop()
        return rows

    monkeypatch.setattr(cube, "_place_covers", dropping)
    reports = verify.run_suite(12, 3, 8)
    assert {r.identity: (r.failed, r.checked) for r in reports if r.failed} == {
        "hamming-distance-covers": (64, 72), "small-cycle-star-poset": (16, 40)}


def _off_by_one_at(monkeypatch, route, at):
    original = getattr(verify, route)
    monkeypatch.setattr(verify, route,
                        lambda *args: original(*args) + (args == at))


def _failures(reports, identity):
    return next(r for r in reports if r.identity == identity).failures


def test_one_wrong_membership_count_fails_both_per_vertex_identities(monkeypatch):
    # Both identities read one shared table of per-vertex sums; a wrong
    # t_count must reach each of them, at its own (n, h) and vertex.
    _off_by_one_at(monkeypatch, "t_count", (7, 1, 2, 3))
    reports = _suite()
    assert _failures(reports, "edge-count-by-vertex-sums") == [
        {"n": 7, "h": 1, "k": None, "i": None,
         "expected": path_edges(7, 1), "actual": path_edges(7, 1) + 1}]
    through = path_count_clamped(1, 1) * path_count_clamped(3, 1)  # v_3 of P_7^1
    assert _failures(reports, "vertex-split-product") == [
        {"n": 7, "h": 1, "k": None, "i": 3, "expected": through, "actual": through + 1}]


def test_shared_values_do_not_outlive_a_run(monkeypatch):
    assert all(r.status == "pass" for r in _suite())
    _off_by_one_at(monkeypatch, "t_count", (7, 1, 2, 3))
    failed = {r.identity for r in _suite() if r.failed}
    assert {"edge-count-by-vertex-sums", "vertex-split-product"} <= failed


# One route per two-route identity: shifting it by one must fail every check
# of that identity, which a tautological identity, or one that bound its
# routes at import, would not.
@pytest.mark.parametrize("identity,route", [
    ("path-count-recurrence", "path_count_rec"),
    ("cycle-count-recurrence", "cycle_count_rec"),
    ("fib-matches-path-counts", "h_fibonacci"),
    ("lucas-matches-cycle-counts", "h_lucas"),
    ("path-edges-convolution", "path_edges_conv"),
    ("cycle-edges-closed-form", "cycle_edges_closed"),
    ("cycle-edges-convolution", "cycle_edges_conv"),
    ("lucas-from-fibonacci", "h_lucas"),
    ("extended-fibonacci-agreement", "extended_fib"),
    ("extended-lucas-agreement", "extended_lucas"),
    ("path-cycle-count-bridge", "cycle_count_k"),
    ("vertex-split-product", "path_count_clamped"),
    ("vertex-split-product", "t_count"),
    ("edge-count-by-vertex-sums", "t_count"),
    # path-count-shift-symmetry has no case: both of its routes are
    # path_count_k at shifted arguments, so one shift moves both sides.
    # The jumps are no verify routes; each case misreduces one modulus,
    # P for the sequence jump and P^2 for the convolution jump.
    ("recurrence-jump", "counting._modulus(h, 1)"),
    ("convolution-jump", "counting._modulus(h, 2)"),
])
def test_each_route_fault_fails_its_identity(monkeypatch, identity, route):
    if route.startswith("counting._modulus"):
        # Only far terms take a jump, so exactly the row that forces it fails.
        _flip_deepest_tap(monkeypatch, int(route[-2]))
        reports = _suite()
        assert {r.identity for r in reports if r.failed} == {identity}
        return
    original = getattr(verify, route)
    monkeypatch.setattr(verify, route, lambda *args: original(*args) + 1)
    report = next(r for r in _suite() if r.identity == identity)
    assert report.failed == report.checked > 0


# --- the route table --------------------------------------------------------


def test_every_quantity_has_two_methods():
    methods = {}
    for quantity, method in verify._routes():
        methods.setdefault(quantity, []).append(method)
    assert set(methods) == {"path", "path-k", "cycle", "cycle-k", "path-edges", "cycle-edges"}
    assert all(len(m) >= 2 for m in methods.values()), methods


def test_methods_list_the_route_table_in_first_appearance_order():
    # count's --route choices come from _METHODS, not from a table built to
    # read them; the table and its --help must not drift apart.
    assert verify._METHODS == tuple(dict.fromkeys(m for _, m in verify._routes()))


def test_oracle_set_counts_enumerate_each_graph_once(monkeypatch):
    # The oracle set counts keep the size histogram of the graph asked last:
    # the total and every k of one graph enumerate it once, and each other
    # graph once more.
    asked = []
    real = enumeration.count_by_size

    def counted(g, cap=enumeration.DEFAULT_CAP):
        asked.append((g.kind, g.n, g.h))
        return real(g, cap)

    monkeypatch.setattr(enumeration, "count_by_size", counted)
    routes = {key: route["scalar"] for key, route in verify._routes().items() if key[1] == "oracle"}
    assert routes["path", "oracle"](8, 1) == 55
    assert sum(routes["path-k", "oracle"](8, 1, k) for k in range(10)) == 55
    assert asked == [(PATH, 8, 1)]
    assert routes["path", "oracle"](9, 1) == 89
    assert asked == [(PATH, 8, 1), (PATH, 9, 1)]
    assert routes["cycle", "oracle"](8, 1) == sum(routes["cycle-k", "oracle"](8, 1, k)
                                                  for k in range(10)) == 47
    assert asked == [(PATH, 8, 1), (PATH, 9, 1), (CYCLE, 8, 1)]


# Every route that count prints takes part in an identity: shifting its
# scalar by one must fail at least one. A counting function is shifted at
# its name in verify, which a table bound at import would not see; an oracle
# route, a closure over the enumeration with no name of its own, is shifted
# in the table that verify._routes builds.
@pytest.mark.parametrize("key", [key for key, route in verify._routes().items()
                                 if "scalar" in route], ids="/".join)
def test_every_scalar_route_shifted_by_one_fails_an_identity(monkeypatch, key):
    scalar = verify._routes()[key]["scalar"]
    if getattr(verify, scalar.__name__, None) is scalar:
        monkeypatch.setattr(verify, scalar.__name__, lambda *args: scalar(*args) + 1)
    else:
        real = verify._routes

        def shifted(*args, **kwargs):
            table = real(*args, **kwargs)
            route = table[key]
            table[key] = {**route, "scalar": lambda *a: route["scalar"](*a) + 1}
            return table

        monkeypatch.setattr(verify, "_routes", shifted)
    assert any(r.failed for r in _suite())


# The first check of each cube row compares the literal enumeration's size
# histogram with the profile of the cube built rank by rank: a vertex
# missing from either side fails it.
def test_a_vertex_missing_from_the_rank_built_cube_fails_cube_path_counts(monkeypatch):
    # The top vertex of P_6^1 left out: the family stays down-closed, so its
    # covers and Hamming pairs still agree, and only this check sees it.
    real = cube._ranks

    def ranks(n, h, cycle):
        ranks = list(real(n, h, cycle))
        if (n, h, cycle) == (6, 1, False):
            ranks[-1] = ranks[-1][:-1]
        yield from ranks

    monkeypatch.setattr(cube, "_ranks", ranks)
    reports = _suite()
    assert {r.identity for r in reports if r.failed} == {"cube-path-counts"}
    assert _failures(reports, "cube-path-counts") == [
        {"n": 6, "h": 1, "k": None, "i": None,
         "expected": {0: 1, 1: 6, 2: 10, 3: 4}, "actual": {0: 1, 1: 6, 2: 10, 3: 3}}]


def test_a_vertex_missing_from_the_enumeration_fails_cube_cycle_counts(monkeypatch):
    # {v4, v7}, the last independent set of C_7^2, left out.
    real = enumeration.iter_masks

    def iter_masks(g, cap=enumeration.DEFAULT_CAP):
        masks = real(g, cap)
        return masks[:-1] if (g.kind, g.n, g.h) == (CYCLE, 7, 2) else masks

    monkeypatch.setattr(enumeration, "iter_masks", iter_masks)
    failures = _failures(_suite(), "cube-cycle-counts")
    assert failures[0] == {"n": 7, "h": 2, "k": None, "i": None,
                           "expected": {0: 1, 1: 7, 2: 6}, "actual": {0: 1, 1: 7, 2: 7}}
