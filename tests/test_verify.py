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
from fibcubes import counting, verify
from fibcubes.graphs import CYCLE, PATH

SMALL = dict(n_max=12, h_max=4, oracle_n_max=8)
GOLDEN = Path(__file__).resolve().parent / "golden"

# Every identity the suite must implement; adding one here without an
# implementation (or vice versa) is a test failure by design.
EXPECTED_IDENTITIES = (
    "classical-fibonacci-bridge",
    "classical-lucas-bridge",
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
    assert report.failures == [{"n": 6, "h": 2, "k": None, "i": bits,
                                "expected": True, "actual": False}]


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
    # path-count-shift-symmetry has no case: both of its routes are
    # path_count_k at shifted arguments, so one shift moves both sides.
])
def test_each_route_fault_fails_its_identity(monkeypatch, identity, route):
    original = getattr(verify, route)
    monkeypatch.setattr(verify, route, lambda *args: original(*args) + 1)
    report = next(r for r in _suite() if r.identity == identity)
    assert report.failed == report.checked > 0
