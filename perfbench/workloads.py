"""Seeded command lists, one per workload.

A workload is one pass over a list of ``fibcubes`` commands generated from
the seed. Each list is stratified: the seed draws sizes inside fixed strata
and decides which quantity, route, format or shape takes which stratum, so
every seed covers the whole size range and one pass costs about the same
whatever the seed. Sizes are bounded by the predicted size of the result
(vertex and cover counts from ``reference``), never by ``n`` alone, so no
seed can exhaust memory or produce a command much longer than 2.5 s on the
machine the sizes were chosen on (Python 3.11.7, 2 CPUs).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

import reference

H_BIGINT = (1, 2, 3, 10)
QUANTITIES = ("path", "cycle", "path-edges", "cycle-edges")
TABLE_FORMATS = ("tsv", "csv", "json")
CUBE_FORMATS = ("dot", "json", "edgelist")
DEFAULT_CAP = 24                       # the CLI's enumeration cap on n
# Raw seconds per predicted cover, by export format, on the sizing machine.
CUBE_SECONDS_PER_COVER = {"dot": 2.8e-6, "json": 7.3e-6, "edgelist": 1.85e-6}
CUBE_TOP_SECONDS = 1.0                 # predicted cost of the largest tier
CUBE_TIERS = 7                         # tiers halve in cost from the top
CUBE_WINDOW = 1.06                     # a candidate fits a tier within 6 %


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output must be checked against."""

    argv: tuple[str, ...]
    check: tuple          # (kind, *params), checked by run.Runner._check
    out_file: bool = False  # the command writes its result through --out


def commands(workload: str, seed: int) -> list[Command]:
    rng = random.Random(f"{workload}:{seed}")
    cmds = GENERATORS[workload](rng)
    rng.shuffle(cmds)
    return cmds


def digest(cmds: list[Command]) -> str:
    text = json.dumps([c.argv for c in cmds])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _shrink(rng: random.Random, anchor: float, spread: float = 0.03) -> int:
    """An n at most ``spread`` (in log) below the anchor, never above it."""
    return int(anchor * math.exp(-rng.uniform(0.0, spread)))


def _formats(rng: random.Random, count: int, choices=TABLE_FORMATS) -> list[str]:
    """``count`` formats, each used equally often up to one, in seeded order."""
    out = []
    while len(out) < count:
        block = list(choices)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


# ---------------------------------------------------------------------------
# verify: seeded bounds, four commands per oracle bound
# ---------------------------------------------------------------------------

def _verify(rng: random.Random) -> list[Command]:
    # Four commands per oracle bound. Their algebraic bounds are drawn from
    # four strata of each range, and h-max = 4, which alone clips the
    # dominant independence sweep to h <= 4, is the lowest stratum once per
    # bound, so no seed stacks the cheap case.
    cmds = []
    for oracle in (11, 12):
        n_strata = [(30, 32), (33, 35), (36, 38), (39, 40)]
        h_strata = [(4, 4), (5, 6), (7, 8), (9, 10)]
        rng.shuffle(n_strata)
        for (n_lo, n_hi), (h_lo, h_hi) in zip(n_strata, h_strata):
            argv = ("verify", "--format", "json",
                    "--n-max", str(rng.randint(n_lo, n_hi)),
                    "--h-max", str(rng.randint(h_lo, h_hi)),
                    "--oracle-n-max", str(oracle))
            cmds.append(Command(argv, ("verify",)))
    return cmds


# ---------------------------------------------------------------------------
# count-bigint: every quantity on every valid route, n from 1e3 to 2e4
# ---------------------------------------------------------------------------

def _count(quantity: str, n: int, h: int, k: int | None = None,
           route: str = "closed") -> Command:
    argv = ["count", quantity, str(n), str(h)]
    if k is not None:
        argv.append(str(k))
    argv += ["--route", route]
    return Command(tuple(argv), ("count", quantity, n, h, k))


def _count_bigint(rng: random.Random) -> list[Command]:
    cmds = []
    for h in H_BIGINT:
        # The closed route grows about as n^3; at h <= 3 it stops at 8,000.
        top = 8000 if h <= 3 else 20000
        anchors = [1000 * (top / 1000) ** (i / 3) for i in range(4)]
        order = list(QUANTITIES)
        rng.shuffle(order)
        cmds += [_count(q, _shrink(rng, a), h) for q, a in zip(order, anchors)]
        pair = ["path", "cycle"]
        rng.shuffle(pair)
        cmds += [_count(q, _shrink(rng, a), h, route="recurrence")
                 for q, a in zip(pair, (4472, 20000))]
        # Both edge counts take the conv route near the top size: the cycle
        # one keeps two sequence memos, and which quantity got the top size
        # would otherwise decide the run's peak memory.
        cmds += [_count(q, _shrink(rng, 20000), h, route="conv")
                 for q in ("path-edges", "cycle-edges")]
        for q in ("path", "cycle"):
            n = int(1000 * 20 ** rng.random())
            cmds.append(_count(q, n, h, k=rng.randint(0, -(-n // (h + 1)))))
    return cmds


# ---------------------------------------------------------------------------
# table-sweep: the twelve paper tables and wide grids in every format
# ---------------------------------------------------------------------------

def _table(which: str, fmt: str, h: str | None = None, n_max: int | None = None
           ) -> Command:
    argv = ["table", which]
    if h is not None:
        argv += ["--h", h]
    argv += ["--paper-layout"] if n_max is None else ["--n-max", str(n_max)]
    argv += ["--format", fmt]
    return Command(tuple(argv), ("table", which, h, n_max, n_max is None, fmt))


def _json_pair(rng: random.Random) -> list[str]:
    """json and one other format, in seeded order.

    The json renderer holds the most memory, so one of each pair of the
    largest grids is always json and the run's peak memory is the same for
    every seed.
    """
    pair = ["json", rng.choice(TABLE_FORMATS[:2])]
    rng.shuffle(pair)
    return pair


def _table_sweep(rng: random.Random) -> list[Command]:
    cmds = []
    fmts = iter(_formats(rng, 12))
    cmds += [_table(w, next(fmts)) for w in reference.PAPER_SWEEP]
    cmds += [_table(w, next(fmts), str(h)) for w in ("pk", "ck") for h in (1, 2, 3)]
    fmts = iter(_formats(rng, 10))
    for which in "pcHM":
        cmds += [_table(which, next(fmts), "0:10", _shrink(rng, a)) for a in (212, 300)]
    cmds += [_table(w, next(fmts), "0:10", _shrink(rng, 1000)) for w in "FL"]
    cmds += [_table(w, f, "0:10", _shrink(rng, 2000)) for w, f in zip("FL", _json_pair(rng))]
    fmts = iter(_formats(rng, 4))
    cmds += [_table(w, next(fmts), str(h), _shrink(rng, 400)) for w in ("pk", "ck")
             for h in (2, 3)]
    cmds += [_table(w, f, "1", _shrink(rng, 400)) for w, f in zip(("pk", "ck"), _json_pair(rng))]
    gaps = {"F": [1, 2], "F-ext": [2, 3]}
    for pair in gaps.values():
        rng.shuffle(pair)
    fmts = iter(_formats(rng, 4, ("tsv", "json")))
    for kind, h in zip(("F", "L", "F-ext", "L-ext"), gaps["F"] + gaps["F-ext"]):
        n_max, fmt = _shrink(rng, 5000), next(fmts)
        argv = ("seq", kind, "--h", str(h), "--n-max", str(n_max), "--format", fmt)
        cmds.append(Command(argv, ("seq", kind, h, n_max, fmt)))
    return cmds


# ---------------------------------------------------------------------------
# cube-export: one command per format in each cost tier
# ---------------------------------------------------------------------------

def cube_candidates() -> list[tuple[str, int, int, int]]:
    """(kind, h, n, covers) for h <= 3 with 10^3 to 3*10^5 predicted vertices."""
    out = []
    for kind in ("path", "cycle"):
        for h in range(4):
            n = 1
            while True:
                vertices, covers = reference.cube_size(kind, n, h)
                if vertices > 3 * 10 ** 5:
                    break
                if vertices >= 1000:
                    out.append((kind, h, n, covers))
                n += 1
    return out


def _cube(kind: str, n: int, h: int, fmt: str) -> Command:
    argv = ["cube", kind, str(n), str(h), "--format", fmt]
    if n > DEFAULT_CAP:
        argv += ["--cap", str(n)]
    return Command(tuple(argv), ("cube", kind, n, h, fmt), out_file=True)


def _cube_export(rng: random.Random) -> list[Command]:
    candidates = cube_candidates()
    cmds = []
    for tier in range(CUBE_TIERS):
        target = CUBE_TOP_SECONDS / 2 ** tier
        for fmt in CUBE_FORMATS:
            covers = target / CUBE_SECONDS_PER_COVER[fmt]
            nearest = min(candidates, key=lambda c: abs(math.log(c[3] / covers)))
            fit = [c for c in candidates
                   if abs(math.log(c[3] / covers)) <= math.log(CUBE_WINDOW)]
            # The top tier is the same for every seed: its commands set the
            # run's peak memory, which should not depend on the draw.
            kind, h, n, _ = rng.choice(fit) if fit and tier else nearest
            cmds.append(_cube(kind, n, h, fmt))
    return cmds


GENERATORS = {
    "verify": _verify,
    "count-bigint": _count_bigint,
    "table-sweep": _table_sweep,
    "cube-export": _cube_export,
}


# ---------------------------------------------------------------------------
# Smoke lists: small n, where every route (the enumeration oracle too) is
# cheap, so the references are compared with the program on every route
# ---------------------------------------------------------------------------

def _smoke_tables() -> list[Command]:
    fmts = TABLE_FORMATS * 10
    cmds = [_table(w, fmts[i]) for i, w in enumerate(reference.PAPER_SWEEP)]
    cmds += [_table(w, fmts[i], str(h))
             for i, (w, h) in enumerate((w, h) for w in ("pk", "ck") for h in (1, 2, 3))]
    cmds += [_table(w, fmts[i], "0:4", 20) for i, w in enumerate("pcFLHM")]
    cmds += [_table(w, fmts[i], "2", 14) for i, w in enumerate(("pk", "ck"))]
    for i, (kind, h) in enumerate((("F", 0), ("L", 2), ("F-ext", 2), ("L-ext", 3))):
        fmt = ("tsv", "json")[i % 2]
        argv = ("seq", kind, "--h", str(h), "--n-max", "30", "--format", fmt)
        cmds.append(Command(argv, ("seq", kind, h, 30, fmt)))
    return cmds


SMOKE = {
    "verify": [Command(("verify", "--format", "json", "--n-max", "12", "--h-max", "3",
                        "--oracle-n-max", "8"), ("verify",))],
    "count-bigint": (
        [_count(q, 12, 2, route=r) for q, routes in (
            ("path", ("closed", "recurrence", "oracle")),
            ("cycle", ("closed", "recurrence", "oracle")),
            ("path-edges", ("closed", "conv", "oracle")),
            ("cycle-edges", ("closed", "conv", "oracle"))) for r in routes]
        + [_count("path", 11, 1, 4), _count("cycle", 13, 2, 3),
           _count("path", 10, 1, 3, "oracle"), _count("cycle", 9, 0, 4, "oracle")]),
    "table-sweep": _smoke_tables(),
    "cube-export": [_cube(kind, 7, h, CUBE_FORMATS[i % 3]) for i, (kind, h) in
                    enumerate((k, h) for k in ("path", "cycle") for h in range(4))],
}
