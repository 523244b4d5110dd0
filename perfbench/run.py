"""Benchmark runner for the ``fibcubes`` command-line program.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

A run generates the workload's command list from ``--seed`` and runs whole
passes over it, one fresh child process per command, in a closed loop with
one client: the next child starts only after the previous one has exited.
Passes repeat until ``--seconds`` of wall time have gone, at least two of
them; a pass is never cut short. The runner pins itself (and so its
children) to one CPU and never imports ``fibcubes``; every output is
checked against ``reference``.

Times are machine-normalized. The runner times a short fixed reference loop
in CPU time, with the garbage collector off, on the child's CPU: before
each pass, every ``SAMPLE_EVERY`` seconds while a child runs (the child
waits meanwhile), and right after each child exits. Every time of a pass is
reported as ``raw * REF_NOMINAL / mean(loop times of the pass)``. Raw times
and every loop time are stored per run in ``perfbench/out`` so the
normalization can be audited. The loop never runs inside the child, so
a program-wide slowdown cannot cancel out of the ratio.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one untraced
and one traced pass and prints the per-layer metrics of the traced pass,
including the tracing overhead. ``--smoke`` runs a few small commands per
workload through the same machinery, untraced and traced, and checks the
result schema and that the references agree with the program.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Metric names and units come from
``BENCHMARK.json`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD = HERE / "child.py"
REF_NOMINAL = 0.0045         # CPU seconds the reference loop takes on the sizing machine
# The machine's speed decorrelates within about half a second, so loops
# timed only between commands would sample long commands too rarely.
SAMPLE_EVERY = 0.15
COMMAND_TIMEOUT = 150        # seconds before a child is killed and counted failed
MIN_PASSES = 2               # an untraced run makes at least this many passes
LAYERS = ("cli", "verify", "cube", "enumeration", "graphs", "counting")
# Named per-layer metrics that no call across a module boundary can measure:
# these functions are only ever called from inside their own module.
NOT_AT_BOUNDARY = {
    "counting.binom": "called only inside counting (by path_count_k and cycle_count_k)",
    "counting.convolve": "called only inside counting (by the *_conv routes)",
}


# ---------------------------------------------------------------------------
# Reference loop
# ---------------------------------------------------------------------------

def reference_work() -> int:
    """Fixed mix: small-int arithmetic, big-int multiply and divide, dict and
    set inserts, a sort, and string formatting and join."""
    acc = 0
    for i in range(7500):
        acc = (acc * 31 + i) % 1000003
    big = 7 ** 3000
    for i in range(1, 75):
        big = big * (2 * i + 1) // (i + 1) + i
    table = {}
    seen = set()
    for i in range(3700):
        table[(i * 7919) % 22013] = i
        seen.add(i * i % 9973)
    ordered = sorted(table.items(), key=lambda kv: (kv[1] * 31) % 1009)
    text = ",".join(f"{k}:{v:x}" for k, v in ordered[:2000])
    return acc ^ big.bit_length() ^ len(seen) ^ len(text)


def reference_time() -> float:
    """CPU seconds the reference loop takes now.

    CPU time, not wall time: a loop timed while a child runs on the same CPU
    can lose the CPU to the child mid-loop, and wall time would count the
    child's slice as the loop's.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        reference_work()
        return time.thread_time() - t0
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# One command
# ---------------------------------------------------------------------------

class CommandFailed(Exception):
    pass


class Runner:
    """Runs commands in fresh children, samples the machine's speed around
    and during them, and checks what they print."""

    def __init__(self, work: Path):
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        paths = [str(ROOT / "src"), self.env.get("PYTHONPATH", "")]
        self.env.update(PYTHONPATH=os.pathsep.join(p for p in paths if p),
                        PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
        self.samples: list[tuple[float, float]] = []   # (monotonic time, loop s)

    def sample(self) -> None:
        took = reference_time()
        self.samples.append((time.monotonic(), took))

    def run(self, cmd: workloads.Command, trace: bool) -> dict:
        stdout_path, stderr_path = self.work / "stdout", self.work / "stderr"
        out_path, record_path = self.work / "result", self.work / "record.json"
        for p in (out_path, record_path):
            p.unlink(missing_ok=True)
        argv = list(cmd.argv) + (["--out", str(out_path)] if cmd.out_file else [])
        row = {"argv": list(cmd.argv), "ok": False}
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(record_path), "1" if trace else "0", *argv],
                stdout=out, stderr=err, env=self.env, cwd=ROOT)
            exited = select.poll()
            pidfd = os.pidfd_open(proc.pid)
            try:
                exited.register(pidfd, select.POLLIN)
                while not exited.poll(SAMPLE_EVERY * 1000):
                    if time.monotonic() - spawn > COMMAND_TIMEOUT:
                        proc.kill()
                    self.sample()
            finally:
                os.close(pidfd)
            proc.returncode = os.waitstatus_to_exitcode(os.waitpid(proc.pid, 0)[1])
        row.update(spawn=spawn, exited=time.monotonic(), exit=proc.returncode)
        self.sample()
        try:
            record = self._check(cmd, proc.returncode, stdout_path, out_path,
                                 stderr_path, record_path, row)
        except CommandFailed as exc:
            row["reason"] = str(exc)
            print(f"FAILED {' '.join(cmd.argv)}: {exc}", file=sys.stderr)
            return row
        row.update(ok=True, raw_latency_s=record["latency_s"],
                   raw_setup_s=record["ready_mono"] - spawn,
                   raw_import_s=record["import_s"], rss_kb=record["peak_rss_kb"])
        if trace:
            row["trace"] = record["trace"]
            row["command_id"] = record["trace"]["command"]
        return row

    def _check(self, cmd, code, stdout_path, out_path, stderr_path, record_path, row):
        stderr = stderr_path.read_text(encoding="utf-8", errors="replace")
        if "Traceback" in stderr:
            raise CommandFailed("traceback: " + stderr.strip().splitlines()[-1])
        if code != 0:
            raise CommandFailed(f"exit code {code}: {stderr.strip()[:200]}")
        if not record_path.exists():
            raise CommandFailed("child wrote no timing record")
        record = json.loads(record_path.read_text(encoding="utf-8"))
        text_path = out_path if cmd.out_file else stdout_path
        text = text_path.read_text(encoding="utf-8")
        row["out_bytes"] = stdout_path.stat().st_size + (
            out_path.stat().st_size if cmd.out_file else 0)
        kind, *params = cmd.check
        if kind != "cube" and stderr:
            raise CommandFailed(f"unexpected stderr: {stderr.strip()[:200]}")
        if kind == "count":
            reason = reference.check_text(f"{reference.count_value(*params)}\n", text)
        elif kind == "table":
            reason = reference.check_text(reference.table_text(*params), text)
        elif kind == "seq":
            reason = reference.check_text(reference.seq_text(*params), text)
        elif kind == "cube":
            reason = reference.check_cube(*params, text, stderr)
        else:
            reason = reference.check_verify(text)
        if reason:
            raise CommandFailed(reason)
        return record


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(passes: list[list[dict]]) -> tuple[dict, dict]:
    rows = [r for p in passes for r in p]
    good = [r for r in rows if r["ok"]]
    if not good:
        raise SystemExit("no command completed; nothing to report")
    latencies = sorted(r["latency_s"] for r in good)
    metrics = {
        "pass_s": statistics.median(sum(r["latency_s"] for r in p if r["ok"])
                                    for p in passes),
        # Command sizes are spread log-uniformly, so neighbouring ranks
        # differ by about 20 % and the median jumps with any one sample;
        # the geometric mean weighs every command's latency alike.
        "op_gmean_ms": statistics.geometric_mean(latencies) * 1000,
        "setup_s": statistics.median(r["setup_s"] for r in good),
        "peak_rss_mb": max(r["rss_kb"] for r in good) / 1024,
    }
    detail = {"samples": len(latencies),
              "error_rate": sum(not r["ok"] for r in rows) / len(rows),
              "op_p50_ms": statistics.median(latencies) * 1000}
    # A percentile is reported only with at least ten samples beyond it.
    if len(latencies) >= 100:
        detail["op_p90_ms"] = statistics.quantiles(latencies, n=10)[-1] * 1000
    return metrics, detail


def per_layer(traced: list[dict], untraced_pass_s: float) -> tuple[dict, dict]:
    """Per-layer values of one traced pass, normalized like the pass itself."""
    values: dict[str, float] = {}

    def add(key, amount):
        values[key] = values.get(key, 0) + amount

    identities: dict[str, float] = {}
    pass_s = 0.0
    for row in traced:
        if not row["ok"]:
            continue
        f, t = row["factor"], row["trace"]
        pass_s += row["latency_s"]
        add("cli.out_bytes", row["out_bytes"])
        for name, (calls, total, self_s) in t["names"].items():
            add(f"{name}.calls", calls)
            add(f"{name}.s", total * f)
            add(f"{name.split('.')[0]}.self_s", self_s * f)
        for key, amount in t["counters"].items():
            add(key, amount)
        for identity, seconds, checked in t["identities"]:
            identities[identity] = identities.get(identity, 0.0) + seconds * f
            add("verify.checks", checked)
    for identity, seconds in identities.items():
        values[f"verify.{identity}.s"] = seconds
    generated = values.pop("enumeration.path_masks", 0)
    values["enumeration.cycle_yield"] = (
        values.get("enumeration.iter_masks.masks", 0) / generated if generated else 0.0)
    values["cli.import_s"] = statistics.median(r["import_s"] for r in traced if r["ok"])
    values["trace.pass_s"] = pass_s
    values["trace.overhead_s"] = pass_s - untraced_pass_s
    self_sum = sum(values.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
    detail = {"self_sum_s": self_sum, "traced_pass_s": pass_s,
              "untraced_pass_s": untraced_pass_s,
              "spans": sum(r["trace"]["spans"] for r in traced if r["ok"]),
              "not_taken": NOT_AT_BOUNDARY}
    return values, detail


def named_metrics(values: dict, specs: list[dict]) -> dict:
    return {s["name"]: {"value": values.get(s["name"], 0), "unit": s["unit"]}
            for s in specs}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def run_pass(runner: Runner, cmds, trace: bool) -> list[dict]:
    """One pass, normalized by the mean of the loops timed during it.

    The loops are spread evenly in time over the pass, commands included,
    so their mean weighs the machine's speed by time as the pass does.
    """
    first = len(runner.samples)
    runner.sample()
    rows = [runner.run(c, trace) for c in cmds]
    factor = REF_NOMINAL / statistics.fmean(t for _, t in runner.samples[first:])
    for r in rows:
        r["factor"] = factor
        if r["ok"]:
            for key in ("latency_s", "setup_s", "import_s"):
                r[key] = r["raw_" + key] * factor
    return rows


def warm_up(runner: Runner) -> None:
    """Compile the program to bytecode, as an install would, and make sure it
    runs at all. Children never write bytecode themselves."""
    compileall.compile_dir(ROOT / "src", quiet=1)
    row = runner.run(workloads.Command(("count", "path", "5", "1"),
                                       ("count", "path", 5, 1, None)), False)
    if not row["ok"]:
        raise SystemExit(f"the program does not run: {row.get('reason')}")


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              spec: dict) -> tuple[dict, dict, list]:
    work = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    runner = Runner(work)
    warm_up(runner)
    cmds = workloads.commands(workload, seed)
    passes = []
    if trace:
        passes.append(run_pass(runner, cmds, False))
        passes.append(run_pass(runner, cmds, True))
        untraced = sum(r["latency_s"] for r in passes[0] if r["ok"])
        values, detail = per_layer(passes[1], untraced)
        metrics = named_metrics(values, spec["per_layer"])
    else:
        begin = time.monotonic()
        while len(passes) < MIN_PASSES or time.monotonic() - begin < seconds:
            passes.append(run_pass(runner, cmds, False))
        values, detail = end_to_end(passes)
        metrics = named_metrics(values, spec["end_to_end"])
    detail.update(workload=workload, seed=seed, trace=int(trace),
                  commands=len(cmds), digest=workloads.digest(cmds),
                  passes=len(passes))
    rows = [r for p in passes for r in p]
    with open(work / "run.json", "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "metrics": metrics, "ref_nominal_s": REF_NOMINAL,
                   "reference_loops": runner.samples,
                   "passes": [[{k: v for k, v in r.items() if k != "trace"} for r in p]
                              for p in passes]}, fh, indent=1)
    for name in ("stdout", "stderr", "result", "record.json"):
        (work / name).unlink(missing_ok=True)
    return metrics, detail, rows


def result_line(metrics: dict, rows: list) -> dict:
    failed = sum(not r["ok"] for r in rows)
    return {"correct": failed == 0, "attempted": len(rows), "failed": failed,
            "metrics": metrics}


def smoke(spec: dict) -> int:
    """A few small commands per workload, untraced and traced."""
    problems = []
    measured: set[str] = set()
    for workload, cmds in workloads.SMOKE.items():
        runner = Runner(OUT / f"smoke-{workload}")
        warm_up(runner)
        plain = run_pass(runner, cmds, False)
        traced = run_pass(runner, cmds, True)
        e2e, _ = end_to_end([plain])
        layer, detail = per_layer(traced, e2e["pass_s"])
        measured |= {name for name, value in layer.items() if value}
        rows = plain + traced
        for res in (result_line(named_metrics(e2e, spec["end_to_end"]), rows),
                    result_line(named_metrics(layer, spec["per_layer"]), rows)):
            if set(res) != {"correct", "attempted", "failed", "metrics"} or not all(
                    isinstance(m["value"], (int, float)) for m in res["metrics"].values()):
                problems.append(f"{workload}: malformed result {res}")
        failed = sum(not r["ok"] for r in rows)
        if failed:
            problems.append(f"{workload}: {failed} commands disagree with the references")
        gap = abs(detail["self_sum_s"] - detail["traced_pass_s"])
        if gap > 1e-6 * detail["traced_pass_s"]:
            problems.append(f"{workload}: layer self times sum to {detail['self_sum_s']}, "
                            f"the traced pass took {detail['traced_pass_s']}")
        print(f"smoke {workload}: {len(cmds)} commands, {failed} failed, "
              f"pass_s={e2e['pass_s']:.4f}, spans={detail['spans']}")
    never = [m["name"] for m in spec["per_layer"]
             if m["name"] not in measured and m["name"] != "trace.overhead_s"]
    if never:
        problems.append(f"per-layer metrics no smoke command measured: {never}")
    for p in problems:
        print("SMOKE FAILED", p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fibcubes" / "cli.py").is_file():
        print(f"error: no fibcubes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # Children inherit the affinity, so they run on the CPU the loop times.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    metrics, detail, rows = benchmark(args.workload, args.seed, args.seconds,
                                      bool(args.trace), spec)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result_line(metrics, rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
