"""Run one ``fibcubes`` command for the benchmark runner and report its timing.

Usage: python3 perfbench/child.py RECORD TRACE ARGV...

The child imports the CLI, runs ``fibcubes.cli.main(ARGV)`` with stdout as
the runner set it up, and writes a JSON record to RECORD: the monotonic time
at which the CLI was imported and ready, the command's own latency, the
exit code and the peak resident set. With TRACE=1 the boundary tracer is
installed after the import and its per-span summary is added to the record;
the spans stay in memory until the command has finished.
"""

import json
import sys
import time


def peak_rss_kb() -> int:
    """High-water resident set of this program since exec.

    ``ru_maxrss`` of a spawned child also counts the runner's own resident
    set from before the exec, so the runner's size would leak into it.
    VmHWM belongs to the address space the exec created.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    boot = time.perf_counter()
    record_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    from fibcubes import cli
    ready_mono = time.monotonic()
    ready = time.perf_counter()
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
    start = time.perf_counter()
    if tracer is not None:
        tracer.begin(start)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    done = time.perf_counter()
    record = {"ready_mono": ready_mono, "import_s": ready - boot,
              "latency_s": done - start, "exit": code, "peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        record["trace"] = tracer.summary(done)
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
