"""Benchmark worker: imports the library, sets up one workload, and runs it as
a closed loop, one caller issuing each op after the previous one finished.

run.py starts this process with BLAS pinned to one thread and the library's
source on the path; the last line it prints is one JSON object for run.py.
The library is imported inside main() so that set-up time includes it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

MIN_OPS = 100  # so that at least ten samples lie beyond p90


def _cli_child(argv, read_fd: int, write_fd: int, tracer) -> None:
    import freechaos.cli as cli

    code = 70
    try:
        os.close(read_fd)
        out, err = io.StringIO(), io.StringIO()
        sys.stdout, sys.stderr = out, err
        if tracer is not None:
            tracer.reset()
        code = cli.main(list(argv))
        report = {"stdout": out.getvalue(), "stderr": err.getvalue()}
        if tracer is not None:
            report["trace"] = tracer.snapshot()
        with os.fdopen(write_fd, "w") as fh:
            json.dump(report, fh)
    except BaseException:  # the forked child must never return into the parent's loop
        traceback.print_exc(file=sys.__stderr__)
    finally:
        os._exit(code)


class CliRunner:
    """Runs each CLI op through `freechaos.cli.main` in a child forked from
    this process, which has imported the library and called nothing, so no
    cache survives from one op to the next."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.peak_rss_kb = 0

    def __call__(self, op) -> tuple:
        """Outcome ("exit", code, stdout, stderr) of one CLI op."""
        sys.stdout.flush()
        sys.stderr.flush()
        start = time.perf_counter()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            _cli_child(op.argv, read_fd, write_fd, self.tracer if self.tracer and self.tracer.installed else None)
        os.close(write_fd)
        with os.fdopen(read_fd) as fh:
            data = fh.read()
        _, status, usage = os.wait4(pid, 0)
        latency = time.perf_counter() - start
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        report = json.loads(data) if data else {"stdout": "", "stderr": ""}
        snap = report.get("trace")
        if snap is not None:
            self.tracer.merge(snap)
            self.tracer.paused += snap["paused"]
            main_s = snap["spans"].get("cli.main", [0, 0.0, 0.0])[2]
            self.tracer.count("cli.process_s", latency - snap["paused"] - main_s)
        return ("exit", os.waitstatus_to_exitcode(status), report["stdout"], report["stderr"])


def closed_loop(ops, run_one, seconds: float, tracer=None) -> tuple[list, dict]:
    """Run whole cycles of `ops` until `seconds` passed and MIN_OPS were timed.

    Without a tracer every cycle is timed plain. With one, cycles alternate
    plain and traced, and the traced ones must reach MIN_OPS.
    Returns (samples, cycle times keyed by the traced flag); a sample is
    (op index, latency_s, outcome, traced).
    """
    clock = tracer.clock if tracer is not None else time.perf_counter
    samples: list = []
    cycles: dict[bool, list[float]] = {False: [], True: []}
    begin = time.perf_counter()
    traced = False
    while True:
        if traced:
            tracer.install()
        cycle_start = clock()
        for i, op in enumerate(ops):
            t0 = clock()
            outcome = run_one(op)
            samples.append((i, clock() - t0, outcome, traced))
        cycles[traced].append(clock() - cycle_start)
        if traced:
            tracer.uninstall()
        counted = sum(1 for s in samples if s[3] == (tracer is not None))
        if time.perf_counter() - begin >= seconds and counted >= MIN_OPS:
            return samples, cycles
        traced = tracer is not None and not traced


def _report_failures(ops, samples, causes) -> None:
    seen = set()
    for (i, _, outcome, _), cause in zip(samples, causes):
        if cause is not None and (i, cause) not in seen:
            seen.add((i, cause))
            print(f"failed: {ops[i].label}: {cause}: {outcome[1:]!r}"[:2000], file=sys.stderr)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    src = Path(__file__).resolve().parent.parent / "src"

    start = time.perf_counter()
    import freechaos
    import freechaos.cli  # noqa: F401  (the CLI's own imports are part of set-up)
    import numpy as np

    import workloads

    if not Path(freechaos.__file__).resolve().is_relative_to(src):
        print(f"error: freechaos imported from {freechaos.__file__}, not from {src}", file=sys.stderr)
        return 2
    ops = workloads.BUILDERS[args.workload](args.seed)
    cold = args.workload == "cold-classes"
    if not cold:
        for op in ops:  # warm-up: fills the class cache; failures are counted in the loop
            workloads.run_engine(op)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    runner = CliRunner(tracer) if cold else workloads.run_engine
    samples, cycles = closed_loop(ops, runner, args.seconds, tracer)
    if cold:
        peak_rss_mb = runner.peak_rss_kb / 1024
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # References come from another route, computed only now, outside the timed loop.
    refs = [None if cold or op.reference is None else op.reference() for op in ops]
    causes = [workloads.failure_cause(ops[i], outcome, refs[i]) for i, _, outcome, _ in samples]
    _report_failures(ops, samples, causes)

    plain = [(s, c) for s, c in zip(samples, causes) if not s[3]]
    result = {
        "numpy": np.__version__,
        "setup_s": setup_s,
        "attempted": len(samples),
        "failed": workloads.count_failures(causes),
        "per_op_median_ms": {
            op.label: statistics.median(s[1] * 1e3 for s, _ in plain if ops[s[0]].label == op.label) for op in ops
        },
    }
    if args.trace:
        metrics = tracing.layer_metrics(tracer, len(samples) - len(plain))
        overhead = statistics.median(cycles[True]) / statistics.median(cycles[False]) - 1
        metrics["trace.overhead_frac"] = (overhead, "fraction")
    else:
        verified = sum(1 for _, c in plain if c is None)
        deciles = statistics.quantiles([s[1] * 1e3 for s, _ in plain], n=10)
        metrics = {
            "throughput_ops_s": (verified / sum(cycles[False]), "1/s"),
            "latency_p50_ms": (deciles[4], "ms"),
            "latency_p90_ms": (deciles[8], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
        result["latency_samples"] = len(plain)
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
