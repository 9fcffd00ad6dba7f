"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload diagram-wide --seed 1 --seconds 20 --trace 0

Run from the repository root. The library is imported from `src/` of the same
checkout. With --trace 0 the last line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a separate traced run. See
perfbench/README.md for what each metric and workload measures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("diagram-wide", "diagram-many", "contraction-chains", "cold-classes")
# setup_s is the median of at least SETUP_MIN fresh-process set-ups, and of up
# to SETUP_MAX while they stay under SETUP_BUDGET_S in total.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 3.0
DEADLINE_S = 170  # every child is stopped by then, so a run ends within 180 s
BLAS_THREADS = "1"


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _worker(args: argparse.Namespace, *extra: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed), *extra]
    # A session of its own, so that a timeout also stops the CLI children it forked.
    with subprocess.Popen(
        cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.1))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "freechaos" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'freechaos'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups: list[float] = []
        if not args.trace:
            while len(setups) + 1 < SETUP_MIN or (len(setups) + 1 < SETUP_MAX and sum(setups) < SETUP_BUDGET_S):
                setups.append(_worker(args, "--setup-only", deadline=deadline)["setup_s"])
        extra = ["--seconds", str(args.seconds)] + (["--trace"] if args.trace else [])
        run = _worker(args, *extra, deadline=deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in run["metrics"].items()}
    if not args.trace:
        setups.append(run["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    attempted = run["attempted"]
    failed = sum(run["failed"].values())

    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"loop=closed clients=1 blas_threads={BLAS_THREADS} nproc={len(os.sched_getaffinity(0))} "
        f"numpy={run['numpy']} python={platform.python_version()}"
    )
    causes = " ".join(f"{k}={v}" for k, v in run["failed"].items())
    print(f"ops attempted={attempted} failed={failed} failed_frac={failed / attempted:.6g} ({causes})")
    for label, ms in run["per_op_median_ms"].items():
        print(f"  op {label}: median {ms:.3f} ms")
    if not args.trace:
        print(f"setup_s samples={len(setups)}: " + " ".join(f"{s:.4f}" for s in setups))
        print(f"latency samples={run['latency_samples']}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
