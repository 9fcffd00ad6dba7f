"""Informational reach table, kept out of the gated metrics.

For each moment engine and kernel shape (q, bins) it finds the largest moment
order m that finishes within a per-call time limit, and records what stopped
the next order: `size-limit` (refused by a guard), `timeout`, `memory` or
`error`. It also records whether `fourth_moment_identity` finishes for each
shape. Every probe runs in a child process of its own, under a timer and
CPU-time and address-space limits, never in this process, because some
admitted inputs exhaust memory or run for minutes.

    python3 perfbench/reach.py

Prints a Markdown table. Takes a few minutes.
"""

from __future__ import annotations

import json
import math
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LIMIT_S = 2.0  # per-call time limit
MEMORY_BYTES = 2 * 1024**3  # address-space limit of each probe
STARTUP_S = 20.0  # allowance for interpreter start and import
M_MAX = 16
ENGINES = ("product", "diagram", "trace")
SHAPES = tuple((q, bins) for q in (1, 2, 3) for bins in (2, 3, 4, 6))
IDENTITY_SHAPES = tuple((q, bins) for q in (1, 2, 3, 4) for bins in (2, 3, 4, 6, 8))


def _probe(engine: str, q: int, bins: int, m: int) -> None:
    """Child side: run one call and print its outcome as JSON."""
    import workloads
    from freechaos import chaos, theorems
    from freechaos.errors import SizeLimitError

    f = workloads.hermitian_kernel(q, bins, workloads.rng_for(0, 0))
    call = {
        "product": lambda: chaos.moment_product(f, m),
        "diagram": lambda: chaos.moment_diagram(f, m),
        "trace": lambda: chaos.moment_trace_formula(f, m),
        "identity": lambda: theorems.fourth_moment_identity(f),
    }[engine]
    # SIGALRM's default action ends the process, even inside a long numpy call.
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    start = time.perf_counter()
    try:
        call()
        status = "ok"
    except SizeLimitError:
        status = "size-limit"
    except MemoryError:
        status = "memory"
    print(json.dumps({"status": status, "seconds": time.perf_counter() - start}))


def _limits() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))
    cpu = math.ceil(LIMIT_S + STARTUP_S)
    resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu))


def probe(engine: str, q: int, bins: int, m: int) -> tuple[str, float | None]:
    """Parent side: (status, seconds) of one probe run in a limited child."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, __file__, "--probe", engine, str(q), str(bins), str(m)]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=LIMIT_S + STARTUP_S, preexec_fn=_limits
        )
    except subprocess.TimeoutExpired:
        return "timeout", None
    if proc.returncode == -signal.SIGALRM:
        return "timeout", None
    if proc.returncode != 0:
        return ("memory" if "MemoryError" in proc.stderr else "error"), None
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if out["status"] == "ok" and out["seconds"] > LIMIT_S:
        return "timeout", out["seconds"]
    return out["status"], out["seconds"]


def main() -> int:
    if len(sys.argv) == 6 and sys.argv[1] == "--probe":
        _probe(sys.argv[2], *map(int, sys.argv[3:]))
        return 0
    print(f"Per-call limit {LIMIT_S} s, address space {MEMORY_BYTES // 1024**2} MiB, m up to {M_MAX}.\n")
    print("| engine | q | bins | largest m | its time (s) | next m | stopped by |")
    print("|---|---|---|---|---|---|---|")
    for engine in ENGINES:
        for q, bins in SHAPES:
            best, best_s, stop = None, None, ("-", "none up to m_max")
            for m in range(2, M_MAX + 1):
                status, seconds = probe(engine, q, bins, m)
                if status != "ok":
                    stop = (m, status)
                    break
                best, best_s = m, seconds
            shown = "-" if best_s is None else f"{best_s:.3f}"
            print(f"| {engine} | {q} | {bins} | {best or '-'} | {shown} | {stop[0]} | {stop[1]} |", flush=True)
    print("\n| engine | q | bins | status | time (s) |")
    print("|---|---|---|---|---|")
    for q, bins in IDENTITY_SHAPES:
        status, seconds = probe("identity", q, bins, 4)
        shown = "-" if seconds is None else f"{seconds:.3f}"
        print(f"| fourth_moment_identity | {q} | {bins} | {status} | {shown} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
