"""The benchmark's workloads: the ops each one runs, their seeded inputs, and
the references their results are checked against.

Every reference comes from a route other than the one being timed and is
computed after the timed loop ends. The seed changes kernel values only; the
op mix and the sizes are fixed per workload.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from freechaos import chaos, theorems
from freechaos.errors import IdentityMismatchError, SizeLimitError
from freechaos.kernels import GridKernel

REL_TOL = 1e-9

# Failure causes, in the order the summary prints them.
CAUSES = ("size-limit", "identity-mismatch", "mismatch", "crash")

# Each cycle has ten slots, and some ops fill two or three of them. Sorted by
# time, slots 9-10 then hold one op and slots 5-6 one op or ops of about equal
# time, so p90 and p50 fall inside one op's times instead of on the boundary
# between two ops whose times differ, where they would jump from run to run.
# (q, m, bins). Few classes over large tables: the einsum does the work.
WIDE = (
    (1, 6, 40), (1, 6, 64), (1, 7, 16), (1, 8, 12), (1, 8, 12),
    (2, 4, 24), (2, 4, 30), (2, 4, 30), (2, 5, 6), (3, 4, 8),
)
# Hundreds to thousands of classes over 2-3 bins: per-class overhead does the work.
MANY = (
    (1, 9, 3), (1, 10, 3), (1, 10, 3), (1, 10, 3), (1, 11, 2),
    (1, 11, 2), (1, 12, 2), (1, 12, 2), (2, 6, 2), (2, 6, 3),
)
IDENTITY = ((1, 24), (2, 5), (2, 5), (3, 3))  # (q, bins)
PRODUCT = ((1, 9, 4), (1, 12, 3), (2, 6, 3))
TRACE = ((1, 9, 4), (1, 9, 4), (2, 7, 2))


@dataclass(frozen=True)
class EngineOp:
    """One library call. `reference` is None when the call checks itself."""

    label: str
    call: Callable[[], complex]
    reference: Callable[[], complex] | None


@dataclass(frozen=True)
class CliOp:
    """One CLI run; `expect` takes the parsed JSON output."""

    label: str
    argv: tuple[str, ...]
    expect: Callable[[object], bool]


# The timed calls look the engine up at call time, so a traced run sees the
# spans patched onto the modules.
def _diagram(f: GridKernel, m: int) -> complex:
    return chaos.moment_diagram(f, m)


def _product(f: GridKernel, m: int) -> complex:
    return chaos.moment_product(f, m)


def _trace(f: GridKernel, m: int) -> complex:
    return chaos.moment_trace_formula(f, m)


def _identity(f: GridKernel) -> float:
    return theorems.fourth_moment_identity(f).lhs


def rng_for(seed: int, slot: int) -> np.random.Generator:
    return np.random.default_rng([seed, slot])


def hermitian_kernel(q: int, bins: int, rng: np.random.Generator) -> GridKernel:
    """Mirror-symmetric kernel: real for q = 1, complex Hermitian for q >= 2."""
    shape = (bins,) * q
    raw = rng.uniform(-1.0, 1.0, shape).astype(np.complex128)
    if q > 1:
        raw = raw + 1j * rng.uniform(-1.0, 1.0, shape)
    adj = np.conj(np.transpose(raw, tuple(reversed(range(q)))))
    return GridKernel(q, bins, 1.0, (raw + adj) / 2)


def indicator_cells(bins: int, rng: np.random.Generator) -> list[int]:
    """A seeded nonempty subset of the cells, each kept with probability 1/2."""
    cells = [c for c in range(bins) if rng.random() < 0.5]
    return cells or [int(rng.integers(bins))]


def diagram_wide(seed: int) -> list[EngineOp]:
    ops = []
    for slot, (q, m, bins) in enumerate(WIDE):
        rng = rng_for(seed, slot)
        if q == 1:
            # The trace engine refuses these sizes; an indicator's moments are
            # the free Poisson law's at rate lambda = number of cells.
            cells = indicator_cells(bins, rng)
            f = GridKernel.indicator(bins, 1.0, cells)
            ref = partial(chaos.free_poisson_moment, float(len(cells)), m)
        else:
            f = hermitian_kernel(q, bins, rng)
            ref = partial(_trace, f, m)
        ops.append(EngineOp(f"moment_diagram q={q} m={m} bins={bins}", partial(_diagram, f, m), ref))
    return ops


def diagram_many(seed: int) -> list[EngineOp]:
    ops = []
    for slot, (q, m, bins) in enumerate(MANY):
        f = hermitian_kernel(q, bins, rng_for(seed, slot))
        ops.append(
            EngineOp(f"moment_diagram q={q} m={m} bins={bins}", partial(_diagram, f, m), partial(_product, f, m))
        )
    return ops


def contraction_chains(seed: int) -> list[EngineOp]:
    ops = []
    for q, bins in IDENTITY:
        f = hermitian_kernel(q, bins, rng_for(seed, len(ops)))
        ops.append(EngineOp(f"fourth_moment_identity q={q} bins={bins}", partial(_identity, f), None))
    # Each engine is checked against the other one.
    for name, timed, other, configs in (
        ("moment_product", _product, _trace, PRODUCT),
        ("moment_trace_formula", _trace, _product, TRACE),
    ):
        for q, m, bins in configs:
            f = hermitian_kernel(q, bins, rng_for(seed, len(ops)))
            ops.append(EngineOp(f"{name} q={q} m={m} bins={bins}", partial(timed, f, m), partial(other, f, m)))
    return ops


# Reference laws computed here, independently of the library's oracles.
def riordan_closed(n: int) -> dict[int, int]:
    """No-singleton non-crossing partitions of [n] with k blocks, by the closed count."""
    return {
        k: math.comb(n, k) * math.comb(n - k - 1, k - 1) // (n - k + 1) for k in range(1, n // 2 + 1)
    }


def poisson_law(lam: float, m: int) -> float:
    return float(sum(c * lam**k for k, c in riordan_closed(m).items()))


def semicircle_law(lam: float, m: int) -> float:
    return 0.0 if m % 2 else float(math.comb(m, m // 2) // (m // 2 + 1) * lam ** (m // 2))


def close(value: float | complex, ref: float | complex) -> bool:
    return abs(value - ref) <= REL_TOL * max(1.0, abs(ref))


def _expect_classes(pairings: int, gt2: int, ge2: int, out) -> bool:
    return (out["pairings"], out["blocks_gt2"], out["blocks_ge2"]) == (pairings, gt2, ge2)


def _expect_riordan(m: int, total: int, out) -> bool:
    counts = {int(k): v for k, v in out["counts"].items()}
    return out["total"] == total and counts == riordan_closed(m)


def _expect_count(n: int, noncrossing: int, total: int, out) -> bool:
    return (out["n"], out["noncrossing"], out["total"]) == (n, noncrossing, total)


def _expect_transfer(max_order: int, lam: float, out) -> bool:
    rows = out["rows"]
    if not close(out["lambda"], lam) or [r["m"] for r in rows] != list(range(1, max_order + 1)):
        return False
    for r in rows:
        p, w = poisson_law(lam, r["m"]), semicircle_law(lam, r["m"])
        if not (close(r["poisson"], p) and close(r["poisson_oracle"], p)):
            return False
        if not (close(r["wigner"], w) and close(r["wigner_oracle"], w)):
            return False
        if r["poisson_gap"] > REL_TOL * max(1.0, abs(p)) or r["wigner_gap"] > REL_TOL * max(1.0, abs(w)):
            return False
    return True


def _expect_moment(m: int, lam: float, out) -> bool:
    ref = poisson_law(lam, m)
    return (
        out["method"] == "diagram"
        and close(complex(out["value_re"], out["value_im"]), ref)
        and close(out["oracle"], ref)
        and abs(out["delta"]) <= REL_TOL * max(1.0, abs(ref))
    )


def cold_classes(seed: int) -> list[CliOp]:
    """CLI runs. The seed draws the cell widths of the indicator kernels.

    Eleven slots: `riordan --m 11` and `transfer --M 9` run twice per cycle,
    which puts p90 and p50 inside their times.
    """
    w84, w93, w96 = (float(w) for w in rng_for(seed, 0).uniform(0.5, 1.5, 3))
    riordan_11 = CliOp("riordan m=11", ("riordan", "--m", "11"), partial(_expect_riordan, 11, 1585))
    transfer_93 = CliOp(
        "transfer M=9 bins=3",
        ("transfer", "--M", "9", "--bins", "3", "--cell-width", repr(w93)),
        partial(_expect_transfer, 9, 3 * w93),
    )
    ops = [
        CliOp("nc --classes m=5 q=2", ("nc", "--classes", "--m", "5", "--q", "2"), partial(_expect_classes, 6, 0, 16)),
        CliOp("nc --classes m=10 q=1", ("nc", "--classes", "--m", "10", "--q", "1"), partial(_expect_classes, 42, 71, 603)),
        CliOp("nc --classes m=3 q=3", ("nc", "--classes", "--m", "3", "--q", "3"), partial(_expect_classes, 0, 0, 1)),
        CliOp("riordan m=10", ("riordan", "--m", "10"), partial(_expect_riordan, 10, 603)),
        riordan_11,
        riordan_11,
        CliOp(
            "transfer M=8 bins=4",
            ("transfer", "--M", "8", "--bins", "4", "--cell-width", repr(w84)),
            partial(_expect_transfer, 8, 4 * w84),
        ),
        transfer_93,
        transfer_93,
        CliOp(
            "moments m=9 bins=6",
            ("moments", "--m", "9", "--bins", "6", "--cell-width", repr(w96)),
            partial(_expect_moment, 9, 6 * w96),
        ),
        CliOp("nc --n 9", ("nc", "--n", "9"), partial(_expect_count, 9, 4862, 21147)),
    ]
    return [dataclasses.replace(op, argv=op.argv + ("--format", "json")) for op in ops]


BUILDERS: dict[str, Callable[[int], list]] = {
    "diagram-wide": diagram_wide,
    "diagram-many": diagram_many,
    "contraction-chains": contraction_chains,
    "cold-classes": cold_classes,
}


def run_engine(op: EngineOp) -> tuple:
    """Outcome of one engine op: ("ok", value) or ("raised", exception)."""
    try:
        return ("ok", op.call())
    except Exception as exc:  # a raising op is a counted failure, not the end of the run
        return ("raised", exc)


def exception_cause(exc: BaseException) -> str:
    if isinstance(exc, SizeLimitError):
        return "size-limit"
    if isinstance(exc, IdentityMismatchError):
        return "identity-mismatch"
    return "crash"


def check_cli(op: CliOp, exit_code: int, stdout: str, stderr: str) -> str | None:
    """Failure cause of a finished CLI run, or None when it verifies."""
    if exit_code != 0:
        for cause in ("size-limit", "identity-mismatch"):
            if stderr.startswith(f"error:{cause}:"):
                return cause
        return "crash"
    try:
        return None if op.expect(json.loads(stdout)) else "mismatch"
    except (ValueError, KeyError, TypeError):
        return "mismatch"


def failure_cause(op: EngineOp | CliOp, outcome: tuple, ref: complex | None) -> str | None:
    """Cause of a failed op, or None when it verified.

    `outcome` is ("ok", value) or ("raised", exception) for an engine op and
    ("exit", code, stdout, stderr) for a CLI op; `ref` is the engine op's
    reference, None when the op checks itself.
    """
    if outcome[0] == "raised":
        return exception_cause(outcome[1])
    if outcome[0] == "exit":
        return check_cli(op, *outcome[1:])
    return "mismatch" if ref is not None and not close(outcome[1], ref) else None


def count_failures(causes: list[str | None]) -> dict[str, int]:
    return {cause: causes.count(cause) for cause in CAUSES}
