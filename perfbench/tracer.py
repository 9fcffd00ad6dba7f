"""Per-layer tracing for the traced run.

The tracer wraps the library's public functions where their callers look them
up (for example `freechaos.chaos.diagram_integral`, the name `moment_diagram`
calls) and aggregates each layer's calls, self time and counts in memory as
spans close. Self time is a span's duration minus the time its child spans
cover. Work the tracer does for itself, such as computing einsum costs, runs
with the clock paused, so no span is charged for it.
"""

from __future__ import annotations

import math
import time

import numpy as np

from freechaos import chaos, cli, theorems
from freechaos.kernels import GridKernel

# Layer -> every (namespace, name) through which callers reach its functions.
PATCHES: dict[str, tuple[tuple[object, str], ...]] = {
    "partitions.nc0_classes": ((chaos, "nc0_classes"), (cli, "nc0_classes")),
    "partitions.riordan": ((chaos, "riordan"), (cli, "riordan")),
    "partitions.enumerate": ((cli, "enumerate_nc"), (cli, "enumerate_partitions")),
    "kernels.diagram_integral": ((chaos, "diagram_integral"),),
    "kernels.arc_contraction": ((chaos, "arc_contraction"), (theorems, "arc_contraction")),
    "kernels.star_contraction": ((chaos, "star_contraction"), (theorems, "star_contraction")),
    "kernels.grid_kernel": ((GridKernel, "__post_init__"),),
    "chaos.moment_product": ((chaos, "moment_product"), (theorems, "moment_product")),
    "chaos.moment_trace_formula": ((chaos, "moment_trace_formula"),),
    "chaos.moment_diagram": ((chaos, "moment_diagram"), (theorems, "moment_diagram")),
    "chaos.poisson_multiply": ((chaos, "poisson_multiply"),),
    "chaos.oracle": (
        (chaos, "free_poisson_moment"),
        (chaos, "semicircular_moment"),
        (theorems, "free_poisson_moment"),
        (theorems, "semicircular_moment"),
    ),
    "theorems.fourth_moment_identity": ((theorems, "fourth_moment_identity"), (cli, "fourth_moment_identity")),
    "theorems.identity_terms": ((theorems, "identity_terms"),),
    "theorems.transfer_experiment": ((theorems, "transfer_experiment"), (cli, "transfer_experiment")),
    "cli.main": ((cli, "main"),),
}


def path_flops(subscripts: list[list[int]], size: int, path) -> int:
    """Flops of a contraction path to a scalar, each step counted as numpy's
    `einsum_path` counts it (its printed total adds one)."""
    sets = [set(s) for s in subscripts]
    total = 0
    for step in path:
        used = set().union(*(sets[i] for i in step))
        rest = [s for i, s in enumerate(sets) if i not in step]
        kept = used & set().union(*rest)
        factor = max(1, len(step) - 1) + (1 if used - kept else 0)
        total += size ** len(used) * factor
        sets = rest + [kept]
    return total


def einsum_flops(f: GridKernel, m: int, sigma) -> tuple[int, int]:
    """Computed flops of `diagram_integral(f, m, sigma)`: the plain einsum it
    runs today, and numpy's greedy path on the same operands."""
    label = sigma.block_index()
    q = f.arity
    subscripts = [[label[p] for p in range(j * q + 1, j * q + q + 1)] for j in range(m)]
    operands: list = []
    for sub in subscripts:
        operands += [f.values, sub]
    operands.append([])
    return tuple(
        path_flops(subscripts, f.bins, np.einsum_path(*operands, optimize=opt)[0][1:])
        for opt in (False, "greedy")
    )


class Tracer:
    """Span aggregates for one process; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self.reset()
        self._saved: list[tuple[object, str, object]] = []
        self._flops: dict[tuple, tuple[int, int]] = {}

    def reset(self) -> None:
        self.spans: dict[str, list[float]] = {}  # layer -> [calls, self_s, total_s]
        self.counts: dict[str, float] = {}
        self.paused = 0.0
        self._open: list[float] = []  # child time covered so far, per open span

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _wrap(self, layer: str, fn, after):
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = self.clock() - start
                child = self._open.pop()
                if self._open:
                    self._open[-1] += total
                agg = self.spans.setdefault(layer, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += total - child
                agg[2] += total
            if after is not None:
                pause = time.perf_counter()
                after(args, result)
                self.paused += time.perf_counter() - pause
            return result

        return traced

    def _after_classes(self, args, result) -> None:
        self.count("partitions.nc0_classes.kept", len(result[2]))

    def _after_kernel(self, args, result) -> None:
        self.count("kernels.grid_kernel.entries", args[0].values.size)

    def _after_diagram(self, args, result) -> None:
        f, m, sigma = args[:3]
        key = (f.arity, f.bins, m, sigma.blocks)
        if key not in self._flops:
            self._flops[key] = einsum_flops(f, m, sigma)
        current, greedy = self._flops[key]
        self.count("kernels.einsum_flops_current", current)
        self.count("kernels.einsum_flops_greedy", greedy)

    def install(self) -> None:
        after = {
            "partitions.nc0_classes": self._after_classes,
            "kernels.grid_kernel": self._after_kernel,
            "kernels.diagram_integral": self._after_diagram,
        }
        for layer, targets in PATCHES.items():
            for owner, name in targets:
                original = getattr(owner, name)
                self._saved.append((owner, name, original))
                setattr(owner, name, self._wrap(layer, original, after.get(layer)))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def snapshot(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "paused": self.paused}

    def merge(self, snap: dict) -> None:
        """Add a child process's aggregates to this one's."""
        for layer, (calls, self_s, total_s) in snap["spans"].items():
            agg = self.spans.setdefault(layer, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += self_s
            agg[2] += total_s
        for name, value in snap["counts"].items():
            self.count(name, value)


def layer_metrics(tr: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-op means of the per-layer metrics over `ops` traced ops."""

    def calls(layer: str) -> tuple[float, str]:
        return tr.spans.get(layer, [0, 0.0, 0.0])[0] / ops, "count/op"

    def self_s(*layers: str) -> tuple[float, str]:
        return math.fsum(tr.spans.get(layer, [0, 0.0, 0.0])[1] for layer in layers) / ops, "s/op"

    def counted(name: str, unit: str = "count/op") -> tuple[float, str]:
        return tr.counts.get(name, 0) / ops, unit

    return {
        "partitions.nc0_classes.calls": calls("partitions.nc0_classes"),
        "partitions.nc0_classes.self_s": self_s("partitions.nc0_classes"),
        "partitions.nc0_classes.kept": counted("partitions.nc0_classes.kept"),
        "partitions.riordan.calls": calls("partitions.riordan"),
        "partitions.riordan.self_s": self_s("partitions.riordan"),
        "partitions.enumerate.self_s": self_s("partitions.enumerate"),
        "kernels.diagram_integral.calls": calls("kernels.diagram_integral"),
        "kernels.diagram_integral.self_s": self_s("kernels.diagram_integral"),
        "kernels.einsum_flops_current": counted("kernels.einsum_flops_current", "flop/op"),
        "kernels.einsum_flops_greedy": counted("kernels.einsum_flops_greedy", "flop/op"),
        "kernels.arc_contraction.calls": calls("kernels.arc_contraction"),
        "kernels.arc_contraction.self_s": self_s("kernels.arc_contraction"),
        "kernels.star_contraction.calls": calls("kernels.star_contraction"),
        "kernels.star_contraction.self_s": self_s("kernels.star_contraction"),
        "kernels.grid_kernel.built": calls("kernels.grid_kernel"),
        "kernels.grid_kernel.entries": counted("kernels.grid_kernel.entries"),
        "kernels.grid_kernel.self_s": self_s("kernels.grid_kernel"),
        "chaos.moment_product.self_s": self_s("chaos.moment_product"),
        "chaos.moment_trace_formula.self_s": self_s("chaos.moment_trace_formula"),
        "chaos.moment_diagram.self_s": self_s("chaos.moment_diagram"),
        "chaos.poisson_multiply.calls": calls("chaos.poisson_multiply"),
        "chaos.oracle.calls": calls("chaos.oracle"),
        "chaos.oracle.self_s": self_s("chaos.oracle"),
        "theorems.fourth_moment_identity.self_s": self_s("theorems.fourth_moment_identity"),
        "theorems.identity_terms.self_s": self_s("theorems.identity_terms"),
        "theorems.transfer_experiment.self_s": self_s("theorems.transfer_experiment"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.process_s": counted("cli.process_s", "s/op"),
    }
