"""Step-function kernels on a uniform grid and their contraction algebra.

A kernel of arity q is a function on [0, bins*cell_width)^q that is constant
on grid cells, stored as a dense complex table of shape (bins,)*q. The class
is closed under every contraction used here, so all integrals are exact
cell sums and no quadrature error enters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .errors import (
    MAX_TAMED_GROUND,
    GridMismatchError,
    GroundSetMismatchError,
    MirrorSymmetryError,
    require_ground,
    require_table_size,
)
from .partitions import Blocks, SetPartition, _staircase_blocks

MIRROR_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GridKernel:
    """Dense step-function kernel: arity, grid, and a complex value table."""

    arity: int
    bins: int
    cell_width: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise ValueError(f"arity must be >= 0, got {self.arity}")
        if self.bins < 1:
            raise ValueError(f"bins must be >= 1, got {self.bins}")
        if not self.cell_width > 0:
            raise ValueError(f"cell_width must be > 0, got {self.cell_width}")
        if not math.isfinite(self.cell_width):
            raise ValueError(f"cell_width must be finite, got {self.cell_width}")
        require_table_size(self.bins, self.arity)
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.bins,) * self.arity:
            raise ValueError(f"values shape {vals.shape} != {(self.bins,) * self.arity}")
        if not np.isfinite(vals).all():
            raise ValueError("kernel values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def _owned(cls, arity: int, bins: int, cell_width: float, values: np.ndarray) -> GridKernel:
        """Wrap a C-contiguous complex128 table of shape (bins,)*arity that the
        library has just computed and that nothing else references: no
        conversion, shape check or copy, only the size cap and the read-only
        flag."""
        require_table_size(bins, arity)
        if not arity:
            values = np.asarray(values)  # a ufunc on a 0-d array returns a numpy scalar
        values.setflags(write=False)
        kern = cls.__new__(cls)
        kern.__dict__.update(arity=arity, bins=bins, cell_width=cell_width, values=values)
        return kern

    @classmethod
    def zeros(cls, arity: int, bins: int, cell_width: float) -> GridKernel:
        require_table_size(bins, arity)
        return cls(arity, bins, cell_width, np.zeros((bins,) * arity, dtype=np.complex128))

    @classmethod
    def constant(cls, value: complex, bins: int, cell_width: float) -> GridKernel:
        """Arity-0 kernel holding a single scalar."""
        return cls(0, bins, cell_width, np.asarray(value, dtype=np.complex128))

    @classmethod
    def indicator(cls, bins: int, cell_width: float = 1.0, cells: Sequence[int] | None = None) -> GridKernel:
        """Arity-1 indicator of a set of cells (all cells when omitted)."""
        require_table_size(bins, 1)
        v = np.zeros(bins, dtype=np.complex128)
        if cells is None:
            v[:] = 1.0
        else:
            for c in cells:
                if not 0 <= c < bins:
                    raise ValueError(f"cell index {c} out of range [0, {bins})")
                v[c] = 1.0
        return cls(1, bins, cell_width, v)

    @classmethod
    def random_mirror_symmetric(cls, arity: int, bins: int, cell_width: float, seed: int) -> GridKernel:
        """Seeded real kernel symmetrized by averaging with its adjoint."""
        require_table_size(bins, arity)
        rng = np.random.default_rng(seed)
        raw = rng.uniform(-1.0, 1.0, size=(bins,) * arity)
        k = cls(arity, bins, cell_width, raw.astype(np.complex128))
        return scale(add(k, adjoint(k)), 0.5)


def _require_same_grid(f: GridKernel, g: GridKernel) -> None:
    if f.bins != g.bins or f.cell_width != g.cell_width:
        raise GridMismatchError(
            f"grids differ: ({f.bins}, {f.cell_width}) vs ({g.bins}, {g.cell_width})"
        )


def adjoint(f: GridKernel) -> GridKernel:
    """Conjugate and reverse the argument order."""
    rev = np.transpose(f.values, axes=tuple(reversed(range(f.arity))))
    return GridKernel._owned(f.arity, f.bins, f.cell_width, np.conj(rev, order="C"))


def is_mirror_symmetric(f: GridKernel) -> bool:
    """Whether f equals its adjoint up to MIRROR_TOL, relative to the peak value."""
    gap = float(np.max(np.abs(f.values - adjoint(f).values)))
    scale_ = max(1.0, float(np.max(np.abs(f.values))))
    return gap <= MIRROR_TOL * scale_


def add(f: GridKernel, g: GridKernel) -> GridKernel:
    _require_same_grid(f, g)
    if f.arity != g.arity:
        raise GridMismatchError(f"arity mismatch: {f.arity} vs {g.arity}")
    return GridKernel._owned(f.arity, f.bins, f.cell_width, f.values + g.values)


def subtract(f: GridKernel, g: GridKernel) -> GridKernel:
    return add(f, scale(g, -1.0))


def scale(f: GridKernel, c: complex) -> GridKernel:
    return GridKernel._owned(f.arity, f.bins, f.cell_width, f.values * complex(c))


def arc_contraction(f: GridKernel, g: GridKernel, k: int) -> GridKernel:
    """Integrate the last k arguments of f against the first k of g, in
    opposite order: the innermost integrated argument of f is the outermost
    of g. k = 0 is the plain tensor product. Output arity is m + n - 2k.
    """
    _require_same_grid(f, g)
    m, n = f.arity, g.arity
    if not 0 <= k <= min(m, n):
        raise ValueError(f"arc depth {k} outside 0..{min(m, n)}")
    out_arity = m + n - 2 * k
    require_table_size(f.bins, out_arity)
    return GridKernel._owned(out_arity, f.bins, f.cell_width, _arc_table(f.values, g.values, k, f.cell_width))


def star_contraction(f: GridKernel, g: GridKernel, k: int) -> GridKernel:
    """Like the depth-k arc, but the innermost pair of arguments is identified
    instead of integrated: k-1 pairs are integrated and one variable is shared
    by both factors. Output arity is m + n - 2k + 1.
    """
    _require_same_grid(f, g)
    m, n = f.arity, g.arity
    if not 1 <= k <= min(m, n):
        raise ValueError(f"star depth {k} outside 1..{min(m, n)}")
    out_arity = m + n - 2 * k + 1
    require_table_size(f.bins, out_arity)
    return GridKernel._owned(out_arity, f.bins, f.cell_width, _star_table(f.values, g.values, k, f.cell_width))


# The table-level cores of the two contractions: a new table from two tables
# on one grid, with no grid, depth or size check.
def _arc_table(x: np.ndarray, g: np.ndarray, k: int, cell_width: float) -> np.ndarray:
    # one matrix product: x's free axes against its last k, g's first k (in
    # reverse order) against its free axes; k = 0 is the outer product
    lead, trail = x.shape[: x.ndim - k], g.shape[k:]
    if k > 1:
        g = g.transpose(tuple(range(k - 1, -1, -1)) + tuple(range(k, g.ndim)))
    vals = x.reshape(math.prod(lead), -1) @ g.reshape(-1, math.prod(trail))
    if k and cell_width != 1:
        vals *= cell_width**k
    return vals.reshape(lead + trail)


def _star_table(x: np.ndarray, g: np.ndarray, k: int, cell_width: float) -> np.ndarray:
    m = x.ndim
    out_arity = m + g.ndim - 2 * k + 1
    shared = m - k  # output slot of the identified variable
    s_labels = list(range(out_arity, out_arity + k - 1))
    x_labels = list(range(m - k + 1)) + s_labels[::-1]
    g_labels = s_labels + [shared] + list(range(m - k + 1, out_arity))
    vals = np.einsum(x, x_labels, g, g_labels, list(range(out_arity)))
    if k > 1 and cell_width != 1:
        vals *= cell_width ** (k - 1)
    return vals


def norm2(f: GridKernel) -> float:
    """Squared L2 norm: cell_width^arity times the squared table sum."""
    return float(f.cell_width**f.arity * np.vdot(f.values, f.values).real)


def inner(f: GridKernel, g: GridKernel) -> complex:
    """L2 inner product, conjugate-linear in g."""
    _require_same_grid(f, g)
    if f.arity != g.arity:
        raise GridMismatchError(f"arity mismatch: {f.arity} vs {g.arity}")
    return complex(f.cell_width**f.arity * np.vdot(g.values, f.values))


def diagram_integral(f: GridKernel, m: int, sigma: SetPartition) -> complex:
    """Integral of the m-fold tensor power of f with arguments glued along sigma.

    Position p of the tensor power (copy j holds positions (j-1)q+1 .. jq)
    takes the variable of the sigma-block containing p; one integral per block.
    """
    q = f.arity
    if q < 1 or m < 1:
        raise ValueError(f"need arity >= 1 and m >= 1, got arity={q}, m={m}")
    if sigma.n != m * q:
        raise GroundSetMismatchError(f"partition of [{sigma.n}] cannot glue {m} copies of arity {q}")
    label = sigma.block_index()
    args: list = []
    try:
        # n elements in all and a block found at every position 1..n: then the
        # blocks cover [n] exactly once (a per-call validate costs more)
        if sum(map(len, sigma.blocks)) != sigma.n:
            raise KeyError(sigma.n)
        for j in range(m):
            args.append(f.values)
            args.append([label[p] for p in range(j * q + 1, j * q + q + 1)])
    except KeyError:
        raise GroundSetMismatchError(f"blocks {sigma.blocks} do not cover [{sigma.n}] exactly once") from None
    args.append([])
    total = np.einsum(*args)
    return complex(total * f.cell_width ** len(sigma.blocks))


@dataclass(frozen=True)
class TamednessReport:
    """Peak glued |f_n| integral over the partitions that meet the block
    partition in zero, per kernel, checked against a caller threshold.

    peaks[i] is the peak for fs[i], and worst[i] the first partition, in
    generation order, that reaches it. Boundedness here certifies only the
    supplied kernels at the supplied m; it is evidence, not a statement about
    the whole sequence.
    """

    m: int
    q: int
    threshold: float
    peaks: tuple[float, ...]
    worst: tuple[SetPartition, ...]
    scope: ClassVar[str] = "bounded over the supplied kernels at this m only"

    @property
    def all_bounded(self) -> bool:
        return max(self.peaks) <= self.threshold


def tamedness_report(fs: Sequence[GridKernel], m: int, threshold: float) -> TamednessReport:
    """Scan all partitions of [mq] meeting the block partition in zero."""
    if not fs:
        raise ValueError("need at least one kernel")
    q = fs[0].arity
    if any(f.arity != q for f in fs):
        raise GridMismatchError("kernels must share one arity")
    if q < 1 or m < 1:
        raise ValueError(f"need arity >= 1 and m >= 1, got arity={q}, m={m}")
    require_ground("tamedness_report", m * q, MAX_TAMED_GROUND)
    # the real |f| tables, built once, are seen only by diagram_integral
    moduli = [GridKernel._owned(q, f.bins, f.cell_width, np.abs(f.values)) for f in fs]
    peaks = [-math.inf] * len(fs)
    worst: list[SetPartition | None] = [None] * len(fs)

    def scan(blocks: Blocks) -> None:
        sigma = SetPartition(m * q, blocks)
        for i, f in enumerate(moduli):
            val = diagram_integral(f, m, sigma).real
            if val > peaks[i]:
                peaks[i], worst[i] = val, sigma

    _staircase_blocks(m * q, q, singletons=True, crossing=True, sink=scan)
    return TamednessReport(m, q, threshold, tuple(peaks), tuple(worst))


def kernel_to_dict(f: GridKernel) -> dict:
    """File form: grid header plus sparse [i1..iq, re, im] rows for nonzero cells."""
    entries: list[list] = []
    for idx in np.ndindex(*f.values.shape):
        v = complex(f.values[idx])
        if v != 0:
            entries.append([*map(int, idx), v.real, v.imag])
    return {"q": f.arity, "bins": f.bins, "cell_width": f.cell_width, "entries": entries}


def kernel_from_dict(obj: dict) -> GridKernel:
    """Validate and rebuild a kernel from its file form."""
    if not isinstance(obj, dict):
        raise ValueError("kernel file must hold a JSON object")
    for key in ("q", "bins", "cell_width", "entries"):
        if key not in obj:
            raise ValueError(f"kernel file missing key '{key}'")
    q, bins = obj["q"], obj["bins"]
    if any(not isinstance(v, int) or isinstance(v, bool) for v in (q, bins)):
        raise ValueError("'q' and 'bins' must be integers")
    width = obj["cell_width"]
    if not isinstance(width, (int, float)) or isinstance(width, bool):
        raise ValueError("'cell_width' must be a number")
    if not isinstance(obj["entries"], list):
        raise ValueError("'entries' must be a list")
    if q < 0 or bins < 1 or not width > 0:
        raise ValueError(f"bad grid header: q={q}, bins={bins}, cell_width={width}")
    require_table_size(bins, q)
    values = np.zeros((bins,) * q, dtype=np.complex128)
    seen: set[tuple[int, ...]] = set()
    for row in obj["entries"]:
        if not isinstance(row, list) or len(row) != q + 2:
            raise ValueError(f"entry {row!r} must be a list of {q} indices plus re, im")
        idx = tuple(row[:q])
        re, im = row[q], row[q + 1]
        if any(not isinstance(i, int) or isinstance(i, bool) for i in idx):
            raise ValueError(f"entry indices must be integers, got {row!r}")
        if any(not 0 <= i < bins for i in idx):
            raise ValueError(f"entry index out of range in {row!r}")
        if any(not isinstance(x, (int, float)) or isinstance(x, bool) for x in (re, im)):
            raise ValueError(f"entry values must be numbers, got {row!r}")
        re, im = _as_float(re), _as_float(im)
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError(f"entry values must be finite, got {row!r}")
        if idx in seen:
            raise ValueError(f"duplicate entry at index {idx}")
        seen.add(idx)
        values[idx] = complex(re, im)
    return GridKernel(q, bins, _as_float(width), values)


def _as_float(x: int | float) -> float:
    # a JSON integer past the float range reads as infinite, which the finite
    # checks then refuse
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def save_kernel(f: GridKernel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(kernel_to_dict(f), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_kernel(path: str) -> GridKernel:
    with open(path, encoding="utf-8") as fh:
        return kernel_from_dict(json.load(fh))
