"""Shared helpers: naive loop-based oracles the fast paths are checked against."""

from __future__ import annotations

import itertools

import numpy as np

from freechaos import GridKernel, SetPartition


def rel_close(a, b, tol=1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def naive_arc(f: GridKernel, g: GridKernel, k: int) -> np.ndarray:
    """Arc contraction by explicit nested summation.

    Output slot order: the free arguments of f, then the free arguments of g.
    The innermost integrated argument of f pairs with the outermost of g.
    """
    m, n, B = f.arity, g.arity, f.bins
    out_arity = m + n - 2 * k
    out = np.zeros((B,) * out_arity, dtype=np.complex128)
    for t in itertools.product(range(B), repeat=out_arity):
        total = 0j
        for s in itertools.product(range(B), repeat=k):
            fa = t[: m - k] + tuple(reversed(s))
            ga = s + t[m - k:]
            total += complex(f.values[fa]) * complex(g.values[ga])
        out[t] = total * f.cell_width**k
    return out


def naive_star(f: GridKernel, g: GridKernel, k: int) -> np.ndarray:
    """Shared-variable contraction by explicit nested summation.

    Slot m-k (0-based) of the output is the identified variable, present in
    both factors and not integrated; the other k-1 pairs are integrated in
    the same opposite order as the arc.
    """
    m, n, B = f.arity, g.arity, f.bins
    out_arity = m + n - 2 * k + 1
    out = np.zeros((B,) * out_arity, dtype=np.complex128)
    for t in itertools.product(range(B), repeat=out_arity):
        shared = t[m - k]
        total = 0j
        for s in itertools.product(range(B), repeat=k - 1):
            fa = t[: m - k + 1] + tuple(reversed(s))
            ga = s + (shared,) + t[m - k + 1:]
            total += complex(f.values[fa]) * complex(g.values[ga])
        out[t] = total * f.cell_width ** (k - 1)
    return out


def naive_glued(f: GridKernel, m: int, sigma: SetPartition, absolute: bool = False) -> complex:
    """Glued tensor-power integral by assigning one cell per block."""
    q, B = f.arity, f.bins
    label = sigma.block_index()
    nblocks = len(sigma.blocks)
    total = 0j
    for cells in itertools.product(range(B), repeat=nblocks):
        prod = 1 + 0j
        for j in range(m):
            idx = tuple(cells[label[p]] for p in range(j * q + 1, j * q + q + 1))
            v = complex(f.values[idx])
            prod *= abs(v) if absolute else v
        total += prod
    return total * f.cell_width**nblocks


def is_noncrossing(p: SetPartition) -> bool:
    """Whether no two blocks interleave. Two blocks cross iff their merged
    order switches source at least 3 times, i.e. some p1 < q1 < p2 < q2 with
    the p's in one block and the q's in the other."""
    for a, b in itertools.combinations(p.blocks, 2):
        merged = sorted([(x, 0) for x in a] + [(x, 1) for x in b])
        if sum(1 for i in range(1, len(merged)) if merged[i][1] != merged[i - 1][1]) >= 3:
            return False
    return True


def growth_string_partitions(n: int) -> set[SetPartition]:
    """Every partition of [n], read off its restricted growth string: element
    i goes to block a_i, where a_1 = 0 and a_i is at most one more than every
    earlier letter. Blocks are numbered by their least element, so the blocks
    come out canonical."""
    out: set[SetPartition] = set()

    def grow(word: list[int], top: int) -> None:
        if len(word) == n:
            blocks: list[list[int]] = [[] for _ in range(top + 1)]
            for x, b in enumerate(word, 1):
                blocks[b].append(x)
            out.add(SetPartition(n, tuple(map(tuple, blocks))))
            return
        for b in range(top + 2):
            grow(word + [b], max(top, b))

    grow([0], 0)
    return out


def random_kernel(arity: int, bins: int, cell_width: float, seed: int, complex_values=False) -> GridKernel:
    """Seeded kernel with no symmetry imposed."""
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-1.0, 1.0, size=(bins,) * arity)
    if complex_values:
        vals = vals + 1j * rng.uniform(-1.0, 1.0, size=(bins,) * arity)
    return GridKernel(arity, bins, cell_width, vals)


def element_gap(a, b) -> float:
    """Largest relative entrywise gap between two chaos elements, over all orders."""
    gap = 0.0
    for order in set(a.terms) | set(b.terms):
        fa, fb = a.terms.get(order), b.terms.get(order)
        va = fa.values if fa is not None else np.zeros(())
        vb = fb.values if fb is not None else np.zeros(())
        diff = float(np.max(np.abs(va - vb)))
        scale = max(1.0, float(np.max(np.abs(va))), float(np.max(np.abs(vb))))
        gap = max(gap, diff / scale)
    return gap
