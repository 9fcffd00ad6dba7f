"""Proof structure the library does not compute with: the power expansion,
and where parity enters.

Words are 0/1 tuples of length m-1 whose letter 1 marks a product step that
keeps a shared variable. The m-th power of a chaos integral expands, through
the product formula, into one left-nested contraction chain per word and
admissible depth tuple. For odd q the closed depth tuples of a word split
into aligned ones (depths 0, (q+1)/2, q, the midpoint exactly at the
shared-variable steps) and the remainder, and the all-blocks->2 diagram
class splits the same way by its intersections with the block partition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from freechaos import (
    ChaosElement,
    GridKernel,
    MirrorSymmetryError,
    SetPartition,
    arc_contraction,
    is_mirror_symmetric,
    nc0_classes,
    star_contraction,
)


def admissible_tuples(m: int, q: int, word: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The depth tuples a product chain can realize for one word.

    Depth k of a step covers the shared variable (word letter c) and cannot
    exceed q or the arity the chain has reached, which the step then moves by
    q + c - 2k; depths grow in order, so tuples come out lexicographic.
    """

    def grow(prefix: tuple[int, ...], arity: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == m - 1:
            yield prefix
            return
        c = word[len(prefix)]
        for k in range(c, min(q, arity) + 1):
            yield from grow(prefix + (k,), arity + q + c - 2 * k)

    return grow((), q)


def chain(f: GridKernel, word: tuple[int, ...], depths: tuple[int, ...]) -> GridKernel:
    """The left-nested chain ((f . f) . f) . f, one contraction per word letter:
    an arc for a 0, a shared-variable (star) contraction for a 1."""
    x = f
    for letter, k in zip(word, depths):
        x = star_contraction(x, f, k) if letter else arc_contraction(x, f, k)
    return x


def power_expansion(f: GridKernel, m: int) -> ChaosElement:
    """Closed form of the m-th power of the chaos integral of f.

    Sums left-nested contraction chains over all 0/1 words of length m-1 and
    admissible depth tuples; the term for word sigma and depths r lands at
    order mq + weight(sigma) - 2*sum(r), where weight(sigma) counts its 1s.
    Orders whose sum is exactly zero are dropped.
    """
    if not is_mirror_symmetric(f):
        raise MirrorSymmetryError("kernel is not mirror symmetric")
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    q = f.arity
    tables: dict[int, np.ndarray] = {}
    for word in itertools.product((0, 1), repeat=m - 1):
        for depths in admissible_tuples(m, q, word):
            order = m * q + sum(word) - 2 * sum(depths)
            tables[order] = tables.get(order, 0) + chain(f, word, depths).values
    terms = {
        order: GridKernel(order, f.bins, f.cell_width, table)
        for order, table in sorted(tables.items())
        if np.any(table)
    }
    return ChaosElement(f.bins, f.cell_width, terms)


def words(m: int, weight: int) -> list[tuple[int, ...]]:
    """All length-(m-1) 0/1 words with the given number of 1s, ordered by the
    positions of their 1s."""
    if not 0 <= weight <= m - 1:
        return []
    out = []
    for pos in itertools.combinations(range(m - 1), weight):
        w = [0] * (m - 1)
        for p in pos:
            w[p] = 1
        out.append(tuple(w))
    return out


@dataclass(frozen=True)
class IndexSets:
    """Contraction-depth tuples attached to a word, graded by what they select.

    admissible: every tuple a product chain can realize.
    closed: admissible tuples whose chain ends at order 0 (2*sum(r) = mq + weight).
    aligned: closed tuples with every depth in {0, (q+1)/2, q}, the letter
             forcing the midpoint exactly at the shared-variable steps;
             only defined for odd q (aligned_defined marks that).
    remainder: closed tuples not aligned.
    """

    m: int
    q: int
    word: tuple[int, ...]
    admissible: tuple[tuple[int, ...], ...]
    closed: tuple[tuple[int, ...], ...]
    aligned: tuple[tuple[int, ...], ...]
    remainder: tuple[tuple[int, ...], ...]
    aligned_defined: bool


def index_sets(m: int, q: int, word: tuple[int, ...]) -> IndexSets:
    """Enumerate the depth-tuple families for one word."""
    if m < 2 or q < 1:
        raise ValueError(f"need m >= 2 and q >= 1, got m={m}, q={q}")
    if len(word) != m - 1:
        raise ValueError(f"word length {len(word)} != m-1 = {m - 1}")
    admissible = tuple(admissible_tuples(m, q, word))
    target = m * q + sum(word)
    closed = tuple(r for r in admissible if 2 * sum(r) == target)
    aligned_defined = q % 2 == 1
    aligned: tuple[tuple[int, ...], ...] = ()
    if aligned_defined:
        mid = (q + 1) // 2
        picked = []
        for r in closed:
            ok = all(v in (0, mid, q) for v in r)
            ok = ok and all(
                ((v in (0, q)) == (c == 0)) and ((v == mid) == (c == 1))
                for v, c in zip(r, word)
            )
            if ok:
                picked.append(r)
        aligned = tuple(picked)
    aligned_set = set(aligned)
    remainder = tuple(r for r in closed if r not in aligned_set)
    return IndexSets(m, q, word, admissible, closed, aligned, remainder, aligned_defined)


def block_partition(m: int, q: int) -> SetPartition:
    """The partition of [mq] into m consecutive blocks of size q."""
    if m < 1 or q < 1:
        raise ValueError(f"need m >= 1 and q >= 1, got m={m}, q={q}")
    blocks = tuple(tuple(range((j - 1) * q + 1, j * q + 1)) for j in range(1, m + 1))
    return SetPartition(m * q, blocks)


def intersection_split(
    m: int, q: int
) -> tuple[tuple[SetPartition, ...], tuple[SetPartition, ...]]:
    """Split the all-blocks->2 class by intersection sizes against the block partition.

    First list: every block of tau meets every base block in 0, (q+1)/2, or q
    elements. Second list: the rest. Only defined for odd q.
    """
    if q % 2 == 0:
        raise ValueError(f"intersection_split needs odd q, got {q}")
    _, big, _ = nc0_classes(m, q)
    pi = block_partition(m, q)
    allowed = {0, (q + 1) // 2, q}
    first: list[SetPartition] = []
    second: list[SetPartition] = []
    for tau in big:
        sets = [set(b) for b in tau.blocks]
        if all(len(s & set(pb)) in allowed for s in sets for pb in pi.blocks):
            first.append(tau)
        else:
            second.append(tau)
    return tuple(first), tuple(second)
