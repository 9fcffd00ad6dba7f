"""Set partitions, non-crossing partitions, and the block classes behind diagram sums.

Ground sets are {1, ..., n}. Partitions are kept in canonical form: blocks
sorted by least element, elements ascending inside each block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .errors import (
    MAX_NC_ENUM_GROUND,
    MAX_NC_GROUND,
    MAX_PARTITION_GROUND,
    GroundSetMismatchError,
    require_ground,
    require_size,
)

Blocks = tuple[tuple[int, ...], ...]  # a partition's canonical blocks


@dataclass(frozen=True)
class SetPartition:
    """A partition of {1, ..., n} in canonical block order."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def from_blocks(cls, n: int, blocks) -> SetPartition:
        """Canonicalize and validate an iterable of blocks."""
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        part = cls(n, canon)
        part.validate()
        return part

    def validate(self) -> None:
        if self.n < 1:
            raise GroundSetMismatchError(f"ground set must be nonempty, got n={self.n}")
        seen: set[int] = set()
        for b in self.blocks:
            if not b:
                raise GroundSetMismatchError("empty block")
            for x in b:
                if not 1 <= x <= self.n or x in seen:
                    raise GroundSetMismatchError(f"element {x} invalid for ground set [{self.n}]")
                seen.add(x)
        if len(seen) != self.n:
            raise GroundSetMismatchError(f"blocks cover {len(seen)} of {self.n} elements")

    def block_index(self) -> dict[int, int]:
        """Map each element to the index of its block."""
        out: dict[int, int] = {}
        for i, b in enumerate(self.blocks):
            for x in b:
                out[x] = i
        return out

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def to_lists(self) -> list[list[int]]:
        """JSON-friendly form: sorted list of sorted blocks."""
        return [list(b) for b in self.blocks]


def _staircase_blocks(n: int, q: int, singletons: bool, crossing: bool, sink: Callable[[Blocks], object]) -> None:
    """Hand sink each partition of [n] that meets the partition into runs of q
    consecutive elements in zero, as canonical block tuples, grown by depth-first
    staircase insertion: only the non-crossing ones unless crossing is on.

    Each state carries its staircase: the blocks that can accept the next
    element, by descending maximum. Element e opens a block or joins a
    staircase block s. A non-crossing join keeps s and everything below it
    addable and buries the blocks above it; a crossing join buries nothing.
    Element e never joins a block whose maximum lies in e's own run (runs are
    consecutive, so this is exactly the zero meet); at q = 1 that cut never
    fires. Without singletons, a branch is cut as soon as no completion can be
    kept: a join never buries a singleton, and the last element never opens a
    block. These cuts hold on the non-crossing staircase only.
    """
    if crossing and not singletons:
        raise ValueError("the singleton cuts hold on the non-crossing staircase only")

    def grow(e: int, blocks: Blocks, stair: tuple[int, ...]) -> None:
        if e > n:
            if singletons or all(len(blocks[bi]) > 1 for bi in stair):
                sink(blocks)
            return
        if singletons or e < n:
            grow(e + 1, blocks + ((e,),), (len(blocks),) + stair)
        run = (e - 1) // q
        for si, bi in enumerate(stair):
            if not singletons and si and len(blocks[stair[si - 1]]) == 1:
                break  # joining here or lower would bury a singleton
            if (blocks[bi][-1] - 1) // q == run:
                continue
            nb = list(blocks)
            nb[bi] = nb[bi] + (e,)
            grow(e + 1, tuple(nb), (bi,) + (stair[:si] if crossing else ()) + stair[si + 1:])

    # grow's closure holds grow itself: break that cycle, or it keeps sink, and
    # all that sink filed, alive until the cyclic collector runs
    try:
        grow(2, ((1,),), (0,))
    finally:
        del grow


def enumerate_partitions(n: int) -> list[SetPartition]:
    """All partitions of [n], from the staircase generator with crossings on;
    exhaustive, so n is capped."""
    require_size("enumerate_partitions", "n", n, MAX_PARTITION_GROUND)
    kept: list[SetPartition] = []
    _staircase_blocks(n, 1, singletons=True, crossing=True, sink=lambda b: kept.append(SetPartition(n, b)))
    return kept


def enumerate_nc(n: int) -> list[SetPartition]:
    """All non-crossing partitions of [n], Catalan(n) of them."""
    require_size("enumerate_nc", "n", n, MAX_NC_ENUM_GROUND)
    kept: list[SetPartition] = []
    _staircase_blocks(n, 1, singletons=True, crossing=False, sink=lambda b: kept.append(SetPartition(n, b)))
    return kept


def meet_is_zero(sigma: SetPartition, pi: SetPartition) -> bool:
    """Whether the common refinement of sigma and pi is the singleton partition.

    Equivalent to: every block of sigma meets every block of pi in at most
    one element.
    """
    if sigma.n != pi.n:
        raise GroundSetMismatchError(f"ground sets differ: {sigma.n} vs {pi.n}")
    where = pi.block_index()
    for blk in sigma.blocks:
        hit: set[int] = set()
        for x in blk:
            i = where[x]
            if i in hit:
                return False
            hit.add(i)
    return True


def nc0_classes(
    m: int, q: int
) -> tuple[tuple[SetPartition, ...], tuple[SetPartition, ...], tuple[SetPartition, ...]]:
    """Non-crossing partitions of [mq] with no singleton whose meet with the
    block partition (m runs of q consecutive elements) is zero, split by block
    size: (all blocks = 2, all blocks > 2, all blocks >= 2).

    They come from the staircase generator with its singleton cuts on, in
    the order enumerate_nc lists them, and each is filed by its largest and
    smallest block as it comes.
    """
    if m < 1 or q < 1:
        raise ValueError(f"need m >= 1 and q >= 1, got m={m}, q={q}")
    n = m * q
    require_ground("nc0_classes", n, MAX_NC_GROUND)
    pairings: list[SetPartition] = []
    big: list[SetPartition] = []
    ge2: list[SetPartition] = []

    def file(blocks: Blocks) -> None:
        p = SetPartition(n, blocks)
        ge2.append(p)
        if max(map(len, blocks)) == 2:  # no block is a singleton, so every block has 2
            pairings.append(p)
        elif min(map(len, blocks)) > 2:
            big.append(p)

    _staircase_blocks(n, q, singletons=False, crossing=False, sink=file)
    return tuple(pairings), tuple(big), tuple(ge2)


@dataclass(frozen=True)
class RiordanTable:
    """Counts of no-singleton non-crossing partitions of [m] by block count."""

    m: int
    counts: tuple[tuple[int, int], ...]  # (block count j, number of partitions)

    def count(self, j: int) -> int:
        return dict(self.counts).get(j, 0)

    @property
    def total(self) -> int:
        return sum(c for _, c in self.counts)


@lru_cache(maxsize=None)
def riordan(m: int) -> RiordanTable:
    """No-singleton NC partition counts graded by blocks, in closed form:
    C(m, j) C(m-j-1, j-1) / (m-j+1) partitions of [m] have j blocks, 1 <= j <= m/2
    (Nica & Speicher, Lectures on the Combinatorics of Free Probability, 2006).
    """
    require_size("riordan", "m", m, MAX_NC_GROUND)  # the total counts the classes of nc0_classes(m, 1)
    counts = tuple(
        (j, math.comb(m, j) * math.comb(m - j - 1, j - 1) // (m - j + 1)) for j in range(1, m // 2 + 1)
    )
    return RiordanTable(m, counts)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def bell(n: int) -> int:
    if n == 0:
        return 1
    return sum(math.comb(n - 1, k) * bell(k) for k in range(n))
