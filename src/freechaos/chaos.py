"""Chaos expansions over grid kernels: products, traces, and moment engines.

An element is a finite sum of orthogonal integrals, stored as a map from
order to kernel; order 0 is the scalar part, kept inside the map (as an
arity-0 kernel) so multiplication and trace stay uniform. Three independent
routes compute the same moments: iterated products, diagram sums over
non-crossing classes, and a closed trace formula over contraction chains.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Literal

import numpy as np

from .errors import MAX_NC_GROUND, MAX_RIORDAN_INDEX, GridMismatchError, MirrorSymmetryError, SizeLimitError
from .kernels import (
    GridKernel,
    _arc_table,
    _require_table_size,
    _star_table,
    adjoint,
    arc_contraction,
    diagram_integral,
    inner,
    is_mirror_symmetric,
    norm2,
    star_contraction,
)
from .partitions import Blocks, SetPartition, catalan, nc0_classes, riordan
from .records import Record, require_finite

Measure = Literal["poisson", "wigner"]
# The engines that answer each measure, in the order `moments --method all` runs them.
ENGINES: dict[str, tuple[str, ...]] = {"poisson": ("product", "diagram", "trace"), "wigner": ("product", "diagram")}


def _check_measure(measure: str) -> None:
    if measure not in ENGINES:
        raise ValueError(f"measure must be {' or '.join(map(repr, ENGINES))}, got {measure!r}")


def _require_mirror(f: GridKernel) -> None:
    if not is_mirror_symmetric(f):
        raise MirrorSymmetryError("kernel is not mirror symmetric")


@dataclass(frozen=True, eq=False)
class ChaosElement:
    """Finite chaos expansion on one grid: order -> kernel, zero terms pruned."""

    bins: int
    cell_width: float
    terms: dict[int, GridKernel]

    def __post_init__(self) -> None:
        for order, kern in self.terms.items():
            if order != kern.arity:
                raise ValueError(f"order {order} holds a kernel of arity {kern.arity}")
            if kern.bins != self.bins or kern.cell_width != self.cell_width:
                raise GridMismatchError("term kernel does not match the element grid")

    @classmethod
    def integral(cls, f: GridKernel) -> ChaosElement:
        """The single chaos integral of f."""
        if f.arity < 1:
            raise ValueError("integral needs arity >= 1; use from_scalar for constants")
        return cls(f.bins, f.cell_width, {f.arity: f})

    @classmethod
    def from_scalar(cls, value: complex, bins: int, cell_width: float) -> ChaosElement:
        if value == 0:
            return cls(bins, cell_width, {})
        return cls(bins, cell_width, {0: GridKernel.constant(value, bins, cell_width)})

    def element_adjoint(self) -> ChaosElement:
        return ChaosElement(
            self.bins, self.cell_width, {k: adjoint(v) for k, v in self.terms.items()}
        )


def _accumulate(acc: dict[int, np.ndarray], order: int, table: np.ndarray) -> None:
    if order in acc:
        acc[order] += table
    else:
        acc[order] = table.copy()


def _build(bins: int, cell_width: float, acc: dict[int, np.ndarray]) -> ChaosElement:
    terms: dict[int, GridKernel] = {}
    for order in sorted(acc):
        vals = acc[order]
        if not np.any(vals):
            continue  # prune exact zeros only
        terms[order] = GridKernel._owned(order, bins, cell_width, vals)
    return ChaosElement(bins, cell_width, terms)


def _multiply(a: ChaosElement, b: ChaosElement, with_star: bool, top: float = np.inf) -> ChaosElement:
    # terms of order above top are never built
    if a.bins != b.bins or a.cell_width != b.cell_width:
        raise GridMismatchError("elements live on different grids")
    acc: dict[int, np.ndarray] = {}
    for p in sorted(a.terms):
        f = a.terms[p]
        for r in sorted(b.terms):
            g = b.terms[r]
            for k in range(0, min(p, r) + 1):
                if p + r - 2 * k <= top:
                    _accumulate(acc, p + r - 2 * k, arc_contraction(f, g, k).values)
            if with_star:
                for k in range(1, min(p, r) + 1):
                    if p + r - 2 * k + 1 <= top:
                        _accumulate(acc, p + r - 2 * k + 1, star_contraction(f, g, k).values)
    return _build(a.bins, a.cell_width, acc)


def poisson_multiply(a: ChaosElement, b: ChaosElement) -> ChaosElement:
    """Product rule with both arc and shared-variable contraction terms."""
    return _multiply(a, b, with_star=True)


def wigner_multiply(a: ChaosElement, b: ChaosElement) -> ChaosElement:
    """Product rule with arc terms only."""
    return _multiply(a, b, with_star=False)


def _finite(engine: str, m: int, value: complex) -> complex:
    """value itself, refused with a ValueError that names the engine and m when
    its real or imaginary part is not finite."""
    key = f"{engine}(m={m})"
    require_finite(key, value.real)
    require_finite(key, value.imag)
    return value


def trace(a: ChaosElement) -> complex:
    """The state applied to an element: its order-0 coefficient."""
    t = a.terms.get(0)
    return complex(t.values) if t is not None else 0j


def moment_product(f: GridKernel, m: int, measure: Measure = "poisson") -> complex:
    """m-th moment of the chaos integral of f by the product rule, in half powers.

    x is self-adjoint and distinct chaos orders are orthogonal, so
    tau(x^m) = <x^ceil(m/2), x^floor(m/2)>: the iterated product builds
    x^floor(m/2), and for odd m one more factor of x up to its top order
    only, so the largest table has bins^(floor(m/2) q) entries.
    """
    _check_measure(measure)
    _require_mirror(f)
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    mul = poisson_multiply if measure == "poisson" else wigner_multiply
    x = ChaosElement.integral(f)
    if m == 1:
        return _finite("moment_product", m, trace(x))
    lo = x
    for _ in range(m // 2 - 1):
        lo = mul(lo, x)
    # the inner product reads only the orders lo has, so hi stops at its top
    hi = _multiply(lo, x, measure == "poisson", max(lo.terms, default=0)) if m % 2 else lo
    return _finite("moment_product", m, element_inner(hi, lo))


def _components(blocks: Blocks, q: int) -> list[Blocks]:
    """Split a class into its connected components: blocks that share a kernel
    copy (q consecutive elements) belong to one component. A connected class
    comes back whole. Otherwise each component is relabelled onto its own
    copies 1..k, in their order, each element keeping its offset inside its
    copy, and comes out as canonical blocks of [kq]. A component holds every
    element of its copies, so the new label of an element is its rank among
    the component's elements. At q = 1 every block is a component of its own,
    and at q >= 2 none is."""
    if q == 1:
        return [(tuple(range(1, len(b) + 1)),) for b in blocks]
    groups: list[tuple[int, list[tuple[int, ...]]]] = []  # (bitmask of copies, blocks)
    for b in blocks:
        mask = 0
        for p in b:
            mask |= 1 << (p - 1) // q
        members = [b]
        apart = []
        for other, theirs in groups:
            if other & mask:
                mask |= other
                members += theirs
            else:
                apart.append((other, theirs))
        apart.append((mask, members))
        groups = apart
    if len(groups) == 1:
        return [blocks]
    out = []
    for _, members in groups:
        members.sort()
        rank = {p: r for r, p in enumerate(sorted(itertools.chain(*members)), 1)}
        out.append(tuple([tuple([rank[p] for p in b]) for b in members]))
    return out


def _orbit(blocks: Blocks, q: int) -> tuple[Blocks, bool]:
    """A component's orbit representative, and whether the component's glued
    integral is the conjugate of the representative's.

    Rotating [kq] by q relabels the k kernel copies cyclically, which leaves
    the integral unchanged. The reflection p -> kq + 1 - p reverses the copies
    and the legs of each, which conjugates it when f is mirror symmetric,
    f(x_q..x_1) = conj f(x_1..x_q). The representative is the smallest
    canonical block tuple over the k rotations and the k rotated reflections,
    and the flag is set when only a reflection reaches it (on a tie, min
    prefers a rotation). At q = 1 a component is one block and its own
    representative.
    """
    n = sum(map(len, blocks))

    def image(b: tuple[int, ...], flip: bool, shift: int) -> tuple[int, ...]:
        return tuple(sorted([((n - p if flip else p - 1) + shift) % n + 1 for p in b]))

    return min(
        (tuple(sorted([image(b, flip, shift) for b in blocks])), flip)
        for flip in (False, True)
        for shift in range(0, n, q)
    )


@lru_cache(maxsize=None)
def _diagram_terms(m: int, q: int) -> dict[str, tuple[tuple[SetPartition, ...], tuple[tuple[int, ...], ...]]]:
    """The classes of moment_diagram as products of component integrals, one
    table per measure: the Poisson measure sums over all blocks >= 2, the
    Wigner measure over the pairings, each in nc0_classes order.

    A measure's table holds the orbit representatives its classes use, as
    partitions in order of first use, and one tuple per class with an entry
    per connected component (_components): 2r when the component's integral
    is representative r's, 2r + 1 when it is the conjugate (_orbit). Equal
    tuples are one object.
    """
    orbit: dict[Blocks, tuple[Blocks, bool]] = {}  # component -> (representative, flag)
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    pairings, _, ge2 = nc0_classes(m, q)
    table = {}
    for measure, classes in (("poisson", ge2), ("wigner", pairings)):
        reps: dict[Blocks, int] = {}  # representative -> its index
        terms = []
        for sigma in classes:
            factors = []
            for blocks in _components(sigma.blocks, q):
                if blocks not in orbit:
                    orbit[blocks] = _orbit(blocks, q)
                rep, conj = orbit[blocks]
                factors.append(2 * reps.setdefault(rep, len(reps)) + conj)
            term = tuple(factors)
            terms.append(shared.setdefault(term, term))
        table[measure] = (tuple([SetPartition(sum(map(len, rep)), rep) for rep in reps]), tuple(terms))
    return table


def moment_diagram(f: GridKernel, m: int, measure: Measure = "poisson") -> complex:
    """m-th moment as a sum of glued integrals over non-crossing diagram classes.

    A class's glued integral is the product of those of its connected
    components (blocks that share a kernel copy), and each component,
    relabelled onto its own copies, is a non-crossing, no-singleton, meet-zero
    class of [kq] in turn. Rotating a component's copies leaves its integral
    unchanged and reflecting them conjugates it (_orbit), so the 44 distinct
    components at (6, 2) are 12 orbits and the 578 at (8, 2) are 61. The split
    of every class and the orbit of every component are computed once per
    shape (m, q) and kept as one table per measure (_diagram_terms; about
    1.8 MiB at (16, 1), where the classes took about 66 MiB). It is the only
    cache of the classes: nc0_classes does not keep them.

    Each call integrates each representative of its measure's table once,
    lays the values out as [v0, conj v0, v1, conj v1, ...], so that entry
    2r + flag of a class's tuple indexes it directly, and sums one product
    per class. At q = 1 each block size is an orbit of its own, so a moment
    needs one einsum per block size. The conjugates are exact only for an
    exactly mirror-symmetric f: the mirror check admits a gap of MIRROR_TOL
    relative to the peak value, and a flagged component's value can move by
    about that much. Each einsum runs in numpy's default order; a contraction
    order for the large representatives waits until the benchmark keeps its
    per-op memory flat (ROADMAP item 1).
    """
    _check_measure(measure)
    _require_mirror(f)
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    q = f.arity
    if m * q > MAX_NC_GROUND:
        raise SizeLimitError(f"moment_diagram needs m*q <= {MAX_NC_GROUND}, got {m * q}")
    reps, terms = _diagram_terms(m, q)[measure]
    # Each einsum below allocates and frees iterator buffers of up to 128 KiB per
    # operand. Until a process frees its first large block, glibc gives such
    # memory back to the system at once, so every call faults it in again (2x
    # the time on few bins); freeing one untouched 2 MiB block ends that.
    np.empty(1 << 21, np.uint8)
    parts: list[complex] = []  # per representative, its value and its conjugate
    for sigma in reps:
        value = diagram_integral(f, sigma.n // q, sigma)
        parts += (value, value.conjugate())
    total = 0j
    for term in terms:
        total += math.prod([parts[i] for i in term])
    return _finite("moment_diagram", m, total)


def _admissible_tuples(m: int, q: int, word: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    # depth k of a step covers the shared variable (word letter c) and cannot
    # exceed q or the arity the chain has reached, which the step then moves
    # by q + c - 2k; depths grow in order, so tuples come out lexicographic
    def grow(prefix: tuple[int, ...], arity: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == m - 1:
            yield prefix
            return
        c = word[len(prefix)]
        for k in range(c, min(q, arity) + 1):
            yield from grow(prefix + (k,), arity + q + c - 2 * k)

    yield from grow((), q)


def _chain(f: GridKernel, word: tuple[int, ...], depths: tuple[int, ...]) -> GridKernel:
    # left-nested: ((f . f) . f) . f, one contraction per word letter
    x = f
    for letter, k in zip(word, depths):
        if letter == 0:
            x = arc_contraction(x, f, k)
        else:
            x = star_contraction(x, f, k)
    return x


def power_expansion(f: GridKernel, m: int) -> ChaosElement:
    """Closed form of the m-th power of the chaos integral of f.

    Sums left-nested contraction chains over all 0/1 words of length m-1 (a
    1 marks a product step that keeps a shared variable) and admissible depth
    tuples; the term for word sigma and depths r lands at order
    mq + weight(sigma) - 2*sum(r), where weight(sigma) counts its 1s.
    """
    _require_mirror(f)
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    q = f.arity
    acc: dict[int, np.ndarray] = {}
    for word in itertools.product((0, 1), repeat=m - 1):
        for depths in _admissible_tuples(m, q, word):
            _accumulate(acc, m * q + sum(word) - 2 * sum(depths), _chain(f, word, depths).values)
    return _build(f.bins, f.cell_width, acc)


def moment_trace_formula(f: GridKernel, m: int) -> complex:
    """m-th moment as a sum of closed contraction chains.

    The chains of every word of length m-2 and every admissible depth tuple
    are walked depth-first as one prefix tree of raw tables, so each shared
    chain prefix is contracted once. A node extends its parent's left-nested
    chain by one arc (letter 0) or star (letter 1) contraction against f. A
    branch is dropped once its arity is too far from q to return in the steps
    left, since each step moves the arity by at most q.

    So a chain of arity a one step from its end has one admissible last step,
    depth ceil(a/2) with letter a mod 2, to arity q, after which the full arc
    against one more copy of f closes it. Step and closing make one arc of the
    chain against C_a, which is arc_contraction(f, f, q - a/2) for even a and
    star_contraction(f, f, q - (a-1)/2) for odd a. One step earlier, a chain X
    of arity a, its step (letter, depth k) to arity a' and the closing make one
    arc of X against one row P: arc_contraction(f, C_a', q - k) for an arc
    step and star_contraction(f, C_a', q - k + 1) for a star step. The rows of
    every step from arity a are built on first use, in a dict local to the
    call, with their axes reversed and flattened, and the C_a' they need with
    them. Reversing the axes of a contraction of f with g gives the same
    contraction of g reversed with f reversed, so a row is built reversed and
    no table is transposed. A node two steps from its end then costs one
    matrix-vector product against its arity's rows: each entry is the value
    of one chain, closed on its own, and their sum is the node's total. The
    nodes one step from the end are never built; the size of each is still
    checked.
    """
    _require_mirror(f)
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    q = f.arity
    if q < 1:
        raise ValueError(f"need arity >= 1, got {q}")
    if m == 1:
        return 0j  # a chaos integral of order q >= 1 is centred
    if m == 2:
        return _finite("moment_trace_formula", m, complex(arc_contraction(f, f, q).values))
    fv, width = f.values, f.cell_width
    fr = np.ascontiguousarray(fv.transpose(tuple(range(q - 1, -1, -1))))  # f with reversed axes
    closing: dict[int, np.ndarray] = {}  # a -> C_a with reversed axes
    rows: dict[int, np.ndarray] = {}  # a -> one reversed, flat row per step from arity a, times cell_width^a

    def closing_table(a: int) -> np.ndarray:
        c = closing.get(a)
        if c is None:
            c = closing[a] = (_star_table if a % 2 else _arc_table)(fr, fr, q - a // 2, width)
        return c

    def moves(arity: int, steps: int) -> list[tuple[int, int]]:
        # (letter, depth) of each step from arity that can still close in the steps left after it
        return [
            (letter, k)
            for letter in (0, 1)
            for k in range(letter, min(q, arity) + 1)
            if abs(arity + letter - 2 * k) <= (steps - 1) * q
        ]

    def row_table(a: int) -> np.ndarray:
        r = rows.get(a)
        if r is None:
            found = moves(a, 2)
            for letter, k in found:
                _require_table_size(f.bins, a + q + letter - 2 * k)
            r = np.empty((len(found), f.bins**a), np.complex128)
            for i, (letter, k) in enumerate(found):
                core = _star_table if letter else _arc_table
                r[i] = core(closing_table(a + q + letter - 2 * k), fr, q - k + letter, width).ravel()
            if width != 1:
                r *= width**a
            rows[a] = r
        return r

    def walk(x: np.ndarray, steps: int) -> complex:
        arity = x.ndim
        if steps == 2:  # summed in Python: a sum past the float range is inf for _finite, not a numpy warning
            return sum((row_table(arity) @ x.ravel()).tolist(), 0j)
        total = 0j
        for letter, k in moves(arity, steps):
            _require_table_size(f.bins, arity + q + letter - 2 * k)
            total += walk((_star_table if letter else _arc_table)(x, fv, k, width), steps - 1)
        return total

    if m == 3:  # f is one step from its end
        return _finite("moment_trace_formula", m, complex(fv.ravel() @ closing_table(q).ravel()) * width**q)
    return _finite("moment_trace_formula", m, walk(fv, m - 2))


def _float_power(base: float, exp: int) -> float:
    """base**exp, refused with a ValueError that names both when a float cannot hold it."""
    try:
        return base**exp
    except OverflowError:
        raise ValueError(f"outside the float range: {base!r}**{exp}") from None


def free_poisson_moment(lam: float, m: int) -> float:
    """m-th moment of the centered free Poisson law with rate lam."""
    if not lam > 0:
        raise ValueError(f"rate must be > 0, got {lam}")
    if not 1 <= m <= MAX_RIORDAN_INDEX:
        raise SizeLimitError(f"free_poisson_moment needs 1 <= m <= {MAX_RIORDAN_INDEX}, got {m}")
    total = float(sum(count * _float_power(lam, j) for j, count in riordan(m).counts))
    return require_finite(f"free_poisson_moment({lam!r}, {m})", total)


def semicircular_moment(lam: float, m: int) -> float:
    """m-th moment of the centered semicircular law with variance lam."""
    if not lam > 0:
        raise ValueError(f"variance must be > 0, got {lam}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if m % 2:
        return 0.0
    total = float(catalan(m // 2) * _float_power(lam, m // 2))
    return require_finite(f"semicircular_moment({lam!r}, {m})", total)


@dataclass(frozen=True)
class MomentReport(Record):
    """One computed moment next to its distribution oracle."""

    DERIVED = ("delta",)

    q: int
    m: int
    lam: float
    method: str
    value: complex
    oracle: float

    @property
    def delta(self) -> float:
        return self.value.real - self.oracle


def moment_report(f: GridKernel, m: int, method: str, measure: Measure = "poisson") -> MomentReport:
    """Compute one moment by the named engine and pair it with the matching oracle."""
    _check_measure(measure)
    if method not in ENGINES[measure]:
        engines = ", ".join(ENGINES[measure])
        raise ValueError(f"method must be one of {engines} for the {measure} measure, got {method!r}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    lam = norm2(f)
    if measure == "poisson":
        # before any engine runs, so an order the oracle refuses costs nothing
        oracle = free_poisson_moment(lam, m) if lam > 0 else 0.0
    if method == "product":
        value = moment_product(f, m, measure)
    elif method == "diagram":
        value = moment_diagram(f, m, measure)
    else:
        value = moment_trace_formula(f, m)
    if measure != "poisson":
        # after the engine, whose guards refuse an order this oracle would overflow at
        oracle = semicircular_moment(lam, m) if lam > 0 else 0.0
    return MomentReport(f.arity, m, lam, method, value, oracle)


def element_inner(a: ChaosElement, b: ChaosElement) -> complex:
    """State of a times the adjoint of b, using term orthogonality."""
    if a.bins != b.bins or a.cell_width != b.cell_width:
        raise GridMismatchError("elements live on different grids")
    total = 0j
    for order in sorted(a.terms):
        g = b.terms.get(order)
        if g is not None:
            total += inner(a.terms[order], g)
    return total
