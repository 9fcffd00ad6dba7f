"""Fourth-moment machinery: the statistic, its exact norm decomposition,
the indicator characterization, and the convergence and transfer experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chaos import (
    Measure,
    _float_power,
    _require_mirror,
    free_poisson_moment,
    moment_diagram,
    moment_product,
    semicircular_moment,
)
from .errors import IdentityMismatchError
from .kernels import (
    GridKernel,
    _require_table_size,
    arc_contraction,
    norm2,
    star_contraction,
    subtract,
)
from .records import Record, require_finite, rows_to_csv

STAT_IMAG_TOL = 1e-10
IDENTITY_REL_TOL = 1e-9


def _real_part(value: complex, what: str) -> float:
    if abs(value.imag) > STAT_IMAG_TOL * max(1.0, abs(value.real)):
        raise IdentityMismatchError(f"{what} has imaginary part {value.imag}")
    return value.real


def fourth_moment_statistic(f: GridKernel, measure: Measure = "poisson") -> float:
    """The combination m4 - 2*m3 of the chaos integral's moments."""
    m4 = moment_diagram(f, 4, measure)
    m3 = moment_diagram(f, 3, measure)
    return _real_part(m4 - 2 * m3, "fourth-moment statistic")


@dataclass(frozen=True)
class IdentityReport(Record):
    """Exact decomposition of m4 - 2*m3 + lambda into 2*lambda^2 plus
    squared contraction norms, one label per term."""

    DERIVED = ("delta",)

    q: int
    lam: float
    lhs: float
    rhs: float
    terms: dict[str, float]

    @property
    def delta(self) -> float:
        return self.lhs - self.rhs

    def to_csv(self) -> str:
        row = self.to_dict()
        terms = row.pop("terms")
        return rows_to_csv([row | terms])


def identity_terms(f: GridKernel) -> dict[str, float]:
    """The squared contraction norms on the decomposition's right side.

    The residual comes first: the midpoint shared-variable contraction
    (star (q+1)/2) minus f itself for odd arity, the half-depth arc minus f
    for even arity. Then every other arc depth 1..q-1 and star depth 1..q
    appears squared.
    """
    q = f.arity
    residual = ("star", (q + 1) // 2) if q % 2 else ("arc", q // 2)
    # built per call, so that a wrapper on this module's names sees every call
    contract = {"arc": arc_contraction, "star": star_contraction}
    kind, r = residual
    terms = {f"{kind}_{r}_minus_f": norm2(subtract(contract[kind](f, f, r), f))}
    for kind, r in [("arc", r) for r in range(1, q)] + [("star", r) for r in range(1, q + 1)]:
        if (kind, r) != residual:
            terms[f"{kind}_{r}"] = norm2(contract[kind](f, f, r))
    return terms


def fourth_moment_identity(f: GridKernel) -> IdentityReport:
    """Check m4 - 2*m3 + lambda against its norm decomposition and report both sides.

    The left side comes from the product engine, the right side from direct
    contraction norms, so the two sides share no code path.
    """
    _require_mirror(f)
    lam = norm2(f)
    if not lam > 0:
        raise ValueError("kernel must be nonzero")
    m4 = _real_part(moment_product(f, 4), "fourth moment")
    m3 = _real_part(moment_product(f, 3), "third moment")
    lhs = m4 - 2 * m3 + lam
    terms = identity_terms(f)
    rhs = 2 * lam * lam + sum(terms.values())
    report = IdentityReport(f.arity, lam, require_finite("lhs", lhs), require_finite("rhs", rhs), terms)
    if not abs(report.delta) <= IDENTITY_REL_TOL * max(1.0, abs(lhs)):  # a NaN delta fails too
        raise IdentityMismatchError(
            f"decomposition mismatch: lhs={lhs!r}, rhs={rhs!r}, delta={report.delta!r}"
        )
    return report


@dataclass(frozen=True)
class IndicatorReport(Record):
    """Whether a real arity-1 kernel is {0,1}-valued, with the moment cross-check."""

    is_indicator: bool
    lam: float
    moments: tuple[float, ...]
    oracle: tuple[float, ...]
    max_gap: float
    moments_match: bool


INDICATOR_VALUE_TOL = 1e-12
INDICATOR_MOMENT_ORDERS = tuple(range(1, 7))


def indicator_characterization(f: GridKernel) -> IndicatorReport:
    """Test f for {0,1} values and compare its moments with the rate-lambda oracle.

    The two agree for every order exactly when the kernel is an indicator;
    callers get both verdicts and can check the equivalence themselves.
    """
    if f.arity != 1:
        raise ValueError(f"indicator characterization needs arity 1, got {f.arity}")
    if float(np.max(np.abs(f.values.imag))) > INDICATOR_VALUE_TOL:
        raise ValueError("kernel must be real valued")
    vals = f.values.real
    is_ind = bool(np.all(np.minimum(np.abs(vals), np.abs(vals - 1.0)) <= INDICATOR_VALUE_TOL))
    lam = norm2(f)
    moments = tuple(_real_part(moment_diagram(f, m), f"moment {m}") for m in INDICATOR_MOMENT_ORDERS)
    if lam > 0:
        oracle = tuple(free_poisson_moment(lam, m) for m in INDICATOR_MOMENT_ORDERS)
    else:
        oracle = tuple(0.0 for _ in INDICATOR_MOMENT_ORDERS)
    max_gap = max(abs(a - b) for a, b in zip(moments, oracle))
    scale = max(1.0, max(abs(x) for x in moments + oracle))
    return IndicatorReport(is_ind, lam, moments, oracle, max_gap, max_gap <= 1e-9 * scale)


@dataclass(frozen=True)
class KernelFamily:
    """A labelled sequence of kernels indexed by step (starting at 1)."""

    label: str
    kernel_at: Callable[[int], GridKernel]


def indicator_family(bins: int, cell_width: float = 1.0, cells: Sequence[int] | None = None) -> KernelFamily:
    """Constant family: the same indicator at every step."""
    base = GridKernel.indicator(bins, cell_width, cells)
    return KernelFamily("indicator", lambda n: base)


def perturbed_indicator_family(
    bins: int = 4,
    cell_width: float = 1.0,
    eps0: float = 0.5,
    rho: float = 0.5,
    seed: int = 0,
) -> KernelFamily:
    """Indicator plus a geometrically shrinking mean-zero perturbation.

    Step n is 1_A + eps0 * rho^n * g where g is seeded noise recentred to
    integrate to zero, so the leading moment error cancels.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    _require_table_size(bins, 1)
    rng = np.random.default_rng(seed)
    g = rng.uniform(-1.0, 1.0, size=bins)
    g = g - g.mean()
    base = np.ones(bins)

    def at(n: int) -> GridKernel:
        eps = eps0 * _float_power(rho, n)
        return GridKernel(1, bins, cell_width, (base + eps * g).astype(np.complex128))

    return KernelFamily("perturbed-indicator", at)


def hyperdiagonal_family(q: int = 2, spread: float = 1.0, height: float = 1.0) -> KernelFamily:
    """Constant-height kernels supported on the cell diagonal of a refining grid.

    Step n uses n bins of width spread/n, so the support lies inside
    (0, spread)^q, values stay at the fixed height, the kernel vanishes as
    soon as two arguments differ by more than one cell width, and
    height^m * spread * (spread/n)^(m-1) stays bounded for every m.
    """
    if q < 1:
        raise ValueError(f"need q >= 1, got {q}")

    def at(n: int) -> GridKernel:
        if n < 1:
            raise ValueError(f"step must be >= 1, got {n}")
        _require_table_size(n, q)
        vals = np.zeros((n,) * q, dtype=np.complex128)
        for i in range(n):
            vals[(i,) * q] = height
        return GridKernel(q, n, spread / n, vals)

    return KernelFamily("hyperdiagonal", at)


@dataclass(frozen=True)
class StepRecord(Record):
    DERIVED = ("delta",)

    step: int
    lam: float
    statistic: float
    target: float
    moment_gap: float
    terms: dict[str, float]

    @property
    def delta(self) -> float:
        return self.statistic - self.target


@dataclass(frozen=True)
class ConvergenceSeries(Record):
    """Per-step statistics for a kernel family against per-step targets.

    Only the final gaps are compared to the threshold; nothing is claimed
    about monotonicity along the way.
    """

    DERIVED = ("final_statistic_gap", "final_moment_gap", "converged")

    family: str
    q: int
    moment_order: int
    gap_threshold: float
    records: tuple[StepRecord, ...]

    @property
    def final_statistic_gap(self) -> float:
        return abs(self.records[-1].delta)

    @property
    def final_moment_gap(self) -> float:
        return self.records[-1].moment_gap

    @property
    def converged(self) -> bool:
        return (
            self.final_statistic_gap <= self.gap_threshold
            and self.final_moment_gap <= self.gap_threshold
        )

    def to_csv(self) -> str:
        term_keys = sorted({k for r in self.records for k in r.terms})
        return rows_to_csv([
            {k: v for k, v in r.to_dict().items() if k not in ("moment_gap", "terms")}
            | {k: r.terms.get(k, 0.0) for k in term_keys}
            for r in self.records
        ])


def convergence_experiment(
    family: KernelFamily,
    steps: int,
    moment_order: int = 5,
    gap_threshold: float = 1e-2,
) -> ConvergenceSeries:
    """Track the statistic against 2*lam^2 - lam along a kernel family.

    Targets and oracle moments use the per-step rate lam_n; the per-term
    contraction norms from the identity decomposition come along in each
    record so the obstruction to convergence is visible term by term.
    """
    if steps < 1:
        raise ValueError(f"need steps >= 1, got {steps}")
    if moment_order < 1:
        raise ValueError(f"need moment_order >= 1, got {moment_order}")
    if not 0 <= gap_threshold < np.inf:
        raise ValueError(f"gap_threshold must be >= 0 and finite, got {gap_threshold}")
    records: list[StepRecord] = []
    q = None
    for n in range(1, steps + 1):
        f = family.kernel_at(n)
        q = f.arity
        report = fourth_moment_identity(f)
        lam = report.lam
        # the laws before the engine, so an order the oracle refuses costs nothing
        laws = [free_poisson_moment(lam, m) for m in range(1, moment_order + 1)]
        # the statistic's orders 4 and 3 first, so a guard they trip is the one reported
        orders = dict.fromkeys((4, 3, *range(1, moment_order + 1)))
        moments = {m: _real_part(moment_diagram(f, m), f"moment {m}") for m in orders}
        statistic = moments[4] - 2 * moments[3]
        gap = max(abs(moments[m] - law) for m, law in enumerate(laws, 1))
        records.append(StepRecord(n, lam, statistic, 2 * lam * lam - lam, gap, report.terms))
    return ConvergenceSeries(family.label, q, moment_order, gap_threshold, tuple(records))


@dataclass(frozen=True)
class TransferRow(Record):
    DERIVED = ("poisson_gap", "wigner_gap")

    m: int
    poisson: float
    wigner: float
    poisson_oracle: float
    wigner_oracle: float

    @property
    def poisson_gap(self) -> float:
        return abs(self.poisson - self.poisson_oracle)

    @property
    def wigner_gap(self) -> float:
        return abs(self.wigner - self.wigner_oracle)


@dataclass(frozen=True)
class TransferReport(Record):
    """The same kernel's moments under both product rules, next to both laws."""

    q: int
    lam: float
    rows: tuple[TransferRow, ...]

    def to_csv(self) -> str:
        return rows_to_csv([r.to_dict() for r in self.rows])


def transfer_experiment(f: GridKernel, max_order: int) -> TransferReport:
    """Moments 1..max_order of the same kernel under both product rules."""
    if max_order < 1:
        raise ValueError(f"need max_order >= 1, got {max_order}")
    lam = norm2(f)
    if not lam > 0:
        raise ValueError("kernel must be nonzero")
    # the laws before any engine, so an order the oracle refuses costs nothing
    laws = [(free_poisson_moment(lam, m), semicircular_moment(lam, m)) for m in range(1, max_order + 1)]
    rows = [
        TransferRow(
            m,
            _real_part(moment_diagram(f, m, "poisson"), f"poisson moment {m}"),
            _real_part(moment_diagram(f, m, "wigner"), f"wigner moment {m}"),
            *law,
        )
        for m, law in enumerate(laws, 1)
    ]
    return TransferReport(f.arity, lam, tuple(rows))
