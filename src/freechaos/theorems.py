"""Fourth-moment machinery: the statistic, its exact norm decomposition,
the indicator characterization, and the convergence and transfer experiments.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chaos import (
    Measure,
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

STAT_IMAG_TOL = 1e-10
IDENTITY_REL_TOL = 1e-9


def _rows_to_csv(rows: list[dict]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    keys = list(rows[0].keys())
    writer.writerow(keys)
    for row in rows:
        writer.writerow([_cell(row[k]) for k in keys])
    return out.getvalue()


def _cell(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


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
class IdentityReport:
    """Exact decomposition of m4 - 2*m3 + lambda into 2*lambda^2 plus
    squared contraction norms, one label per term."""

    q: int
    lam: float
    lhs: float
    rhs: float
    terms: dict[str, float]

    @property
    def delta(self) -> float:
        return self.lhs - self.rhs

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "lambda": self.lam,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "delta": self.delta,
            "terms": dict(self.terms),
        }

    def to_csv(self) -> str:
        row = self.to_dict()
        terms = row.pop("terms")
        return _rows_to_csv([row | terms])


def identity_terms(f: GridKernel) -> dict[str, float]:
    """The squared contraction norms on the decomposition's right side.

    Odd arity: the residual is the midpoint shared-variable contraction minus
    f itself; every other arc depth 1..q-1 and star depth 1..q appears squared.
    Even arity: the residual uses the half-depth arc instead, and all star
    depths appear.
    """
    q = f.arity
    terms: dict[str, float] = {}
    if q % 2:
        mid = (q + 1) // 2
        terms[f"star_{mid}_minus_f"] = norm2(subtract(star_contraction(f, f, mid), f))
        for r in range(1, q):
            terms[f"arc_{r}"] = norm2(arc_contraction(f, f, r))
        for r in range(1, q + 1):
            if r != mid:
                terms[f"star_{r}"] = norm2(star_contraction(f, f, r))
    else:
        half = q // 2
        terms[f"arc_{half}_minus_f"] = norm2(subtract(arc_contraction(f, f, half), f))
        for r in range(1, q):
            if r != half:
                terms[f"arc_{r}"] = norm2(arc_contraction(f, f, r))
        for r in range(1, q + 1):
            terms[f"star_{r}"] = norm2(star_contraction(f, f, r))
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
    report = IdentityReport(f.arity, lam, lhs, rhs, terms)
    if abs(report.delta) > IDENTITY_REL_TOL * max(1.0, abs(lhs)):
        raise IdentityMismatchError(
            f"decomposition mismatch: lhs={lhs!r}, rhs={rhs!r}, delta={report.delta!r}"
        )
    return report


@dataclass(frozen=True)
class IndicatorReport:
    """Whether a real arity-1 kernel is {0,1}-valued, with the moment cross-check."""

    is_indicator: bool
    lam: float
    moments: tuple[float, ...]
    oracle: tuple[float, ...]
    max_gap: float
    moments_match: bool

    def to_dict(self) -> dict:
        return {
            "is_indicator": self.is_indicator,
            "lambda": self.lam,
            "moments": list(self.moments),
            "oracle": list(self.oracle),
            "max_gap": self.max_gap,
            "moments_match": self.moments_match,
        }


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
    moments = tuple(moment_diagram(f, m).real for m in INDICATOR_MOMENT_ORDERS)
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
        eps = eps0 * rho**n
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
class StepRecord:
    step: int
    lam: float
    statistic: float
    target: float
    moment_gap: float
    terms: dict[str, float]

    @property
    def delta(self) -> float:
        return self.statistic - self.target

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "lambda": self.lam,
            "statistic": self.statistic,
            "target": self.target,
            "delta": self.delta,
            "moment_gap": self.moment_gap,
            "terms": dict(self.terms),
        }


@dataclass(frozen=True)
class ConvergenceSeries:
    """Per-step statistics for a kernel family against per-step targets.

    Only the final gaps are compared to the threshold; nothing is claimed
    about monotonicity along the way.
    """

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

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "q": self.q,
            "moment_order": self.moment_order,
            "gap_threshold": self.gap_threshold,
            "final_statistic_gap": self.final_statistic_gap,
            "final_moment_gap": self.final_moment_gap,
            "converged": self.converged,
            "records": [r.to_dict() for r in self.records],
        }

    def to_csv(self) -> str:
        term_keys = sorted({k for r in self.records for k in r.terms})
        return _rows_to_csv([
            {"step": r.step, "lambda": r.lam, "statistic": r.statistic, "target": r.target, "delta": r.delta}
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
    records: list[StepRecord] = []
    q = None
    for n in range(1, steps + 1):
        f = family.kernel_at(n)
        q = f.arity
        report = fourth_moment_identity(f)
        lam = report.lam
        statistic = fourth_moment_statistic(f)
        target = 2 * lam * lam - lam
        gap = 0.0
        for m in range(1, moment_order + 1):
            value = moment_diagram(f, m).real
            oracle = free_poisson_moment(lam, m)
            gap = max(gap, abs(value - oracle))
        records.append(StepRecord(n, lam, statistic, target, gap, report.terms))
    return ConvergenceSeries(family.label, q, moment_order, gap_threshold, tuple(records))


@dataclass(frozen=True)
class TransferRow:
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

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "poisson": self.poisson,
            "wigner": self.wigner,
            "poisson_oracle": self.poisson_oracle,
            "wigner_oracle": self.wigner_oracle,
            "poisson_gap": self.poisson_gap,
            "wigner_gap": self.wigner_gap,
        }


@dataclass(frozen=True)
class TransferReport:
    """The same kernel's moments under both product rules, next to both laws."""

    q: int
    lam: float
    rows: tuple[TransferRow, ...]

    def to_dict(self) -> dict:
        return {"q": self.q, "lambda": self.lam, "rows": [r.to_dict() for r in self.rows]}

    def to_csv(self) -> str:
        return _rows_to_csv([r.to_dict() for r in self.rows])


def transfer_experiment(f: GridKernel, max_order: int) -> TransferReport:
    """Moments 1..max_order of the same kernel under both product rules."""
    if max_order < 1:
        raise ValueError(f"need max_order >= 1, got {max_order}")
    lam = norm2(f)
    if not lam > 0:
        raise ValueError("kernel must be nonzero")
    rows: list[TransferRow] = []
    for m in range(1, max_order + 1):
        rows.append(
            TransferRow(
                m,
                _real_part(moment_diagram(f, m, "poisson"), f"poisson moment {m}"),
                _real_part(moment_diagram(f, m, "wigner"), f"wigner moment {m}"),
                free_poisson_moment(lam, m),
                semicircular_moment(lam, m),
            )
        )
    return TransferReport(f.arity, lam, tuple(rows))
