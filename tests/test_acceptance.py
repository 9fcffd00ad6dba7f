"""Acceptance suite: one test per shipped guarantee, each with its stated
tolerance and runtime budget. `pytest -v` prints one pass/fail line per
criterion. Expected values are frozen literals, never recomputed from the
code paths they validate.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from freechaos import (
    ChaosElement,
    GridKernel,
    catalan,
    convergence_experiment,
    enumerate_nc,
    enumerate_partitions,
    fourth_moment_identity,
    fourth_moment_statistic,
    free_poisson_moment,
    moment_diagram,
    moment_product,
    moment_trace_formula,
    norm2,
    perturbed_indicator_family,
    poisson_multiply,
    transfer_experiment,
)
from freechaos.partitions import riordan

from conftest import element_gap, is_noncrossing, rel_close
from proof_structure import power_expansion

# frozen count oracles: Catalan numbers and no-singleton non-crossing totals
CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796)
RIORDAN_TOTALS = (0, 1, 1, 3, 6, 15)


@contextmanager
def budget(seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"ran {elapsed:.2f}s, budget {seconds}s"


def seeded_symmetric(q: int, bins: int, cell_width: float, seed: int) -> GridKernel:
    return GridKernel.random_mirror_symmetric(q, bins, cell_width, seed)


def test_criterion_1_regression_values():
    """Doubled two-cell kernel: second and third moments 8 and 16; law oracle at rate 8."""
    with budget(1.0):
        f = GridKernel(1, 2, 1.0, np.full(2, 2.0))
        assert rel_close(moment_product(f, 2), 8.0, 1e-12)
        assert rel_close(moment_product(f, 3), 16.0, 1e-12)
        assert rel_close(free_poisson_moment(8.0, 3), 8.0, 1e-12)


def test_criterion_2_statistic_hits_target_on_indicators():
    """Indicator kernels: the fourth-moment statistic equals 2*lam^2 - lam."""
    with budget(1.0):
        for bins in (1, 4, 8):
            lam = float(bins)
            got = fourth_moment_statistic(GridKernel.indicator(bins))
            assert rel_close(got, 2 * lam * lam - lam, 1e-12)


def test_criterion_3_three_engines_agree():
    """Product, diagram, and trace-formula moments agree pairwise at 1e-9
    relative on 20 seeded mirror-symmetric kernels per (q, m) cell."""
    grid = [(1, m) for m in range(2, 7)] + [(2, m) for m in range(2, 5)] + [(3, m) for m in range(2, 5)]
    with budget(120.0):
        for q, m in grid:
            assert m * q <= 12
            for k in range(20):
                bins = 2 + k % 2
                width = 0.5 + 0.25 * (k % 3)
                f = seeded_symmetric(q, bins, width, 1000 + 100 * q + 10 * m + k)
                a = moment_product(f, m)
                b = moment_diagram(f, m)
                c = moment_trace_formula(f, m)
                assert rel_close(a, b, 1e-9), (q, m, k)
                assert rel_close(a, c, 1e-9), (q, m, k)
                assert rel_close(b, c, 1e-9), (q, m, k)


def test_criterion_4_identity_suite():
    """Fourth-moment norm decomposition on 50 random kernels per arity:
    sides agree at 1e-9 relative and every squared-norm term is nonnegative."""
    with budget(60.0):
        for q, bins_choices in [(1, (2, 3, 4, 5)), (2, (2, 3)), (3, (2, 3))]:
            for k in range(50):
                bins = bins_choices[k % len(bins_choices)]
                width = 0.5 + 0.125 * (k % 5)
                f = seeded_symmetric(q, bins, width, 2000 + 100 * q + k)
                report = fourth_moment_identity(f)
                assert abs(report.delta) <= 1e-9 * max(1.0, abs(report.lhs)), (q, k)
                assert all(v >= -1e-15 for v in report.terms.values()), (q, k)


def test_criterion_5_combinatorial_counts():
    """Non-crossing counts are Catalan against the exhaustive filter; the
    no-singleton table is stable and vanishes above half the ground size."""
    with budget(30.0):
        for n in range(1, 11):
            ncs = enumerate_nc(n)
            assert len(ncs) == CATALAN[n]
            filtered = sum(1 for p in enumerate_partitions(n) if is_noncrossing(p))
            assert filtered == CATALAN[n]
        totals = tuple(riordan(m).total for m in range(1, 7))
        assert totals == RIORDAN_TOTALS
        riordan.cache_clear()
        assert tuple(riordan(m).total for m in range(1, 7)) == RIORDAN_TOTALS
        for m in range(1, 13):
            table = riordan(m)
            assert all(j <= m // 2 for j, _ in table.counts)
            for j in range(m // 2 + 1, m + 1):
                assert table.count(j) == 0


def test_criterion_6_indicator_characterization_both_directions():
    """Indicators reproduce the law oracle through order 8; ten kernels with
    values off {0, 1} each miss it by more than 1e-6 at some order <= 4."""
    with budget(30.0):
        indicators = [
            GridKernel.indicator(1),
            GridKernel.indicator(4),
            GridKernel.indicator(5, cells=[0, 2, 4]),
            GridKernel.indicator(3, cell_width=0.5),
            GridKernel.indicator(6, cell_width=0.25, cells=[1, 2, 5]),
        ]
        for f in indicators:
            lam = norm2(f)
            for m in range(1, 9):
                assert rel_close(moment_diagram(f, m).real, free_poisson_moment(lam, m), 1e-12)
        rng = np.random.default_rng(99)
        for i in range(10):
            lo, hi = ((0.2, 0.8) if i % 2 else (1.1, 1.7))
            vals = rng.uniform(lo, hi, size=4)
            g = GridKernel(1, 4, 1.0, vals.astype(np.complex128))
            lam = norm2(g)
            gap = max(
                abs(moment_diagram(g, m).real - free_poisson_moment(lam, m))
                for m in range(1, 5)
            )
            assert gap > 1e-6, i


def test_criterion_7_both_laws_from_one_kernel():
    """Unit-rate kernel: moments 1..6 under the two product rules equal the
    no-singleton and pairing count sequences respectively."""
    with budget(5.0):
        report = transfer_experiment(GridKernel.indicator(1), 6)
        poisson = tuple(r.poisson for r in report.rows)
        wigner = tuple(r.wigner for r in report.rows)
        for got, want in zip(poisson, (0.0, 1.0, 1.0, 3.0, 6.0, 15.0)):
            assert abs(got - want) <= 1e-12
        for got, want in zip(wigner, (0.0, 1.0, 0.0, 2.0, 0.0, 5.0)):
            assert abs(got - want) <= 1e-12
        for r in report.rows:
            assert r.poisson_gap <= 1e-12 and r.wigner_gap <= 1e-12


def test_criterion_8_expansion_matches_iterated_product():
    """power_expansion agrees with the iterated product at every chaos order,
    entrywise, on 10 seeded kernels per (q, m) pair."""
    with budget(60.0):
        for q, m in [(1, 3), (1, 4), (2, 3)]:
            for k in range(10):
                f = seeded_symmetric(q, 3, 0.5 + 0.25 * (k % 3), 3000 + 100 * q + 10 * m + k)
                direct = power_expansion(f, m)
                iterated = ChaosElement.integral(f)
                x = ChaosElement.integral(f)
                for _ in range(m - 1):
                    iterated = poisson_multiply(iterated, x)
                assert element_gap(direct, iterated) <= 1e-12, (q, m, k)


def test_criterion_9_perturbed_indicator_convergence():
    """Shrinking perturbation of an indicator: after 8 steps the statistic gap
    and the max moment gap through order 5 are below 1e-2."""
    with budget(10.0):
        family = perturbed_indicator_family(bins=4, cell_width=1.0, eps0=0.5, rho=0.5, seed=0)
        series = convergence_experiment(family, 8, moment_order=5, gap_threshold=1e-2)
        print()  # per-step series, one row per step
        print(series.to_csv(), end="")
        assert len(series.records) == 8
        assert series.final_statistic_gap < 1e-2
        assert series.final_moment_gap < 1e-2
        assert series.converged
