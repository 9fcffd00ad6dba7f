"""Fourth-moment statistic, norm decomposition, indicator test, experiments."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freechaos import (
    GridKernel,
    IdentityMismatchError,
    IdentityReport,
    IndicatorReport,
    MirrorSymmetryError,
    MomentReport,
    SizeLimitError,
    TransferReport,
    TransferRow,
    convergence_experiment,
    fourth_moment_identity,
    fourth_moment_statistic,
    hyperdiagonal_family,
    identity_terms,
    indicator_characterization,
    indicator_family,
    moment_diagram,
    moment_trace_formula,
    norm2,
    perturbed_indicator_family,
    transfer_experiment,
)
from freechaos import theorems

from conftest import rel_close


def test_statistic_indicator_values():
    for bins in (1, 4, 8):
        f = GridKernel.indicator(bins)
        lam = float(bins)
        assert rel_close(fourth_moment_statistic(f), 2 * lam * lam - lam)


def test_statistic_wigner_indicator():
    f = GridKernel.indicator(1)
    # even moments 2*lam^2 and 0 at order 3, so the statistic is 2
    assert rel_close(fourth_moment_statistic(f, "wigner"), 2.0)


def test_identity_indicator_all_terms_vanish():
    for bins in (1, 4, 8):
        rep = fourth_moment_identity(GridKernel.indicator(bins))
        lam = float(bins)
        assert rel_close(rep.lhs, 2 * lam * lam)
        assert rep.terms == {"star_1_minus_f": pytest.approx(0.0, abs=1e-15)}
        assert abs(rep.delta) <= 1e-12 * max(1.0, rep.lhs)


def test_identity_doubled_indicator_residual():
    # f = 2 on a single unit cell: star_1(f, f) - f = 2 on that cell
    f = GridKernel(1, 1, 1.0, np.array([2.0]))
    rep = fourth_moment_identity(f)
    assert rel_close(rep.lam, 4.0)
    assert rel_close(rep.terms["star_1_minus_f"], 4.0)
    assert rel_close(rep.rhs, 2 * 16.0 + 4.0)


def test_identity_term_labels_by_parity():
    f3 = GridKernel.random_mirror_symmetric(3, 2, 0.9, 50)
    assert set(identity_terms(f3)) == {"star_2_minus_f", "arc_1", "arc_2", "star_1", "star_3"}
    f2 = GridKernel.random_mirror_symmetric(2, 2, 0.9, 51)
    assert set(identity_terms(f2)) == {"arc_1_minus_f", "star_1", "star_2"}
    f4 = GridKernel.random_mirror_symmetric(4, 2, 0.9, 52)
    assert set(identity_terms(f4)) == {
        "arc_2_minus_f", "arc_1", "arc_3", "star_1", "star_2", "star_3", "star_4"
    }


def test_identity_random_kernels_both_parities():
    for q, bins, seeds in [(1, 5, range(60, 64)), (2, 3, range(64, 68)), (3, 2, range(68, 72))]:
        for seed in seeds:
            f = GridKernel.random_mirror_symmetric(q, bins, 0.8, seed)
            rep = fourth_moment_identity(f)
            assert all(v >= -1e-15 for v in rep.terms.values())
            assert abs(rep.delta) <= 1e-9 * max(1.0, abs(rep.lhs))


def test_identity_reaches_past_the_full_power_table():
    # x^4 at q=2 on 6 bins would need a 6^8-entry table, past the 10^6 cap;
    # the product engine's half powers need 6^4
    f = GridKernel.random_mirror_symmetric(2, 6, 0.5, 72)
    rep = fourth_moment_identity(f)
    for engine in (moment_trace_formula, moment_diagram):
        lhs = (engine(f, 4) - 2 * engine(f, 3)).real + rep.lam
        assert rel_close(rep.lhs, lhs, 1e-9)


@given(
    q=st.integers(2, 4),
    bins=st.integers(1, 3),
    width=st.sampled_from([0.3, 0.8, 1.0, 2.5]),
    complex_values=st.booleans(),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_no_free_poisson_element_in_a_chaos_of_order_two_or_more(q, bins, width, complex_values, seed):
    # Paper result (ii). star_q(f, f)(x) integrates |f|^2 over every argument
    # but the shared one, so its integral is lambda, and by Cauchy-Schwarz on
    # [0, bins*width) its squared norm is at least lambda^2 / (bins*width).
    # Then m4 - 2*m3 + lam - 2*lam^2, which is 0 for the free Poisson law of
    # rate lam, is positive.
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, (bins,) * q).astype(np.complex128)
    if complex_values:
        raw = raw + 1j * rng.uniform(-1.0, 1.0, (bins,) * q)
    adj = np.conj(np.transpose(raw, tuple(reversed(range(q)))))
    f = GridKernel(q, bins, width, (raw + adj) / 2)
    report = fourth_moment_identity(f)
    lam = report.lam
    bound = lam**2 / (bins * width)
    assert report.terms[f"star_{q}"] >= (1 - 1e-12) * bound
    assert report.lhs - 2 * lam**2 >= (1 - 1e-9) * bound


def test_identity_rejects_bad_kernels():
    asym = GridKernel(2, 2, 1.0, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(MirrorSymmetryError):
        fourth_moment_identity(asym)
    with pytest.raises(ValueError):
        fourth_moment_identity(GridKernel.zeros(1, 3, 1.0))


def test_identity_report_dict_shape():
    d = fourth_moment_identity(GridKernel.indicator(2)).to_dict()
    assert set(d) == {"q", "lambda", "lhs", "rhs", "delta", "terms"}
    assert d["q"] == 1 and d["lambda"] == 2.0


@pytest.mark.parametrize(
    "report, key",
    [
        (MomentReport(1, 4, 1.0, "diagram", complex(math.inf, 0.0), 3.0), "value_re = inf"),
        (IdentityReport(1, 1.0, 3.0, 3.0, {"star_1_minus_f": math.nan}), "star_1_minus_f = nan"),
        (IndicatorReport(True, 1.0, (0.0, math.inf), (0.0, 1.0), 0.0, True), "moments = inf"),
        (TransferReport(1, 1.0, (TransferRow(4, math.inf, 3.0, 3.0, 3.0),)), "poisson = inf"),
    ],
    ids=["complex", "dict", "tuple", "nested"],
)
def test_reports_refuse_non_finite_numbers(report, key):
    with pytest.raises(ValueError, match=f"^outside the float range: {key}$"):
        report.to_dict()


def test_identity_refuses_a_non_finite_side(monkeypatch):
    # the fourth moment of one cell 1.2e154 wide overflows, which the engine refuses
    with pytest.raises(ValueError, match=r"^outside the float range: moment_product\(m=4\) = inf$"):
        fourth_moment_identity(GridKernel.indicator(1, 1.2e154))
    # a NaN side would pass a tolerance test written as `abs(delta) > tol`
    monkeypatch.setattr(theorems, "identity_terms", lambda f: {"arc_1": math.nan})
    with pytest.raises(ValueError, match="^outside the float range: rhs = nan$"):
        fourth_moment_identity(GridKernel.indicator(2))
    # finite moments whose combination m4 - 2*m3 + lambda is not
    monkeypatch.setattr(theorems, "moment_product", lambda f, m: complex(1.5e308 if m == 4 else -1e308))
    with pytest.raises(ValueError, match="^outside the float range: lhs = inf$"):
        fourth_moment_identity(GridKernel.indicator(2))


def test_indicator_report_dict_shape():
    d = indicator_characterization(GridKernel.indicator(2)).to_dict()
    assert list(d) == ["is_indicator", "lambda", "moments", "oracle", "max_gap", "moments_match"]
    assert type(d["moments"]) is list and type(d["oracle"]) is list and len(d["moments"]) == 6
    assert d["lambda"] == 2.0 and d["is_indicator"] is True
    assert json.dumps(d)


@pytest.mark.parametrize(
    "q, keys",
    [
        (1, ["star_1_minus_f"]),
        (2, ["arc_1_minus_f", "star_1", "star_2"]),
        (3, ["star_2_minus_f", "arc_1", "arc_2", "star_1", "star_3"]),
        (4, ["arc_2_minus_f", "arc_1", "arc_3", "star_1", "star_2", "star_3", "star_4"]),
    ],
)
def test_identity_terms_key_order(q, keys):
    # the CSV columns of identity and converge follow this order
    assert list(identity_terms(GridKernel.random_mirror_symmetric(q, 2, 1.0, q))) == keys


def test_indicator_characterization_accepts_indicator():
    rep = indicator_characterization(GridKernel.indicator(5, cells=[0, 2, 3]))
    assert rep.is_indicator and rep.moments_match
    assert rel_close(rep.lam, 3.0)
    assert rep.max_gap <= 1e-9


def test_indicator_characterization_rejects_doubled_kernel():
    f = GridKernel(1, 1, 1.0, np.array([2.0]))
    rep = indicator_characterization(f)
    assert not rep.is_indicator and not rep.moments_match
    # third moment is 8, the rate-4 oracle gives 4
    assert rel_close(rep.moments[2], 8.0)
    assert rel_close(rep.oracle[2], 4.0)
    assert rep.max_gap > 1e-6


def test_indicator_characterization_rejects_half_height():
    f = GridKernel(1, 2, 1.0, np.array([0.5, 0.5]))
    rep = indicator_characterization(f)
    assert not rep.is_indicator and not rep.moments_match
    assert rep.max_gap > 1e-6


def test_indicator_characterization_verdicts_agree_on_random_kernels():
    rng = np.random.default_rng(7)
    for _ in range(6):
        vals = rng.uniform(0.2, 1.8, size=4)
        rep = indicator_characterization(GridKernel(1, 4, 1.0, vals.astype(np.complex128)))
        assert rep.is_indicator == rep.moments_match


def test_indicator_characterization_input_checks():
    with pytest.raises(ValueError):
        indicator_characterization(GridKernel(2, 2, 1.0, np.ones((2, 2))))
    with pytest.raises(ValueError):
        indicator_characterization(GridKernel(1, 2, 1.0, np.array([1j, 0.0])))


def test_indicator_family_is_constant():
    fam = indicator_family(4, cells=[1, 3])
    assert fam.label == "indicator"
    assert np.array_equal(fam.kernel_at(1).values, fam.kernel_at(9).values)


def test_perturbed_family_shrinks_towards_indicator():
    fam = perturbed_indicator_family(bins=4, eps0=0.5, rho=0.5, seed=0)
    base = np.ones(4)
    gap1 = float(np.max(np.abs(fam.kernel_at(1).values - base)))
    gap6 = float(np.max(np.abs(fam.kernel_at(6).values - base)))
    assert gap6 < gap1 / 16
    # the perturbation integrates to zero, so the rate matches at first order
    f = fam.kernel_at(3)
    assert abs(float(np.sum(f.values.real - 1.0))) <= 1e-12


def test_hyperdiagonal_family_shape():
    fam = hyperdiagonal_family(q=2, spread=1.0, height=3.0)
    f = fam.kernel_at(4)
    assert f.bins == 4 and f.cell_width == 0.25
    assert f.values[1, 1] == 3.0 and f.values[0, 1] == 0.0
    assert rel_close(norm2(f), 9.0 / 4.0)
    with pytest.raises(ValueError):
        hyperdiagonal_family(q=0)
    with pytest.raises(ValueError):
        fam.kernel_at(0)


def test_convergence_indicator_family_is_exact():
    series = convergence_experiment(indicator_family(5), 3)
    assert series.q == 1 and series.converged
    assert series.final_statistic_gap == 0.0
    assert series.final_moment_gap == 0.0
    for rec in series.records:
        assert rec.lam == 5.0
        assert rel_close(rec.statistic, 45.0)


def test_convergence_perturbed_family_meets_threshold():
    series = convergence_experiment(perturbed_indicator_family(), 8)
    assert series.converged
    assert series.final_statistic_gap < 1e-2
    assert series.final_moment_gap < 1e-2
    deltas = [abs(r.delta) for r in series.records]
    assert deltas[-1] < deltas[0]


def test_convergence_hyperdiagonal_gaps_shrink():
    series = convergence_experiment(hyperdiagonal_family(q=2), 5)
    assert series.q == 2
    assert abs(series.records[-1].delta) < abs(series.records[0].delta)
    assert series.records[-1].moment_gap < series.records[0].moment_gap
    # five refinement steps are not yet below the default threshold
    assert not series.converged


def test_convergence_series_serialization():
    series = convergence_experiment(indicator_family(2), 2)
    d = series.to_dict()
    assert d["family"] == "indicator" and len(d["records"]) == 2
    assert json.dumps(d, sort_keys=True)  # payload is json-serializable
    csv_text = series.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("step,lambda,statistic,target,delta")
    assert len(lines) == 3
    assert series.to_csv() == csv_text


def test_convergence_input_checks():
    with pytest.raises(ValueError):
        convergence_experiment(indicator_family(2), 0)
    with pytest.raises(ValueError):
        convergence_experiment(indicator_family(2), 1, moment_order=0)


def test_perturbed_family_refuses_a_float_power_past_the_float_range():
    family = perturbed_indicator_family(rho=1e200)
    family.kernel_at(1)
    with pytest.raises(ValueError, match=r"^outside the float range: 1e\+200\*\*2$"):
        family.kernel_at(2)


def test_experiments_check_the_oracle_order_before_the_diagram_engine(monkeypatch):
    def boom(*args):
        raise AssertionError("the diagram engine ran for an order the oracle refuses")

    monkeypatch.setattr(theorems, "moment_diagram", boom)
    refused = "free_poisson_moment needs 1 <= m <= 16, got 17"
    with pytest.raises(SizeLimitError, match=refused):
        transfer_experiment(GridKernel.indicator(2), 17)
    with pytest.raises(SizeLimitError, match=refused):
        convergence_experiment(indicator_family(2), 2, moment_order=17)


def test_convergence_runs_the_diagram_engine_once_per_order(monkeypatch):
    calls = []

    def counted(f, m, *args):
        calls.append(m)
        return moment_diagram(f, m, *args)

    monkeypatch.setattr(theorems, "moment_diagram", counted)
    family = perturbed_indicator_family()
    for order, per_step in [(5, [4, 3, 1, 2, 5]), (2, [4, 3, 1, 2])]:
        calls.clear()
        series = convergence_experiment(family, 3, moment_order=order)
        assert calls == per_step * 3
        # the statistic comes from the same moments, and is the same float
        statistics = [fourth_moment_statistic(family.kernel_at(n)) for n in (1, 2, 3)]
        assert [r.statistic for r in series.records] == statistics


def test_transfer_unit_rate_rows():
    rep = transfer_experiment(GridKernel.indicator(1), 6)
    assert rep.q == 1 and rep.lam == 1.0
    poisson = tuple(r.poisson for r in rep.rows)
    wigner = tuple(r.wigner for r in rep.rows)
    assert np.allclose(poisson, (0, 1, 1, 3, 6, 15), atol=1e-12)
    assert np.allclose(wigner, (0, 1, 0, 2, 0, 5), atol=1e-12)
    for r in rep.rows:
        assert r.poisson_gap <= 1e-12 and r.wigner_gap <= 1e-12


def test_transfer_rows_match_oracles_at_other_rates():
    rep = transfer_experiment(GridKernel.indicator(4), 5)
    for r in rep.rows:
        assert r.poisson_gap <= 1e-9 * max(1.0, abs(r.poisson_oracle))
        assert r.wigner_gap <= 1e-9 * max(1.0, abs(r.wigner_oracle))


def test_transfer_serialization():
    rep = transfer_experiment(GridKernel.indicator(2), 3)
    d = rep.to_dict()
    assert d["lambda"] == 2.0 and len(d["rows"]) == 3
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "m,poisson,wigner,poisson_oracle,wigner_oracle,poisson_gap,wigner_gap"
    assert len(lines) == 4


def test_transfer_input_checks():
    with pytest.raises(ValueError):
        transfer_experiment(GridKernel.indicator(2), 0)
    with pytest.raises(ValueError):
        transfer_experiment(GridKernel.zeros(1, 2, 1.0), 3)


def test_statistic_rejects_complex_statistic():
    # a kernel engineered to give a complex diagram moment never reaches the
    # statistic because the engines demand mirror symmetry upstream
    asym = GridKernel(1, 2, 1.0, np.array([1j, 0.0]))
    with pytest.raises((MirrorSymmetryError, IdentityMismatchError)):
        fourth_moment_statistic(asym)
