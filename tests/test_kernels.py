"""Grid kernels: adjoints, contractions, glued integrals, file format, guards."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freechaos import (
    GridKernel,
    GridMismatchError,
    GroundSetMismatchError,
    SetPartition,
    SizeLimitError,
    add,
    adjoint,
    arc_contraction,
    diagram_integral,
    enumerate_nc,
    enumerate_partitions,
    inner,
    is_mirror_symmetric,
    kernel_from_dict,
    kernel_to_dict,
    load_kernel,
    meet_is_zero,
    norm2,
    save_kernel,
    scale,
    star_contraction,
    subtract,
    tamedness_report,
)
from freechaos import kernels
from freechaos.theorems import hyperdiagonal_family, perturbed_indicator_family

from conftest import naive_arc, naive_glued, naive_star, random_kernel, rel_close
from proof_structure import block_partition


def doubled_pair_indicator():
    # two unit cells at height 2: squared norm 8, cubed integral 16
    return GridKernel(1, 2, 1.0, np.array([2.0, 2.0]))


def test_adjoint_reverses_and_conjugates():
    f = random_kernel(2, 3, 1.0, 1, complex_values=True)
    g = adjoint(f)
    for i in range(3):
        for j in range(3):
            assert g.values[i, j] == np.conj(f.values[j, i])


def test_adjoint_arity_one_conjugates_only():
    f = GridKernel(1, 2, 1.0, np.array([1 + 2j, 3.0]))
    assert np.allclose(adjoint(f).values, np.array([1 - 2j, 3.0]))


@given(st.integers(min_value=0, max_value=1000))
def test_adjoint_is_an_involution(seed):
    f = random_kernel(3, 2, 0.5, seed, complex_values=True)
    assert np.array_equal(adjoint(adjoint(f)).values, f.values)


def test_is_mirror_symmetric():
    assert is_mirror_symmetric(GridKernel.indicator(4))
    f = random_kernel(2, 3, 1.0, 2)
    sym = scale(add(f, adjoint(f)), 0.5)
    assert is_mirror_symmetric(sym)
    asym = GridKernel(2, 2, 1.0, np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not is_mirror_symmetric(asym)
    # any real arity-1 kernel is its own mirror
    assert is_mirror_symmetric(random_kernel(1, 5, 0.3, 3))


def test_random_mirror_symmetric_is_symmetric_and_seeded():
    a = GridKernel.random_mirror_symmetric(3, 3, 0.5, 11)
    b = GridKernel.random_mirror_symmetric(3, 3, 0.5, 11)
    c = GridKernel.random_mirror_symmetric(3, 3, 0.5, 12)
    assert is_mirror_symmetric(a)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_arc_depth_zero_is_tensor_product():
    f = random_kernel(1, 3, 0.5, 4)
    g = random_kernel(2, 3, 0.5, 5)
    t = arc_contraction(f, g, 0)
    assert t.arity == 3
    assert rel_close(norm2(t), norm2(f) * norm2(g))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert t.values[i, j, k] == f.values[i] * g.values[j, k]


def test_arc_full_depth_on_indicator_gives_rate():
    f = GridKernel.indicator(8)
    assert complex(arc_contraction(f, f, 1).values) == 8.0


def test_arc_matches_naive_oracle():
    for q_f, q_g, k, seed in [(2, 2, 1, 6), (2, 2, 2, 7), (3, 2, 2, 8), (1, 3, 1, 9), (3, 3, 3, 10)]:
        f = random_kernel(q_f, 3, 0.7, seed, complex_values=True)
        g = random_kernel(q_g, 3, 0.7, seed + 100, complex_values=True)
        got = arc_contraction(f, g, k)
        want = naive_arc(f, g, k)
        assert got.arity == q_f + q_g - 2 * k
        assert np.max(np.abs(got.values - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_arc_orientation_pins_reversed_inner_indices():
    # with an asymmetric kernel the reversed pairing differs from the naive
    # unreversed one, so this test fails if the orientation flips
    f = GridKernel(2, 2, 1.0, np.array([[0.0, 2.0], [5.0, 0.0]]))
    g = GridKernel(2, 2, 1.0, np.array([[1.0, 3.0], [0.0, 4.0]]))
    got = complex(arc_contraction(f, g, 2).values)
    want = sum(
        complex(f.values[s2, s1]) * complex(g.values[s1, s2])
        for s1 in range(2)
        for s2 in range(2)
    )
    unreversed = sum(
        complex(f.values[s1, s2]) * complex(g.values[s1, s2])
        for s1 in range(2)
        for s2 in range(2)
    )
    assert got == want
    assert want != unreversed


def test_star_depth_one_at_arity_one_is_pointwise_product():
    f = random_kernel(1, 5, 0.5, 12)
    s = star_contraction(f, f, 1)
    assert s.arity == 1
    assert np.allclose(s.values, f.values * f.values)
    ind = GridKernel.indicator(4)
    assert np.allclose(star_contraction(ind, ind, 1).values, ind.values)


def test_star_chain_gives_cubed_integral():
    f = doubled_pair_indicator()
    cubed = arc_contraction(star_contraction(f, f, 1), f, 1)
    assert complex(cubed.values) == 16.0


def test_star_matches_naive_oracle():
    for q_f, q_g, k, seed in [(2, 2, 1, 13), (2, 2, 2, 14), (3, 2, 2, 15), (3, 3, 3, 16), (2, 3, 1, 17)]:
        f = random_kernel(q_f, 3, 0.7, seed, complex_values=True)
        g = random_kernel(q_g, 3, 0.7, seed + 100, complex_values=True)
        got = star_contraction(f, g, k)
        want = naive_star(f, g, k)
        assert got.arity == q_f + q_g - 2 * k + 1
        assert np.max(np.abs(got.values - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_star_orientation_shared_slot():
    # the identified variable must sit at output slot m-k, shared by both factors
    f = GridKernel(2, 2, 1.0, np.array([[1.0, 2.0], [3.0, 4.0]]))
    g = GridKernel(2, 2, 1.0, np.array([[10.0, 20.0], [30.0, 40.0]]))
    s = star_contraction(f, g, 2)  # one integrated pair plus the shared slot, arity 1
    want = naive_star(f, g, 2)
    assert np.allclose(s.values, want)


def einsum_arc(f, g, k):
    # f's last k arguments against g's first k, innermost with outermost
    m, n = f.arity, g.arity
    s = list(range(40, 40 + k))
    f_labels = list(range(m - k)) + s[::-1]
    g_labels = s + list(range(m - k, m + n - 2 * k))
    return np.einsum(f.values, f_labels, g.values, g_labels, list(range(m + n - 2 * k))) * f.cell_width**k


def einsum_star(f, g, k):
    # as the arc, but the innermost pair is one shared output variable at slot m-k
    m, n = f.arity, g.arity
    s = list(range(40, 40 + k - 1))
    f_labels = list(range(m - k + 1)) + s[::-1]
    g_labels = s + [m - k] + list(range(m - k + 1, m + n - 2 * k + 1))
    out = list(range(m + n - 2 * k + 1))
    return np.einsum(f.values, f_labels, g.values, g_labels, out) * f.cell_width ** (k - 1)


def test_contractions_match_einsum_reference_and_own_their_tables():
    rng = np.random.default_rng(41)
    for bins in (1, 2, 3):
        for width in (0.7, 1.0):
            for m in range(5):
                for n in range(5):
                    f, g = (
                        GridKernel(a, bins, width, rng.normal(size=(bins,) * a + (2,)) @ [1, 1j])
                        for a in (m, n)
                    )
                    cases = [(arc_contraction, einsum_arc, k) for k in range(min(m, n) + 1)]
                    cases += [(star_contraction, einsum_star, k) for k in range(1, min(m, n) + 1)]
                    for contract, reference, k in cases:
                        got, want = contract(f, g, k), reference(f, g, k)
                        assert got.values.shape == want.shape and got.values.dtype == np.complex128
                        assert np.max(np.abs(got.values - want), initial=0.0) <= 1e-13 * max(
                            1.0, np.max(np.abs(want), initial=0.0)
                        ), (contract.__name__, bins, width, m, n, k)
                        assert not got.values.flags.writeable
                        assert not np.shares_memory(got.values, f.values)
                        assert not np.shares_memory(got.values, g.values)


def test_library_tables_are_read_only_and_caller_arrays_are_copied():
    raw = np.array([[1.0, 2.0 + 1j], [3.0, 4.0]])
    f = GridKernel(2, 2, 0.5, raw)
    assert not np.shares_memory(f.values, raw) and raw.flags.writeable
    raw[0, 0] = 99.0
    assert f.values[0, 0] == 1.0
    scalar = GridKernel.constant(1j, 2, 0.5)
    for made in (add(f, f), scale(f, np.float32(2)), adjoint(f), subtract(f, f), adjoint(scalar)):
        assert made.values.dtype == np.complex128 and made.values.flags.c_contiguous
        assert not made.values.flags.writeable
        assert not np.shares_memory(made.values, f.values)
        with pytest.raises(ValueError):
            made.values[()] = 0.0


def test_contraction_refuses_oversize_output_before_allocating():
    f = random_kernel(3, 12, 1.0, 42)  # 12^6 = 2,985,984 entries at depth 0
    h = random_kernel(3, 16, 1.0, 43)  # 16^5 = 1,048,576 entries for a depth-1 star
    for contract, kern, k in ((arc_contraction, f, 0), (star_contraction, h, 1)):
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="cap is 1000000"):
                contract(kern, kern, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_constructors_refuse_oversize_tables_before_allocating():
    builds = (
        lambda: GridKernel.indicator(10**11),
        lambda: GridKernel.random_mirror_symmetric(2, 1001, 1.0, 0),
        lambda: GridKernel.zeros(2, 1001, 1.0),
        lambda: perturbed_indicator_family(10**11),
        lambda: hyperdiagonal_family(3).kernel_at(101),
    )
    for build in builds:
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="cap is 1000000"):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_contraction_depth_guards():
    f = random_kernel(2, 2, 1.0, 18)
    with pytest.raises(ValueError):
        arc_contraction(f, f, 3)
    with pytest.raises(ValueError):
        star_contraction(f, f, 0)
    with pytest.raises(GridMismatchError):
        arc_contraction(f, random_kernel(2, 3, 1.0, 18), 1)
    with pytest.raises(GridMismatchError):
        star_contraction(f, random_kernel(2, 2, 0.5, 18), 1)


def test_norm2_and_inner():
    f = GridKernel.indicator(8)
    assert norm2(f) == 8.0
    assert norm2(doubled_pair_indicator()) == 8.0
    assert norm2(GridKernel.zeros(2, 3, 1.0)) == 0.0
    g = random_kernel(2, 3, 0.7, 19, complex_values=True)
    h = random_kernel(2, 3, 0.7, 20, complex_values=True)
    assert rel_close(inner(g, h), np.conj(inner(h, g)))
    assert rel_close(inner(g, g), norm2(g))
    with pytest.raises(GridMismatchError):
        inner(g, random_kernel(1, 3, 0.7, 21))


@given(st.integers(min_value=0, max_value=1000))
@settings(max_examples=25)
def test_norm_is_multiplicative_over_tensor(seed):
    f = random_kernel(1, 3, 0.5, seed)
    g = random_kernel(2, 3, 0.5, seed + 1)
    assert rel_close(norm2(arc_contraction(f, g, 0)), norm2(f) * norm2(g))


def test_diagram_integral_pairing_equals_full_arc():
    f = random_kernel(2, 3, 0.6, 22, complex_values=True)
    sigma = SetPartition.from_blocks(4, [[1, 4], [2, 3]])
    got = diagram_integral(f, 2, sigma)
    via_arc = complex(arc_contraction(f, f, 2).values)
    assert rel_close(got, via_arc)
    assert rel_close(got, naive_glued(f, 2, sigma))


def test_diagram_integral_matches_naive_oracle():
    f = random_kernel(2, 3, 0.6, 23, complex_values=True)
    for sigma in enumerate_nc(4):
        assert rel_close(diagram_integral(f, 2, sigma), naive_glued(f, 2, sigma))
    g = random_kernel(1, 4, 0.6, 24, complex_values=True)
    for sigma in enumerate_nc(3):
        assert rel_close(diagram_integral(g, 3, sigma), naive_glued(g, 3, sigma))


def test_diagram_integral_indicator_powers():
    f = GridKernel.indicator(5)
    for blocks in [[[1, 2], [3, 4]], [[1, 2, 3, 4]], [[1, 4], [2, 3]]]:
        sigma = SetPartition.from_blocks(4, blocks)
        assert rel_close(diagram_integral(f, 4, sigma), 5.0 ** len(blocks))


def test_diagram_integral_absolute():
    f = GridKernel(1, 2, 1.0, np.array([-1.0, 1.0]))
    sigma = SetPartition.from_blocks(3, [[1, 2, 3]])
    assert rel_close(diagram_integral(f, 3, sigma), 0.0)
    assert rel_close(diagram_integral(GridKernel(1, 2, 1.0, np.abs(f.values)), 3, sigma), 2.0)


def test_diagram_integral_ground_set_check():
    f = random_kernel(2, 2, 1.0, 25)
    with pytest.raises(GroundSetMismatchError):
        diagram_integral(f, 3, SetPartition.from_blocks(4, [[1, 2], [3, 4]]))


@pytest.mark.parametrize(
    "blocks", [((1, 2), (2,)), ((1,),), ((0, 1),)], ids=["element twice", "element missing", "element outside"]
)
def test_diagram_integral_refuses_blocks_that_do_not_cover_the_ground_set_once(blocks):
    # SetPartition(...) does not validate, so the glued integral checks its own labels
    line = rf"^blocks {re.escape(repr(blocks))} do not cover \[2\] exactly once$"
    with pytest.raises(GroundSetMismatchError, match=line):
        diagram_integral(GridKernel.indicator(3), 2, SetPartition(2, blocks))


def test_tamedness_report_flags_growth():
    flat = [GridKernel.indicator(2) for _ in range(3)]
    rep = tamedness_report(flat, 2, threshold=4.1)
    assert rep.all_bounded
    assert all(meet_is_zero(sigma, block_partition(2, 1)) for sigma in rep.worst)
    growing = [scale(GridKernel.indicator(2), 2.0**n) for n in range(1, 4)]
    rep2 = tamedness_report(growing, 2, threshold=4.1)
    assert not rep2.all_bounded


def test_tamedness_peaks_match_naive_oracle():
    # the oracle scans every partition of [mq] and keeps the meet-zero ones
    for q, m, bins in [(1, 3, 3), (2, 2, 3), (2, 3, 2), (3, 2, 2)]:
        fs = [random_kernel(q, bins, 0.5, s) for s in (26, 27)]
        rep = tamedness_report(fs, m, threshold=100.0)
        pi = block_partition(m, q)
        kept = [p for p in enumerate_partitions(m * q) if meet_is_zero(p, pi)]
        for f, peak, sigma in zip(fs, rep.peaks, rep.worst):
            assert rel_close(peak, max(naive_glued(f, m, p, absolute=True).real for p in kept))
            assert rel_close(naive_glued(f, m, sigma, absolute=True).real, peak)
            assert meet_is_zero(sigma, pi)


def test_tamedness_hyperdiagonal_family_is_bounded():
    fam = hyperdiagonal_family(q=2)
    fs = [fam.kernel_at(n) for n in range(1, 5)]
    for m in (2, 3):
        rep = tamedness_report(fs, m, threshold=1.0 + 1e-12)
        assert rep.all_bounded
    assert "supplied kernels" in rep.scope


def test_tamedness_guard():
    with pytest.raises(SizeLimitError):
        tamedness_report([GridKernel.indicator(2)], 13, threshold=1.0)


def test_tamedness_guard_refuses_before_any_partition(monkeypatch):
    def boom(n, q, singletons, crossing, sink):
        raise AssertionError(f"built partitions of [{n}] past the guard")

    monkeypatch.setattr(kernels, "_staircase_blocks", boom)
    for q, m in [(1, 11), (2, 6)]:
        f = GridKernel.random_mirror_symmetric(q, 2, 1.0, 0)
        with pytest.raises(SizeLimitError, match=f"tamedness_report needs m\\*q <= 10, got {m * q}"):
            tamedness_report([f], m, threshold=1.0)


def test_table_size_guard():
    with pytest.raises(SizeLimitError):
        GridKernel.zeros(7, 10, 1.0)


def test_kernel_json_roundtrip(tmp_path):
    f = random_kernel(2, 3, 0.25, 28, complex_values=True)
    path = tmp_path / "k.json"
    save_kernel(f, str(path))
    g = load_kernel(str(path))
    assert g.arity == f.arity and g.bins == f.bins and g.cell_width == f.cell_width
    assert np.array_equal(g.values, f.values)


def test_kernel_dict_omits_zero_cells():
    f = GridKernel.indicator(4, cells=[1, 3])
    d = kernel_to_dict(f)
    assert d["q"] == 1 and d["bins"] == 4
    assert sorted(d["entries"]) == [[1, 1.0, 0.0], [3, 1.0, 0.0]]
    g = kernel_from_dict(d)
    assert np.array_equal(g.values, f.values)


def test_kernel_dict_validation():
    good = {"q": 1, "bins": 2, "cell_width": 1.0, "entries": [[0, 1.0, 0.0]]}
    kernel_from_dict(good)
    for bad in [
        {**good, "entries": [[0, 1.0]]},
        {**good, "entries": [[2, 1.0, 0.0]]},
        {**good, "entries": [[0, 1.0, 0.0], [0, 2.0, 0.0]]},
        {**good, "entries": [[0.5, 1.0, 0.0]]},
        {**good, "cell_width": 0.0},
        {**good, "bins": "2"},
        {"q": 1, "bins": 2, "entries": []},
    ]:
        with pytest.raises(ValueError):
            kernel_from_dict(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_grid_kernel_refuses_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        GridKernel(1, 2, 1.0, [1.0, bad])


def test_subtract_and_scale():
    f = GridKernel.indicator(3)
    z = subtract(f, f)
    assert norm2(z) == 0.0
    assert norm2(scale(f, 2.0)) == 4.0 * norm2(f)
