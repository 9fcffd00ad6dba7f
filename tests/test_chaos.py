"""Chaos algebra: product rules, moment engines, index sets, law oracles."""

import gc
import itertools
import math
import tracemalloc
import warnings
from types import ModuleType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freechaos import (
    ChaosElement,
    GridKernel,
    MirrorSymmetryError,
    SizeLimitError,
    add,
    adjoint,
    arc_contraction,
    SetPartition,
    catalan,
    diagram_integral,
    element_inner,
    free_poisson_moment,
    inner,
    is_mirror_symmetric,
    kernel_from_dict,
    kernel_to_dict,
    moment_diagram,
    moment_product,
    moment_report,
    moment_trace_formula,
    norm2,
    poisson_multiply,
    riordan,
    scale,
    semicircular_moment,
    star_contraction,
    trace,
    wigner_multiply,
)
import freechaos
from freechaos import chaos

from conftest import element_gap, random_kernel, rel_close
from proof_structure import admissible_tuples, chain, index_sets, power_expansion, words


def sym_kernel(q, bins, width, seed):
    return GridKernel.random_mirror_symmetric(q, bins, width, seed)


def hermitian_kernel(q, bins, width, seed):
    k = random_kernel(q, bins, width, seed, complex_values=True)
    return scale(add(k, adjoint(k)), 0.5)


def test_square_of_indicator_integral():
    f = GridKernel.indicator(4)
    x = ChaosElement.integral(f)
    sq = poisson_multiply(x, x)
    assert sorted(sq.terms) == [0, 1, 2]
    assert complex(sq.terms[0].values) == 4.0
    assert np.allclose(sq.terms[1].values, f.values)  # shared-variable term: f squared = f
    assert np.allclose(sq.terms[2].values, np.ones((4, 4)))
    wig = wigner_multiply(x, x)
    assert sorted(wig.terms) == [0, 2]


def test_scalar_terms_multiply_through():
    f = GridKernel.indicator(3)
    x = ChaosElement.integral(f)
    c = ChaosElement.from_scalar(2.5, 3, 1.0)
    scaled = poisson_multiply(c, x)
    assert sorted(scaled.terms) == [1]
    assert np.allclose(scaled.terms[1].values, 2.5 * f.values)
    assert trace(poisson_multiply(c, c)) == 6.25


def test_order_zero_is_an_ordinary_arity_zero_term():
    # a complex scalar through the product, the inner product, the mirror
    # check and the file form, none of which treats arity 0 apart
    f = hermitian_kernel(2, 3, 0.7, 8)
    x = ChaosElement.integral(f)
    c = 2.5 - 1.5j
    cx = ChaosElement.from_scalar(c, 3, 0.7)
    for mul in (poisson_multiply, wigner_multiply):
        for prod in (mul(cx, x), mul(x, cx)):
            assert sorted(prod.terms) == [2]
            assert np.max(np.abs(prod.terms[2].values - c * f.values)) <= 1e-15 * np.max(np.abs(c * f.values))
        assert abs(trace(mul(cx, cx)) - c * c) <= 1e-15 * abs(c * c)
    b = 0.5 + 2j
    assert abs(element_inner(cx, ChaosElement.from_scalar(b, 3, 0.7)) - c * np.conj(b)) <= 1e-15 * abs(c * b)
    assert is_mirror_symmetric(GridKernel.constant(2.0, 3, 0.7))
    assert not is_mirror_symmetric(GridKernel.constant(1j, 3, 0.7))
    d = kernel_to_dict(GridKernel.constant(c, 3, 0.7))
    assert d["q"] == 0 and d["entries"] == [[2.5, -1.5]]
    back = kernel_from_dict(d)
    assert back.arity == 0 and complex(back.values) == c


def test_product_associativity():
    f = sym_kernel(2, 3, 0.7, 31)
    x = ChaosElement.integral(f)
    left = poisson_multiply(poisson_multiply(x, x), x)
    right = poisson_multiply(x, poisson_multiply(x, x))
    assert element_gap(left, right) <= 1e-12
    wl = wigner_multiply(wigner_multiply(x, x), x)
    wr = wigner_multiply(x, wigner_multiply(x, x))
    assert element_gap(wl, wr) <= 1e-12


def test_trace_reads_order_zero():
    f = GridKernel.indicator(5)
    x = ChaosElement.integral(f)
    assert trace(x) == 0j
    assert trace(poisson_multiply(x, x)) == 5.0
    assert trace(ChaosElement.from_scalar(3 - 1j, 5, 1.0)) == 3 - 1j


def test_isometry_against_inner_product():
    f = sym_kernel(2, 3, 0.5, 32)
    g = random_kernel(2, 3, 0.5, 33, complex_values=True)
    prod = poisson_multiply(ChaosElement.integral(f), ChaosElement.integral(g))
    assert rel_close(trace(prod), inner(f, adjoint(g)))
    wig = wigner_multiply(ChaosElement.integral(f), ChaosElement.integral(g))
    assert rel_close(trace(wig), inner(f, adjoint(g)))


def test_orthogonality_of_distinct_orders():
    f = random_kernel(1, 3, 0.5, 34)
    g = random_kernel(2, 3, 0.5, 35)
    prod = poisson_multiply(ChaosElement.integral(f), ChaosElement.integral(g))
    assert trace(prod) == 0j


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=25)
def test_state_is_positive(seed):
    f = random_kernel(2, 2, 0.8, seed, complex_values=True)
    g = random_kernel(1, 2, 0.8, seed + 1, complex_values=True)
    x = ChaosElement(2, 0.8, {1: g, 2: f})
    for mul in (poisson_multiply, wigner_multiply):
        val = trace(mul(x, x.element_adjoint()))
        assert abs(val.imag) <= 1e-12 * max(1.0, abs(val))
        assert val.real >= -1e-12
        assert rel_close(val, element_inner(x, x))


def test_moment_product_witness_values():
    f = GridKernel(1, 2, 1.0, np.array([2.0, 2.0]))
    assert rel_close(moment_product(f, 2), 8.0)
    assert rel_close(moment_product(f, 3), 16.0)
    ind = GridKernel.indicator(8)
    assert rel_close(moment_product(ind, 2), 8.0)
    assert rel_close(moment_product(ind, 3), 8.0)
    assert rel_close(moment_product(ind, 4), 2 * 64.0 + 8.0)


def test_moment_product_rejects_asymmetric_kernels():
    asym = GridKernel(2, 2, 1.0, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(MirrorSymmetryError):
        moment_product(asym, 2)
    with pytest.raises(MirrorSymmetryError):
        moment_diagram(asym, 2)
    with pytest.raises(MirrorSymmetryError):
        moment_trace_formula(asym, 2)
    with pytest.raises(MirrorSymmetryError):
        power_expansion(asym, 2)


def test_moment_diagram_m2_is_rate():
    for q, seed in [(1, 36), (2, 37), (3, 38)]:
        f = sym_kernel(q, 3, 0.7, seed)
        assert rel_close(moment_diagram(f, 2), norm2(f), 1e-12)
        assert rel_close(moment_diagram(f, 2, "wigner"), norm2(f), 1e-12)


def test_moment_diagram_wigner_two_pairings():
    f = random_kernel(1, 4, 0.5, 39)
    lam = norm2(f)
    assert rel_close(moment_diagram(f, 4, "wigner"), 2 * lam * lam)


def test_moment_diagram_guard():
    with pytest.raises(SizeLimitError):
        moment_diagram(GridKernel.indicator(2), 17)


def test_engines_agree_on_random_kernels():
    for q, bins, seed in [(1, 4, 40), (2, 3, 41)]:
        f = sym_kernel(q, bins, 0.6, seed)
        for m in (2, 3, 4):
            a = moment_product(f, m)
            b = moment_diagram(f, m)
            c = moment_trace_formula(f, m)
            assert rel_close(a, b, 1e-11)
            assert rel_close(a, c, 1e-11)
        wa = moment_product(f, 4, "wigner")
        wb = moment_diagram(f, 4, "wigner")
        assert rel_close(wa, wb, 1e-11)


@given(
    st.sampled_from([2, 3]),
    st.sampled_from([2, 3]),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=8, deadline=None)
def test_engines_agree_on_complex_hermitian_kernels(q, bins, seed):
    f = hermitian_kernel(q, bins, 0.7, seed)
    # m runs over both parities, so the unequal half powers of odd m are covered
    for m in range(2, 10 // q + 1):
        a = moment_product(f, m)
        assert rel_close(a, moment_trace_formula(f, m), 1e-9)
        assert rel_close(a, moment_diagram(f, m), 1e-9)
        assert rel_close(moment_product(f, m, "wigner"), moment_diagram(f, m, "wigner"), 1e-9)


def test_engines_agree_at_the_first_moment():
    # a chaos integral of order q >= 1 is centred
    for q in (1, 2, 3):
        for f in (sym_kernel(q, 3, 0.7, 50 + q), hermitian_kernel(q, 3, 0.7, 60 + q)):
            assert moment_product(f, 1) == moment_diagram(f, 1) == moment_trace_formula(f, 1) == 0j
            assert moment_product(f, 1, "wigner") == moment_diagram(f, 1, "wigner") == 0j


def test_moment_product_reaches_past_the_full_power_table():
    # x^5 at q=2 on 4 bins would need a 4^10-entry table, past the 10^6 cap;
    # the half powers need 4^6
    f = sym_kernel(2, 4, 0.5, 55)
    a = moment_product(f, 5)
    assert rel_close(a, moment_trace_formula(f, 5), 1e-9)
    assert rel_close(a, moment_diagram(f, 5), 1e-9)


def test_moment_product_odd_m_builds_only_the_orders_it_reads():
    # x^5 at q=2 on 4 bins holds a 4^10-entry term past the 10^6 cap, but the
    # inner product with x^4 reads orders up to 8 only
    f = sym_kernel(2, 4, 0.5, 61)
    assert rel_close(moment_product(f, 9), moment_trace_formula(f, 9), 1e-9)


def test_moment_diagram_reaches_sixteen_legs():
    # (2, 8) and (4, 4) have mq = 16 legs, (2, 7) has 14
    for q, m, seed in [(2, 8, 62), (4, 4, 63), (2, 7, 64)]:
        for f in (sym_kernel(q, 2, 0.5, seed), hermitian_kernel(q, 2, 0.5, seed)):
            for measure in ("poisson", "wigner"):
                assert rel_close(moment_diagram(f, m, measure), moment_product(f, m, measure), 1e-9)
            assert rel_close(moment_diagram(f, m), moment_trace_formula(f, m), 1e-9)


def test_moment_diagram_matches_the_per_class_sum():
    # the old engine, one glued integral per class, survives as this oracle;
    # a mirror-symmetric kernel of arity 1 is real, so complex ones start at q = 2
    for q in range(1, 5):
        for m in range(1, 12 // q + 1):
            pairings, _, ge2 = chaos.nc0_classes(m, q)
            for width in (0.7, 1.0):
                kernels = [sym_kernel(q, 2, width, 10 * m + q)]
                if q > 1:
                    kernels.append(hermitian_kernel(q, 2, width, 10 * m + q))
                for f in kernels:
                    for measure, classes in (("poisson", ge2), ("wigner", pairings)):
                        want = sum((diagram_integral(f, m, sigma) for sigma in classes), 0j)
                        assert rel_close(moment_diagram(f, m, measure), want, 1e-12), (q, m, width, measure)


def test_components_are_classes_of_their_own_copies():
    for q in range(1, 5):
        classes = {k: set(chaos.nc0_classes(k, q)[2]) for k in range(1, 12 // q + 1)}
        for m in range(1, 12 // q + 1):
            for sigma in classes[m]:
                parts = chaos._components(sigma.blocks, q)
                if len(parts) == 1:
                    assert parts == [sigma.blocks]
                    continue
                assert sum(len(b) for blocks in parts for b in blocks) == m * q
                for blocks in parts:
                    k = sum(map(len, blocks)) // q
                    assert SetPartition(k * q, blocks) in classes[k]


def test_component_split_example():
    # copies {1,2} {3,4} {5,6} {7,8}: the outer arcs join copies 1 and 4, the
    # inner ones copies 2 and 3
    assert chaos._components(((1, 8), (2, 7), (3, 6), (4, 5)), 2) == [((1, 4), (2, 3))] * 2
    assert chaos._components(((1, 4, 5), (2, 3)), 1) == [((1, 2, 3),), ((1, 2),)]


def test_diagram_terms_cover_every_class_once():
    for q in range(1, 5):
        for m in range(1, 12 // q + 1):
            pairings, _, ge2 = chaos.nc0_classes(m, q)
            table = chaos._diagram_terms(m, q)
            assert sorted(table) == ["poisson", "wigner"]
            orbits = {}  # measure -> each class's term as (representative, flag) pairs
            for measure, classes in (("poisson", ge2), ("wigner", pairings)):
                reps, terms = table[measure]
                assert len(terms) == len(classes)
                assert len(set(reps)) == len(reps)
                assert all(r.n == sum(map(len, r.blocks)) for r in reps)
                # each class is the disjoint union of its components, relabelled,
                # and entry 2r + flag of its term is its component's orbit
                orbits[measure] = []
                for sigma, term in zip(classes, terms):
                    parts = chaos._components(sigma.blocks, q)
                    assert len(term) == len(parts)
                    pairs = [(reps[i // 2].blocks, i % 2 == 1) for i in term]
                    assert pairs == [chaos._orbit(blocks, q) for blocks in parts]
                    orbits[measure].append(pairs)
                # representatives are numbered by first use, and each one is used
                assert list(dict.fromkeys(i // 2 for term in terms for i in term)) == list(range(len(reps)))
                # equal terms are one object
                assert len({id(term) for term in terms}) == len(set(terms))
            assert orbits["wigner"] == [orbits["poisson"][ge2.index(sigma)] for sigma in pairings]
            if q == 1:
                sizes = {len(b) for sigma in ge2 for b in sigma.blocks}
                reps = table["poisson"][0]
                assert sorted(r.blocks for r in reps) == sorted((tuple(range(1, k + 1)),) for k in sizes)
                # a block is its own representative, never a conjugate
                assert all(i % 2 == 0 for _, terms in table.values() for term in terms for i in term)


def _dihedral_images(blocks, q):
    """Every rotation of a class of [kq] by a multiple of q, then every
    rotation of its reflection p -> kq + 1 - p, as canonical blocks."""
    n = sum(map(len, blocks))

    def turn(p, s):
        return (p - 1 + s) % n + 1

    def canonical(move):
        return tuple(sorted(tuple(sorted(move(p) for p in b)) for b in blocks))

    rotations = [canonical(lambda p, s=s: turn(p, s)) for s in range(0, n, q)]
    reflections = [canonical(lambda p, s=s: turn(n + 1 - p, s)) for s in range(0, n, q)]
    return rotations, reflections


def test_orbit_members_integrate_equal_under_rotation_and_conjugate_under_reflection():
    conjugate_pairs = 0
    for q in range(2, 5):
        for m in range(2, 12 // q + 1):
            table = chaos._diagram_terms(m, q)
            # the pairings are classes with blocks >= 2, so Poisson's
            # representatives hold Wigner's
            assert set(table["wigner"][0]) <= set(table["poisson"][0])
            for seed, rep in enumerate(sigma.blocks for sigma in table["poisson"][0]):
                k = sum(map(len, rep)) // q
                f = hermitian_kernel(q, 2, 0.7, 1000 * q + 10 * m + seed)
                want = diagram_integral(f, k, SetPartition(k * q, rep))
                rotations, reflections = _dihedral_images(rep, q)
                for image in rotations:
                    assert rel_close(diagram_integral(f, k, SetPartition(k * q, image)), want)
                for image in reflections:
                    got = diagram_integral(f, k, SetPartition(k * q, image))
                    assert rel_close(got, want.conjugate())
                    conjugate_pairs += abs(want.imag) > 1e-3 * abs(want)
                # the representative is the least member of its orbit, and
                # every member maps back to it, flagged when only a reflection
                # reaches it
                assert rep == min(rotations + reflections)
                for image in rotations:
                    assert chaos._orbit(image, q) == (rep, False)
                for image in set(reflections) - set(rotations):
                    assert chaos._orbit(image, q) == (rep, True)
    # the kernels tell a value from its conjugate
    assert conjugate_pairs > 0


def test_dihedral_orbit_counts():
    # distinct components -> orbits; at q = 1 each block size is its own orbit
    want = {(6, 2): (44, 12), (7, 2): (157, 22), (8, 2): (578, 61), (5, 3): (28, 7), (4, 4): (8, 5), (12, 1): (10, 10)}
    for (m, q), counts in want.items():
        components = {c for sigma in chaos.nc0_classes(m, q)[2] for c in chaos._components(sigma.blocks, q)}
        reps, _ = chaos._diagram_terms(m, q)["poisson"]
        assert (len(components), len(reps)) == counts, (m, q)


def _count_diagram_calls(monkeypatch) -> list:
    calls = []
    original = chaos.diagram_integral

    def counted(f, m, sigma):
        calls.append(sigma)
        return original(f, m, sigma)

    monkeypatch.setattr(chaos, "diagram_integral", counted)
    return calls


def test_moment_diagram_integrates_each_block_size_once_at_q1(monkeypatch):
    calls = _count_diagram_calls(monkeypatch)
    f = sym_kernel(1, 2, 0.7, 70)
    moment_diagram(f, 12)
    # 4,213 classes; no block has 11 elements, as it would leave a singleton
    assert sorted(sigma.n for sigma in calls) == [2, 3, 4, 5, 6, 7, 8, 9, 10, 12]


@pytest.mark.parametrize("m, q, poisson, wigner", [(6, 2, 12, 4), (7, 2, 22, 5), (5, 3, 7, 0), (4, 4, 5, 3)])
def test_moment_diagram_integrates_each_orbit_once(monkeypatch, m, q, poisson, wigner):
    calls = _count_diagram_calls(monkeypatch)
    f = hermitian_kernel(q, 2, 0.7, 71)
    table = chaos._diagram_terms(m, q)
    for measure, count in (("poisson", poisson), ("wigner", wigner)):
        calls.clear()
        moment_diagram(f, m, measure)
        # one call per representative of the measure's own table, in its order
        reps, _ = table[measure]
        assert (calls, len(reps)) == (list(reps), count), measure


def test_reflected_components_tolerate_the_mirror_check_gap():
    # the adjoint is off by about 1e-13 of the peak, which the mirror check
    # admits; flagged components are read as conjugates all the same
    rng = np.random.default_rng(72)
    for bins in (2, 3):
        f = hermitian_kernel(2, bins, 0.8, 72 + bins)
        peak = float(np.max(np.abs(f.values)))
        noise = rng.uniform(-1, 1, (bins, bins)) + 1j * rng.uniform(-1, 1, (bins, bins))
        g = GridKernel(2, bins, 0.8, f.values + 1e-13 * peak * noise)
        gap = float(np.max(np.abs(g.values - adjoint(g).values)))
        assert 0.5e-13 * peak < gap and is_mirror_symmetric(g)
        for m in range(2, 7):
            for measure in ("poisson", "wigner"):
                want = moment_product(g, m, measure)
                assert rel_close(moment_diagram(g, m, measure), want, 1e-9), (bins, m, measure)
            assert rel_close(moment_trace_formula(g, m), moment_product(g, m), 1e-9), (bins, m)


def test_index_sets_basic_families():
    s = index_sets(2, 1, (0,))
    assert s.admissible == ((0,), (1,))
    assert s.closed == ((1,),)
    s22 = index_sets(2, 2, (0,))
    assert s22.admissible == ((0,), (1,), (2,))
    assert s22.closed == ((2,),)
    s_one = index_sets(2, 2, (1,))
    assert all(r[0] >= 1 for r in s_one.admissible)


def test_index_sets_alignment_split():
    s = index_sets(2, 3, (1,))
    # closed tuples pair 2*r = 6+1, impossible; use m=3 instead
    assert s.closed == ()
    t = index_sets(3, 3, (1, 0))
    assert t.aligned_defined
    for r in t.aligned:
        assert all(v in (0, 2, 3) for v in r)
        for v, c in zip(r, t.word):
            assert (v == 2) == (c == 1)
    assert set(t.aligned) | set(t.remainder) == set(t.closed)
    assert not set(t.aligned) & set(t.remainder)


def test_index_sets_even_q_has_no_aligned_family():
    s = index_sets(3, 2, (0, 0))
    assert not s.aligned_defined
    assert s.aligned == ()
    assert s.remainder == s.closed


def test_index_sets_word_length_mismatch():
    with pytest.raises(ValueError):
        index_sets(3, 2, (0,))


def test_power_expansion_matches_iterated_product():
    for q, m, seed in [(1, 3, 42), (1, 4, 43), (2, 3, 44)]:
        f = sym_kernel(q, 3, 0.6, seed)
        direct = power_expansion(f, m)
        x = ChaosElement.integral(f)
        iterated = x
        for _ in range(m - 1):
            iterated = poisson_multiply(iterated, x)
        assert element_gap(direct, iterated) <= 1e-12


def test_power_expansion_chain_order_is_left_nested():
    # an asymmetric intermediate would change under any other nesting; the
    # expansion of a symmetric kernel still exercises it through mixed words
    f = sym_kernel(2, 3, 0.9, 45)
    two = poisson_multiply(ChaosElement.integral(f), ChaosElement.integral(f))
    three = poisson_multiply(two, ChaosElement.integral(f))
    assert element_gap(power_expansion(f, 3), three) <= 1e-12


def test_power_expansion_orders_lie_in_admissible_support():
    f = sym_kernel(2, 2, 0.8, 46)
    m, q = 3, 2
    reachable = set()
    for weight in range(m):
        for word in words(m, weight):
            for r in index_sets(m, q, word).admissible:
                reachable.add(m * q + weight - 2 * sum(r))
    assert set(power_expansion(f, m).terms) <= reachable


def test_admissible_tuples_match_exhaustive_filter():
    # the exhaustive scan the prefix growth replaced: depth r_p of step p must
    # cover the word letter and stay within the arity accumulated before it
    def exhaustive(m, q, word):
        for r in itertools.product(range(q + 1), repeat=m - 1):
            if all(
                word[p - 1] <= r[p - 1] <= p * q + sum(word[k - 1] - 2 * r[k - 1] for k in range(1, p))
                for p in range(1, m)
            ):
                yield r

    words = 0
    for q, top in [(1, 8), (2, 8), (3, 6), (4, 6)]:
        for m in range(2, top + 1):
            for word in itertools.product((0, 1), repeat=m - 1):
                assert list(admissible_tuples(m, q, word)) == list(exhaustive(m, q, word))
                words += 1
    assert words == 632


def test_trace_formula_m2_is_rate():
    for q, seed in [(1, 47), (2, 48), (3, 49)]:
        f = sym_kernel(q, 3, 0.7, seed)
        assert rel_close(moment_trace_formula(f, 2), norm2(f), 1e-12)


def test_trace_formula_indicator_fourth_moment():
    f = GridKernel.indicator(8)
    assert rel_close(moment_trace_formula(f, 4), 2 * 64.0 + 8.0)


def test_trace_tree_matches_exhaustive_closing_sum():
    # the exhaustive scan over words and closing depth tuples is the oracle
    # for the per-(step, arity) tables: a move wrongly judged inadmissible
    # drops terms, and one summed into the wrong arity adds false ones
    for q, ms in [(1, range(2, 10)), (2, range(2, 8)), (3, range(2, 6))]:
        f = hermitian_kernel(q, 3, 0.6, 50 + q)
        for m in ms:
            oracle = 0j
            for weight in range(m - 1):
                for word in words(m - 1, weight):
                    target = (m - 2) * q + weight
                    tuples = [r for r in admissible_tuples(m - 1, q, word) if 2 * sum(r) == target]
                    # a word whose weight has the wrong parity admits no closing tuple
                    if (weight - m * q) % 2:
                        assert tuples == []
                    for r in tuples:
                        oracle += complex(arc_contraction(chain(f, word, r), f, q).values)
            assert rel_close(moment_trace_formula(f, m), oracle, 1e-12)


def closing_table(f, a):
    # C_a: the table that the one last step from arity a and the closing arc fuse into
    q = f.arity
    if a % 2:
        return star_contraction(f, f, q - (a - 1) // 2)
    return arc_contraction(f, f, q - a // 2)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_closing_step_fuses_into_one_arc(q):
    # a chain X of arity a one step from its leaf has one last step, depth
    # ceil(a/2) with letter a mod 2; that step and the closing arc make the
    # single arc of X against C_a (a = 0, the scalar chain, included)
    for width in (0.7, 1.0):
        for f in (sym_kernel(q, 3, width, 60 + q), hermitian_kernel(q, 3, width, 70 + q)):
            for a in range(2 * q + 1):
                x = random_kernel(a, 3, width, 80 + a, complex_values=True)
                step = (star_contraction if a % 2 else arc_contraction)(x, f, (a + 1) // 2)
                fused = complex(arc_contraction(x, closing_table(f, a), a).values)
                assert rel_close(complex(arc_contraction(step, f, q).values), fused, 1e-12), (q, width, a)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_two_steps_and_the_closing_fuse_into_one_arc(q):
    # a chain X of arity a two steps from its leaf (a <= 3q, the most that can
    # still close there): each admissible step (letter, depth k) to arity a'
    # and the closing make the single arc of X against one row P, built from C_a'
    for width in (0.7, 1.0):
        for f in (sym_kernel(q, 3, width, 60 + q), hermitian_kernel(q, 3, width, 70 + q)):
            for a in range(3 * q + 1):
                x = random_kernel(a, 3, width, 80 + a, complex_values=True)
                steps = [(letter, k) for letter in (0, 1) for k in range(letter, min(q, a) + 1)
                         if abs(a + letter - 2 * k) <= q]
                assert steps
                for letter, k in steps:
                    step = (star_contraction if letter else arc_contraction)(x, f, k)
                    closing = closing_table(f, step.arity)
                    row = star_contraction(f, closing, q - k + 1) if letter else arc_contraction(f, closing, q - k)
                    closed = complex(arc_contraction(step, closing, step.arity).values)
                    fused = complex(arc_contraction(x, row, a).values)
                    assert rel_close(closed, fused, 1e-12), (q, width, a, letter, k)


def test_trace_walk_refuses_an_oversize_chain_before_allocating():
    # at m = 4 the depth-0 arc of f with itself would hold 11^6 entries; the
    # plan checks every output arity before the first table is built
    f = sym_kernel(3, 11, 1.0, 90)
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError) as err:
            moment_trace_formula(f, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == "table would hold 1771561 entries, cap is 1000000"
    assert peak < 1 << 20


@pytest.mark.parametrize("q, m, bins", [(4, 9, 2), (3, 12, 2), (2, 12, 2), (1, 16, 4)])
def test_trace_engine_reaches_high_orders(q, m, bins):
    # one table per (step, arity) keeps the work polynomial in m; a walk over
    # every chain prefix grows about 6x per order at q = 3
    f = hermitian_kernel(q, bins, 0.6, 10 * q + m)
    assert rel_close(moment_trace_formula(f, m), moment_product(f, m), 1e-9)


def test_trace_engine_makes_one_contraction_per_move(monkeypatch):
    # one core call per (step, arity, letter, depth) and one for the closing,
    # not one per chain prefix (8,824 at m = 10)
    calls = []
    for name in ("_arc_table", "_star_table"):
        core = getattr(chaos, name)
        monkeypatch.setattr(chaos, name, lambda *args, core=core: calls.append(1) or core(*args))
    moment_trace_formula(sym_kernel(2, 2, 0.6, 91), 12)
    assert 0 < len(calls) < 1000


def test_trace_engine_leaves_nothing_behind_for_the_cyclic_collector():
    # no table of the call may stay alive in a reference cycle once it
    # returns; the first call fills the interpreter's free lists with traced
    # objects, so the second one is measured against a steady state
    f = sym_kernel(3, 4, 0.6, 92)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        moment_trace_formula(f, 6)
        before, _ = tracemalloc.get_traced_memory()
        moment_trace_formula(f, 6)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert after - before <= 0.1 * 2**20


def test_free_poisson_moment_values():
    assert free_poisson_moment(8.0, 3) == 8.0
    assert free_poisson_moment(1.0, 1) == 0.0
    for lam in (0.5, 1.0, 4.0):
        assert rel_close(free_poisson_moment(lam, 2), lam)
        assert rel_close(free_poisson_moment(lam, 4), 2 * lam**2 + lam)
        assert rel_close(free_poisson_moment(lam, 5), 5 * lam**2 + lam)
    with pytest.raises(ValueError):
        free_poisson_moment(0.0, 2)
    with pytest.raises(SizeLimitError):
        free_poisson_moment(1.0, 17)


@pytest.mark.parametrize("oracle", [free_poisson_moment, semicircular_moment])
def test_law_oracles_refuse_a_float_power_past_the_float_range(oracle):
    # 1e200**2 overflows a Python float power
    with pytest.raises(ValueError, match=r"^outside the float range: 1e\+200\*\*2$"):
        oracle(1e200, 4)


@pytest.mark.parametrize("oracle", [free_poisson_moment, semicircular_moment])
def test_law_oracles_refuse_a_sum_past_the_float_range(oracle):
    # 1.2e154**2 fits a float, twice that does not
    line = rf"^outside the float range: {oracle.__name__}\(1\.2e\+154, 4\) = inf$"
    with pytest.raises(ValueError, match=line):
        oracle(1.2e154, 4)


def test_semicircular_moment_refuses_a_catalan_number_past_the_float_range():
    # catalan(600) ~ 1e357 is past the float range, and so is the moment at unit variance
    with pytest.raises(ValueError, match=r"^outside the float range: semicircular_moment\(1\.0, 1200\) = inf$"):
        semicircular_moment(1.0, 1200)
    # at variance 1/4 the power underflows, but the moment catalan(600) / 4**600 is in range
    log_moment = math.lgamma(1201) - 2 * math.lgamma(601) - math.log(601) - 600 * math.log(4)
    assert semicircular_moment(0.25, 1200) == pytest.approx(math.exp(log_moment), rel=1e-9)


@pytest.mark.parametrize("engine", [moment_diagram, moment_product, moment_trace_formula])
def test_engines_refuse_a_moment_past_the_float_range(engine):
    # on one cell 1.2e154 wide the fourth moment, 2*lambda**2 + lambda, is past the float range
    # and it is the engine's own error, not a numpy warning on the way there
    line = rf"^outside the float range: {engine.__name__}\(m=4\) = inf$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=line):
            engine(GridKernel.indicator(1, 1.2e154), 4)


def test_free_poisson_moments_match_riordan_totals_at_unit_rate():
    for m in range(2, 9):
        assert rel_close(free_poisson_moment(1.0, m), riordan(m).total)


def test_semicircular_moment_values():
    assert semicircular_moment(1.0, 1) == 0.0
    assert semicircular_moment(1.0, 3) == 0.0
    assert semicircular_moment(1.0, 2) == 1.0
    assert semicircular_moment(1.0, 4) == 2.0
    assert semicircular_moment(1.0, 6) == 5.0
    assert semicircular_moment(2.0, 4) == 2 * 4.0
    for k in range(1, 6):
        assert semicircular_moment(1.0, 2 * k) == catalan(k)


def test_indicator_moments_match_oracles_both_measures():
    f = GridKernel.indicator(3)
    lam = norm2(f)
    for m in range(1, 9):
        assert rel_close(moment_diagram(f, m).real, free_poisson_moment(lam, m), 1e-12)
    for m in range(1, 9):
        assert rel_close(moment_diagram(f, m, "wigner").real, semicircular_moment(lam, m), 1e-12)


def test_moment_report_fields():
    rep = moment_report(GridKernel.indicator(8), 3, "diagram")
    d = rep.to_dict()
    assert d["value_re"] == 8.0 and d["oracle"] == 8.0 and d["delta"] == 0.0
    assert d["method"] == "diagram" and d["lambda"] == 8.0
    with pytest.raises(ValueError):
        moment_report(GridKernel.indicator(2), 2, "nonsense")
    with pytest.raises(ValueError):
        moment_report(GridKernel.indicator(2), 2, "trace", "wigner")


def test_moment_report_checks_the_oracle_order_before_any_engine(monkeypatch):
    def boom(*args):
        raise AssertionError("an engine ran for an order the oracle refuses")

    for engine in ("moment_product", "moment_diagram", "moment_trace_formula"):
        monkeypatch.setattr(chaos, engine, boom)
    f = GridKernel.indicator(2)
    for method in ("product", "diagram", "trace"):
        with pytest.raises(SizeLimitError, match="free_poisson_moment needs 1 <= m <= 16, got 17"):
            moment_report(f, 17, method)
    with pytest.raises(ValueError, match="method must be"):
        moment_report(f, 17, "nonsense")


def test_moment_report_names_the_engines_of_the_measure():
    f = GridKernel.indicator(2)
    message = "^method must be one of product, diagram for the wigner measure, got 'trace'$"
    with pytest.raises(ValueError, match=message):
        moment_report(f, 2, "trace", "wigner")


def test_star_import_exports_no_submodules():
    assert not [name for name in freechaos.__all__ if isinstance(getattr(freechaos, name), ModuleType)]
    assert freechaos.__all__ == sorted(
        """
        ChaosElement ConvergenceSeries GridKernel GridMismatchError GroundSetMismatchError
        IdentityMismatchError IdentityReport IndicatorReport KernelFamily MirrorSymmetryError
        MomentReport RiordanTable SetPartition SizeLimitError StepRecord TamednessReport
        TransferReport TransferRow add adjoint arc_contraction bell catalan
        convergence_experiment diagram_integral element_inner enumerate_nc enumerate_partitions
        fourth_moment_identity fourth_moment_statistic free_poisson_moment hyperdiagonal_family
        identity_terms indicator_characterization indicator_family inner
        is_mirror_symmetric kernel_from_dict kernel_to_dict load_kernel meet_is_zero
        moment_diagram moment_product moment_report moment_trace_formula nc0_classes
        norm2 perturbed_indicator_family poisson_multiply riordan
        save_kernel scale semicircular_moment star_contraction subtract tamedness_report trace
        transfer_experiment wigner_multiply
        """.split()
    )
