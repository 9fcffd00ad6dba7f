"""Partition enumeration, non-crossing filters, diagram classes, block-count tables."""

import functools
import gc
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from freechaos import (
    GridKernel,
    GroundSetMismatchError,
    SetPartition,
    SizeLimitError,
    bell,
    catalan,
    convergence_experiment,
    enumerate_nc,
    enumerate_partitions,
    free_poisson_moment,
    indicator_family,
    meet_is_zero,
    moment_diagram,
    nc0_classes,
    riordan,
    tamedness_report,
)
from freechaos import chaos, kernels, partitions, theorems

from conftest import growth_string_partitions, is_noncrossing
from proof_structure import block_partition, intersection_split


def test_enumerate_partitions_small_counts():
    assert len(enumerate_partitions(1)) == 1
    assert len(enumerate_partitions(3)) == 5
    assert len(enumerate_partitions(4)) == 15


@given(st.integers(min_value=1, max_value=8))
def test_enumerate_partitions_bell_counts(n):
    assert len(enumerate_partitions(n)) == bell(n)


@given(st.integers(min_value=1, max_value=7))
def test_partitions_are_canonical_and_cover(n):
    parts = enumerate_partitions(n)
    assert len(set(parts)) == len(parts)
    for p in parts:
        p.validate()
        mins = [b[0] for b in p.blocks]
        assert mins == sorted(mins)
        assert all(list(b) == sorted(b) for b in p.blocks)


def test_enumerate_partitions_guards():
    with pytest.raises(ValueError, match="^enumerate_partitions needs 1 <= n <= 12, got 0$"):
        enumerate_partitions(0)
    with pytest.raises(SizeLimitError):
        enumerate_partitions(13)


def meet_zero_count(m: int, q: int) -> int:
    # partitions of [mq] into k blocks meeting the block partition in zero:
    # inclusion-exclusion over the blocks left empty by m injective runs
    return sum(
        sum((-1) ** (k - j) * math.comb(k, j) * math.perm(j, q) ** m for j in range(k + 1))
        // math.factorial(k)
        for k in range(m * q + 1)
    )


def crossing_staircase(m: int, q: int) -> list[tuple[tuple[int, ...], ...]]:
    grown: list[tuple[tuple[int, ...], ...]] = []
    partitions._staircase_blocks(m * q, q, singletons=True, crossing=True, sink=grown.append)
    return grown


def test_crossing_staircase_matches_filtered_enumeration():
    for n in range(1, 11):
        everything = enumerate_partitions(n)
        for q in (q for q in range(1, n + 1) if n % q == 0):
            m = n // q
            pi = block_partition(m, q)
            filtered = [p.blocks for p in everything if meet_is_zero(p, pi)]
            grown = crossing_staircase(m, q)
            assert grown == filtered, (m, q)
            assert len(grown) == meet_zero_count(m, q), (m, q)


def test_enumerate_partitions_match_the_growth_string_oracle():
    for n in range(1, 10):
        parts = enumerate_partitions(n)
        assert len(parts) == bell(n) and set(parts) == growth_string_partitions(n), n


def test_crossing_staircase_matches_the_growth_string_oracle():
    for n in range(1, 10):
        everything = growth_string_partitions(n)
        for q in (q for q in range(1, n + 1) if n % q == 0):
            pi = block_partition(n // q, q)
            grown = [SetPartition(n, blocks) for blocks in crossing_staircase(n // q, q)]
            assert len(grown) == len(set(grown)), (n, q)
            assert set(grown) == {p for p in everything if meet_is_zero(p, pi)}, (n, q)


def test_crossing_staircase_refuses_the_singleton_cuts():
    with pytest.raises(ValueError, match="non-crossing staircase only"):
        partitions._staircase_blocks(4, 2, singletons=False, crossing=True, sink=[].append)


def test_meet_zero_count_closed_form():
    assert [meet_zero_count(m, 1) for m in range(1, 13)] == [bell(m) for m in range(1, 13)]
    assert meet_zero_count(6, 2) == 1_515_903
    assert meet_zero_count(11, 1) == 678_570
    assert meet_zero_count(4, 3) == 513_559


def test_is_noncrossing_examples():
    assert is_noncrossing(SetPartition.from_blocks(4, [[1, 2], [3, 4]]))
    assert is_noncrossing(SetPartition.from_blocks(4, [[1, 4], [2, 3]]))
    assert not is_noncrossing(SetPartition.from_blocks(4, [[1, 3], [2, 4]]))
    assert is_noncrossing(SetPartition.from_blocks(1, [[1]]))
    assert not is_noncrossing(SetPartition.from_blocks(6, [[1, 4, 5], [2, 3, 6]]))


def test_filter_oracle_count_four():
    assert sum(1 for p in enumerate_partitions(4) if is_noncrossing(p)) == 14


@given(st.integers(min_value=1, max_value=8))
def test_enumerate_nc_matches_filter_oracle(n):
    direct = set(enumerate_nc(n))
    filtered = {p for p in enumerate_partitions(n) if is_noncrossing(p)}
    assert direct == filtered


def test_enumerate_nc_order_is_frozen():
    # the staircase order: element e opens a block first, then joins the
    # addable blocks by descending maximum
    assert [p.to_lists() for p in enumerate_nc(4)] == [
        [[1], [2], [3], [4]], [[1], [2], [3, 4]], [[1], [2, 4], [3]], [[1, 4], [2], [3]],
        [[1], [2, 3], [4]], [[1], [2, 3, 4]], [[1, 4], [2, 3]], [[1, 3], [2], [4]],
        [[1, 3, 4], [2]], [[1, 2], [3], [4]], [[1, 2], [3, 4]], [[1, 2, 4], [3]],
        [[1, 2, 3], [4]], [[1, 2, 3, 4]],
    ]


def test_enumerate_nc_catalan_counts():
    for n in range(1, 11):
        assert len(enumerate_nc(n)) == catalan(n)


def test_enumerate_nc_guards():
    with pytest.raises(SizeLimitError):
        enumerate_nc(17)
    with pytest.raises(ValueError, match="^enumerate_nc needs 1 <= n <= 14, got 0$"):
        enumerate_nc(0)


def test_enumerate_nc_refuses_fifteen_before_allocating(monkeypatch):
    def boom(n, q, singletons, crossing, sink):
        raise AssertionError(f"enumerated [{n}] past the guard")

    monkeypatch.setattr(partitions, "_staircase_blocks", boom)
    with pytest.raises(SizeLimitError):
        enumerate_nc(15)


def test_block_partition_shape():
    pi = block_partition(3, 2)
    assert pi.blocks == ((1, 2), (3, 4), (5, 6))
    assert block_partition(4, 1).blocks == ((1,), (2,), (3,), (4,))


def test_meet_is_zero_basics():
    pi = block_partition(2, 2)
    singles = SetPartition.from_blocks(4, [[1], [2], [3], [4]])
    assert meet_is_zero(singles, pi)
    assert not meet_is_zero(pi, pi)
    assert meet_is_zero(SetPartition.from_blocks(4, [[1, 4], [2, 3]]), pi)
    assert not meet_is_zero(SetPartition.from_blocks(4, [[1, 2, 3, 4]]), pi)
    with pytest.raises(GroundSetMismatchError):
        meet_is_zero(singles, block_partition(3, 1))


def test_meet_zero_survivors_match_filter_oracle():
    # against the two consecutive pairs, the only no-singleton NC survivor
    # is the nested pairing; the one-block partition meets each base block twice
    pi = block_partition(2, 2)
    survivors = [
        p
        for p in enumerate_nc(4)
        if meet_is_zero(p, pi) and all(len(b) >= 2 for b in p.blocks)
    ]
    assert survivors == [SetPartition.from_blocks(4, [[1, 4], [2, 3]])]


def test_nc0_classes_q1_m2():
    pairings, big, ge2 = nc0_classes(2, 1)
    assert [p.to_lists() for p in pairings] == [[[1, 2]]]
    assert big == ()
    assert [p.to_lists() for p in ge2] == [[[1, 2]]]


def test_nc0_classes_q1_m4():
    pairings, big, ge2 = nc0_classes(4, 1)
    assert len(pairings) == 2
    assert len(big) == 1
    assert len(ge2) == 3
    assert big[0].to_lists() == [[1, 2, 3, 4]]


def test_nc0_classes_q2_m2():
    pairings, big, ge2 = nc0_classes(2, 2)
    assert len(pairings) == 1 and len(ge2) == 1 and big == ()
    assert pairings[0].to_lists() == [[1, 4], [2, 3]]


@functools.cache
def no_singleton_nc(n):
    """The exhaustive oracle: every non-crossing partition of [n], filtered."""
    return [p for p in enumerate_nc(n) if all(len(b) >= 2 for b in p.blocks)]


def test_nc0_classes_match_their_predicates():
    # the pruned generator yields the filtered classes, in the same order
    for n in range(1, 13):
        for q in range(1, 5):
            if n % q:
                continue
            m = n // q
            pairings, big, ge2 = nc0_classes(m, q)
            pi = block_partition(m, q)
            expect_pair, expect_big, expect_ge2 = [], [], []
            for p in no_singleton_nc(n):
                if not meet_is_zero(p, pi):
                    continue
                sizes = p.block_sizes()
                if all(s == 2 for s in sizes):
                    expect_pair.append(p)
                if all(s > 2 for s in sizes):
                    expect_big.append(p)
                if all(s >= 2 for s in sizes):
                    expect_ge2.append(p)
            assert list(pairings) == expect_pair, (m, q)
            assert list(big) == expect_big, (m, q)
            assert list(ge2) == expect_ge2, (m, q)
            # mixed block sizes live in the third class only, so containment is the
            # right invariant here, not equality with the union
            assert set(pairings) <= set(ge2)
            assert set(big) <= set(ge2)
            assert not set(pairings) & set(big)


def test_nc0_classes_reach_a_sixteen_element_ground_set():
    # filtering all Catalan(16) ~ 3.5e7 non-crossing partitions of [16] would
    # exhaust memory; the pruned generator never builds them
    assert tuple(len(c) for c in nc0_classes(8, 2)) == (91, 0, 1085)
    assert tuple(len(c) for c in nc0_classes(4, 4)) == (5, 0, 9)


def test_nc0_ge2_counts_match_no_singleton_totals_at_q1():
    for m in range(2, 9):
        _, _, ge2 = nc0_classes(m, 1)
        assert len(ge2) == riordan(m).total


def test_nc0_classes_guard():
    with pytest.raises(SizeLimitError):
        nc0_classes(9, 2)


def test_intersection_split_q1():
    first, second = intersection_split(3, 1)
    assert [p.to_lists() for p in first] == [[[1, 2, 3]]]
    assert second == ()
    first4, second4 = intersection_split(4, 1)
    assert len(first4) == 1 and second4 == ()


def test_intersection_split_q3_empty_class():
    # with two copies no block can exceed two elements under a zero meet,
    # so the all-blocks->2 class is empty and both halves are too
    first, second = intersection_split(2, 3)
    assert first == () and second == ()


def test_intersection_split_partitions_the_class():
    for m, q in [(3, 1), (4, 1), (5, 1), (2, 3), (3, 3)]:
        first, second = intersection_split(m, q)
        _, big, _ = nc0_classes(m, q)
        assert sorted(first + second, key=str) == sorted(big, key=str)
        assert not set(first) & set(second)


def test_intersection_split_rejects_even_q():
    with pytest.raises(ValueError):
        intersection_split(2, 2)


def test_riordan_small_tables():
    assert riordan(1).counts == ()
    assert riordan(2).counts == ((1, 1),)
    assert riordan(3).counts == ((1, 1),)
    assert riordan(4).counts == ((1, 1), (2, 2))
    assert riordan(4).count(2) == 2
    assert riordan(4).count(3) == 0


def test_riordan_totals():
    assert [riordan(m).total for m in range(1, 7)] == [0, 1, 1, 3, 6, 15]


def test_riordan_vanishing_above_half():
    for m in range(1, 11):
        table = riordan(m)
        for j, count in table.counts:
            assert count > 0
            assert j <= m // 2


def test_riordan_against_partition_filter_oracle():
    for m in range(2, 9):
        expected = {}
        for p in enumerate_partitions(m):
            if is_noncrossing(p) and all(len(b) >= 2 for b in p.blocks):
                j = len(p.blocks)
                expected[j] = expected.get(j, 0) + 1
        assert dict(riordan(m).counts) == expected


def test_riordan_closed_form_matches_nc_filter_oracle():
    for m in range(1, 13):
        expected = {}
        for p in no_singleton_nc(m):
            j = len(p.blocks)
            expected[j] = expected.get(j, 0) + 1
        assert dict(riordan(m).counts) == expected, m


def test_riordan_guard():
    with pytest.raises(SizeLimitError):
        riordan(17)


@pytest.mark.parametrize(
    "call",
    [
        enumerate_partitions,
        enumerate_nc,
        riordan,
        lambda m: free_poisson_moment(1.0, m),
        lambda steps: convergence_experiment(indicator_family(2), steps),
    ],
    ids=["enumerate_partitions", "enumerate_nc", "riordan", "free_poisson_moment", "convergence_experiment"],
)
def test_a_size_below_the_range_is_a_domain_error(call):
    # only a size past the cap is a size limit
    with pytest.raises(ValueError, match=" needs 1 <= ") as caught:
        call(0)
    assert not isinstance(caught.value, SizeLimitError)


# Each budget at its cap + 1, the work it guards, and the refusal.
PAST_THE_CAP = {
    "enumerate_partitions": (
        lambda: enumerate_partitions(13), (partitions, "_staircase_blocks"),
        "enumerate_partitions needs 1 <= n <= 12, got 13",
    ),
    "enumerate_nc": (
        lambda: enumerate_nc(15), (partitions, "_staircase_blocks"), "enumerate_nc needs 1 <= n <= 14, got 15",
    ),
    "nc0_classes": (
        lambda: nc0_classes(17, 1), (partitions, "_staircase_blocks"), "nc0_classes needs m*q <= 16, got 17",
    ),
    "riordan": (lambda: riordan(17), (math, "comb"), "riordan needs 1 <= m <= 16, got 17"),
    "free_poisson_moment": (
        lambda: free_poisson_moment(1.0, 17), (chaos, "riordan"), "free_poisson_moment needs 1 <= m <= 16, got 17",
    ),
    "moment_diagram": (
        lambda: moment_diagram(GridKernel.indicator(2), 17), (chaos, "_diagram_terms"),
        "moment_diagram needs m*q <= 16, got 17",
    ),
    "tamedness_report": (
        lambda: tamedness_report([GridKernel.indicator(3)], 11, 1.0), (kernels, "_staircase_blocks"),
        "tamedness_report needs m*q <= 10, got 11",
    ),
    "table entries": (
        lambda: GridKernel.zeros(1, 10**6 + 1, 1.0), (np, "zeros"), "table would hold 1000001 entries, cap is 1000000",
    ),
    "table axes": (lambda: GridKernel.zeros(65, 1, 1.0), (np, "zeros"), "table would have 65 axes, cap is 64"),
    "convergence_experiment": (
        lambda: convergence_experiment(indicator_family(2), 51), (theorems, "fourth_moment_identity"),
        "convergence_experiment needs 1 <= steps <= 50, got 51",
    ),
}


@pytest.mark.parametrize("call, work, line", PAST_THE_CAP.values(), ids=PAST_THE_CAP)
def test_a_size_past_the_cap_is_a_size_limit_before_any_work(monkeypatch, call, work, line):
    def unreached(*args, **kwargs):
        raise AssertionError(f"{work[1]} ran past the cap")

    monkeypatch.setattr(*work, unreached)
    with pytest.raises(SizeLimitError, match=f"^{re.escape(line)}$"):
        call()


def test_the_riordan_counts_reach_the_class_cap():
    # riordan(m).total counts the classes nc0_classes(m, 1) keeps, so both stop at m = 16
    assert riordan(16).total == 227475
    assert free_poisson_moment(1.0, 16) == 227475.0


def test_nc0_classes_leave_nothing_behind_for_the_cyclic_collector():
    # the generator's recursive closure must not hold the sink, and with it
    # every class filed, in a reference cycle once the call returns; the first
    # call fills the interpreter's free lists with traced objects, so the second
    # one is measured against a steady state
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        nc0_classes(12, 1)
        before, _ = tracemalloc.get_traced_memory()
        nc0_classes(12, 1)  # the result is dropped at once
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert after - before <= 0.1 * 2**20


def test_staircase_generator_lets_go_of_a_sink_that_raised():
    def sink(blocks):
        raise LookupError

    alive = weakref.ref(sink)
    enabled = gc.isenabled()
    gc.disable()
    try:
        with pytest.raises(LookupError):
            partitions._staircase_blocks(4, 1, singletons=True, crossing=False, sink=sink)
        del sink
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


def test_set_partition_validation():
    with pytest.raises(GroundSetMismatchError):
        SetPartition.from_blocks(3, [[1, 2]])
    with pytest.raises(GroundSetMismatchError):
        SetPartition.from_blocks(3, [[1, 2], [2, 3]])
    with pytest.raises(GroundSetMismatchError):
        SetPartition.from_blocks(3, [[1, 2], [3, 4]])
