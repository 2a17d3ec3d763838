import collections
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partlab.errors import DomainError
from partlab.partitions import (
    SetPartition,
    coarsenings_of,
    count_equipartitions,
    count_partitions,
    enumerate_equipartitions,
    enumerate_partitions,
    is_coarsening,
    iter_equipartition_rgs,
    iter_rgs,
    meet_refine,
    relabel_canonical,
    rgs_is_valid,
    _rgs_rank,
    _rgs_unrank,
)


def rgs_strategy(max_n=8):
    """Random valid restricted growth strings via their defining recurrence."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        rgs = [0]
        for _ in range(n - 1):
            rgs.append(draw(st.integers(min_value=0, max_value=max(rgs) + 1)))
        return tuple(rgs)

    return build()


class TestSetPartition:
    def test_basic_fields(self):
        p = SetPartition((0, 0, 1, 2, 1))
        assert p.n == 5
        assert p.num_blocks == 3
        assert p.blocks == [[0, 1], [2, 4], [3]]

    def test_empty_partition_allowed(self):
        # the zeroth approximation of any prefix is the empty partition
        p = SetPartition(())
        assert p.n == 0 and p.num_blocks == 0

    def test_invalid_rgs_rejected(self):
        with pytest.raises(DomainError):
            SetPartition((1, 0))
        with pytest.raises(DomainError):
            SetPartition((0, 2))

    def test_block_minima_increase_with_index(self):
        p = SetPartition((0, 1, 0, 2, 1, 3))
        minima = [min(b) for b in p.blocks]
        assert minima == sorted(minima)

    def test_restrict_and_str(self):
        p = SetPartition((0, 1, 0, 2))
        assert p.restrict(2) == SetPartition((0, 1))
        assert str(p) == "0,1,0,2"
        assert str(p.restrict(0)) == "(empty)"
        with pytest.raises(DomainError, match="cannot restrict length-4 partition to 5"):
            p.restrict(5)
        # a negative length would slice from the end
        for length in (-1, -4, -5):
            with pytest.raises(DomainError, match=f"negative length {length}"):
                p.restrict(length)

    def test_text_round_trip(self):
        p = SetPartition((0, 0, 1, 2, 1))
        assert p.to_text() == "0,0,1,2,1"
        assert SetPartition.from_text("0,0,1,2,1") == p

    @given(rgs_strategy(max_n=14))
    def test_text_is_the_decimal_blocks(self, rgs):
        p = SetPartition(rgs)
        assert p.to_text() == ",".join(map(str, rgs))
        assert SetPartition.from_text(p.to_text()) == p

    def test_text_of_multi_digit_blocks(self):
        # block texts are made on first use, so a later, wider partition still gets every one
        assert SetPartition.discrete(3).to_text() == "0,1,2"
        assert SetPartition.discrete(13).to_text() == "0,1,2,3,4,5,6,7,8,9,10,11,12"

    @given(rgs_strategy())
    def test_canonical_form_stability(self, rgs):
        assert relabel_canonical(rgs) == rgs
        assert rgs_is_valid(rgs)


class TestEnumeration:
    def test_single_point(self):
        assert [p.rgs for p in enumerate_partitions(1, 0)] == [(0,)]

    def test_three_points(self):
        got = [p.rgs for p in enumerate_partitions(3, 0)]
        assert got == [
            (0, 0, 0),
            (0, 0, 1),
            (0, 1, 0),
            (0, 1, 1),
            (0, 1, 2),
        ]

    def test_separation_filter(self):
        got = {p.rgs for p in enumerate_partitions(3, 2)}
        # exactly the partitions keeping 0 and 1 apart
        assert got == {(0, 1, 0), (0, 1, 1), (0, 1, 2)}

    def test_lex_order_and_uniqueness(self):
        for n in range(1, 7):
            seq = [p.rgs for p in enumerate_partitions(n, 0)]
            assert seq == sorted(seq)
            assert len(seq) == len(set(seq))

    def test_count_agreement(self):
        for n in range(1, 12):
            assert sum(1 for _ in enumerate_partitions(n, 0)) == count_partitions(n)

    def test_separated_stream_is_a_filter(self):
        for n in range(1, 7):
            for m in range(n + 1):
                expect = [
                    p.rgs
                    for p in enumerate_partitions(n, 0)
                    if all(p.rgs[i] != p.rgs[j] for i in range(m) for j in range(i + 1, m))
                ]
                assert [p.rgs for p in enumerate_partitions(n, m)] == expect

    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            list(enumerate_partitions(0, 0))
        with pytest.raises(DomainError):
            list(enumerate_partitions(3, 4))


class TestEquipartitions:
    def test_two_blocks_of_two_separated(self):
        got = {p.rgs for p in enumerate_equipartitions(2, 2, 2)}
        assert got == {(0, 1, 0, 1), (0, 1, 1, 0)}

    def test_three_blocks_of_two_fully_separated(self):
        assert sum(1 for _ in enumerate_equipartitions(3, 2, 3)) == 6

    def test_single_block(self):
        assert [p.rgs for p in enumerate_equipartitions(1, 5, 1)] == [(0, 0, 0, 0, 0)]

    def test_count_formula(self):
        for k in range(1, 4):
            for N in range(1, 4):
                assert (
                    sum(1 for _ in enumerate_equipartitions(k, N, 0))
                    == count_equipartitions(k, N)
                )

    def test_block_sizes_all_equal(self):
        for p in enumerate_equipartitions(3, 2, 0):
            assert all(len(b) == 2 for b in p.blocks)

    def test_m_above_k_rejected(self):
        with pytest.raises(DomainError):
            list(enumerate_equipartitions(2, 2, 3))


class TestEnumerationOracles:
    """Each generator against an oracle that shares none of its code."""

    def test_iter_rgs_equals_relabelled_words(self):
        for n in range(1, 7):
            words = list(itertools.product(range(n), repeat=n))
            for m in range(n + 1):
                expect = sorted({relabel_canonical(w) for w in words if len(set(w[:m])) == m})
                got = list(iter_rgs(n, m))
                assert got == expect
                assert all(rgs_is_valid(r) for r in got)

    def test_equipartitions_filter_iter_rgs(self):
        for k in range(1, 9):
            for N in range(1, 8 // k + 1):
                for m in range(k + 1):
                    expect = [
                        r for r in iter_rgs(k * N, m)
                        if sorted(collections.Counter(r).values()) == [N] * k
                    ]
                    assert list(iter_equipartition_rgs(k, N, m)) == expect

    def test_coarsenings_are_canonical(self):
        for n in range(1, 8):
            for s in enumerate_partitions(n):
                for t in coarsenings_of(s):
                    assert relabel_canonical(t.rgs) == t.rgs


@pytest.mark.parametrize("n", range(1, 10))
def test_rank_and_unrank_are_inverse_to_the_lex_order(n):
    for i, rgs in enumerate(iter_rgs(n)):
        assert _rgs_rank(rgs) == i
        assert _rgs_unrank(n, i) == rgs


class TestCoarseningOrder:
    def test_single_block_is_bottom(self):
        assert is_coarsening(SetPartition((0, 0, 0)), SetPartition((0, 1, 2)))
        assert not is_coarsening(SetPartition((0, 1, 2)), SetPartition((0, 0, 0)))

    def test_mismatched_domains(self):
        with pytest.raises(DomainError):
            is_coarsening(SetPartition((0,)), SetPartition((0, 1)))

    def test_partial_order_axioms_exhaustive(self):
        # one is_coarsening call per ordered pair; the axioms over all pairs and triples read that table
        for n in range(1, 7):
            space = list(enumerate_partitions(n, 0))
            above = {s: {u for u in space if is_coarsening(s, u)} for s in space}
            for s in space:
                assert s in above[s]
                for t in above[s]:
                    if s in above[t]:
                        assert s == t
                    assert above[t] <= above[s]

    def test_coarsenings_of_matches_scan(self):
        for n in range(1, 6):
            for s in enumerate_partitions(n, 0):
                got = {t.rgs for t in coarsenings_of(s)}
                expect = {
                    t.rgs for t in enumerate_partitions(n, 0) if is_coarsening(t, s)
                }
                assert got == expect


class TestMeetRefine:
    def test_hand_example(self):
        m = meet_refine(SetPartition((0, 0, 1)), SetPartition((0, 1, 1)))
        assert m.rgs == (0, 1, 2)

    def test_single_block_is_identity_element(self):
        for t in enumerate_partitions(4, 0):
            assert meet_refine(SetPartition((0, 0, 0, 0)), t) == t

    def test_idempotent(self):
        for t in enumerate_partitions(4, 0):
            assert meet_refine(t, t) == t

    def test_least_common_upper_bound_exhaustive(self):
        for n in range(1, 6):
            space = list(enumerate_partitions(n, 0))
            for t1, t2 in itertools.product(space, repeat=2):
                m = meet_refine(t1, t2)
                assert is_coarsening(t1, m) and is_coarsening(t2, m)
                for h in space:
                    if is_coarsening(t1, h) and is_coarsening(t2, h):
                        assert is_coarsening(m, h)

    @given(rgs_strategy(), rgs_strategy())
    @settings(max_examples=60)
    def test_commutative(self, r1, r2):
        n = min(len(r1), len(r2))
        t1 = SetPartition(relabel_canonical(r1[:n]))
        t2 = SetPartition(relabel_canonical(r2[:n]))
        assert meet_refine(t1, t2) == meet_refine(t2, t1)


# input checks: (call, exception, its exact message)
INPUT_CHECKS = {
    "equipartition rgs of no blocks": (lambda: list(iter_equipartition_rgs(0, 2)), DomainError, "need k >= 1 and N >= 1"),
    "meet of two sizes": (
        lambda: meet_refine(SetPartition((0, 1)), SetPartition((0, 1, 2))), DomainError, "domain size mismatch: 2 vs 3",
    ),
}


@pytest.mark.parametrize("case", list(INPUT_CHECKS))
def test_input_check_raises_its_error(case):
    call, exc, message = INPUT_CHECKS[case]
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


class TestCounting:
    def test_bell_values(self):
        assert count_partitions(1) == 1
        assert count_partitions(3) == 5
        assert count_partitions(12) == 4213597

    def test_equipartition_values(self):
        assert count_equipartitions(2, 2) == 3
        assert count_equipartitions(3, 2) == 15

    @pytest.mark.parametrize("n", range(1, 11))
    def test_separated_count_is_the_enumeration(self, n):
        for m in range(n + 1):
            assert count_partitions(n, m) == sum(1 for _ in iter_rgs(n, m))

    @pytest.mark.parametrize("k,N", [(k, N) for k in range(1, 11) for N in range(1, 11) if k * N <= 10])
    def test_separated_equipartition_count_is_the_enumeration(self, k, N):
        for m in range(k + 1):
            assert count_equipartitions(k, N, m) == sum(1 for _ in iter_equipartition_rgs(k, N, m))
