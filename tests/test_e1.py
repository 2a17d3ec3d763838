import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partlab.e1 import (
    AllocationScheme,
    BinaryGrid,
    blowup_inverse,
    blowup_iso,
    cs_decode,
    cs_encode,
    e1_window_equiv,
    reduce_f,
    round_robin_alloc,
)
from partlab.errors import DomainError, InsufficientTruncationError
from partlab.partitions import relabel_canonical
from partlab.prefixes import PartitionPrefix


def prefix_strategy(max_len=10):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_len))
        rgs = [0]
        for _ in range(n - 1):
            rgs.append(draw(st.integers(min_value=0, max_value=max(rgs) + 1)))
        return PartitionPrefix(tuple(rgs))

    return build()


def random_grid(rng, rows, cols):
    return BinaryGrid(
        tuple(tuple(rng.randrange(2) for _ in range(cols)) for _ in range(rows))
    )


class TestBinaryGrid:
    def test_text_round_trip(self):
        g = BinaryGrid(((1, 0, 1), (0, 1, 0)))
        assert g.to_text() == "2 3\n101\n010\n"
        assert BinaryGrid.from_text(g.to_text()) == g

    def test_validation(self):
        with pytest.raises(DomainError):
            BinaryGrid(())
        with pytest.raises(DomainError):
            BinaryGrid(((0, 1), (0,)))
        with pytest.raises(DomainError):
            BinaryGrid.from_text("2 2\n10\n3x")

    def test_cs_check(self):
        assert BinaryGrid(((1, 0, 1, 0), (0, 1, 0, 1))).is_cs()
        assert not BinaryGrid(((0, 1), (1, 0))).is_cs()  # minima decrease
        assert not BinaryGrid(((1, 1), (0, 1))).is_cs()  # overlap


# input checks: (call, exception, its exact message)
INPUT_CHECKS = {
    "grid entry not a bit": (lambda: BinaryGrid(((0, 2),)), DomainError, "grid entries must be 0 or 1"),
    "empty grid text": (lambda: BinaryGrid.from_text(" \n"), DomainError, "empty grid text"),
    "bad grid header": (lambda: BinaryGrid.from_text("two 2\n01\n10"), DomainError, "bad grid header: 'two 2'"),
    "grid row count": (lambda: BinaryGrid.from_text("2 2\n01"), DomainError, "header says 2 rows, found 1"),
    "owner of the wrong length": (
        lambda: AllocationScheme(2, (-1,), (0,), ()), DomainError, "scheme must cover a positive horizon",
    ),
    "empty horizon": (lambda: round_robin_alloc(0), DomainError, "need L >= 1"),
    "unknown window mode": (
        lambda: e1_window_equiv(BinaryGrid(((1,),)), BinaryGrid(((1,),)), "both"),
        DomainError, "mode must be 'fixed' or 'tail', got 'both'",
    ),
    "inflated window longer than D": (
        lambda: blowup_inverse(PartitionPrefix((0, 1, 2)), PartitionPrefix((0, 1))),
        InsufficientTruncationError, "inflated window of 3 exceeds the D window of 2",
    ),
    "D-block split by the inflated prefix": (
        lambda: blowup_inverse(PartitionPrefix((0, 1)), PartitionPrefix((0, 0))),
        DomainError, "block 0 of D is split by the inflated prefix",
    ),
}


@pytest.mark.parametrize("case", list(INPUT_CHECKS))
def test_input_check_raises_its_error(case):
    call, exc, message = INPUT_CHECKS[case]
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


class TestRoundRobinAlloc:
    def test_horizon_nine(self):
        s = round_robin_alloc(9)
        assert s.spine == (0, 1, 4, 5)
        assert s.lanes[0] == (2, 3, 7)
        assert s.lanes[1] == (6, 8)

    def test_spine_values_precede_their_lane(self):
        s = round_robin_alloc(9)
        assert s.spine[2] == 4 and s.spine[3] == 5
        assert max(s.spine[2], s.spine[3]) < min(s.lanes[1])

    def test_horizon_three(self):
        s = round_robin_alloc(3)
        assert s.spine == (0, 1)
        assert s.lanes == ((2,),)

    def test_total_and_disjoint(self):
        for L in range(1, 60):
            s = round_robin_alloc(L)
            covered = list(s.spine)
            for lane in s.lanes:
                covered.extend(lane)
            assert sorted(covered) == list(range(L))

    def test_every_lane_keeps_growing(self):
        big = round_robin_alloc(500)
        assert all(len(lane) >= 5 for lane in big.lanes[:10])

    def test_a_lane_opens_once_both_spine_values_fit(self):
        for L in range(1, 61):
            s = round_robin_alloc(L)
            assert len(s.lanes) == len(s.spine) // 2
        assert round_robin_alloc(1).lanes == ()
        assert round_robin_alloc(2).lanes == ((),)
        assert round_robin_alloc(6).lanes == ((2, 3), ())


class TestEncode:
    def test_interleaved(self):
        g = cs_encode(PartitionPrefix((0, 1, 0, 1)))
        assert g.bits == ((1, 0, 1, 0), (0, 1, 0, 1))
        assert g.is_cs()

    def test_discrete_and_single(self):
        assert cs_encode(PartitionPrefix((0, 1, 2))).bits == (
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        )
        assert cs_encode(PartitionPrefix((0, 0, 0))).bits == ((1, 1, 1),)

    @given(prefix_strategy())
    @settings(max_examples=80)
    def test_round_trip(self, A):
        assert cs_decode(cs_encode(A)) == A

    def test_decode_rejects_non_partition_grid(self):
        with pytest.raises(DomainError):
            cs_decode(BinaryGrid(((1, 1), (0, 1))))

    def test_decode_rejects_an_empty_last_row(self):
        # every column lies in one row, so only is_cs sees the empty row
        with pytest.raises(DomainError):
            cs_decode(BinaryGrid(((1, 1), (0, 0))))


class TestWindowEquiv:
    def test_identity(self):
        rng = random.Random(0)
        x = random_grid(rng, 4, 5)
        assert e1_window_equiv(x, x, "fixed") == 0

    def test_head_difference(self):
        rng = random.Random(1)
        x = random_grid(rng, 4, 5)
        rows = list(x.bits)
        rows[0] = tuple(1 - b for b in rows[0])
        y = BinaryGrid(tuple(rows))
        assert e1_window_equiv(x, y, "fixed") == 1

    def test_tail_shift(self):
        rng = random.Random(2)
        x = random_grid(rng, 4, 5)
        shifted = BinaryGrid(x.bits[1:] + (tuple([0] * 5),))
        got = e1_window_equiv(x, shifted, "tail")
        assert got in ((1, 0), (0, 1))
        assert e1_window_equiv(shifted, x, "tail") in ((0, 1), (1, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            e1_window_equiv(
                BinaryGrid(((0,),)), BinaryGrid(((0, 1),)), "fixed"
            )

    @pytest.mark.parametrize("mode", ["fixed", "tail"])
    def test_no_agreement_in_the_window(self, mode):
        # the last rows differ, and in the tail mode every shifted pair of rows differs too
        x = BinaryGrid(((1, 0), (0, 1)))
        y = BinaryGrid(((1, 1), (1, 1)))
        assert e1_window_equiv(x, y, mode) is None


def reference_reduce_f(x, L):
    """reduce_f with each point's spine or lane position found by tuple.index."""
    scheme = round_robin_alloc(L)
    labels = []
    for p in range(L):
        who = scheme.owner[p]
        if who == -1:
            labels.append(scheme.spine.index(p))
            continue
        i = scheme.lanes[who].index(p)
        if who >= x.R or i >= x.C:
            raise InsufficientTruncationError(
                f"grid window {x.R}x{x.C} cannot decide point {p} (row {who}, column {i})"
            )
        labels.append(2 * who if x.bits[who][i] else 2 * who + 1)
    return PartitionPrefix(relabel_canonical(labels))


class TestReduceF:
    def test_all_zero_grid(self):
        x = BinaryGrid(tuple((0,) * 4 for _ in range(4)))
        p = reduce_f(x, 9)
        # spine values open the blocks; each odd block absorbs its whole lane
        assert p.rgs == (0, 1, 1, 1, 2, 3, 3, 1, 3)

    def test_selected_lane_point_joins_even_block(self):
        rows = [[0] * 4 for _ in range(4)]
        rows[0][0] = 1  # lane 0's first point, which is the integer 2
        p = reduce_f(BinaryGrid(tuple(tuple(r) for r in rows)), 9)
        assert p.rgs[2] == p.rgs[0]

    def test_first_two_blocks_anchored(self):
        rng = random.Random(3)
        for _ in range(20):
            p = reduce_f(random_grid(rng, 6, 8), 12)
            assert p.rgs[0] == 0 and p.rgs[1] == 1

    def test_window_too_small(self):
        with pytest.raises(InsufficientTruncationError):
            reduce_f(BinaryGrid(((0,),)), 9)

    def test_equals_index_based_reference(self):
        # grids one row or column either side of what L needs, so both outcomes occur
        rng = random.Random(5)
        errors = 0
        for L in range(1, 401):
            lanes = round_robin_alloc(L).lanes
            need_rows = sum(1 for lane in lanes if lane)
            need_cols = len(lanes[0]) if lanes else 0
            x = random_grid(
                rng, max(1, need_rows + rng.randint(-1, 1)), max(1, need_cols + rng.randint(-1, 1))
            )
            try:
                expected = reference_reduce_f(x, L)
            except InsufficientTruncationError as exc:
                errors += 1
                with pytest.raises(InsufficientTruncationError, match=f"^{re.escape(str(exc))}$"):
                    reduce_f(x, L)
            else:
                assert reduce_f(x, L) == expected
        assert 50 < errors < 350

    def test_forward_agreement(self):
        # grids equal from row n0 onward give partitions equal on blocks >= 2*n0
        rng = random.Random(4)
        for _ in range(30):
            x = random_grid(rng, 8, 16)
            n0 = rng.randrange(1, 4)
            rows = [
                tuple(rng.randrange(2) for _ in range(16)) if r < n0 else x.bits[r]
                for r in range(8)
            ]
            y = BinaryGrid(tuple(rows))
            L = 40
            px, py = reduce_f(x, L), reduce_f(y, L)
            scheme = round_robin_alloc(L)
            for j in range(2 * n0, len(scheme.spine)):
                bx = {p for p in range(L) if px.rgs[p] == px.rgs[scheme.spine[j]]}
                by = {p for p in range(L) if py.rgs[p] == py.rgs[scheme.spine[j]]}
                assert bx == by

    def test_backward_injectivity(self):
        # a single changed cell moves exactly one lane point between the
        # two blocks anchored at that row's spine values
        rng = random.Random(5)
        for _ in range(30):
            x = random_grid(rng, 8, 16)
            n = rng.randrange(4)
            i = rng.randrange(4)
            rows = [list(r) for r in x.bits]
            rows[n][i] = 1 - rows[n][i]
            y = BinaryGrid(tuple(tuple(r) for r in rows))
            L = 40
            px, py = reduce_f(x, L), reduce_f(y, L)
            scheme = round_robin_alloc(L)
            point = scheme.lanes[n][i]

            def block_of(prefix, anchor):
                return {p for p in range(L) if prefix.rgs[p] == prefix.rgs[anchor]}

            even, odd = scheme.spine[2 * n], scheme.spine[2 * n + 1]
            assert block_of(px, even) != block_of(py, even)
            assert block_of(px, odd) != block_of(py, odd)
            assert block_of(px, even) ^ block_of(py, even) == {point}


class TestBlowup:
    def test_hand_example(self):
        A = PartitionPrefix((0, 0, 1, 2))
        D = PartitionPrefix((0, 1, 0, 1, 2, 3))
        assert blowup_iso(A, D).rgs == (0, 0, 0, 0, 1, 2)

    def test_discrete_is_identity(self):
        D = PartitionPrefix((0, 1, 0, 2, 1))
        assert blowup_iso(PartitionPrefix((0, 1, 2)), D) == D

    def test_single_block(self):
        D = PartitionPrefix((0, 1, 2, 0))
        assert blowup_iso(PartitionPrefix((0, 0, 0)), D).rgs == (0, 0, 0, 0)

    def test_needs_enough_blocks(self):
        with pytest.raises(InsufficientTruncationError):
            blowup_iso(PartitionPrefix((0, 1, 2)), PartitionPrefix((0, 0, 1)))

    @given(prefix_strategy(max_len=5), prefix_strategy(max_len=12))
    @settings(max_examples=100)
    def test_round_trip_and_injectivity(self, A, D):
        if D.num_blocks < A.L:
            return
        B = blowup_iso(A, D)
        assert blowup_inverse(B, D) == A

    def test_shift_agreement_transfers(self):
        # prefixes agreeing from block minimum mu_j onward inflate to
        # prefixes agreeing from the image of that cut onward
        from partlab.prefixes import mu_sequence

        D = PartitionPrefix.discrete(10)
        A = PartitionPrefix((0, 1, 0, 2, 1, 3))
        A2 = PartitionPrefix((0, 1, 2, 2, 1, 3))  # differs only before index 4
        BA, BA2 = blowup_iso(A, D), blowup_iso(A2, D)
        assert BA.rgs[4:] == BA2.rgs[4:] or BA.rgs != BA2.rgs
        # with a discrete D the inflation is the identity, so agreement is exact
        assert BA.rgs[4:] == BA2.rgs[4:]
