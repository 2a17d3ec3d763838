import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partlab.errors import DomainError, InsufficientTruncationError, NotACutError, PartlabError
from partlab.partitions import SetPartition, enumerate_partitions, is_coarsening, iter_rgs
from partlab.prefixes import (
    PartitionPrefix,
    approx_r,
    cube_member,
    depth,
    induced_coarsening_h,
    mu_sequence,
    prefix_is_coarsening,
    project_g,
    trace,
)


def prefix_strategy(max_len=9):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_len))
        rgs = [0]
        for _ in range(n - 1):
            rgs.append(draw(st.integers(min_value=0, max_value=max(rgs) + 1)))
        return PartitionPrefix(tuple(rgs))

    return build()


class TestPrefixBasics:
    def test_text_round_trip(self):
        p = PartitionPrefix((0, 0, 1, 2, 1))
        assert p.to_text() == "L=5;0,0,1,2,1"
        assert PartitionPrefix.from_text("L=5;0,0,1,2,1") == p

    def test_header_mismatch(self):
        with pytest.raises(DomainError):
            PartitionPrefix.from_text("L=4;0,0,1")

    def test_positive_length_required(self):
        with pytest.raises(DomainError):
            PartitionPrefix(())

    def test_restrict(self):
        p = PartitionPrefix((0, 1, 0))
        assert p.restrict(3) == SetPartition((0, 1, 0))
        assert p.restrict(1) == SetPartition((0,))
        assert p.restrict(0) == SetPartition(())
        with pytest.raises(InsufficientTruncationError):
            p.restrict(4)
        # a negative length would slice from the end
        for length in (-1, -2, -3, -4):
            with pytest.raises(DomainError, match=f"negative length {length}"):
                p.restrict(length)


# input checks: (call, exception, its exact message)
INPUT_CHECKS = {
    "prefix not an rgs": (lambda: PartitionPrefix((0, 2)), DomainError, "not a restricted growth string: (0, 2)"),
    "prefix text without header": (
        lambda: PartitionPrefix.from_text("0,1"), DomainError, "prefix text must carry an 'L=<n>;' header: '0,1'",
    ),
    "trace of a short A": (
        lambda: trace(PartitionPrefix((0, 1)), PartitionPrefix((0, 1, 2, 3)), 3),
        InsufficientTruncationError, "trace needs A through 3 points but window has 2",
    ),
    "depth of s filling the window": (
        lambda: depth(PartitionPrefix((0, 1, 2)), SetPartition((0, 1, 2))),
        InsufficientTruncationError, "cannot decide whether 3 is a cut of a window of length 3",
    ),
    "cube member longer than B": (
        lambda: cube_member(SetPartition((0, 1, 2)), PartitionPrefix((0, 1)), PartitionPrefix((0, 1))),
        InsufficientTruncationError, "cannot check end-extension of 3 points in a window of 2",
    ),
    "induced coarsening by t of the wrong size": (
        lambda: induced_coarsening_h(SetPartition((0, 1)), PartitionPrefix((0, 1, 2)), 3),
        DomainError, "t must live on 3 points, has 2",
    ),
    "projection of a C short of mu_m'(B)": (
        lambda: project_g(PartitionPrefix((0, 0)), PartitionPrefix((0, 0, 1, 2)), 2),
        InsufficientTruncationError, "C window of length 2 does not reach mu_2(B) = 3",
    ),
}


@pytest.mark.parametrize("case", list(INPUT_CHECKS))
def test_input_check_raises_its_error(case):
    call, exc, message = INPUT_CHECKS[case]
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


class TestMuSequence:
    def test_discrete(self):
        assert mu_sequence(PartitionPrefix((0, 1, 2, 3))) == [0, 1, 2, 3]

    def test_interleaved(self):
        assert mu_sequence(PartitionPrefix((0, 1, 0, 1, 2, 3))) == [0, 1, 4, 5]

    def test_single_block(self):
        assert mu_sequence(PartitionPrefix((0, 0, 0, 0))) == [0]

    @given(prefix_strategy())
    def test_strictly_increasing_starting_at_zero(self, B):
        mu = mu_sequence(B)
        assert mu[0] == 0
        assert all(a < b for a, b in zip(mu, mu[1:]))


class TestApproxR:
    def test_hand_example(self):
        B = PartitionPrefix((0, 1, 0, 1, 2, 3))
        assert approx_r(B, 2).rgs == (0, 1, 0, 1)

    def test_zeroth_is_empty(self):
        assert approx_r(PartitionPrefix((0, 0, 1)), 0).n == 0

    def test_discrete(self):
        assert approx_r(PartitionPrefix.discrete(5), 3).rgs == (0, 1, 2)

    def test_beyond_window_fails_loudly(self):
        B = PartitionPrefix((0, 1, 0, 1))
        with pytest.raises(InsufficientTruncationError):
            approx_r(B, 2)

    @given(prefix_strategy())
    def test_every_approximation_end_extends(self, B):
        mu = mu_sequence(B)
        for n in range(len(mu)):
            r = approx_r(B, n) if mu[n] < B.L or n == 0 else None
            if n == len(mu) - 1 and mu[n] == B.L:
                continue
            if r is not None:
                assert B.rgs[: r.n] == r.rgs


    def test_is_the_trace_of_b_in_itself(self):
        for L in range(1, 8):
            for B in map(PartitionPrefix, iter_rgs(L)):
                for n in range(-1, len(mu_sequence(B)) + 1):
                    try:
                        want = approx_r(B, n)
                    except PartlabError as exc:
                        with pytest.raises(PartlabError) as caught:
                            trace(B, B, n)
                        assert caught.type is type(exc)
                    else:
                        assert trace(B, B, n) == want


class TestTrace:
    def test_hand_example(self):
        A = PartitionPrefix((0, 0, 1, 1, 2, 2))
        B = PartitionPrefix((0, 1, 0, 1, 2, 3))
        assert trace(A, B, 2).rgs == (0, 0, 1, 1)

    def test_zero_depth(self):
        A = PartitionPrefix((0, 0))
        assert trace(A, A, 0).n == 0

    def test_discrete_in_itself(self):
        D = PartitionPrefix.discrete(4)
        assert trace(D, D, 3).rgs == (0, 1, 2)

    def test_nesting(self):
        # the shallower trace is the restriction of the deeper one
        for A, B in itertools.product(
            [PartitionPrefix((0, 0, 1, 0, 2, 1)), PartitionPrefix.discrete(6)],
            [PartitionPrefix((0, 1, 0, 1, 2, 3)), PartitionPrefix((0, 1, 2, 0, 1, 2))],
        ):
            mu = mu_sequence(B)
            for n in range(len(mu) - 1):
                if mu[n + 1] > A.L:
                    break
                shallow = trace(A, B, n)
                deep = trace(A, B, n + 1)
                assert deep.rgs[: shallow.n] == shallow.rgs


class TestDepth:
    def test_hand_example(self):
        B = PartitionPrefix((0, 1, 0, 1, 2, 3))
        assert depth(B, SetPartition((0, 1, 0, 1))) == 2

    def test_empty_is_zero(self):
        assert depth(PartitionPrefix((0, 0)), SetPartition(())) == 0

    def test_not_a_cut(self):
        B = PartitionPrefix((0, 1, 0, 1, 2, 3))
        with pytest.raises(NotACutError):
            depth(B, SetPartition((0, 1, 0)))

    def test_depth_inverts_approx(self):
        for B in [PartitionPrefix((0, 1, 0, 2, 1, 3, 0)), PartitionPrefix.discrete(6)]:
            mu = mu_sequence(B)
            for n in range(len(mu)):
                if mu[n] >= B.L:
                    continue
                s = approx_r(B, n)
                if s.n >= B.L:
                    continue
                assert depth(B, s) == n


class TestCubeMember:
    def test_empty_stem(self):
        B = PartitionPrefix((0, 1, 0, 2))
        assert cube_member(SetPartition(()), B, B)

    def test_merged_pair_not_in_discrete(self):
        D = PartitionPrefix.discrete(4)
        assert not cube_member(SetPartition((0, 0)), D, D)

    def test_stem_must_be_an_approximation(self):
        # domain size 2 is not a block-minimum cut of the interleaved prefix,
        # so no infinite extension has this stem as an approximation
        B = PartitionPrefix((0, 1, 0, 1, 0, 1))
        assert not cube_member(SetPartition((0, 1)), PartitionPrefix.discrete(6), B)

    def test_approximations_are_members(self):
        B = PartitionPrefix((0, 1, 0, 2, 1, 3))
        A = PartitionPrefix.discrete(6)
        mu = mu_sequence(B)
        for n in range(len(mu)):
            if mu[n] < B.L:
                assert cube_member(approx_r(B, n), A, B)

    def test_coarsening_clause(self):
        A = PartitionPrefix((0, 0, 1, 1))
        B = PartitionPrefix((0, 1, 2, 3))
        # B does not coarsen A on the window
        assert not cube_member(SetPartition(()), A, B)


class TestInducedCoarsening:
    def test_merge_on_discrete(self):
        got = induced_coarsening_h(SetPartition((0, 0, 1)), PartitionPrefix.discrete(6), 3)
        assert got.rgs == (0, 0, 1, 2, 3, 4)

    def test_merge_interleaved(self):
        got = induced_coarsening_h(
            SetPartition((0, 0)), PartitionPrefix((0, 1, 0, 1, 2, 3)), 2
        )
        assert got.rgs == (0, 0, 0, 0, 1, 2)

    def test_discrete_t_is_identity(self):
        B = PartitionPrefix((0, 1, 0, 2, 1, 3))
        assert induced_coarsening_h(SetPartition((0, 1, 2)), B, 3) == B

    def test_output_coarsens_input(self):
        B = PartitionPrefix((0, 1, 0, 2, 1, 3))
        for t in enumerate_partitions(3, 0):
            h = induced_coarsening_h(t, B, 3)
            assert is_coarsening(h.as_partition(), B.as_partition())

    def test_too_few_blocks(self):
        with pytest.raises(InsufficientTruncationError):
            induced_coarsening_h(SetPartition((0, 1, 2)), PartitionPrefix((0, 0, 1)), 3)

    def test_against_the_definition(self):
        # i ~ j iff B(i) = B(j), or both B-labels lie below mprime and t joins them
        for B in map(PartitionPrefix, iter_rgs(6)):
            for mprime in range(1, B.num_blocks + 1):
                for t in enumerate_partitions(mprime, 0):
                    h = induced_coarsening_h(t, B, mprime).rgs
                    for (i, bi), (j, bj) in itertools.combinations(enumerate(B.rgs), 2):
                        joined = bi == bj or (
                            bi < mprime and bj < mprime and t.rgs[bi] == t.rgs[bj]
                        )
                        assert (h[i] == h[j]) == joined


class TestProjectG:
    def test_hand_example(self):
        C = PartitionPrefix((0, 0, 0, 0, 1, 2))
        B = PartitionPrefix((0, 1, 0, 1, 2, 3))
        assert project_g(C, B, 2).rgs == (0, 0)

    def test_self_projects_discrete(self):
        B = PartitionPrefix((0, 1, 0, 1, 2, 3))
        assert project_g(B, B, 2).rgs == (0, 1)

    def test_non_coarsening_falls_back_to_discrete(self):
        C = PartitionPrefix((0, 1, 2, 3, 4, 5))
        B = PartitionPrefix((0, 0, 1, 1, 2, 3))
        assert project_g(C, B, 2).rgs == (0, 1)

    def test_negative_depth_is_domain_error(self):
        B = PartitionPrefix((0, 1, 0, 1, 2, 3))
        for mprime in (-1, -5):
            with pytest.raises(DomainError, match="depth must be >= 0"):
                project_g(B, B, mprime)

    def test_section_identity(self):
        # g(h(t)) = t for all t, over several distinct prefixes
        prefixes = [
            PartitionPrefix.discrete(8),
            PartitionPrefix((0, 1, 0, 2, 1, 3, 4, 2)),
            PartitionPrefix((0, 1, 2, 0, 3, 1, 4, 5)),
        ]
        for B in prefixes:
            for mprime in range(1, 5):
                for t in enumerate_partitions(mprime, 0):
                    h = induced_coarsening_h(t, B, mprime)
                    assert project_g(h, B, mprime) == t

    def test_retraction_identity(self):
        # h(g(C)) agrees with C below the cut, for every coarsening C of B
        from partlab.partitions import coarsenings_of

        for B in [PartitionPrefix((0, 1, 0, 2, 1, 3)), PartitionPrefix.discrete(6)]:
            for mprime in range(1, 4):
                mu = mu_sequence(B)
                if mprime >= len(mu):
                    continue
                cut = mu[mprime]
                for c in coarsenings_of(B.as_partition()):
                    C = PartitionPrefix(c.rgs)
                    t = project_g(C, B, mprime)
                    h = induced_coarsening_h(t, B, mprime)
                    assert h.rgs[:cut] == C.rgs[:cut]


class TestPrefixCoarsening:
    @given(prefix_strategy(), prefix_strategy())
    @settings(max_examples=60)
    def test_matches_partition_order_on_common_window(self, A, B):
        n = min(A.L, B.L)
        expect = is_coarsening(A.restrict(n), B.restrict(n))
        assert prefix_is_coarsening(A, B) == expect
