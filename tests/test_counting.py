from fractions import Fraction
from math import comb
from operator import itemgetter

import pytest

from partlab.counting import (
    CoarseningProfile,
    comb_ratio_bound,
    count_extensions,
    entropy_bounds,
    profile_of,
    ratio_R,
)
from partlab.errors import DomainError
from partlab.partitions import (
    SetPartition,
    count_equipartitions,
    enumerate_equipartitions,
    enumerate_partitions,
    is_coarsening,
)


def single_block_profile(k, m):
    return CoarseningProfile(blocks=((k, m),), splits=(((k, m),),))


def coarsening_test(s):
    """rgs -> the rgs read at each point's least block-mate in s; t <= s iff that is t itself."""
    least = {}
    get = itemgetter(*[least.setdefault(block, i) for i, block in enumerate(s.rgs)])
    return get if s.n > 1 else lambda rgs: (get(rgs),)  # one index gives a bare item


# input checks: (call, exception, its exact message)
INPUT_CHECKS = {
    "profile of unequal block and split counts": (
        lambda: CoarseningProfile(((1, 0),), ()), DomainError, "profile needs one split list per block",
    ),
    "profile with an empty split list": (
        lambda: CoarseningProfile(((1, 0),), ((),)), DomainError, "each block needs at least one sub-block",
    ),
    "profile with a bad sub-block": (
        lambda: CoarseningProfile(((2, 0),), (((2, 0), (0, 0)),)), DomainError, "bad sub-block data (k_ij=0, m_ij=0)",
    ),
    "profile_of at N = 0": (lambda: profile_of(SetPartition((0, 0)), 0, 0), DomainError, "need N >= 1"),
    "profile_of with m out of range": (lambda: profile_of(SetPartition((0, 0)), 1, 3), DomainError, "need 0 <= m <= 2"),
    "profile_of with h not refining t": (
        lambda: profile_of(SetPartition((0, 1)), 1, 0, SetPartition((0, 0))), DomainError, "h must refine t",
    ),
    "count_extensions at N = 0": (
        lambda: count_extensions(single_block_profile(1, 0), 1, 0, 0), DomainError, "need N >= 1",
    ),
    "ratio_R at N = 0": (lambda: ratio_R(1, 1, 0, 0, 0), DomainError, "need N >= 1"),
    "comb_ratio_bound at N = 0": (
        lambda: comb_ratio_bound(CoarseningProfile(((2, 0),), (((1, 0), (1, 0)),)), 0), DomainError, "need N >= 1",
    ),
}


@pytest.mark.parametrize("case", list(INPUT_CHECKS))
def test_input_check_raises_its_error(case):
    call, exc, message = INPUT_CHECKS[case]
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


class TestProfile:
    def test_invariant_validation(self):
        with pytest.raises(DomainError):
            CoarseningProfile(blocks=((2, 3),), splits=(((2, 3),),))  # m_i > k_i
        with pytest.raises(DomainError):
            CoarseningProfile(blocks=((2, 1),), splits=(((1, 1),),))  # split sum short

    def test_profile_of_single_block(self):
        t = SetPartition((0, 0, 0, 0))
        p = profile_of(t, 2, 2)
        assert p.blocks == ((2, 2),)

    def test_profile_of_rejects_unrealizable(self):
        # block sizes 1 and 3 are not both multiples of 2
        with pytest.raises(DomainError):
            profile_of(SetPartition((0, 1, 1, 1)), 2, 0)

    def test_profile_with_refinement(self):
        t = SetPartition((0, 0, 0, 0))
        h = SetPartition((0, 1, 0, 1))
        p = profile_of(t, 2, 2, h)
        assert p.splits == (((1, 1), (1, 1)),)


class TestCountExtensions:
    def test_known_values(self):
        assert count_extensions(single_block_profile(3, 3), 3, 2, 3) == 6
        assert count_extensions(single_block_profile(2, 0), 2, 2, 0) == 3
        assert count_extensions(single_block_profile(2, 2), 2, 2, 2) == 2

    def test_formula_equals_brute_force(self):
        for k in range(1, 4):
            for N in range(1, 4):
                for m in range(k + 1):
                    tests = [coarsening_test(s) for s in enumerate_equipartitions(k, N, m)]
                    for t in enumerate_partitions(k * N, 0):
                        rgs = t.rgs
                        expect = sum(1 for get in tests if get(rgs) == rgs)
                        try:
                            profile = profile_of(t, N, m)
                        except DomainError:
                            assert expect == 0
                            continue
                        assert count_extensions(profile, k, N, m) == expect

    @pytest.mark.parametrize("k", range(1, 8))
    def test_one_block_profile_counts_the_whole_space(self, k):
        # the one-block t is below every equipartition, so its product formula is the space's size
        for N in range(1, 8):
            for m in range(k + 1):
                assert count_extensions(single_block_profile(k, m), k, N, m) == count_equipartitions(k, N, m)

    def test_mismatched_totals(self):
        with pytest.raises(DomainError):
            count_extensions(single_block_profile(2, 0), 3, 2, 0)


class TestEntropyBounds:
    def test_known_values(self):
        assert entropy_bounds(1, 2) == (Fraction(4, 3), 2, Fraction(4))
        assert entropy_bounds(0, 5) == (Fraction(1, 6), 1, Fraction(1))
        assert entropy_bounds(3, 3) == (Fraction(1, 4), 1, Fraction(1))

    def test_sandwich_holds_exactly(self):
        for b in range(1, 65):
            for a in range(b + 1):
                lower, binom, upper = entropy_bounds(a, b)
                assert lower <= binom <= upper

    def test_domain(self):
        with pytest.raises(DomainError):
            entropy_bounds(3, 2)


class TestRatioR:
    def test_known_values(self):
        assert ratio_R(1, 1, 0, 0, 2) == Fraction(1, 3)

    def test_equal_parameters_never_exceed_one(self):
        # with a_i = b_i the ratio is 1/C(2N-2, N-1): equality at N=1 only
        assert ratio_R(1, 1, 1, 1, 1) == 1
        for N in range(1, 6):
            assert ratio_R(1, 1, 1, 1, N) == Fraction(1, comb(2 * N - 2, N - 1))
            assert ratio_R(1, 1, 1, 1, N) <= 1

    def test_two_one_case(self):
        # ((2N)!/2!) * N! * 3! / (3N)! at N=2: (12 * 2 * 6) / 720
        assert ratio_R(2, 1, 0, 0, 2) == Fraction(1, 5)

    def test_weakly_decreasing_in_N(self):
        for a1 in range(1, 5):
            for a2 in range(1, 5):
                for b1 in range(a1):
                    for b2 in range(a2 + 1):
                        vals = [ratio_R(a1, a2, b1, b2, N) for N in range(2, 30)]
                        assert all(x >= y for x, y in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            ratio_R(1, 1, 2, 0, 2)


class TestCombRatioBound:
    def make_split_profile(self, N=2):
        return CoarseningProfile(blocks=((2, 0),), splits=(((1, 0), (1, 0)),))

    # coverage of _binary_entropy at p = 0: the first sub-block holds only distinguished points;
    # profile_of((0,0,0,0), N=2, m=1, h=(0,0,1,1)), exact bound 1/C(2N-1, N-1)
    distinguished_split = CoarseningProfile(((2, 1),), (((1, 1), (1, 0)),))

    def test_known_values(self):
        assert comb_ratio_bound(self.make_split_profile(), 2).exact == Fraction(1, 3)
        assert comb_ratio_bound(self.make_split_profile(), 4).exact == Fraction(1, 35)

    def test_unsplit_profile_rejected(self):
        with pytest.raises(DomainError):
            comb_ratio_bound(single_block_profile(2, 0), 2)

    def test_diagnostic_dominates_exact(self):
        for profile in (self.make_split_profile(), self.distinguished_split):
            for N in range(2, 8):
                bound = comb_ratio_bound(profile, N)
                assert float(bound.exact) <= bound.entropy_diag * (1 + 1e-12)
        for N in range(2, 8):
            assert comb_ratio_bound(self.distinguished_split, N).exact == Fraction(1, comb(2 * N - 1, N - 1))

    def test_bound_actually_bounds_the_bad_fraction(self):
        # fraction of candidates refining the split shape never exceeds the bound
        k, N = 2, 2
        t = SetPartition((0, 0, 0, 0))
        cases = [(0, SetPartition((0, 1, 0, 1)), None), (1, SetPartition((0, 0, 1, 1)), Fraction(1, 3))]
        for m, h, exact in cases:
            profile = profile_of(t, N, m, h)
            candidates = list(enumerate_equipartitions(k, N, m))
            above_h = sum(1 for s in candidates if is_coarsening(h, s))
            above_t = sum(1 for s in candidates if is_coarsening(t, s))
            bound = comb_ratio_bound(profile, N).exact
            assert Fraction(above_h, above_t) <= bound
            if exact is not None:  # the distinguished split: the bound is the true fraction here
                assert profile == self.distinguished_split
                assert Fraction(above_h, above_t) == bound == exact
