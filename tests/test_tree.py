import itertools
import random
from fractions import Fraction

import pytest

from partlab import tree as tree_module
from partlab import witness as witness_module
from partlab.errors import BudgetError, CheckError, DomainError
from partlab.tree import (
    BlockPartitionKN,
    enumerate_sections,
    equal_block_partition,
    find_section_witness,
    intermediate_sum_bound,
    least_N_below_one,
    section_bound,
    verify_tree,
    witness_via_equal_blocks,
)
from partlab.tree import _masks, _random_table, _section_context
from partlab.witness import Adversarial, Exhaustive, Sampled


def constant_table(P, value):
    return {F: value for F in enumerate_sections(P)}


# input checks: (call, exception, its exact message)
INPUT_CHECKS = {
    "block partition at N = 0": (
        lambda: BlockPartitionKN(({0},), 0), DomainError, "need N >= 1 and at least one block",
    ),
    "block partition of no blocks": (
        lambda: BlockPartitionKN((), 1), DomainError, "need N >= 1 and at least one block",
    ),
    "section bound of no blocks": (lambda: section_bound(0, 2), DomainError, "need k >= 1 and N >= 1"),
    "least N below one at k = 0": (lambda: least_N_below_one(0), DomainError, "need k >= 1, got k=0"),
    "least N below one at k = -1": (lambda: least_N_below_one(-1), DomainError, "need k >= 1, got k=-1"),
}


@pytest.mark.parametrize("case", list(INPUT_CHECKS))
def test_input_check_raises_its_error(case):
    call, exc, message = INPUT_CHECKS[case]
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


class TestBlockPartition:
    def test_validation(self):
        with pytest.raises(DomainError):
            BlockPartitionKN((frozenset({0}),), 2)  # block below the floor
        with pytest.raises(DomainError):
            BlockPartitionKN((frozenset({0, 1}), frozenset({1, 2})), 1)  # overlap

    def test_counts(self):
        P = BlockPartitionKN((frozenset({0, 1}), frozenset({2, 3, 4})), 2)
        assert P.section_count() == 3 * 4
        assert P.complete_section_count() == 2 * 3

    def test_ground_is_derived_not_passed(self):
        blocks = (frozenset({0, 1}), frozenset({5, 7, 9}))
        with pytest.raises(TypeError):
            BlockPartitionKN(blocks, 2, ground=frozenset({42}))
        P = BlockPartitionKN(blocks, 2)
        assert P.ground == frozenset().union(*P.blocks)

    def test_equal_partitions_hash_equal(self):
        # _section_context's cache is keyed by the partition
        P = BlockPartitionKN(({0, 1}, {2, 3}), 2)
        Q = equal_block_partition(2, 2)
        assert P == Q and hash(P) == hash(Q)
        assert _section_context(P) is _section_context(Q)


class TestEnumerateSections:
    def test_two_singletons(self):
        P = BlockPartitionKN((frozenset({0}), frozenset({1})), 1)
        got = set(enumerate_sections(P))
        assert got == {
            frozenset(),
            frozenset({0}),
            frozenset({1}),
            frozenset({0, 1}),
        }
        assert [F for F in enumerate_sections(P) if len(F) == P.k] == [frozenset({0, 1})]

    def test_two_by_two(self):
        P = equal_block_partition(2, 2)
        assert sum(1 for _ in enumerate_sections(P)) == 9

    def test_count_formulas(self):
        for sizes in itertools.product(range(1, 5), repeat=3):
            if (sizes[0] + 1) * (sizes[1] + 1) * (sizes[2] + 1) > 200:
                continue
            base = 0
            blocks = []
            for sz in sizes:
                blocks.append(frozenset(range(base, base + sz)))
                base += sz
            P = BlockPartitionKN(tuple(blocks), 1)
            assert sum(1 for _ in enumerate_sections(P)) == P.section_count()
            assert (
                sum(1 for F in enumerate_sections(P) if len(F) == P.k)
                == P.complete_section_count()
            )


class TestFindSectionWitness:
    def test_empty_valued_map(self):
        P = equal_block_partition(2, 2)
        w = find_section_witness(constant_table(P, frozenset()), P)
        assert w == frozenset({0, 2})  # least complete section in the fixed order

    def test_identity_map(self):
        P = equal_block_partition(2, 3)
        table = {F: F for F in enumerate_sections(P)}
        assert find_section_witness(table, P) == frozenset({0, 3})

    def test_complement_adversary_defeats_singleton_blocks(self):
        P = BlockPartitionKN((frozenset({0}), frozenset({1})), 1)
        X = P.ground
        table = {F: X - F for F in enumerate_sections(P)}
        assert find_section_witness(table, P) is None

    def test_partial_table_rejected(self):
        P = equal_block_partition(2, 2)
        table = {frozenset(): frozenset()}
        with pytest.raises(DomainError):
            find_section_witness(table, P)

    def test_value_outside_the_ground_is_domain_error(self):
        P = equal_block_partition(2, 2)
        with pytest.raises(DomainError, match="^point 99 is not in the ground set$"):
            find_section_witness(constant_table(P, frozenset({99})), P)

    def test_keys_beyond_the_sections_are_ignored(self):
        P = equal_block_partition(2, 2)
        table = constant_table(P, frozenset())
        table[frozenset({99})] = frozenset({99})
        table[frozenset({0, 1})] = frozenset({0, 1, 2, 3})  # not a section: both points in one block
        assert find_section_witness(table, P) == frozenset({0, 2})


# -- the lemma condition by a per-map submask walk: an oracle for the kernel --


def reference_find_section_witness(e, P):
    """Least complete section E whose every subset F has e(F) <= F or e(F) !<= E."""
    mask = _masks(P)
    emask = {mask(f): mask(v) for f, v in e.items()}
    for E in (F for F in enumerate_sections(P) if len(F) == P.k):
        em = mask(E)
        sub = em
        while True:
            v = emask[sub]
            if not (v & ~sub == 0 or v & ~em != 0):
                break
            if sub == 0:
                return E
            sub = (sub - 1) & em
    return None


def oracle_maps(P, seed):
    """Seeded random maps, onto point sets and onto sections, and three fixed families."""
    rng = random.Random(seed)
    sections = list(enumerate_sections(P))
    X = P.ground
    maps = [_random_table(P, seed, i) for i in range(20)]
    maps += [{F: rng.choice(sections) for F in sections} for _ in range(40)]
    maps.append({F: F for F in sections})
    maps.append({F: X - F for F in sections})
    maps += [{F: F | {p} for F in sections} for p in sorted(X)]
    return maps


ORACLE_PARTITIONS = [
    equal_block_partition(k, N) for k, N in [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (2, 5)]
] + [BlockPartitionKN((frozenset({3, 9}), frozenset({1, 4, 7}), frozenset({0, 20})), 2)]


class TestSectionKernel:
    def test_kernel_agrees_with_submask_walk(self):
        verdicts = set()
        for seed, P in enumerate(ORACLE_PARTITIONS):
            for e in oracle_maps(P, seed):
                witness = find_section_witness(e, P)
                assert witness == reference_find_section_witness(e, P)
                verdicts.add(witness is not None)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("P", ORACLE_PARTITIONS, ids=lambda P: str(sorted(map(sorted, P.blocks))))
    def test_below_masks_are_the_containing_complete_sections(self, P):
        ctx, sections, mask = _section_context(P)
        assert ctx.candidates == tuple(F for F in enumerate_sections(P) if len(F) == P.k)
        assert sorted(ctx.below) == sorted(map(mask, sections))
        for F in sections:
            assert ctx.below[mask(F)] == sum(1 << ci for ci, E in enumerate(ctx.candidates) if F <= E)


class TestBound:
    def test_closed_form(self):
        assert section_bound(2, 8) == Fraction(15, 16)
        assert section_bound(1, 1) == 2

    def test_thresholds(self):
        assert least_N_below_one(2) == 8
        assert least_N_below_one(3) == 23
        assert section_bound(2, 7) >= 1
        assert section_bound(3, 22) >= 1

    def test_thresholds_below_the_old_scan_cap(self):
        assert [least_N_below_one(k) for k in range(1, 10)] == [3, 8, 23, 63, 158, 382, 893, 2045, 4604]

    @pytest.mark.parametrize("k", range(10, 15))
    def test_threshold_above_the_old_scan_cap_is_least(self, k):
        N = least_N_below_one(k)
        assert section_bound(k, N) < 1 <= section_bound(k, N - 1)
        assert k != 10 or N == 10236

    def test_intermediate_sum_dominates_nothing_vacuous(self):
        # the stated pre-relaxation sum is itself below the closed form
        for k in range(1, 4):
            for N in range(2, 12):
                assert intermediate_sum_bound(k, N) <= section_bound(k, N)


class TestVerifyTree:
    def test_exhaustive_tiny(self):
        rep = verify_tree(1, 1, Exhaustive(cap=10**4))
        assert rep.details["tested"] == 4
        assert rep.details["lemma"] == "tree"

    def test_exhaustive_below_one_bound_all_pass(self):
        rep = verify_tree(1, 3, Exhaustive(cap=10**4))
        assert rep.details["tested"] == 4096
        assert rep.details["all_witnessed"]
        assert rep.details["bound_respected"]

    def test_sampled_campaign(self):
        rep = verify_tree(2, 8, Sampled(100, seed=3))
        assert rep.details["all_witnessed"]
        assert rep.ratio <= rep.details["bound"]
        assert rep.details["least_N_below_one"] == 8

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            verify_tree(2, 4, Exhaustive(cap=10))

    def test_size_wall_before_any_section_is_made(self, monkeypatch):
        def enumerated(P):
            raise AssertionError("sections were enumerated")

        monkeypatch.setattr(tree_module, "enumerate_sections", enumerated)
        with pytest.raises(BudgetError, match="section context of 49 points in 7 blocks is too large"):
            verify_tree(7, 7, Sampled(1))

    def test_greedy_precompute_past_the_cap_is_refused_before_the_context_is_built(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the context or the precompute was built")

        monkeypatch.setattr(tree_module, "_LemmaContext", forbidden)
        monkeypatch.setattr(witness_module, "_greedy_ties", forbidden)
        # 2^9 complete sections of 2^9 subsets each: (2^9)(2^9)^2 = 2^27 score additions
        with pytest.raises(BudgetError, match="precompute of 134217728 score additions exceeds the cap"):
            verify_tree(9, 2, Adversarial(1))
        assert 5**6 * 4**6 <= witness_module._GREEDY_CAP  # (6,5), the largest context the size wall admits

    def test_size_wall_admits_six_by_five_and_refuses_six_by_six(self):
        def mask_bits(k, N):
            P = equal_block_partition(k, N)
            return P.section_count() * P.complete_section_count()

        assert mask_bits(6, 5) <= tree_module._SECTION_CAP < mask_bits(6, 6)

    @pytest.mark.parametrize(
        "bound, respected",
        [(Fraction(1, 2), False), (Fraction(5, 9), True), (Fraction(1), True), (Fraction(3, 2), True)],
    )
    def test_bound_respected_compares_the_worst_ratio(self, monkeypatch, bound, respected):
        # the worst of these maps has 5 of 9 complete sections bad; a bound above 1 is vacuous
        real = tree_module.section_bound
        monkeypatch.setattr(tree_module, "section_bound", lambda k, N: bound if (k, N) == (2, 3) else real(k, N))
        rep = verify_tree(2, 3, Sampled(300, seed=3))
        assert rep.ratio == Fraction(5, 9) and rep.details["bound"] == bound
        assert rep.details["bound_respected"] is respected

    def test_default_exhaustive_cap(self):
        assert Exhaustive().cap == 1_000_000
        with pytest.raises(BudgetError, match="cap of 1000000"):
            verify_tree(2, 2, Exhaustive())  # 16**9 maps

    @pytest.mark.parametrize(
        "k, N, strategy, found",
        [
            # every sampled (2, 8) map has a witness
            (2, 8, Sampled(5, seed=3), None),
            # some (1, 1) map has none, so its one complete section is bad
            (1, 1, Exhaustive(cap=10**4), frozenset({0})),
        ],
        ids=["missed-witness", "witness-where-every-section-is-bad"],
    )
    def test_search_must_agree_with_the_independent_count(self, monkeypatch, k, N, strategy, found):
        monkeypatch.setattr("partlab.tree.find_section_witness", lambda e, P: found)
        with pytest.raises(CheckError, match="disagrees"):
            verify_tree(k, N, strategy)

    def test_witness_must_pass_re_validation(self, monkeypatch):
        def bad(e, E):
            pts = sorted(E)
            subsets = (frozenset(c) for r in range(len(pts) + 1) for c in itertools.combinations(pts, r))
            return any(not (e[F] <= F or not e[F] <= E) for F in subsets)

        def bad_section_beside_a_good_one(e, P):
            complete = [E for E in enumerate_sections(P) if len(E) == P.k]
            verdicts = [bad(e, E) for E in complete]
            if all(verdicts) or not any(verdicts):
                return find_section_witness(e, P)
            return complete[verdicts.index(True)]

        # the worst of these maps has 5 of 9 complete sections bad, so some map mixes both
        monkeypatch.setattr("partlab.tree.find_section_witness", bad_section_beside_a_good_one)
        with pytest.raises(CheckError, match="section witness failed independent re-validation"):
            verify_tree(2, 3, Sampled(300, seed=3))

    def test_search_must_return_the_least_witness(self, monkeypatch):
        def last_valid_section(e, P):
            valid = [E for E in enumerate_sections(P) if len(E) == P.k and tree_module._witness_valid(e, E)]
            return valid[-1] if valid else None

        # some of these maps have more than one valid complete section
        monkeypatch.setattr("partlab.tree.find_section_witness", last_valid_section)
        with pytest.raises(CheckError, match="disagrees"):
            verify_tree(2, 3, Sampled(300, seed=3))

    @pytest.mark.parametrize(
        "k, N, strategy", [(2, 3, Sampled(40, seed=3)), (1, 1, Exhaustive(cap=10**4))], ids=["sampled", "exhaustive"]
    )
    def test_one_independent_verdict_per_complete_section(self, monkeypatch, k, N, strategy):
        calls = []
        real = tree_module._witness_valid
        monkeypatch.setattr(tree_module, "_witness_valid", lambda e, E: calls.append(E) or real(e, E))
        rep = verify_tree(k, N, strategy)
        assert len(calls) == rep.details["tested"] * rep.candidate_count

    # the greedy adversary's witness-free maps of 200, each certified by the set-based count
    @pytest.mark.parametrize("k, N, failures", [(3, 3, 34), (4, 3, 173), (2, 3, 0)])
    def test_adversarial_campaign(self, k, N, failures):
        rep = verify_tree(k, N, Adversarial(200, seed=7))
        assert rep.strategy == "adversarial(200, seed=7)"
        assert (rep.details["tested"], rep.details["failures"]) == (200, failures)
        assert rep.details["all_witnessed"] is (failures == 0)

    def test_adversarial_chunks_add_up_to_the_whole_campaign(self):
        whole = verify_tree(3, 3, Adversarial(200, seed=7))
        parts = [verify_tree(3, 3, Adversarial(100, seed=7, start=start)) for start in (0, 100)]
        assert sum(p.details["failures"] for p in parts) == whole.details["failures"]
        assert max(p.bad_pair_count for p in parts) == whole.bad_pair_count

    def test_adversarial_verdicts_must_agree_with_the_independent_count(self, monkeypatch):
        # the campaign has witnessed maps, so a kernel that finds none is caught
        monkeypatch.setattr(tree_module, "_witness", lambda ctx, kills: None)
        with pytest.raises(CheckError, match="disagrees"):
            verify_tree(3, 3, Adversarial(200, seed=7))

    def test_deterministic_given_seed(self):
        a = verify_tree(2, 3, Sampled(30, seed=5))
        b = verify_tree(2, 3, Sampled(30, seed=5))
        assert a.ratio == b.ratio
        assert a.details["failures"] == b.details["failures"]


class TestShrinkAndLift:
    def test_witness_lifts_to_original(self):
        rng = random.Random(17)
        for trial in range(25):
            sizes = [rng.randrange(2, 5) for _ in range(3)]
            base = 0
            blocks = []
            for sz in sizes:
                blocks.append(frozenset(range(base, base + sz)))
                base += sz
            P = BlockPartitionKN(tuple(blocks), 2)
            e = _random_table(P, seed=trial, sample_index=0)
            w = witness_via_equal_blocks(e, P)
            if w is None:
                continue
            # the lifted witness is complete for P and satisfies the condition
            # for every subset under the original (unshrunken) map
            assert all(len(w & b) == 1 for b in P.blocks)
            pts = sorted(w)
            for r in range(1 << len(pts)):
                F = frozenset(p for i, p in enumerate(pts) if r >> i & 1)
                assert e[F] <= F or not e[F] <= w
