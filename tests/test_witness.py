import random
import re
from functools import lru_cache, reduce
from operator import or_

import pytest

from partlab import witness as witness_module
from partlab.errors import CheckError, DomainError, ThresholdError
from partlab.partitions import (
    SetPartition,
    coarsenings_of,
    enumerate_partitions,
    is_coarsening,
    iter_rgs,
    meet_refine,
    rgs_leq,
)
from partlab.prefixes import (
    PartitionPrefix,
    approx_r,
    induced_coarsening_h,
    mu_sequence,
)
from partlab.witness import (
    Adversarial,
    EMapTable,
    Exhaustive,
    Sampled,
    bad_pairs,
    find_witness,
    fusion_conditions_hold,
    fusion_step,
    map_stream,
    min_threshold_comb,
    partition_space,
    verify_comb,
    witness_is_valid,
    _adversarial_values,
    _bad_count,
    _census,
    _comb_context,
    _down_set,
    _fusion_context,
    _greedy_ties,
    _irredundant_cover,
    _kill_masks,
    _lex_index,
    _partition_context,
    _sample_values,
    _witness,
)


class TestEMapTable:
    def test_identity(self):
        e = EMapTable.identity(3)
        for t in enumerate_partitions(3, 0):
            assert e.apply(t) == t

    def test_constant(self):
        bottom = SetPartition((0, 0, 0))
        e = EMapTable.constant(3, bottom)
        for t in enumerate_partitions(3, 0):
            assert e.apply(t) == bottom

    def test_from_assignments(self):
        e = EMapTable.from_assignments(2, {(0, 0): (0, 1)})
        assert e.apply(SetPartition((0, 0))) == SetPartition((0, 1))
        assert e.apply(SetPartition((0, 1))) == SetPartition((0, 1))

    def test_partition_outside_the_space_is_domain_error(self):
        with pytest.raises(DomainError, match=r"\(0, 1\) is not a partition in Q\(4\)"):
            EMapTable.constant(4, SetPartition((0, 1)))
        for assignments in ({(0, 1): (0, 0, 0, 0)}, {(0, 0, 0, 0): (0, 1)}, {(0, 1, 0, 1): (0, 2, 1, 1)}):
            with pytest.raises(DomainError, match=r"is not a partition in Q\(4\)"):
                EMapTable.from_assignments(4, assignments)

    def test_applying_outside_the_space_is_domain_error(self):
        e = EMapTable.identity(4)
        with pytest.raises(DomainError, match=r"\(0, 1\) is not a partition in Q\(4\)"):
            e.apply(SetPartition((0, 1)))
        with pytest.raises(DomainError, match=r"\(0, 1, 2, 3, 4\) is not a partition in Q\(4\)"):
            e.apply_rgs((0, 1, 2, 3, 4))

    @pytest.mark.parametrize("rgs", [(0, 0, 1), (0, 2, 1, 0), (1, 0, 0, 0), (0, 1, 0, -1), (0, 1, 2, 3, 4)])
    def test_lex_index_rejects_a_wrong_length_a_non_rgs_and_an_rgs_outside_the_space(self, rgs):
        with pytest.raises(DomainError, match=rf"^{re.escape(repr(rgs))} is not a partition in Q\(4\)$"):
            _lex_index(4, rgs)

    def test_value_range_checked(self):
        for values in ((0, 5), (-1, 0), (0, 2)):
            with pytest.raises(DomainError, match="value index out of range"):
                EMapTable(2, values)


# input checks: (call, exception, its exact message)
INPUT_CHECKS = {
    "map of the wrong length": (lambda: EMapTable(2, (0,)), DomainError, "map must be total over 2 partitions"),
    "witness search over a map of another size": (
        lambda: find_witness(EMapTable.identity(3), 1, 4), DomainError, "map is over 3 points, expected 4",
    ),
    "census of a map of another size": (
        lambda: bad_pairs(EMapTable.identity(3), 2, 1, 2), DomainError, "map is over 3 points, expected 4",
    ),
    "maps of something not a strategy": (
        lambda: map_stream("sampled", 2, 1, tuple, tuple), DomainError, "unknown strategy 'sampled'",
    ),
    "fusion step separating more than mprime points": (
        lambda: fusion_step(PartitionPrefix.discrete(5), {}, 2, 1, 3), DomainError, "need n0+ell+1 <= mprime, got 4 > 3",
    ),
}


@pytest.mark.parametrize("case", list(INPUT_CHECKS))
def test_input_check_raises_its_error(case):
    call, exc, message = INPUT_CHECKS[case]
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


class TestStrategies:
    @pytest.mark.parametrize("make", [
        lambda: Sampled(-1),
        lambda: Sampled(3, seed=1, start=-2),
        lambda: Adversarial(-1),
        lambda: Exhaustive(cap=-1),
        lambda: Adversarial(3, start=-1),
    ])
    def test_negative_counts_rejected(self, make):
        with pytest.raises(DomainError, match=">= 0"):
            make()

    def test_empty_campaigns_are_valid(self):
        for strategy in (Sampled(0), Adversarial(0)):
            rep = verify_comb(2, 2, 2, strategy)
            assert rep.details["tested"] == 0 and rep.details["all_witnessed"]


class TestBadPairs:
    def test_identity_has_none(self):
        for (k, m, N) in [(2, 2, 1), (2, 0, 2), (3, 2, 1)]:
            rep = bad_pairs(EMapTable.identity(k * N), k, m, N)
            assert rep.bad_pair_count == 0

    def test_single_bad_pair(self):
        e = EMapTable.from_assignments(2, {(0, 0): (0, 1)})
        rep = bad_pairs(e, 2, 2, 1)
        assert rep.bad_pair_count == 1
        assert rep.candidate_count == 1

    def test_constant_bottom_has_none(self):
        e = EMapTable.constant(4, SetPartition((0, 0, 0, 0)))
        rep = bad_pairs(e, 2, 2, 2)
        assert rep.bad_pair_count == 0

    def test_meet_characterization(self):
        # (s, t) is bad iff the common refinement of t and e(t) coarsens s,
        # for every t that is bad for at least one candidate
        rng = random.Random(5)
        n = 4
        space = [p.rgs for p in enumerate_partitions(n, 0)]
        for _ in range(20):
            e = EMapTable(n, tuple(rng.randrange(len(space)) for _ in space))
            for s in enumerate_partitions(n, 2):
                for t in enumerate_partitions(n, 0):
                    if not is_coarsening(t, s):
                        continue
                    et = e.apply(t)
                    bad = is_coarsening(et, s) and not is_coarsening(et, t)
                    if bad:
                        assert is_coarsening(meet_refine(t, et), s)

    def test_reported_witness_must_pass_re_validation(self, monkeypatch):
        monkeypatch.setattr(witness_module, "witness_is_valid", lambda e, s, m: False)
        with pytest.raises(CheckError, match="witness failed independent re-validation"):
            bad_pairs(EMapTable.identity(4), 2, 2, 2)


# (m, mprime) of fusion steps, whose candidates are all of Q^m(mprime)
FUSION_CONFIGS = [(0, 3), (2, 3), (1, 4), (2, 4), (2, 5)]
# fusion families where some of the tested maps have no witness; at m <= 2
# and mprime >= 3 every tested map has one
WITNESS_FREE_CONFIGS = [(2, 2), (3, 4), (3, 5)]


def reference_find_witness(e, m, mprime):
    """The oracle for find_witness: nested rgs_leq loops over each candidate's coarsenings."""
    for s in iter_rgs(mprime, m):
        ok = True
        for t in coarsenings_of(SetPartition(s)):
            v = e.apply_rgs(t.rgs)
            if rgs_leq(v, t.rgs) or not rgs_leq(v, s):
                continue
            ok = False
            break
        if ok:
            return SetPartition(s)
    return None


def killing_map(rng, m, mprime):
    """A map sending a fresh proper coarsening t of each candidate s to s, which kills s."""
    candidates = list(iter_rgs(mprime, m))
    rng.shuffle(candidates)
    assignments = {}
    for s in candidates:
        free = [t.rgs for t in coarsenings_of(SetPartition(s)) if t.rgs != s and t.rgs not in assignments]
        if free:
            assignments[rng.choice(free)] = s
    return EMapTable.from_assignments(mprime, assignments)


class TestFindWitness:
    def test_identity(self):
        assert find_witness(EMapTable.identity(2), 2, 2) == SetPartition((0, 1))

    def test_absent_on_forced_failure(self):
        e = EMapTable.from_assignments(2, {(0, 0): (0, 1), (0, 1): (0, 1)})
        assert find_witness(e, 2, 2) is None

    def test_constant_bottom(self):
        e = EMapTable.constant(3, SetPartition((0, 0, 0)))
        got = find_witness(e, 2, 3)
        assert got == SetPartition((0, 1, 0))  # lex-least element of the separated space

    def test_returned_witness_validates(self):
        rng = random.Random(9)
        size = len(partition_space(4))
        for _ in range(30):
            e = EMapTable(4, tuple(rng.randrange(size) for _ in range(size)))
            w = find_witness(e, 2, 4)
            if w is not None:
                assert witness_is_valid(e, w, 2)

    @pytest.mark.parametrize("config", FUSION_CONFIGS + WITNESS_FREE_CONFIGS)
    def test_equals_the_nested_loop(self, config):
        m, mprime = config
        rng = random.Random(mprime * 10 + m)
        size = len(partition_space(mprime))
        maps = [EMapTable(mprime, tuple(rng.randrange(size) for _ in range(size))) for _ in range(30)]
        maps += [killing_map(rng, m, mprime) for _ in range(30)]
        ctx = _fusion_context(m, mprime)
        maps += [EMapTable(mprime, total_table(ctx, adversarial_values(ctx, 5, i))) for i in range(10)]
        verdicts = [find_witness(e, m, mprime) for e in maps]
        assert verdicts == [reference_find_witness(e, m, mprime) for e in maps]
        assert (None in verdicts) == (config in WITNESS_FREE_CONFIGS)


class TestVerifyComb:
    def test_tiny_exhaustive_counterexample(self):
        rep = verify_comb(2, 2, 1, Exhaustive())
        assert not rep.details["all_witnessed"]
        shapes = {frozenset(shape) for shape in rep.details["counterexample_shapes"]}
        # the unique failing shape sends the one-block partition to the discrete one
        assert shapes == {frozenset({((0, 0), (0, 1))})}

    def test_single_point_space_all_pass(self):
        rep = verify_comb(1, 0, 1, Exhaustive())
        assert rep.details["all_witnessed"]

    def test_sampled_campaign_passes(self):
        rep = verify_comb(3, 2, 2, Sampled(100, seed=7))
        assert rep.details["all_witnessed"]
        assert rep.details["pigeonhole_ok"]

    def test_sampled_chunking_is_invisible(self):
        whole = verify_comb(2, 2, 2, Sampled(40, seed=3))
        first = verify_comb(2, 2, 2, Sampled(25, seed=3))
        rest = verify_comb(2, 2, 2, Sampled(15, seed=3, start=25))
        assert (
            whole.details["failures"]
            == first.details["failures"] + rest.details["failures"]
        )
        assert whole.ratio == max(first.ratio, rest.ratio)

    def test_deterministic_given_seed(self):
        a = verify_comb(2, 2, 2, Sampled(30, seed=11))
        b = verify_comb(2, 2, 2, Sampled(30, seed=11))
        assert a.to_json_dict()["details"] == b.to_json_dict()["details"]
        assert a.ratio == b.ratio

    def test_witness_must_pass_re_validation(self, monkeypatch):
        monkeypatch.setattr(witness_module, "witness_is_valid", lambda e, s, m: False)
        with pytest.raises(CheckError, match="witness failed independent re-validation"):
            verify_comb(3, 2, 2, Sampled(5, seed=7))  # every sampled (3, 2, 2) map has a witness

    def test_witness_must_be_the_least_valid_candidate(self, monkeypatch):
        def last_free(ctx, kills):
            killed = reduce(or_, kills.values(), 0)
            free = [s for ci, s in enumerate(ctx.candidates) if not killed >> ci & 1]
            return free[-1] if free else None

        # some of these maps have more than one witness
        monkeypatch.setattr(witness_module, "_witness", last_free)
        with pytest.raises(CheckError, match="a candidate before the witness passed independent re-validation"):
            verify_comb(3, 2, 2, Sampled(300, seed=3))

    def test_adversarial_first_map_is_deterministic_greedy(self):
        a = verify_comb(2, 2, 2, Adversarial(1, seed=0))
        b = verify_comb(2, 2, 2, Adversarial(1, seed=99))
        assert a.bad_pair_count == b.bad_pair_count
        assert a.ratio == b.ratio


@pytest.mark.parametrize(
    "call",
    [
        lambda: verify_comb(3, 2, 2, Sampled(300, seed=3)),  # every one of these maps has a witness
        lambda: bad_pairs(EMapTable.identity(4), 2, 2, 2),
        lambda: find_witness(EMapTable.identity(2), 2, 2),
    ],
    ids=["verify_comb", "bad_pairs", "find_witness"],
)
def test_a_witness_free_verdict_must_pass_the_independent_scan(monkeypatch, call):
    monkeypatch.setattr(witness_module, "_witness", lambda ctx, kills: None)
    with pytest.raises(CheckError, match="search and independent recheck disagree on witness absence"):
        call()


# (k, m, N) and strategy per generator: assign (exhaustive), sampler, adversary
GENERATED_CAMPAIGNS = [
    *[(kmn, Exhaustive()) for kmn in [(1, 0, 1), (2, 2, 1), (1, 0, 3)]],
    *[(kmn, Sampled(60, seed=3)) for kmn in [(2, 2, 2), (3, 0, 2), (3, 2, 2), (2, 1, 3)]],
    *[(kmn, Adversarial(30, seed=5)) for kmn in [(2, 2, 2), (3, 0, 2), (3, 2, 2), (2, 1, 3)]],
]


def recorded_campaign(monkeypatch, kmn, strategy):
    """verify_comb's report and every map it tested, in order."""
    maps = []
    real = witness_module.map_stream

    def recording(*args):
        stream, seed = real(*args)
        return (maps.append(values) or values for values in stream), seed

    monkeypatch.setattr(witness_module, "map_stream", recording)
    return verify_comb(*kmn, strategy), maps


def total_table(ctx, values):
    """A generated map's total expansion over Q(n): its values at the relevant keys, identity elsewhere."""
    table = list(range(len(space_of(ctx))))
    for ti, vi in values.items():
        table[ti] = vi
    return tuple(table)


class TestCampaignTables:
    """The campaign checks only the values of a map on its relevant keys; these tests hold it to that."""

    @pytest.mark.parametrize("kmn,strategy", GENERATED_CAMPAIGNS)
    def test_generated_maps_hold_exactly_the_relevant_keys(self, monkeypatch, kmn, strategy):
        rep, maps = recorded_campaign(monkeypatch, kmn, strategy)
        ctx = _comb_context(*kmn)
        assert len(maps) == rep.details["tested"] > 0
        for values in maps:
            assert sorted(values) == list(ctx.below)
            table = total_table(ctx, values)
            EMapTable(kmn[0] * kmn[2], table)  # the public constructor's full check
            kills, table_kills = _kill_masks(ctx, values), _kill_masks(ctx, table)
            assert table_kills == kills and _witness(ctx, table_kills) == _witness(ctx, kills)

    @pytest.mark.parametrize("corrupt", [lambda size: size, lambda size: -1], ids=["size", "negative"])
    def test_corrupt_sampler_is_caught(self, monkeypatch, corrupt):
        real = witness_module._sample_values

        def corrupted(ctx, size, rng, seed, i):
            values = real(ctx, size, rng, seed, i)
            values[max(ctx.below)] = corrupt(size)
            return values

        monkeypatch.setattr(witness_module, "_sample_values", corrupted)
        with pytest.raises(DomainError, match="value index out of range"):
            verify_comb(3, 2, 2, Sampled(5, seed=1))

    def test_corrupt_adversary_on_a_witness_free_map_is_caught(self, monkeypatch):
        real = witness_module._adversarial_values

        def corrupted(ctx, rng, seed, i):
            values = real(ctx, rng, seed, i)
            values[max(ctx.below)] = -1
            return values

        ctx = _comb_context(4, 4, 2)
        # witness-free, so the range check must not wait for a witness to re-validate
        assert _witness(ctx, _kill_masks(ctx, corrupted(ctx, random.Random(), 7, 1))) is None
        monkeypatch.setattr(witness_module, "_adversarial_values", corrupted)
        with pytest.raises(DomainError, match="value index out of range"):
            verify_comb(4, 4, 2, Adversarial(1, seed=7, start=1))

    @pytest.mark.parametrize("kmn,strategy", GENERATED_CAMPAIGNS)
    def test_every_witnessed_map_is_revalidated_once(self, monkeypatch, kmn, strategy):
        calls = []
        real = witness_module.witness_is_valid

        def counting(e, s, m):
            calls.append(s)
            return real(e, s, m)

        monkeypatch.setattr(witness_module, "witness_is_valid", counting)
        rep = verify_comb(*kmn, strategy)
        assert len(calls) == rep.details["tested"] - rep.details["failures"]


# -- the lemma condition by nested rgs_leq loops: an oracle for the kernel --


@lru_cache(maxsize=None)
def scan_down_set(n, s):
    """Every t <= s, by rgs_leq over a fresh enumeration of Q(n)."""
    return frozenset(t for t in iter_rgs(n) if rgs_leq(t, s))


def space_of(ctx):
    """All of Q(n) for a partition context on n points, in lex order, so indexed by key."""
    return partition_space(len(ctx.candidates[0]))


@lru_cache(maxsize=32)
def oracle_keys(ctx):
    """Per candidate, the keys of the t below it, from a full rgs_leq scan of Q(n)."""
    index = {t: i for i, t in enumerate(space_of(ctx))}
    return tuple(frozenset(index[t] for t in scan_down_set(len(s), s)) for s in ctx.candidates)


def oracle_witness(ctx, values):
    space = space_of(ctx)
    for s, coar in zip(ctx.candidates, oracle_keys(ctx)):
        if all(
            rgs_leq(space[values[ti]], space[ti]) or not rgs_leq(space[values[ti]], s)
            for ti in coar
        ):
            return s
    return None


def oracle_census(ctx, values):
    space = space_of(ctx)
    per = {}
    for s, coar in zip(ctx.candidates, oracle_keys(ctx)):
        bad = sum(
            1
            for ti in coar
            if rgs_leq(space[values[ti]], s) and not rgs_leq(space[values[ti]], space[ti])
        )
        if bad:
            per[",".join(map(str, s))] = bad
    return per


def oracle_shape(ctx, values):
    space = space_of(ctx)
    shape = set()
    for s, coar in zip(ctx.candidates, oracle_keys(ctx)):
        for ti in coar:
            v = space[values[ti]]
            if rgs_leq(v, s) and not rgs_leq(v, space[ti]):
                shape.add((space[ti], v))
    return frozenset(shape)


@lru_cache(maxsize=32)
def oracle_greedy(ctx):
    space = space_of(ctx)
    keys = oracle_keys(ctx)
    relevant = sorted(set().union(*keys))
    table = []
    for ti in relevant:
        t = space[ti]
        ties, top = [], 0
        for vi in relevant:
            v = space[vi]
            if rgs_leq(v, t):
                continue
            score = sum(
                1
                for s, coar in zip(ctx.candidates, keys)
                if ti in coar and rgs_leq(v, s)
            )
            if score > top:
                top, ties = score, [vi]
            elif score == top and score > 0:
                ties.append(vi)
        if ties:
            table.append((ti, tuple(ties)))
    return tuple(table)


KERNEL_CONFIGS = [(2, 2, 2), (3, 0, 2), (3, 2, 2), (2, 1, 3)]


def context_of(kmn):
    """The comb context of (k, m, N), or the fusion context of (m, mprime)."""
    return _comb_context(*kmn) if len(kmn) == 3 else _fusion_context(*kmn)


class TestLemmaKernel:
    @pytest.mark.parametrize("kmn", KERNEL_CONFIGS + FUSION_CONFIGS)
    def test_kernel_agrees_with_nested_loops(self, kmn):
        ctx = context_of(kmn)
        rng = random.Random(sum(kmn))
        size = len(space_of(ctx))
        maps = [tuple(rng.randrange(size) for _ in range(size)) for _ in range(40)]
        maps += [adversarial_values(ctx, 3, i) for i in range(20)]  # mostly witness-free
        verdicts, bad_maps = set(), 0
        for values in maps:
            kills = _kill_masks(ctx, values)
            witness = _witness(ctx, kills)
            per = oracle_census(ctx, values)
            assert witness == oracle_witness(ctx, values)
            assert _census(ctx, kills) == per
            assert _bad_count(kills) == sum(per.values())
            assert {(ctx.space[ti], ctx.space[values[ti]]) for ti in kills} == oracle_shape(ctx, values)
            verdicts.add(witness is not None)
            bad_maps += bool(kills)
        assert bad_maps and True in verdicts
        if kmn == (3, 2, 2):  # the greedy adversary finds witness-free maps here only
            assert False in verdicts

    @pytest.mark.parametrize("kmn", KERNEL_CONFIGS + FUSION_CONFIGS)
    def test_greedy_scores_agree_with_nested_loops(self, kmn):
        ctx = context_of(kmn)
        assert _greedy_ties(ctx) == oracle_greedy(ctx)

    @pytest.mark.parametrize("kmn", KERNEL_CONFIGS + FUSION_CONFIGS)
    def test_below_masks_match_coarsening_tables(self, kmn):
        ctx = context_of(kmn)
        keys = oracle_keys(ctx)
        assert list(ctx.below) == sorted(ctx.below) == sorted(set().union(*keys))
        for ti, mask in ctx.below.items():
            assert mask == sum(1 << ci for ci, coar in enumerate(keys) if ti in coar)

    # every s up to 7 points; at 8 points every 41st s in lex order and the
    # last, since all 4140 would ask rgs_leq of 4140**2 pairs; at 9 points
    # every 997th and the last
    @pytest.mark.parametrize("n", range(1, 10))
    def test_down_set_equals_the_rgs_leq_scan(self, n):
        space = partition_space(n)
        step = {8: 41, 9: 997}.get(n, 1)
        for s in space[::step] + (space[-1:] if step > 1 else ()):
            down = _down_set(s)
            assert frozenset(down.values()) == scan_down_set(n, s)
            assert all(space[key] == t for key, t in down.items())  # keyed by lex rank

    @pytest.mark.parametrize("kmn", KERNEL_CONFIGS + FUSION_CONFIGS)
    def test_down_set_is_the_coarsening_set(self, kmn):
        ctx = context_of(kmn)
        for s in ctx.candidates:
            down = _down_set(s).values()
            assert set(down) == {t.rgs for t in coarsenings_of(SetPartition(s))}
            assert len(down) == len(set(down))


def oracle_sample_values(ctx, seed, sample_index):
    """A sampled map as a fresh random.Random per map and randrange draw it, on the relevant keys."""
    rng = random.Random((seed << 32) ^ (sample_index * 0x9E3779B9 + 1))
    size = len(space_of(ctx))
    return {ti: rng.randrange(size) for ti in ctx.below}


class TestSampler:
    @pytest.mark.parametrize(
        "kmn,size",
        [((1, 0, 1), 1), ((2, 2, 1), 2), ((1, 0, 3), 5), ((2, 1, 2), 15), ((1, 0, 5), 52), ((3, 2, 2), 203)],
    )
    def test_draws_equal_a_fresh_generator_per_map(self, kmn, size):
        ctx = _comb_context(*kmn)
        assert len(space_of(ctx)) == size
        rng = random.Random()  # one generator for every map, as in a campaign
        for seed in (0, 7, 2**40):
            for i in range(51):
                assert _sample_values(ctx, size, rng, seed, i) == oracle_sample_values(ctx, seed, i)


def adversarial_values(ctx, seed, map_index):
    """One greedy map, with a generator of its own."""
    return _adversarial_values(ctx, random.Random(), seed, map_index)


def oracle_adversarial_values(ctx, seed, map_index):
    """A greedy map as a fresh random.Random per map and rng.choice per tie draw it, on the relevant keys."""
    rng = random.Random((seed << 32) ^ (map_index * 0x85EBCA6B + 3))
    values = {ti: ti for ti in sorted(set().union(*oracle_keys(ctx)))}
    for ti, ties in oracle_greedy(ctx):
        values[ti] = min(ties) if map_index == 0 else rng.choice(ties)
    return values


# two Q(4) candidates whose first tie has one value and later ties more; no
# comb or fusion family on at most 7 points has a one-value tie before another
ONE_VALUE_TIE = ((0, 0, 0, 1), (0, 1, 2, 3))


class TestAdversary:
    @pytest.mark.parametrize("kmn", KERNEL_CONFIGS + FUSION_CONFIGS + [ONE_VALUE_TIE])
    def test_draws_equal_a_fresh_generator_per_map(self, kmn):
        ctx = _partition_context(kmn) if kmn == ONE_VALUE_TIE else context_of(kmn)
        rng = random.Random()  # one generator for every map, as in a campaign
        for seed in (0, 7, 2**40):
            for i in range(51):
                assert _adversarial_values(ctx, rng, seed, i) == oracle_adversarial_values(ctx, seed, i)

    def test_one_value_tie_comes_before_larger_ties(self):
        # so a one-value tie that skipped its draw would shift every later draw
        counts = [len(ties) for _, ties in _greedy_ties(_partition_context(ONE_VALUE_TIE))]
        assert counts[0] == 1 and max(counts[1:]) > 1

    def test_shapes_are_sorted_rgs_pairs(self):
        rep = verify_comb(3, 2, 2, Adversarial(40, seed=3))
        shapes = rep.details["counterexample_shapes"]
        assert shapes and len({frozenset(shape) for shape in shapes}) == len(shapes)
        space = set(partition_space(6))
        for shape in shapes:
            assert shape == sorted(set(shape))
            assert all(t in space and v in space and not rgs_leq(v, t) for t, v in shape)

    def test_shapes_share_one_entry_per_key_pair(self):
        rep = verify_comb(4, 4, 2, Adversarial(10, seed=3))
        entries = [entry for shape in rep.details["counterexample_shapes"] for entry in shape]
        first = {}
        for entry in entries:
            assert first.setdefault(entry, entry) is entry
        assert len(entries) > len(first)  # some key pair is in more than one shape


class TestIrredundantCover:
    """The shape reducer, checked on random kill dicts against the unions of their masks."""

    def test_random_kill_dicts(self):
        rng = random.Random(28)
        dicts = []
        for _ in range(400):
            width = rng.randint(1, 16)
            bits = rng.randint(1, width)  # few bits per mask leave much to drop, many little
            keys = sorted(rng.sample(range(300), rng.randint(0, 40)))
            dicts.append({key: sum(1 << b for b in rng.sample(range(width), rng.randint(1, bits))) for key in keys})
        covers = [_irredundant_cover(kills) for kills in dicts]
        dropped = 0
        for kills, kept in zip(dicts, covers):
            assert list(kept) == sorted(set(kept)) and set(kept) <= set(kills)
            union = reduce(or_, kills.values(), 0)
            assert reduce(or_, (kills[key] for key in kept), 0) == union
            for key in kept:  # each kept entry is necessary
                assert reduce(or_, (kills[other] for other in kept if other != key), 0) != union
            dropped += len(kills) - len(kept)
        assert dropped > 0
        # the output depends on the input alone: equal fresh dicts, asked in another order, give the same keys
        for kills, kept in reversed(list(zip(dicts, covers))):
            assert _irredundant_cover({key: int(str(mask)) for key, mask in kills.items()}) == kept

    def test_a_mask_killed_by_later_keys_is_dropped(self):
        # tried from the largest key down: 9 and 5 are kept, and 2's one candidate is killed by 5
        assert _irredundant_cover({2: 0b010, 5: 0b011, 9: 0b100}) == (5, 9)
        # 5 is dropped: 9 is kept and 2, untried when 5 is, kills 5's other candidate
        assert _irredundant_cover({2: 0b001, 5: 0b011, 9: 0b110}) == (2, 9)
        assert _irredundant_cover({}) == ()


def scanned_equipartitions(k, m, N):
    """The comb candidates, filtered from a scan of Q^m(kN) instead of the search's enumeration."""
    return [
        SetPartition(rgs)
        for rgs in iter_rgs(k * N, m)
        if len(set(rgs)) == k and all(rgs.count(b) == N for b in range(k))
    ]


def test_442_adversarial_shapes_are_certified_irredundant():
    # each shape, rebuilt with every other argument mapped to itself, leaves no candidate
    # valid, and loses that with any one entry dropped; witness_is_valid shares no mask with the reducer
    k, m, N = 4, 4, 2
    rep = verify_comb(k, m, N, Adversarial(20, seed=7))
    shapes = rep.details["counterexample_shapes"]
    candidates = scanned_equipartitions(k, m, N)
    assert shapes and len(candidates) == rep.candidate_count == 24

    def witnessed(entries):
        e = EMapTable.from_assignments(k * N, dict(entries))
        return any(witness_is_valid(e, s, m) for s in candidates)

    for shape in shapes:
        assert not witnessed(shape)
        for i in range(len(shape)):
            assert witnessed(shape[:i] + shape[i + 1 :])


@pytest.mark.parametrize("n", range(1, 10))
def test_partition_space_is_strictly_increasing(n):
    space = partition_space(n)
    assert all(a < b for a, b in zip(space, space[1:]))


def oracle_is_valid(e, s, m):
    """The lemma condition for s, pair by pair over all of Q(n), by rgs_leq alone."""
    if any(s[i] != i for i in range(min(m, len(s)))):
        return False
    space = list(iter_rgs(e.n))
    for t, vi in zip(space, e.values):
        v = space[vi]
        if rgs_leq(t, s) and rgs_leq(v, s) and not rgs_leq(v, t):
            return False
    return True


class TestWitnessIsValid:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_agrees_with_pairwise_check_over_the_whole_space(self, n):
        rng = random.Random(n)
        space = list(iter_rgs(n))
        index = {t: i for i, t in enumerate(space)}
        size = len(space)
        candidates = [(0,) * n, tuple(range(n))] + rng.sample(space, 4)
        verdicts = set()
        for s in candidates:
            down = [t for t in space if rgs_leq(t, s)]
            maps = [tuple(rng.randrange(size) for _ in range(size)) for _ in range(2)]
            for _ in range(3):
                # e(t) inside down(s) for every t <= s, about half of them also <= t
                values = list(range(size))
                for t in down:
                    v = rng.choice(down)
                    if rng.random() < 0.5 and not rgs_leq(v, t):
                        v = t
                    values[index[t]] = index[v]
                maps.append(tuple(values))
            for values in maps:
                e = EMapTable(n, values)
                for m in (0, 2):
                    verdict = witness_is_valid(e, SetPartition(s), m)
                    assert verdict == oracle_is_valid(e, s, m)
                    verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_rejects_map_built_to_invalidate_s(self):
        k, m, N = 3, 2, 2
        ctx = _comb_context(k, m, N)
        for s in ctx.candidates[:4]:
            assert witness_is_valid(EMapTable.identity(k * N), SetPartition(s), m)
            for t in _down_set(s).values():
                if t == s:
                    continue
                # e(t) = s coarsens s but not t: (s, t) is a bad pair
                e = EMapTable.from_assignments(k * N, {t: s})
                assert not witness_is_valid(e, SetPartition(s), m)

    @pytest.mark.parametrize("s", [(0, 1, 2), (0, 1, 2, 3, 4), ()])
    def test_candidate_of_another_size_is_domain_error(self, s):
        with pytest.raises(DomainError, match=f"candidate has {len(s)} points, map is over 4"):
            witness_is_valid(EMapTable.identity(4), SetPartition(s), 0)

    def test_rejects_unseparated_prefix(self):
        assert not witness_is_valid(EMapTable.identity(4), SetPartition((0, 0, 1, 1)), 2)

    def test_shares_no_path_with_the_search(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("re-validation used the search's enumeration")

        for name in (
            "_coarsening_rgs", "_comb_context", "_fusion_context", "_LemmaContext", "iter_equipartition_rgs",
            "partition_space", "iter_rgs",
        ):
            monkeypatch.setattr(witness_module, name, forbidden)
        _down_set.cache_clear()
        s = SetPartition((0, 1, 2, 0, 1, 2))
        assert witness_is_valid(EMapTable.identity(6), s, 2)


class TestMinThreshold:
    def test_single_block_space(self):
        found, _ = min_threshold_comb(1, 0, Sampled(20, seed=1), 3)
        assert found == 1

    def test_separated_pair_needs_two(self):
        found, reports = min_threshold_comb(2, 2, Sampled(200, seed=1), 4)
        assert found == 2
        assert all(r.details["empirical"] for r in reports)

    def test_empty_search_range_is_a_domain_error(self):
        for n_max in (0, -2):
            with pytest.raises(DomainError):
                min_threshold_comb(2, 2, Sampled(5, seed=1), n_max)

    @pytest.mark.parametrize("search", [Sampled(0, seed=1), Adversarial(0, seed=7)], ids=["sampled", "adversarial"])
    def test_a_search_that_tests_no_maps_is_a_domain_error(self, search):
        def campaign(k, m, N, strategy):
            raise AssertionError("a campaign ran")

        # (3, 2) has witness-free maps at N = 2, so a clean campaign of no maps would claim a false threshold
        with pytest.raises(DomainError, match=rf"^{re.escape(search.label())} tests no maps, so it can find no threshold$"):
            min_threshold_comb(3, 2, search, 4, campaign)

    def test_no_clean_N_up_to_the_bound(self):
        # the greedy adversary leaves witness-free maps at N = 1 and N = 2 for (k, m) = (3, 2)
        found, reports = min_threshold_comb(3, 2, Adversarial(50, seed=7), 2)
        assert found is None
        assert [r.params["N"] for r in reports] == [1, 2]
        assert [r.details["failures"] for r in reports] == [50, 2]
        assert all(r.details["empirical"] and not r.details["all_witnessed"] for r in reports)

    def test_any_strategy_and_campaign(self):
        calls = []

        def campaign(k, m, N, strategy):
            calls.append(N)
            return verify_comb(k, m, N, strategy)

        found, reports = min_threshold_comb(2, 2, Adversarial(5, seed=2), 4, campaign)
        assert calls == list(range(1, found + 1))
        assert [r.strategy for r in reports] == ["adversarial(5, seed=2)"] * found


def random_f_table(B, mprime, seed):
    rng = random.Random(seed)
    space = partition_space(mprime)
    table = {}
    for t in space:
        key = induced_coarsening_h(SetPartition(t), B, mprime)
        value = induced_coarsening_h(SetPartition(rng.choice(space)), B, mprime)
        table[key] = value
    return table


class TestFusionStep:
    def test_identity_table(self):
        B = PartitionPrefix.discrete(7)
        mprime = 3
        table = {}
        for t in enumerate_partitions(mprime, 0):
            h = induced_coarsening_h(t, B, mprime)
            table[h] = h
        B_new = fusion_step(B, table, 0, 0, mprime)
        # witness space is Q^1(3); its lex-least element is the single block
        assert B_new == induced_coarsening_h(SetPartition((0, 0, 0)), B, mprime)

    def test_partial_table_is_an_error(self):
        B = PartitionPrefix.discrete(6)
        with pytest.raises(DomainError):
            fusion_step(B, {}, 0, 0, 3)

    def test_search_and_recheck_disagreeing_is_an_error(self, monkeypatch):
        B = PartitionPrefix.discrete(8)
        table = random_f_table(B, 4, seed=0)
        assert fusion_step(B, table, 0, 1, 4) is not None  # this table has a witness
        monkeypatch.setattr(witness_module, "_witness", lambda ctx, kills: None)
        with pytest.raises(CheckError, match="disagree on witness absence"):
            fusion_step(B, table, 0, 1, 4)

    def test_witness_must_pass_re_validation(self, monkeypatch):
        B = PartitionPrefix.discrete(8)
        table = random_f_table(B, 4, seed=0)  # has a witness, as above
        monkeypatch.setattr(witness_module, "witness_is_valid", lambda e, s, m: False)
        with pytest.raises(CheckError, match="witness failed independent re-validation"):
            fusion_step(B, table, 0, 1, 4)

    def test_approximation_preserved(self):
        for seed in range(10):
            B = PartitionPrefix.discrete(8)
            table = random_f_table(B, 3, seed)
            B_new = fusion_step(B, table, 0, 1, 3)
            assert approx_r(B_new, 1) == approx_r(B, 1)

    def test_conditions_hold_on_random_tables(self):
        for seed in range(25):
            B = PartitionPrefix.discrete(8)
            table = random_f_table(B, 4, seed)
            try:
                B_new = fusion_step(B, table, 0, 1, 4)
            except ThresholdError:
                continue
            cond1, cond2 = fusion_conditions_hold(B, B_new, table, 0, 1)
            assert cond1 and cond2

    @pytest.mark.parametrize("rgs,expect", [
        # A coarsens B and shows mu_2(B) = 2 as a block minimum, and tr(f(A), B, 2) = (0, 1)
        # coarsens r_2(B) = (0, 1) but not tr(A, B, 2) = (0, 0): the trace disjunction fails
        ((0, 0, 1, 2, 3), (True, False)),
        # mu_2(B) = 2 is not a block minimum of A, so the entry is skipped
        ((0, 0, 0, 1, 2), (True, True)),
    ])
    def test_trace_disjunction_check_can_fail(self, rgs, expect):
        B = PartitionPrefix.discrete(5)
        assert fusion_conditions_hold(B, B, {PartitionPrefix(rgs): B}, 1, 0) == expect

    def test_embedded_counterexample_raises_threshold_error(self):
        # the forced failure at mprime = n0 + ell + 1 = 2 has no witness
        B = PartitionPrefix.discrete(5)
        mprime = 2
        bad = {(0, 0): (0, 1), (0, 1): (0, 1)}
        table = {}
        for t in enumerate_partitions(mprime, 0):
            h = induced_coarsening_h(t, B, mprime)
            target = SetPartition(bad[t.rgs])
            table[h] = induced_coarsening_h(target, B, mprime)
        with pytest.raises(ThresholdError):
            fusion_step(B, table, 0, 1, mprime)

    def test_new_prefix_coarsens_old(self):
        B = PartitionPrefix((0, 1, 2, 0, 3, 4, 5, 1))
        table = random_f_table(B, 3, seed=2)
        B_new = fusion_step(B, table, 0, 0, 3)
        assert is_coarsening(B_new.as_partition(), B.as_partition())
        assert len(mu_sequence(B_new)) <= len(mu_sequence(B))
