"""Acceptance gate: eleven go/no-go checks at stated tolerances.

Each test prints one PASS/FAIL line (visible under pytest -s and in the
failure summary otherwise).  Checks are exact unless a runtime budget is
part of the criterion.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

from partlab.counting import count_extensions, entropy_bounds, profile_of, ratio_R
from partlab.e1 import BinaryGrid, blowup_inverse, blowup_iso, reduce_f, round_robin_alloc
from partlab.errors import DomainError, ThresholdError
from partlab.partitions import (
    SetPartition,
    count_partitions,
    enumerate_equipartitions,
    enumerate_partitions,
    is_coarsening,
    iter_rgs,
)
from partlab.prefixes import (
    PartitionPrefix,
    approx_r,
    induced_coarsening_h,
    mu_sequence,
    project_g,
)
from partlab.tree import section_bound, verify_tree
from partlab.witness import (
    Adversarial,
    EMapTable,
    Exhaustive,
    Sampled,
    fusion_conditions_hold,
    fusion_step,
    partition_space,
    verify_comb,
    witness_is_valid,
)

DATA = Path(__file__).parent / "data"


def report(num, name, ok):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} {name} failed"


def test_criterion_01_bell_agreement():
    ok = True
    for n in range(1, 12):
        if sum(1 for _ in enumerate_partitions(n, 0)) != count_partitions(n):
            ok = False
    t0 = time.perf_counter()
    n11 = sum(1 for _ in enumerate_partitions(11, 0))
    t11 = time.perf_counter() - t0
    t0 = time.perf_counter()
    n12 = sum(1 for _ in enumerate_partitions(12, 0))
    t12 = time.perf_counter() - t0
    ok = ok and n11 == 678570 and t11 < 2.0 and n12 == 4213597 and t12 < 15.0
    report(1, "Bell agreement and enumeration speed", ok)


def test_criterion_02_counting_formula_oracle():
    t0 = time.perf_counter()
    ok = True
    for k in range(1, 4):
        for N in range(1, 4):
            for m in range(k + 1):
                counts = {}
                for s in enumerate_equipartitions(k, N, m):
                    from partlab.partitions import coarsenings_of

                    for t in coarsenings_of(s):
                        counts[t.rgs] = counts.get(t.rgs, 0) + 1
                for t in enumerate_partitions(k * N, 0):
                    try:
                        profile = profile_of(t, N, m)
                    except DomainError:
                        if counts.get(t.rgs, 0) != 0:
                            ok = False
                        continue
                    if count_extensions(profile, k, N, m) != counts.get(t.rgs, 0):
                        ok = False
    ok = ok and (time.perf_counter() - t0) < 60.0
    report(2, "counting formula equals brute force", ok)


def test_criterion_03_entropy_sandwich():
    t0 = time.perf_counter()
    ok = all(
        entropy_bounds(a, b)[0] <= entropy_bounds(a, b)[1] <= entropy_bounds(a, b)[2]
        for b in range(1, 65)
        for a in range(b + 1)
    )
    ok = ok and (time.perf_counter() - t0) < 1.0
    report(3, "entropy sandwich exact for b <= 64", ok)


def test_criterion_04_ratio_decay():
    with open(DATA / "ratio_thresholds.json") as fh:
        recorded = json.load(fh)
    ok = True
    for a1 in range(1, 5):
        for a2 in range(1, 5):
            for b1 in range(a1):
                for b2 in range(a2 + 1):
                    key = f"{a1},{a2},{b1},{b2}"
                    if key not in recorded:
                        ok = False
                        continue
                    M = recorded[key]
                    if not all(
                        ratio_R(a1, a2, b1, b2, N) < 1 for N in range(M, M + 51)
                    ):
                        ok = False
                    # stability: recomputing the least such M reproduces the record
                    fresh = next(
                        N
                        for N in range(1, 200)
                        if all(ratio_R(a1, a2, b1, b2, n) < 1 for n in range(N, N + 51))
                    )
                    if fresh != M:
                        ok = False
    report(4, "ratio decay beyond persisted thresholds", ok)


def test_criterion_05_tiny_exhaustive_verdicts():
    rep = verify_comb(2, 2, 1, Exhaustive())
    shapes = {frozenset(shape) for shape in rep.details["counterexample_shapes"]}
    ok = shapes == {frozenset({((0, 0), (0, 1))})}
    rep2 = verify_comb(1, 0, 1, Exhaustive())
    ok = ok and rep2.details["all_witnessed"]
    report(5, "tiny exhaustive verdicts", ok)


def _certified_witness_free(shape, k, m, N):
    """No candidate of the map built from a counterexample shape is a witness.

    Rebuilds the map from its invalidating entries alone (every other
    argument maps to itself, and e(t) <= t never invalidates) and checks
    each equipartition with witness_is_valid's full scan of Q(kN).  The
    candidates come from iter_rgs, not from the search's equipartition
    enumeration or coarsening tables.
    """
    n = k * N
    e = EMapTable.from_assignments(n, dict(shape))
    for rgs in iter_rgs(n, m):
        if len(set(rgs)) == k and all(rgs.count(b) == N for b in range(k)):
            if witness_is_valid(e, SetPartition(rgs), m):
                return False
    return True


def test_criterion_06_sampled_and_adversarial_campaigns():
    # At (3,2,2) the greedy adversary finds genuine witness-free maps, so
    # that campaign must report them and each reported shape is certified
    # independently; at N=3 every adversarial map must admit a witness.
    t0 = time.perf_counter()
    sampled = verify_comb(3, 2, 2, Sampled(1000, seed=7))
    adversarial = verify_comb(3, 2, 2, Adversarial(1000, seed=7))
    shapes = adversarial.details["counterexample_shapes"]
    adversarial_n3 = verify_comb(3, 2, 3, Adversarial(1000, seed=7))
    ok = (
        sampled.details["all_witnessed"]
        and not adversarial.details["all_witnessed"]
        and len(shapes) > 0
        and adversarial.details["pigeonhole_ok"]
        and all(_certified_witness_free(shape, 3, 2, 2) for shape in shapes)
        and adversarial_n3.details["all_witnessed"]
        and adversarial_n3.details["tested"] == 1000
        and (time.perf_counter() - t0) < 300.0
    )
    report(6, "campaign verdicts: (3,2,2) counterexamples certified, N=3 all witnessed", ok)


def test_criterion_07_pigeonhole_certificate():
    rep = verify_comb(3, 2, 2, Sampled(1000, seed=7))
    report(7, "pigeonhole certificate on sampled maps", rep.details["pigeonhole_ok"])


def test_criterion_08_section_retraction_identities():
    from partlab.partitions import coarsenings_of

    ok = True
    prefixes = [
        PartitionPrefix.discrete(8),
        PartitionPrefix((0, 1, 0, 2, 1, 3, 4, 2)),
        PartitionPrefix((0, 1, 2, 0, 3, 1, 4, 5)),
    ]
    for B in prefixes:
        for mprime in range(1, 5):
            for t in enumerate_partitions(mprime, 0):
                h = induced_coarsening_h(t, B, mprime)
                if project_g(h, B, mprime) != t:
                    ok = False
    for n in range(2, 7):
        for rgs in partition_space(n):
            B = PartitionPrefix(rgs)
            mu = mu_sequence(B)
            for mprime in range(1, len(mu)):
                cut = mu[mprime]
                for c in coarsenings_of(B.as_partition()):
                    C = PartitionPrefix(c.rgs)
                    t = project_g(C, B, mprime)
                    h = induced_coarsening_h(t, B, mprime)
                    if h.rgs[:cut] != C.rgs[:cut]:
                        ok = False
    report(8, "section and retraction identities", ok)


def test_criterion_09_fusion_step_conditions():
    import random

    ok = True
    B = PartitionPrefix.discrete(9)
    mprime = 3
    space = partition_space(mprime)
    for seed in range(100):
        rng = random.Random(seed)
        table = {}
        for t in space:
            key = induced_coarsening_h(SetPartition(t), B, mprime)
            value = induced_coarsening_h(SetPartition(rng.choice(space)), B, mprime)
            table[key] = value
        try:
            B_new = fusion_step(B, table, 0, 1, mprime)
        except ThresholdError:
            # fusion_step has already confirmed witness absence by an
            # independent brute-force recheck before raising
            continue
        cond1, cond2 = fusion_conditions_hold(B, B_new, table, 0, 1)
        if not (cond1 and cond2):
            ok = False
        if approx_r(B_new, 1) != approx_r(B, 1):
            ok = False
    report(9, "fusion step conditions on random tables", ok)


def test_criterion_10_tree_thresholds_and_campaign():
    ok = True
    for k, expect in ((2, 8), (3, 23)):
        least = next(N for N in range(1, 100) if section_bound(k, N) < 1)
        if least != expect:
            ok = False
    rep = verify_tree(2, 3, Sampled(1000, seed=0))
    ok = ok and rep.details["all_witnessed"]
    report(10, "section lemma thresholds and sampled campaign", ok)


def test_criterion_11_e1_windowed_correctness():
    import random

    t0 = time.perf_counter()
    ok = True
    L = 40
    scheme = round_robin_alloc(L)
    rng = random.Random(2024)

    def rand_grid():
        return BinaryGrid(
            tuple(tuple(rng.randrange(2) for _ in range(16)) for _ in range(8))
        )

    for _ in range(200):
        x = rand_grid()
        n0 = rng.randrange(1, 4)
        rows = [
            tuple(rng.randrange(2) for _ in range(16)) if r < n0 else x.bits[r]
            for r in range(8)
        ]
        y = BinaryGrid(tuple(rows))
        px, py = reduce_f(x, L), reduce_f(y, L)
        for j in range(2 * n0, len(scheme.spine)):
            bx = {p for p in range(L) if px.rgs[p] == px.rgs[scheme.spine[j]]}
            by = {p for p in range(L) if py.rgs[p] == py.rgs[scheme.spine[j]]}
            if bx != by:
                ok = False
        if x.bits != y.bits:
            n = next(r for r in range(8) if x.bits[r] != y.bits[r])
            i = next(c for c in range(16) if x.bits[n][c] != y.bits[n][c])
            if i < len(scheme.lanes[n]):
                point = scheme.lanes[n][i]
                even = scheme.spine[2 * n]
                bx = {p for p in range(L) if px.rgs[p] == px.rgs[even]}
                by = {p for p in range(L) if py.rgs[p] == py.rgs[even]}
                if point not in bx ^ by:
                    ok = False

    for trial in range(100):
        rgs = [0]
        for _ in range(rng.randrange(1, 5)):
            rgs.append(rng.randrange(0, max(rgs) + 2))
        A = PartitionPrefix(tuple(rgs))
        while True:
            drgs = [0]
            for _ in range(rng.randrange(A.L, A.L + 8)):
                drgs.append(rng.randrange(0, max(drgs) + 2))
            D = PartitionPrefix(tuple(drgs))
            if D.num_blocks >= A.L:
                break
        if blowup_inverse(blowup_iso(A, D), D) != A:
            ok = False

    ok = ok and (time.perf_counter() - t0) < 10.0
    report(11, "grid reduction windowed correctness", ok)
