"""Finite section lemma for block partitions with large blocks.

A (k, N)-partition splits a finite ground set into k blocks of at least
N points.  A section meets each block at most once; a complete section
meets each exactly once.  Given an adversary map e from sections to
arbitrary subsets of the ground set, a witness is a complete section E
with e(F) subset-of F or e(F) not-subset-of E for every F inside E.

This is the comb lemma's condition with inclusion as the order, so the
search runs on the witness module's lemma kernel: the complete sections
are the candidates, and every section lies below one of them.  Sections
and values are keyed by bitmasks, the ground set mapped onto bit
positions in sorted point order.  Every campaign result is checked
against an independent set-based count that shares none of the kernel's
tables.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterator, Mapping, Optional

from .errors import BudgetError, CheckError, DomainError
from .partitions import _value_class
from .reports import WitnessReport
from .witness import (
    Adversarial,
    Strategy,
    _adversarial_values,
    _greedy_budget,
    _kill_masks,
    _LemmaContext,
    _witness,
    map_stream,
)

__all__ = [
    "BlockPartitionKN",
    "enumerate_sections",
    "find_section_witness",
    "verify_tree",
    "section_bound",
    "least_N_below_one",
    "equal_block_partition",
    "witness_via_equal_blocks",
]


@_value_class("blocks", "N")
class BlockPartitionKN:
    """Partition of a finite ground set into k blocks of >= N points each."""

    __slots__ = ("blocks", "N", "ground")  # ground, the union of the blocks, is neither compared nor shown

    def __init__(self, blocks: tuple[frozenset, ...], N: int):
        blocks = tuple(frozenset(b) for b in blocks)
        if N < 1 or not blocks:
            raise DomainError("need N >= 1 and at least one block")
        seen: set = set()
        for blk in blocks:
            if len(blk) < N:
                raise DomainError(f"block of size {len(blk)} is below the floor {N}")
            if blk & seen:
                raise DomainError("blocks must be disjoint")
            seen |= blk
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "ground", frozenset(seen))

    @property
    def k(self) -> int:
        return len(self.blocks)

    def section_count(self) -> int:
        out = 1
        for blk in self.blocks:
            out *= len(blk) + 1
        return out

    def complete_section_count(self) -> int:
        out = 1
        for blk in self.blocks:
            out *= len(blk)
        return out


def equal_block_partition(k: int, N: int) -> BlockPartitionKN:
    """The canonical (k, N)-partition of {0,...,kN-1} into consecutive runs."""
    return BlockPartitionKN(
        tuple(frozenset(range(i * N, (i + 1) * N)) for i in range(k)), N
    )


def enumerate_sections(P: BlockPartitionKN) -> Iterator[frozenset]:
    """All sections, in the fixed sorted-element-tuple order."""
    choices = [[frozenset()] + [frozenset({p}) for p in sorted(blk)] for blk in P.blocks]
    sections = [frozenset().union(*combo) for combo in product(*choices)]
    sections.sort(key=lambda s: tuple(sorted(s)))
    yield from sections


def _masks(P: BlockPartitionKN):
    order = sorted(P.ground)
    bit = {p: 1 << i for i, p in enumerate(order)}

    def mask(points) -> int:
        out = 0
        try:
            for p in points:
                out |= bit[p]
        except KeyError:
            raise DomainError(f"point {p!r} is not in the ground set") from None
        return out

    return mask


def _submasks(em: int) -> Iterator[int]:
    sub = em
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & em


def _subset(v: int, t: int) -> bool:
    return v & ~t == 0


# bits of a section context's masks, sections x complete sections: about 125 MB
_SECTION_CAP = 10**9


def _section_wall(P: BlockPartitionKN) -> None:
    """BudgetError when P's context would hold more than _SECTION_CAP mask bits."""
    if P.section_count() * P.complete_section_count() > _SECTION_CAP:
        raise BudgetError(f"section context of {len(P.ground)} points in {P.k} blocks is too large to tabulate")


@lru_cache(maxsize=16)
def _section_context(P: BlockPartitionKN):
    """The kernel's tables for P, its sections in enumerate_sections order, and its mask function.

    Keys are point masks, so the space is the identity on every mask of the
    ground.  The candidates are the complete sections, and below[F] is the
    mask of those that contain F.  Masks past _SECTION_CAP bits are a
    BudgetError, raised before any section is made.
    """
    _section_wall(P)
    mask = _masks(P)
    sections = tuple(enumerate_sections(P))
    complete = tuple(F for F in sections if len(F) == P.k)
    ctx = _LemmaContext(range(1 << len(P.ground)), complete, lambda E: _submasks(mask(E)), _subset)
    return ctx, sections, mask


def _check_table(e: Mapping[frozenset, frozenset], P: BlockPartitionKN) -> None:
    missing = [s for s in _section_context(P)[1] if s not in e]
    if missing:
        raise DomainError(f"map is not total: {len(missing)} sections unmapped")


def find_section_witness(e: Mapping[frozenset, frozenset], P: BlockPartitionKN) -> Optional[frozenset]:
    """Least complete section all of whose subsets satisfy the condition under the total map e."""
    _check_table(e, P)
    ctx, sections, mask = _section_context(P)
    return _witness(ctx, _kill_masks(ctx, {mask(F): mask(e[F]) for F in sections}))


def _witness_valid(table, E: frozenset) -> bool:
    """Independent set-based re-validation of a section witness."""
    pts = sorted(E)
    for r in range(1 << len(pts)):
        F = frozenset(p for i, p in enumerate(pts) if r >> i & 1)
        v = table[F]
        if not (v <= F or not v <= E):
            return False
    return True


def section_bound(k: int, N: int) -> Fraction:
    """Closed-form bound 2^k (1 - ((N-1)/N)^k) on the bad-section ratio."""
    if k < 1 or N < 1:
        raise DomainError("need k >= 1 and N >= 1")
    return 2**k * (1 - Fraction(N - 1, N) ** k)


def least_N_below_one(k: int) -> int:
    """Least N with section_bound(k, N) < 1, by exact-rational bisection.

    The bound falls as N grows, and 1 - (1 - 1/N)^k <= k/N puts it under 1
    once N > k 2^k, so the answer lies in 1..k 2^k + 1.
    """
    if k < 1:
        raise DomainError(f"need k >= 1, got k={k}")
    return bisect_left(range(1, (k << k) + 2), True, key=lambda N: section_bound(k, N) < 1) + 1


def intermediate_sum_bound(k: int, N: int) -> Fraction:
    """The pre-relaxation sum over section sizes, divided by |CT(P)|.

    sum_{m <= k} C(k, m) N^m (N^(k-m) - (N-1)^(k-m)) / N^k, as stated;
    no independent derivation of the first inequality is attempted.
    """
    from math import comb

    total = sum(comb(k, m) * N**m * (N ** (k - m) - (N - 1) ** (k - m)) for m in range(k + 1))
    return Fraction(total, N**k)


def _random_table(P: BlockPartitionKN, seed: int, sample_index: int) -> dict[frozenset, frozenset]:
    """Uniform value in the power set of the ground, per section."""
    rng = random.Random((seed << 32) ^ (sample_index * 0xC2B2AE35 + 5))
    order = sorted(P.ground)
    sections = _section_context(P)[1]
    return {F: frozenset(p for p in order if rng.random() < 0.5) for F in sections}


def verify_tree(k: int, N: int, strategy: Strategy) -> WitnessReport:
    """Campaign against the equal-block (k, N)-partition; aggregate report."""
    start = time.perf_counter()
    P = equal_block_partition(k, N)
    if isinstance(strategy, Adversarial) and strategy.count:  # the context's wall, then the budget, before it is built
        _section_wall(P)
        _greedy_budget(P.complete_section_count(), 1 << P.k)  # a complete section has 2^k subsets
    ctx, sections, mask = _section_context(P)
    ct = P.complete_section_count()
    bound = section_bound(k, N)
    ground = sorted(P.ground)

    def assign(combo):
        return {
            F: frozenset(p for i, p in enumerate(ground) if r >> i & 1)
            for F, r in zip(sections, combo)
        }

    keys = [mask(F) for F in sections]
    rng = random.Random()  # reseeded for every adversarial map
    tables, seed = map_stream(
        strategy, 1 << len(ground), len(sections), assign, lambda seed, i: _random_table(P, seed, i),
        lambda seed, i: assign(map(_adversarial_values(ctx, rng, seed, i).__getitem__, keys)),
    )

    tested = 0
    failures = 0
    worst_bad_sections = -1
    worst_witness: Optional[frozenset] = None
    for e in tables:
        tested += 1
        witness = find_section_witness(e, P)  # checks that e is total
        valid = [E for E in ctx.candidates if _witness_valid(e, E)]
        if witness is not None and valid and witness not in valid:
            raise CheckError("section witness failed independent re-validation")
        if witness != (valid[0] if valid else None):  # the search returns the least witness
            raise CheckError("section witness search disagrees with the independent count")
        if witness is None:
            failures += 1
        bad_sections = ct - len(valid)
        if bad_sections > worst_bad_sections:
            worst_bad_sections = bad_sections
            worst_witness = witness

    # ct is fixed, so the worst map's ratio is the largest; it never exceeds
    # 1, so every bound above 1 is respected
    ratio = Fraction(max(worst_bad_sections, 0), ct)
    return WitnessReport(
        params={"k": k, "N": N},
        strategy=strategy.label(),
        seed=seed,
        witness=None,
        bad_pair_count=max(worst_bad_sections, 0),
        candidate_count=ct,
        census={},
        ratio=ratio,
        elapsed_ms=(time.perf_counter() - start) * 1000.0,
        details={
            "lemma": "tree",
            "tested": tested,
            "failures": failures,
            "all_witnessed": failures == 0,
            "bound": bound,
            "bound_respected": ratio <= bound,
            "least_N_below_one": least_N_below_one(k),
            "worst_witness": sorted(worst_witness) if worst_witness else None,
        },
    )


def witness_via_equal_blocks(e: Mapping[frozenset, frozenset], P: BlockPartitionKN) -> Optional[frozenset]:
    """Witness for an unequal-block partition via the shrink-and-lift route.

    Shrinks each block to its N least points, restricts e to the shrunken
    partition, searches there, and returns the found complete section,
    which is complete for the original partition as well.
    """
    _check_table(e, P)
    Z_blocks = tuple(frozenset(sorted(blk)[: P.N]) for blk in P.blocks)
    Q = BlockPartitionKN(Z_blocks, P.N)
    return find_section_witness({F: e[F] & Q.ground for F in enumerate_sections(Q)}, Q)
