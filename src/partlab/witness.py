"""Witness search engines for the partition combinatorial lemmas.

The adversary is a map e on the partition space of a fixed domain: total
as an EMapTable, and defined on the relevant keys only when a campaign
generates it (see below).  A witness is a candidate s all of whose
coarsenings t satisfy e(t) <= t or e(t) !<= s.  The engines do
exhaustive, sampled, and greedy adversarial campaigns, census bad pairs
exactly, and run single fusion steps of the canonization construction.

One bitmask kernel evaluates the lemma condition for three candidate
families: the comb campaigns' equipartitions and the fusion step's
Q^m(mprime), both ordered by coarsening, and the section lemma's complete
sections, ordered by inclusion (built in the tree module).  Per map, each
relevant t yields the mask of candidates that e(t) invalidates, and the
witness, the bad-pair census and the counterexample shape are all read
off those masks.

The kernel compares keys, not elements.  A partition's key is its lex rank
in Q(n), computed arithmetically, so a partition family's context holds
only its relevant partitions, ordered by rgs_leq asked once per pair of
keys.  The section family's keys are point masks, ordered by inclusion.

The kernel's verdict on a map of a partition family, a witness or none,
is trusted only once _checked_witness has confirmed it with a scan that
shares no enumeration path with the search (see _down_set).  A comb
campaign's maps reach that scan as tables built without the public
constructor's full checks: a map a campaign generates is a dict from each
relevant key to its value's key, the only keys the kernel and the scan
read, so only those values are range-checked.  Tables from outside a
campaign are total and keep the full checks.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from operator import or_
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Optional, Union

from .errors import BudgetError, CheckError, DomainError, ThresholdError
from .partitions import (
    SetPartition,
    _check_m,
    _coarsening_rgs,
    _rgs_rank,
    _rgs_unrank,
    _trusted,
    _value_class,
    count_partitions,
    iter_equipartition_rgs,
    iter_rgs,
    rgs_is_valid,
    rgs_leq,
)
from .prefixes import (
    PartitionPrefix,
    approx_r,
    induced_coarsening_h,
    mu_sequence,
    prefix_is_coarsening,
    project_g,
    trace,
)
from .reports import WitnessReport

__all__ = [
    "EMapTable",
    "Exhaustive",
    "Sampled",
    "Adversarial",
    "bad_pairs",
    "find_witness",
    "map_stream",
    "verify_comb",
    "merge_campaign",
    "min_threshold_comb",
    "fusion_step",
    "fusion_conditions_hold",
    "witness_is_valid",
    "partition_space",
]

_SPACE_CAP = 500_000


@lru_cache(maxsize=None)
def _space_size(n: int) -> int:
    """|Q(n)|, for a table or tuple over all of Q(n); BudgetError where that is too large."""
    size = count_partitions(n)
    if size > _SPACE_CAP:
        raise BudgetError(f"partition space of {n} points is too large to materialize")
    return size


@lru_cache(maxsize=32)
def partition_space(n: int) -> tuple[tuple[int, ...], ...]:
    """All rgs of Q(n) in lexicographic order, materialized once."""
    _space_size(n)
    return tuple(iter_rgs(n))


def _lex_index(n: int, rgs: tuple[int, ...]) -> int:
    """The lex index of rgs in Q(n); DomainError for anything else."""
    if len(rgs) != n or not rgs_is_valid(rgs):
        raise DomainError(f"{rgs!r} is not a partition in Q({n})")
    return _rgs_rank(rgs)


@_value_class()
class EMapTable:
    """Total map from Q(n) to Q(n), stored as value indices over lex order."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: tuple[int, ...]):
        size = _space_size(n)
        if len(values) != size:
            raise DomainError(f"map must be total over {size} partitions")
        if min(values) < 0 or max(values) >= size:
            raise DomainError("value index out of range")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", values)

    def apply_rgs(self, rgs: tuple[int, ...]) -> tuple[int, ...]:
        return _rgs_unrank(self.n, self.values[_lex_index(self.n, rgs)])

    def apply(self, t: SetPartition) -> SetPartition:
        return SetPartition(self.apply_rgs(t.rgs))

    @classmethod
    def identity(cls, n: int) -> "EMapTable":
        return cls(n, tuple(range(_space_size(n))))

    @classmethod
    def constant(cls, n: int, value: SetPartition) -> "EMapTable":
        size = _space_size(n)
        return cls(n, (_lex_index(n, value.rgs),) * size)

    @classmethod
    def from_assignments(
        cls, n: int, assignments: Mapping[tuple[int, ...], tuple[int, ...]]
    ) -> "EMapTable":
        """Build a total table from partial rgs assignments.

        Unassigned arguments default to identity; they are irrelevant to
        the lemma condition when the assigned set covers every coarsening
        of a candidate.
        """
        values = list(range(_space_size(n)))
        for arg, val in assignments.items():
            values[_lex_index(n, arg)] = _lex_index(n, val)
        return cls(n, tuple(values))


# -- strategies ---------------------------------------------------------------


def _init_non_negative(strategy, **fields: int) -> None:
    """Set the strategy's fields, after checking that each named one is >= 0."""
    for name, value in fields.items():
        if value < 0:
            raise DomainError(f"{type(strategy).__name__} {name} must be >= 0, got {value}")
        object.__setattr__(strategy, name, value)


@_value_class()
class Exhaustive:
    __slots__ = ("cap",)

    def __init__(self, cap: int = 1_000_000):
        _init_non_negative(self, cap=cap)

    def label(self) -> str:
        return "exhaustive"


@_value_class()
class _Indexed:
    """Maps start ... start+count-1 of a seeded stream; map i is a pure function of (seed, i)."""

    __slots__ = ("count", "seed", "start")

    def __init__(self, count: int, seed: int = 0, start: int = 0):
        _init_non_negative(self, count=count, start=start)
        object.__setattr__(self, "seed", seed)

    def label(self) -> str:
        start = f", start={self.start}" if self.start else ""
        return f"{type(self).__name__.lower()}({self.count}, seed={self.seed}{start})"


class Sampled(_Indexed):
    __slots__ = ()


class Adversarial(_Indexed):
    __slots__ = ()


Strategy = Union[Exhaustive, Sampled, Adversarial]


def map_stream(
    strategy: Strategy, choices: int, slots: int, assign: Callable, sample: Callable, adversary=None
) -> tuple[Iterator, Optional[int]]:
    """The maps a campaign tests, and the seed its report records.

    Exhaustive maps give each of `slots` arguments one of `choices` values,
    built by assign(combo), and are capped by the strategy's cap.  An
    indexed strategy's map i, for i in start ... start+count-1, is
    sample(seed, i) if it is Sampled and adversary(seed, i) if it is
    Adversarial.  This is the one place a campaign without an adversary,
    such as the section lemma's, rejects the adversarial strategy.
    """
    if isinstance(strategy, Exhaustive):
        total = choices**slots
        if total > strategy.cap:
            raise BudgetError(f"{total} adversary maps exceed the exhaustive cap of {strategy.cap}")
        return map(assign, product(range(choices), repeat=slots)), None
    if not isinstance(strategy, _Indexed):
        raise DomainError(f"unknown strategy {strategy!r}")
    draw = sample if isinstance(strategy, Sampled) else adversary
    if draw is None:
        raise DomainError("adversarial strategy needs an adversary; this campaign has none")
    indices = range(strategy.start, strategy.start + strategy.count)
    return (draw(strategy.seed, i) for i in indices), strategy.seed


# -- shared lemma context -----------------------------------------------------


class _LemmaContext:
    """The kernel's tables for one candidate family, in the family's order.

    down(s) gives the keys of the elements below candidate s, and leq(vi, ti)
    compares the elements of space at two keys.  Compared and hashed by
    identity, so _greedy_ties can cache per context.
    """

    # space: key -> its element: the relevant keys' rgs, or a range of point masks
    # below: keyed by the relevant keys, those of the t below at least one candidate, in
    # ascending order; per key v, the bitmask of the candidates s with v <= s
    # leq: the order on keys: rgs_leq of their partitions, or inclusion of point masks
    __slots__ = ("space", "candidates", "below", "leq")

    def __init__(self, space: Union[Mapping, range], candidates: tuple, down: Callable, leq: Callable):
        below: dict[int, int] = {}
        for ci, s in enumerate(candidates):
            for ti in down(s):
                below[ti] = below.get(ti, 0) | 1 << ci
        self.space = space
        self.candidates = candidates
        self.below = {ti: below[ti] for ti in sorted(below)}
        self.leq = leq


def _partition_context(candidates: tuple[tuple[int, ...], ...]) -> _LemmaContext:
    """Candidates from one Q(n), keyed by lex rank and ordered by coarsening.

    space holds the relevant keys only, each with the first rgs ranked to it.
    The order is rgs_leq of the keys' partitions, memoised per pair of keys
    that the kernel and _greedy_ties ask about, all of them relevant.
    """
    space: dict[int, tuple[int, ...]] = {}
    memo: dict[tuple[int, int], bool] = {}

    def leq(vi: int, ti: int) -> bool:
        key = (vi, ti)
        got = memo.get(key)
        if got is None:
            got = memo[key] = rgs_leq(space[vi], space[ti])
        return got

    def down(s: tuple[int, ...]) -> Iterator[int]:
        for rgs in _coarsening_rgs(s):
            key = _rgs_rank(rgs)
            space.setdefault(key, rgs)
            yield key

    return _LemmaContext(space, candidates, down, leq)


@lru_cache(maxsize=16)
def _comb_context(k: int, m: int, N: int) -> _LemmaContext:
    """The comb campaigns' candidates: equipartitions of kN points separating the first m."""
    candidates = tuple(iter_equipartition_rgs(k, N, m))
    _space_size(k * N)  # bounds the context; no table over Q(kN) is built
    return _partition_context(candidates)


@lru_cache(maxsize=16)
def _fusion_context(m: int, mprime: int) -> _LemmaContext:
    """The fusion step's candidates: all of Q^m(mprime)."""
    return _partition_context(tuple(iter_rgs(mprime, m)))


def _kill_masks(ctx: _LemmaContext, values) -> dict[int, int]:
    """The lemma kernel: per relevant t, the candidates s that e(t) invalidates.

    values maps each key t to the key of e(t).  (s, t) is a bad pair when
    t <= s, e(t) <= s and e(t) !<= t, so the mask is below[t] & below[e(t)]
    unless e(t) <= t; a value below no candidate kills nothing.  Only
    nonzero masks are kept; a candidate is a witness iff no mask has its bit.
    """
    below = ctx.below
    leq = ctx.leq
    kills = {}
    for ti, above_t in below.items():
        vi = values[ti]
        mask = above_t & below.get(vi, 0)
        # e(t) <= t gives below[e(t)] >= below[t] by transitivity, so any
        # other mask already means e(t) !<= t and the order need not be asked
        if mask and (mask != above_t or not leq(vi, ti)):
            kills[ti] = mask
    return kills


def _witness(ctx: _LemmaContext, kills: dict[int, int]):
    """The first candidate, in the family's order, that no kill mask hits, or None."""
    killed = 0
    for mask in kills.values():
        killed |= mask
    free = ~killed & ((1 << len(ctx.candidates)) - 1)
    return ctx.candidates[(free & -free).bit_length() - 1] if free else None


def _bad_count(kills: dict[int, int]) -> int:
    """Exact number of bad pairs (s, t)."""
    return sum(map(int.bit_count, kills.values()))


def _census(ctx: _LemmaContext, kills: dict[int, int]) -> dict[str, int]:
    """Bad pairs per candidate, keyed by its rgs text, for the candidates that have any."""
    per = {}
    for ci, s in enumerate(ctx.candidates):
        bad = sum(mask >> ci & 1 for mask in kills.values())
        if bad:
            per[_trusted(s).to_text()] = bad
    return per


def _irredundant_cover(kills: dict[int, int]) -> tuple[int, ...]:
    """The keys of an irredundant cover of kills, in ascending order.

    kills holds its keys in ascending order, as _kill_masks builds it.  The
    entries are tried in descending key order, and one is kept when it kills
    a candidate that neither the kept entries nor the untried ones, those of
    smaller keys, kill.  So the kept masks still kill every candidate that
    kills does: the entry of least key killing a candidate is kept unless a
    kept one kills it.  And every kept entry is necessary: the candidate it
    alone killed when kept is not killed by any entry tried after it.
    """
    keys, masks = list(kills), list(kills.values())
    before = list(accumulate(masks, or_, initial=0))  # before[i]: the union of the masks before position i
    kept, covered = [], 0
    for i in range(len(keys) - 1, -1, -1):
        if masks[i] & ~(covered | before[i]):
            kept.append(keys[i])
            covered |= masks[i]
    return tuple(reversed(kept))


def _blocking_shape(values, kills: dict[int, int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The failing map's shape: an irredundant set of the entries of e that invalidate candidates.

    The keys t that _irredundant_cover keeps and their values e(t), as two
    tuples in ascending key order.  With every other argument mapped to
    itself, the entries still leave no witness, and dropping any one leaves one.
    """
    keys = _irredundant_cover(kills)
    return keys, tuple(map(values.__getitem__, keys))


@lru_cache(maxsize=1024)
def _down_set(s: tuple[int, ...]) -> Mapping[int, tuple[int, ...]]:
    """Every t <= s, keyed by lex rank, enumerated point by point, each once.

    t <= s iff t is constant on each block of s: the least point of each
    s-block takes any block of t opened so far, or a new one, and every
    other point copies its least block-mate's block.  The cost grows with the
    down-set, not with Q(n), and the enumeration shares no code with the
    kernel's tables, the context's coarsening enumeration or rgs_leq.
    """
    least: list[int] = []  # per s-block, its least point
    prefixes: list[tuple[tuple[int, ...], int]] = [((), 0)]  # prefixes of t, with their block counts
    for i, block in enumerate(s):
        if block == len(least):
            least.append(i)
            prefixes = [(t + (v,), b + (v == b)) for t, b in prefixes for v in range(b + 1)]
        else:
            mate = least[block]
            prefixes = [(t + (t[mate],), b) for t, b in prefixes]
    return MappingProxyType({_rgs_rank(t): t for t, _ in prefixes})  # read-only: it is cached


def witness_is_valid(e: EMapTable, s: SetPartition, m: int) -> bool:
    """Independent re-validation of a witness over its down-set.

    Deliberately avoids the candidate/coarsening tables used by the
    search: the down-set of s is enumerated point by point, once per s,
    and the lemma condition is checked pair by pair, with e(t) <= s read
    as membership of e(t)'s key in that down-set and e(t) <= t asked of
    rgs_leq.  It alone also asks that s separate the first m points: every
    candidate the search scans is enumerated with that prefix fixed.
    """
    if s.n != e.n:
        raise DomainError(f"candidate has {s.n} points, map is over {e.n}")
    return all(s.rgs[i] == i for i in range(min(m, s.n))) and _valid(e.values, s.rgs)


def _valid(values, rgs: tuple[int, ...]) -> bool:
    """No bad pair below rgs: the down-set scan of witness_is_valid, without its m-prefix rule."""
    down = _down_set(rgs)
    for key, t in down.items():
        v = down.get(values[key])
        if v is not None and not rgs_leq(v, t):
            return False
    return True


def _checked_witness(ctx: _LemmaContext, e: EMapTable, m: int, kills: dict) -> Optional[SetPartition]:
    """The kernel's witness for e, as a trusted partition, or None, once the independent scan agrees.

    The witness must pass witness_is_valid, called through the module global
    so a wrapper sees one re-validation per witnessed map.  Every candidate
    before it, or every candidate when there is none, must show _valid a bad
    pair; it is already m-separated.  Any disagreement is a CheckError.
    """
    witness = _witness(ctx, kills)
    end = len(ctx.candidates)
    if witness is not None:
        witness = _trusted(witness)
        if not witness_is_valid(e, witness, m):
            raise CheckError("witness failed independent re-validation")
        end = ctx.candidates.index(witness.rgs)
    for s in ctx.candidates[:end]:  # a loop: half the cost of any()
        if _valid(e.values, s):
            if witness is None:
                raise CheckError("search and independent recheck disagree on witness absence")
            raise CheckError("a candidate before the witness passed independent re-validation")
    return witness


# -- public operations --------------------------------------------------------


def find_witness(e: EMapTable, m: int, mprime: int) -> Optional[SetPartition]:
    """Least s separating the first m points with the lemma property, or None; checked by _checked_witness."""
    if e.n != mprime:
        raise DomainError(f"map is over {e.n} points, expected {mprime}")
    ctx = _fusion_context(m, mprime)
    return _checked_witness(ctx, e, m, _kill_masks(ctx, e.values))


def bad_pairs(e: EMapTable, k: int, m: int, N: int) -> WitnessReport:
    """Exact census of the bad pairs (s, t) of one adversary map; _checked_witness checks its verdict."""
    start = time.perf_counter()
    ctx = _comb_context(k, m, N)
    if e.n != k * N:
        raise DomainError(f"map is over {e.n} points, expected {k * N}")
    kills = _kill_masks(ctx, e.values)
    total = _bad_count(kills)
    witness = _checked_witness(ctx, e, m, kills)
    pair_count = len(ctx.candidates) * count_partitions(k)
    return WitnessReport(
        params={"k": k, "m": m, "N": N},
        strategy="single-map census",
        seed=None,
        witness=witness,
        bad_pair_count=total,
        candidate_count=len(ctx.candidates),
        census=_census(ctx, kills),
        ratio=Fraction(total, pair_count),
        elapsed_ms=(time.perf_counter() - start) * 1000.0,
        details={"coarsening_pair_count": pair_count},
    )


def _sample_values(
    ctx: _LemmaContext, size: int, rng: random.Random, seed: int, sample_index: int
) -> dict[int, int]:
    """Uniform independent values on coarsening-relevant arguments, keyed by argument.

    Only the relevant keys are drawn; no other argument occurs in the lemma
    condition for any candidate.  Each sample reseeds rng from (seed,
    index), so its state is that of a fresh random.Random of that seed,
    and draws each value as randrange(size) does: getrandbits of size's
    bit length until the draw is below size.
    """
    rng.seed((seed << 32) ^ (sample_index * 0x9E3779B9 + 1))
    getrandbits = rng.getrandbits
    bits = size.bit_length()
    values = {}
    for ti in ctx.below:
        vi = getrandbits(bits)
        while vi >= size:
            vi = getrandbits(bits)
        values[ti] = vi
    return values


@lru_cache(maxsize=16)
def _greedy_ties(ctx: _LemmaContext) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(t, its maximally invalidating values in ascending key order) for each t that has any."""
    leq = ctx.leq
    table = []
    for ti, above_t in ctx.below.items():
        ties = []
        top = 0
        # score > 0 needs v <= some candidate, so v is relevant
        for vi, below_v in ctx.below.items():
            score = (above_t & below_v).bit_count()
            if score == 0 or score < top or leq(vi, ti):
                continue  # not maximal, or e(t) <= t, which never invalidates
            if score > top:
                top = score
                ties = [vi]
            else:
                ties.append(vi)
        if ties:
            table.append((ti, tuple(ties)))
    return tuple(table)


def _adversarial_values(
    ctx: _LemmaContext, rng: random.Random, seed: int, map_index: int
) -> dict[int, int]:
    """Greedy adversary: per relevant argument, a maximally invalidating value.

    Map 0 is the pure greedy with lexicographic-least tie-break; later
    maps break argmax ties with a seeded PRNG so the budget probes
    different corners of the tie set.  Each map reseeds rng from (seed,
    index) and draws each tie as Random.choice does, getrandbits of the
    tie count's bit length until the draw is below the count, so a tie
    of one value still consumes its draw.  A relevant argument without a
    tie keeps e(t) = t; in a comb context every candidate is one, since no
    value invalidates it.  Results are a lower bound on adversarial
    difficulty.
    """
    values = dict(zip(ctx.below, ctx.below))
    if map_index == 0:
        for ti, ties in _greedy_ties(ctx):
            values[ti] = min(ties)
        return values
    rng.seed((seed << 32) ^ (map_index * 0x85EBCA6B + 3))
    getrandbits = rng.getrandbits
    for ti, ties in _greedy_ties(ctx):
        count = len(ties)
        bits = count.bit_length()
        r = getrandbits(bits)
        while r >= count:
            r = getrandbits(bits)
        values[ti] = ties[r]
    return values


def _campaign_table(n: int, size: int, values: dict[int, int]) -> EMapTable:
    """The table of a map a campaign generated, checked only where it can be wrong.

    A campaign table holds only the relevant keys, the ones its generator
    wrote and the only ones the re-validation reads, so its values are
    range-checked against size = |Q(n)|, with the public constructor's
    error, and its keys are trusted.
    """
    for vi in values.values():  # a plain loop: half the cost of all() over a generator
        if not 0 <= vi < size:
            raise DomainError("value index out of range")
    e = object.__new__(EMapTable)
    object.__setattr__(e, "n", n)
    object.__setattr__(e, "values", values)
    return e


def verify_comb(k: int, m: int, N: int, strategy: Strategy) -> WitnessReport:
    """Test the lemma against a family of adversary maps; aggregate a report.

    Exit contract: details["all_witnessed"] is True iff every tested map
    admitted a witness; counterexample shapes are collected otherwise, one
    per distinct shape in first-seen order.  A shape is an irredundant set
    of the failing map's invalidating entries (see _blocking_shape): with
    every other argument mapped to itself no candidate is a witness, and
    dropping any one entry leaves one.  Every map's verdict is checked by
    _checked_witness.  The pigeonhole certificate (bad pairs below candidate
    count implies a witness) is checked for every map.  Every generated map
    is a dict from each relevant key to its value's key, made a table by
    _campaign_table, which range-checks those values.
    """
    start = time.perf_counter()
    ctx = _comb_context(k, m, N)
    n_cands = len(ctx.candidates)

    size = count_partitions(k * N)  # the draw range and the exhaustive choice count
    rng = random.Random()  # reseeded for every sampled or adversarial map
    stream, seed = map_stream(
        strategy,
        size,
        len(ctx.below),
        lambda combo: dict(zip(ctx.below, combo)),
        lambda seed, i: _sample_values(ctx, size, rng, seed, i),
        lambda seed, i: _adversarial_values(ctx, rng, seed, i),
    )

    tested = 0
    failures = 0
    shapes: dict[tuple[tuple[int, ...], tuple[int, ...]], None] = {}  # insertion-ordered set
    worst_bad = -1
    worst_kills: dict[int, int] = {}
    worst_witness: Optional[SetPartition] = None
    pigeonhole_ok = True
    for values in stream:
        tested += 1
        kills = _kill_masks(ctx, values)
        witness = _checked_witness(ctx, _campaign_table(k * N, size, values), m, kills)
        bad = _bad_count(kills)
        if witness is None:
            failures += 1
            shapes[_blocking_shape(values, kills)] = None
            if bad < n_cands:
                pigeonhole_ok = False  # would contradict the counting chain
        if bad > worst_bad:
            worst_bad = bad
            worst_kills = kills
            worst_witness = witness

    space = ctx.space
    # one entry per distinct key pair, shared by every shape holding it, so
    # json_text renders it once; a shape's keys ascend and rank order is lex
    # order, so its entries ascend as rgs pairs
    entry = lru_cache(maxsize=None)(lambda ti, vi: (space[ti], space[vi]))
    return WitnessReport(
        params={"k": k, "m": m, "N": N},
        strategy=strategy.label(),
        seed=seed,
        witness=worst_witness,
        bad_pair_count=max(worst_bad, 0),
        candidate_count=n_cands,
        census=_census(ctx, worst_kills),
        ratio=Fraction(max(worst_bad, 0), n_cands),
        elapsed_ms=(time.perf_counter() - start) * 1000.0,
        details={
            "tested": tested,
            "failures": failures,
            "all_witnessed": failures == 0,
            "pigeonhole_ok": pigeonhole_ok,
            "counterexample_shapes": [list(map(entry, *shape)) for shape in shapes],
        },
    )


def merge_campaign(parts: list[WitnessReport], strategy: _Indexed, elapsed_ms: float) -> WitnessReport:
    """The report of one sampled or adversarial campaign from its chunks' reports, given in chunk order.

    The worst map is the first maximum of bad_pair_count, as in one run;
    counterexample shapes keep their first-seen order without repeats, and
    pigeonhole_ok must hold in every chunk.  elapsed_ms is the caller's
    wall time for the campaign, not the sum of the chunks' times.
    """
    worst = max(parts, key=lambda r: r.bad_pair_count)
    shapes, seen = [], set()
    for r in parts:
        for shape in r.details["counterexample_shapes"]:
            key = json.dumps(shape)  # restored chunks hold lists where fresh ones hold tuples
            if key not in seen:
                seen.add(key)
                shapes.append(shape)
    details = dict(worst.details)
    details.update(
        tested=sum(r.details["tested"] for r in parts),
        failures=sum(r.details["failures"] for r in parts),
        all_witnessed=all(r.details["all_witnessed"] for r in parts),
        pigeonhole_ok=all(r.details["pigeonhole_ok"] for r in parts),
        counterexample_shapes=shapes,
    )
    return WitnessReport(worst.params, strategy.label(), strategy.seed, worst.witness, worst.bad_pair_count,
                         worst.candidate_count, worst.census, worst.ratio, elapsed_ms, details)


def min_threshold_comb(
    k: int,
    m: int,
    search: Strategy,
    N_max: int,
    campaign: Callable[[int, int, int, Strategy], WitnessReport] = verify_comb,
) -> tuple[Optional[int], list[WitnessReport]]:
    """Least N <= N_max at which the campaign is clean, with the reports up to it.

    campaign(k, m, N, search) runs one N; a caller may pass one that
    restores and records its reports.  EMPIRICAL: the returned value
    bounds, but does not certify, the lemma's threshold; it depends on the
    tested maps only, so a search that tests none is a DomainError.
    """
    _check_m(m, k=k)
    if N_max < 1:
        raise DomainError(f"need N_max >= 1, got {N_max}")
    if getattr(search, "count", None) == 0:
        raise DomainError(f"{search.label()} tests no maps, so it can find no threshold")
    reports = []
    for N in range(1, N_max + 1):
        rep = campaign(k, m, N, search)
        rep.details["empirical"] = True
        reports.append(rep)
        if rep.details["all_witnessed"] and rep.ratio < 1:
            return N, reports
    return None, reports


# -- fusion -------------------------------------------------------------------


FTable = Mapping[PartitionPrefix, PartitionPrefix]


def fusion_step(
    B: PartitionPrefix,
    f_table: FTable,
    n0: int,
    ell: int,
    mprime: int,
) -> PartitionPrefix:
    """One inductive step of the canonization construction.

    Builds the induced adversary e = project o f o coarsen over Q(mprime),
    finds a witness separating the first n0+ell+1 points by find_witness,
    whose verdict _checked_witness checks, and returns the coarsening of B
    the witness induces; no witness is a ThresholdError.  Only the first
    step condition, that the approximation is kept, is verified before
    returning; the trace disjunction is left to fusion_conditions_hold.  An
    unmapped table argument is a hard error.
    """
    m = n0 + ell + 1
    if m > mprime:
        raise DomainError(f"need n0+ell+1 <= mprime, got {m} > {mprime}")

    def induced(t: SetPartition) -> SetPartition:
        A = induced_coarsening_h(t, B, mprime)
        C = f_table.get(A)
        if C is None:
            raise DomainError(f"f_table is not defined on {A.to_text()}")
        return project_g(C, B, mprime)

    # partition_space lists Q(mprime) in lex order, so each t's key is its position
    e = EMapTable(
        mprime, tuple(_lex_index(mprime, induced(_trusted(t)).rgs) for t in partition_space(mprime))
    )
    witness = find_witness(e, m, mprime)
    if witness is None:
        raise ThresholdError(f"no witness in Q^{m}({mprime}); enlarge mprime")
    B_new = induced_coarsening_h(witness, B, mprime)
    if approx_r(B_new, n0 + ell) != approx_r(B, n0 + ell):
        raise CheckError("fusion step did not preserve the required approximation")
    return B_new


def fusion_conditions_hold(
    B_old: PartitionPrefix,
    B_new: PartitionPrefix,
    f_table: FTable,
    n0: int,
    ell: int,
) -> tuple[bool, bool]:
    """Check the two step conditions on a fusion output.

    Returns (approximation kept, trace disjunction over the table domain).
    The second condition quantifies over table arguments that coarsen the
    new prefix and have a block-minimum cut at depth n0+ell+1.
    """
    m = n0 + ell + 1
    cond1 = approx_r(B_new, n0 + ell) == approx_r(B_old, n0 + ell)
    cond2 = True
    r_m = approx_r(B_new, m)
    mu_new = mu_sequence(B_new)
    for A, fA in f_table.items():
        if not prefix_is_coarsening(A, B_new):
            continue
        if m >= len(mu_new) or mu_new[m] not in mu_sequence(A):
            continue
        tr_f = trace(fA, B_new, m)
        tr_a = trace(A, B_new, m)
        if rgs_leq(tr_f.rgs, tr_a.rgs) or not rgs_leq(tr_f.rgs, r_m.rgs):
            continue
        cond2 = False
    return cond1, cond2
