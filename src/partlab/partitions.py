"""Canonical set partitions of {0,...,n-1} and the coarsening order.

A partition is stored as a restricted growth string (rgs): position i
carries the index of the block containing point i, blocks numbered by
order of first occurrence.  This makes block order coincide with the
order of block minima, so the representation is canonical and hashable.

The order used everywhere is the one where coarser partitions are
*lower*: ``is_coarsening(s, t)`` holds when every t-block sits inside a
single s-block (written s <= t).  ``meet_refine`` is then the least
common upper bound: the common refinement.

All counting is exact big-integer arithmetic; enumeration streams are
lazy generators in lexicographic rgs order.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb, factorial
from operator import attrgetter
from typing import Iterator

from .errors import DomainError

__all__ = [
    "SetPartition",
    "enumerate_partitions",
    "enumerate_equipartitions",
    "is_coarsening",
    "meet_refine",
    "count_partitions",
    "count_equipartitions",
    "coarsenings_of",
    "rgs_is_valid",
    "rgs_leq",
    "rgs_meet",
    "relabel_canonical",
]


def rgs_is_valid(rgs: tuple[int, ...]) -> bool:
    """True iff rgs is a restricted growth string (empty allowed)."""
    mx = -1
    for v in rgs:
        if v < 0 or v > mx + 1:
            return False
        if v > mx:
            mx = v
    return True


def relabel_canonical(labels) -> tuple[int, ...]:
    """Relabel an arbitrary block-label sequence into canonical rgs form."""
    table: dict = {}
    out = []
    for lab in labels:
        idx = table.get(lab)
        if idx is None:
            idx = table[lab] = len(table)
        out.append(idx)
    return tuple(out)


def rgs_leq(s: tuple[int, ...], t: tuple[int, ...]) -> bool:
    """s <= t: every t-block is contained in a single s-block.

    Single pass over a t-block -> s-block remap table; no block sets are
    materialized.  Inner loop of every lemma engine.
    """
    table = [-1] * (len(t) + 1)
    for sv, tv in zip(s, t):
        cur = table[tv]
        if cur < 0:
            table[tv] = sv
        elif cur != sv:
            return False
    return True


def rgs_meet(t1: tuple[int, ...], t2: tuple[int, ...]) -> tuple[int, ...]:
    """Common refinement: i ~ j iff i t1 j and i t2 j, canonically labeled."""
    return relabel_canonical(zip(t1, t2))


def _refuse(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _value_class(*fields: str):
    """What a frozen dataclass gave a class, for a class with __slots__.

    repr shows `fields` (default: the slots).  eq compares their tuple within one class and
    hash is its hash.  An instance refuses assignment and deletion, and pickles through its
    class's constructor, which takes `fields`; a subclass that adds no slots shares all of this.
    """

    def apply(cls):
        names = fields or cls.__slots__
        get = attrgetter(*names)
        key = get if len(names) > 1 else lambda self: (get(self),)

        def __repr__(self):
            return f"{self.__class__.__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in names)})"

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        cls.__repr__ = __repr__
        cls.__eq__ = __eq__
        cls.__hash__ = lambda self: hash(key(self))
        cls.__setattr__ = cls.__delattr__ = _refuse
        cls.__reduce__ = lambda self: (self.__class__, key(self))
        return cls

    return apply


class _BlockText(dict):
    """str(b) per block index b, made on first use: joining these takes about half the time of map(str, rgs)."""

    def __missing__(self, b: int) -> str:
        text = self[b] = str(b)
        return text


_block_text = _BlockText().__getitem__


class _Rgs:
    """A canonical rgs: the one validating constructor, block count and text codec of
    SetPartition and PartitionPrefix, which stay unequal siblings."""

    __slots__ = ("rgs",)

    def __init__(self, rgs: tuple[int, ...]):
        rgs = tuple(rgs)
        if not rgs_is_valid(rgs):
            raise DomainError(f"not a restricted growth string: {rgs!r}")
        object.__setattr__(self, "rgs", rgs)

    @property
    def num_blocks(self) -> int:
        return max(self.rgs) + 1 if self.rgs else 0

    @classmethod
    def discrete(cls, n: int):
        return cls(tuple(range(n)))

    def to_text(self) -> str:
        return ",".join(map(_block_text, self.rgs))

    @staticmethod
    def _parse(text: str) -> tuple[int, ...]:
        """The values of a comma-separated rgs text; the empty text is the empty rgs."""
        try:
            return tuple(int(tok) for tok in text.split(",")) if text else ()
        except ValueError:
            raise DomainError(f"rgs text {text!r} is not a comma-separated list of integers") from None

    @classmethod
    def from_text(cls, text: str):
        return cls(cls._parse(text.strip()))

    def __str__(self) -> str:
        return self.to_text() or "(empty)"


@_value_class("rgs")
class SetPartition(_Rgs):
    """A partition of {0,...,n-1} in canonical rgs form.

    The empty partition (n = 0) is a legal value: it appears as the
    0-th approximation of every prefix.
    """

    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.rgs)

    @property
    def blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for i, v in enumerate(self.rgs):
            out[v].append(i)
        return out

    def restrict(self, length: int) -> "SetPartition":
        if length < 0:
            raise DomainError(f"cannot restrict a partition to negative length {length}")
        if length > self.n:
            raise DomainError(f"cannot restrict length-{self.n} partition to {length}")
        return SetPartition(self.rgs[:length])


def _trusted(rgs: tuple[int, ...]) -> SetPartition:
    """A SetPartition of an rgs tuple the library generated itself, not re-validated."""
    p = object.__new__(SetPartition)
    object.__setattr__(p, "rgs", rgs)
    return p


def _check_m(m: int, *, n: int | None = None, k: int | None = None) -> None:
    """The one rule for m: at most the n points, or the k blocks, it keeps apart."""
    if n is not None and not 0 <= m <= n:
        raise DomainError(f"need 0 <= m <= n, got m={m}, n={n}")
    if k is not None and not 0 <= m <= k:
        raise DomainError(f"need 0 <= m <= k, got m={m}, k={k}")


def iter_rgs(n: int, m: int = 0) -> Iterator[tuple[int, ...]]:
    """All rgs of length n with points 0..m-1 in distinct blocks, lex order.

    Separating the first m points forces rgs[i] = i for i < m, so the
    constraint is a fixed prefix.  Built by last-slot expansion.
    """
    if n < 1:
        raise DomainError("domain size must be >= 1")
    _check_m(m, n=n)
    yield from _extend_rgs(n, tuple(range(max(m, 1))))


def _extend_rgs(n: int, base: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every length-n rgs extending base: each one point shorter, in lex
    order, extended by each value from 0 to one past its maximum."""
    if n == len(base):
        yield base
        return
    for prefix in _extend_rgs(n - 1, base):
        for v in range(max(prefix) + 2):
            yield prefix + (v,)


@lru_cache(maxsize=None)
def _completions(n: int) -> tuple[tuple[int, ...], ...]:
    """Per point i of a length-n rgs, C(n-1-i, b) for each b <= i.

    C(r, b), the ways to finish with r points to go and b blocks open, is 1 at
    r = 0 and b*C(r-1, b) + C(r-1, b+1) after: the next point joins or opens a block.
    """
    rows = [(1,) * n] if n else []
    for r in range(1, n):
        prev = rows[-1]
        rows.append(tuple(b * prev[b] + prev[b + 1] for b in range(n - r)))
    return tuple(reversed(rows))


@lru_cache(maxsize=1 << 17)  # all of Q(10), the largest space a fusion step reaches
def _rgs_rank(rgs: tuple[int, ...]) -> int:
    """The position of rgs in iter_rgs(len(rgs)), memoised (Knuth, TAOCP 7.2.1.5).

    Each smaller value at point i, with b blocks open before it, skips C(n-1-i, b) strings.
    """
    rank = blocks = 0
    for v, row in zip(rgs, _completions(len(rgs))):
        rank += v * row[blocks]
        blocks += v == blocks
    return rank


def _rgs_unrank(n: int, rank: int) -> tuple[int, ...]:
    """The rgs at position rank of iter_rgs(n); the inverse of _rgs_rank."""
    out: list[int] = []
    blocks = 0
    for row in _completions(n):
        # each value below `blocks` skips row[blocks] strings; value `blocks` opens a block
        v = min(rank // row[blocks], blocks)
        rank -= v * row[blocks]
        blocks += v == blocks
        out.append(v)
    return tuple(out)


def enumerate_partitions(n: int, m: int = 0) -> Iterator[SetPartition]:
    """Stream every partition of n points separating the first m, lex order."""
    for rgs in iter_rgs(n, m):
        yield _trusted(rgs)


def iter_equipartition_rgs(k: int, N: int, m: int = 0) -> Iterator[tuple[int, ...]]:
    """All rgs of k*N points with k blocks of N points each, first m separated; checks its arguments when called."""
    if k < 1 or N < 1:
        raise DomainError("need k >= 1 and N >= 1")
    _check_m(m, k=k)
    n = k * N
    a = [0] * n
    counts = [0] * k

    def rec(i: int, used: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(a)
            return
        # canonical form forces each of the first m points to open a block
        for j in range(used if i < m else 0, used + (used < k)):
            if counts[j] < N:
                a[i] = j
                counts[j] += 1
                yield from rec(i + 1, used + (j == used))
                counts[j] -= 1

    return rec(0, 0)


def enumerate_equipartitions(k: int, N: int, m: int = 0) -> Iterator[SetPartition]:
    """Stream the equipartitions of k*N points (k blocks of N), lex order."""
    for rgs in iter_equipartition_rgs(k, N, m):
        yield _trusted(rgs)


def is_coarsening(s: SetPartition, t: SetPartition) -> bool:
    """s <= t: true iff every t-block is contained in a single s-block."""
    if s.n != t.n:
        raise DomainError(f"domain size mismatch: {s.n} vs {t.n}")
    return rgs_leq(s.rgs, t.rgs)


def meet_refine(t1: SetPartition, t2: SetPartition) -> SetPartition:
    """Least common upper bound of t1, t2: their common refinement."""
    if t1.n != t2.n:
        raise DomainError(f"domain size mismatch: {t1.n} vs {t2.n}")
    return _trusted(rgs_meet(t1.rgs, t2.rgs))


def count_partitions(n: int, m: int = 0) -> int:
    """|Q^m(n)|, the r-Bell number sum_j C(n-m, j) m^(n-m-j) B(j) (Mezo 2011); B(n) at m <= 1.

    j of the n-m other points form blocks of their own, and the rest each
    join one of the first m.  Row j of the Bell triangle starts with B(j).
    """
    if n < 1:
        raise DomainError("domain size must be >= 1")
    _check_m(m, n=n)
    bell, row = [], [1]
    for _ in range(n - m + 1):
        bell.append(row[0])
        row = list(accumulate(row, initial=row[-1]))
    return sum(comb(n - m, j) * m ** (n - m - j) * b for j, b in enumerate(bell))


def count_equipartitions(k: int, N: int, m: int = 0) -> int:
    """(kN-m)! / ((N-1)!^m N!^(k-m) (k-m)!): the first m points fill m blocks, the k-m others are unordered."""
    if k < 1 or N < 1:
        raise DomainError("need k >= 1 and N >= 1")
    _check_m(m, k=k)
    return factorial(k * N - m) // (factorial(N - 1) ** m * factorial(N) ** (k - m) * factorial(k - m))


def _coarsening_rgs(s: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every t <= s of a non-empty rgs s, merging s-blocks along every partition of the blocks.

    s numbers its blocks by first occurrence and q is an rgs, so the
    composition q[s[i]] is already canonical.
    """
    for q in iter_rgs(max(s) + 1):
        yield tuple(q[v] for v in s)


def coarsenings_of(s: SetPartition) -> Iterator[SetPartition]:
    """All t <= s, in the order of _coarsening_rgs; the empty partition is its own."""
    yield from map(_trusted, _coarsening_rgs(s.rgs)) if s.n else (s,)
