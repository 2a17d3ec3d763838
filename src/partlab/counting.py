"""Exact counting formulas and inequality material for the witness engines.

Everything on a counting path is exact: big integers and Fractions.  The
only floating-point value in the package is the entropy-relaxed
diagnostic of comb_ratio_bound, which is explicitly approximate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import DomainError
from .partitions import SetPartition, _value_class, is_coarsening

__all__ = [
    "CoarseningProfile",
    "profile_of",
    "count_extensions",
    "entropy_bounds",
    "ratio_R",
    "comb_ratio_bound",
    "CombRatioBound",
]


@_value_class()
class CoarseningProfile:
    """Shape data of a coarse partition t inside the equipartition space.

    blocks[i] = (k_i, m_i): block i covers k_i * N points and contains
    m_i of the distinguished points 0..m-1.  splits[i] lists the
    refinement sub-blocks (k_ij, m_ij) of block i, ordered by minimum;
    an unsplit block has the single entry (k_i, m_i).
    """

    __slots__ = ("blocks", "splits")

    def __init__(self, blocks: tuple[tuple[int, int], ...], splits: tuple[tuple[tuple[int, int], ...], ...]):
        if len(blocks) != len(splits) or not blocks:
            raise DomainError("profile needs one split list per block")
        for (ki, mi), sub in zip(blocks, splits):
            if ki <= 0 or not 0 <= mi <= ki:
                raise DomainError(f"bad block data (k_i={ki}, m_i={mi})")
            if not sub:
                raise DomainError("each block needs at least one sub-block")
            if sum(kij for kij, _ in sub) != ki or sum(mij for _, mij in sub) != mi:
                raise DomainError(f"sub-blocks do not add up for block ({ki}, {mi})")
            for kij, mij in sub:
                if kij <= 0 or not 0 <= mij <= kij:
                    raise DomainError(f"bad sub-block data (k_ij={kij}, m_ij={mij})")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "splits", splits)

    @property
    def u(self) -> int:
        return len(self.blocks)

    @property
    def k(self) -> int:
        return sum(ki for ki, _ in self.blocks)

    @property
    def m(self) -> int:
        return sum(mi for _, mi in self.blocks)


def profile_of(
    t: SetPartition, N: int, m: int, h: Optional[SetPartition] = None
) -> CoarseningProfile:
    """Extract the profile of t (refined by h, if given) at grain N.

    Raises DomainError when t cannot coarsen any equipartition with the
    given parameters: a block size not a multiple of N, or more than
    k_i distinguished points in a block.
    """
    if N < 1:
        raise DomainError("need N >= 1")
    if not 0 <= m <= t.n:
        raise DomainError(f"need 0 <= m <= {t.n}")
    if h is None:
        h = t
    elif not is_coarsening(t, h):
        raise DomainError("h must refine t")

    def grain(points: list[int], what: str) -> tuple[int, int]:
        if len(points) % N != 0:
            raise DomainError(f"{what} of size {len(points)} is not a multiple of N={N}")
        return len(points) // N, sum(1 for p in points if p < m)

    # each h-block lies in the t-block of its least point; h.blocks is in order of minima
    subs: list[list[list[int]]] = [[] for _ in range(t.num_blocks)]
    for sub in h.blocks:
        subs[t.rgs[sub[0]]].append(sub)
    blocks = []
    splits = []
    for blk, group in zip(t.blocks, subs):
        blocks.append(grain(blk, "block"))
        splits.append(tuple(grain(sub, "sub-block") for sub in group))
    return CoarseningProfile(tuple(blocks), tuple(splits))


def count_extensions(profile: CoarseningProfile, k: int, N: int, m: int) -> int:
    """|{s in the (k, N, m) equipartition space : t <= s}| for t of this profile.

    Product formula: 1/((N-1)!^m N!^(k-m)) * prod_i (k_i N - m_i)!/(k_i - m_i)!.
    """
    if N < 1:
        raise DomainError("need N >= 1")
    if profile.k != k or profile.m != m:
        raise DomainError(
            f"profile totals (k={profile.k}, m={profile.m}) do not match ({k}, {m})"
        )
    num = 1
    den = math.factorial(N - 1) ** m * math.factorial(N) ** (k - m)
    for ki, mi in profile.blocks:
        num *= math.factorial(ki * N - mi) // math.factorial(ki - mi)
    return num // den  # exact: the product of each block's count_equipartitions(k_i, N, m_i)


def _pow2_entropy_exact(a: int, b: int) -> Fraction:
    """2^(b H(a/b)) as the exact rational b^b / (a^a (b-a)^(b-a)); 0^0 = 1."""
    return Fraction(b**b, a**a * (b - a) ** (b - a))


def entropy_bounds(a: int, b: int) -> tuple[Fraction, int, Fraction]:
    """The sandwich (1/(b+1)) 2^(b H(a/b)) <= C(b, a) <= 2^(b H(a/b)).

    Returns (lower, binomial, upper) as exact values so the comparison
    involves no floating point.
    """
    if b < 1 or not 0 <= a <= b:
        raise DomainError(f"need 0 <= a <= b and b >= 1, got a={a}, b={b}")
    power = _pow2_entropy_exact(a, b)
    return power / (b + 1), math.comb(b, a), power


def ratio_R(a1: int, a2: int, b1: int, b2: int, N: int) -> Fraction:
    """Exact value of the factorial-combination ratio at a given N.

    With a = a1 + a2 and b = b1 + b2, the paper's form
    ((a1 N - b1)!/(a1 - b1)!) ((a2 N - b2)!/(a2 - b2)!) ((a - b)!/(a N - b)!)
    equals C(a - b, a1 - b1) / C(a N - b, a1 N - b1), the fraction of the
    (a, N, b) equipartitions that refine a fixed (a1, b1) | (a2, b2) split.
    """
    for a, b in ((a1, b1), (a2, b2)):
        if a < 1 or not 0 <= b <= a:
            raise DomainError(f"need 0 <= b <= a and a >= 1, got a={a}, b={b}")
    if N < 1:
        raise DomainError("need N >= 1")
    a, b = a1 + a2, b1 + b2
    return Fraction(math.comb(a - b, a1 - b1), math.comb(a * N - b, a1 * N - b1))


class CombRatioBound(NamedTuple):
    exact: Fraction  # product of binomial quotients, exact
    entropy_diag: float  # entropy-relaxed upper bound, approximate


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def comb_ratio_bound(profile: CoarseningProfile, N: int) -> CombRatioBound:
    """Bound on the fraction of candidates above a strictly split block.

    Exact form: product over blocks with k_{i,1} < k_i of
    ratio_R(k_{i,1}, k_i - k_{i,1}, m_{i,1}, m_i - m_{i,1}, N)
    = C(k_i - m_i, k_{i,1} - m_{i,1}) / C(k_i N - m_i, k_{i,1} N - m_{i,1}).
    The entropy-relaxed product is returned as a float diagnostic only.
    """
    if N < 1:
        raise DomainError("need N >= 1")
    exact = Fraction(1)
    diag = 1.0
    split_seen = False
    for (ki, mi), sub in zip(profile.blocks, profile.splits):
        ki1, mi1 = sub[0]
        if ki1 >= ki:
            continue
        split_seen = True
        exact *= ratio_R(ki1, ki - ki1, mi1, mi - mi1, N)
        small = ki - mi
        big = ki * N - mi
        h_small = _binary_entropy((ki1 - mi1) / small) if small else 0.0
        h_big = _binary_entropy((ki1 * N - mi1) / big) if big else 0.0
        diag *= (big + 1) * 2.0 ** (small * h_small - big * h_big)
    if not split_seen:
        raise DomainError("profile has no strictly split block; ratio bound undefined")
    return CombRatioBound(exact, diag)
