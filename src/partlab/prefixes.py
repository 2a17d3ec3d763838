"""Finite truncations of infinite partitions and the cut/trace calculus.

A PartitionPrefix is the restriction to {0,...,L-1} of an infinite
partition all of whose blocks are open-ended; the representation is the
same canonical rgs as SetPartition, on the same base, plus the semantic
convention that every visible block extends past the window.

Every operation that the window cannot decide raises
InsufficientTruncationError rather than guessing.
"""

from __future__ import annotations

from .errors import DomainError, InsufficientTruncationError, NotACutError
from .partitions import SetPartition, _Rgs, _value_class, relabel_canonical, rgs_leq

__all__ = [
    "PartitionPrefix",
    "mu_sequence",
    "approx_r",
    "trace",
    "depth",
    "cube_member",
    "induced_coarsening_h",
    "project_g",
    "prefix_is_coarsening",
]


@_value_class("rgs")
class PartitionPrefix(_Rgs):
    """Length-L window onto an infinite partition with open-ended blocks."""

    __slots__ = ()

    def __init__(self, rgs: tuple[int, ...]):
        rgs = tuple(rgs)
        if not rgs:
            raise DomainError("a prefix must have positive length")
        super().__init__(rgs)

    @property
    def L(self) -> int:
        return len(self.rgs)

    def as_partition(self) -> SetPartition:
        return SetPartition(self.rgs)

    def restrict(self, length: int) -> SetPartition:
        if length < 0:
            raise DomainError(f"cannot restrict a prefix to negative length {length}")
        if length > self.L:
            raise InsufficientTruncationError(
                f"window of length {self.L} cannot be restricted to {length}"
            )
        return SetPartition(self.rgs[:length])

    def to_text(self) -> str:
        return f"L={self.L};" + super().to_text()

    @classmethod
    def from_text(cls, text: str) -> "PartitionPrefix":
        text = text.strip()
        if not text.startswith("L="):
            raise DomainError(f"prefix text must carry an 'L=<n>;' header: {text!r}")
        head, _, body = text.partition(";")
        try:
            length = int(head[2:])
        except ValueError:
            raise DomainError(f"prefix text {text!r} has a non-integer length {head[2:]!r}") from None
        rgs = cls._parse(body)
        if len(rgs) != length:
            raise DomainError(f"header length {length} does not match body of {len(rgs)}")
        return cls(rgs)


def mu_sequence(B: PartitionPrefix) -> list[int]:
    """Block minima of B visible in the window, in increasing order."""
    mins = [-1] * B.num_blocks
    for i, v in enumerate(B.rgs):
        if mins[v] < 0:
            mins[v] = i
    return mins  # block index order == order of minima, by rgs canonicity


def _mu_cut(B: PartitionPrefix, n: int) -> int:
    """mu_n(B), the n-th block minimum of B, when the window shows it."""
    if n < 0:
        raise DomainError(f"depth must be >= 0, got {n}")
    mu = mu_sequence(B)
    if n >= len(mu):
        raise InsufficientTruncationError(
            f"B shows {len(mu)} blocks, so mu_{n} of B lies beyond its window of length {B.L}"
        )
    return mu[n]


def approx_r(B: PartitionPrefix, n: int) -> SetPartition:
    """The n-th approximation: B restricted to its first n block minima."""
    return trace(B, B, n)


def trace(A: PartitionPrefix, B: PartitionPrefix, n: int) -> SetPartition:
    """tr(A, B, n): A cut at B's n-th block minimum.

    Unlike approx_r, the cut point comes from B; the result need not be
    an approximation of A.
    """
    cut = _mu_cut(B, n)
    if cut > A.L:
        raise InsufficientTruncationError(
            f"trace needs A through {cut} points but window has {A.L}"
        )
    return SetPartition(A.rgs[:cut])


def depth(B: PartitionPrefix, s: SetPartition) -> int:
    """The unique m with dom(s) = {0,...,mu_m(B)-1}."""
    if s.n == 0:
        return 0
    mu = mu_sequence(B)
    if s.n >= B.L:
        # mu_{len(mu)} might equal s.n in some extension of the window
        raise InsufficientTruncationError(
            f"cannot decide whether {s.n} is a cut of a window of length {B.L}"
        )
    try:
        return mu.index(s.n)
    except ValueError:
        raise NotACutError(f"{s.n} is not a block minimum of {B}") from None


def cube_member(s: SetPartition, A: PartitionPrefix, B: PartitionPrefix) -> bool:
    """Window approximation of B in [s, A]: s end-extends to B and B <= A.

    End-extension requires s to be a whole approximation of B (its domain
    size a block-minimum cut); the coarsening clause is checked on the
    common window of A and B.
    """
    if s.n > B.L:
        raise InsufficientTruncationError(
            f"cannot check end-extension of {s.n} points in a window of {B.L}"
        )
    if s.n > 0:
        if B.rgs[: s.n] != s.rgs:
            return False
        try:
            depth(B, s)
        except NotACutError:
            return False
    return prefix_is_coarsening(B, A)


def induced_coarsening_h(t: SetPartition, B: PartitionPrefix, mprime: int) -> PartitionPrefix:
    """Coarsening of B induced by t on its first mprime blocks.

    Blocks i, j < mprime merge exactly when i t j; blocks >= mprime are
    left intact.  The result coarsens B.
    """
    if t.n != mprime:
        raise DomainError(f"t must live on {mprime} points, has {t.n}")
    if B.num_blocks < mprime:
        raise InsufficientTruncationError(
            f"B shows {B.num_blocks} blocks, need at least {mprime}"
        )
    # t-labels lie below mprime and the kept B-labels at or above it, so they never collide
    return PartitionPrefix(relabel_canonical(t.rgs[v] if v < mprime else v for v in B.rgs))


def project_g(C: PartitionPrefix, B: PartitionPrefix, mprime: int) -> SetPartition:
    """Partition of B's first mprime block minima induced by C.

    Case split mirrors the construction: if C does not coarsen B's
    approximation on that window, fall back to the discrete partition.
    """
    cut = _mu_cut(B, mprime)
    if cut > C.L:
        raise InsufficientTruncationError(
            f"C window of length {C.L} does not reach mu_{mprime}(B) = {cut}"
        )
    c_cut = C.rgs[:cut]
    if not rgs_leq(c_cut, B.rgs[:cut]):
        return SetPartition.discrete(mprime)
    # B.rgs.index(i) is the least point of B's block i
    return SetPartition(relabel_canonical(c_cut[B.rgs.index(i)] for i in range(mprime)))


def prefix_is_coarsening(A: PartitionPrefix, B: PartitionPrefix) -> bool:
    """A <= B on the common window of the two prefixes."""
    overlap = min(A.L, B.L)
    return rgs_leq(A.rgs[:overlap], B.rgs[:overlap])
