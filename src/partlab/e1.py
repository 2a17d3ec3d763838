"""Windowed reductions between grid equivalences and partition coarsening.

A BinaryGrid is a finite truncation of a 0/1 array indexed by pairs of
naturals.  Two grids are window-equivalent when their rows agree from
some index on (fixed alignment) or after independent shifts (tail
alignment); both verdicts are relative to the window and never
extrapolated.

reduce_f turns a grid into a partition prefix through a fixed
round-robin allocation of the integers, and blowup_iso inflates a
partition prefix along the blocks of a finer one.  Both fail with
InsufficientTruncationError when the window cannot decide a membership.
"""

from __future__ import annotations

from itertools import chain, count, islice

from .errors import DomainError, InsufficientTruncationError
from .partitions import _value_class, relabel_canonical
from .prefixes import PartitionPrefix, mu_sequence

__all__ = [
    "BinaryGrid",
    "AllocationScheme",
    "round_robin_alloc",
    "cs_encode",
    "cs_decode",
    "e1_window_equiv",
    "reduce_f",
    "blowup_iso",
    "blowup_inverse",
]


@_value_class()
class BinaryGrid:
    """An R x C matrix of bits, rows indexed from 0."""

    __slots__ = ("bits",)

    def __init__(self, bits: tuple[tuple[int, ...], ...]):
        bits = tuple(tuple(row) for row in bits)
        if not bits or not bits[0]:
            raise DomainError("grid dimensions must be positive")
        width = len(bits[0])
        for row in bits:
            if len(row) != width:
                raise DomainError("ragged grid")
            if any(b not in (0, 1) for b in row):
                raise DomainError("grid entries must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    @property
    def R(self) -> int:
        return len(self.bits)

    @property
    def C(self) -> int:
        return len(self.bits[0])

    def row_support(self, n: int) -> frozenset:
        return frozenset(m for m, b in enumerate(self.bits[n]) if b)

    def is_cs(self) -> bool:
        """Row supports nonempty, pairwise disjoint, minima strictly increasing."""
        prev_min = -1
        seen: set = set()
        for n in range(self.R):
            sup = self.row_support(n)
            if not sup or sup & seen:
                return False
            lo = min(sup)
            if lo <= prev_min:
                return False
            prev_min = lo
            seen |= sup
        return True

    def to_text(self) -> str:
        lines = [f"{self.R} {self.C}"]
        lines.extend("".join(str(b) for b in row) for row in self.bits)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BinaryGrid":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise DomainError("empty grid text")
        try:
            r, c = (int(tok) for tok in lines[0].split())
        except ValueError:
            raise DomainError(f"bad grid header: {lines[0]!r}") from None
        body = lines[1:]
        if len(body) != r:
            raise DomainError(f"header says {r} rows, found {len(body)}")
        rows = []
        for ln in body:
            ln = ln.strip()
            if len(ln) != c or set(ln) - {"0", "1"}:
                raise DomainError(f"bad grid row: {ln!r}")
            rows.append(tuple(int(ch) for ch in ln))
        return cls(tuple(rows))


@_value_class()
class AllocationScheme:
    """Assignment of the integers below a horizon to one spine and many lanes.

    owner[p] is -1 for the spine or the lane index of p.  spine lists the
    spine in increasing order (so spine[j] plays the role of the j-th
    spine value) and lanes[k] lists lane k in increasing order.
    """

    __slots__ = ("L", "owner", "spine", "lanes")

    def __init__(self, L: int, owner: tuple[int, ...], spine: tuple[int, ...], lanes: tuple[tuple[int, ...], ...]):
        if L < 1 or len(owner) != L:
            raise DomainError("scheme must cover a positive horizon")
        for name, value in zip(self.__slots__, (L, owner, spine, lanes)):
            object.__setattr__(self, name, value)


def round_robin_alloc(L: int) -> AllocationScheme:
    """The canonical deterministic scheme below horizon L.

    Round n hands the two smallest unassigned integers to the spine,
    opens lane n with the next one, then gives one further integer to
    each of lanes 0..n in order.  Output is truncated at L.
    """
    if L < 1:
        raise DomainError("need L >= 1")
    rounds = ((-1, -1, n, *range(n + 1)) for n in count())
    owner = tuple(islice(chain.from_iterable(rounds), L))
    spine = tuple(p for p, who in enumerate(owner) if who == -1)
    # lane n opens once both spine values of round n fit
    lanes: list[list[int]] = [[] for _ in range(len(spine) // 2)]
    for p, who in enumerate(owner):
        if who >= 0:
            lanes[who].append(p)
    return AllocationScheme(L, owner, spine, tuple(tuple(lane) for lane in lanes))


def cs_encode(A: PartitionPrefix) -> BinaryGrid:
    """Block indicator grid: row n marks the points of A's n-th block."""
    rows = tuple(
        tuple(1 if v == n else 0 for v in A.rgs) for n in range(A.num_blocks)
    )
    return BinaryGrid(rows)


def cs_decode(x: BinaryGrid) -> PartitionPrefix:
    """Inverse of cs_encode; the grid must be a block indicator matrix."""
    rgs = []
    for m in range(x.C):
        hits = [n for n in range(x.R) if x.bits[n][m]]
        if len(hits) != 1:
            raise DomainError(f"column {m} lies in {len(hits)} rows, expected 1")
        rgs.append(hits[0])
    # one row per column plus is_cs: rows nonempty with increasing minima, so rgs is canonical
    if not x.is_cs():
        raise DomainError("grid is not a block indicator matrix in minimum order")
    return PartitionPrefix(tuple(rgs))


def e1_window_equiv(x: BinaryGrid, y: BinaryGrid, mode: str):
    """Least row-agreement witness inside the window, or None.

    mode "fixed": the least n0 < R with x and y equal on all rows >= n0.
    mode "tail": the least pair (n_x, n_y), ordered by total shift then
    n_x, with x's rows from n_x matching y's rows from n_y for as long
    as both windows last; at least one row must actually be compared.
    """
    if (x.R, x.C) != (y.R, y.C):
        raise DomainError("grids must have equal dimensions")
    if mode == "fixed":
        for n0 in range(x.R):
            if x.bits[n0:] == y.bits[n0:]:
                return n0
        return None
    if mode == "tail":
        pairs = sorted(
            ((nx + ny, nx, ny) for nx in range(x.R) for ny in range(y.R)),
        )
        for _, nx, ny in pairs:
            span = x.R - max(nx, ny)  # >= 1: nx and ny are both below R
            if x.bits[nx : nx + span] == y.bits[ny : ny + span]:
                return (nx, ny)
        return None
    raise DomainError(f"mode must be 'fixed' or 'tail', got {mode!r}")


def reduce_f(x: BinaryGrid, L: int) -> PartitionPrefix:
    """Grid-to-partition reduction below horizon L.

    Spine value 2n and the lane-n points selected by row n of x form one
    block; spine value 2n+1 and the unselected lane-n points form the
    next.  Block minima are the spine values in order.
    """
    scheme = round_robin_alloc(L)
    # each owner's next position: lane n's at seen[n], the spine's at seen[-1]
    seen = [0] * (len(scheme.lanes) + 1)
    labels = []
    for p, who in enumerate(scheme.owner):
        i = seen[who]
        seen[who] = i + 1
        if who == -1:
            j = i
        elif who >= x.R or i >= x.C:
            raise InsufficientTruncationError(
                f"grid window {x.R}x{x.C} cannot decide point {p} (row {who}, column {i})"
            )
        else:
            j = 2 * who if x.bits[who][i] else 2 * who + 1
        labels.append(j)
    return PartitionPrefix(relabel_canonical(labels))


def blowup_iso(A: PartitionPrefix, D: PartitionPrefix) -> PartitionPrefix:
    """Inflate A along D: point k of A stands for D's k-th block.

    The n-th output block is the union of the D-blocks indexed by A's
    n-th block.  The window is trimmed at the first point of D lying in
    an unreferenced block, so the output stays an initial segment.
    """
    if D.num_blocks < A.L:
        raise InsufficientTruncationError(
            f"D shows {D.num_blocks} blocks but A references {A.L}"
        )
    mu = mu_sequence(D)
    limit = mu[A.L] if A.L < len(mu) else D.L
    labels = [A.rgs[D.rgs[p]] for p in range(limit)]
    return PartitionPrefix(relabel_canonical(labels))


def blowup_inverse(Bp: PartitionPrefix, D: PartitionPrefix) -> PartitionPrefix:
    """Read A back off the D-block decomposition of an inflated prefix."""
    mu = mu_sequence(D)
    if Bp.L > D.L:
        raise InsufficientTruncationError(
            f"inflated window of {Bp.L} exceeds the D window of {D.L}"
        )
    referenced = sum(1 for lo in mu if lo < Bp.L)
    rgs = []
    for k in range(referenced):
        seenlabels = {Bp.rgs[p] for p in range(Bp.L) if D.rgs[p] == k}
        if len(seenlabels) != 1:
            raise DomainError(f"block {k} of D is split by the inflated prefix")
        rgs.append(seenlabels.pop())
    return PartitionPrefix(relabel_canonical(rgs))
