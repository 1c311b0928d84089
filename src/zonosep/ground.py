"""Ground-set conventions, interval structure, and interval corteges.

Subsets of the ground set [n] = {1, ..., n} are represented as machine
integers: bit i-1 set means element i is present.  All arithmetic on
subsets is exact bit arithmetic; n is capped at 64 so that a subset
always fits one word on any sensible backend.

An interval [a, b] is the set {a, a+1, ..., b}, and a k-interval is a
disjoint union of k intervals that cannot be written with fewer (the
empty set is the unique 0-interval).

For two subsets A and B, the *interval cortege* of the pair is the
unique minimal sequence of intervals I_1 < I_2 < ... < I_k, alternately
covering A - B and B - A, minimizing first the number of intervals and
then their total length.  Concretely: merge the elements of A - B and
B - A into one increasing sequence, group maximal runs coming from the
same side, and record [min, max] of each run.  The number k of
intervals is the *interlacing degree* of the pair; the pair is
r-separated when k <= r + 1 and (r+1)-interlaced when k = r + 1
exactly.

Example: A = {1,2,5,6,7,10}, B = {2,3,6,9} produces the cortege
({1}_A, {3}_B, [5,7]_A, {9}_B, {10}_A), so the pair is 5-interlaced.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable

MAX_GROUND = 64

SIDE_A = "A"
SIDE_B = "B"


def check_ground(n: int) -> int:
    """Validate a ground-set size, returning it unchanged."""
    if not isinstance(n, int) or not 1 <= n <= MAX_GROUND:
        raise ValueError(f"ground-set size must be an integer in 1..{MAX_GROUND}, got {n!r}")
    return n


def mask_of(elems: Iterable[int], n: int) -> int:
    """Build a subset mask from 1-indexed elements, validating the range."""
    check_ground(n)
    m = 0
    for e in elems:
        if not isinstance(e, int) or not 1 <= e <= n:
            raise ValueError(f"element {e!r} outside ground set [{n}]")
        m |= 1 << (e - 1)
    return m


def check_mask(mask: int, n: int) -> int:
    """Validate that a mask only uses bits of [n], returning it unchanged."""
    if mask < 0 or mask >> n:
        raise ValueError(f"mask {mask:#x} has elements outside ground set [{n}]")
    return mask


def elements(mask: int) -> list[int]:
    """1-indexed elements of a mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def submasks(mask: int) -> list[int]:
    """Every submask of a mask, from the mask itself down to 0."""
    out = []
    sub = mask
    while True:
        out.append(sub)
        if sub == 0:
            return out
        sub = (sub - 1) & mask


def set_notation(mask: int) -> str:
    """Render a mask as {1,3,4}; the empty set renders as {}."""
    return "{" + ",".join(str(e) for e in elements(mask)) + "}"


class Record:
    """Equality and hash by value over `__slots__`, for the checked records.

    A subclass lists its fields in `__slots__` and checks them in its
    `__init__`; two records are equal when their types and fields are.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))


class CortegeInterval(Record):
    """One interval of a cortege: [lo, hi] covering a run from one side;
    side SIDE_A covers A - B, SIDE_B covers B - A."""

    __slots__ = ("lo", "hi", "side")

    def __init__(self, lo: int, hi: int, side: str) -> None:
        if lo > hi or lo < 1:
            raise ValueError(f"bad interval [{lo},{hi}]")
        if side not in (SIDE_A, SIDE_B):
            raise ValueError(f"side must be {SIDE_A!r} or {SIDE_B!r}")
        self.lo, self.hi, self.side = lo, hi, side

    def to_json(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "side": self.side}


class Cortege(Record):
    """Minimal alternating interval cover of (A - B, B - A) for a pair A, B.

    Intervals are strictly increasing and strictly alternate sides; the
    empty cortege belongs to a pair with A = B.
    """

    __slots__ = ("intervals",)

    def __init__(self, intervals: tuple[CortegeInterval, ...]) -> None:
        prev = None
        for iv in intervals:
            if prev is not None:
                if prev.hi >= iv.lo:
                    raise ValueError("cortege intervals must be strictly increasing")
                if prev.side == iv.side:
                    raise ValueError("cortege intervals must alternate sides")
            prev = iv
        self.intervals = intervals

    @property
    def degree(self) -> int:
        return len(self.intervals)

    def to_json(self) -> list[dict]:
        return [iv.to_json() for iv in self.intervals]


def interval_cortege(a: int, b: int) -> Cortege:
    """Minimal alternating interval cover of the pair (A, B).

    Runs of consecutive same-side elements in the merged sequence of
    A - B and B - A each contribute the interval [min, max] of the run;
    this is the unique minimizer of (count, total length).
    """
    d1 = a & ~b
    d2 = b & ~a
    union = d1 | d2
    out: list[CortegeInterval] = []
    side = ""
    lo = hi = 0
    while union:
        low = union & -union
        e = low.bit_length()
        s = SIDE_A if d1 & low else SIDE_B
        if s != side:
            if side:
                out.append(CortegeInterval(lo, hi, side))
            side, lo = s, e
        hi = e
        union ^= low
    if side:
        out.append(CortegeInterval(lo, hi, side))
    return Cortege(tuple(out))


def interlacing_degree(a: int, b: int) -> int:
    """Number of cortege intervals of the pair (A, B); 0 iff A = B."""
    d1 = a & ~b
    d2 = b & ~a
    union = d1 | d2
    blocks = 0
    on_a = -1
    while union:
        low = union & -union
        s = 1 if d1 & low else 0
        if s != on_a:
            blocks += 1
            on_a = s
        union ^= low
    return blocks
