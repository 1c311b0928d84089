"""Set systems, pairwise compatibility predicates, and their relation tables.

A SetSystem is a family of subsets of [n] in canonical order (by
cardinality, then numeric bit value).  A PairwisePredicate is one of
four pairwise compatibility rules,

    STRONG(r)             interlacing degree <= r + 1,
    WEAK_ODD(r)           weak separation, r odd,
    WEAK_EVEN(r)          weak separation, r even,
    WEAK_EVEN_NO_COMB(r)  weak separation, r even, and no double r-comb,

and this module checks a system against a predicate pair by pair,
completes a partial system deterministically to a maximal one, and
gives the exact maximum size of a compatible system (`max_size`, a
front for the branch and bound of the `search` module, which it
imports when called, so that a command that never searches does not
compile the search).

Every pair table in the package comes from relation_table: one row
bitset per subset of [n], assembled on first use from one predicate
call per disjoint pair of difference sets and memoised per
(n, predicate).  The searches read it as an adjacency
matrix, maximal extension and the cubillage validator read its rows,
and the membrane scans and the flip harnesses read its complement.

The expected maximum for strong separation is the closed form

    s(n, r) = C(n,0) + C(n,1) + ... + C(n,r+1),

which weak separation provably meets for odd r; the searches are what
check such statements exhaustively at desk scale.  The
limits on n are one table below, and check_limit rejects a larger
ground set before any work starts rather than approximating it.

The 55-member witness on [6] showing that maximal weakly 3-separated
systems need not all reach the maximum size 57 is also built here: the
52 vertices of the four-dimensional cyclic zonotope on six generators
plus {2,4}, {3,5}, {1,3,4,6}.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import comb
from operator import lshift, or_
from typing import Callable, Iterable, Iterator, Sequence

from .ground import Record, check_ground, check_mask, elements, mask_of, set_notation
from .separation import (
    is_double_r_comb,
    is_strongly_r_separated,
    is_weakly_r_separated,
)

SCHEMA = "zonosep/1"

# The limits on n, each checked by check_limit before the work it guards.
# A relation table has 2^n rows of 2^n bits, 4096 rows of 512 bytes at 12,
# and its build holds 3^n predicate verdicts, ~13 MiB at its peak at 12;
# the 2^n scans, the flip harnesses and the membrane scans share its limit.
# An exhaustive search takes n up to its bound= (default 7), at most 8.
RELATION_TABLE_CAP = 12
DEFAULT_EXHAUSTIVE_BOUND = 7
HARD_EXHAUSTIVE_CAP = 8
TABLE_LIMIT = "the relation-table cap {} (a table has 2^n rows of 2^n bits)"
SEARCH_LIMIT = f"the exhaustive-search bound {{}} (bound= raises it to {HARD_EXHAUSTIVE_CAP})"

RELATION_CACHE_SIZE = 8

KIND_STRONG = "STRONG"
KIND_WEAK_ODD = "WEAK_ODD"
KIND_WEAK_EVEN = "WEAK_EVEN"
KIND_WEAK_EVEN_NO_COMB = "WEAK_EVEN_NO_COMB"


def canonical_key(mask: int) -> tuple[int, int]:
    """Sort key for the canonical member order: cardinality, then bit value."""
    return (mask.bit_count(), mask)


class SetSystem(Record):
    """Family of subsets of [n] in canonical order."""

    __slots__ = ("n", "members")

    def __init__(self, n: int, members: tuple[int, ...]) -> None:
        check_ground(n)
        seen = set()
        prev = None
        for mask in members:
            check_mask(mask, n)
            if mask in seen:
                raise ValueError(f"duplicate member {set_notation(mask)}")
            seen.add(mask)
            key = canonical_key(mask)
            if prev is not None and key <= prev:
                raise ValueError("members not in canonical order")
            prev = key
        self.n, self.members = n, members

    @staticmethod
    def from_masks(n: int, masks: Iterable[int]) -> "SetSystem":
        return SetSystem(n, tuple(sorted(set(masks), key=canonical_key)))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, mask: int) -> bool:
        return mask in self.members

    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def to_lists(self) -> list[list[int]]:
        return [elements(mask) for mask in self.members]

    def to_json(self, predicate: "PairwisePredicate | None" = None) -> dict:
        blob: dict = {"schema": SCHEMA, "n": self.n}
        if predicate is not None:
            blob["predicate"] = predicate.to_json()
        blob["members"] = self.to_lists()
        return blob

    def __str__(self) -> str:
        return "{" + ", ".join(set_notation(mask) for mask in self.members) + "}"


class PairwisePredicate(Record):
    """One of the four compatibility predicates, with its parameter r;
    equal predicates share their `relation_table` cache entries."""

    __slots__ = ("kind", "r")

    def __init__(self, kind: str, r: int) -> None:
        if kind == KIND_STRONG:
            if r < 0:
                raise ValueError("STRONG needs r >= 0")
        elif kind == KIND_WEAK_ODD:
            if r < 1 or r % 2 == 0:
                raise ValueError("WEAK_ODD needs odd positive r")
        elif kind in (KIND_WEAK_EVEN, KIND_WEAK_EVEN_NO_COMB):
            if r < 2 or r % 2:
                raise ValueError(f"{kind} needs even positive r")
        else:
            raise ValueError(f"unknown predicate kind {kind!r}")
        self.kind, self.r = kind, r

    def rule(self) -> tuple[Callable[[int, int, int], bool], int]:
        """(f, r) with f(a, b, r) the verdict on the pair (a, b): the kind
        resolved once for a caller that asks about many pairs."""
        if self.kind == KIND_STRONG:
            return is_strongly_r_separated, self.r
        if self.kind in (KIND_WEAK_ODD, KIND_WEAK_EVEN):
            return is_weakly_r_separated, self.r
        return _is_weakly_r_separated_no_comb, self.r

    def holds(self, a: int, b: int) -> bool:
        f, r = self.rule()
        return f(a, b, r)

    def label(self) -> str:
        return f"{self.kind}({self.r})"

    def to_json(self) -> dict:
        return {"kind": self.kind, "r": self.r}


def _is_weakly_r_separated_no_comb(a: int, b: int, r: int) -> bool:
    return is_weakly_r_separated(a, b, r) and not is_double_r_comb(a, b, r)


def strong(r: int) -> PairwisePredicate:
    return PairwisePredicate(KIND_STRONG, r)


def weak_odd(r: int) -> PairwisePredicate:
    return PairwisePredicate(KIND_WEAK_ODD, r)


def weak_even(r: int) -> PairwisePredicate:
    return PairwisePredicate(KIND_WEAK_EVEN, r)


def weak_even_no_comb(r: int) -> PairwisePredicate:
    return PairwisePredicate(KIND_WEAK_EVEN_NO_COMB, r)


def weak(r: int) -> PairwisePredicate:
    """Weak separation with parity dispatched from r."""
    return weak_odd(r) if r % 2 else weak_even(r)


def s_formula(n: int, r: int) -> int:
    """s(n, r) = sum of C(n, j) for j = 0..r+1."""
    check_ground(n)
    if not 0 <= r < n:
        raise ValueError(f"need 0 <= r < n, got r={r}, n={n}")
    return sum(comb(n, j) for j in range(r + 2))


def check_pairwise(
    system: SetSystem, predicate: PairwisePredicate
) -> tuple[bool, tuple[int, int] | None]:
    """All pairs compatible?  Returns the first violating pair in canonical order.

    One predicate call per pair, never the relation table, so that it
    re-checks what the table-based searches return.
    """
    holds, r = predicate.rule()
    members = system.members
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if not holds(a, b, r):
                return False, (a, b)
    return True, None


def first_unrelated_pair(system: SetSystem, table: Sequence[int]) -> tuple[int, int] | None:
    """The first pair of members, in canonical order, that a symmetric
    relation's table leaves unrelated: check_pairwise's pair, read off the
    rows with one AND per member instead of one predicate call per pair."""
    members = system.members
    later = sum(1 << m for m in members)
    for i, a in enumerate(members):
        later ^= 1 << a
        if later & ~table[a]:
            b = next(b for b in members[i + 1 :] if not table[a] >> b & 1)
            return a, b
    return None


def extend_to_maximal(system: SetSystem, predicate: PairwisePredicate) -> SetSystem:
    """Deterministically complete a compatible system to an inclusion-maximal one.

    Scans every subset of [n] in canonical order and greedily adds each
    one whose relation-table row holds every set chosen so far, so the
    result is reproducible.
    """
    check_limit(system.n)
    table = relation_table(system.n, predicate)
    bad = first_unrelated_pair(system, table)
    if bad is not None:
        a, b = bad
        raise ValueError(
            f"input system violates {predicate.label()} on "
            f"{set_notation(a)}, {set_notation(b)}"
        )
    chosen = sum(1 << m for m in system.members)
    for mask in sorted(range(1 << system.n), key=canonical_key):
        if not chosen & ~table[mask] & ~(1 << mask):
            chosen |= 1 << mask
    return SetSystem.from_masks(system.n, (v for v in range(1 << system.n) if chosen >> v & 1))


def check_limit(n: int, limit: int = RELATION_TABLE_CAP, name: str = TABLE_LIMIT) -> int:
    """Return the ground size n, or raise ValueError naming the limit it passes
    (name, with the limit's value for "{}"); the relation-table limit by default."""
    check_ground(n)
    if n > limit:
        raise ValueError(f"n = {n} exceeds {name.format(limit)}")
    return n


def check_dimension(n: int, d: int, low: int = 2) -> None:
    """Raise ValueError unless n is a ground size and d an integer in low..n."""
    check_ground(n)
    if not isinstance(d, int) or not low <= d <= n:
        raise ValueError(f"need {low} <= d <= n, got d={d!r}, n={n}")


def _difference_pairs(lo: int, hi: int) -> tuple[list[int], list[int]]:
    """Every disjoint pair (D1, D2) of subsets of the elements lo+1..hi,
    as two parallel lists in ternary order: element lo+1+i is digit i,
    0 in neither set, 1 in D2, 2 in D1, and digit 0 varies fastest."""
    d1s, d2s = [0], [0]
    for i in range(lo, hi):
        bit = 1 << i
        d1s = d1s + d1s + [d | bit for d in d1s]
        d2s = d2s + [d | bit for d in d2s] + d2s
    return d1s, d2s


@lru_cache(maxsize=RELATION_CACHE_SIZE)
def relation_table(n: int, predicate: PairwisePredicate) -> tuple[int, ...]:
    """Row v is the bitset of the sets u != v with predicate(u, v), over 2^[n].

    Every predicate reads only the difference sets (u - v, v - u), a
    disjoint pair, so the build calls it once per disjoint pair: 3^n
    calls, against 4^n / 2 for one call per pair of sets.  The verdicts,
    the kernel, come in the ternary order of _difference_pairs (digit i
    for element i + 1), and the rows are assembled from them one element
    at a time.  Before step i, entry t * 2^i + (u mod 2^i) holds bits
    0..2^i - 1 of the row of u for the difference sets whose digits past
    i read t.  Step i joins two entries into one twice as long, the one
    for v without element i + 1 below the one for v with it: digits
    0 then 1 (in v - u) for u without the element, digits 2 (in u - v)
    then 0 for u with it.  That is 2 * 3^n big-integer operations, run
    inside map, and 2^n Python steps.  The kernel's empty pair stands
    only for u = v, so it is cleared and the diagonal stays empty.

    The kernel and the pieces are dropped after the build; at n = 12
    they peak at ~13 MiB (3^n list slots are 4 MiB).  The table is built
    on first use and the last few are memoised per (n, predicate).  The
    complement row of the sets *not* related to v is full ^ row ^ (1 << v)
    with full = (1 << 2^n) - 1.
    """
    check_limit(n)
    half = n // 2  # the pairs are made per half, not all 3^n of them at once
    holds, r = predicate.rule()
    low1, low2 = _difference_pairs(0, half)
    pieces: list[int] = []
    for high1, high2 in zip(*_difference_pairs(half, n)):
        pieces += map(
            holds,
            map(or_, low1, repeat(high1)),
            map(or_, low2, repeat(high2)),
            repeat(r),
        )
    pieces[0] = 0
    for i in range(n):
        m = 1 << i
        joined = [0] * (len(pieces) // 3 * 2)
        for j in range(m):
            zero = pieces[j :: 3 * m]
            joined[j :: 2 * m] = map(or_, zero, map(lshift, pieces[m + j :: 3 * m], repeat(m)))
            joined[m + j :: 2 * m] = map(
                or_, pieces[2 * m + j :: 3 * m], map(lshift, zero, repeat(m))
            )
        pieces = joined
    return tuple(pieces)


def complement_table(n: int, predicate: PairwisePredicate) -> list[int]:
    """Row v is the bitset of the sets u != v that fail predicate(u, v)."""
    full = (1 << (1 << n)) - 1
    return [full ^ row ^ (1 << v) for v, row in enumerate(relation_table(n, predicate))]


def compatibility_adjacency(n: int, predicate: PairwisePredicate) -> list[int]:
    """Adjacency bitsets of the compatibility graph over all 2^n subsets.

    Entry v is an integer whose bit u says u and v are compatible (u != v).
    """
    return list(relation_table(n, predicate))


def max_size(
    n: int,
    predicate: PairwisePredicate,
    bound: int = DEFAULT_EXHAUSTIVE_BOUND,
) -> tuple[int, SetSystem]:
    """Exact maximum size of a predicate-compatible system, with a witness.

    `search.search_max` without the counters; see `search.max_clique`
    for the search.
    """
    from .search import search_max  # only a caller that searches compiles the search

    found = search_max(n, predicate, bound)
    return found.size, found.witness


def nonpurity_witness(vertices: SetSystem) -> SetSystem:
    """The 55-member maximal weakly 3-separated system on [6].

    The given vertex system of the four-dimensional cyclic zonotope on
    six generators (`geometry.boundary_vertices(6, 4)`) plus {2,4},
    {3,5}, {1,3,4,6}; maximal but smaller than the maximum 57.
    """
    extras = (mask_of(s, 6) for s in ({2, 4}, {3, 5}, {1, 3, 4, 6}))
    return SetSystem.from_masks(6, [*vertices.members, *extras])


def dump_json(blob: dict) -> str:
    import json  # only a command that writes JSON pays for it

    return json.dumps(blob, sort_keys=True, indent=2) + "\n"
