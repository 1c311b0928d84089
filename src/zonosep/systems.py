"""Set systems, pairwise compatibility predicates, and exact maximum search.

A SetSystem is a family of subsets of [n] in canonical order (by
cardinality, then numeric bit value).  The search routines treat the
full power set 2^[n] as the vertex set of a compatibility graph under
one of four pairwise predicates,

    STRONG(r)             interlacing degree <= r + 1,
    WEAK_ODD(r)           weak separation, r odd,
    WEAK_EVEN(r)          weak separation, r even,
    WEAK_EVEN_NO_COMB(r)  weak separation, r even, and no double r-comb,

and answer exact questions about cliques: the maximum clique size with
a witness and search counters (branch and bound in the style of BBMC:
universal sets join up front, bitset colour classes bound each node,
each node drops whole orbits of the part of the table's checked symmetry
group that fixes its clique, and the tree is searched as two fixed
parts, the second in a forked child where that pays), streaming of all
inclusion-maximal cliques, and deterministic completion of a partial
system to a maximal one.

Every pair table in the package comes from relation_table: one row
bitset per subset of [n], assembled on first use from one predicate
call per disjoint pair of difference sets and memoised per
(n, predicate).  The searches read it as an adjacency
matrix, maximal extension and the cubillage validator read its rows,
and the membrane scans and the flip harnesses read its complement.

The expected maximum for strong separation is the closed form

    s(n, r) = C(n,0) + C(n,1) + ... + C(n,r+1),

which weak separation provably meets for odd r; the search machinery
here is what checks such statements exhaustively at desk scale.  The
limits on n are one table below, and check_limit rejects a larger
ground set before any work starts rather than approximating it.

The 55-member witness on [6] showing that maximal weakly 3-separated
systems need not all reach the maximum size 57 is also built here: the
52 vertices of the four-dimensional cyclic zonotope on six generators
plus {2,4}, {3,5}, {1,3,4,6}.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import compress, islice, repeat
from math import comb
from operator import itemgetter, lshift, or_
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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


class MaxSearch(NamedTuple):
    """One exact maximum search: the size, a witness and its counters.

    nodes counts the branch-and-bound nodes expanded, the root included,
    summed over the two parts of the tree, so a node above the split
    counts twice; universal counts the sets related to every other set,
    which join the clique up front; symmetries is the order of the group
    of checked table symmetries (see symmetry_group); symmetry_pruned
    counts the candidates skipped, at any depth and summed like nodes,
    because a set in their orbit under the node's stabiliser had already
    been branched on (see max_clique).  processes is 2 if part 1 of the
    tree ran in a forked child, 1 if both ran in this process; the
    other fields do not depend on it.
    """

    size: int
    witness: SetSystem
    nodes: int
    universal: int
    symmetries: int
    symmetry_pruned: int
    processes: int


def _complement(v: int, n: int) -> int:
    return v ^ ((1 << n) - 1)


def _reversal(v: int, n: int) -> int:
    # i -> n + 1 - i
    return int(format(v, f"0{n}b")[::-1], 2)


def _rotation(v: int, n: int) -> int:
    # i -> i + 1, n -> 1
    return ((v << 1) | (v >> (n - 1))) & ((1 << n) - 1)


def _twisted_rotation(v: int, n: int) -> int:
    # the rotation, then element 1 toggled
    return _rotation(v, n) ^ 1


# Maps on subsets of [n] that may preserve a relation table.  The
# relations depend on how A - B and B - A interlace along the line;
# complement swaps the two and reversal mirrors the line.  Exhaustive
# checks at 3 <= n <= 8 and r < n - 2 found: STRONG(r) tables keep
# complement, reversal and the rotation (r even) or the twisted rotation
# (r odd); WEAK_ODD(r) tables keep complement and reversal; the even weak
# kinds keep complement alone.  Tables closer to complete keep more.  The
# search checks each candidate against the table, never the kind.
SYMMETRY_CANDIDATES = (_complement, _reversal, _rotation, _twisted_rotation)


def _permuted_rows(rows: Iterable[int], width: int, bits: Sequence[int]) -> Iterator[int]:
    """Each row of width bits rebuilt from the bits listed, top bit first:
    bit bits[j] of the row becomes bit len(bits) - 1 - j of the result.

    Bit u of a row is character width - 1 - u of its binary string, so
    one itemgetter over those characters permutes a whole row at once.
    """
    if not bits:  # itemgetter takes at least one item
        for _ in rows:
            yield 0
        return
    pick = itemgetter(*(width - 1 - u for u in bits))
    form = f"0{width}b"
    for row in rows:
        # one bit picks a str, not a tuple; join takes either
        yield int("".join(pick(format(row, form))), 2)


def _first_break(table: Sequence[int], image: Sequence[int]) -> int | None:
    """The first set v whose row, mapped by image, is not the row of image[v].

    image is a permutation of 2^[n]; bit image[u] of the mapped row is bit
    u of the row, so bit j is bit pre[j], pre the inverse.
    """
    size = len(image)
    pre = [0] * size
    for v, w in enumerate(image):
        pre[w] = v
    for v, row in enumerate(_permuted_rows(table, size, pre[::-1])):
        if row != table[image[v]]:
            return v
    return None


def symmetry_group(n: int, table: Sequence[int]) -> list[tuple[int, ...]]:
    """The group the table keeps among SYMMETRY_CANDIDATES, element by element.

    The table must have 2^n rows (ValueError otherwise), and the
    complement, the first candidate, must preserve it (RuntimeError
    otherwise); each other candidate joins the generators only if it
    maps every row onto the row of its image.  Returns every element of
    the group the generators span, the identity first, as its tuple of
    images of the sets 0 .. 2^n - 1.
    """
    size = 1 << n
    if len(table) != size:
        raise ValueError(f"relation table over 2^[{n}] needs {size} rows, got {len(table)}")
    images = [tuple(map_(v, n) for v in range(size)) for map_ in SYMMETRY_CANDIDATES]
    breaks = [_first_break(table, g) for g in images]
    if breaks[0] is not None:
        raise RuntimeError(
            f"relation table not invariant under complement at {set_notation(breaks[0])}"
        )
    generators = [g for g, v in zip(images, breaks) if v is None]
    identity = tuple(range(size))
    group = [identity]
    seen = {identity}
    for g in group:  # grows while it is read
        for h in generators:
            hg = itemgetter(*g)(h)  # h after g
            if hg not in seen:
                seen.add(hg)
                group.append(hg)
    return group


# a subgroup of a layout's group: the orbit mask of each index, and the
# key of the subgroup that fixes it (the positions of its elements in group)
_Subgroup = tuple[list[int], list[tuple[int, ...]]]


class _Layout(NamedTuple):
    """What a search of one table needs before its first node.

    The m sets left after the universal ones are in search order, and
    the i-th of them has index m - i: bit m - 1 - i of every bitset, so
    a bitset's bit_length() is the index of its earliest set.  Entry 0
    of adj, bits and others, and of each permutation in group, pads
    the index so that no step subtracts 1.  subgroups fills in as the
    searches of the table meet new subgroups, so a repeated search, or
    a forked child, reuses what the searches before it built.
    """

    universal: list[int]  # related to every other set: in every maximum clique
    order: list[int]  # the other sets in search order
    adj: list[int]  # the row of each index, renumbered
    bits: list[int]  # 1 << (index - 1)
    others: list[int]  # the non-neighbours of each index, itself included
    group: list[tuple[int, ...]]  # the non-identity symmetries, as index permutations
    # by key, the positions in group of a subgroup's elements
    subgroups: dict[tuple[int, ...], _Subgroup]


def _layout(n: int, table: Sequence[int]) -> _Layout:
    group = symmetry_group(n, table)
    size = 1 << n
    everyone = (1 << size) - 1
    universal = [v for v in range(size) if table[v] | 1 << v == everyone]
    order = sorted(
        (v for v in range(size) if table[v] | 1 << v != everyone),
        key=lambda v: (-table[v].bit_count(),) + canonical_key(v),
    )
    m = len(order)
    adj = [0, *_permuted_rows([table[v] for v in reversed(order)], size, order)]
    bits = [0] + [1 << b for b in range(m)]
    all_m = (1 << m) - 1
    others = [0] + [all_m ^ adj[b] ^ bits[b] for b in range(1, m + 1)]
    # a symmetry keeps the table, so it maps universal sets among
    # themselves and the searched sets among themselves
    index = dict.fromkeys(universal, 0)
    index.update((v, m - i) for i, v in enumerate(order))
    searched = order[::-1]  # the sets of indices 1 .. m
    perms = [(0, *map(index.__getitem__, map(g.__getitem__, searched))) for g in group[1:]]
    return _Layout(universal, order, adj, bits, others, perms, {})


@lru_cache(maxsize=RELATION_CACHE_SIZE)
def _search_layout(n: int, predicate: PairwisePredicate) -> _Layout:
    """The layout of relation_table(n, predicate), memoised like the table."""
    return _layout(n, relation_table(n, predicate))


# The search tree is cut into two parts below depth SPLIT_DEPTH, and
# part 1 runs in a forked child once FORK_CROSSOVER or more sets are
# searched (see max_clique; README "Maximum search" has the measurements).
# Depth 3 balances the parts of the n = 8 searches.  A fork and reap cost
# ~1.5 ms, which no table on n <= 7 (at most 2^7 - 2 sets searched, the
# empty set and [n] being related to every set) reliably won back.
SPLIT_DEPTH = 3
FORK_CROSSOVER = 128

# one part's result: the size and bitset of its best clique, the
# positions of the branches above SPLIT_DEPTH on the path to it, its
# nodes and its candidates pruned by symmetry
_Part = tuple[int, int, tuple[int, ...], int, int]


def _search_part(layout: _Layout, part: int) -> _Part:
    """Part 0 or 1 of the search tree of max_clique, with its own incumbent."""
    _, order, adj, bits, others, group, memo = layout
    best_clique = best_size = nodes = symmetry_pruned = 0
    best_path: tuple[int, ...] = ()
    # path[j]: the position, among the branches its node has taken so
    # far, of the branch at depth j on the way to the current node
    path = [0] * SPLIT_DEPTH

    def subgroup(key: tuple[int, ...]) -> _Subgroup | None:
        # the subgroup of the identity and the elements group[i], i in
        # key; None for the identity alone
        if not key:
            return None
        found = memo.get(key)
        if found is None:
            orbits, stabs = [], []
            for b, images in enumerate(zip(*(group[i] for i in key))):
                orbits.append(reduce(or_, map(bits.__getitem__, images), bits[b]))
                stabs.append(tuple(compress(key, map(b.__eq__, images))))
            found = memo[key] = (orbits, stabs)
        return found

    def colour_classes(cand: int, kmin: int) -> list[tuple[int, int]]:
        # (colour k, class bitset) for every class with k >= kmin; each
        # step takes the highest bit, the earliest set in search order
        classes = []
        k = 0
        while cand:
            k += 1
            left = cand
            cls = 0
            while left:
                b = left.bit_length()
                cls |= bits[b]
                left &= others[b]
            cand ^= cls
            if k >= kmin:
                classes.append((k, cls))
        return classes

    def expand(clique: int, csize: int, cand: int, sym: _Subgroup | None) -> None:
        # sym: subgroup() of the elements that fix every set of the clique
        nonlocal best_clique, best_size, best_path, nodes, symmetry_pruned
        nodes += 1
        grown = csize + 1
        above = csize < SPLIT_DEPTH  # a node of both parts
        mine = True
        if above:
            path[csize] = -1
        for k, cls in reversed(colour_classes(cand, best_size - csize + 1)):
            while cls:
                if csize + k <= best_size:
                    return
                bit = cls & -cls  # the latest set of the class in search order
                cls ^= bit
                if not cand & bit:
                    symmetry_pruned += 1
                    continue
                v = bit.bit_length()
                if above:
                    path[csize] += 1
                    # a branch into the split depth: part sum(path) mod 2's
                    mine = grown < SPLIT_DEPTH or sum(path) % 2 == part
                if mine:
                    sub = cand & adj[v]
                    if sub:
                        expand(clique | bit, grown, sub, sym and subgroup(sym[1][v]))
                    elif grown > best_size:
                        best_clique, best_size = clique | bit, grown
                        best_path = tuple(path[:grown])
                # the orbit goes whichever part took the branch
                cand &= ~sym[0][v] if sym else ~bit

    try:
        expand(0, 0, (1 << len(order)) - 1, subgroup(tuple(range(len(group)))))
    finally:
        # expand refers to itself; drop it so its cells go on return
        del expand
    return best_size, best_clique, best_path, nodes, symmetry_pruned


def _processes(m: int) -> int:
    """2 if the search of m sets is to run part 1 in a forked child: fork
    exists, this process may run on two CPUs and m is FORK_CROSSOVER or
    more; 1 otherwise."""
    import os

    if m < FORK_CROSSOVER or not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return min(2, len(os.sched_getaffinity(0)))
    return min(2, os.cpu_count() or 1)


def _both_parts(layout: _Layout) -> tuple[list[_Part], int]:
    """Parts 0 and 1 of the search, and the number of processes that ran them."""
    if _processes(len(layout.order)) == 2:
        parts = _forked_parts(layout)
        if parts is not None:
            return parts, 2
    return [_search_part(layout, 0), _search_part(layout, 1)], 1


def _forked_parts(layout: _Layout) -> list[_Part] | None:
    """Part 0 here and part 1 in a forked child; None if no child can be forked.

    The child sends its result back marshalled over a pipe and exits.
    The parent always reaps the child, and kills it first if its own
    part raises or is interrupted.  A child that fails makes the parent
    raise RuntimeError with the child's message.
    """
    import marshal
    import os
    import signal

    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare
        os.close(read)
        os.close(write)
        return None
    if pid == 0:  # the child: part 1, then out without running the parent's cleanup
        try:
            os.close(read)
            try:
                reply = True, _search_part(layout, 1)
            except BaseException as exc:
                reply = False, f"{type(exc).__name__}: {exc}".splitlines()[0]
            with open(write, "wb") as pipe:
                pipe.write(marshal.dumps(reply))
        finally:
            os._exit(0)
    os.close(write)
    with open(read, "rb") as pipe:
        try:
            first = _search_part(layout, 0)
            blob = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    if not blob:
        code = os.waitstatus_to_exitcode(status)
        raise RuntimeError(f"search child ended without a result (exit status {code})")
    ok, second = marshal.loads(blob)
    if not ok:
        raise RuntimeError(f"search child failed: {second}")
    return [first, second]


def max_clique(n: int, table: Sequence[int], layout: _Layout | None = None) -> MaxSearch:
    """Exact maximum clique of a complement-invariant relation table.

    layout is the table's _layout if the caller holds it (search_max
    memoises it per (n, predicate)); it is built here otherwise.

    Branch and bound in the style of BBMC (San Segundo et al. 2011):
    1. Universal vertices, related to every other set, join every
       maximum clique, so they go in up front and the search covers
       the rest.
    2. The rest are put in search order by degree (descending,
       canonical tie-break), and the i-th of the m sets in that order
       is bit m - 1 - i of every bitset.  At each node the candidates
       are split greedily into colour classes (independent sets): each
       step takes the highest candidate bit, the earliest set, with
       one bit_length and no negation.  Only vertices of colour
       k >= best - |clique| + 1 are branched on, highest colour first
       and the lowest bit (the latest set) of a class first, and a
       branch stops once |clique| + k cannot beat the best.  A branch
       that leaves no candidate is a leaf and is scored without
       another call.  The rows are renumbered one string permutation
       each (_permuted_rows).
    3. Orbital branching at every node (Ostrowski et al. 2011; Margot
       2002): the group of symmetry_group preserves the table (checked
       here, never assumed).  Each node carries H, the elements of the
       group that fix every set of its clique C: the whole group at the
       root, and at a child the parent's elements that fix the set just
       branched on.  Once a node has branched on v, the whole H-orbit
       of v leaves its candidates.  This is sound because the
       candidates of a node are H-invariant: those of the root are a
       union of orbits; a child's are the parent's candidates, which
       its H keeps since H is a subgroup of the parent's, met with the
       row of v, which every element fixing v keeps; and each removal
       is a whole H-orbit.  So a clique through C + h(v) among the
       candidates left maps under h^-1, which fixes C and keeps the
       candidates, onto one of the same size through C + v, which the
       branch on v has already searched.  Once H is trivial only v
       goes, at no extra cost.  The orbit masks and stabilisers are
       memoised per subgroup in the layout.
    4. Two parts of one tree (McCreesh and Prosser 2015; Depolli et
       al. 2013).  Both parts expand every node of depth less than
       SPLIT_DEPTH, and both drop the orbit of every branch there,
       theirs or not, so their candidates agree.  A branch's position
       is its index among the branches its node takes; a branch into
       depth SPLIT_DEPTH belongs to part (the sum of the positions on
       its path) mod 2, and the other part skips it.  Each part keeps
       its own incumbent, so each is a branch and bound of its own, and
       part 1 runs in a forked child when that pays (_processes).  The
       larger size wins.  On equal sizes the clique whose path of
       positions above the split comes first wins, which gives back
       the one-process witness, the first maximum clique in DFS order:
       both parts keep its branch order, and a subtree that holds a
       clique larger than the part's incumbent is never pruned, so no
       part finds that size at an earlier position than its first
       maximum clique.  nodes and symmetry_pruned are summed over the
       parts, so a node above the split counts twice, in one process
       or in two.

    The search never stops early at a target size.  Fully
    deterministic: the result does not depend on the processes.  The
    search adds to the layout's subgroups and changes nothing else in it.
    """
    layout = layout or _layout(n, table)
    universal, order, *_ = layout
    parts, processes = _both_parts(layout)
    # the larger size, then the earlier path
    _, clique, *_ = min(parts, key=lambda part: (-part[0], part[2]))
    m = len(order)
    witness = universal + [order[m - b] for b in range(1, m + 1) if clique >> b - 1 & 1]
    return MaxSearch(
        size=len(witness),
        witness=SetSystem.from_masks(n, witness),
        nodes=sum(part[3] for part in parts),
        universal=len(universal),
        symmetries=len(layout.group) + 1,
        symmetry_pruned=sum(part[4] for part in parts),
        processes=processes,
    )


def search_max(
    n: int,
    predicate: PairwisePredicate,
    bound: int = DEFAULT_EXHAUSTIVE_BOUND,
) -> MaxSearch:
    """Exact maximum predicate-compatible system, with the search counters.

    n is held to the bound, and the bound to HARD_EXHAUSTIVE_CAP.
    """
    check_limit(n, min(bound, HARD_EXHAUSTIVE_CAP), SEARCH_LIMIT)
    return max_clique(n, relation_table(n, predicate), _search_layout(n, predicate))


def max_size(
    n: int,
    predicate: PairwisePredicate,
    bound: int = DEFAULT_EXHAUSTIVE_BOUND,
) -> tuple[int, SetSystem]:
    """Exact maximum size of a predicate-compatible system, with a witness.

    search_max without the counters; see max_clique for the search.
    """
    found = search_max(n, predicate, bound)
    return found.size, found.witness


def enumerate_maximal(
    n: int,
    predicate: PairwisePredicate,
    limit: int | None = None,
) -> Iterator[SetSystem]:
    """Stream all inclusion-maximal compatible systems (maximal cliques).

    Deterministic pivoted Bron-Kerbosch over the compatibility graph;
    the stream order is the fixed DFS order of that algorithm.  A limit
    of k stops after k systems (none for k = 0).  n is held to the default
    bound of search_max; n and the limit are checked on the call, before
    the search starts.
    """
    check_limit(n, DEFAULT_EXHAUSTIVE_BOUND, "the exhaustive-search bound {}")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be at least 0, got {limit}")
    return islice(_maximal_cliques(n, predicate), limit)


def _maximal_cliques(n: int, predicate: PairwisePredicate) -> Iterator[SetSystem]:
    adj = compatibility_adjacency(n, predicate)
    size = 1 << n
    full = (1 << size) - 1

    def bk(clique: list[int], cand: int, excluded: int) -> Iterator[list[int]]:
        if not cand and not excluded:
            yield clique
            return
        # deterministic pivot: most candidate-neighbors, lowest vertex id breaks ties
        pivot, pivot_score = -1, -1
        probe = cand | excluded
        while probe:
            low = probe & -probe
            u = low.bit_length() - 1
            score = (cand & adj[u]).bit_count()
            if score > pivot_score:
                pivot, pivot_score = u, score
            probe ^= low
        rest = cand & ~adj[pivot]
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            yield from bk(clique + [v], cand & adj[v], excluded & adj[v])
            cand &= ~low
            excluded |= low
            rest ^= low

    try:
        for clique in bk([], full, 0):
            yield SetSystem.from_masks(n, clique)
    finally:
        # bk refers to itself; drop it so adj goes when the stream ends or is dropped
        del bk


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
