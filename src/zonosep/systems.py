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
universal sets join up front, bitset colour classes bound each node and
the root branches drop whole orbits of the table's checked symmetry
group), streaming of all inclusion-maximal cliques, and deterministic
completion of a partial system to a maximal one.

Every pair table in the package comes from relation_table: one row
bitset per subset of [n], assembled on first use from one predicate
call per disjoint pair of difference sets and memoised per
(n, predicate).  The searches read it as an adjacency
matrix; the membrane scans and the flip harnesses read its complement.

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

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, repeat
from math import comb
from operator import itemgetter, lshift, or_
from typing import Iterable, Iterator, Sequence

from .ground import check_ground, check_mask, elements, mask_of, set_notation
from .separation import (
    is_double_r_comb,
    is_strongly_r_separated,
    is_weakly_r_separated_even,
    is_weakly_r_separated_odd,
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


@dataclass(frozen=True)
class SetSystem:
    """Immutable family of subsets of [n] in canonical order."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        check_ground(self.n)
        seen = set()
        prev = None
        for mask in self.members:
            check_mask(mask, self.n)
            if mask in seen:
                raise ValueError(f"duplicate member {set_notation(mask)}")
            seen.add(mask)
            key = canonical_key(mask)
            if prev is not None and key <= prev:
                raise ValueError("members not in canonical order")
            prev = key

    @staticmethod
    def from_masks(n: int, masks: Iterable[int]) -> "SetSystem":
        return SetSystem(n, tuple(sorted(set(masks), key=canonical_key)))

    @staticmethod
    def from_sets(n: int, sets: Iterable[Iterable[int]]) -> "SetSystem":
        return SetSystem.from_masks(n, (mask_of(s, n) for s in sets))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, mask: int) -> bool:
        return mask in set(self.members)

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

    @staticmethod
    def from_json(blob: dict) -> "SetSystem":
        return SetSystem.from_sets(blob["n"], blob["members"])

    def __str__(self) -> str:
        return "{" + ", ".join(set_notation(mask) for mask in self.members) + "}"


@dataclass(frozen=True)
class PairwisePredicate:
    """One of the four compatibility predicates, with its parameter r."""

    kind: str
    r: int

    def __post_init__(self) -> None:
        if self.kind == KIND_STRONG:
            if self.r < 0:
                raise ValueError("STRONG needs r >= 0")
        elif self.kind == KIND_WEAK_ODD:
            if self.r < 1 or self.r % 2 == 0:
                raise ValueError("WEAK_ODD needs odd positive r")
        elif self.kind in (KIND_WEAK_EVEN, KIND_WEAK_EVEN_NO_COMB):
            if self.r < 2 or self.r % 2:
                raise ValueError(f"{self.kind} needs even positive r")
        else:
            raise ValueError(f"unknown predicate kind {self.kind!r}")

    def holds(self, a: int, b: int) -> bool:
        if self.kind == KIND_STRONG:
            return is_strongly_r_separated(a, b, self.r)
        if self.kind == KIND_WEAK_ODD:
            return is_weakly_r_separated_odd(a, b, self.r)
        if self.kind == KIND_WEAK_EVEN:
            return is_weakly_r_separated_even(a, b, self.r)
        return is_weakly_r_separated_even(a, b, self.r) and not is_double_r_comb(
            a, b, self.r
        )

    def label(self) -> str:
        return f"{self.kind}({self.r})"

    def to_json(self) -> dict:
        return {"kind": self.kind, "r": self.r}

    @staticmethod
    def from_json(blob: dict) -> "PairwisePredicate":
        return PairwisePredicate(blob["kind"], blob["r"])


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
    """All pairs compatible?  Returns the first violating pair in canonical order."""
    members = system.members
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if not predicate.holds(members[i], members[j]):
                return False, (members[i], members[j])
    return True, None


def extend_to_maximal(system: SetSystem, predicate: PairwisePredicate) -> SetSystem:
    """Deterministically complete a compatible system to an inclusion-maximal one.

    Scans every subset of [n] in canonical order and greedily adds the
    compatible ones, so the result is reproducible.
    """
    check_limit(system.n)
    ok, bad = check_pairwise(system, predicate)
    if not ok:
        a, b = bad  # type: ignore[misc]
        raise ValueError(
            f"input system violates {predicate.label()} on "
            f"{set_notation(a)}, {set_notation(b)}"
        )
    chosen = list(system.members)
    have = set(chosen)
    for mask in sorted(range(1 << system.n), key=canonical_key):
        if mask in have:
            continue
        if all(predicate.holds(mask, member) for member in chosen):
            chosen.append(mask)
            have.add(mask)
    return SetSystem.from_masks(system.n, chosen)


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
    low1, low2 = _difference_pairs(0, half)
    pieces: list[int] = []
    for high1, high2 in zip(*_difference_pairs(half, n)):
        pieces += map(
            predicate.holds,
            map(or_, low1, repeat(high1)),
            map(or_, low2, repeat(high2)),
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


@dataclass(frozen=True)
class MaxSearch:
    """One exact maximum search: the size, a witness and its counters.

    nodes counts the branch-and-bound nodes expanded, the root included;
    universal counts the sets related to every other set, which join the
    clique up front; symmetries is the order of the group of checked
    table symmetries (see symmetry_orbits); symmetry_pruned counts the
    root candidates skipped because a set in their orbit had already
    been branched on.
    """

    size: int
    witness: SetSystem
    nodes: int
    universal: int
    symmetries: int
    symmetry_pruned: int


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


def _first_break(table: Sequence[int], image: Sequence[int]) -> int | None:
    """The first set v whose row, mapped by image, is not the row of image[v].

    image is a permutation of 2^[n].  Bit u of a row is character
    size - 1 - u of its binary string, so the mapped row reads
    character size - 1 - pre(size - 1 - j) at place j, pre the inverse.
    """
    size = len(image)
    pre = [0] * size
    for v, w in enumerate(image):
        pre[w] = v
    pick = itemgetter(*(size - 1 - pre[size - 1 - j] for j in range(size)))
    for v, row in enumerate(table):
        if int("".join(pick(format(row, f"0{size}b"))), 2) != table[image[v]]:
            return v
    return None


def check_complement_invariant(n: int, table: Sequence[int]) -> None:
    """Raise unless v -> [n] - v maps the relation table onto itself.

    Over 2^[n] the complement sends bit u of a row to bit 2^n - 1 - u,
    which reverses the row; so row v reversed must equal the row of the
    complement of v.
    """
    size = 1 << n
    if len(table) != size:
        raise ValueError(f"relation table over 2^[{n}] needs {size} rows, got {len(table)}")
    v = _first_break(table, range(size - 1, -1, -1))
    if v is not None:
        raise RuntimeError(
            f"relation table not invariant under complement at {set_notation(v)}"
        )


def symmetry_orbits(n: int, table: Sequence[int]) -> tuple[int, list[tuple[int, ...]]]:
    """The group the table keeps among SYMMETRY_CANDIDATES: its order and orbits.

    The complement must preserve the table (check_complement_invariant
    raises otherwise); each other candidate joins the generators only if
    it maps every row onto the row of its image.  Returns the order of
    the group the generators span and, for each set v of 2^[n], its
    orbit as a sorted tuple (one tuple shared by all its members).
    """
    check_complement_invariant(n, table)
    size = 1 << n
    images = [tuple(map_(v, n) for v in range(size)) for map_ in SYMMETRY_CANDIDATES]
    generators = images[:1] + [g for g in images[1:] if _first_break(table, g) is None]
    # every candidate is v -> pi(v) XOR c for a permutation pi of [n], and
    # so is each element g of the group; g is fixed by its images of the
    # empty set and the singletons, so the closure runs on those n + 1
    base = (0,) + tuple(1 << i for i in range(n))
    group = [base]
    seen = {base}
    for g in group:  # grows while it is read
        for h in generators:
            hg = tuple(h[x] for x in g)
            if hg not in seen:
                seen.add(hg)
                group.append(hg)
    orbits: list[tuple[int, ...]] = [()] * size
    for v in range(size):
        if orbits[v]:
            continue
        members = [v]
        found = {v}
        for x in members:  # grows while it is read
            for h in generators:
                if h[x] not in found:
                    found.add(h[x])
                    members.append(h[x])
        orbit = tuple(sorted(members))
        for x in orbit:
            orbits[x] = orbit
    return len(group), orbits


def max_clique(n: int, table: Sequence[int]) -> MaxSearch:
    """Exact maximum clique of a complement-invariant relation table.

    Branch and bound in the style of BBMC (San Segundo et al. 2011):
    1. Universal vertices, related to every other set, join every
       maximum clique, so they go in up front and the search covers
       the rest.
    2. The rest are numbered by degree (descending, canonical
       tie-break).  At each node the candidates are split greedily
       into colour classes (independent sets) with bitset operations;
       only vertices of colour k >= best - |clique| + 1 are branched
       on, highest colour first, and a branch stops once |clique| + k
       cannot beat the best.  A branch that leaves no candidate is a
       leaf and is scored without another call.
    3. Orbital branching at the root (Ostrowski et al. 2011): the
       group of symmetry_orbits preserves the table (checked here,
       never assumed).  So once the root has branched on v, the whole
       orbit of v leaves the root candidates: any clique through g(v)
       maps under g^-1 to one of the same size through v.  The dropped
       sets are a union of orbits, so the candidates left are too, and
       every later root branch keeps this argument.  Below the root
       the candidates are not closed under the group, so only v goes.

    The search never stops early at a target size.  Fully
    deterministic.
    """
    symmetries, orbits = symmetry_orbits(n, table)
    size = 1 << n
    everyone = (1 << size) - 1
    universal = [v for v in range(size) if table[v] | 1 << v == everyone]
    order = sorted(
        (v for v in range(size) if table[v] | 1 << v != everyone),
        key=lambda v: (-table[v].bit_count(),) + canonical_key(v),
    )
    m = len(order)
    pos = {v: i for i, v in enumerate(order)}
    # relabel so vertex i is the i-th in search order
    adj = [0] * m
    for i, v in enumerate(order):
        row = 0
        for u in order:
            if table[v] >> u & 1:
                row |= 1 << pos[u]
        adj[i] = row
    all_m = (1 << m) - 1
    # non-neighbours of i, i itself included: one AND per colour step
    others = [all_m ^ row ^ 1 << i for i, row in enumerate(adj)]
    orbit = [sum(1 << pos[u] for u in orbits[v]) for v in order]

    best_clique = 0
    best_size = 0
    nodes = 0
    symmetry_pruned = 0

    def colour_classes(cand: int, kmin: int) -> list[tuple[int, int]]:
        # (colour k, class bitset) for every class with k >= kmin
        classes = []
        k = 0
        while cand:
            k += 1
            left = cand
            cls = 0
            while left:
                low = left & -left
                cls |= low
                left &= others[low.bit_length() - 1]
            cand ^= cls
            if k >= kmin:
                classes.append((k, cls))
        return classes

    def expand(clique: int, csize: int, cand: int, root: bool) -> None:
        nonlocal best_clique, best_size, nodes, symmetry_pruned
        nodes += 1
        grown = csize + 1
        for k, cls in reversed(colour_classes(cand, best_size - csize + 1)):
            while cls:
                if csize + k <= best_size:
                    return
                v = cls.bit_length() - 1
                bit = 1 << v
                cls ^= bit
                if not cand & bit:
                    symmetry_pruned += 1
                    continue
                sub = cand & adj[v]
                if sub:
                    expand(clique | bit, grown, sub, False)
                elif grown > best_size:
                    best_clique, best_size = clique | bit, grown
                cand &= ~orbit[v] if root else ~bit

    expand(0, 0, all_m, True)

    witness = universal + [order[i] for i in range(m) if best_clique >> i & 1]
    return MaxSearch(
        size=len(witness),
        witness=SetSystem.from_masks(n, witness),
        nodes=nodes,
        universal=len(universal),
        symmetries=symmetries,
        symmetry_pruned=symmetry_pruned,
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
    return max_clique(n, relation_table(n, predicate))


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
    bound: int = DEFAULT_EXHAUSTIVE_BOUND,
) -> Iterator[SetSystem]:
    """Stream all inclusion-maximal compatible systems (maximal cliques).

    Deterministic pivoted Bron-Kerbosch over the compatibility graph;
    the stream order is the fixed DFS order of that algorithm.  A limit
    of k stops after k systems (none for k = 0).  n is held to the bound
    as in search_max; n and the limit are checked on the call, before the
    search starts.
    """
    check_limit(n, min(bound, HARD_EXHAUSTIVE_CAP), SEARCH_LIMIT)
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

    for clique in bk([], full, 0):
        yield SetSystem.from_masks(n, clique)


def nonpurity_witness() -> SetSystem:
    """The 55-member maximal weakly 3-separated system on [6].

    Vertices of the four-dimensional cyclic zonotope on six generators
    plus {2,4}, {3,5}, {1,3,4,6}; maximal but smaller than the maximum 57.
    """
    from .geometry import boundary_vertices  # deferred: geometry builds on systems

    vertex_masks = set(boundary_vertices(6, 4).members)
    extras = {mask_of(s, 6) for s in ({2, 4}, {3, 5}, {1, 3, 4, 6})}
    return SetSystem.from_masks(6, vertex_masks | extras)


def dump_json(blob: dict) -> str:
    return json.dumps(blob, sort_keys=True, indent=2) + "\n"
