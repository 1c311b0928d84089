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
a witness (branch and bound with a greedy coloring bound), streaming
of all inclusion-maximal cliques, and deterministic completion of a
partial system to a maximal one.

Every pair table in the package comes from relation_table: one row
bitset per subset of [n], filled symmetrically on first use and
memoised per (n, predicate).  The searches read it as an adjacency
matrix; the membrane scans and the flip harnesses read its complement.

The expected maximum for strong separation is the closed form

    s(n, r) = C(n,0) + C(n,1) + ... + C(n,r+1),

which weak separation provably meets for odd r; the search machinery
here is what checks such statements exhaustively at desk scale.  The
exhaustive-search bound defaults to n = 7 and may be raised to 8
explicitly; larger ground sets are rejected rather than approximated.

The 55-member witness on [6] showing that maximal weakly 3-separated
systems need not all reach the maximum size 57 is also built here: the
52 vertices of the four-dimensional cyclic zonotope on six generators
plus {2,4}, {3,5}, {1,3,4,6}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Callable, Iterable, Iterator

from .ground import check_ground, check_mask, elements, mask_of, set_notation
from .separation import (
    is_double_r_comb,
    is_strongly_r_separated,
    is_weakly_r_separated_even,
    is_weakly_r_separated_odd,
)

SCHEMA = "zonosep/1"

DEFAULT_EXHAUSTIVE_BOUND = 7
HARD_EXHAUSTIVE_CAP = 8
# relation tables: 2^n rows of 2^n bits, so 4096 rows of 512 bytes at the cap
RELATION_TABLE_CAP = 12
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


def _check_bound(n: int, bound: int) -> None:
    check_ground(n)
    if bound > HARD_EXHAUSTIVE_CAP:
        raise ValueError(
            f"exhaustive bound capped at n = {HARD_EXHAUSTIVE_CAP}; got bound {bound}"
        )
    if n > bound:
        raise ValueError(
            f"n = {n} exceeds the exhaustive-search bound {bound}; "
            f"raise it explicitly (hard cap {HARD_EXHAUSTIVE_CAP})"
        )


def check_table_ground(n: int) -> None:
    """Reject ground sets whose relation tables would pass RELATION_TABLE_CAP."""
    check_ground(n)
    if n > RELATION_TABLE_CAP:
        raise ValueError(
            f"n = {n} exceeds the relation-table cap {RELATION_TABLE_CAP} "
            f"(a table has 2^n rows of 2^n bits)"
        )


@lru_cache(maxsize=RELATION_CACHE_SIZE)
def relation_table(n: int, predicate: PairwisePredicate) -> tuple[int, ...]:
    """Row v is the bitset of the sets u != v with predicate(u, v), over 2^[n].

    One predicate call per unordered pair fills both rows; the table is
    built on first use and the last few are memoised per (n, predicate).
    The diagonal is empty, so the complement row of the sets *not*
    related to v is full ^ row ^ (1 << v) with full = (1 << 2^n) - 1.
    """
    check_table_ground(n)
    holds = predicate.holds
    size = 1 << n
    table = [0] * size
    for u in range(size):
        row = table[u]
        for v in range(u + 1, size):
            if holds(u, v):
                row |= 1 << v
                table[v] |= 1 << u
        table[u] = row
    return tuple(table)


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

    Branch and bound over the 2^n-vertex compatibility graph: vertices
    are ordered by degree (descending, canonical tie-break) and pruned
    with a greedy coloring bound.  Fully deterministic.
    """
    _check_bound(n, bound)
    adj = compatibility_adjacency(n, predicate)
    size = 1 << n
    order = sorted(range(size), key=lambda v: (-adj[v].bit_count(),) + canonical_key(v))
    pos = {v: i for i, v in enumerate(order)}
    # relabel so vertex i is the i-th in search order
    radj = [0] * size
    for v in range(size):
        row = adj[v]
        new_row = 0
        while row:
            low = row & -row
            new_row |= 1 << pos[low.bit_length() - 1]
            row ^= low
        radj[pos[v]] = new_row

    best_clique = 0
    best_size = 0

    def color_bound(cand: int) -> list[tuple[int, int]]:
        # greedy coloring; returns (vertex, color_count_so_far) in paint order
        painted: list[tuple[int, int]] = []
        color = 0
        while cand:
            color += 1
            avail = cand
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                painted.append((v, color))
                cand ^= low
                avail &= ~radj[v] & ~low
        return painted

    def expand(clique: int, csize: int, cand: int) -> None:
        nonlocal best_clique, best_size
        painted = color_bound(cand)
        for v, color in reversed(painted):
            if csize + color <= best_size:
                return
            bit = 1 << v
            expand(clique | bit, csize + 1, cand & radj[v])
            cand &= ~bit
        if not cand and csize > best_size:
            best_size = csize
            best_clique = clique

    # seed with the greedy clique along the search order for a warm bound
    seed = 0
    seed_size = 0
    cand = (1 << size) - 1
    while cand:
        v = (cand & -cand).bit_length() - 1
        seed |= 1 << v
        seed_size += 1
        cand &= radj[v]
    best_clique, best_size = seed, seed_size

    expand(0, 0, (1 << size) - 1)

    witness = [order[i] for i in range(size) if best_clique >> i & 1]
    return best_size, SetSystem.from_masks(n, witness)


def enumerate_maximal(
    n: int,
    predicate: PairwisePredicate,
    limit: int | None = None,
    bound: int = DEFAULT_EXHAUSTIVE_BOUND,
) -> Iterator[SetSystem]:
    """Stream all inclusion-maximal compatible systems (maximal cliques).

    Deterministic pivoted Bron-Kerbosch over the compatibility graph;
    the stream order is the fixed DFS order of that algorithm.  A limit
    of k stops after k systems.
    """
    _check_bound(n, bound)
    adj = compatibility_adjacency(n, predicate)
    size = 1 << n
    emitted = 0
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
        emitted += 1
        if limit is not None and emitted >= limit:
            return


def nonpurity_witness() -> SetSystem:
    """The 55-member maximal weakly 3-separated system on [6].

    Vertices of the four-dimensional cyclic zonotope on six generators
    plus {2,4}, {3,5}, {1,3,4,6}; maximal but smaller than the maximum 57.
    """
    from .geometry import boundary_vertices  # deferred: geometry builds on systems

    vertex_masks = set(boundary_vertices(6, 4).members)
    extras = {mask_of(s, 6) for s in ({2, 4}, {3, 5}, {1, 3, 4, 6})}
    return SetSystem.from_masks(6, vertex_masks | extras)


@dataclass
class DotOptions:
    name: str = "compat"


def compatibility_dot(n: int, predicate: PairwisePredicate, bound: int = DEFAULT_EXHAUSTIVE_BOUND) -> str:
    """DOT rendering of the compatibility graph (each edge emitted once)."""
    _check_bound(n, bound)
    lines = [f'digraph compat {{']
    lines.append('  edge [dir=none];')
    for u in range(1 << n):
        lines.append(f'  "{set_notation(u)}";')
    for u in range(1 << n):
        for v in range(u + 1, 1 << n):
            if predicate.holds(u, v):
                lines.append(f'  "{set_notation(u)}" -> "{set_notation(v)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dump_json(blob: dict) -> str:
    return json.dumps(blob, sort_keys=True, indent=2) + "\n"
