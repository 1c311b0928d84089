"""Cubes, cubillages, precedence, and bead threads.

A *cube* (X | T) consists of a root X and a type T, disjoint subsets
of [n] with |T| = d; its vertices are the sets X + A over A inside T.
Each direction p in T gives two facets, (X | T - p) and (X + p | T - p).
The one on the *front* side is (X + p | T - p) when an odd number of
elements of T are larger than p, and (X | T - p) otherwise; the other
one is on the *rear* side.  That is the parity rule of
`geometry.odd_above` applied to T, since T and T - p have the same
elements above p.  The two inner vertices are t_C = X + (T & odd) (on
every front facet) and h_C = X + (T - odd) (on every rear facet), odd
the generators with an odd number of elements of T above them.  Cubes
and facets are both `geometry.Face`s; a `Cube` is a face whose type is
nonempty and disjoint from its root.

A *cubillage* of Z(n, d) is a set of C(n, d) cubes, one per type, that
tiles the zonotope.  Cubillages are in bijection with the higher Bruhat
order B(n, d) (Manin and Schechtman 1989; Ziegler 1993): the consistent
sets U of (d+1)-subsets of [n], where for each (d+2)-set P the members
of U among the (d+1)-subsets of P are a prefix or a suffix of their
lexicographic order (P - max P first).  `from_inversions` gives the cube
of type T the root {k not in T : k in odd_above(T) XOR T + k in U}: U = {}
makes the *standard* cubillage (each root the generators on the positive
side of the span of its type one dimension up), U = all the
*anti-standard* one.  `inversions` reads U back once from each of the
d+1 cubes of every (d+1)-set.  With one cube per type, readings that
agree make the cubes those of U, and by the bijection they tile exactly
when U is consistent: a complete tiling check that lists no facet.
`validate_cubillage` runs it and checks that the vertex set is strongly
(d-1)-separated of size s(n, d-1).

Cubes are partially ordered by shared facets (rear facet of one equals
front facet of the next); this precedence is acyclic both on any
single cubillage and on the set of all cubes on [n].  The same rule,
with tiles in place of facets, orders the fragments of a cubillage, and
`side_precedence` builds both orders from the pieces' two sides.  On
top of the cube order live the *bead threads* (arcs t_C -> h_C chained
into paths across the cubillage) and the cube-level membranes, the
order ideals of the cube precedence, which `membranes.membrane_census`
counts as the fragmentation that cuts no cube (flavor S).
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Hashable, Iterable, NamedTuple, Sequence

from .geometry import Face, odd_above, zonotope_sides
from .ground import Record, check_ground, check_mask, elements, mask_of, set_notation, submasks
from .systems import (
    SCHEMA,
    SetSystem,
    check_dimension,
    check_limit,
    first_unrelated_pair,
    relation_table,
    s_formula,
    strong,
)


class Cube(Face):
    """A d-cube (root | type): root and type are disjoint, type nonempty."""

    __slots__ = ()

    def __new__(cls, root: int, type: int) -> "Cube":
        if root & type:
            raise ValueError(f"root {set_notation(root)} meets type {set_notation(type)}")
        if type == 0:
            raise ValueError("cube type must be nonempty")
        return super().__new__(cls, root, type)

    @property
    def d(self) -> int:
        return self.type.bit_count()


def apex_vertices(cube: Cube) -> tuple[int, int]:
    """(t_C, h_C): the inner vertex on the front side and on the rear side."""
    odd = odd_above(cube.type)
    return cube.root | cube.type & odd, cube.root | cube.type & ~odd


def front_facets(cube: Cube) -> list[Face]:
    return _facets(cube, odd_above(cube.type))


def rear_facets(cube: Cube) -> list[Face]:
    return _facets(cube, ~odd_above(cube.type))


def _facets(cube: Cube, lifted: int) -> list[Face]:
    """(X + (p & lifted) | T - p) for each direction p, ascending."""
    return [Face(cube.root | bit & lifted, cube.type ^ bit) for bit in _bits(cube.type)]


class Cubillage(Record):
    """d-cubes on [n], one per type when they tile Z(n, d) (see validate_cubillage)."""

    __slots__ = ("n", "d", "cubes")

    def __init__(self, n: int, d: int, cubes: tuple[Cube, ...]) -> None:
        check_ground(n)
        for cube in cubes:
            check_mask(cube.root | cube.type, n)
        self.n, self.d, self.cubes = n, d, cubes

    @staticmethod
    def from_cubes(n: int, d: int, cubes: Sequence[Cube]) -> "Cubillage":
        ordered = tuple(sorted(cubes, key=lambda c: (c.type, c.root)))
        return Cubillage(n=n, d=d, cubes=ordered)

    def vertex_set(self) -> SetSystem:
        return SetSystem.from_masks(
            self.n, (v for cube in self.cubes for v in cube.vertices())
        )

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "n": self.n,
            "d": self.d,
            "cubes": [cube.to_json() for cube in self.cubes],
        }

    @staticmethod
    def from_json(blob: dict) -> "Cubillage":
        try:
            n, d = blob["n"], blob["d"]
            cubes = [Cube(mask_of(c["root"], n), mask_of(c["type"], n)) for c in blob["cubes"]]
        except (KeyError, TypeError):
            raise ValueError(
                "cubillage JSON needs keys n, d and cubes, each cube a root and a type list"
            ) from None
        check_dimension(n, d)
        return Cubillage.from_cubes(n, d, cubes)


def standard_cubillage(n: int, d: int, anti: bool = False) -> Cubillage:
    """The standard (U = {}) or anti-standard (U = all) cubillage; n is
    held to the relation-table cap before U's C(n, d+1) bits are made."""
    check_limit(n)
    check_dimension(n, d)
    return from_inversions(n, d, (1 << comb(n, d + 1)) - 1 if anti else 0)


def from_inversions(n: int, d: int, inverted: int) -> Cubillage:
    """The cube of each type of Z(n, d) for the inversion set U = inverted,
    consistent or not; n is held to the relation-table cap first."""
    check_limit(n)
    check_dimension(n, d)
    index = _subset_index(n, d + 1)
    if not 0 <= inverted < 1 << len(index):
        raise ValueError(f"inversion set {inverted} is not a set of (d+1)-subsets of [{n}]")
    cubes = []
    for typemask in _subset_index(n, d):
        rest = ((1 << n) - 1) & ~typemask
        flip = sum(k for k in _bits(rest) if inverted >> index[typemask | k] & 1)
        cubes.append(Cube(rest & (odd_above(typemask) ^ flip), typemask))
    return Cubillage.from_cubes(n, d, cubes)


def inversions(q: Cubillage) -> tuple[int, list[str]]:
    """(U, problems).  The cube of type S - k reads S in U when k is in its
    root XOR in odd_above(S - k), and the readings of S must agree; then
    the U-membership word of each (d+2)-set's (d+1)-subsets in
    lexicographic order must change at most once (prefix or suffix)."""
    check_limit(q.n)
    check_dimension(q.n, q.d)
    roots = {cube.type: cube.root for cube in q.cubes}
    index = _subset_index(q.n, q.d + 1)
    inverted = 0
    problems = []
    for whole, i in index.items():
        read = {(roots[whole ^ k] ^ odd_above(whole ^ k)) & k != 0
                for k in _bits(whole) if whole ^ k in roots}
        if len(read) > 1:
            problems.append(f"inversion of {set_notation(whole)} read both ways by its cubes")
        inverted |= (True in read) << i
    if problems:
        return inverted, problems
    for whole in _subset_index(q.n, q.d + 2):
        word = "".join(str(inverted >> index[whole ^ k] & 1) for k in reversed(_bits(whole)))
        if sum(a != b for a, b in zip(word, word[1:])) > 1:
            problems.append(f"inversions in {set_notation(whole)}: {word}, no prefix or suffix")
    return inverted, problems


def _subset_index(n: int, k: int) -> dict[int, int]:
    """The k-subsets of [n] as masks, numbered in `combinations` order."""
    return {mask_of(c, n): i for i, c in enumerate(combinations(range(1, n + 1), k))}


def _bits(mask: int) -> list[int]:
    """The one-bit masks of a mask, ascending."""
    return [1 << (e - 1) for e in elements(mask)]


class ValidationReport(NamedTuple):
    """Outcome of validate_cubillage: ok iff problems is empty."""

    n: int
    d: int
    cube_count: int
    vertex_count: int
    problems: list[str]

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "n": self.n,
            "d": self.d,
            "cubes": self.cube_count,
            "vertices": self.vertex_count,
            "ok": self.ok,
            "problems": self.problems,
        }


def validate_cubillage(q: Cubillage) -> ValidationReport:
    """One cube per type, the inversion-set tiling check, vertex separation."""
    problems: list[str] = []
    n, d = q.n, q.d

    types = [cube.type for cube in q.cubes]
    if len(set(types)) != len(types):
        problems.append("duplicate cube types")
    if len(types) != comb(n, d):
        problems.append(f"expected {comb(n, d)} cubes, found {len(types)}")
    if any(t.bit_count() != d for t in types):
        problems.append("cube of wrong dimension")

    problems += inversions(q)[1]

    vertices = q.vertex_set()
    expected = s_formula(n, d - 1) if d - 1 < n else 1 << n
    if len(vertices) != expected:
        problems.append(f"vertex count {len(vertices)}, expected {expected}")
    bad = first_unrelated_pair(vertices, relation_table(n, strong(d - 1)))
    if bad is not None:
        a, b = bad
        problems.append(
            f"vertices {set_notation(a)}, {set_notation(b)} not strongly {d - 1}-separated"
        )

    return ValidationReport(
        n=n,
        d=d,
        cube_count=len(q.cubes),
        vertex_count=len(vertices),
        problems=problems,
    )


def all_cubes(n: int, d: int) -> list[Cube]:
    """Every cube (X | T) on [n] with |T| = d, in canonical order.

    There are C(n, d) * 2^(n-d) of them, so n is held to the limit of a
    scan over all 2^n subsets.  d = 1 is allowed: those cubes are edges.
    """
    check_limit(n)
    check_dimension(n, d, low=1)
    cubes = []
    for combo in combinations(range(1, n + 1), d):
        typemask = mask_of(combo, n)
        rest = ((1 << n) - 1) & ~typemask
        for root in sorted(submasks(rest)):
            cubes.append(Cube(root, typemask))
    return sorted(cubes, key=lambda c: (c.type, c.root))


def side_precedence(
    fronts: Sequence[Iterable[Hashable]], rears: Sequence[Iterable[Hashable]]
) -> list[list[int]]:
    """Arcs i -> j where a rear side piece of i is a front side piece of j.

    Pieces i have the front sides fronts[i] and the rear sides rears[i]:
    facets for cubes, tiles for fragments.  Arcs are found by indexing
    the front sides, so the cost is linear in the total side size.  The
    two sides of a piece are disjoint, so a self-arc would show a broken
    piece as a cycle.
    """
    front_index: dict[Hashable, list[int]] = {}
    for j, front in enumerate(fronts):
        for piece in front:
            front_index.setdefault(piece, []).append(j)
    return [
        sorted({j for piece in rear for j in front_index.get(piece, ())}) for rear in rears
    ]


def precedence_digraph(cubes: Sequence[Cube]) -> list[list[int]]:
    """Successor lists of the shared-facet precedence on the given cubes."""
    return side_precedence([front_facets(c) for c in cubes], [rear_facets(c) for c in cubes])


def gamma_graph(n: int, d: int) -> tuple[list[Cube], list[list[int]]]:
    """The precedence digraph on all of C(n, d) (every cube on [n])."""
    cubes = all_cubes(n, d)
    return cubes, precedence_digraph(cubes)


class BeadThreads(NamedTuple):
    """Bead-thread structure of a cubillage: arcs t_C -> h_C chained into paths."""

    n: int
    d: int
    arcs: list[tuple[int, int]]
    threads: list[list[int]]  # vertex paths with at least one arc
    problems: list[str]

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_dot(self) -> str:
        lines = ["digraph beads {"]
        for tail, head in self.arcs:
            lines.append(
                f'  "{set_notation(tail)}" -> "{set_notation(head)}";'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def bead_thread_graph(q: Cubillage) -> BeadThreads:
    """Arcs t_C -> h_C of all cubes, with the structural checks applied.

    Checks: in/out-degree at most one, so arcs chain into simple paths;
    thread starts are exactly the inner front vertices (front minus
    rim), thread ends exactly the inner rear vertices; heights strictly
    increase along arcs for odd d and stay constant for even d.
    """
    problems: list[str] = []
    arcs = []
    out_map: dict[int, int] = {}
    in_map: dict[int, int] = {}
    for cube in q.cubes:
        tail, head = apex_vertices(cube)
        arcs.append((tail, head))
        if tail in out_map:
            problems.append(f"vertex {set_notation(tail)} has out-degree 2")
        if head in in_map:
            problems.append(f"vertex {set_notation(head)} has in-degree 2")
        out_map[tail] = head
        in_map[head] = tail
        gap = head.bit_count() - tail.bit_count()
        if gap != q.d % 2:
            problems.append(f"arc at cube {cube.label()} changes height by {gap}")

    starts = [v for v in sorted(out_map) if v not in in_map]
    threads = []
    for start in starts:
        path = [start]
        while path[-1] in out_map:
            nxt = out_map[path[-1]]
            if nxt in path:
                problems.append(f"thread cycle through {set_notation(nxt)}")
                break
            path.append(nxt)
        threads.append(path)

    sides = zonotope_sides(q.n, q.d)
    inner_front = set(sides.front.members) - set(sides.rim.members)
    inner_rear = set(sides.rear.members) - set(sides.rim.members)
    if set(starts) != inner_front:
        problems.append("thread starts differ from the inner front vertices")
    ends = {path[-1] for path in threads}
    if ends != inner_rear:
        problems.append("thread ends differ from the inner rear vertices")
    covered = {v for path in threads for v in path}
    if covered != set(out_map) | set(in_map):
        problems.append("threads do not cover all arc vertices")

    return BeadThreads(n=q.n, d=q.d, arcs=arcs, threads=threads, problems=problems)
