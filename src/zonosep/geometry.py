"""Geometry of cyclic zonotopes, decided by rules on the generator order.

Z(n, d) is the Minkowski sum of the segments [0, xi_i] over the moment
curve xi_i = (1, t_i, t_i^2, ..., t_i^(d-1)), t_1 < ... < t_n.  No
coordinate is computed here: each question below has a rule in the
order of the generators alone, and the test suite checks every rule
against exact integer linear algebra in `tests/oracles.py`.

One rule orients everything (`odd_above`): on the moment curve in
dimension D, a type T of D - 1 generators spans a hyperplane, and
generator k lies on the positive side of it (the normal oriented to a
negative last coordinate) exactly when an odd number of elements of T
are larger than k.  The test suite compares this parity rule with
oriented cofactor normals (`tests/oracles.exact_side_roots`).
`side_roots` splits the generators outside T by it.  With D = d it
cuts the boundary of Z(n, d) into a front and a rear side (outward
normal with negative resp. positive last coordinate), facet by facet,
and the vertices of Z(n, d) are the union of the two sides; the test
suite compares that union with the sign rule (at most d - 1 sign
changes of the membership sequence along 1..n) and the sign rule with
an exact Fourier-Motzkin feasibility check
(`tests/oracles.linear_functional_separates`).  With D = d + 1 it cuts
the cubes of every cubillage (`cubillage.from_inversions`), and within
a cube (X | T) it orients each facet and picks the two apexes
(`cubillage.front_facets`, `apex_vertices`).  For odd d the sides also have a
closed combinatorial form: the front vertices are the k-intervals with
k <= (d-1)/2, the rear vertices are their complements, and the rim
(front meets rear) drops the (d-1)/2-intervals containing neither 1
nor n.  That form is an oracle (`tests/oracles.front_rear_vertices`)
the test suite compares the facet-by-facet sides with.

One type, `Face`, holds every (root | type) object: the sets root + A
over A inside type.  It serves as a cube of a cubillage
(`cubillage.Cube`, which adds its checks), a facet of a cube, and a
boundary facet of Z(n, d).
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .ground import elements, mask_of, set_notation, submasks
from .systems import SetSystem, check_dimension, check_limit


class Face(NamedTuple):
    """A face (root | type): root and type are subset masks of [n].

    A NamedTuple, so a face equals and hashes as its plain (root, type)
    pair.
    """

    root: int
    type: int

    def vertices(self) -> list[int]:
        """The vertex sets root + A, A inside type, from A = type down."""
        return [self.root | sub for sub in submasks(self.type)]

    def label(self) -> str:
        return f"{set_notation(self.root)}|{set_notation(self.type)}"

    def to_json(self) -> dict:
        return {"root": elements(self.root), "type": elements(self.type)}


def odd_above(typemask: int) -> int:
    """The generators with an odd number of elements of the type above them.

    On the moment curve xi_i = (1, t_i, ..., t_i^(D-1)), D = |T| + 1,
    the normal of span{xi_t : t in T} oriented to a negative last
    coordinate is the coefficient vector of -prod_{t in T} (x - t_t).
    Its product with xi_k is -prod_{t in T} (t_k - t_t), positive
    exactly when k is in this mask.  Only the order of the t_i enters,
    so the rule holds for every increasing t.  It is the one side rule
    of the package: boundary facets, cube roots, cube facets and
    apexes are all oriented by it.
    """
    odd = 0
    for t in elements(typemask):
        odd ^= (1 << (t - 1)) - 1  # toggles every generator below t
    return odd


def side_roots(n: int, typemask: int) -> tuple[int, int]:
    """The generators outside a type: those on the positive side of its
    span (`odd_above`), then the rest."""
    odd = odd_above(typemask)
    rest = ((1 << n) - 1) & ~typemask
    return rest & odd, rest & ~odd


def boundary_vertices(n: int, d: int) -> SetSystem:
    """All subsets of [n] spanning vertices of Z(n, d), canonically ordered.

    Every vertex lies on a front or a rear facet, so these are the two
    sides of `zonotope_sides` together, with n held to its limit.
    """
    sides = zonotope_sides(n, d)
    return SetSystem(n, [*sides.front.members, *sides.rear.members])


class ZonotopeSides(NamedTuple):
    """Front/rear boundary facets of Z(n, d) and their vertex sets.

    Facets are `Face`s, ordered by (type, root): type is a (d-1)-subset
    spanning the facet's directions, root the set of generators strictly
    on the facet's side of that span.  Vertex sets are unions of facet
    vertex sets; the rim is the intersection of front and rear.
    """

    n: int
    d: int
    front_facets: tuple[Face, ...]
    rear_facets: tuple[Face, ...]
    front: SetSystem
    rear: SetSystem
    rim: SetSystem


def zonotope_sides(n: int, d: int) -> ZonotopeSides:
    """Front/rear split of the boundary of Z(n, d), facet by facet.

    C(n, d - 1) facets a side, so n is held to the relation-table cap.
    """
    check_limit(n)
    check_dimension(n, d)
    front_facets = []
    rear_facets = []
    front_verts: set[int] = set()
    rear_verts: set[int] = set()
    for combo in combinations(range(1, n + 1), d - 1):
        typemask = mask_of(combo, n)
        # with the outward normal pointing frontward, the front root
        # collects the generators on the positive side
        front_root, rear_root = side_roots(n, typemask)
        front = Face(front_root, typemask)
        rear = Face(rear_root, typemask)
        front_facets.append(front)
        rear_facets.append(rear)
        front_verts.update(front.vertices())
        rear_verts.update(rear.vertices())
    return ZonotopeSides(
        n=n,
        d=d,
        front_facets=tuple(sorted(front_facets, key=lambda f: (f.type, f.root))),
        rear_facets=tuple(sorted(rear_facets, key=lambda f: (f.type, f.root))),
        front=SetSystem(n, front_verts),
        rear=SetSystem(n, rear_verts),
        rim=SetSystem(n, front_verts & rear_verts),
    )
