"""Exact geometry of cyclic vector configurations and their zonotopes.

A cyclic configuration of n vectors in dimension d is a matrix whose
columns xi_1, ..., xi_n have first coordinate 1 and all flag minors
positive (determinants of the top k rows on any k increasing columns,
for every k <= d).  The concrete model used everywhere is the Veronese
curve at integer parameters: xi_i = (1, t_i, t_i^2, ..., t_i^(d-1))
with t_1 < ... < t_n, default t_i = i, so every coordinate is an
integer and all arithmetic below is exact (no floating point is used
anywhere in this module).

The zonotope Z(n, d) is the Minkowski sum of the segments [0, xi_i].
A subset X of [n] spans a vertex (the point sum of xi_i over i in X)
exactly when some linear functional is positive on the xi_i with i in
X and negative on the rest; for a cyclic configuration this is a sign
rule: the +/- membership sequence of X along 1..n may change sign at
most d - 1 times.  The sign rule is the test used here; the test suite
compares it exhaustively with an exact Fourier-Motzkin feasibility
check (`tests/oracles.linear_functional_separates`).

The boundary of Z splits into a front and a rear side (outward normal
with negative resp. positive last coordinate).  Their vertex sets are
computed facet by facet from exact normals.  For odd d they also have
a closed combinatorial form: the front vertices are the k-intervals
with k <= (d-1)/2, the rear vertices are their complements, and the
rim (front meets rear) drops the (d-1)/2-intervals containing neither
1 nor n.  That form is an oracle (`tests/oracles.front_rear_vertices`)
the test suite compares the facet-by-facet sides with.

One type, `Face`, holds every (root | type) object: the sets root + A
over A inside type.  It serves as a cube of a cubillage
(`cubillage.Cube`, which adds its checks), a facet of a cube, and a
boundary facet of Z(n, d).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .ground import elements, mask_of, set_notation, submasks
from .systems import SetSystem, check_dimension, check_limit

Vector = tuple[int, ...]


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


@dataclass(frozen=True)
class CyclicConfiguration:
    """n integer vectors of dimension d with all flag minors positive."""

    n: int
    d: int
    ts: tuple[int, ...]
    columns: tuple[Vector, ...]

    def column(self, i: int) -> Vector:
        """1-indexed generator vector."""
        return self.columns[i - 1]


def _det(rows: list[list[int]]) -> Fraction:
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    size = len(rows)
    mat = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(size):
        pivot = None
        for row in range(col, size):
            if mat[row][col]:
                pivot = row
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = mat[col][col]
        for row in range(col + 1, size):
            factor = mat[row][col] / inv
            if factor:
                for k in range(col, size):
                    mat[row][k] -= factor * mat[col][k]
    return det


def flag_minors_positive(columns: list[Vector], d: int) -> bool:
    """All determinants of top-k rows on increasing column k-subsets positive."""
    n = len(columns)
    for k in range(1, d + 1):
        for combo in combinations(range(n), k):
            rows = [[columns[c][row] for c in combo] for row in range(k)]
            if _det(rows) <= 0:
                return False
    return True


def veronese(n: int, d: int, ts: tuple[int, ...] | None = None, validate: bool = True) -> CyclicConfiguration:
    """Veronese cyclic configuration at integer parameters (default 1..n)."""
    check_dimension(n, d)
    if ts is None:
        ts = tuple(range(1, n + 1))
    if len(ts) != n or any(not isinstance(t, int) for t in ts):
        raise ValueError("ts must be n integers")
    if any(ts[i] >= ts[i + 1] for i in range(n - 1)):
        raise ValueError("ts must be strictly increasing")
    cols = tuple(tuple(t**j for j in range(d)) for t in ts)
    if validate and not flag_minors_positive(list(cols), d):
        raise ValueError("configuration has a nonpositive flag minor")
    return CyclicConfiguration(n=n, d=d, ts=ts, columns=cols)


def sign_changes(mask: int, n: int) -> int:
    """Sign changes of the +/- membership sequence of X along 1..n."""
    changes = 0
    prev = mask & 1
    for i in range(1, n):
        cur = mask >> i & 1
        if cur != prev:
            changes += 1
            prev = cur
    return changes


def normal_vector(config: CyclicConfiguration, typemask: int) -> Vector:
    """Integer normal to the span of d - 1 generators (cofactor expansion).

    The orientation is as produced by the cofactor formula; callers fix
    the sign themselves.  Raises ArithmeticError if the configuration is
    degenerate on this type (never happens for a cyclic configuration).
    """
    idx = elements(typemask)
    if len(idx) != config.d - 1:
        raise ValueError(f"normal_vector expects a (d-1)-subset, got {idx}")
    rows = [list(config.column(i)) for i in idx]
    normal = []
    for j in range(config.d):
        minor = [[row[k] for k in range(config.d) if k != j] for row in rows]
        cof = _det(minor)
        if cof.denominator != 1:
            raise ArithmeticError("nonintegral cofactor from integer input")
        normal.append((-1) ** j * int(cof))
    if all(v == 0 for v in normal):
        raise ArithmeticError("degenerate span: zero normal")
    return tuple(normal)


def _dot(u: Vector, v: Vector) -> int:
    return sum(a * b for a, b in zip(u, v))


def side_roots(config: CyclicConfiguration, typemask: int) -> tuple[int, int]:
    """The generators off the span of the type, split by the oriented normal.

    The normal is oriented to a negative last coordinate; the first root
    collects the generators with positive product against it, the
    second those with negative product.  Raises ArithmeticError on a
    zero last coordinate or a generator on the span (not cyclic).
    """
    normal = normal_vector(config, typemask)
    if normal[-1] == 0:
        raise ArithmeticError("normal with zero last coordinate")
    if normal[-1] > 0:
        normal = tuple(-x for x in normal)
    positive_root = negative_root = 0
    for i in range(1, config.n + 1):
        if typemask >> (i - 1) & 1:
            continue
        value = _dot(normal, config.column(i))
        if value == 0:
            raise ArithmeticError("generator on the span of a type: not cyclic")
        if value > 0:
            positive_root |= 1 << (i - 1)
        else:
            negative_root |= 1 << (i - 1)
    return positive_root, negative_root


def boundary_vertices(n: int, d: int) -> SetSystem:
    """All subsets of [n] spanning vertices of Z(n, d), canonically ordered.

    A scan over all 2^n subsets, so n is held to the relation-table cap.
    """
    check_limit(n)
    check_dimension(n, d)
    return SetSystem.from_masks(
        n, (x for x in range(1 << n) if sign_changes(x, n) <= d - 1)
    )


@dataclass(frozen=True)
class ZonotopeSides:
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
    """Front/rear split of the boundary of Z(n, d) from exact facet normals.

    C(n, d - 1) facets a side, so n is held to the relation-table cap.
    """
    check_limit(n)
    config = veronese(n, d, validate=False)
    front_facets = []
    rear_facets = []
    front_verts: set[int] = set()
    rear_verts: set[int] = set()
    for combo in combinations(range(1, n + 1), d - 1):
        typemask = mask_of(combo, n)
        # with the outward normal pointing frontward, the front root
        # collects the generators on the positive side
        front_root, rear_root = side_roots(config, typemask)
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
        front=SetSystem.from_masks(n, front_verts),
        rear=SetSystem.from_masks(n, rear_verts),
        rim=SetSystem.from_masks(n, front_verts & rear_verts),
    )
