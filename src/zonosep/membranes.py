"""Fragmentations of a cubillage, their s-, w- and e-membranes, and flips.

Slicing every cube of a cubillage of Z(n, d) by the hyperplanes of
integer height (cardinality of the vertex sets) cuts it into d
*fragments*: the h-th fragment of C = (X | T) lies between the
cardinality levels |X| + h - 1 and |X| + h.  Fragment boundaries are
*tiles*, and a tile is the frozenset of its vertex masks: the H-tile
of (C, j) is the horizontal section X + A, |A| = j, and a V-tile is a
one-slab slice of a cube facet, its vertex sets on two adjacent levels
(`tile_label` tells the two apart by that count).  The vertex set
determines the facet and the slab, so facet sharing is decided
exactly.  The front and rear sides of a cube's facets come from the
one parity rule (`cubillage.front_facets`, `geometry.odd_above`).

Fragments are ordered as cubes are (`cubillage.side_precedence`): the
rear side of one meets the front side of the next.  The order is
acyclic; its order ideals are in bijection with the *w-membranes* of
the cubillage.  A membrane is constructed by replay: start with the
front boundary of Z sliced into slabs and, for each fragment of the
ideal in topological order, swap its front side for its rear side.
Every precondition of every swap is asserted, so a defect in the
lattice structure surfaces as a hard failure instead of a silently
wrong tile set.  The tiles also refuse a fragment raised twice: its
front side died at its first flip, and a tile born at most once and
never onto the front boundary does not come back.

A flavor is where the fragmentation cuts each cube (`_runs`).  The
plain one (flavor W) cuts at every integer height.  For even d the
*enlarged* fragmentation (flavor E) leaves the middle height uncut: the
two middle slabs of every cube merge into one *center* fragment, the
middle horizontal section disappearing inside it.  Ideals of the
enlarged order give *e-membranes*, exactly the w-membranes avoiding all
middle H-tiles.  Scans over all e-membranes check the vertex systems
for double (d-2)-combs and weak separation violations.  Flavor S cuts
nowhere: each fragment is a whole cube, its order is the cube
precedence, and its ideals give the cube-level *s-membranes*.

No membrane is visited to count or to check them: tile lifespans turn
each vertex's multiplicity into its front-boundary count plus the net
changes of the fragments behind the membrane, each vertex's presence is
checked to be one interval of the ideal lattice, and the count and the
sizes (`membrane_census`) and the violating pairs (`scan_membranes`)
follow from those intervals, for every flavor alike.  Property P, that
no e-membrane carries a double (d-2)-comb, is
`scan_membranes(q, FLAVOR_E, check_combs=True)`.  One membrane at a
time is built by replay (`membrane_from_ideal`, or `base_membrane` and
`raising_flip` step by step).

All of that but the whole-cubillage part is cube-local, and a cube
recurs across the cubillages of one Z(n, d).  So a cube's fragments,
their two sides and their net vertex changes are cut once per process
and memoised per (cube, flavor), and the front boundary per (n, d);
a census assembles a cubillage from those pieces, and its lifespans,
precedence, poset, intervals, count and pairs are its own.
"""

from __future__ import annotations

import time
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .cubillage import Cube, Cubillage, front_facets, rear_facets, side_precedence
from .geometry import Face, zonotope_sides
from .ground import Record, elements, set_notation, submasks
from .posets import IDEAL_STATE_BUDGET, IdealCapExceeded, Poset
from .separation import is_double_r_comb
from .systems import (
    RELATION_CACHE_SIZE,
    SCHEMA,
    SetSystem,
    check_limit,
    complement_table,
    s_formula,
    weak,
    weak_even_no_comb,
)

FLAVOR_W = "W"
FLAVOR_E = "E"
FLAVOR_S = "S"


def tile_label(tile: frozenset[int]) -> str:
    """H[...] for a tile on one cardinality level, V[...] for one on two."""
    kind = "H" if len({v.bit_count() for v in tile}) == 1 else "V"
    return f"{kind}[{','.join(set_notation(v) for v in sorted(tile))}]"


def _layers(face: Face) -> list[list[int]]:
    """The vertex sets root + A of a face, grouped by |A| = 0..|type|.

    Every tile is cut from these: an H-tile is one layer of a cube, a
    V-tile two adjacent layers of a facet (`_slab`).
    """
    layers: list[list[int]] = [[] for _ in range(face.type.bit_count() + 1)]
    for sub in submasks(face.type):
        layers[sub.bit_count()].append(face.root | sub)
    return layers


def _slab(layers: list[list[int]], k: int) -> frozenset[int] | None:
    """The tile of layers k and k+1 of a face; None outside the face."""
    return frozenset(layers[k] + layers[k + 1]) if 0 <= k < len(layers) - 1 else None


def h_tile(cube: Cube, j: int) -> frozenset[int] | None:
    """Horizontal section of a cube at local height j; None when degenerate."""
    return frozenset(_layers(cube)[j]) if 1 <= j <= cube.d - 1 else None


def v_tile(facet: Face, slab: int) -> frozenset[int] | None:
    """One-slab slice of a facet: the vertex layers at sizes slab, slab+1."""
    return _slab(_layers(facet), slab - facet.root.bit_count())


def _cube_sides(
    cube: Cube, runs: Iterable[tuple[int, ...]], rear: bool
) -> list[frozenset[frozenset[int]]]:
    """The front side, or with rear the rear side, of the fragment of
    the cube over each run of slabs (`Fragment.slabs`).

    A side is the V-tiles of the cube's front (rear) facets at every
    slab of the run, plus the section below the run's first slab, the
    floor (above its last, the ceiling), none at heights 0 and d.  Each
    facet's layers are built once and every run is cut from them.
    """
    base = cube.root.bit_count()
    faces = [
        (_layers(facet), facet.root.bit_count() - base)
        for facet in (rear_facets(cube) if rear else front_facets(cube))
    ]
    sides = []
    for slabs in runs:
        tiles = {_slab(layers, s - 1 - lift) for layers, lift in faces for s in slabs}
        tiles.add(h_tile(cube, slabs[-1] if rear else slabs[0] - 1))
        tiles.discard(None)
        sides.append(frozenset(tiles))
    return sides


class Fragment(Record):
    """Slabs h..top of a cube, between heights |X|+h-1 and |X|+top; top
    defaults to h, the one slab h.

    The sections between the covered slabs are interior to the fragment;
    where a flavor cuts is `_runs`'s business.
    """

    __slots__ = ("cube", "h", "top")

    def __init__(self, cube: Cube, h: int, top: int | None = None) -> None:
        top = h if top is None else top
        if not 1 <= h <= top <= cube.d:
            raise ValueError(f"slabs {h}..{top} outside 1..{cube.d}")
        self.cube, self.h, self.top = cube, h, top

    @property
    def slabs(self) -> tuple[int, ...]:
        return tuple(range(self.h, self.top + 1))

    def label(self) -> str:
        return f"{self.cube.label()}#h{'+'.join(str(s) for s in self.slabs)}"

    def eps_front(self) -> frozenset[frozenset[int]]:
        return _cube_sides(self.cube, [self.slabs], rear=False)[0]

    def eps_rear(self) -> frozenset[frozenset[int]]:
        return _cube_sides(self.cube, [self.slabs], rear=True)[0]


def _runs(d: int, flavor: str) -> tuple[tuple[int, int], ...]:
    """The slabs (h, top) of each fragment of a cube of Z(n, d), ascending.

    The one rule for where a flavor cuts a cube: W at every height
    1..d-1, giving all d * C(n, d) slabs; E, the enlarged fragmentation
    (even d only), at every height but d/2, so each cube's two middle
    slabs merge into its center; S at none, so each fragment is a whole
    cube and its sides are its facets, cut into slabs.
    """
    if flavor == FLAVOR_W:
        cuts = list(range(1, d))
    elif flavor == FLAVOR_E:
        if d % 2:
            raise ValueError("enlarged fragmentation needs even dimension")
        cuts = [j for j in range(1, d) if j != d // 2]
    elif flavor == FLAVOR_S:
        cuts = []
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    bounds = [0, *cuts, d]
    return tuple((low + 1, top) for low, top in zip(bounds, bounds[1:]))


class _CubePieces(NamedTuple):
    """One cube's fragments, their front and rear sides, and their net
    vertex changes (`_net_changes`), in slab order."""

    deltas: tuple[Fragment, ...]
    fronts: tuple[frozenset[frozenset[int]], ...]
    rears: tuple[frozenset[frozenset[int]], ...]
    nets: tuple[tuple[tuple[int, int], ...], ...]


# A cube recurs across the cubillages of one Z(n, d): Z(7,3) has 560
# cubes and each of its cubillages uses 35.  So each cube is cut once per
# process and the pieces of the last CUBE_MEMO_SIZE (cube, runs) pairs
# are kept: more than the 924 cubes of one cubillage at the relation-table
# cap, Z(12,6), so a census never evicts its own cubes, and every cube of
# Z(8,3) (1,792).  README "Membrane scans" gives the memory it holds.
CUBE_MEMO_SIZE = 2048


@lru_cache(maxsize=CUBE_MEMO_SIZE)
def _cube_pieces(cube: Cube, runs: tuple[tuple[int, int], ...]) -> _CubePieces:
    """The cube's pieces for the slab runs of `_runs`."""
    deltas = tuple(Fragment(cube, h, top) for h, top in runs)
    slabs = [delta.slabs for delta in deltas]
    fronts = tuple(_cube_sides(cube, slabs, rear=False))
    rears = tuple(_cube_sides(cube, slabs, rear=True))
    return _CubePieces(deltas, fronts, rears, tuple(map(_net_changes, rears, fronts)))


def fragment_precedence(
    q: Cubillage, flavor: str = FLAVOR_W
) -> tuple[list[Fragment], list[list[int]]]:
    """The fragments of the flavor, cubes in canonical order, slabs
    ascending, and arcs i -> j where a rear tile of fragment i is a front
    tile of fragment j."""
    deltas, _, _, _, succs = _fragment_sides(q, flavor)
    return deltas, succs


def _fragment_sides(q: Cubillage, flavor: str) -> tuple[
    list[Fragment], list[frozenset], list[frozenset], list[tuple], list[list[int]]
]:
    """The fragments of the flavor, their front and rear sides, their net
    vertex changes, each cube's read from the memo (`_cube_pieces`), and
    the arcs of their precedence."""
    runs = _runs(q.d, flavor)
    deltas: list[Fragment] = []
    fronts: list[frozenset] = []
    rears: list[frozenset] = []
    nets: list[tuple] = []
    for cube in q.cubes:
        pieces = _cube_pieces(cube, runs)
        deltas += pieces.deltas
        fronts += pieces.fronts
        rears += pieces.rears
        nets += pieces.nets
    return deltas, fronts, rears, nets, side_precedence(fronts, rears)


class Membrane(NamedTuple):
    """A tile set between the front and rear boundary, with the ideal of
    fragments behind it; the flavor names the fragmentation (`_runs`)."""

    n: int
    d: int
    flavor: str
    ideal: tuple
    tiles: frozenset[frozenset[int]]

    def vertex_masks(self) -> set[int]:
        return set().union(*self.tiles)


def membrane_vertices(m: Membrane) -> SetSystem:
    return SetSystem.from_masks(m.n, m.vertex_masks())


def _slice_boundary(facets: Iterable[Face]) -> frozenset[frozenset[int]]:
    """Every facet cut into its one-slab V-tiles."""
    tiles = []
    for facet in facets:
        low = facet.root.bit_count()
        tiles += [v_tile(facet, slab) for slab in range(low, low + facet.type.bit_count())]
    return frozenset(tiles)


class _Boundary(NamedTuple):
    """The front boundary of Z(n, d) cut into slabs, and its vertex counts."""

    tiles: frozenset[frozenset[int]]
    nets: tuple[tuple[int, int], ...]


@lru_cache(maxsize=RELATION_CACHE_SIZE)
def _front_boundary(n: int, d: int) -> _Boundary:
    """The front boundary of Z(n, d), memoised like the relation table."""
    tiles = _slice_boundary(zonotope_sides(n, d).front_facets)
    return _Boundary(tiles, _net_changes(tiles))


def base_membrane(q: Cubillage, flavor: str = FLAVOR_W) -> Membrane:
    """The front boundary of Z(n, d), each facet cut into its slabs."""
    return Membrane(
        n=q.n,
        d=q.d,
        flavor=flavor,
        ideal=(),
        tiles=_front_boundary(q.n, q.d).tiles,
    )


def rear_boundary_tiles(q: Cubillage) -> frozenset[frozenset[int]]:
    sides = zonotope_sides(q.n, q.d)
    return _slice_boundary(sides.rear_facets)


def raising_flip(m: Membrane, delta: Fragment) -> Membrane:
    """Swap the front side of the fragment for its rear side.

    The tiles alone decide whether the flip is legal.  A fragment behind
    the membrane lost its front side to its own flip, and no later flip
    brings a tile of it back, as every census checks (`_check_lifespans`):
    a second raise finds front tiles missing, and only then is the ideal
    read, to say why.
    """
    front, rear = delta.eps_front(), delta.eps_rear()
    missing = front - m.tiles
    if missing:
        if delta in m.ideal:
            raise ValueError(f"{delta.label()} already behind the membrane")
        raise ValueError(
            f"raising flip at {delta.label()} blocked: missing "
            + ", ".join(sorted(map(tile_label, missing)))
        )
    clashing = rear & m.tiles
    if clashing:
        raise ValueError(
            f"raising flip at {delta.label()} blocked: present "
            + ", ".join(sorted(map(tile_label, clashing)))
        )
    return Membrane(
        n=m.n,
        d=m.d,
        flavor=m.flavor,
        ideal=m.ideal + (delta,),
        tiles=(m.tiles - front) | rear,
    )


def membrane_from_ideal(
    q: Cubillage,
    ideal: Iterable[Fragment],
    flavor: str = FLAVOR_W,
) -> Membrane:
    """Replay one raising flip per ideal element, in topological order."""
    deltas, succs = fragment_precedence(q, flavor)
    poset = Poset(len(deltas), succs)
    place = {deltas[i]: pos for pos, i in enumerate(poset.topo)}
    held = 0
    for delta in ideal:
        if delta not in place:
            raise ValueError(f"{delta.label()} is not a fragment of this cubillage")
        held |= 1 << place[delta]
    return _replay(base_membrane(q, flavor=flavor), deltas, poset, held)


def _replay(base: Membrane, deltas: Sequence[Fragment], poset: Poset, held: int) -> Membrane:
    """Raise the base membrane by the fragments at the topological
    positions set in held, in topological order.

    Each held fragment needs its whole down-set held too.
    """
    m = base
    for pos, i in enumerate(poset.topo):
        if held >> pos & 1:
            lacking = poset.down[pos] & ~held
            if lacking:
                raise ValueError(
                    f"not an ideal: {deltas[i].label()} lacks "
                    f"{deltas[poset.nodes(lacking)[0]].label()}"
                )
            m = raising_flip(m, deltas[i])
    return m


class MembraneInvariantError(RuntimeError):
    """A structural invariant of the membrane model failed.

    Raised when a tile is born or dies at two fragments, when a tile's
    multiplicity would leave {0, 1} (present twice, or dying while
    absent), when a witness ideal's replayed membrane does not carry
    the pair the scan reported, or when it does but the pair breaks no
    claim.  It is an internal error of the model, never a usage error.
    """


KIND_SIZE = "size"
KIND_WEAK = "weak"
KIND_COMB = "comb"


class ScanViolation(NamedTuple):
    """One reason a scan fails.

    Kinds weak and comb: a vertex pair violating weak r-separation, or
    forming a double r-comb, that some membrane carries; `witness` holds
    the fragment labels of the least such ideal, the down-set of the two
    vertices' entry fragments.  Kind size: membrane sizes other than the
    expected one; `weights` names each fragment whose raising flip
    changes the size, with the change.
    """

    kind: str
    pair: tuple[int, int] = (0, 0)
    witness: tuple[str, ...] = ()
    sizes: tuple[int, ...] = ()
    weights: tuple[tuple[str, int], ...] = ()

    def __str__(self) -> str:
        if self.kind == KIND_SIZE:
            changes = ", ".join(f"{label} {w:+d}" for label, w in self.weights)
            return f"sizes {list(self.sizes)}; size-changing fragments: {changes or 'none'}"
        u, v = self.pair
        return (
            f"{set_notation(u)} vs {set_notation(v)} ({self.kind}), "
            f"witness ideal {list(self.witness)}"
        )

    def to_json(self) -> dict:
        if self.kind == KIND_SIZE:
            return {
                "kind": self.kind,
                "sizes": list(self.sizes),
                "fragments": [{"fragment": label, "change": w} for label, w in self.weights],
            }
        return {
            "kind": self.kind,
            "pair": [elements(v) for v in self.pair],
            "witness": list(self.witness),
        }


class MembraneCensus:
    """The membranes of one cubillage, and the claims decided on them.

    `membrane_census` fills the count and sizes, `scan_membranes` then
    sets `expected_size` and decides the claims on the same record; on a
    census alone they are unset (None, no violations), so `ok` means
    decided.  `undecided` says why the count could not be decided (a
    vertex whose presence is not one interval of the ideal lattice or
    needs more ideals to check than the budget, or a count past its memo
    budget); such a record is never ok.  `stats` holds counters and phase
    seconds for display and never enters the JSON.  The other fields are what the census decided the sizes from,
    and what the scan tests pairs on: the fragments and their
    precedence, the poset over them, the front boundary, each vertex's
    presence interval (positions a, b, as in `_presence_intervals`) and
    each fragment's size change.
    """

    __slots__ = ("n", "d", "flavor", "expected_size", "membrane_count", "sizes_seen",
                 "violations", "comb_free", "undecided", "stats", "deltas", "succs", "poset",
                 "base", "intervals", "weights")

    def __init__(self, q: Cubillage, flavor: str, deltas: Sequence[Fragment],
                 succs: Sequence[Sequence[int]], poset: Poset) -> None:
        self.n, self.d, self.flavor = q.n, q.d, flavor
        self.expected_size: int | None = None
        self.membrane_count = 0
        self.sizes_seen: set[int] = set()
        self.violations: list[ScanViolation] = []
        self.comb_free: bool | None = None
        self.undecided: str | None = None
        self.stats: dict = {}
        self.deltas, self.succs, self.poset = deltas, succs, poset
        self.base: Membrane | None = None
        self.intervals: dict[int, tuple[int | None, int | None]] = {}
        self.weights: list[int] = []

    @property
    def capped(self) -> bool:
        """The census did not decide every membrane."""
        return self.undecided is not None

    @property
    def ok(self) -> bool:
        return not self.violations and not self.capped

    def to_json(self) -> dict:
        blob = {
            "schema": SCHEMA,
            "n": self.n,
            "d": self.d,
            "flavor": self.flavor,
            "r": self.d - 2,
            "expected_size": self.expected_size,
            "membranes": self.membrane_count,
            "capped": self.capped,
            "sizes": sorted(self.sizes_seen),
            "violations": [v.to_json() for v in self.violations],
            "comb_free": self.comb_free,
        }
        if self.undecided is not None:
            blob["undecided"] = self.undecided
        return blob


def membrane_census(q: Cubillage, flavor: str = FLAVOR_W) -> MembraneCensus:
    """Count the membranes of the flavor and their sizes without visiting one.

    These are the first three phases of `scan_membranes`: the fragment
    precedence, then tile lifespans and presence intervals, then the
    ideal count and the size fold.  The claims are left unset.
    """
    clock = time.perf_counter
    started = clock()
    before = _cube_pieces.cache_info()
    deltas, fronts, rears, nets, succs = _fragment_sides(q, flavor)
    cut = _cube_pieces.cache_info().misses - before.misses
    poset = Poset(len(deltas), succs)
    census = MembraneCensus(q, flavor, deltas, succs, poset)
    stats = census.stats
    stats["fragments"] = len(deltas)
    stats["cubes_cut"], stats["cubes_reused"] = cut, len(q.cubes) - cut
    stats["precedence_s"] = clock() - started

    started = clock()
    census.base = base = base_membrane(q, flavor=flavor)
    _check_lifespans(base.tiles, deltas, fronts, rears)
    intervals = _presence_intervals(poset, _front_boundary(q.n, q.d).nets, nets)
    stats["intervals_s"] = clock() - started
    if isinstance(intervals, str):
        census.undecided = intervals
        return census
    census.intervals = intervals
    stats["vertices"] = len(intervals)

    started = clock()
    census.weights = weights = [0] * len(deltas)
    size0 = 0
    for a, b in intervals.values():
        if a is None:
            size0 += 1
        else:
            weights[poset.topo[a]] += 1
        if b is not None:
            weights[poset.topo[b]] -= 1
    try:
        census.membrane_count = poset.count_ideals()
        sums = poset.ideal_sums(weights) if any(weights) else {0}
    except IdealCapExceeded as exc:
        census.undecided = str(exc)
        return census
    stats["states"] = poset.states
    census.sizes_seen = {size0 + s for s in sums}
    stats["count_s"] = clock() - started
    return census


def scan_membranes(
    q: Cubillage,
    flavor: str = FLAVOR_W,
    check_combs: bool = False,
) -> MembraneCensus:
    """Decide the membrane claims of one cubillage without visiting membranes.

    The claims, at r = d-2: every membrane has s(n, r) vertices, and
    every two of its vertices satisfy the claimed relation, weak
    r-separation or, with check_combs, WEAK_EVEN_NO_COMB(r) (weak
    separation and no double r-comb).  So d < 3, and double combs at odd
    d, are refused before the census.  The decision runs in four phases,
    the first three of them `membrane_census`, whose record this one
    completes and returns:

    1. the fragment precedence and its down- and up-set bitmasks;
    2. tile lifespans: every tile is born by at most one raising flip
       and dies by at most one, so a vertex's multiplicity on the
       membrane of ideal I is its front-boundary multiplicity plus the
       net changes of the fragments in I; then, per vertex, the ideals
       of the subposet of fragments changing that multiplicity are
       enumerated to derive fragments a_v, b_v with "v is present iff
       a_v in I and b_v not in I" (a_v absent for a vertex on the front
       boundary, b_v for one never leaving).  That form is checked on
       every instance, never assumed; where it fails, or a vertex's
       ideals pass the memo budget, the record is undecided;
    3. the membrane count, and the sizes as size(empty ideal) plus the
       fragment weights w = #(a_v = fragment) - #(b_v = fragment)
       summed over I, folded over the ideals only when a weight is
       nonzero;
    4. pairs, in one pass over the pairs outside the claimed relation:
       such a pair (u, v) lies on a common membrane iff neither b_u nor
       b_v lies in the down-set of {a_u, a_v}, and that down-set is the
       witness.  Every witness is replayed through the membrane
       construction and the pair re-judged from scratch: a pair that
       weak r-separation rejects is of kind weak, any other a double
       r-comb, of kind comb.  A double comb is weakly separated, so the
       two kinds never meet; the weak pairs are listed first.
    """
    check_limit(q.n)  # phase 4 reads the relation table, so check before phase 1
    r = q.d - 2
    if r < 1:
        raise ValueError(f"membrane claims are at r = d-2 and need d >= 3, got d={q.d}")
    if check_combs and r % 2:
        raise ValueError(f"double combs need even d, got d={q.d}")
    claim = weak_even_no_comb(r) if check_combs else weak(r)
    report = membrane_census(q, flavor)
    report.expected_size = s_formula(q.n, r)
    if report.undecided is not None:
        return report
    deltas, poset = report.deltas, report.poset
    if report.sizes_seen != {report.expected_size}:
        report.violations.append(
            ScanViolation(
                KIND_SIZE,
                sizes=tuple(sorted(report.sizes_seen)),
                weights=tuple(
                    (deltas[i].label(), w) for i, w in enumerate(report.weights) if w
                ),
            )
        )

    clock = time.perf_counter
    started = clock()
    pairs, report.stats["pairs"] = _coexisting_pairs(
        poset, report.intervals, complement_table(q.n, claim)
    )
    found = [
        _replayed(report.base, deltas, poset, r, check_combs, u, v, witness)
        for u, v, witness in pairs
    ]
    found.sort(key=lambda violation: violation.kind == KIND_COMB)  # stable: (u, v) within a kind
    report.violations += found
    if check_combs:
        report.comb_free = all(violation.kind != KIND_COMB for violation in found)
    report.stats["pairs_s"] = clock() - started
    return report


def _check_lifespans(
    base: frozenset,
    pieces: Sequence[Fragment],
    fronts: Sequence[frozenset[frozenset[int]]],
    rears: Sequence[frozenset[frozenset[int]]],
) -> None:
    """Check that every tile is present on one interval of raising flips.

    pieces[i] has the front side fronts[i] and the rear side rears[i]; base is the
    front boundary.  A tile is born by the raising flip of the piece
    whose rear side holds it and dies by the one whose front side holds
    it; a tile of the front boundary is there from the start.  The
    precedence puts a tile's birth before its death, so when every tile
    is born at most once, dies at most once, is not born onto the front
    boundary and is present before it dies, its multiplicity on every
    membrane is 0 or 1, and every raising flip finds its front side
    present and its rear side absent.
    """
    born: dict[frozenset[int], int] = {}
    dies: dict[frozenset[int], int] = {}
    for i, piece in enumerate(pieces):
        for tile in rears[i]:
            if tile in born:
                raise MembraneInvariantError(
                    f"tile {tile_label(tile)} is born at both "
                    f"{pieces[born[tile]].label()} and {piece.label()}"
                )
            if tile in base:
                raise MembraneInvariantError(
                    f"front-boundary tile {tile_label(tile)} is born again at "
                    f"{piece.label()}: multiplicity 2"
                )
            born[tile] = i
        for tile in fronts[i]:
            if tile in dies:
                raise MembraneInvariantError(
                    f"tile {tile_label(tile)} dies at both "
                    f"{pieces[dies[tile]].label()} and {piece.label()}"
                )
            dies[tile] = i
    for tile, i in dies.items():
        if tile not in base and born.get(tile, i) == i:
            raise MembraneInvariantError(
                f"tile {tile_label(tile)} dies at {pieces[i].label()} without being "
                f"present before: multiplicity -1"
            )


def _net_changes(
    rear: Iterable[frozenset[int]], front: Iterable[frozenset[int]] = ()
) -> tuple[tuple[int, int], ...]:
    """Per vertex, the rear tiles holding it less the front tiles, as
    (vertex, change) pairs; zeros dropped.

    For a fragment's two sides, a raising flip's vertex multiplicity
    changes; with the lifespans checked, a vertex's multiplicity on a
    membrane is its front-boundary count, `_net_changes(base)`, plus
    these changes over the ideal.
    """
    net: dict[int, int] = {}
    for tile in rear:
        for v in tile:
            net[v] = net.get(v, 0) + 1
    for tile in front:
        for v in tile:
            net[v] = net.get(v, 0) - 1
    return tuple((v, k) for v, k in net.items() if k)


def _presence_intervals(
    poset: Poset,
    base: Iterable[tuple[int, int]],
    nets: Sequence[Iterable[tuple[int, int]]],
    budget: int = IDEAL_STATE_BUDGET,
) -> dict[int, tuple[int | None, int | None]] | str:
    """Per vertex ever present, the positions (a, b) of its presence interval.

    v lies on the membrane of ideal I iff a is in I (a None: always) and
    b is not (b None: never leaves).  Candidates come from the ideals of
    the subposet of fragments changing v's multiplicity (a tops the
    intersection of the present ones, b bottoms what none of them
    reaches), and the form is checked on each of those ideals; the first
    vertex where it fails turns the result into a reason string, and so
    does the first whose list of ideals passes the budget (bound here
    once, so that lowering the count's budget leaves this one alone).  With
    multiplicities additive over I and never negative, the form forces
    a below b, as the size weights need.  base and nets hold (vertex,
    change) pairs, as `_net_changes` gives them.
    """
    start = dict(base)
    changes: dict[int, list[tuple[int, int]]] = {v: [] for v in start}
    for pos, node in enumerate(poset.topo):
        for v, k in nets[node]:
            changes.setdefault(v, []).append((pos, k))
    down = poset.down
    out: dict[int, tuple[int | None, int | None]] = {}
    for v, steps in changes.items():
        span = 0
        for pos, _ in steps:
            span |= 1 << pos
        ideals = [(0, start.get(v, 0))]
        for pos, k in steps:
            need = down[pos] & span & ~(1 << pos)
            ideals += [(j | 1 << pos, m + k) for j, m in ideals if j & need == need]
            if len(ideals) > budget:
                return (
                    f"presence of vertex {set_notation(v)} needs more than {budget} "
                    f"ideals to check"
                )
        present = [j for j, m in ideals if m > 0]
        if not present:
            continue  # never on a membrane
        inside, reach = span, 0
        for j in present:
            inside &= j
            reach |= j
        a = inside.bit_length() - 1 if inside else None
        gone = span & ~reach
        b = (gone & -gone).bit_length() - 1 if gone else None
        if any(
            (m > 0) != ((a is None or j >> a & 1) and (b is None or not j >> b & 1))
            for j, m in ideals
        ):
            return (
                f"presence of vertex {set_notation(v)} is not one interval "
                f"of the ideal lattice"
            )
        out[v] = (a, b)
    return out


def _coexisting_pairs(
    poset: Poset,
    intervals: dict[int, tuple[int | None, int | None]],
    table: Sequence[int],
) -> tuple[list[tuple[int, int, int]], int]:
    """Pairs (u, v, witness) with v in table[u] that share a membrane.

    The witness is the least ideal holding both entry fragments; the
    pair shares a membrane iff neither exit fragment lies in it.  Also
    returns the number of pairs tested.
    """
    live = 0
    low: dict[int, int] = {}
    high: dict[int, int] = {}
    for v, (a, b) in intervals.items():
        live |= 1 << v
        low[v] = poset.down[a] if a is not None else 0
        high[v] = 1 << b if b is not None else 0
    found = []
    tested = 0
    for u in sorted(intervals):
        row = table[u] & live & ~((2 << u) - 1)
        while row:
            bit = row & -row
            row ^= bit
            v = bit.bit_length() - 1
            tested += 1
            witness = low[u] | low[v]
            if not witness & (high[u] | high[v]):
                found.append((u, v, witness))
    return found, tested


def _replayed(
    base: Membrane,
    deltas: Sequence[Fragment],
    poset: Poset,
    r: int,
    check_combs: bool,
    u: int,
    v: int,
    witness: int,
) -> ScanViolation:
    """The violation of pair (u, v), after replaying its witness ideal
    (a mask of topological positions).

    The membrane is rebuilt flip by flip and the pair judged with the
    plain predicates, independently of the tables and intervals: weak if
    weak r-separation rejects it, else comb if check_combs and it is a
    double r-comb.
    """
    try:
        verts = _replay(base, deltas, poset, witness).vertex_masks()
    except ValueError as exc:
        raise MembraneInvariantError(f"witness replay failed: {exc}") from exc
    if not weak(r).holds(u, v):
        kind = KIND_WEAK
    elif check_combs and is_double_r_comb(u, v, r):
        kind = KIND_COMB
    else:
        kind = None
    pair = f"{set_notation(u)} vs {set_notation(v)}"
    if u not in verts or v not in verts:
        raise MembraneInvariantError(f"witness of {pair} does not replay")
    if kind is None:
        raise MembraneInvariantError(f"witness of {pair} replays, but the pair breaks no claim")
    return ScanViolation(kind, (u, v), tuple(deltas[i].label() for i in poset.nodes(witness)))
