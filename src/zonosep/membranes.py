"""Fragmentation of a cubillage, w-membranes, e-membranes, and their flips.

Slicing every cube of a cubillage of Z(n, d) by the hyperplanes of
integer height (cardinality of the vertex sets) cuts it into d
*fragments*: the h-th fragment of C = (X | T) lies between the
cardinality levels |X| + h - 1 and |X| + h.  Fragment boundaries are
*tiles*, in two kinds: the H-tile of (C, j) is the horizontal section
with vertex sets X + A, |A| = j, and a V-tile is a one-slab slice of a
cube facet.  Tiles are identified by their vertex sets alone, which
determine the facet and the slab, so facet sharing is decided exactly.

The ordering of fragments (rear side of one meets the front side of
the next) is acyclic; its order ideals are in bijection with the
*w-membranes* of the cubillage.  A membrane is constructed by replay:
start with the front boundary of Z sliced into slabs and, for each
fragment of the ideal in topological order, swap its front side for
its rear side.  Every precondition of every swap is asserted, so a
defect in the lattice structure surfaces as a hard failure instead of
a silently wrong tile set.

For even d there is also the *enlarged* fragmentation: the two middle
slabs of every cube merge into one center piece, the middle horizontal
section disappearing inside it.  Ideals of the enlarged order give
*e-membranes*, exactly the w-membranes avoiding all middle H-tiles.
Scans over all e-membranes check the vertex systems for double
(d-2)-combs and weak separation violations.

Enumerations stream through the ideal lattice depth first, one raising
flip per step.  The scan keeps, per vertex, its multiplicity: the number
of membrane tiles containing it.  Each fragment's raising flip changes
those multiplicities by a fixed net amount (+1 per rear tile, -1 per
front tile, zeros dropped), precomputed once; a flip applies it, its
undo applies the negation, and only a vertex whose count crosses 0
touches the live vertex bitset and the violation counters.  Nothing is
recomputed from scratch per membrane or per tile, so exhaustive runs
over seven-figure ideal counts stay in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .cubillage import (
    Cube,
    Cubillage,
    FacetDescriptor,
    front_facets,
    rear_facets,
)
from .geometry import zonotope_sides
from .ground import elements, iter_elements, set_notation, submasks
from .posets import IdealCapExceeded, digraph_dot, scan_ideals, topological_order
from .separation import is_double_r_comb, is_weakly_r_separated
from .systems import (
    SCHEMA,
    SetSystem,
    complement_table,
    relation_table,
    s_formula,
    weak,
    weak_even,
    weak_even_no_comb,
)

H_TILE = "H"
V_TILE = "V"
FLAVOR_W = "W"
FLAVOR_E = "E"


@dataclass(frozen=True)
class Tile:
    """A facet piece of a fragment; identity is the vertex set.

    The kind is recoverable from the vertex set (an H-tile has one
    cardinality level, a V-tile two), so it rides along for display
    only.
    """

    kind: str
    verts: frozenset[int]

    def sorted_verts(self) -> tuple[int, ...]:
        return tuple(sorted(self.verts))

    def to_json(self) -> dict:
        return {"kind": self.kind, "verts": [elements(v) for v in self.sorted_verts()]}

    def label(self) -> str:
        inner = ",".join(set_notation(v) for v in self.sorted_verts())
        return f"{self.kind}[{inner}]"


def h_tile(cube: Cube, j: int) -> Tile | None:
    """Horizontal section of a cube at local height j; None when degenerate."""
    d = cube.d
    if not 1 <= j <= d - 1:
        return None
    verts = {cube.root | sub for sub in submasks(cube.type) if sub.bit_count() == j}
    return Tile(H_TILE, frozenset(verts))


def v_tile(facet: FacetDescriptor, slab: int) -> Tile | None:
    """One-slab slice of a facet: the vertex layers at sizes slab, slab+1."""
    base = facet.root.bit_count()
    k = slab - base
    if not 0 <= k <= facet.type.bit_count() - 1:
        return None
    verts = {
        facet.root | sub
        for sub in submasks(facet.type)
        if sub.bit_count() in (k, k + 1)
    }
    return Tile(V_TILE, frozenset(verts))


@dataclass(frozen=True)
class Fragment:
    """The h-th slab piece of a cube, between heights |X|+h-1 and |X|+h."""

    cube: Cube
    h: int

    def __post_init__(self) -> None:
        if not 1 <= self.h <= self.cube.d:
            raise ValueError(f"slab index {self.h} outside 1..{self.cube.d}")

    @property
    def slabs(self) -> tuple[int, ...]:
        return (self.h,)

    def label(self) -> str:
        return f"{self.cube.label()}#h{self.h}"

    def low_height(self) -> int:
        return self.cube.root.bit_count() + self.h - 1

    def eps_front(self) -> frozenset[Tile]:
        return _eps_side(self.cube, (self.h,), front=True)

    def eps_rear(self) -> frozenset[Tile]:
        return _eps_side(self.cube, (self.h,), front=False)


@dataclass(frozen=True)
class EnlargedFragment:
    """A fragment of the enlarged fragmentation: one slab, or the merged
    center covering the two middle slabs of a cube (even d only)."""

    cube: Cube
    slabs: tuple[int, ...]

    def __post_init__(self) -> None:
        d = self.cube.d
        if len(self.slabs) == 1:
            if not 1 <= self.slabs[0] <= d:
                raise ValueError(f"slab index {self.slabs[0]} outside 1..{d}")
        elif len(self.slabs) == 2:
            if d % 2:
                raise ValueError("center pieces need even cube dimension")
            if self.slabs != (d // 2, d // 2 + 1):
                raise ValueError(f"center must merge slabs {d // 2} and {d // 2 + 1}")
        else:
            raise ValueError("a fragment covers one or two slabs")

    @property
    def is_center(self) -> bool:
        return len(self.slabs) == 2

    @property
    def h(self) -> int:
        return self.slabs[0]

    def label(self) -> str:
        tag = "+".join(str(s) for s in self.slabs)
        return f"{self.cube.label()}#h{tag}"

    def low_height(self) -> int:
        return self.cube.root.bit_count() + self.slabs[0] - 1

    def eps_front(self) -> frozenset[Tile]:
        return _eps_side(self.cube, self.slabs, front=True)

    def eps_rear(self) -> frozenset[Tile]:
        return _eps_side(self.cube, self.slabs, front=False)


def _eps_side(cube: Cube, slabs: tuple[int, ...], front: bool) -> frozenset[Tile]:
    """Front or rear side of the piece of a cube covering the given slabs.

    V-tiles of the matching cube facets at every covered slab level,
    plus the floor section (front side) or ceiling section (rear side);
    interior sections between merged slabs belong to neither side.
    """
    facets = front_facets(cube) if front else rear_facets(cube)
    base = cube.root.bit_count()
    tiles: set[Tile] = set()
    for h in slabs:
        for facet in facets:
            tile = v_tile(facet, base + h - 1)
            if tile is not None:
                tiles.add(tile)
    cap_height = slabs[0] - 1 if front else slabs[-1]
    lid = h_tile(cube, cap_height)
    if lid is not None:
        tiles.add(lid)
    return frozenset(tiles)


def eps_front(delta: Fragment | EnlargedFragment) -> frozenset[Tile]:
    return delta.eps_front()


def eps_rear(delta: Fragment | EnlargedFragment) -> frozenset[Tile]:
    return delta.eps_rear()


def fragments(q: Cubillage) -> list[Fragment]:
    """All d * C(n, d) fragments, cubes in canonical order, slabs ascending."""
    return [Fragment(cube, h) for cube in q.cubes for h in range(1, q.d + 1)]


def enlarged_fragmentation(q: Cubillage) -> list[EnlargedFragment]:
    """Fragments with each cube's two middle slabs merged into a center."""
    if q.d % 2:
        raise ValueError("enlarged fragmentation needs even dimension")
    half = q.d // 2
    out = []
    for cube in q.cubes:
        for h in range(1, q.d + 1):
            if h == half:
                out.append(EnlargedFragment(cube, (half, half + 1)))
            elif h != half + 1:
                out.append(EnlargedFragment(cube, (h,)))
    return out


def _precedence(deltas: Sequence[Fragment | EnlargedFragment]) -> list[list[int]]:
    """Arcs i -> j where a rear tile of delta_i is a front tile of delta_j."""
    front_index: dict[frozenset[int], list[int]] = {}
    for j, delta in enumerate(deltas):
        for tile in delta.eps_front():
            front_index.setdefault(tile.verts, []).append(j)
    succs: list[list[int]] = [[] for _ in deltas]
    for i, delta in enumerate(deltas):
        seen: set[int] = set()
        for tile in delta.eps_rear():
            for j in front_index.get(tile.verts, ()):
                if j != i and j not in seen:
                    seen.add(j)
                    succs[i].append(j)
        succs[i].sort()
    return succs


def fragment_precedence(q: Cubillage) -> tuple[list[Fragment], list[list[int]]]:
    deltas = fragments(q)
    return deltas, _precedence(deltas)


def enlarged_precedence(q: Cubillage) -> tuple[list[EnlargedFragment], list[list[int]]]:
    deltas = enlarged_fragmentation(q)
    return deltas, _precedence(deltas)


def precedence_to_dot(
    deltas: Sequence[Fragment | EnlargedFragment],
    succs: Sequence[Sequence[int]],
    name: str = "fragments",
) -> str:
    return digraph_dot([delta.label() for delta in deltas], succs, name)


@dataclass(frozen=True)
class Membrane:
    """A tile set between the front and rear boundary, with the ideal of
    fragments behind it; flavor W for the plain fragmentation, E for the
    enlarged one."""

    n: int
    d: int
    flavor: str
    ideal: tuple
    tiles: frozenset[Tile]

    def vertex_masks(self) -> set[int]:
        verts: set[int] = set()
        for tile in self.tiles:
            verts.update(tile.verts)
        return verts

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "n": self.n,
            "d": self.d,
            "flavor": self.flavor,
            "ideal": [delta.label() for delta in self.ideal],
            "tiles": [t.to_json() for t in sorted(self.tiles, key=Tile.sorted_verts)],
            "vertices": [elements(v) for v in sorted(self.vertex_masks())],
        }


def membrane_vertices(m: Membrane) -> SetSystem:
    return SetSystem.from_masks(m.n, m.vertex_masks())


def _slice_boundary(facet_keys: Iterable[tuple[int, int]]) -> set[Tile]:
    tiles: set[Tile] = set()
    for root, typemask in facet_keys:
        base = root.bit_count()
        for slab in range(base, base + typemask.bit_count()):
            tile = v_tile(FacetDescriptor(root, typemask), slab)
            if tile is not None:
                tiles.add(tile)
    return tiles


def base_membrane(q: Cubillage, flavor: str = FLAVOR_W) -> Membrane:
    """The front boundary of Z(n, d), each facet cut into its slabs."""
    sides = zonotope_sides(q.n, q.d)
    return Membrane(
        n=q.n,
        d=q.d,
        flavor=flavor,
        ideal=(),
        tiles=frozenset(_slice_boundary(sides.front_facets)),
    )


def rear_boundary_tiles(q: Cubillage) -> frozenset[Tile]:
    sides = zonotope_sides(q.n, q.d)
    return frozenset(_slice_boundary(sides.rear_facets))


def raising_flip(m: Membrane, delta: Fragment | EnlargedFragment) -> Membrane:
    """Swap the front side of the fragment for its rear side."""
    if delta in m.ideal:
        raise ValueError(f"{delta.label()} already behind the membrane")
    front, rear = delta.eps_front(), delta.eps_rear()
    missing = front - m.tiles
    if missing:
        raise ValueError(
            f"raising flip at {delta.label()} blocked: missing "
            + ", ".join(sorted(t.label() for t in missing))
        )
    clashing = rear & m.tiles
    if clashing:
        raise ValueError(
            f"raising flip at {delta.label()} blocked: present "
            + ", ".join(sorted(t.label() for t in clashing))
        )
    return Membrane(
        n=m.n,
        d=m.d,
        flavor=m.flavor,
        ideal=m.ideal + (delta,),
        tiles=(m.tiles - front) | rear,
    )


def lowering_flip(m: Membrane, delta: Fragment | EnlargedFragment) -> Membrane:
    """Inverse of the raising flip at the same fragment."""
    if delta not in m.ideal:
        raise ValueError(f"{delta.label()} not behind the membrane")
    front, rear = delta.eps_front(), delta.eps_rear()
    if rear - m.tiles or front & m.tiles:
        raise ValueError(f"lowering flip at {delta.label()} blocked")
    remaining = tuple(x for x in m.ideal if x != delta)
    return Membrane(
        n=m.n,
        d=m.d,
        flavor=m.flavor,
        ideal=remaining,
        tiles=(m.tiles - rear) | front,
    )


def _check_ideal(
    deltas: Sequence[Fragment | EnlargedFragment],
    succs: Sequence[Sequence[int]],
    chosen: set[int],
) -> None:
    preds: list[list[int]] = [[] for _ in deltas]
    for i, out in enumerate(succs):
        for j in out:
            preds[j].append(i)
    for j in chosen:
        for i in preds[j]:
            if i not in chosen:
                raise ValueError(
                    f"not an ideal: {deltas[j].label()} lacks {deltas[i].label()}"
                )


def membrane_from_ideal(
    q: Cubillage,
    ideal: Iterable[Fragment | EnlargedFragment],
    flavor: str = FLAVOR_W,
) -> Membrane:
    """Replay one raising flip per ideal element, in topological order."""
    if flavor == FLAVOR_E:
        deltas, succs = enlarged_precedence(q)
    else:
        deltas, succs = fragment_precedence(q)
    index = {delta: i for i, delta in enumerate(deltas)}
    chosen = set()
    for delta in ideal:
        if delta not in index:
            raise ValueError(f"{delta.label()} is not a fragment of this cubillage")
        chosen.add(index[delta])
    _check_ideal(deltas, succs, chosen)
    order = topological_order(len(deltas), succs)
    m = base_membrane(q, flavor=flavor)
    for i in order:
        if i in chosen:
            m = raising_flip(m, deltas[i])
    return m


def w_membranes(q: Cubillage, cap: int | None = None) -> list[Membrane]:
    """All w-membranes, one per ideal of the fragment precedence."""
    deltas, succs = fragment_precedence(q)
    return _collect_membranes(q, deltas, succs, FLAVOR_W, cap)


def e_membranes(q: Cubillage, cap: int | None = None) -> list[Membrane]:
    """All e-membranes, one per ideal of the enlarged precedence."""
    deltas, succs = enlarged_precedence(q)
    return _collect_membranes(q, deltas, succs, FLAVOR_E, cap)


def _collect_membranes(
    q: Cubillage,
    deltas: Sequence[Fragment | EnlargedFragment],
    succs: Sequence[Sequence[int]],
    flavor: str,
    cap: int | None,
) -> list[Membrane]:
    tiles = set(base_membrane(q, flavor=flavor).tiles)
    stack: list[Fragment | EnlargedFragment] = []
    out: list[Membrane] = []

    def enter(i: int) -> None:
        delta = deltas[i]
        front, rear = delta.eps_front(), delta.eps_rear()
        if front - tiles or rear & tiles:
            raise AssertionError(f"illegal raising flip at {delta.label()}")
        tiles.difference_update(front)
        tiles.update(rear)
        stack.append(delta)

    def leave(i: int) -> None:
        delta = deltas[i]
        tiles.difference_update(delta.eps_rear())
        tiles.update(delta.eps_front())
        stack.pop()

    def visit(_ideal: tuple[int, ...]) -> None:
        out.append(
            Membrane(
                n=q.n,
                d=q.d,
                flavor=flavor,
                ideal=tuple(stack),
                tiles=frozenset(tiles),
            )
        )

    scan_ideals(len(deltas), succs, visit=visit, enter=enter, leave=leave, cap=cap)
    return out


def is_e_membrane(q: Cubillage, m: Membrane) -> bool:
    """No tile of the membrane is the middle section of a cube of Q."""
    if q.d % 2:
        raise ValueError("middle sections need even dimension")
    middle = {h_tile(cube, q.d // 2) for cube in q.cubes}
    return not any(tile in m.tiles for tile in middle if tile is not None)


def double_comb_scan(system: SetSystem, r: int) -> list[tuple[int, int]]:
    """All pairs of members forming a double r-comb, in canonical order."""
    members = system.members
    found = []
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if is_double_r_comb(members[i], members[j], r):
                found.append((members[i], members[j]))
    return found


@dataclass
class MembraneScanReport:
    """Streaming verification over every membrane of one cubillage."""

    n: int
    d: int
    flavor: str
    r: int
    expected_size: int
    membrane_count: int = 0
    capped: bool = False
    cap: int | None = None
    sizes_seen: set[int] = field(default_factory=set)
    violations: list[str] = field(default_factory=list)
    comb_free: bool | None = None

    @property
    def ok(self) -> bool:
        return not self.violations and not self.capped

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "n": self.n,
            "d": self.d,
            "flavor": self.flavor,
            "r": self.r,
            "expected_size": self.expected_size,
            "membranes": self.membrane_count,
            "capped": self.capped,
            "cap": self.cap,
            "sizes": sorted(self.sizes_seen),
            "violations": self.violations,
            "comb_free": self.comb_free,
        }


def _comb_rows(n: int, r: int) -> list[int]:
    """Row v: the sets forming a double r-comb with v.

    A double r-comb is weakly r-separated, so these are exactly the
    weak partners of v that WEAK_EVEN_NO_COMB(r) drops.
    """
    kept = relation_table(n, weak_even_no_comb(r))
    return [row ^ kept[v] for v, row in enumerate(relation_table(n, weak_even(r)))]


def scan_membranes(
    q: Cubillage,
    flavor: str = FLAVOR_W,
    r: int | None = None,
    cap: int | None = None,
    check_combs: bool = False,
    sample_every: int = 0,
    on_membrane: Callable[[tuple[int, ...], frozenset[int]], None] | None = None,
) -> MembraneScanReport:
    """Walk every membrane with incremental separation bookkeeping.

    Maintains, across raising and lowering flips, the multiplicity of
    every vertex, the live vertex set as a bitset, and the number of
    vertex pairs violating weak r-separation (and forming double
    r-combs when asked); each flip costs one step per vertex whose
    multiplicity it changes and each visited membrane O(1) to judge.
    A negative multiplicity is an internal error.  `on_membrane`
    receives the ideal and the vertex masks of each membrane.  With
    sample_every = k > 0, every k-th membrane is additionally
    re-checked from scratch against the incremental counters.
    """
    if flavor == FLAVOR_E:
        deltas, succs = enlarged_precedence(q)
    else:
        deltas, succs = fragment_precedence(q)
    if r is None:
        r = q.d - 2
    if r < 1:
        raise ValueError("separation order must be at least 1")
    report = MembraneScanReport(
        n=q.n,
        d=q.d,
        flavor=flavor,
        r=r,
        expected_size=s_formula(q.n, q.d - 2),
        cap=cap,
    )

    incompat = complement_table(q.n, weak(r))
    combs = _comb_rows(q.n, r) if check_combs else None

    # net multiplicity change of each vertex under the raising flip of
    # each fragment; the lowering flip applies the negation
    raising: list[tuple[tuple[int, int], ...]] = []
    lowering: list[tuple[tuple[int, int], ...]] = []
    for delta in deltas:
        net = _multiplicities(delta.eps_rear())
        for v, k in _multiplicities(delta.eps_front()).items():
            net[v] = net.get(v, 0) - k
        changes = tuple(sorted((v, k) for v, k in net.items() if k))
        raising.append(changes)
        lowering.append(tuple((v, -k) for v, k in changes))

    refcount = [0] * (1 << q.n)
    active = bad = comb = comb_hits = 0

    def flipper(table: Sequence[tuple[tuple[int, int], ...]]) -> Callable[[int], None]:
        """A callback applying the multiplicity changes table[i]; a vertex
        whose count crosses 0 joins or leaves the active bitset."""

        def flip(i: int) -> None:
            nonlocal active, bad, comb
            for v, k in table[i]:
                before = refcount[v]
                after = before + k
                if after < 0:
                    raise AssertionError(
                        f"vertex {set_notation(v)} has multiplicity {after}"
                    )
                refcount[v] = after
                if not before:
                    bad += (active & incompat[v]).bit_count()
                    if combs is not None:
                        comb += (active & combs[v]).bit_count()
                    active |= 1 << v
                elif not after:
                    active ^= 1 << v
                    bad -= (active & incompat[v]).bit_count()
                    if combs is not None:
                        comb -= (active & combs[v]).bit_count()

        return flip

    # the front boundary: every vertex count rises from 0
    base = _multiplicities(base_membrane(q, flavor=flavor).tiles)
    flipper([tuple(base.items())])(0)

    def visit(ideal: tuple[int, ...]) -> None:
        nonlocal comb_hits
        report.membrane_count += 1
        size = active.bit_count()
        report.sizes_seen.add(size)
        if size != report.expected_size:
            report.violations.append(
                f"ideal {[deltas[i].label() for i in ideal]}: {size} vertices"
            )
        if bad:
            report.violations.append(
                f"ideal {[deltas[i].label() for i in ideal]}: "
                f"{bad} weak separation violations"
            )
        if comb:
            comb_hits += 1
            report.violations.append(
                f"ideal {[deltas[i].label() for i in ideal]}: "
                f"{comb} double comb pairs"
            )
        if on_membrane is not None:
            on_membrane(ideal, frozenset(e - 1 for e in iter_elements(active)))
        if sample_every and report.membrane_count % sample_every == 0:
            _recheck(ideal)

    def _recheck(ideal: tuple[int, ...]) -> None:
        live = [v for v, c in enumerate(refcount) if c > 0]
        recount = sum(
            1
            for a in range(len(live))
            for b in range(a + 1, len(live))
            if not is_weakly_r_separated(live[a], live[b], r)
        )
        if recount != bad:
            raise AssertionError(
                f"incremental bad-pair counter drifted at ideal {ideal}"
            )
        mask = 0
        for v in live:
            mask |= 1 << v
        if mask != active:
            raise AssertionError(f"active bitset drifted at ideal {ideal}")

    try:
        scan_ideals(
            len(deltas),
            succs,
            visit=visit,
            enter=flipper(raising),
            leave=flipper(lowering),
            cap=cap,
        )
    except IdealCapExceeded:
        report.capped = True
    if combs is not None:
        report.comb_free = not comb_hits
    return report


def _multiplicities(tiles: Iterable[Tile]) -> dict[int, int]:
    """How many of the tiles contain each vertex."""
    counts: dict[int, int] = {}
    for tile in tiles:
        for v in tile.verts:
            counts[v] = counts.get(v, 0) + 1
    return counts


def property_P_scan(q: Cubillage, cap: int | None = None) -> MembraneScanReport:
    """Scan all e-membranes for double (d-2)-combs and weak separation.

    A nonempty violation list would exhibit an e-membrane breaking
    either the comb-freeness statement or the separation conjecture.
    """
    if q.d % 2:
        raise ValueError("the scan runs over e-membranes, so dimension must be even")
    return scan_membranes(
        q,
        flavor=FLAVOR_E,
        r=q.d - 2,
        cap=cap,
        check_combs=True,
        sample_every=997,
    )
