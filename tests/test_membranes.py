"""Fragmentation, w-membranes, e-membranes, flips, and the separation scans."""

from itertools import combinations
from math import comb

from zonosep.cubillage import (
    Cube,
    apex_vertices,
    from_inversions,
    front_facets,
    precedence_digraph,
    rear_facets,
    standard_cubillage,
)
from zonosep.ground import mask_of, submasks
import zonosep.membranes as mb
import zonosep.posets as posets
from zonosep.membranes import (
    FLAVOR_E,
    FLAVOR_S,
    FLAVOR_W,
    Fragment,
    Membrane,
    base_membrane,
    fragment_precedence,
    h_tile,
    membrane_census,
    membrane_from_ideal,
    raising_flip,
    rear_boundary_tiles,
    scan_membranes,
    tile_label,
    v_tile,
)
from zonosep.posets import digraph_dot
from zonosep.separation import is_double_r_comb, is_weakly_r_separated
from zonosep.systems import RELATION_TABLE_CAP, s_formula, weak

import pytest

from oracles import (
    bruhat_order,
    count_ideals_bfs,
    e_membranes,
    front_rear_vertices,
    is_e_membrane,
    membrane_vertices,
    pairwise_fragment_precedence,
    raising_flip_outcomes,
    s_membranes,
    scan_record,
    w_membranes,
)


def m(*elems: int) -> int:
    return mask_of(elems, 8)


def test_tile_identity_determines_shape() -> None:
    # the vertex set of any tile pins down its kind and its geometry:
    # H-tiles live on one cardinality level, V-tiles on two, and root,
    # type, and slab are recovered by intersection, union, and min size
    seen: dict[frozenset, tuple] = {}
    for n, d in [(4, 3), (5, 4)]:
        q = standard_cubillage(n, d)
        for fr in fragment_precedence(q)[0]:
            for tile in fr.eps_front() | fr.eps_rear():
                sizes = {v.bit_count() for v in tile}
                kind = tile_label(tile)[0]
                assert kind == ("H" if len(sizes) == 1 else "V")
                meet = union = next(iter(tile))
                for v in tile:
                    meet &= v
                    union |= v
                shape = (kind, meet, union, min(sizes))
                if tile in seen:
                    assert seen[tile] == shape
                seen[tile] = shape
    shapes = list(seen.values())
    assert len(set(shapes)) == len(shapes)


def test_fragment_counts_and_validation() -> None:
    q = standard_cubillage(5, 3)
    frs = fragment_precedence(q)[0]
    assert len(frs) == 3 * 10
    with pytest.raises(ValueError):
        Fragment(q.cubes[0], 0)
    with pytest.raises(ValueError):
        Fragment(q.cubes[0], 4)
    with pytest.raises(ValueError, match="unknown flavor 's'"):
        fragment_precedence(q, "s")


def test_bottom_fragment_has_no_floor() -> None:
    # the floor of the first slab degenerates to the root point
    c = Cube(0, m(1, 2, 3))
    fr = Fragment(c, 1)
    assert all(tile_label(tile)[0] == "V" for tile in fr.eps_front())
    assert any(tile_label(tile)[0] == "H" for tile in fr.eps_rear())
    top = Fragment(c, 3)
    assert all(tile_label(tile)[0] == "V" for tile in top.eps_rear())


def test_eps_sides_partition_fragment_boundary() -> None:
    for n, d in [(4, 2), (4, 3), (5, 4), (5, 5)]:
        q = standard_cubillage(n, d)
        for fr in fragment_precedence(q)[0]:
            front, rear = fr.eps_front(), fr.eps_rear()
            assert not front & rear
            direct = set()
            base = fr.cube.root.bit_count()
            for facet in front_facets(fr.cube) + rear_facets(fr.cube):
                tile = v_tile(facet, base + fr.h - 1)
                if tile is not None:
                    direct.add(tile)
            for j in (fr.h - 1, fr.h):
                tile = h_tile(fr.cube, j)
                if tile is not None:
                    direct.add(tile)
            assert front | rear == direct


def test_degenerate_tiles_are_none() -> None:
    c = Cube(0, m(1, 2, 3))
    assert h_tile(c, 0) is None
    assert h_tile(c, 3) is None
    assert tile_label(h_tile(c, 2)) == "H[{1,2},{1,3},{2,3}]"
    facet = front_facets(c)[0]
    assert v_tile(facet, 5) is None
    assert tile_label(v_tile(Cube(0, m(2, 3)), 1)) == "V[{2},{3},{2,3}]"


def test_fragment_precedence_single_cube_chain() -> None:
    q = standard_cubillage(3, 3)
    deltas, succs = fragment_precedence(q)
    assert [fr.h for fr in deltas] == [1, 2, 3]
    assert succs == [[1], [2], []]


def _low_height(fr: Fragment) -> int:
    """The height of a fragment's floor: |X| + h - 1."""
    return fr.cube.root.bit_count() + fr.h - 1


def test_precedence_heights_never_decrease() -> None:
    for n, d in [(4, 3), (5, 4)]:
        q = standard_cubillage(n, d)
        deltas, succs = fragment_precedence(q)
        for i, out in enumerate(succs):
            for j in out:
                assert _low_height(deltas[i]) <= _low_height(deltas[j])


def test_base_membrane_is_front_boundary() -> None:
    q = standard_cubillage(4, 3)
    base = base_membrane(q)
    front, rear, _rim = front_rear_vertices(4, 3)
    assert membrane_vertices(base).members == front.members

    full = membrane_from_ideal(q, fragment_precedence(q)[0])
    assert full.tiles == rear_boundary_tiles(q)
    assert membrane_vertices(full).members == rear.members


def test_single_slab_fragment_has_one_encoding() -> None:
    # top == h and top None both name the one slab h
    q = standard_cubillage(4, 2)
    c = q.cubes[0]
    assert Fragment(c, 1, 1) == Fragment(c, 1) == fragment_precedence(q)[0][0]
    assert hash(Fragment(c, 1, 1)) == hash(Fragment(c, 1))
    assert Fragment(c, 1, 1).label() == "{}|{1,2}#h1"
    assert membrane_from_ideal(q, [Fragment(c, 1, 1)]) == membrane_from_ideal(q, [Fragment(c, 1)])


def test_membrane_from_ideal_rejects_bad_input() -> None:
    q = standard_cubillage(3, 3)
    frs = fragment_precedence(q)[0]
    with pytest.raises(ValueError, match="not an ideal"):
        membrane_from_ideal(q, [frs[2]])
    foreign = Fragment(Cube(0, m(1, 2)), 1)
    with pytest.raises(ValueError, match="not a fragment"):
        membrane_from_ideal(q, [foreign])


def test_w_membrane_counts_match_ideal_oracle() -> None:
    expected = {(3, 3): 4, (4, 3): 30, (4, 4): 5, (5, 3): 496, (5, 4): 138}
    for (n, d), count in expected.items():
        q = standard_cubillage(n, d)
        ms = w_membranes(q)
        assert len(ms) == count, (n, d)
        deltas, succs = fragment_precedence(q)
        assert count_ideals_bfs(len(deltas), succs) == count
        assert len({mem.tiles for mem in ms}) == count


def test_w_membranes_separation_odd_d() -> None:
    for n, d in [(4, 3), (5, 3), (5, 5)]:
        q = standard_cubillage(n, d)
        for mem in w_membranes(q):
            system = membrane_vertices(mem)
            assert len(system) == s_formula(n, d - 2)
            members = system.members
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    assert is_weakly_r_separated(members[i], members[j], d - 2)


def test_even_d_vertex_count_is_not_invariant() -> None:
    # the membrane through both middle slabs of Z(4,4) picks up an extra
    # vertex, which is exactly why the count theorem needs odd dimension
    q = standard_cubillage(4, 4)
    sizes = sorted(len(mem.vertex_masks()) for mem in w_membranes(q))
    assert sizes == [15, 15, 15, 15, 16]


def test_raising_and_lowering_flips_invert() -> None:
    q = standard_cubillage(4, 3)
    deltas, _succs = fragment_precedence(q)
    base = base_membrane(q)
    picked = [fr for fr in deltas if _low_height(fr) == 0][0]
    raised = raising_flip(base, picked)
    assert raised.ideal == (picked,)
    # swapping the rear side back for the front side restores the base
    assert (raised.tiles - picked.eps_rear()) | picked.eps_front() == base.tiles
    with pytest.raises(ValueError, match="already behind"):
        raising_flip(raised, picked)
    blocked = [fr for fr in deltas if _low_height(fr) >= 2][0]
    with pytest.raises(ValueError, match="blocked"):
        raising_flip(base, blocked)


def test_a_raised_fragment_is_refused_in_one_lookup(monkeypatch) -> None:
    # a walk through every fragment of Z(5,3), front to rear: the tiles
    # alone admit each flip, so none compares the fragment with those
    # raised before it (30 fragments, 435 comparisons that way)
    q = standard_cubillage(5, 3)
    deltas, succs = fragment_precedence(q)
    compared = []
    equal = Fragment.__eq__
    monkeypatch.setattr(Fragment, "__eq__", lambda a, b: compared.append(a) or equal(a, b))
    walk = [base_membrane(q)]
    for i in posets.topological_order(len(deltas), succs):
        walk.append(raising_flip(walk[-1], deltas[i]))
    assert len(compared) <= len(deltas)
    monkeypatch.undo()
    assert walk[-1].tiles == rear_boundary_tiles(q)
    assert walk[-1].ideal == tuple(deltas[i] for i in posets.topological_order(len(deltas), succs))
    # every fragment behind a membrane of the walk is refused as before,
    # also when it is an equal copy rather than the same object
    # and the next one is not
    for mem, after in zip(walk, walk[1:] + [None]):
        for delta in mem.ideal:
            for again in (delta, Fragment(delta.cube, delta.h, delta.top)):
                with pytest.raises(ValueError) as refused:
                    raising_flip(mem, again)
                assert str(refused.value) == f"{delta.label()} already behind the membrane"
        if after is not None:
            assert after.ideal[-1] not in mem.ideal


def _raised_or_none(mem: Membrane, delta: Fragment):
    try:
        return raising_flip(mem, delta)
    except ValueError:
        return None


def test_two_flips_from_one_membrane_keep_their_own_ideals() -> None:
    # the first membrane of Z(4,3) past the base with two fragments raisable
    # in either order, raised flip by flip
    q = standard_cubillage(4, 3)
    deltas = fragment_precedence(q)[0]
    mem, first, second = next(
        (mem, x, y)
        for mem in w_membranes(q)
        if mem.ideal
        for x, y in combinations(deltas, 2)
        if _raised_or_none(mem, x) and _raised_or_none(mem, y)
    )
    base = base_membrane(q)
    for delta in mem.ideal:
        base = raising_flip(base, delta)
    a = raising_flip(base, first)
    b = raising_flip(base, second)  # the second flip from base
    assert (a.ideal, b.ideal) == (base.ideal + (first,), base.ideal + (second,))
    assert second not in a.ideal and first not in b.ideal
    assert first not in base.ideal and second not in base.ideal
    ab = raising_flip(a, second)
    ba = raising_flip(b, first)
    assert ab.tiles == ba.tiles and set(ab.ideal) == set(ba.ideal)
    for mem, delta in ((a, first), (b, second), (ab, first), (ab, second), (ba, first)):
        with pytest.raises(ValueError) as refused:
            raising_flip(mem, delta)
        assert str(refused.value) == f"{delta.label()} already behind the membrane"


@pytest.mark.parametrize("anti", [False, True], ids=["standard", "anti"])
@pytest.mark.parametrize(
    "n, d, flavor, walk",
    [(4, 3, FLAVOR_W, w_membranes), (5, 3, FLAVOR_W, w_membranes),
     (4, 4, FLAVOR_E, e_membranes), (5, 4, FLAVOR_E, e_membranes)],
)
def test_every_flip_from_every_membrane_is_judged_by_its_tiles(n, d, flavor, walk, anti) -> None:
    # any ideal, not one walk: from every membrane, a fragment behind it is
    # refused as already behind, one with every predecessor behind is raised,
    # and any other is refused as blocked
    q = standard_cubillage(n, d, anti)
    counts, wrong = raising_flip_outcomes(q, flavor, walk(q))
    assert wrong == []
    assert min(counts.values()) > 0


def test_membranes_reachable_by_raising_flips() -> None:
    q = standard_cubillage(4, 3)
    for mem in w_membranes(q):
        current = base_membrane(q)
        for delta in mem.ideal:
            current = raising_flip(current, delta)
        assert current.tiles == mem.tiles
        assert len(current.ideal) == len(mem.ideal)


def test_flip_vertex_effect_in_odd_d() -> None:
    # only the middle slab changes the vertex set, swapping apexes
    for n, d in [(3, 3), (4, 3)]:
        q = standard_cubillage(n, d)
        for mem in w_membranes(q):
            for delta in _flippable(q, mem):
                before = mem.vertex_masks()
                after = raising_flip(mem, delta).vertex_masks()
                t, h = apex_vertices(delta.cube)
                if delta.h == (d + 1) // 2:
                    assert after == (before - {t}) | {h}
                    assert t not in after and h in after
                else:
                    assert after == before


def _flippable(q, mem: Membrane):
    out = []
    for fr in fragment_precedence(q)[0]:
        if fr in mem.ideal:
            continue
        if fr.eps_front() <= mem.tiles and not (fr.eps_rear() & mem.tiles):
            out.append(fr)
    return out


def test_lattice_laws_meet_join() -> None:
    for n, d in [(3, 3), (4, 3)]:
        q = standard_cubillage(n, d)
        ms = w_membranes(q)
        by_ideal = {frozenset(mem.ideal): mem for mem in ms}
        for a, b in combinations(ms, 2):
            ia, ib = frozenset(a.ideal), frozenset(b.ideal)
            meet = by_ideal[ia & ib]
            join = by_ideal[ia | ib]
            assert meet.tiles <= a.tiles | b.tiles
            assert join.tiles <= a.tiles | b.tiles


def test_enlarged_fragmentation_z44() -> None:
    q = standard_cubillage(4, 4)
    en = fragment_precedence(q, FLAVOR_E)[0]
    assert [delta.label() for delta in en] == [
        "{}|{1,2,3,4}#h1",
        "{}|{1,2,3,4}#h2+3",
        "{}|{1,2,3,4}#h4",
    ]
    center = en[1]
    assert center == Fragment(q.cubes[0], 2, 3)
    assert center.slabs == (2, 3) and en[0].slabs == (1,)
    # the middle section is interior to the center: on neither side
    middle = h_tile(q.cubes[0], 2)
    assert middle not in center.eps_front()
    assert middle not in center.eps_rear()

    with pytest.raises(ValueError):
        fragment_precedence(standard_cubillage(4, 3), FLAVOR_E)
    for h, top in ((3, 2), (4, 5)):
        with pytest.raises(ValueError, match=f"slabs {h}..{top} outside 1..4"):
            Fragment(q.cubes[0], h, top)


@pytest.mark.parametrize("anti", [False, True], ids=["standard", "anti"])
def test_fragment_precedence_matches_pairwise_oracle(anti) -> None:
    for n in range(2, 7):
        for d in range(2, n + 1):
            q = standard_cubillage(n, d, anti)
            for flavor in (FLAVOR_W, FLAVOR_S, FLAVOR_E)[: 3 - d % 2]:
                deltas, succs = fragment_precedence(q, flavor)
                assert succs == pairwise_fragment_precedence(deltas), (n, d, flavor)
            # an uncut cube's sides are its facets, so S orders cubes as cubes do
            assert fragment_precedence(q, FLAVOR_S)[1] == precedence_digraph(q.cubes)


def test_census_keeps_its_fragments_in_topological_order() -> None:
    # the census indexes everything by position, so its fragments are the
    # precedence's own, and every arc runs from a lower position to a higher
    for n in range(2, 6):
        for d in range(2, n + 1):
            for u in bruhat_order(n, d):
                q = from_inversions(n, d, u)
                for flavor in (FLAVOR_W, FLAVOR_S, FLAVOR_E)[: 3 - d % 2]:
                    deltas, succs = fragment_precedence(q, flavor)
                    census = membrane_census(q, flavor)
                    assert sorted(census.deltas, key=deltas.index) == deltas
                    position = {delta: pos for pos, delta in enumerate(census.deltas)}
                    assert all(
                        position[deltas[i]] < position[deltas[j]]
                        for i, out in enumerate(succs)
                        for j in out
                    ), (n, d, u, flavor)


@pytest.mark.parametrize("anti", [False, True], ids=["standard", "anti"])
@pytest.mark.parametrize("n, d", [(n, d) for n in range(3, 7) for d in range(2, n + 1)])
def test_s_census_matches_the_walker(n, d, anti) -> None:
    # the census over uncut cubes sees what the facet walk sees; the
    # command line prints no s sizes, so the walker test there checks counts only
    q = standard_cubillage(n, d, anti)
    walked = s_membranes(q)
    census = membrane_census(q, FLAVOR_S)
    assert census.undecided is None
    assert census.membrane_count == len(walked)
    assert census.sizes_seen == {len(mem.vertex_set()) for mem in walked} == {s_formula(n, d - 2)}


S_COUNTS = {
    (4, 2): 8, (6, 3): 66, (6, 4): 32, (7, 4): 352, (8, 3): 2431, (8, 4): 9304, (9, 3): 21760,
}


@pytest.mark.parametrize("anti", [False, True], ids=["standard", "anti"])
def test_s_census_counts(anti) -> None:
    for (n, d), count in S_COUNTS.items():
        census = membrane_census(standard_cubillage(n, d, anti), FLAVOR_S)
        assert (census.membrane_count, census.sizes_seen) == (count, {s_formula(n, d - 2)}), (n, d)


def test_e_membrane_from_plain_fragments() -> None:
    # the slabs outside the middle are the same fragments in both flavors
    q = standard_cubillage(4, 4)
    h1, h2, _h3, h4 = fragment_precedence(q)[0]
    center = Fragment(q.cubes[0], 2, 3)
    low = membrane_from_ideal(q, [h1], FLAVOR_E)
    assert low.flavor == FLAVOR_E and is_e_membrane(q, low)
    full = membrane_from_ideal(q, [h1, center, h4], FLAVOR_E)
    assert full.tiles == rear_boundary_tiles(q)
    with pytest.raises(ValueError, match="not a fragment"):
        membrane_from_ideal(q, [h1, h2], FLAVOR_E)


def test_e_membranes_are_middle_avoiding_w_membranes() -> None:
    for n, d in [(4, 4), (5, 4)]:
        q = standard_cubillage(n, d)
        ws = w_membranes(q)
        es = e_membranes(q)
        assert {mem.tiles for mem in es} == {
            mem.tiles for mem in ws if is_e_membrane(q, mem)
        }
        # equivalent formulation: at most one apex of each cube is met
        for mem in ws:
            verts = mem.vertex_masks()
            apex_count_ok = all(
                sum(1 for v in apex_vertices(c) if v in verts) <= 1 for c in q.cubes
            )
            assert apex_count_ok == is_e_membrane(q, mem)
    assert len(e_membranes(standard_cubillage(4, 4))) == 4
    assert len(e_membranes(standard_cubillage(5, 4))) == 50


def test_e_flip_swaps_apexes() -> None:
    q = standard_cubillage(4, 4)
    deltas, _succs = fragment_precedence(q, FLAVOR_E)
    first, center = deltas[0], deltas[1]
    mem = raising_flip(base_membrane(q, flavor="E"), first)
    before = mem.vertex_masks()
    after = raising_flip(mem, center).vertex_masks()
    t, h = apex_vertices(q.cubes[0])
    assert t == m(1, 3) and h == m(2, 4)
    assert after == (before - {t}) | {h}


def test_comb_membrane_through_both_middle_slabs() -> None:
    # the w-membrane between the middle sections of Z(4,4) carries the
    # comb pair {1,3},{2,4}; equal cardinality keeps it weakly 2-separated
    q = standard_cubillage(4, 4)
    frs = fragment_precedence(q)[0]
    mem = membrane_from_ideal(q, [fr for fr in frs if fr.h <= 2])
    assert not is_e_membrane(q, mem)
    system = membrane_vertices(mem)
    assert m(1, 3) in system and m(2, 4) in system
    combs = [(a, b) for a, b in combinations(system.members, 2) if is_double_r_comb(a, b, 2)]
    assert combs == [(m(1, 3), m(2, 4))]
    members = system.members
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            assert is_weakly_r_separated(members[i], members[j], 2)


def test_property_p_scan_reports() -> None:
    for n, d, count in [(4, 4, 4), (5, 4, 50)]:
        rep = scan_membranes(standard_cubillage(n, d), FLAVOR_E, check_combs=True)
        assert rep.ok and rep.comb_free
        assert rep.membrane_count == count
        assert rep.sizes_seen == {s_formula(n, 2)}
        blob = rep.to_json()
        assert blob["violations"] == []
    with pytest.raises(ValueError):
        scan_membranes(standard_cubillage(4, 3), FLAVOR_E, check_combs=True)


@pytest.mark.parametrize("flavor", [FLAVOR_W, FLAVOR_E, FLAVOR_S])
def test_scans_below_d3_are_refused(flavor) -> None:
    # the claims are at r = d - 2 >= 1; a census of Z(4,2) is fine
    q = standard_cubillage(4, 2)
    assert membrane_census(q, flavor).ok
    refusal = r"^membrane claims are at r = d-2 and need d >= 3, got d=2$"
    for check_combs in (False, True):
        with pytest.raises(ValueError, match=refusal):
            scan_membranes(q, flavor, check_combs)


def test_property_p_scan_z64_both_cubillages() -> None:
    for anti in (False, True):
        rep = scan_membranes(standard_cubillage(6, 4, anti), FLAVOR_E, check_combs=True)
        assert rep.ok and rep.comb_free is True
        assert rep.membrane_count == 3256
        assert rep.sizes_seen == {42} == {s_formula(6, 2)}
        assert rep.violations == []


@pytest.mark.parametrize("anti", [False, True], ids=["standard", "anti"])
def test_property_p_scan_z74(anti):
    rep = scan_membranes(standard_cubillage(7, 4, anti), FLAVOR_E, check_combs=True)
    assert not rep.capped
    assert rep.membrane_count == 1_575_598
    assert rep.sizes_seen == {64} == {s_formula(7, 2)}
    assert rep.violations == []
    assert rep.comb_free is True
    assert rep.ok


@pytest.mark.parametrize("anti", [False, True], ids=["standard", "anti"])
def test_membrane_theorem_z83(anti):
    # beyond any walk: 242,687,960 w-membranes, each of size s(8,1) = 37
    rep = scan_membranes(standard_cubillage(8, 3, anti))
    assert rep.membrane_count == 242_687_960
    assert rep.sizes_seen == {37} == {s_formula(8, 1)}
    assert rep.violations == [] and rep.ok


@pytest.mark.parametrize("anti", [False, True], ids=["standard", "anti"])
def test_property_p_scan_z84(anti):
    rep = scan_membranes(standard_cubillage(8, 4, anti), FLAVOR_E, check_combs=True)
    assert rep.membrane_count == 8_955_302_494
    assert rep.sizes_seen == {93} == {s_formula(8, 2)}
    assert rep.violations == [] and rep.comb_free is True and rep.ok


@pytest.mark.parametrize("anti", [False, True], ids=["standard", "anti"])
def test_property_p_scan_z94(anti):
    # beyond any walk: ~21,000 memo states, far inside the count's budget
    rep = scan_membranes(standard_cubillage(9, 4, anti), FLAVOR_E, check_combs=True)
    assert rep.membrane_count == 900_508_869_423_234
    assert rep.sizes_seen == {130} == {s_formula(9, 2)}
    assert rep.violations == [] and rep.comb_free is True and rep.ok


def test_scan_cap_reports_skip(monkeypatch) -> None:
    # a count past its memo budget leaves the scan undecided, never PASS
    monkeypatch.setattr(posets, "IDEAL_STATE_BUDGET", 50)
    rep = scan_membranes(standard_cubillage(5, 3))
    assert rep.capped and not rep.ok
    assert rep.undecided == "ideal count's memo exceeded the cap of 50"
    assert rep.violations == [] and rep.sizes_seen == set()
    assert rep.to_json()["capped"] is True


def test_scan_without_one_presence_interval_is_undecided(monkeypatch) -> None:
    # on the chain 0 < 1 < 2 a vertex leaving at 0 and returning at 1 is
    # present on two intervals of the ideal lattice
    chain = posets.Poset(3, [[1], [2], []])
    v = m(1)
    assert mb._presence_intervals(chain, [(v, 1)], [[(v, -1)], [], []]) == {v: (None, 0)}
    assert mb._presence_intervals(chain, [], [[], [(v, 1)], [(v, -1)]]) == {v: (1, 2)}
    reason = mb._presence_intervals(chain, [(v, 1)], [[(v, -1)], [(v, 1)], []])
    assert reason == "presence of vertex {1} is not one interval of the ideal lattice"
    # such an instance is reported undecided, never as a pass
    monkeypatch.setattr(mb, "_presence_intervals", lambda *args: reason)
    rep = scan_membranes(standard_cubillage(5, 3))
    assert rep.capped and not rep.ok
    assert rep.undecided == reason
    assert rep.to_json()["undecided"] == reason


def test_membrane_json_and_dot() -> None:
    q = standard_cubillage(3, 3)
    mem = w_membranes(q)[2]
    assert mem.flavor == "W"
    assert [delta.label() for delta in mem.ideal] == ["{}|{1,2,3}#h1", "{}|{1,2,3}#h2"]
    assert all(tile_label(tile)[:2] in ("H[", "V[") for tile in mem.tiles)
    deltas, succs = fragment_precedence(q)
    dot = digraph_dot([delta.label() for delta in deltas], succs, "fragments")
    assert dot.startswith("digraph fragments {")
    assert dot.count("->") == 2


MEMO_SWEEPS = [
    (5, 3, FLAVOR_W, False),
    (6, 3, FLAVOR_W, False),
    (6, 4, FLAVOR_W, False),
    (6, 4, FLAVOR_E, True),
]


@pytest.mark.parametrize(
    "n, d, flavor, check_combs", MEMO_SWEEPS, ids=[f"z{n}{d}-{f}" for n, d, f, _ in MEMO_SWEEPS]
)
def test_cube_memo_changes_no_scan(n, d, flavor, check_combs) -> None:
    # every cubillage of Z(n, d), scanned with a memo cleared before each,
    # then with the pieces of every flavor of every cubillage held, in
    # B(n, d) order and in reverse: the same records
    qs = [from_inversions(n, d, u) for u in bruhat_order(n, d)]
    cold = []
    for q in qs:
        mb._cube_pieces.cache_clear()
        report = scan_membranes(q, flavor, check_combs)
        assert (report.stats["cubes_cut"], report.stats["cubes_reused"]) == (comb(n, d), 0)
        cold.append(scan_record(report))
    for q in qs:
        for other in (FLAVOR_W, FLAVOR_S, FLAVOR_E)[: 3 - d % 2]:
            fragment_precedence(q, other)
    for order, want in ((qs, cold), (qs[::-1], cold[::-1])):
        reports = [scan_membranes(q, flavor, check_combs) for q in order]
        assert all(report.stats["cubes_reused"] == comb(n, d) for report in reports)
        assert [scan_record(report) for report in reports] == want


def test_cube_memo_holds_its_bound() -> None:
    # a cubillage at the relation-table cap fits, so no census evicts its own cubes
    assert mb.CUBE_MEMO_SIZE >= comb(RELATION_TABLE_CAP, RELATION_TABLE_CAP // 2)
    n, d = 9, 3
    full = (1 << n) - 1
    cubes = [
        Cube(root, mask_of(t, n))
        for t in combinations(range(1, n + 1), d)
        for root in submasks(full ^ mask_of(t, n))
    ]
    assert len(cubes) > mb.CUBE_MEMO_SIZE
    runs = mb._runs(d, FLAVOR_W)
    mb._cube_pieces.cache_clear()
    try:
        for cube in cubes:
            mb._cube_pieces(cube, runs)
            assert mb._cube_pieces.cache_info().currsize <= mb.CUBE_MEMO_SIZE
        assert mb._cube_pieces.cache_info().currsize == mb.CUBE_MEMO_SIZE
        # the least recently cut went first, the latest are kept
        misses = mb._cube_pieces.cache_info().misses
        mb._cube_pieces(cubes[-1], runs)
        assert mb._cube_pieces.cache_info().misses == misses
        mb._cube_pieces(cubes[0], runs)
        assert mb._cube_pieces.cache_info().misses == misses + 1
    finally:
        mb._cube_pieces.cache_clear()
