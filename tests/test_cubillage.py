"""Cubes, cubillages from inversion sets, validation, bead threads, cube-level membranes."""

from itertools import combinations

import zonosep.cubillage as cb
from zonosep.cubillage import (
    Cube,
    Cubillage,
    all_cubes,
    apex_vertices,
    bead_thread_graph,
    from_inversions,
    front_facets,
    gamma_graph,
    inversions,
    precedence_digraph,
    rear_facets,
    standard_cubillage,
    validate_cubillage,
)
from zonosep.geometry import Face, zonotope_sides
from zonosep.ground import mask_of, set_notation, submasks
from zonosep.posets import digraph_dot, is_acyclic
from zonosep.separation import is_strongly_r_separated
from zonosep.systems import SetSystem, check_pairwise, s_formula, strong

import pytest

from oracles import (
    bruhat_order,
    cubillage_from_collection,
    immediately_precedes,
    inversion_chain_order,
    reference_apex_vertices,
    reference_cube_facets,
    reference_tiling_problems,
    s_membranes,
    standard_root,
    transitive_closure,
)


def m(*elems: int) -> int:
    return mask_of(elems, 8)


def cube(root: tuple[int, ...], typ: tuple[int, ...]) -> Cube:
    return Cube(m(*root), m(*typ))


def sided_facets(c: Cube) -> list[tuple[tuple[int, int], str]]:
    """Each facet of a cube as a (root, type) pair with its side."""
    return [((f.root, f.type), "front") for f in front_facets(c)] + [
        ((f.root, f.type), "rear") for f in rear_facets(c)
    ]


def test_cube_basics() -> None:
    c = cube((), (1, 2))
    assert set(SetSystem(4, c.vertices()).members) == {0, m(1), m(2), m(1, 2)}
    assert apex_vertices(c) == (m(1), m(2))

    # rhombus facet sides: the lower path is the front
    sides = dict(sided_facets(c))
    assert sides[(0, m(1))] == "front"
    assert sides[(m(1), m(2))] == "front"
    assert sides[(0, m(2))] == "rear"
    assert sides[(m(2), m(1))] == "rear"

    with pytest.raises(ValueError):
        Cube(m(1), m(1, 2))
    with pytest.raises(ValueError):
        Cube(0, 0)


def test_cube_is_a_checked_face() -> None:
    c = cube((3,), (1, 2))
    assert isinstance(c, Face) and c == Face(m(3), m(1, 2)) == (m(3), m(1, 2))
    assert hash(c) == hash((m(3), m(1, 2)))
    assert repr(c) == "Cube(root=4, type=3)"
    assert c.label() == "{3}|{1,2}" and c.d == 2
    assert c.to_json() == {"root": [3], "type": [1, 2]}
    assert c.vertices() == [m(1, 2, 3), m(2, 3), m(1, 3), m(3)]
    assert Face(m(1), 0).vertices() == [m(1)]


def test_apex_and_facets_in_dimension_three() -> None:
    c = cube((3,), (1, 2, 4))
    t, h = apex_vertices(c)
    assert t == m(2, 3)
    assert h == m(1, 3, 4)
    # t_C lies on every front facet, h_C on every rear facet
    for f in front_facets(c):
        assert t in f.vertices()
    for f in rear_facets(c):
        assert h in f.vertices()


def test_parity_mask_matches_the_facet_numbering() -> None:
    # every cube of C(n, d), 1 <= d <= n <= 8: the facets and sides of the
    # parity mask against the F_i/G_i numbering, and t_C, h_C likewise
    cubes = 0
    for n in range(1, 9):
        for d in range(1, n + 1):
            for c in all_cubes(n, d):
                assert sorted(sided_facets(c)) == sorted(reference_cube_facets(c)), c
                assert apex_vertices(c) == reference_apex_vertices(c), c
                cubes += 1
    assert cubes == 9_330


def test_standard_z32_frozen() -> None:
    q = standard_cubillage(3, 2)
    assert q.cubes == (cube((), (1, 2)), cube((2,), (1, 3)), cube((), (2, 3)))
    assert len(q.vertex_set()) == 7
    anti = standard_cubillage(3, 2, anti=True)
    assert anti.cubes == (cube((3,), (1, 2)), cube((), (1, 3)), cube((1,), (2, 3)))


def test_standard_z43_frozen() -> None:
    q = standard_cubillage(4, 3)
    assert q.cubes == (
        cube((), (1, 2, 3)),
        cube((3,), (1, 2, 4)),
        cube((), (1, 3, 4)),
        cube((1,), (2, 3, 4)),
    )
    verts = q.vertex_set()
    assert len(verts) == 15
    missing = [mask for mask in range(16) if mask not in verts.member_set()]
    assert missing == [m(2, 4)]


def test_standard_z42_frozen() -> None:
    q = standard_cubillage(4, 2)
    assert set(q.cubes) == {
        cube((), (1, 2)),
        cube((2,), (1, 3)),
        cube((2, 3), (1, 4)),
        cube((), (2, 3)),
        cube((3,), (2, 4)),
        cube((), (3, 4)),
    }
    assert len(q.vertex_set()) == 11


def test_construction_matches_closed_form_root_rule() -> None:
    for n in range(2, 8):
        for d in range(2, min(n, 5) + 1):
            for anti in (False, True):
                q = standard_cubillage(n, d, anti=anti)
                for c in q.cubes:
                    typeset = {i + 1 for i in range(n) if c.type >> i & 1}
                    want = standard_root(typeset, n, anti=anti)
                    assert c.root == mask_of(want, n), (n, d, anti, c.label())


def test_validate_standard_and_anti() -> None:
    for n, d in [(4, 2), (4, 3), (5, 3), (5, 5)]:
        for anti in (False, True):
            q = standard_cubillage(n, d, anti)
            report = validate_cubillage(q)
            assert report.ok, (n, d, anti, report.problems)
            assert report.vertex_count == s_formula(n, d - 1)


def test_validate_catches_breakage() -> None:
    q = standard_cubillage(4, 2)
    # move one cube to a wrong root: facet matching must break
    broken = list(q.cubes)
    broken[-1] = cube((1,), (3, 4))
    report = validate_cubillage(Cubillage(4, 2, broken))
    assert not report.ok
    assert "inversion of {1,3,4} read both ways by its cubes" in report.problems

    # cubes that read one inversion set, but an inconsistent one: {1,2,4}
    # alone, the second of the four 3-subsets of {1,2,3,4} in lexicographic order
    report = validate_cubillage(from_inversions(4, 2, 0b0010))
    assert "inversions in {1,2,3,4}: 0100, no prefix or suffix" in report.problems

    # drop a cube: completeness must break
    report = validate_cubillage(Cubillage(4, 2, q.cubes[:-1]))
    assert not report.ok
    assert any("expected 6 cubes" in p for p in report.problems)

    # duplicate a type
    doubled = list(q.cubes[:-1]) + [q.cubes[0]]
    report = validate_cubillage(Cubillage(4, 2, doubled))
    assert any("duplicate" in p for p in report.problems)


def test_validate_reports_a_cube_of_wrong_dimension() -> None:
    # the validator judges a cube's dimension; building the cubillage does not
    q = Cubillage(4, 2, [Cube(0, 0b111)])
    assert q.cubes == (Cube(0, 0b111),)
    assert "cube of wrong dimension" in validate_cubillage(q).problems
    swapped = Cubillage(4, 2, [Cube(0, 0b111), *standard_cubillage(4, 2).cubes[1:]])
    assert validate_cubillage(swapped).problems == [
        "cube of wrong dimension",
        "vertex count 12, expected 11",
        "vertices {2}, {1,3} not strongly 1-separated",
    ]


def test_validate_reports_the_first_unseparated_pair() -> None:
    q = standard_cubillage(4, 2)
    moved = Cubillage(4, 2, [cube((4,), (1, 2))] + list(q.cubes[1:]))
    members = moved.vertex_set().members
    bad = [
        (a, b)
        for i, a in enumerate(members)
        for b in members[i + 1 :]
        if not is_strongly_r_separated(a, b, 1)
    ]
    assert len(bad) >= 2 and bad[0] == (m(2), m(1, 4))
    report = validate_cubillage(moved)
    assert [p for p in report.problems if "separated" in p] == [
        "vertices {2}, {1,4} not strongly 1-separated"
    ]


@pytest.mark.parametrize("n, d", [(5, 2), (5, 3), (6, 3), (6, 4)])
def test_table_separation_check_matches_check_pairwise(n, d) -> None:
    # every cubillage with one cube moved to another root: the validator reads
    # the relation table's rows, check_pairwise calls the predicate per pair,
    # and both must name the same first unseparated pair (or none)
    q = standard_cubillage(n, d)
    found = 0
    for i, old in enumerate(q.cubes):
        for root in sorted(submasks(((1 << n) - 1) & ~old.type)):
            if root == old.root:
                continue
            cubes = q.cubes[:i] + (Cube(root, old.type),) + q.cubes[i + 1 :]
            moved = Cubillage(n, d, cubes)
            ok, bad = check_pairwise(moved.vertex_set(), strong(d - 1))
            want = [] if ok else [
                f"vertices {set_notation(bad[0])}, {set_notation(bad[1])} "
                f"not strongly {d - 1}-separated"
            ]
            problems = validate_cubillage(moved).problems
            assert [p for p in problems if p.startswith("vertices ")] == want, (i, root)
            found += not ok
    assert found


def test_reconstruction_roundtrip() -> None:
    for n, d in [(4, 2), (4, 3), (5, 3)]:
        q = standard_cubillage(n, d)
        again = cubillage_from_collection(q.vertex_set(), d)
        assert again == q

    full = SetSystem(3, range(8))
    with pytest.raises(ValueError):
        cubillage_from_collection(full, 2)


def test_json_roundtrip() -> None:
    q = standard_cubillage(4, 3)
    assert Cubillage.from_json(q.to_json()) == q


def test_from_json_refuses_d_1() -> None:
    # three edges of Z(3,1): no builder or validator takes d = 1, so neither does the loader
    z31 = {"n": 3, "d": 1, "cubes": [
        {"root": [], "type": [1]}, {"root": [1], "type": [2]}, {"root": [1, 2], "type": [3]}]}
    with pytest.raises(ValueError, match=r"^need 2 <= d <= n, got d=1, n=3$"):
        Cubillage.from_json(z31)


def test_all_cubes_and_gamma_acyclicity() -> None:
    assert len(all_cubes(4, 2)) == 6 * 4
    assert len(all_cubes(5, 3)) == 10 * 4
    for n, d in [(3, 2), (4, 2), (5, 2), (4, 3), (5, 3)]:
        cubes, succs = gamma_graph(n, d)
        assert is_acyclic(len(cubes), succs), (n, d)


def test_immediate_precedence_example() -> None:
    first = cube((), (1, 2))
    second = cube((2,), (1, 3))
    assert immediately_precedes(first, second)
    assert not immediately_precedes(second, first)


def test_precedence_digraph_matches_pairwise_definition() -> None:
    # the indexed arcs on all cubes are the pairs sharing a rear/front facet
    for n in range(1, 6):
        for d in range(1, n + 1):
            cubes = all_cubes(n, d)
            want = [
                [j for j, second in enumerate(cubes) if j != i and immediately_precedes(first, second)]
                for i, first in enumerate(cubes)
            ]
            assert precedence_digraph(cubes) == want, (n, d)


def test_precedence_digraph_z43_is_a_chain() -> None:
    q = standard_cubillage(4, 3)
    succs = precedence_digraph(q.cubes)
    assert succs == [[1, 2, 3], [2, 3], [3], []]
    dot = digraph_dot([cube.label() for cube in q.cubes], succs, "gamma")
    assert dot.startswith("digraph gamma {")
    assert dot.count("->") == 6


def test_bead_threads_z43_frozen() -> None:
    q = standard_cubillage(4, 3)
    beads = bead_thread_graph(q)
    assert beads.ok, beads.problems
    assert set(beads.arcs) == {
        (m(2), m(1, 3)),
        (m(2, 3), m(1, 3, 4)),
        (m(3), m(1, 4)),
        (m(1, 3), m(1, 2, 4)),
    }
    assert sorted(beads.threads) == sorted(
        [
            [m(2), m(1, 3), m(1, 2, 4)],
            [m(2, 3), m(1, 3, 4)],
            [m(3), m(1, 4)],
        ]
    )


def test_bead_threads_structural() -> None:
    for n, d in [(4, 2), (5, 3), (5, 4), (6, 3)]:
        for anti in (False, True):
            beads = bead_thread_graph(standard_cubillage(n, d, anti))
            assert beads.ok, (n, d, anti, beads.problems)
    dot = bead_thread_graph(standard_cubillage(4, 2)).to_dot()
    assert dot.count("->") == 6


@pytest.mark.parametrize("n, d", [(4, 3), (5, 4)])
def test_bead_arc_off_its_height_is_a_problem(monkeypatch, n, d):
    # an arc from a cube's bottom vertex to its top rises by d, where
    # arcs rise by 1 at odd d and stay level at even d
    q = standard_cubillage(n, d)
    first = q.cubes[0]
    real = cb.apex_vertices
    monkeypatch.setattr(
        cb,
        "apex_vertices",
        lambda cube: (cube.root, cube.root | cube.type) if cube == first else real(cube),
    )
    beads = bead_thread_graph(q)
    assert [p for p in beads.problems if "changes height" in p] == [
        f"arc at cube {first.label()} changes height by {d}"
    ]
    assert not beads.ok


def _beads_of_arcs(monkeypatch, q, arcs):
    """The bead threads of q with the i-th cube's apex arc replaced by arcs[i]."""
    apexes = dict(zip(q.cubes, arcs))
    monkeypatch.setattr(cb, "apex_vertices", lambda cube: apexes[cube])
    return bead_thread_graph(q).problems


def test_bead_degree_two_cycles_and_cover_are_problems(monkeypatch) -> None:
    q = standard_cubillage(3, 2)  # three cubes, so three arcs
    s, a, b, t = m(1), m(2), m(3), m(1, 2)
    # a cube listed twice gives its tail out-degree 2 and its head in-degree 2
    doubled = Cubillage(q.n, q.d, (q.cubes[0],) + q.cubes)
    tail, head = cb.apex_vertices(q.cubes[0])
    problems = bead_thread_graph(doubled).problems
    assert f"vertex {set_notation(tail)} has out-degree 2" in problems
    assert f"vertex {set_notation(head)} has in-degree 2" in problems
    # s -> a -> b -> a: the thread from s runs into a cycle
    problems = _beads_of_arcs(monkeypatch, q, [(s, a), (a, b), (b, a)])
    assert f"vertex {set_notation(a)} has in-degree 2" in problems
    assert f"thread cycle through {set_notation(a)}" in problems
    # s -> t, and a -> b -> a apart from every thread start
    problems = _beads_of_arcs(monkeypatch, q, [(s, t), (a, b), (b, a)])
    assert "threads do not cover all arc vertices" in problems
    assert not any("thread cycle" in p for p in problems)


def test_from_inversions_refuses_a_u_outside_its_range() -> None:
    # U is a set of the C(4, 3) = 4 triples of [4]: 0 <= U < 2^4
    assert from_inversions(4, 2, 15) == standard_cubillage(4, 2, anti=True)
    for inverted in (-1, 16):
        with pytest.raises(ValueError, match=(
            rf"^inversion set {inverted} is not a set of \(d\+1\)-subsets of \[4\]$"
        )):
            from_inversions(4, 2, inverted)


def test_two_cycle_is_not_acyclic() -> None:
    assert is_acyclic(2, [[1], []])
    assert not is_acyclic(2, [[1], [0]])


def test_s_membranes_z32() -> None:
    q = standard_cubillage(3, 2)
    membranes = list(s_membranes(q))
    assert len(membranes) == 4
    sides = zonotope_sides(3, 2)
    assert membranes[0].facets == frozenset(sides.front_facets)
    full = [mem for mem in membranes if len(mem.ideal) == 3]
    assert len(full) == 1
    assert full[0].facets == frozenset(sides.rear_facets)
    for mem in membranes:
        assert len(mem.vertex_set()) == s_formula(3, 0)


def test_s_membranes_z43() -> None:
    q = standard_cubillage(4, 3)
    membranes = list(s_membranes(q))
    # the cube precedence is a 4-chain, so ideals are the 5 prefixes
    assert len(membranes) == 5
    for mem in membranes:
        assert len(mem.vertex_set()) == s_formula(4, 1)
    sides = zonotope_sides(4, 3)
    assert membranes[0].facets == frozenset(sides.front_facets)
    assert sorted(len(mem.ideal) for mem in membranes) == [0, 1, 2, 3, 4]
    last = [mem for mem in membranes if len(mem.ideal) == 4][0]
    assert last.facets == frozenset(sides.rear_facets)


def test_s_membranes_even_dimension() -> None:
    q = standard_cubillage(4, 2)
    membranes = list(s_membranes(q))
    for mem in membranes:
        assert len(mem.vertex_set()) == s_formula(4, 0)
    # monotone paths through the standard rhombus tiling of Z(4, 2):
    # 8 of them, matching the ideal count of its tile precedence
    assert len(membranes) == 8


# |B(n, d)| for 2 <= d <= n: d = n has only U = {}, d = n - 1 one (d+1)-set
BRUHAT_COUNTS = {(4, 2): 8, (5, 2): 62, (6, 2): 908, (5, 3): 10, (6, 3): 148, (6, 4): 12}
SLOW_BRUHAT_COUNTS = {(7, 3): 7_686, (7, 4): 338, (7, 5): 14}


def _bruhat_count(n: int, d: int) -> int:
    return {**BRUHAT_COUNTS, **SLOW_BRUHAT_COUNTS}.get((n, d), 2 if d == n - 1 else 1)


def _closure_by_type(types: list[int], succs: list[list[int]]) -> dict[int, set[int]]:
    reach = transitive_closure(succs)
    return {t: {u for j, u in enumerate(types) if reach[i] >> j & 1} for i, t in enumerate(types)}


def _check_every_cubillage(n: int, d: int) -> None:
    # every element U of B(n, d) builds cubes that both tiling checks pass,
    # that read back as U, that no other U builds, and whose facet order has
    # the transitive closure of the chains of the (d+1)-sets
    elements = bruhat_order(n, d)
    assert len(elements) == _bruhat_count(n, d)
    types = [mask_of(t, n) for t in combinations(range(1, n + 1), d)]
    seen = set()
    for inverted in elements:
        q = from_inversions(n, d, inverted)
        assert validate_cubillage(q).problems == [], (n, d, inverted)
        assert reference_tiling_problems(q) == [], (n, d, inverted)
        assert inversions(q) == (inverted, []), (n, d, inverted)
        seen.add(q.cubes)
        facet_order = _closure_by_type([c.type for c in q.cubes], precedence_digraph(q.cubes))
        chains = _closure_by_type(types, inversion_chain_order(n, d, inverted))
        assert facet_order == chains, (n, d, inverted)
    assert len(seen) == len(elements)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_every_cubillage_is_its_inversion_set(n) -> None:
    for d in range(2, n + 1):
        _check_every_cubillage(n, d)


@pytest.mark.slow
@pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
def test_every_cubillage_of_z7_is_its_inversion_set(d) -> None:
    _check_every_cubillage(7, d)


def _broken(q: Cubillage):
    """(kind, cubes): one root bit flipped, two roots swapped, one cube dropped."""
    cubes = q.cubes
    for i, c in enumerate(cubes):
        for k in range(q.n):
            if not c.type >> k & 1:
                yield "flip", cubes[:i] + (Cube(c.root ^ 1 << k, c.type),) + cubes[i + 1 :]
    for i, j in combinations(range(len(cubes)), 2):
        a, b = cubes[i], cubes[j]
        if a.root != b.root and not a.root & b.type and not b.root & a.type:
            swapped = list(cubes)
            swapped[i], swapped[j] = Cube(b.root, a.type), Cube(a.root, b.type)
            yield "swap", tuple(swapped)
    for i in range(len(cubes)):
        yield "drop", cubes[:i] + cubes[i + 1 :]


def test_broken_cubillages_agree_with_the_facet_check() -> None:
    # on the standard and anti-standard cubillages with n <= 6, the
    # inversion check and the facet-matching oracle refuse the same inputs
    kinds = {"flip": 0, "swap": 0, "drop": 0}
    refused = 0
    for n in range(2, 7):
        for d in range(2, n + 1):
            for anti in (False, True):
                for kind, cubes in _broken(standard_cubillage(n, d, anti)):
                    q = Cubillage(n, d, cubes)
                    oracle_ok = reference_tiling_problems(q) == []
                    assert validate_cubillage(q).ok == oracle_ok, (n, d, anti, kind, cubes)
                    if kind != "drop":
                        assert (inversions(q)[1] == []) == oracle_ok, (n, d, anti, kind, cubes)
                    kinds[kind] += 1
                    refused += not oracle_ok
    # a swap of two distinct roots never lands on another cubillage here
    assert kinds == {"flip": 460, "swap": 72, "drop": 198}
    assert refused == 730
