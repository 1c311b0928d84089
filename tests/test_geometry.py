"""Exact cyclic configurations, vertex tests, and boundary sides."""

from __future__ import annotations

from itertools import combinations

import pytest

from zonosep.geometry import boundary_vertices, side_roots, zonotope_sides
from zonosep.ground import elements, mask_of
from zonosep.separation import is_strongly_r_separated
from zonosep.systems import SetSystem, s_formula

from oracles import (
    exact_side_roots,
    flag_minors_positive,
    front_rear_vertices,
    full_mask,
    interval_count,
    linear_functional_separates,
    normal_vector,
    point_of,
    sign_changes,
    veronese,
)


def m(*elems: int) -> int:
    return mask_of(elems, 64)


def test_veronese_basics():
    config = veronese(4, 3)
    assert config[1] == (1, 2, 4)
    assert config[3] == (1, 4, 16)
    assert all(isinstance(x, int) for col in config for x in col)
    with pytest.raises(ValueError):
        veronese(3, 1)
    with pytest.raises(ValueError):
        veronese(3, 4)
    with pytest.raises(ValueError):
        veronese(3, 2, ts=(1, 1, 2))


def test_custom_parameters_pass_flag_validator():
    config = veronese(4, 3, ts=(-3, 0, 2, 7))
    assert config[0] == (1, -3, 9)
    assert flag_minors_positive(config, 3)
    # a non-increasing-power matrix fails the validator
    assert not flag_minors_positive([(1, 0), (1, -1)], 2)
    assert flag_minors_positive([(1, 1), (1, 2), (1, 3)], 2)


def test_point_of_counts_first_coordinate():
    config = veronese(5, 3)
    point = point_of(config, m(1, 4, 5))
    assert point[0] == 3
    assert point == (3, 10, 42)  # 1+4+5, 1+16+25


def test_sign_rule_examples():
    assert sign_changes(0, 6) == 0
    assert sign_changes(m(2, 3), 6) == 2
    assert sign_changes(m(1, 4, 5), 6) == 3
    # a vertex of Z(n, d) has at most d - 1 sign changes
    assert sign_changes(m(2, 3, 4), 6) <= 3
    assert sign_changes(m(1, 2, 5), 6) <= 3  # 2-interval containing 1
    assert sign_changes(m(2, 4), 6) > 3
    assert sign_changes(m(2, 4, 6), 7) > 4
    assert sign_changes(m(2, 4), 6) <= 4
    assert sign_changes(0, 4) <= 1 and sign_changes(m(1, 2, 3, 4), 4) <= 1


def test_boundary_vertices_beyond_the_search_bound():
    # held to the relation-table cap rather than the clique search
    # bound: at most d - 1 = 2 sign changes, 2 (1 + C(n-1, 1) + C(n-1, 2))
    assert len(boundary_vertices(8, 3)) == 58
    assert len(boundary_vertices(12, 3)) == 134
    with pytest.raises(ValueError, match="n = 13 exceeds the relation-table cap 12"):
        boundary_vertices(13, 3)


def test_boundary_vertices_counts():
    assert len(boundary_vertices(4, 2)) == 8
    assert len(boundary_vertices(6, 4)) == 52
    assert len(boundary_vertices(5, 5)) == 32  # d = n: every subset is a vertex
    # the 12 non-vertices on [6] at d = 4, in canonical order
    full = full_mask(6)
    missing = sorted(
        set(range(64)) - set(boundary_vertices(6, 4).members)
    )
    want = [
        m(2, 4), m(2, 5), m(3, 5),
        m(1, 3, 5), m(1, 3, 6), m(1, 4, 6), m(2, 3, 5), m(2, 4, 5), m(2, 4, 6),
        m(1, 2, 4, 6), m(1, 3, 4, 6), m(1, 3, 5, 6),
    ]
    assert sorted(missing) == sorted(want)
    assert all(sign_changes(x, 6) > 3 for x in want)
    # non-vertices pair up under complementation in [6]
    assert {full & ~x for x in want} == set(want)


def _sides_against_the_sign_rule(nmin: int, nmax: int) -> list[tuple[int, int]]:
    """The (n, d) where front and rear together miss or add a sign-rule vertex."""
    return [
        (n, d)
        for n in range(nmin, nmax + 1)
        for d in range(2, n + 1)
        if boundary_vertices(n, d)
        != SetSystem.from_masks(n, (x for x in range(1 << n) if sign_changes(x, n) <= d - 1))
    ]


def test_boundary_vertices_match_the_sign_rule():
    assert _sides_against_the_sign_rule(2, 10) == []


@pytest.mark.slow
def test_boundary_vertices_match_the_sign_rule_to_the_table_cap():
    assert _sides_against_the_sign_rule(11, 12) == []


def test_sign_rule_matches_functional_oracle():
    for n in range(2, 8):
        for d in range(2, min(n, 5) + 1):
            config = veronese(n, d)
            for x in range(1 << n):
                inside = [config[i - 1] for i in elements(x)]
                outside = [config[i - 1] for i in range(1, n + 1) if not x >> (i - 1) & 1]
                want = linear_functional_separates(inside, outside)
                assert (sign_changes(x, n) <= d - 1) == want, (n, d, x)


def test_front_rear_closed_form_odd():
    front, rear, rim = front_rear_vertices(4, 3)
    assert len(front) == s_formula(4, 1) == 11
    full = full_mask(4)
    assert {full & ~x for x in front.members} == set(rear.members)
    assert set(rim.members) == set(front.members) & set(rear.members)
    # inner front vertices: the 1-intervals avoiding both 1 and n
    inner = set(front.members) - set(rim.members)
    assert inner == {m(2), m(3), m(2, 3)}
    with pytest.raises(ValueError):
        front_rear_vertices(4, 2)


def test_front_rear_closed_form_larger():
    front, rear, rim = front_rear_vertices(6, 5)
    full = full_mask(6)
    # rear minus rim: (d+1)/2-intervals containing both 1 and n
    inner_rear = set(rear.members) - set(rim.members)
    for x in inner_rear:
        assert interval_count(x) == 3 and x & 1 and x >> 5 & 1
    for x in front.members:
        assert sign_changes(x, 6) <= 4
        assert interval_count(x) <= 2


def test_zonotope_sides_match_closed_form():
    for n, d in ((3, 3), (4, 3), (5, 3), (5, 5), (6, 3), (6, 5)):
        sides = zonotope_sides(n, d)
        front, rear, rim = front_rear_vertices(n, d)
        assert sides.front == front and sides.rear == rear and sides.rim == rim


def test_zonotope_sides_even_d():
    sides = zonotope_sides(4, 2)
    # front of a zonogon: prefixes; rear: suffixes
    assert set(sides.front.members) == {0, m(1), m(1, 2), m(1, 2, 3), m(1, 2, 3, 4)}
    assert set(sides.rear.members) == {0, m(4), m(3, 4), m(2, 3, 4), m(1, 2, 3, 4)}
    assert set(sides.rim.members) == {0, m(1, 2, 3, 4)}
    sides = zonotope_sides(6, 4)
    union = set(sides.front.members) | set(sides.rear.members)
    assert union <= set(boundary_vertices(6, 4).members)
    for root, typemask in sides.front_facets:
        assert root & typemask == 0 and typemask.bit_count() == 3


def test_normal_vector_expectations():
    config = veronese(3, 3)
    normal = normal_vector(config, m(1, 2))
    # cross product of (1,1,1) and (1,2,4)
    assert normal == (2, -3, 1)
    with pytest.raises(ValueError):
        normal_vector(config, m(1))
    # oriented to (-2,3,-1); generator 3 = (1,3,9) gives -2
    assert exact_side_roots(config, m(1, 2)) == side_roots(3, m(1, 2)) == (0, m(3))
    flat = [(1, 0, 0), (0, 0, 1), (0, 1, 0), (1, 1, 0)]
    with pytest.raises(ArithmeticError, match="zero last coordinate"):
        exact_side_roots(flat, m(1, 2))  # normal (0,-1,0)
    with pytest.raises(ArithmeticError, match="not cyclic"):
        exact_side_roots(flat, m(1, 3))  # generator 4 lies on the span


def _side_roots_against_exact_normals(nmax: int, ts=None) -> tuple[int, list]:
    """Over every 2 <= D <= n <= nmax and (D-1)-subset T: the number of
    (n, D, T) triples, and those where the parity rule and the oriented
    cofactor normal on the moment curve in dimension D split the other
    generators differently."""
    checked, bad = 0, []
    for n in range(2, nmax + 1):
        for dim in range(2, n + 1):
            config = veronese(n, dim, None if ts is None else ts[:n])
            for combo in combinations(range(1, n + 1), dim - 1):
                typemask = mask_of(combo, n)
                checked += 1
                if side_roots(n, typemask) != exact_side_roots(config, typemask):
                    bad.append((n, dim, typemask))
    return checked, bad


def test_side_roots_match_exact_normals():
    assert _side_roots_against_exact_normals(9) == (1004, [])
    # the rule reads only the order of the t_i, so uneven increasing
    # parameters give the same split
    assert _side_roots_against_exact_normals(6, ts=(-7, -2, 0, 1, 5, 13)) == (114, [])


@pytest.mark.slow
def test_side_roots_match_exact_normals_to_the_table_cap():
    # every n up to the relation-table cap 12
    assert _side_roots_against_exact_normals(12) == (8166, [])


def test_nonpurity_witness_shape():
    from zonosep.systems import check_pairwise, extend_to_maximal, nonpurity_witness, weak_odd

    verts = boundary_vertices(6, 4)
    witness = nonpurity_witness(verts)
    assert len(witness) == 55
    ok, _ = check_pairwise(witness, weak_odd(3))
    assert ok
    assert extend_to_maximal(witness, weak_odd(3)) == witness  # maximal already
    # vertex part is strongly 3-separated on its own
    for i, a in enumerate(verts.members):
        for b in verts.members[i + 1 :]:
            assert is_strongly_r_separated(a, b, 3)
