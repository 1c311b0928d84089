"""The decided scans of Z(7,3) and Z(7,4) against the walk over every membrane (opt-in, minutes).

    PYTHONPATH=src python -m pytest -q -m slow

The walk visits all 1,406,640 w-membranes of Z(7,3) and all 1,575,598
e-membranes of Z(7,4); count, sizes and the exact sets of violating
pairs must agree with the scan that visits none of them.  Z(10,3) and
Z(11,3), far past any walk, pin the scan's own count and sizes.  The
cube memo is checked over all 338 cubillages of Z(7,4), and every
raising flip from every membrane over all of B(5,3) w and B(6,4) e.
"""

import pytest

import zonosep.membranes as mb
from zonosep.cubillage import from_inversions, standard_cubillage
from zonosep.membranes import FLAVOR_E, FLAVOR_W, KIND_COMB, KIND_WEAK, scan_membranes
from zonosep.posets import IDEAL_STATE_BUDGET
from zonosep.systems import s_formula

from oracles import (
    bruhat_order,
    e_membranes,
    raising_flip_outcomes,
    reference_scan_membranes,
    scan_record,
    w_membranes,
)

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("anti", [False, True], ids=["standard", "anti"])
@pytest.mark.parametrize(
    "n, d, flavor, check_combs, count",
    [(7, 3, FLAVOR_W, False, 1_406_640), (7, 4, FLAVOR_E, True, 1_575_598)],
)
def test_scan_matches_the_walk_at_n7(n, d, flavor, check_combs, count, anti):
    q = standard_cubillage(n, d, anti)
    want = reference_scan_membranes(q, flavor=flavor, check_combs=check_combs)
    got = scan_membranes(q, flavor=flavor, check_combs=check_combs)
    assert want.membrane_count == got.membrane_count == count
    assert got.sizes_seen == want.sizes_seen
    assert {v.pair for v in got.violations if v.kind == KIND_WEAK} == want.bad_pairs
    assert {v.pair for v in got.violations if v.kind == KIND_COMB} == want.comb_pairs
    assert got.comb_free == want.comb_free
    assert got.ok


@pytest.mark.parametrize("anti", [False, True], ids=["standard", "anti"])
def test_membrane_theorem_z103(anti):
    # beyond any walk: ~98,000 memo states, ~3 s per cubillage
    rep = scan_membranes(standard_cubillage(10, 3, anti))
    assert rep.membrane_count == 76_066_025_690_064
    assert rep.sizes_seen == {56} == {s_formula(10, 1)}
    assert rep.violations == [] and rep.ok


def test_membrane_theorem_z113_within_the_budget():
    # ~907,000 memo states, ~20 s and ~170 MiB: the largest w count the
    # budget decides
    rep = scan_membranes(standard_cubillage(11, 3))
    assert rep.membrane_count == 138_046_137_655_561_536
    assert rep.sizes_seen == {67} == {rep.expected_size}
    assert rep.ok
    assert rep.stats["states"] < IDEAL_STATE_BUDGET


def test_cube_memo_over_every_cubillage_of_z74():
    # Property P on all 338 cubillages of Z(7,4), with the cube memo
    # cleared before each and kept warm: the same records, and the warm
    # sweep cuts each of the cubes it meets once
    qs = [from_inversions(7, 4, u) for u in bruhat_order(7, 4)]
    assert len(qs) == 338
    cold = []
    for q in qs:
        mb._cube_pieces.cache_clear()
        cold.append(scan_record(scan_membranes(q, FLAVOR_E, check_combs=True)))
    mb._cube_pieces.cache_clear()
    reports = [scan_membranes(q, FLAVOR_E, check_combs=True) for q in qs]
    assert [scan_record(report) for report in reports] == cold
    assert all(record[0]["violations"] == [] and record[0]["comb_free"] for record in cold)
    assert sum(record[0]["membranes"] for record in cold) == 189_769_474
    cubes = {cube for q in qs for cube in q.cubes}
    assert sum(report.stats["cubes_cut"] for report in reports) == len(cubes)


@pytest.mark.parametrize(
    "n, d, flavor, walk, count",
    [(5, 3, FLAVOR_W, w_membranes, 10), (6, 4, FLAVOR_E, e_membranes, 12)],
)
def test_every_flip_from_every_membrane_of_every_cubillage(n, d, flavor, walk, count):
    # every cubillage of B(5,3) w and of B(6,4) e: a fragment behind a
    # membrane is refused as already behind, an addable one is raised,
    # any other is blocked
    qs = [from_inversions(n, d, u) for u in bruhat_order(n, d)]
    assert len(qs) == count
    for q in qs:
        counts, wrong = raising_flip_outcomes(q, flavor, walk(q))
        assert wrong == []
        assert min(counts.values()) > 0
