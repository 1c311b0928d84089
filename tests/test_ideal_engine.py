"""The iterative ideal walker and the per-flip membrane scan against the old engine.

`tests/oracles.py` keeps the recursive walker and the per-tile refcount
scan that these replaced; every callback and every report byte must
agree with them.
"""

import dataclasses

import pytest

import zonosep.membranes as mb
from zonosep.cubillage import precedence_digraph, standard_cubillage
from zonosep.membranes import (
    FLAVOR_E,
    FLAVOR_W,
    enlarged_precedence,
    fragment_precedence,
    scan_membranes,
)
from zonosep.posets import IdealCapExceeded, scan_ideals
from zonosep.systems import complement_table, strong

from oracles import reference_scan_ideals, reference_scan_membranes


def _events(walker, count, succs, cap=None):
    """The full callback stream of one walk, ending in the cap if hit."""
    log = []
    try:
        total = walker(
            count,
            succs,
            visit=lambda ideal: log.append(("visit", ideal)),
            enter=lambda node: log.append(("enter", node)),
            leave=lambda node: log.append(("leave", node)),
            cap=cap,
        )
    except IdealCapExceeded:
        log.append(("capped", cap))
    else:
        log.append(("total", total))
    return log


def _precedences(n, d, anti):
    q = standard_cubillage(n, d, anti)
    yield "fragment", fragment_precedence(q)[1]
    yield "cube", precedence_digraph(q.cubes)
    if d % 2 == 0:
        yield "enlarged", enlarged_precedence(q)[1]


@pytest.mark.parametrize("anti", [False, True], ids=["standard", "anti"])
def test_callback_sequence_matches_recursive_walker(anti):
    for n in range(2, 7):
        for d in range(2, n + 1):
            for kind, succs in _precedences(n, d, anti):
                count = len(succs)
                for cap in (None, 0, 7):
                    got = _events(scan_ideals, count, succs, cap)
                    want = _events(reference_scan_ideals, count, succs, cap)
                    assert got == want, (n, d, anti, kind, cap)


def test_callbacks_are_optional():
    q = standard_cubillage(5, 3)
    deltas, succs = fragment_precedence(q)
    assert scan_ideals(len(deltas), succs) == 496
    with pytest.raises(IdealCapExceeded):
        scan_ideals(len(deltas), succs, cap=495)
    assert scan_ideals(len(deltas), succs, cap=496) == 496


def test_deep_chain_does_not_recurse():
    # the recursive walker needed one Python frame per chain element
    count = 1200
    succs = [[i + 1] for i in range(count - 1)] + [[]]
    depth = []
    assert scan_ideals(count, succs, visit=lambda ideal: depth.append(len(ideal))) == 1201
    assert depth == list(range(count + 1))


def test_deep_fragment_precedence_scans_to_its_cap():
    # Z(10,5) has 1,260 fragments, chained deeper than the recursion limit
    report = scan_membranes(standard_cubillage(10, 5), cap=3000)
    assert report.capped and not report.ok
    assert report.membrane_count == 3000


SCANS = [
    # (n, d, flavor, check_combs, cap)
    (5, 3, FLAVOR_W, False, None),
    (6, 3, FLAVOR_W, False, None),
    (6, 3, FLAVOR_W, False, 500),
    (5, 4, FLAVOR_W, False, None),
    (5, 4, FLAVOR_W, True, None),
    (6, 4, FLAVOR_W, False, 1500),
    (5, 4, FLAVOR_E, True, None),
    (6, 4, FLAVOR_E, False, None),
    (6, 4, FLAVOR_E, True, None),
    (6, 4, FLAVOR_E, True, 1000),
]


@pytest.mark.parametrize("anti", [False, True], ids=["standard", "anti"])
@pytest.mark.parametrize("n, d, flavor, check_combs, cap", SCANS)
def test_scan_report_matches_per_tile_scan(n, d, flavor, check_combs, cap, anti):
    q = standard_cubillage(n, d, anti)
    got = scan_membranes(q, flavor=flavor, cap=cap, check_combs=check_combs)
    want = reference_scan_membranes(q, flavor=flavor, cap=cap, check_combs=check_combs)
    assert got.to_json() == want.to_json()
    assert got.capped == (cap is not None)


def test_scan_and_oracle_agree_on_a_wrong_table(monkeypatch):
    # count strong instead of weak 1-separation failures on both sides:
    # Z(5,3) then has violating membranes, and both must list the same ones
    q = standard_cubillage(5, 3)
    monkeypatch.setattr(mb, "weak", strong)
    got = scan_membranes(q)
    want = reference_scan_membranes(q, incompat=complement_table(5, strong(1)))
    assert got.violations
    assert got.violations == want.violations
    assert got.to_json() == want.to_json()


def test_negative_multiplicity_is_an_internal_error(monkeypatch):
    # start from an empty front boundary: the first raising flip then
    # takes a vertex below zero, which the old per-tile scan let pass
    real = mb.base_membrane
    monkeypatch.setattr(
        mb,
        "base_membrane",
        lambda q, flavor=FLAVOR_W: dataclasses.replace(real(q, flavor), tiles=frozenset()),
    )
    with pytest.raises(AssertionError, match="multiplicity -1"):
        scan_membranes(standard_cubillage(4, 3))
