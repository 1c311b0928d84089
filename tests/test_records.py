"""The records compare and hash by value, and refuse bad fields on construction.

Each case builds a record twice from the same fields, then once with
one field changed: the first two must be equal with equal hashes, the
third unequal.  The checked records raise ValueError for each check
their constructor makes; the cases below are the checks no other test
reaches.
"""

import pytest

from zonosep.cubillage import Cube, Cubillage, standard_cubillage
from zonosep.flips import FlipSite
from zonosep.geometry import zonotope_sides
from zonosep.ground import SIDE_A, SIDE_B, Cortege, CortegeInterval, mask_of
from zonosep.membranes import KIND_WEAK, Fragment, ScanViolation, base_membrane
from zonosep.systems import MaxSearch, PairwisePredicate, SetSystem


def m(*elems: int) -> int:
    return mask_of(elems, 8)


def _cortege(last: int = 4) -> Cortege:
    return Cortege((CortegeInterval(1, 2, SIDE_A), CortegeInterval(last, last, SIDE_B)))


def _search(nodes: int = 5) -> MaxSearch:
    return MaxSearch(2, SetSystem(2, (m(1), m(2))), nodes, 1, 2, 0, 1)


# name: (build a fresh record, the same build with one field changed)
CASES = {
    "CortegeInterval": (lambda: CortegeInterval(1, 2, SIDE_A),
                        lambda: CortegeInterval(1, 3, SIDE_A)),
    "Cortege": (_cortege, lambda: _cortege(5)),
    "SetSystem": (lambda: SetSystem(4, (m(1), m(1, 2))),
                  lambda: SetSystem(5, (m(1), m(1, 2)))),
    "PairwisePredicate": (lambda: PairwisePredicate("WEAK_ODD", 1),
                          lambda: PairwisePredicate("WEAK_ODD", 3)),
    "MaxSearch": (_search, lambda: _search(6)),
    "ZonotopeSides": (lambda: zonotope_sides(4, 2),
                      lambda: zonotope_sides(4, 2)._replace(d=3)),
    "Cubillage": (lambda: standard_cubillage(4, 2),
                  lambda: Cubillage(4, 2, standard_cubillage(4, 2).cubes[1:])),
    "Fragment": (lambda: Fragment(Cube(0, m(1, 2, 3)), 1, 2),
                 lambda: Fragment(Cube(0, m(1, 2, 3)), 1, 3)),
    "Membrane": (lambda: base_membrane(standard_cubillage(4, 3)),
                 lambda: base_membrane(standard_cubillage(4, 3))._replace(flavor="E")),
    "ScanViolation": (lambda: ScanViolation(KIND_WEAK, (m(1), m(2)), ("a",)),
                      lambda: ScanViolation(KIND_WEAK, (m(1), m(3)), ("a",))),
    "FlipSite": (lambda: FlipSite(4, 0, m(2), m(1, 3)),
                 lambda: FlipSite(4, m(4), m(2), m(1, 3))),
}


@pytest.mark.parametrize("name", CASES)
def test_equal_fields_give_equal_records(name):
    build, changed = CASES[name]
    first, second = build(), build()
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert changed() != first


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CortegeInterval(0, 2, SIDE_A), r"bad interval \[0,2\]"),
        (lambda: SetSystem(0, ()), "ground-set size"),
        (lambda: PairwisePredicate("WEAK_ODD", -1), "WEAK_ODD needs odd positive r"),
        (lambda: PairwisePredicate("WEAK_EVEN_NO_COMB", 0),
         "WEAK_EVEN_NO_COMB needs even positive r"),
        (lambda: Cubillage(0, 1, ()), "ground-set size"),
        (lambda: Cubillage(3, 2, (Cube(0, m(3, 4)),)), r"outside ground set \[3\]"),
        (lambda: FlipSite(0, 0, m(2), m(1, 3)), "ground-set size"),
        (lambda: FlipSite(3, m(4), m(2), m(1, 3)), r"outside ground set \[3\]"),
    ],
    ids=["interval-lo", "system-ground", "weak-odd-r", "no-comb-r", "cubillage-ground",
         "cubillage-mask", "site-ground", "site-mask"],
)
def test_constructors_refuse_bad_fields(build, message):
    with pytest.raises(ValueError, match=message):
        build()
