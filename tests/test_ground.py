"""Interval structure and cortege tests, checked against the scan oracle."""

from __future__ import annotations

import random

import pytest

from zonosep.ground import (
    SIDE_A,
    SIDE_B,
    Cortege,
    CortegeInterval,
    elements,
    interlacing_degree,
    interval_cortege,
    mask_of,
    set_notation,
    submasks,
)

from oracles import alternation_degree, full_mask, interval_count


def m(*elems: int) -> int:
    return mask_of(elems, 64)


def test_mask_basics():
    assert full_mask(4) == 0b1111
    assert elements(m(1, 3, 4)) == [1, 3, 4]
    assert set_notation(m(2, 5)) == "{2,5}"
    assert set_notation(0) == "{}"
    with pytest.raises(ValueError):
        mask_of([0], 4)
    with pytest.raises(ValueError):
        mask_of([5], 4)


def test_submasks():
    assert submasks(0) == [0]
    assert submasks(m(1, 3)) == [m(1, 3), m(3), m(1), 0]
    mask = m(2, 3, 5, 7)
    got = submasks(mask)
    assert len(got) == len(set(got)) == 16
    assert set(got) == {x for x in range(1 << 7) if x & ~mask == 0}
    assert got == sorted(got, reverse=True)


def test_interval_count():
    assert interval_count(0) == 0
    assert interval_count(m(2, 3, 4)) == 1
    assert interval_count(m(1, 3, 4, 6)) == 3


def test_cortege_worked_instance():
    # A = {1,2,5,6,7,10}, B = {2,3,6,9}: five alternating intervals
    a = m(1, 2, 5, 6, 7, 10)
    b = m(2, 3, 6, 9)
    cor = interval_cortege(a, b)
    assert [(iv.lo, iv.hi, iv.side) for iv in cor.intervals] == [
        (1, 1, SIDE_A),
        (3, 3, SIDE_B),
        (5, 7, SIDE_A),
        (9, 9, SIDE_B),
        (10, 10, SIDE_A),
    ]
    assert cor.degree == 5
    assert interlacing_degree(a, b) == 5


def test_cortege_small_instances():
    assert interval_cortege(m(2, 4), m(2, 4)).degree == 0
    assert interlacing_degree(m(1, 3), m(2, 4)) == 4
    cor = interval_cortege(m(1, 2, 6), m(2, 3, 4, 5))
    assert [(iv.lo, iv.hi, iv.side) for iv in cor.intervals] == [
        (1, 1, SIDE_A),
        (3, 5, SIDE_B),
        (6, 6, SIDE_A),
    ]


def test_cortege_validation():
    with pytest.raises(ValueError):
        CortegeInterval(3, 2, SIDE_A)
    with pytest.raises(ValueError):
        CortegeInterval(1, 2, "C")
    ivs = (CortegeInterval(1, 2, SIDE_A), CortegeInterval(2, 3, SIDE_B))
    with pytest.raises(ValueError):
        Cortege(ivs)  # overlapping
    ivs = (CortegeInterval(1, 2, SIDE_A), CortegeInterval(4, 5, SIDE_A))
    with pytest.raises(ValueError):
        Cortege(ivs)  # sides must alternate


def _check_cortege_structure(a: int, b: int) -> None:
    cor = interval_cortege(a, b)
    d1, d2 = a & ~b, b & ~a
    side_a = side_b = 0
    for iv in cor.intervals:
        span = (1 << iv.hi) - (1 << (iv.lo - 1))  # the interval [lo, hi]
        if iv.side == SIDE_A:
            side_a |= span
        else:
            side_b |= span
    # each side's intervals cover exactly its difference, endpoints included
    assert side_a & d1 == d1 and side_a & d2 == 0
    assert side_b & d2 == d2 and side_b & d1 == 0
    for iv in cor.intervals:
        diff = d1 if iv.side == SIDE_A else d2
        assert diff >> (iv.lo - 1) & 1 and diff >> (iv.hi - 1) & 1
    assert cor.degree == interlacing_degree(a, b)


def test_degree_matches_scan_oracle_exhaustive():
    n = 6
    for a in range(1 << n):
        for b in range(1 << n):
            deg = interlacing_degree(a, b)
            assert deg == alternation_degree(set(elements(a)), set(elements(b)))
            assert deg == interlacing_degree(b, a)


def test_cortege_structure_exhaustive_small():
    for a in range(1 << 5):
        for b in range(1 << 5):
            _check_cortege_structure(a, b)


def test_cortege_structure_randomized():
    rng = random.Random(20250822)
    for _ in range(2000):
        n = rng.randint(7, 16)
        a = rng.getrandbits(n)
        b = rng.getrandbits(n)
        _check_cortege_structure(a, b)
        assert interlacing_degree(a, b) == alternation_degree(
            set(elements(a)), set(elements(b))
        )


def test_complement_swaps_sides():
    # (A, B) and (complement B, complement A) share the cortege verbatim;
    # (complement A, complement B) swaps sides but keeps every interval
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(2, 12)
        full = full_mask(n)
        a = rng.getrandbits(n)
        b = rng.getrandbits(n)
        cor = interval_cortege(a, b)
        assert interval_cortege(full & ~b, full & ~a) == cor
        swapped = interval_cortege(full & ~a, full & ~b)
        assert [(iv.lo, iv.hi) for iv in swapped.intervals] == [
            (iv.lo, iv.hi) for iv in cor.intervals
        ]
        assert [iv.side for iv in swapped.intervals] == [
            SIDE_B if iv.side == SIDE_A else SIDE_A for iv in cor.intervals
        ]
        assert interlacing_degree(a, b) == interlacing_degree(full & ~a, full & ~b)


def test_complement_interval_count_gap():
    # a set and its complement in [n] are k- and k'-intervals with |k - k'| <= 1
    for n in (1, 2, 5, 7):
        full = full_mask(n)
        for x in range(1 << n):
            assert abs(interval_count(x) - interval_count(full & ~x)) <= 1
