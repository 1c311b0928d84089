"""Strong/weak separation predicates against the raw-definition oracles."""

from __future__ import annotations

import random

import pytest

from zonosep.ground import elements, mask_of
from zonosep.separation import (
    is_double_r_comb,
    is_strongly_r_separated,
    is_weakly_r_separated,
    is_weakly_r_separated_even,
    is_weakly_r_separated_odd,
)

from oracles import (
    full_mask,
    raw_double_comb,
    raw_right_surrounds,
    raw_surrounds,
    raw_weakly_separated,
)


def m(*elems: int) -> int:
    return mask_of(elems, 64)


def test_surrounds_examples():
    # the literal surround relations of the paper, on [5], with the
    # conventions max(emptyset) = 0 and min(emptyset) = n + 1
    n = 5
    assert not raw_surrounds({2, 4}, {2, 4}, n)
    assert not raw_surrounds({2}, {1, 3}, n)
    assert raw_surrounds({1, 3}, {2}, n)
    assert raw_surrounds({1, 4}, set(), n)
    assert not raw_surrounds(set(), {1, 4}, n)
    assert raw_right_surrounds({2, 4}, {1, 3})
    assert not raw_right_surrounds({1, 3}, {2, 4})
    assert not raw_right_surrounds({5}, {5})


def test_strong_separation_examples():
    a = m(1, 2, 5, 6, 7, 10)
    b = m(2, 3, 6, 9)
    assert is_strongly_r_separated(a, b, 4)
    assert not is_strongly_r_separated(a, b, 3)
    assert is_strongly_r_separated(m(3), m(3), 0)
    # nested and disjoint-but-ordered pairs are 0-separated
    assert is_strongly_r_separated(m(1, 2), m(1, 2, 3), 0)
    assert is_strongly_r_separated(m(1), m(2, 3), 1)


def test_weak_odd_examples():
    # 3-interlaced, A surrounds B, |A| <= |B|: weakly 1-separated
    assert is_weakly_r_separated_odd(m(1, 2, 6), m(2, 3, 4, 5), 1)
    # 3-interlaced, A surrounds B, but |A| > |B|: not weakly 1-separated
    assert not is_weakly_r_separated_odd(m(1, 2, 5, 6, 7), m(1, 3, 4, 5), 1)
    # degree within r + 1 needs no surround at all
    assert is_weakly_r_separated_odd(m(1, 3), m(2, 4), 3)
    assert not is_weakly_r_separated_odd(m(1, 3, 5), m(2, 4, 6), 3)  # degree 6
    with pytest.raises(ValueError):
        is_weakly_r_separated_odd(m(1), m(2), 2)


def test_weak_even_examples():
    assert is_weakly_r_separated_even(m(1, 3), m(2, 4), 2)
    assert not is_weakly_r_separated_even(m(1, 3), m(2, 4, 5), 2)
    with pytest.raises(ValueError):
        is_weakly_r_separated_even(m(1), m(2), 3)
    with pytest.raises(ValueError):
        is_weakly_r_separated(m(1), m(2), 0)


def test_double_comb_examples():
    assert is_double_r_comb(m(2, 4), m(1, 3), 2)
    assert is_double_r_comb(m(2, 4, 6), m(1, 3, 5), 4)
    assert not is_double_r_comb(m(2, 4), m(1, 3, 5), 2)  # degree 5
    assert not is_double_r_comb(m(1, 2, 4), m(1, 3), 2)  # shared element shrinks the difference
    with pytest.raises(ValueError):
        is_double_r_comb(m(2, 4), m(1, 3), 3)


def test_smallest_comb_pair_by_search():
    # the ground set [r+2] admits exactly one unordered double r-comb pair
    # covering all of [r+2], namely the even/odd split with evens on the
    # side holding the top element
    for r in (2, 4):
        ground = r + 2
        found = set()
        for a in range(1 << ground):
            for b in range(1 << ground):
                if a | b == full_mask(ground) and a & b == 0:
                    if is_double_r_comb(a, b, r):
                        found.add(frozenset((a, b)))
        evens = mask_of(range(2, ground + 1, 2), ground)
        odds = mask_of(range(1, ground + 1, 2), ground)
        assert found == {frozenset((evens, odds))}


def test_weak_matches_raw_definition_exhaustive():
    n = 7
    full = full_mask(n)
    for a in range(full + 1):
        sa = set(elements(a))
        for b in range(a, full + 1):
            sb = set(elements(b))
            for r in range(1, 6):
                want = raw_weakly_separated(sa, sb, r, n)
                by_parity = is_weakly_r_separated_odd if r % 2 else is_weakly_r_separated_even
                for x, y in ((a, b), (b, a)):
                    assert is_weakly_r_separated(x, y, r) == want
                    assert by_parity(x, y, r) == want
            assert is_double_r_comb(a, b, 2) == raw_double_comb(sa, sb, 2)


def test_weak_randomized_larger_ground():
    rng = random.Random(321)
    for _ in range(4000):
        n = rng.randint(7, 12)
        a = rng.getrandbits(n)
        b = rng.getrandbits(n)
        r = rng.choice([1, 2, 3, 4, 5, 6])
        want = raw_weakly_separated(set(elements(a)), set(elements(b)), r, n)
        assert is_weakly_r_separated(a, b, r) == want


def test_strong_implies_weak_and_monotone():
    n = 6
    for a in range(1 << n):
        for b in range(1 << n):
            for r in (1, 2, 3):
                if is_strongly_r_separated(a, b, r):
                    assert is_weakly_r_separated(a, b, r)
                if is_weakly_r_separated(a, b, r):
                    # one more interval of slack always absorbs the surround case
                    assert is_strongly_r_separated(a, b, r + 1)
                    assert is_weakly_r_separated(a, b, r + 1)


def test_complement_invariance():
    # weak separation is invariant under complementing both members
    for n in (5, 6):
        full = full_mask(n)
        for a in range(full + 1):
            for b in range(full + 1):
                for r in (1, 2):
                    assert is_weakly_r_separated(a, b, r) == is_weakly_r_separated(
                        full & ~a, full & ~b, r
                    )
