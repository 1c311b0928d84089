"""Strong and weak r-separation predicates for pairs of subsets.

A pair (A, B) is *strongly r-separated* when its interlacing degree is
at most r + 1, i.e. the differences A - B and B - A can be covered by
at most r + 1 alternating intervals.

*Weak* r-separation relaxes this by one extra interval under a
surrounding condition whose shape depends on the parity of r.

For odd r: the pair is weakly r-separated when it is r'-interlaced
with r' <= r + 1, or (r+2)-interlaced and either A surrounds B with
|A| <= |B|, or B surrounds A with |B| <= |A|.  Here "A surrounds B"
means min(A - B) < min(B - A) and max(A - B) > max(B - A).  With odd
r the degree r + 2 is odd, so the first and last cortege intervals
come from the same side and exactly that side surrounds the other;
this is asserted, not assumed.

For even r: the same scheme with "surrounds" replaced by "surrounds
from the right", i.e. max(A - B) > max(B - A) alone.  At even degree
r + 2 the bookend intervals come from opposite sides, and the side
owning the last interval surrounds the other from the right.

A *double r-comb* (even r) is a pair that is (r+2)-interlaced with
|A xor B| = r + 2: every cortege interval is a singleton.  The
smallest example on [r+2] is the pair ({2,4,...,r+2}, {1,3,...,r+1}).
"""

from __future__ import annotations

from .ground import interlacing_degree, mask_max


def surrounds(a: int, b: int) -> bool:
    """A surrounds B: min(A-B) < min(B-A) and max(A-B) > max(B-A).

    Empty differences follow the max(emptyset) = 0, min(emptyset) = n+1
    conventions; both comparisons then resolve without knowing n.
    """
    d1 = a & ~b
    d2 = b & ~a
    if not d1:
        return False  # min(emptyset) = n+1 beats nothing; 0 > max(d2) needs d2 empty too
    if not d2:
        return True  # min(d1) <= n < n+1 and max(d1) >= 1 > 0
    return (d1 & -d1) < (d2 & -d2) and mask_max(d1) > mask_max(d2)


def surrounds_from_right(a: int, b: int) -> bool:
    """A surrounds B from the right: max(A-B) > max(B-A)."""
    return mask_max(a & ~b) > mask_max(b & ~a)


def is_strongly_r_separated(a: int, b: int, r: int) -> bool:
    """Interlacing degree at most r + 1."""
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    return interlacing_degree(a, b) <= r + 1


def is_weakly_r_separated_odd(a: int, b: int, r: int) -> bool:
    """Weak separation for odd r (surround plus cardinality tie-break)."""
    if r < 1 or r % 2 == 0:
        raise ValueError(f"odd positive r required, got {r}")
    deg = interlacing_degree(a, b)
    if deg <= r + 1:
        return True
    if deg > r + 2:
        return False
    sab = surrounds(a, b)
    sba = surrounds(b, a)
    # odd degree: the bookend intervals share a side, so one surround must hold
    assert sab or sba, (
        f"degree {deg} pair with neither surround at odd r={r}: a={a:#x} b={b:#x}"
    )
    return (sab and a.bit_count() <= b.bit_count()) or (
        sba and b.bit_count() <= a.bit_count()
    )


def is_weakly_r_separated_even(a: int, b: int, r: int) -> bool:
    """Weak separation for even r (right-surround plus cardinality tie-break)."""
    if r < 2 or r % 2:
        raise ValueError(f"even positive r required, got {r}")
    deg = interlacing_degree(a, b)
    if deg <= r + 1:
        return True
    if deg > r + 2:
        return False
    sab = surrounds_from_right(a, b)
    sba = surrounds_from_right(b, a)
    # even degree >= 2: the side owning the last interval right-surrounds the other
    assert sab != sba, (
        f"degree {deg} pair without unique right-surround: a={a:#x} b={b:#x}"
    )
    return (sab and a.bit_count() <= b.bit_count()) or (
        sba and b.bit_count() <= a.bit_count()
    )


def is_weakly_r_separated(a: int, b: int, r: int) -> bool:
    """Parity-dispatching weak separation predicate (r positive)."""
    if r < 1:
        raise ValueError(f"positive r required, got {r}")
    if r % 2:
        return is_weakly_r_separated_odd(a, b, r)
    return is_weakly_r_separated_even(a, b, r)


def is_double_r_comb(a: int, b: int, r: int) -> bool:
    """(r+2)-interlaced with |A xor B| = r + 2 (r even): all bricks singletons."""
    if r < 2 or r % 2:
        raise ValueError(f"even positive r required, got {r}")
    diff = a ^ b
    return diff.bit_count() == r + 2 and interlacing_degree(a, b) == r + 2
