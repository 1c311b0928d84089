"""Strong and weak r-separation predicates for pairs of subsets.

A pair (A, B) is *strongly r-separated* when its interlacing degree is
at most r + 1, i.e. the differences A - B and B - A can be covered by
at most r + 1 alternating intervals.

*Weak* r-separation allows one interval more, under one rule for either
parity of r: the pair is weakly r-separated when its degree is at most
r + 1, or it is exactly r + 2 and the side that holds max(A xor B) is
not the larger set.

The paper words the degree-(r+2) case as "A surrounds B and |A| <= |B|,
or the same with A and B swapped", where for odd r "A surrounds B" means
min(A - B) < min(B - A) and max(A - B) > max(B - A), and for even r
("from the right") the max comparison alone.  Only the side holding the
last cortege interval can surround, and at the odd degree r + 2 (odd r)
it holds the first interval too, so in both parities exactly that side
surrounds and the paper's condition is the rule above.

A *double r-comb* (even r) is a pair that is (r+2)-interlaced with
|A xor B| = r + 2: every cortege interval is a singleton.  The
smallest example on [r+2] is the pair ({2,4,...,r+2}, {1,3,...,r+1}).
"""

from __future__ import annotations

from .ground import interlacing_degree


def is_strongly_r_separated(a: int, b: int, r: int) -> bool:
    """Interlacing degree at most r + 1."""
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    return interlacing_degree(a, b) <= r + 1


def is_weakly_r_separated_odd(a: int, b: int, r: int) -> bool:
    """Weak separation for odd r."""
    if r < 1 or r % 2 == 0:
        raise ValueError(f"odd positive r required, got {r}")
    return is_weakly_r_separated(a, b, r)


def is_weakly_r_separated_even(a: int, b: int, r: int) -> bool:
    """Weak separation for even r."""
    if r < 2 or r % 2:
        raise ValueError(f"even positive r required, got {r}")
    return is_weakly_r_separated(a, b, r)


def is_weakly_r_separated(a: int, b: int, r: int) -> bool:
    """Weak separation for any positive r: degree at most r + 1, or r + 2
    with the side holding max(A xor B) no larger than the other."""
    if r < 1:
        raise ValueError(f"positive r required, got {r}")
    deg = interlacing_degree(a, b)
    if deg != r + 2:
        return deg <= r + 1
    # the difference masks are disjoint, so the larger one holds the top element
    if a & ~b > b & ~a:
        return a.bit_count() <= b.bit_count()
    return b.bit_count() <= a.bit_count()


def is_double_r_comb(a: int, b: int, r: int) -> bool:
    """(r+2)-interlaced with |A xor B| = r + 2 (r even): all bricks singletons."""
    if r < 2 or r % 2:
        raise ValueError(f"even positive r required, got {r}")
    diff = a ^ b
    return diff.bit_count() == r + 2 and interlacing_degree(a, b) == r + 2
