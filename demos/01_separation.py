"""Interval corteges and the separation predicates, by hand-sized example.

Run: python3 demos/01_separation.py
"""

from zonosep.ground import interval_cortege, interlacing_degree, mask_of, set_notation
from zonosep.separation import (
    is_double_r_comb,
    is_strongly_r_separated,
    is_weakly_r_separated,
)

n = 6
pairs = [
    ((1, 2, 6), (2, 3, 4, 5)),
    ((2,), (1, 3)),
    ((1, 3), (2, 4)),
    ((1, 4), (2, 3)),
    ((2, 3, 4), (1, 2, 5, 6)),
]

print("Interval corteges: the minimal alternating interval cover of the")
print("two difference sets.  The number of intervals is the interlacing")
print("degree; at most r+1 intervals means strongly r-separated.")
print()
for a_elems, b_elems in pairs:
    a, b = mask_of(a_elems, n), mask_of(b_elems, n)
    cortege = interval_cortege(a, b)
    shape = " ".join(f"[{iv.lo},{iv.hi}]{iv.side}" for iv in cortege.intervals)
    print(f"{set_notation(a):>12} vs {set_notation(b):<12} degree {cortege.degree}  {shape}")
print()

print("Weak separation relaxes the degree bound by one step when the side")
print("holding the largest element of the symmetric difference is not the")
print("larger set, for odd and even r alike.  Verdicts at r = 1, 2 and 3:")
print()
for a_elems, b_elems in pairs:
    a, b = mask_of(a_elems, n), mask_of(b_elems, n)
    cells = []
    for r in (1, 2, 3):
        strong = is_strongly_r_separated(a, b, r)
        weak = is_weakly_r_separated(a, b, r)
        cells.append(f"r={r}: strong {str(strong):<5} weak {str(weak):<5}")
    print(f"{set_notation(a):>12} vs {set_notation(b):<12} {'  '.join(cells)}")
print()

a, b = mask_of((1, 3), 4), mask_of((2, 4), 4)
print("The pair {1,3}, {2,4} on [4] is the smallest double 2-comb: weakly")
print("2-separated, degree 4 = r+2, and each side alternates singletons.")
print(f"double 2-comb: {is_double_r_comb(a, b, 2)}")
print(f"cortege: {interval_cortege(a, b).to_json()}")
print(f"degree: {interlacing_degree(a, b)}")
