"""Exact maximum sizes, purity, and the 55-versus-57 phenomenon.

Run: python3 demos/02_search_and_nonpurity.py
"""

from zonosep.geometry import boundary_vertices
from zonosep.ground import set_notation
from zonosep.search import enumerate_maximal
from zonosep.systems import (
    check_pairwise,
    extend_to_maximal,
    max_size,
    nonpurity_witness,
    s_formula,
    strong,
    weak_odd,
)

print("Maximum sizes of weakly r-separated systems match the closed form")
print("C(n,0) + ... + C(n,r+1), found by exact branch-and-bound search:")
print()
for r in (1, 3):
    for n in range(r + 1, 7):
        size, _ = max_size(n, weak_odd(r))
        print(f"  n={n} r={r}: maximum {size}, formula {s_formula(n, r)}")
print()

print("Strong separation is pure (all maximal systems share one size)")
print("exactly when min(r, n-r) <= 2.  The first failure is n=6, r=3:")
print()
for n, r in [(5, 2), (6, 2), (6, 3)]:
    sizes = sorted({len(s) for s in enumerate_maximal(n, strong(r))})
    word = "pure" if len(sizes) == 1 else "NOT pure"
    print(f"  n={n} r={r}: maximal sizes {sizes} ({word})")
print()

print("The small maximal system is geometric.  Start from the 52 vertices")
print("of the four-dimensional cyclic zonotope on six generators, then add")
print("three more sets:")
verts = boundary_vertices(6, 4)
witness = nonpurity_witness(verts)
extras = sorted(witness.member_set() - verts.member_set(), key=lambda m: (m.bit_count(), m))
print(f"  extras: {', '.join(set_notation(m) for m in extras)}")
ok, _ = check_pairwise(witness, weak_odd(3))
maximal = extend_to_maximal(witness, weak_odd(3)) == witness
print(f"  {len(verts)} vertices + {len(extras)} extras = {len(witness)} members")
print(f"  weakly 3-separated: {ok}; inclusion-maximal: {maximal}")
size, _ = max_size(6, weak_odd(3))
print(f"  yet the maximum on [6] at r=3 is {size}, so maximal sizes differ.")
