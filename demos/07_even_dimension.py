"""Even dimension: middle sections, double combs, and center-avoiding membranes.

Run: python3 demos/07_even_dimension.py
"""

from zonosep.cubillage import apex_vertices, standard_cubillage
from zonosep.ground import set_notation
from zonosep.membranes import (
    FLAVOR_E,
    KIND_COMB,
    fragment_precedence,
    membrane_from_ideal,
    membrane_vertices,
    scan_membranes,
)
from zonosep.systems import s_formula

n, d = 4, 4
q = standard_cubillage(n, d)
print(f"In even dimension the membrane count theorem fails: Z({n},{d})")
print("has membranes of different vertex-system sizes.")
report = scan_membranes(q, check_combs=True)
print(f"  {report.membrane_count} membranes, sizes {sorted(report.sizes_seen)}")
print()

print("The oversized membrane passes through both middle slabs of a cube")
print("and so picks up a double comb; the scan names the pair and the")
print("ideal of fragments behind that membrane:")
for violation in report.violations:
    if violation.kind == KIND_COMB:
        print(f"  {violation}")
cube = q.cubes[0]
t, h = apex_vertices(cube)
print(f"  (the apexes of {cube.label()} are {set_notation(t)} and {set_notation(h)})")
print()

enlarged = fragment_precedence(q, FLAVOR_E)[0]
centers = [delta for delta in enlarged if len(delta.slabs) == 2]
print("Merging each cube's two middle slabs into a center fragment removes")
print(f"exactly those paths: {len(enlarged)} enlarged fragments, "
      f"{len(centers)} centers.")
report = scan_membranes(q, flavor=FLAVOR_E)
print(f"Center-avoiding membranes: {report.membrane_count}, sizes "
      f"{sorted(report.sizes_seen)}; the one just behind the center:")
behind = membrane_from_ideal(q, [delta for delta in enlarged if delta.h <= d // 2], FLAVOR_E)
print(f"  size {len(membrane_vertices(behind))}")
print()

print("Scanning them for double combs and separation on ground sets 4")
print("and 5:")
for nn in (4, 5):
    report = scan_membranes(standard_cubillage(nn, 4), FLAVOR_E, check_combs=True)
    print(f"  Z({nn},4): {report.membrane_count} membranes, sizes "
          f"{sorted(report.sizes_seen)} (closed form {s_formula(nn, 2)}), "
          f"comb-free {report.comb_free}")
