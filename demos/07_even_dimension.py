"""Even dimension: middle sections, double combs, and center-avoiding membranes.

Run: python3 demos/07_even_dimension.py
"""

from zonosep.cubillage import apex_vertices, standard_cubillage
from zonosep.ground import set_notation
from zonosep.membranes import (
    FLAVOR_E,
    double_comb_scan,
    fragments,
    is_e_membrane,
    membrane_from_ideal,
    membrane_vertices,
    property_P_scan,
    scan_membranes,
)
from zonosep.systems import s_formula

n, d = 4, 4
q = standard_cubillage(n, d)
print(f"In even dimension the membrane count theorem fails: Z({n},{d})")
print("has membranes of different vertex-system sizes.")
report = scan_membranes(q)
print(f"  {report.membrane_count} membranes, sizes {sorted(report.sizes_seen)}")
print()

# the membrane between the two middle slabs of the cube
big = membrane_from_ideal(q, [fr for fr in fragments(q) if fr.h <= d // 2])
combs = double_comb_scan(membrane_vertices(big), d - 2)
print(f"The oversized membrane, of size {len(membrane_vertices(big))}, passes through")
print("both middle slabs of a cube and so picks up a double comb:")
for a, b in combs:
    print(f"  comb pair {set_notation(a)}, {set_notation(b)}")
cube = q.cubes[0]
t, h = apex_vertices(cube)
print(f"  (the apexes of {cube.label()} are {set_notation(t)} and {set_notation(h)})")
print()

enlarged = fragments(q, FLAVOR_E)
centers = [delta for delta in enlarged if len(delta.slabs) == 2]
print("Merging each cube's two middle slabs into a center fragment removes")
print(f"exactly those paths: {len(enlarged)} enlarged fragments, "
      f"{len(centers)} centers.")
report = scan_membranes(q, flavor=FLAVOR_E)
print(f"Center-avoiding membranes: {report.membrane_count}, sizes "
      f"{sorted(report.sizes_seen)}; the one just behind the center:")
behind = membrane_from_ideal(q, [delta for delta in enlarged if delta.h <= d // 2], FLAVOR_E)
print(f"  size {len(membrane_vertices(behind))}, center-avoiding {is_e_membrane(q, behind)}")
print()

print("Scanning them for double combs and separation on ground sets 4")
print("and 5:")
for nn in (4, 5):
    report = property_P_scan(standard_cubillage(nn, 4))
    print(f"  Z({nn},4): {report.membrane_count} membranes, sizes "
          f"{sorted(report.sizes_seen)} (closed form {s_formula(nn, 2)}), "
          f"comb-free {report.comb_free}")
