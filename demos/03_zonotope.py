"""Cyclic zonotopes, decided by rules on the generator order: vertices and boundary.

Run: python3 demos/03_zonotope.py
"""

from zonosep.geometry import boundary_vertices, zonotope_sides
from zonosep.ground import set_notation
from zonosep.systems import s_formula

print("Generators are moment-curve vectors (1, t, t^2, ...) at increasing")
print("parameters t_1 < ... < t_n.  Everything below depends only on that")
print("order: a vertex is a subset with at most d - 1 sign changes, and a")
print("facet's side is a parity count, so no coordinate is ever computed.")
print()
for t in range(1, 5):
    print(f"  xi_{t} = {tuple(str(t**j) for j in range(3))}")
print()

for n, d in [(4, 2), (4, 3), (5, 3), (6, 4)]:
    verts = boundary_vertices(n, d)
    print(f"Z({n},{d}): {len(verts)} vertices (closed form {min(s_formula(n, d - 1), 1 << n)})")
print()

n, d = 4, 3
sides = zonotope_sides(n, d)
print(f"The boundary of Z({n},{d}) splits into a front and a rear side,")
print(f"glued along the rim: {len(sides.front_facets)} front facets, "
      f"{len(sides.rear_facets)} rear facets.")
print(f"  front side vertices: {', '.join(set_notation(v) for v in sides.front)}")
print(f"  rear side vertices:  {', '.join(set_notation(v) for v in sides.rear)}")
print(f"  rim (on both sides): {', '.join(set_notation(v) for v in sides.rim)}")
