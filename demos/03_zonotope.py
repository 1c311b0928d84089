"""Cyclic zonotopes in exact rational arithmetic: vertices and boundary.

Run: python3 demos/03_zonotope.py
"""

from zonosep.geometry import boundary_vertices, veronese, zonotope_sides
from zonosep.ground import set_notation
from zonosep.systems import s_formula

print("Generators are moment-curve vectors (1, t, t^2, ...) with distinct")
print("parameters; every flag minor is positive, so the configuration is")
print("cyclic and all certificates below are exact Fraction arithmetic.")
print()
config = veronese(4, 3)
for i, col in enumerate(config.columns, start=1):
    print(f"  xi_{i} = {tuple(str(c) for c in col)}")
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
