"""Cubillages: building, validating, and reading off their structure.

Run: python3 demos/04_cubillages.py
"""

from zonosep.cubillage import (
    apex_vertices,
    bead_thread_graph,
    from_inversions,
    gamma_graph,
    inversions,
    precedence_digraph,
    standard_cubillage,
    validate_cubillage,
)
from zonosep.ground import set_notation
from zonosep.membranes import FLAVOR_S, membrane_census
from zonosep.posets import is_acyclic
from zonosep.systems import SetSystem, s_formula

n, d = 4, 3
q = standard_cubillage(n, d)
print(f"The standard cubillage of Z({n},{d}) tiles the zonotope with")
print(f"C({n},{d}) = {len(q.cubes)} parallelotopes, each named (root | type):")
print()
for cube in q.cubes:
    t, h = apex_vertices(cube)
    verts = SetSystem(n, cube.vertices())
    print(f"  {cube.label():<14} inner front apex {set_notation(t):<8} "
          f"inner rear apex {set_notation(h):<8} {len(verts)} vertices")
print()

report = validate_cubillage(q)
print(f"validator: {'ok' if report.ok else report.problems}")
print(f"vertex system size: {len(q.vertex_set())} = C({n},<= {d}) = {s_formula(n, d - 1)}")
print()

print("A cubillage is its inversion set U, a set of (d+1)-subsets: the cube of")
print("type T has the root {k not in T : k in odd_above(T) XOR T + k in U}.")
print("U = {} is the standard cubillage; U tiles exactly when every (d+2)-set")
print("holds a prefix or a suffix of its (d+1)-subsets in lexicographic order.")
tilings = [u for u in range(1 << 4) if not inversions(from_inversions(4, 2, u))[1]]
print(f"Of the 16 sets of 3-subsets of [4], {len(tilings)} tile Z(4,2): the rhombus")
print("tilings of the octagon.")
print()

cubes = q.cubes
succs = precedence_digraph(cubes)
print("A cube precedes another when a rear facet of the first is a front")
print("facet of the second; the relation is acyclic and orders the tiling")
print("from the front boundary to the rear:")
for i, out in enumerate(succs):
    if out:
        targets = ", ".join(cubes[j].label() for j in out)
        print(f"  {cubes[i].label()} -> {targets}")
every_cube, every_succs = gamma_graph(n, d)
print(f"acyclic on all cubes of [{n}] at d={d}: {is_acyclic(len(every_cube), every_succs)}")
print()

threads = bead_thread_graph(q)
print("Apex arcs t_C -> h_C chain into bead threads, one vertex-disjoint")
print("path per front-side inner vertex:")
for i, thread in enumerate(threads.threads):
    print(f"  thread {i}: {' -> '.join(set_notation(v) for v in thread)}")
print()

census = membrane_census(q, FLAVOR_S)
print(f"Ideals of the precedence order are membranes: {census.membrane_count} of them here,")
print("from the front boundary (empty ideal) to the rear (all cubes), each")
sizes = ", ".join(str(s) for s in sorted(census.sizes_seen))
print(f"with {sizes} vertices = C({n},<= {d - 1}) = {s_formula(n, d - 2)}.")
