"""Fragmentations and membranes: slicing a cubillage by integer heights.

Run: python3 demos/05_membranes.py
"""

from zonosep.cubillage import standard_cubillage
from zonosep.membranes import (
    base_membrane,
    fragment_precedence,
    membrane_vertices,
    raising_flip,
    scan_membranes,
)
from zonosep.systems import s_formula

n, d = 4, 3
q = standard_cubillage(n, d)
deltas, succs = fragment_precedence(q)
print(f"Slicing each cube of the standard cubillage of Z({n},{d}) between")
print(f"consecutive vertex heights yields {len(deltas)} fragments, {d} per cube.")
print()

arcs = sum(len(out) for out in succs)
report = scan_membranes(q)
print(f"Fragment precedence has {arcs} arcs; its order ideals are exactly")
print(f"the membranes: {report.membrane_count} for this cubillage.  Every membrane's")
print(f"vertex system is weakly {d - 2}-separated of the same size:")
print(f"  sizes seen: {sorted(report.sizes_seen)}; closed form {s_formula(n, d - 2)}")
print()

print("Raising flips walk the membrane lattice from the front boundary to")
print("the rear, replacing the front side of one fragment by its rear side:")
current = base_membrane(q)
step = 0
progressed = True
while progressed and step < 4:
    progressed = False
    for delta in deltas:
        if delta in current.ideal:
            continue
        try:
            nxt = raising_flip(current, delta)
        except ValueError:
            continue
        step += 1
        moved = set(membrane_vertices(nxt).members) - set(
            membrane_vertices(current).members
        )
        tag = "vertices unchanged" if not moved else "apex swapped"
        print(f"  step {step}: raise {delta.label()} ({tag})")
        current = nxt
        progressed = True
        break
print("  ... and so on to the rear boundary.")
print()

print("The scan that counted them visited none of them: each vertex is")
print("present on one interval of the ideal lattice, so the count, the sizes")
print("and the violating pairs follow from the intervals:")
print(f"  decided {report.membrane_count} membranes, sizes {sorted(report.sizes_seen)}, "
      f"violations {len(report.violations)}")
