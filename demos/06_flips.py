"""Elementary flips and their witness theorems, verified by enumeration.

Run: python3 demos/06_flips.py
"""

from zonosep.flips import (
    FlipSite,
    MODE_SHARP,
    RAISE,
    apply_flip,
    neighbors,
    neighbors_down,
    neighbors_up,
    verify_flip_theorem_odd,
    verify_local_neighb_even,
)
from zonosep.ground import mask_of, set_notation
from zonosep.systems import SetSystem

print("The smallest flip site: X empty, P = {2}, Q = {1,3}.  The pair")
print("{2}, {1,3} is the unique bad pair among the site's pool, and the")
print("four witnesses make the swap safe:")
site = FlipSite(3, 0, mask_of([2], 3), mask_of([1, 3], 3))
print(f"  raised witnesses:  {', '.join(set_notation(m) for m in neighbors_up(site).members)}")
print(f"  lowered witnesses: {', '.join(set_notation(m) for m in neighbors_down(site).members)}")
w = SetSystem.from_masks(3, (mask_of(s, 3) for s in [[1], [3], [1, 2], [2, 3], [2]]))
flipped = apply_flip(w, site, RAISE, MODE_SHARP)
print(f"  {w}")
print(f"  -> {flipped}")
print()

print("A larger odd site at r = 3 separates the pools:")
big = FlipSite(7, mask_of([6], 7), mask_of([2, 4], 7), mask_of([1, 3, 5], 7))
print(f"  site {big.label()}, r = {big.r}")
print(f"  full pool size {len(neighbors(big).members)}, "
      f"raised {len(neighbors_up(big).members)}, lowered {len(neighbors_down(big).members)}")
print()

print("The witness theorem says: a set in bad position against XP always")
print("clashes with a raised witness too (and dually for XQ).  Checked by")
print("complete enumeration over every site and every Y:")
for n, r in [(5, 1), (6, 3), (7, 3)]:
    report = verify_flip_theorem_odd(n, r)
    print(f"  n={n} r={r}: {report.sites} sites, {report.checks} checks, "
          f"{len(report.counterexamples)} counterexamples")
print()

print("Even r behaves differently: the exceptional sets are classified as")
print("XQ plus one element or XP minus one, each with a unique double-comb")
print("partner in the pool; degree-above-r+2 cases are recorded only:")
for n, r in [(5, 2), (6, 2)]:
    report = verify_local_neighb_even(n, r)
    print(f"  n={n} r={r}: {report.sites} sites, {report.checks} checks, "
          f"{report.recorded} recorded, {len(report.counterexamples)} counterexamples")
