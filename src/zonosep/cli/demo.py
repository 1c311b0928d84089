"""`zonosep demo`: the non-purity of weak 3-separation on [6], narrated."""

from __future__ import annotations

from ..ground import set_notation
from ..systems import canonical_key, max_size, weak_odd
from . import _command, _nonpurity_instance


def cmd_demo_nonpurity(args) -> int:
    verts, missing, witness = _nonpurity_instance()
    print("The vertex collections of cyclic zonotopes are weakly separated,")
    print("but not every maximal weakly separated collection has maximum size.")
    print()
    print(f"Z(6,4) has {len(verts)} vertices; its vertex sets are pairwise")
    print("strongly 3-separated, hence weakly 3-separated.")
    names = ", ".join(set_notation(m) for m in missing)
    print(f"The other {len(missing)} subsets of [6]: {names}")
    extras = sorted(witness.member_set() - verts.member_set(), key=canonical_key)
    print()
    print(f"Adding {', '.join(set_notation(m) for m in extras)} keeps the")
    print(f"collection weakly 3-separated and makes it inclusion-maximal at")
    print(f"{len(witness)} members.")
    size, _ = max_size(6, weak_odd(3))
    print(f"Yet the maximum over [6] is {size}, attained elsewhere: two maximal")
    print("collections of different sizes, so weak 3-separation is not pure.")
    return 0


def add_commands(sub) -> None:
    _command(sub, "nonpurity", "the 52/55/57 story", cmd_demo_nonpurity)
