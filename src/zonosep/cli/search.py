"""`zonosep search`: the exact maximum and the inclusion-maximal systems
of one predicate, by the branch and bound of `zonosep.search`."""

from __future__ import annotations

import sys
import time
from collections import Counter

from ..search import enumerate_maximal, search_max
from ..systems import (
    KIND_STRONG,
    KIND_WEAK_EVEN,
    KIND_WEAK_EVEN_NO_COMB,
    KIND_WEAK_ODD,
    PairwisePredicate,
    check_limit,
)
from . import _add_json, _add_nr, _command, _emit_json, _nodes_per_s, _search_limit

KINDS = {
    kind.lower(): kind
    for kind in (KIND_STRONG, KIND_WEAK_ODD, KIND_WEAK_EVEN, KIND_WEAK_EVEN_NO_COMB)
}


def _predicate(args) -> tuple[int, PairwisePredicate]:
    """The --n, held to the search limit, and the predicate of --kind --r."""
    predicate = PairwisePredicate(KINDS[args.kind], args.r)
    return check_limit(args.n, *_search_limit()), predicate


def cmd_search_max(args) -> int:
    n, predicate = _predicate(args)
    start = time.perf_counter()
    found = search_max(n, predicate)
    seconds = time.perf_counter() - start
    print(f"max {predicate.label()} on [{args.n}]: {found.size}")
    print(f"witness: {found.witness}")
    print(
        f"search: {found.nodes} nodes, {found.universal} universal, "
        f"{found.symmetries} symmetries, "
        f"{found.symmetry_pruned} candidates pruned by symmetry, "
        f"{found.processes} process{'es' if found.processes > 1 else ''}, {seconds:.2f} s, "
        f"{_nodes_per_s(found.nodes, seconds)}",
        file=sys.stderr,
    )
    _emit_json(args, {"size": found.size, **found.witness.to_json(predicate)})
    return 0


def cmd_search_maximal(args) -> int:
    n, predicate = _predicate(args)
    sizes = Counter(map(len, enumerate_maximal(n, predicate, limit=args.limit)))
    emitted = sum(sizes.values())
    label = "all" if args.limit is None else f"first {args.limit}"
    print(f"{label} maximal {predicate.label()} systems on [{args.n}]: {emitted}")
    for size in sorted(sizes):
        print(f"  size {size}: {sizes[size]}")
    _emit_json(
        args,
        {
            "n": args.n,
            "predicate": predicate.to_json(),
            "count": emitted,
            "sizes": {str(k): v for k, v in sorted(sizes.items())},
        },
    )
    return 0


def add_commands(sub) -> None:
    mx = _command(sub, "max", "maximum compatible system", cmd_search_max)
    _add_nr(mx, KINDS)
    _add_json(mx)
    maximal = _command(sub, "maximal", "inclusion-maximal systems", cmd_search_maximal)
    _add_nr(maximal, KINDS)
    maximal.add_argument("--limit", type=int, default=None)
    _add_json(maximal)
