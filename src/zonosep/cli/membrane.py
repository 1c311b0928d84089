"""`zonosep membrane`: count, walk and scan the membranes of a standard cubillage."""

from __future__ import annotations

from .. import cubillage as cb
from .. import membranes as mb
from ..posets import digraph_dot, topological_order
from . import (
    _add_dot,
    _add_json,
    _add_nd,
    _command,
    _cub_name,
    _emit_json,
    _print_scan,
    _status,
    _write,
)


def cmd_membrane_enumerate(args) -> int:
    q = cb.standard_cubillage(args.n, args.d, args.anti)
    what = f"{args.flavor}-membranes of {_cub_name(args.n, args.d, args.anti)}"
    census = mb.membrane_census(q, args.flavor.upper())
    word, code = _status(True, census.undecided)
    if code:  # a decided census prints its count, not a verdict
        print(f"{what}: {word}")
        return code
    print(f"{what}: {census.membrane_count}")
    blob = {
        "n": args.n,
        "d": args.d,
        "flavor": args.flavor,
        "count": census.membrane_count,
    }
    if args.flavor != "s":
        sizes = sorted(census.sizes_seen)
        print(f"vertex-system sizes: {', '.join(str(s) for s in sizes)}")
        blob.update(flavor=args.flavor.upper(), sizes=sizes)
    _emit_json(args, blob)
    if getattr(args, "dot", None):
        # an uncut fragment is its cube, so the s order is the cube precedence
        cubes = args.flavor == "s"
        labels = [(delta.cube if cubes else delta).label() for delta in census.deltas]
        dot = digraph_dot(labels, census.succs, "gamma" if cubes else "fragments")
        _write(args.dot, dot, "dot")
    return 0


def cmd_membrane_flipwalk(args) -> int:
    q = cb.standard_cubillage(args.n, args.d, args.anti)
    deltas, succs = mb.fragment_precedence(q)
    current = mb.base_membrane(q)
    for step, i in enumerate(topological_order(len(deltas), succs), 1):
        try:
            current = mb.raising_flip(current, deltas[i])
        except ValueError as exc:
            # every fragment before it in the order is raised: a broken precedence
            raise mb.MembraneInvariantError(str(exc)) from None
        size = len(mb.membrane_vertices(current))
        print(f"step {step}: raise {deltas[i].label()}, {size} vertices")
    if current.tiles != mb.rear_boundary_tiles(q):
        raise mb.MembraneInvariantError("raising every fragment misses the rear boundary")
    print(f"front to rear in {len(deltas)} raising flips")
    return 0


def cmd_membrane_scan(args) -> int:
    # scan_membranes refuses d < 3 itself, before this advice could mislead
    if args.flavor == "w" and args.d % 2 == 0 and args.d > 2:
        raise ValueError(
            "w-membranes are held to the odd-d contract (size s(n, d-2), weak (d-2)-separation), "
            f"got d={args.d}; use --flavor e at even d"
        )
    q = cb.standard_cubillage(args.n, args.d, args.anti)
    report = mb.scan_membranes(q, flavor=args.flavor.upper(), check_combs=args.combs)
    what = f"{args.flavor}-membranes of {_cub_name(args.n, args.d, args.anti)}"
    sizes = f"sizes {sorted(report.sizes_seen)}, expected {report.expected_size}"
    code = _print_scan(what, report, sizes, "scan ")
    if args.combs:
        print(f"double-comb free: {report.comb_free}")
    for violation in report.violations[:10]:
        print(f"  violation: {violation}")
    _emit_json(args, report.to_json())
    return code


def add_commands(sub) -> None:
    enumerate_ = _command(sub, "enumerate", "count membranes by flavor", cmd_membrane_enumerate)
    _add_nd(enumerate_, anti=True)
    enumerate_.add_argument("--flavor", choices=("s", "w", "e"), default="w")
    _add_json(enumerate_)
    _add_dot(enumerate_)
    flipwalk = _command(sub, "flipwalk", "raising flips front to rear", cmd_membrane_flipwalk)
    _add_nd(flipwalk, anti=True)
    scan = _command(sub, "scan", "decide the claims over every membrane", cmd_membrane_scan)
    _add_nd(scan, anti=True)
    scan.add_argument("--flavor", choices=("w", "e"), default="w")
    scan.add_argument("--combs", action="store_true", help="also scan for double combs")
    _add_json(scan)
