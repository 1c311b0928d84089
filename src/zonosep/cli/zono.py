"""`zonosep zono`: the vertex set and the boundary sides of Z(n, d)."""

from __future__ import annotations

from ..geometry import boundary_vertices, zonotope_sides
from ..ground import elements
from . import _add_json, _add_nd, _command, _emit_json


def cmd_zono_vertices(args) -> int:
    verts = boundary_vertices(args.n, args.d)
    print(f"vertices of Z({args.n},{args.d}): {len(verts)}")
    print(str(verts))
    _emit_json(args, {"count": len(verts), **verts.to_json()})
    return 0


def cmd_zono_sides(args) -> int:
    sides = zonotope_sides(args.n, args.d)
    print(f"Z({args.n},{args.d}) boundary")
    print(f"front facets: {len(sides.front_facets)}")
    print(f"rear facets: {len(sides.rear_facets)}")
    print(f"front-only vertices: {len(sides.front)}")
    print(f"rear-only vertices: {len(sides.rear)}")
    print(f"rim vertices: {len(sides.rim)}")
    _emit_json(
        args,
        {
            "n": args.n,
            "d": args.d,
            "front_facets": [f.to_json() for f in sides.front_facets],
            "rear_facets": [f.to_json() for f in sides.rear_facets],
            "front": sorted(elements(v) for v in sides.front),
            "rear": sorted(elements(v) for v in sides.rear),
            "rim": sorted(elements(v) for v in sides.rim),
        },
    )
    return 0


def add_commands(sub) -> None:
    vertices = _command(sub, "vertices", "boundary vertex system", cmd_zono_vertices)
    _add_nd(vertices)
    _add_json(vertices)
    sides = _command(sub, "sides", "front and rear boundary", cmd_zono_sides)
    _add_nd(sides)
    _add_json(sides)
