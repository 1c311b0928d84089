"""`zonosep cub`: build, validate, thread and order the cubes of a cubillage."""

from __future__ import annotations

from .. import cubillage as cb
from ..ground import set_notation
from . import _add_dot, _add_json, _add_nd, _command, _cub_name, _emit_json, _status, _write


def _validate(args, q: cb.Cubillage, title: str, written=None) -> int:
    """Validate q: title, its verdict, one line per problem, then
    --json gets `written` (the report if None); returns the exit code."""
    report = cb.validate_cubillage(q)
    word, code = _status(report.ok)
    print(f"{title} validator {word}")
    for problem in report.problems:
        print(f"  problem: {problem}")
    _emit_json(args, (report if written is None else written).to_json())
    return code


def cmd_cub_build(args) -> int:
    q = cb.standard_cubillage(args.n, args.d, args.anti)
    title = f"{_cub_name(args.n, args.d, args.anti)}: {len(q.cubes)} cubes,"
    return _validate(args, q, title, q)


def cmd_cub_validate(args) -> int:
    import json as _json

    with open(args.infile, encoding="utf-8") as handle:
        q = cb.Cubillage.from_json(_json.load(handle))
    return _validate(args, q, f"cubillage of Z({q.n},{q.d}) from {args.infile}:")


def cmd_cub_beads(args) -> int:
    q = cb.standard_cubillage(args.n, args.d, args.anti)
    threads = cb.bead_thread_graph(q)
    word, code = _status(threads.ok)
    print(
        f"bead threads of {_cub_name(args.n, args.d, args.anti)}: "
        f"{len(threads.arcs)} arcs, {len(threads.threads)} threads, {word}"
    )
    for i, thread in enumerate(threads.threads):
        path = " -> ".join(set_notation(v) for v in thread)
        print(f"  thread {i}: {path}")
    for problem in threads.problems:
        print(f"  problem: {problem}")
    if getattr(args, "dot", None):
        _write(args.dot, threads.to_dot(), "dot")
    return code


def cmd_cub_gamma(args) -> int:
    from ..posets import digraph_dot, is_acyclic

    cubes, succs = cb.gamma_graph(args.n, args.d)
    word, code = _status(is_acyclic(len(cubes), succs))
    arcs = sum(len(out) for out in succs)
    print(
        f"precedence digraph on all {len(cubes)} cubes of C({args.n},{args.d}): "
        f"{arcs} arcs, acyclic {word}"
    )
    if getattr(args, "dot", None):
        _write(args.dot, digraph_dot([cube.label() for cube in cubes], succs, "gamma"), "dot")
    return code


def add_commands(sub) -> None:
    for name, anti in (("standard", False), ("anti", True)):
        help_ = f"{'anti-standard ' if anti else ''}build and validate"
        build = _command(sub, name, help_, cmd_cub_build)
        build.set_defaults(anti=anti)
        _add_nd(build)
        _add_json(build)
    validate = _command(sub, "validate", "validate a cubillage JSON file", cmd_cub_validate)
    validate.add_argument("--in", dest="infile", required=True, metavar="PATH")
    _add_json(validate)
    beads = _command(sub, "beads", "bead threads", cmd_cub_beads)
    _add_nd(beads, anti=True)
    _add_dot(beads)
    gamma = _command(sub, "gamma", "precedence digraph on all cubes", cmd_cub_gamma)
    _add_nd(gamma)
    _add_dot(gamma)
