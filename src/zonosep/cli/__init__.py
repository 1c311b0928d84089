"""Command-line front end.

Two-level subcommands: predicates and corteges (sep), exact searches
(search), zonotope geometry (zono), cubillage construction and checks
(cub), membrane enumeration and scans (membrane), elementary flips
(flip), the exhaustive verification suites (verify), and a narrated
non-purity walkthrough (demo).

Exit codes: 0 all checks passed, 1 a verification or validation
failed or an internal invariant broke, 2 usage error, 3 the run was
capped or left undecided and did not cover its whole range.  One rule,
`_status`, gives every PASS, FAIL or INCOMPLETE verdict its word and
its exit code, and every handler takes both from it.  Output is
deterministic for fixed flags: tables to stdout, machine-readable JSON
or DOT to files on request; counters and timings go to stderr only.
An output path whose directory cannot be written is refused before the
handler runs.

A command compiles only what it runs.  This package holds `main`, the
parser and the helpers that more than one group shares, and imports no
zonosep module at its top; each group's handlers and its `add_commands`
live in the module named after the group (`zonosep.cli.sep`, ...
`zonosep.cli.demo`), and `build_parser` imports the one group that the
command line names (none for the top-level `--help`).  A group module
imports the library modules all its commands drive, and a handler the
ones only it drives: the maximum search (`zonosep.search`) loads for
`search max|maximal`, `verify snr|wnr` and `demo nonpurity` alone.
The CLI is a package so that `python -m zonosep.cli` runs `__main__.py`
and imports this file once; a flat `cli.py` would run as `__main__`
and be compiled again by the first group module that imports from it.
Of the standard library a command pays for `argparse`, and the package
for `typing` (its NamedTuple records), `collections`, `functools`,
`itertools`, `math`, `operator` and `time`; `json` loads only in a
command that reads or writes a JSON file, and `heapq` only for a
topological order.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # for annotations only: the helpers import these where they run them
    from .. import membranes as mb
    from ..systems import SetSystem


def _parse_set(text: str, n: int) -> int:
    from ..ground import mask_of

    if text in ("", "-"):
        return 0
    try:
        elems = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse set {text!r}") from None
    if any(not 1 <= e <= n for e in elems):
        raise ValueError(f"set {text!r} leaves the ground set [{n}]")
    return mask_of(elems, n)


def _write(path: str, payload: str, what: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)
    print(f"wrote {what} to {path}")


def _emit_json(args, blob: dict) -> None:
    if getattr(args, "json", None):  # every JSON file names its schema
        from ..systems import SCHEMA, dump_json

        _write(args.json, dump_json({**blob, "schema": SCHEMA}), "json")


def _check_output(path: str) -> None:
    """Raise ValueError unless a file can be written at path: a writable
    directory holds it, and it is not a directory or a read-only file."""
    folder = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        raise ValueError(f"cannot write {path}: it is a directory")
    if not os.path.isdir(folder):
        raise ValueError(f"cannot write {path}: no directory {folder}")
    if not os.access(folder, os.W_OK) or os.path.exists(path) and not os.access(path, os.W_OK):
        raise ValueError(f"cannot write {path}: permission denied")


def _cub_name(n: int, d: int, anti: bool) -> str:
    return f"{'anti-' if anti else ''}Z({n},{d})"


def _status(ok: bool, undecided: str | None = None) -> tuple[str, int]:
    """The verdict word and exit code of a report or a suite: FAIL and 1 if
    anything failed, even with another part undecided; else INCOMPLETE and
    3 (with the reason) if anything was undecided, never PASS; else PASS, 0."""
    if not ok:
        return "FAIL", 1
    if undecided is not None:
        return f"INCOMPLETE (not decided: {undecided})", 3
    return "PASS", 0


def _search_limit() -> tuple[int, str]:
    """check_limit's limit and its name for the command line's searches:
    the default bound, which no option raises."""
    from ..systems import DEFAULT_EXHAUSTIVE_BOUND

    return (
        DEFAULT_EXHAUSTIVE_BOUND,
        "{}, the largest ground set the command line searches exhaustively",
    )


def _nodes_per_s(nodes: int, seconds: float) -> str:
    return f"{nodes / seconds if seconds else 0.0:.0f} nodes/s"


def _print_scan(what: str, report: mb.MembraneCensus, detail: str, head: str = "") -> int:
    """The counters and phase seconds of a decided scan on stderr, then
    its line ending in the verdict; returns the exit code."""
    s = report.stats
    if report.undecided is None:
        print(
            f"decided {what}: {s['fragments']} fragments, {s['cubes_cut']} cubes cut, "
            f"{s['cubes_reused']} reused, {s['vertices']} vertices, "
            f"{s['states']} memo states, {s['pairs']} pairs tested; "
            f"precedence {s['precedence_s']:.3f} s, lifespans and intervals "
            f"{s['intervals_s']:.3f} s, count {s['count_s']:.3f} s, "
            f"pairs {s['pairs_s']:.3f} s",
            file=sys.stderr,
        )
    word, code = _status(not report.violations, report.undecided)
    print(f"{head}{what}: {report.membrane_count} scanned, {detail}, {word}")
    return code


def _nonpurity_instance() -> tuple[SetSystem, list[int], SetSystem]:
    """Z(6,4)'s vertex system, the subsets of [6] outside it in canonical
    order, and the 55-member maximal witness."""
    from ..geometry import boundary_vertices
    from ..systems import canonical_key, nonpurity_witness

    verts = boundary_vertices(6, 4)
    missing = sorted(set(range(64)) - verts.member_set(), key=canonical_key)
    return verts, missing, nonpurity_witness(verts)


# ------------------------------------------------------------ parsing


def _add_json(parser) -> None:
    parser.add_argument("--json", metavar="PATH", help="write JSON report to PATH")


def _add_dot(parser) -> None:
    parser.add_argument("--dot", metavar="PATH", help="write DOT graph to PATH")


def _add_nd(parser, anti: bool = False) -> None:
    """--n and --d; with anti, --anti for either standard cubillage."""
    parser.add_argument("--n", type=int, required=True, help="ground set size")
    parser.add_argument("--d", type=int, required=True, help="dimension, at most n")
    if anti:
        parser.add_argument("--anti", action="store_true")


def _add_pair(parser) -> None:
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--a", required=True, help="comma-separated elements")
    parser.add_argument("--b", required=True)


def _add_site(parser) -> None:
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--x", default="", help="comma-separated, may be empty")
    parser.add_argument("--p", required=True)
    parser.add_argument("--q", required=True)


def _add_nr(parser, kinds=()) -> None:
    """--n and --r; with kinds, the predicate's --kind, one of them, between them."""
    parser.add_argument("--n", type=int, required=True)
    if kinds:
        parser.add_argument("--kind", choices=sorted(kinds), required=True)
    parser.add_argument("--r", type=int, required=True)


def _command(sub, name: str, help_: str, func) -> argparse.ArgumentParser:
    """The parser of one command, bound to the handler that runs it."""
    parser = sub.add_parser(name, help=help_)
    parser.set_defaults(func=func)
    return parser


# each group's help line; its commands are built by add_commands in the
# module of the same name
GROUPS = {
    "sep": "pairwise separation predicates",
    "search": "exact searches over systems",
    "zono": "cyclic zonotope geometry",
    "cub": "cubillages",
    "membrane": "membranes of a cubillage",
    "flip": "elementary flips on collections",
    "verify": "exhaustive verification suites",
    "demo": "narrated walkthroughs",
}


def build_parser(group: str | None) -> argparse.ArgumentParser:
    """The top-level parser with every group, and the commands of `group`
    alone (of none for None): a command line runs one group, and only
    that group's module is imported."""
    parser = argparse.ArgumentParser(
        prog="zonosep",
        description="exact combinatorics of separated set systems and cubillages",
    )
    top = parser.add_subparsers(dest="group", required=True)
    for name, help_ in GROUPS.items():
        group_parser = top.add_parser(name, help=help_)
        if name == group:
            commands = group_parser.add_subparsers(dest="command", required=True)
            # __import__, the import statement's own path, which -X importtime reports
            __import__(f"{__name__}.{name}", fromlist=["add_commands"]).add_commands(commands)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the top level has no option that takes a value, so the first word
    # naming a group is the group argparse will select
    args = build_parser(next((a for a in argv if a in GROUPS), None)).parse_args(argv)
    try:
        # a file that cannot be written is refused before the run, not after it
        for path in (getattr(args, "json", None), getattr(args, "dot", None)):
            if path:
                _check_output(path)
        return args.func(args)
    except (RuntimeError, ArithmeticError, AssertionError) as exc:
        # flips.FalsificationError, a stated claim that failed, by its class
        # name so that commands which never run a flip need not import flips;
        # anything else is a broken invariant of the program itself
        label = "FALSIFICATION" if type(exc).__name__ == "FalsificationError" else "internal error"
        print(f"{label}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
