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

A command loads only what it runs: this module imports `systems` (with
`ground` and `separation`), each handler imports the heavier modules it
drives, and the parser builds the commands of the named group alone.
Of the standard library a command pays for `argparse`, and the package
for `typing` (its NamedTuple records), `collections`, `functools`,
`itertools`, `math`, `operator` and `time`; `json` loads only in a
command that reads or writes a JSON file, and `heapq` only for a
topological order.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from math import comb
from typing import TYPE_CHECKING

from .ground import elements, interval_cortege, mask_of, set_notation
from .separation import is_strongly_r_separated, is_weakly_r_separated
from .systems import (
    DEFAULT_EXHAUSTIVE_BOUND,
    KIND_STRONG,
    KIND_WEAK_EVEN,
    KIND_WEAK_EVEN_NO_COMB,
    KIND_WEAK_ODD,
    RELATION_TABLE_CAP,
    SCHEMA,
    PairwisePredicate,
    SetSystem,
    canonical_key,
    dump_json,
    enumerate_maximal,
    max_size,
    nonpurity_witness,
    s_formula,
    search_max,
    check_limit,
    check_pairwise,
    extend_to_maximal,
    strong,
    weak_odd,
)

if TYPE_CHECKING:  # for annotations only: the handlers import these where they run them
    from . import cubillage as cb
    from . import flips as fl
    from . import membranes as mb

KINDS = {
    kind.lower(): kind
    for kind in (KIND_STRONG, KIND_WEAK_ODD, KIND_WEAK_EVEN, KIND_WEAK_EVEN_NO_COMB)
}

# the search limit and its name on the command line, which has no bound option
CLI_SEARCH_LIMIT = (
    DEFAULT_EXHAUSTIVE_BOUND,
    "{}, the largest ground set the command line searches exhaustively",
)


def _parse_set(text: str, n: int) -> int:
    if text in ("", "-"):
        return 0
    try:
        elems = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse set {text!r}") from None
    if any(not 1 <= e <= n for e in elems):
        raise ValueError(f"set {text!r} leaves the ground set [{n}]")
    return mask_of(elems, n)


def _parse_members(text: str, n: int) -> list[int]:
    if text in ("", "-"):
        return []
    return [_parse_set(part, n) for part in text.split(";")]


def _parse_shard(text: str) -> tuple[int, int]:
    try:
        k, m = text.split("/")
        return int(k), int(m)
    except ValueError:
        raise ValueError(f"shard must look like k/m, got {text!r}") from None


def _write(path: str, payload: str, what: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)
    print(f"wrote {what} to {path}")


def _emit_json(args, blob: dict) -> None:
    if getattr(args, "json", None):  # every JSON file names its schema
        _write(args.json, dump_json({**blob, "schema": SCHEMA}), "json")


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


# ---------------------------------------------------------------- sep


def cmd_sep_check(args) -> int:
    a = _parse_set(args.a, args.n)
    b = _parse_set(args.b, args.n)
    mode = "strong" if args.strong else "weak"
    verdict = (is_strongly_r_separated if args.strong else is_weakly_r_separated)(a, b, args.r)
    print(
        f"{mode} r={args.r} {set_notation(a)} vs {set_notation(b)}: "
        f"{str(verdict).lower()}"
    )
    _emit_json(
        args,
        {
            "a": elements(a),
            "b": elements(b),
            "mode": mode,
            "r": args.r,
            "verdict": verdict,
        },
    )
    return 0


def cmd_sep_cortege(args) -> int:
    a = _parse_set(args.a, args.n)
    b = _parse_set(args.b, args.n)
    cortege = interval_cortege(a, b)
    print(f"pair {set_notation(a)} vs {set_notation(b)}")
    print(f"degree {cortege.degree}")
    for iv in cortege.intervals:
        print(f"  [{iv.lo},{iv.hi}] side {iv.side}")
    _emit_json(
        args,
        {
            "a": elements(a),
            "b": elements(b),
            "degree": cortege.degree,
            "intervals": cortege.to_json(),
        },
    )
    return 0


# ------------------------------------------------------------- search


def _predicate(args) -> tuple[int, PairwisePredicate]:
    """The --n, held to the search limit, and the predicate of --kind --r."""
    predicate = PairwisePredicate(KINDS[args.kind], args.r)
    return check_limit(args.n, *CLI_SEARCH_LIMIT), predicate


def _nodes_per_s(nodes: int, seconds: float) -> str:
    return f"{nodes / seconds if seconds else 0.0:.0f} nodes/s"


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


# --------------------------------------------------------------- zono


def cmd_zono_vertices(args) -> int:
    from .geometry import boundary_vertices

    verts = boundary_vertices(args.n, args.d)
    print(f"vertices of Z({args.n},{args.d}): {len(verts)}")
    print(str(verts))
    _emit_json(args, {"count": len(verts), **verts.to_json()})
    return 0


def cmd_zono_sides(args) -> int:
    from .geometry import zonotope_sides

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


# ---------------------------------------------------------------- cub


def _validate(args, q: cb.Cubillage, title: str, written=None) -> int:
    """Validate q: title, its verdict, one line per problem, then
    --json gets `written` (the report if None); returns the exit code."""
    from . import cubillage as cb

    report = cb.validate_cubillage(q)
    word, code = _status(report.ok)
    print(f"{title} validator {word}")
    for problem in report.problems:
        print(f"  problem: {problem}")
    _emit_json(args, (report if written is None else written).to_json())
    return code


def cmd_cub_build(args) -> int:
    from . import cubillage as cb

    q = cb.standard_cubillage(args.n, args.d, args.anti)
    title = f"{_cub_name(args.n, args.d, args.anti)}: {len(q.cubes)} cubes,"
    return _validate(args, q, title, q)


def cmd_cub_validate(args) -> int:
    import json as _json

    from . import cubillage as cb

    with open(args.infile, encoding="utf-8") as handle:
        q = cb.Cubillage.from_json(_json.load(handle))
    return _validate(args, q, f"cubillage of Z({q.n},{q.d}) from {args.infile}:")


def cmd_cub_beads(args) -> int:
    from . import cubillage as cb

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
    from . import cubillage as cb
    from .posets import digraph_dot, is_acyclic

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


# ----------------------------------------------------------- membrane


def cmd_membrane_enumerate(args) -> int:
    from . import cubillage as cb
    from . import membranes as mb
    from .posets import digraph_dot

    q = cb.standard_cubillage(args.n, args.d, args.anti)
    what = f"{args.flavor}-membranes of {_cub_name(args.n, args.d, args.anti)}"
    census = mb.membrane_census(q, args.flavor.upper())
    word, code = _status(True, census.undecided)
    if code:  # a decided census prints its count, not a verdict
        print(f"{what}: {word}")
        return code
    print(f"{what}: {census.count}")
    blob = {
        "n": args.n,
        "d": args.d,
        "flavor": args.flavor,
        "count": census.count,
    }
    if args.flavor != "s":
        sizes = sorted(census.sizes)
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
    from . import cubillage as cb
    from . import membranes as mb
    from .posets import topological_order

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


def _print_scan(what: str, report: mb.MembraneScanReport, detail: str, head: str = "") -> int:
    """The counters and phase seconds of a decided scan on stderr, then
    its line ending in the verdict; returns the exit code."""
    s = report.stats
    if report.undecided is None:
        print(
            f"decided {what}: {s['fragments']} fragments, {s['vertices']} vertices, "
            f"{s['states']} memo states, {s['pairs']} pairs tested; "
            f"precedence {s['precedence_s']:.3f} s, lifespans and intervals "
            f"{s['intervals_s']:.3f} s, count {s['count_s']:.3f} s, "
            f"pairs {s['pairs_s']:.3f} s",
            file=sys.stderr,
        )
    word, code = _status(not report.violations, report.undecided)
    print(f"{head}{what}: {report.membrane_count} scanned, {detail}, {word}")
    return code


def cmd_membrane_scan(args) -> int:
    from . import cubillage as cb
    from . import membranes as mb

    if args.flavor == "w" and args.d % 2 == 0:
        raise ValueError(
            "w-membranes are held to the odd-d contract (size s(n, d-2), weak (d-2)-separation), "
            f"got d={args.d}; use --flavor e at even d"
        )
    q = cb.standard_cubillage(args.n, args.d, args.anti)
    report = mb.scan_membranes(
        q,
        flavor=args.flavor.upper(),
        r=args.r,
        check_combs=args.combs,
    )
    what = f"{args.flavor}-membranes of {_cub_name(args.n, args.d, args.anti)}"
    sizes = f"sizes {sorted(report.sizes_seen)}, expected {report.expected_size}"
    code = _print_scan(what, report, sizes, "scan ")
    if args.combs:
        print(f"double-comb free: {report.comb_free}")
    for violation in report.violations[:10]:
        print(f"  violation: {violation}")
    _emit_json(args, report.to_json())
    return code


# --------------------------------------------------------------- flip


def _site(args) -> fl.FlipSite:
    from . import flips as fl

    return fl.FlipSite(args.n, *(_parse_set(text, args.n) for text in (args.x, args.p, args.q)))


def cmd_flip_witnesses(args) -> int:
    from . import flips as fl

    site = _site(args)
    print(f"site {site.label()} on [{args.n}]")
    print(f"parity {site.parity}, r = {site.r}")
    up = fl.neighbors_up(site).members
    down = fl.neighbors_down(site).members
    print(f"raised witnesses: {', '.join(set_notation(m) for m in up)}")
    print(f"lowered witnesses: {', '.join(set_notation(m) for m in down)}")
    blob = {
        "site": site.to_json(),
        "up": [elements(m) for m in up],
        "down": [elements(m) for m in down],
    }
    if site.parity == fl.PARITY_ODD:
        pool = fl.neighbors(site)
        print(f"full pool: {len(pool.members)} members")
        blob["pool"] = [elements(m) for m in pool.members]
    _emit_json(args, blob)
    return 0


def cmd_flip_apply(args) -> int:
    from . import flips as fl

    site = _site(args)
    w = SetSystem.from_masks(args.n, _parse_members(args.members, args.n))
    flipped = fl.apply_flip(w, site, args.direction, args.mode)
    print(f"{args.direction} flip at {site.label()}: ok")
    print(f"result: {flipped}")
    _emit_json(args, flipped.to_json())
    return 0


# ------------------------------------------------------------- verify


def _suite_range(option: str, top: int, low: int = 2, *limit) -> range:
    """low..top, a suite's range of n (--nmax) or d (--dmax), checked whole
    before its first line: an empty range, or a top past the limit given
    as check_limit's arguments, is a usage error."""
    if top < low:
        raise ValueError(f"{option} {top} leaves no {option[2]} in {low}..{option[2:]} to verify")
    if limit:
        check_limit(top, *limit)
    return range(low, top + 1)


def _verify_sizes(args) -> int:
    """verify snr (STRONG(r), 1 <= r < n) and wnr (WEAK_ODD(1) and (3)):
    search each (n, predicate) and hold its maximum to s(n, r): one line
    per instance, then one stderr line with the instances, their search
    nodes in total and the seconds."""
    ns = _suite_range("--nmax", args.nmax, 2, *CLI_SEARCH_LIMIT)
    if args.command == "snr":
        what, instances = "strong", ((n, strong(r)) for n in ns for r in range(1, n))
    else:
        what, instances = "weak", ((n, weak_odd(r)) for r in (1, 3) for n in range(r + 1, ns.stop))
    all_ok = True
    count = nodes = 0
    start = time.perf_counter()
    for n, predicate in instances:
        found = search_max(n, predicate)
        count += 1
        nodes += found.nodes
        want = s_formula(n, predicate.r)
        ok = found.size == want
        all_ok &= ok
        print(
            f"{what} n={n} r={predicate.r}: max {found.size}, bound {want}, "
            f"{_status(ok)[0]}"
        )
    seconds = time.perf_counter() - start
    print(
        f"{args.command}: {count} instances, {nodes} search nodes, {seconds:.2f} s, "
        f"{_nodes_per_s(nodes, seconds)}",
        file=sys.stderr,
    )
    return _status(all_ok)[1]


def _harness(args, report: fl.HarnessReport) -> int:
    """A harness run: its counters and phase seconds on stderr, its verdict
    line and first counterexamples, its JSON; returns the exit code."""
    s = report.stats
    clauses = Counter(bad.get("clause", "dichotomy") for bad in report.counterexamples)
    by_clause = ", ".join(f"{c} {k}" for c, k in sorted(clauses.items()))
    rate = report.checks / s["sites_s"] if s["sites_s"] else 0.0
    print(
        f"{report.name}: {report.sites} sites in {s['patterns']} patterns, "
        f"{report.checks} checks, {report.recorded} recorded, "
        f"{len(report.counterexamples)} counterexamples"
        f"{f' ({by_clause})' if by_clause else ''}, "
        f"{s['judged']} judged, {s['memo']} memo entries; "
        f"table {s['table_s']:.3f} s, sites {s['sites_s']:.3f} s, {rate:.0f} checks/s",
        file=sys.stderr,
    )
    word, code = _status(report.ok)
    shard = f" shard {report.shard}" if report.shard else ""
    print(
        f"{report.name} n={report.n} r={report.r}{shard}: "
        f"{report.sites} sites, {report.checks} checks, "
        f"{report.recorded} recorded, {word}"
    )
    for bad in report.counterexamples[:10]:
        print(f"  counterexample: {bad}")
    _emit_json(args, report.to_json())
    return code


def cmd_verify_flips(args) -> int:
    from . import flips as fl

    shard = _parse_shard(args.shard) if args.shard else None
    if args.parity == "odd":
        report = fl.verify_flip_theorem_odd(args.n, args.r, shard=shard)
    else:
        report = fl.verify_local_neighb_even(args.n, args.r, shard=shard)
    return _harness(args, report)


def cmd_verify_refined(args) -> int:
    from . import flips as fl

    return _harness(args, fl.verify_refined_lemma(args.n, args.r))


def _precedence_digraphs(ns: range, dmax: int):
    """Each digraph `verify acyclicity` judges, as (name, nodes, successors)."""
    from . import cubillage as cb
    from . import membranes as mb

    for n in ns:
        for d in range(2, min(n, dmax) + 1):
            cubes, succs = cb.gamma_graph(n, d)
            yield f"precedence on all cubes, n={n} d={d}", len(cubes), succs
    for n, d in ((4, 2), (4, 3), (5, 3), (6, 4), (5, 5)):  # the structural instances
        for anti in (False, True):
            q = cb.standard_cubillage(n, d, anti)
            # the enlarged fragmentation exists at even d only
            flavors = ((mb.FLAVOR_W, "fragment"), (mb.FLAVOR_E, "enlarged"))[: 2 - d % 2]
            for flavor, what in flavors:
                deltas, succs = mb.fragment_precedence(q, flavor)
                yield f"{what} precedence {_cub_name(n, d, anti)}", len(deltas), succs


def cmd_verify_acyclicity(args) -> int:
    from .posets import is_acyclic

    ns = _suite_range("--nmax", args.nmax, 2, RELATION_TABLE_CAP)
    _suite_range("--dmax", args.dmax)
    all_ok = True
    digraphs = nodes = arcs = 0
    start = time.perf_counter()
    for name, count, succs in _precedence_digraphs(ns, args.dmax):
        ok = is_acyclic(count, succs)
        all_ok &= ok
        digraphs += 1
        nodes += count
        arcs += sum(map(len, succs))
        print(f"{name}: {_status(ok)[0]}")
    seconds = time.perf_counter() - start
    print(
        f"acyclicity: {digraphs} digraphs, {nodes} nodes, {arcs} arcs, {seconds:.2f} s",
        file=sys.stderr,
    )
    return _status(all_ok)[1]


def cmd_verify_membranes(args) -> int:
    from . import cubillage as cb
    from . import membranes as mb

    ns = _suite_range("--nmax", args.nmax, 3, RELATION_TABLE_CAP)
    targets = [(n, 3) for n in ns] + [(5, 5)]
    all_ok, undecided = True, None
    for n, d in targets:
        report = mb.scan_membranes(cb.standard_cubillage(n, d))
        _print_scan(f"w-membranes of Z({n},{d})", report, f"size {report.expected_size}")
        all_ok &= not report.violations
        undecided = undecided or report.undecided
    return _status(all_ok, undecided)[1]


def _nonpurity_instance() -> tuple[SetSystem, list[int], SetSystem]:
    """Z(6,4)'s vertex system, the subsets of [6] outside it in canonical
    order, and the 55-member maximal witness."""
    from .geometry import boundary_vertices

    verts = boundary_vertices(6, 4)
    missing = sorted(set(range(64)) - verts.member_set(), key=canonical_key)
    return verts, missing, nonpurity_witness(verts)


def cmd_verify_nonpurity(args) -> int:
    start = time.perf_counter()
    verts, missing, witness = _nonpurity_instance()
    sep_ok, _ = check_pairwise(witness, weak_odd(3))
    maximal = extend_to_maximal(witness, weak_odd(3)) == witness
    maximum = s_formula(6, 3)
    seconds = time.perf_counter() - start
    ok = (
        len(verts) == 52
        and len(missing) == 12
        and len(witness) == 55
        and sep_ok
        and maximal
        and maximum == 57
        and len(witness) < maximum
    )
    word, code = _status(ok)
    print(f"vertex system of Z(6,4): {len(verts)} members")
    print(f"non-vertex subsets of [6]: {len(missing)}")
    print(
        f"maximal witness: {len(witness)} members, weakly 3-separated "
        f"{str(sep_ok).lower()}, maximal {str(maximal).lower()}"
    )
    print(f"maximum size: {maximum}")
    print(f"nonpurity: {word}")
    print(
        f"nonpurity: {len(verts) + len(missing)} subsets of [6], "
        f"{comb(len(witness), 2)} witness pairs, {seconds:.2f} s",
        file=sys.stderr,
    )
    return code


# --------------------------------------------------------------- demo


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


def _add_nr(parser, kind: bool = False) -> None:
    """--n and --r; with kind, the predicate's --kind between them."""
    parser.add_argument("--n", type=int, required=True)
    if kind:
        parser.add_argument("--kind", choices=sorted(KINDS), required=True)
    parser.add_argument("--r", type=int, required=True)


def _command(sub, name: str, help_: str, func) -> argparse.ArgumentParser:
    """The parser of one command, bound to the handler that runs it."""
    parser = sub.add_parser(name, help=help_)
    parser.set_defaults(func=func)
    return parser


def _sep_commands(sub) -> None:
    check = _command(sub, "check", "evaluate one pair", cmd_sep_check)
    _add_pair(check)
    group = check.add_mutually_exclusive_group(required=True)
    group.add_argument("--weak", action="store_true")
    group.add_argument("--strong", action="store_true")
    check.add_argument("--r", type=int, required=True)
    _add_json(check)
    cortege = _command(sub, "cortege", "interval cortege of one pair", cmd_sep_cortege)
    _add_pair(cortege)
    _add_json(cortege)


def _search_commands(sub) -> None:
    mx = _command(sub, "max", "maximum compatible system", cmd_search_max)
    _add_nr(mx, kind=True)
    _add_json(mx)
    maximal = _command(sub, "maximal", "inclusion-maximal systems", cmd_search_maximal)
    _add_nr(maximal, kind=True)
    maximal.add_argument("--limit", type=int, default=None)
    _add_json(maximal)


def _zono_commands(sub) -> None:
    vertices = _command(sub, "vertices", "boundary vertex system", cmd_zono_vertices)
    _add_nd(vertices)
    _add_json(vertices)
    sides = _command(sub, "sides", "front and rear boundary", cmd_zono_sides)
    _add_nd(sides)
    _add_json(sides)


def _cub_commands(sub) -> None:
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


def _membrane_commands(sub) -> None:
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
    scan.add_argument("--r", type=int, default=None)
    scan.add_argument("--combs", action="store_true", help="also scan for double combs")
    _add_json(scan)


def _flip_commands(sub) -> None:
    from . import flips as fl

    witnesses = _command(sub, "witnesses", "witness pools of a site", cmd_flip_witnesses)
    _add_site(witnesses)
    _add_json(witnesses)
    apply_ = _command(sub, "apply", "apply one flip to a collection", cmd_flip_apply)
    _add_site(apply_)
    apply_.add_argument("--members", required=True, help="semicolon-separated sets")
    apply_.add_argument(
        "--direction", choices=(fl.RAISE, fl.LOWER), default=fl.RAISE
    )
    apply_.add_argument(
        "--mode", choices=(fl.MODE_SHARP, fl.MODE_FULL), default=fl.MODE_SHARP
    )
    _add_json(apply_)


def _verify_commands(sub) -> None:
    for name, what in (("snr", "strong"), ("wnr", "weak")):
        sizes = _command(sub, name, f"{what} separation maximum sizes", _verify_sizes)
        sizes.add_argument("--nmax", type=int, default=6)
    flips_ = _command(sub, "flips", "flip witness theorem harness", cmd_verify_flips)
    _add_nr(flips_)
    flips_.add_argument("--parity", choices=("odd", "even"), default="odd")
    flips_.add_argument("--shard", default=None, metavar="K/M")
    _add_json(flips_)
    refined = _command(sub, "refined", "refined-element dichotomy harness", cmd_verify_refined)
    _add_nr(refined)
    _add_json(refined)
    acyclicity = _command(
        sub, "acyclicity", "precedence digraphs are acyclic", cmd_verify_acyclicity
    )
    acyclicity.add_argument("--nmax", type=int, default=5)
    acyclicity.add_argument("--dmax", type=int, default=3)
    membranes_ = _command(sub, "membranes", "membrane vertex systems", cmd_verify_membranes)
    membranes_.add_argument("--nmax", type=int, default=6)
    _command(sub, "nonpurity", "two maximal sizes exist", cmd_verify_nonpurity)


def _demo_commands(sub) -> None:
    _command(sub, "nonpurity", "the 52/55/57 story", cmd_demo_nonpurity)


# each group: its help line, and the function that adds its commands
GROUPS = {
    "sep": ("pairwise separation predicates", _sep_commands),
    "search": ("exact searches over systems", _search_commands),
    "zono": ("cyclic zonotope geometry", _zono_commands),
    "cub": ("cubillages", _cub_commands),
    "membrane": ("membranes of a cubillage", _membrane_commands),
    "flip": ("elementary flips on collections", _flip_commands),
    "verify": ("exhaustive verification suites", _verify_commands),
    "demo": ("narrated walkthroughs", _demo_commands),
}


def build_parser(group: str | None) -> argparse.ArgumentParser:
    """The top-level parser with every group, and the commands of `group`
    alone (of none for None): a command line runs one group, and the
    other groups' commands would only add start-up."""
    parser = argparse.ArgumentParser(
        prog="zonosep",
        description="exact combinatorics of separated set systems and cubillages",
    )
    top = parser.add_subparsers(dest="group", required=True)
    for name, (help_, add_commands) in GROUPS.items():
        group_parser = top.add_parser(name, help=help_)
        if name == group:
            add_commands(group_parser.add_subparsers(dest="command", required=True))
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the top level has no option that takes a value, so the first word
    # naming a group is the group argparse will select
    args = build_parser(next((a for a in argv if a in GROUPS), None)).parse_args(argv)
    try:
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


if __name__ == "__main__":
    sys.exit(main())
