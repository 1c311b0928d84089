"""Command-line front end.

Two-level subcommands: predicates and corteges (sep), exact searches
(search), zonotope geometry (zono), cubillage construction and checks
(cub), membrane enumeration and scans (membrane), elementary flips
(flip), the exhaustive verification suites (verify), and a narrated
non-purity walkthrough (demo).

Exit codes: 0 all checks passed, 1 a verification or validation
failed or an internal invariant broke, 2 usage error, 3 the run was
capped or left undecided and did not cover its whole range.  Output is
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
    weak_odd,
)

if TYPE_CHECKING:  # for annotations only: the handlers import these where they run them
    from . import flips as fl
    from . import membranes as mb

KINDS = {
    "strong": KIND_STRONG,
    "weak_odd": KIND_WEAK_ODD,
    "weak_even": KIND_WEAK_EVEN,
    "weak_even_no_comb": KIND_WEAK_EVEN_NO_COMB,
}

# the cubillage instances every structural verify suite walks
STRUCTURAL = ((4, 2), (4, 3), (5, 3), (6, 4), (5, 5))

# exit code of a run that stopped at its cap before covering its range
EXIT_INCOMPLETE = 3

# the search limit and its name on the command line, which has no bound option
CLI_SEARCH_LIMIT = (
    DEFAULT_EXHAUSTIVE_BOUND,
    "{}, the largest ground set the command line searches exhaustively",
)


class UsageError(ValueError):
    pass


def _parse_set(text: str, n: int) -> int:
    if text in ("", "-"):
        return 0
    try:
        elems = [int(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"cannot parse set {text!r}") from None
    if any(not 1 <= e <= n for e in elems):
        raise UsageError(f"set {text!r} leaves the ground set [{n}]")
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
        raise UsageError(f"shard must look like k/m, got {text!r}") from None


def _write(path: str, payload: str, what: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)
    print(f"wrote {what} to {path}")


def _emit_json(args, blob: dict) -> None:
    if getattr(args, "json", None):
        _write(args.json, dump_json(blob), "json")


def _cub_name(n: int, d: int, anti: bool) -> str:
    return f"{'anti-' if anti else ''}Z({n},{d})"


# ---------------------------------------------------------------- sep


def cmd_sep_check(args) -> int:
    a = _parse_set(args.a, args.n)
    b = _parse_set(args.b, args.n)
    if args.strong:
        verdict = is_strongly_r_separated(a, b, args.r)
        mode = "strong"
    else:
        verdict = is_weakly_r_separated(a, b, args.r)
        mode = "weak"
    print(
        f"{mode} r={args.r} {set_notation(a)} vs {set_notation(b)}: "
        f"{str(verdict).lower()}"
    )
    _emit_json(
        args,
        {
            "schema": SCHEMA,
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
            "schema": SCHEMA,
            "a": elements(a),
            "b": elements(b),
            "degree": cortege.degree,
            "intervals": cortege.to_json(),
        },
    )
    return 0


# ------------------------------------------------------------- search


def _predicate(args) -> PairwisePredicate:
    return PairwisePredicate(KINDS[args.kind], args.r)


def _nodes_per_s(nodes: int, seconds: float) -> str:
    return f"{nodes / seconds if seconds else 0.0:.0f} nodes/s"


def cmd_search_max(args) -> int:
    predicate = _predicate(args)
    n = check_limit(args.n, *CLI_SEARCH_LIMIT)
    start = time.perf_counter()
    found = search_max(n, predicate)
    seconds = time.perf_counter() - start
    print(f"max {predicate.label()} on [{args.n}]: {found.size}")
    print(f"witness: {found.witness}")
    print(
        f"search: {found.nodes} nodes, {found.universal} universal, "
        f"{found.symmetries} symmetries, "
        f"{found.symmetry_pruned} root branches pruned by symmetry, {seconds:.2f} s, "
        f"{_nodes_per_s(found.nodes, seconds)}",
        file=sys.stderr,
    )
    _emit_json(args, {"size": found.size, **found.witness.to_json(predicate)})
    return 0


def cmd_search_maximal(args) -> int:
    predicate = _predicate(args)
    sizes: dict[int, int] = {}
    emitted = 0
    n = check_limit(args.n, *CLI_SEARCH_LIMIT)
    for system in enumerate_maximal(n, predicate, limit=args.limit):
        sizes[len(system)] = sizes.get(len(system), 0) + 1
        emitted += 1
    label = "all" if args.limit is None else f"first {args.limit}"
    print(f"{label} maximal {predicate.label()} systems on [{args.n}]: {emitted}")
    for size in sorted(sizes):
        print(f"  size {size}: {sizes[size]}")
    _emit_json(
        args,
        {
            "schema": SCHEMA,
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
            "schema": SCHEMA,
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


def cmd_cub_build(args) -> int:
    from . import cubillage as cb

    q = cb.standard_cubillage(args.n, args.d, args.anti)
    report = cb.validate_cubillage(q)
    verdict = "PASS" if report.ok else "FAIL"
    print(f"{_cub_name(args.n, args.d, args.anti)}: {len(q.cubes)} cubes, validator {verdict}")
    for problem in report.problems:
        print(f"  problem: {problem}")
    if getattr(args, "json", None):
        _write(args.json, dump_json(q.to_json()), "json")
    return 0 if report.ok else 1


def cmd_cub_validate(args) -> int:
    import json as _json

    from . import cubillage as cb

    with open(args.infile, encoding="utf-8") as handle:
        q = cb.Cubillage.from_json(_json.load(handle))
    report = cb.validate_cubillage(q)
    verdict = "PASS" if report.ok else "FAIL"
    print(f"cubillage of Z({q.n},{q.d}) from {args.infile}: validator {verdict}")
    for problem in report.problems:
        print(f"  problem: {problem}")
    _emit_json(args, report.to_json())
    return 0 if report.ok else 1


def cmd_cub_beads(args) -> int:
    from . import cubillage as cb

    q = cb.standard_cubillage(args.n, args.d, args.anti)
    threads = cb.bead_thread_graph(q)
    verdict = "PASS" if threads.ok else "FAIL"
    print(
        f"bead threads of {_cub_name(args.n, args.d, args.anti)}: "
        f"{len(threads.arcs)} arcs, {len(threads.threads)} threads, {verdict}"
    )
    for i, thread in enumerate(threads.threads):
        path = " -> ".join(set_notation(v) for v in thread)
        print(f"  thread {i}: {path}")
    for problem in threads.problems:
        print(f"  problem: {problem}")
    if getattr(args, "dot", None):
        _write(args.dot, threads.to_dot(), "dot")
    return 0 if threads.ok else 1


def cmd_cub_gamma(args) -> int:
    from . import cubillage as cb
    from .posets import is_acyclic

    cubes, succs = cb.gamma_graph(args.n, args.d)
    acyclic = is_acyclic(len(cubes), succs)
    arcs = sum(len(out) for out in succs)
    verdict = "PASS" if acyclic else "FAIL"
    print(
        f"precedence digraph on all {len(cubes)} cubes of C({args.n},{args.d}): "
        f"{arcs} arcs, acyclic {verdict}"
    )
    if getattr(args, "dot", None):
        _write(args.dot, cb.precedence_dot(cubes, succs), "dot")
    return 0 if acyclic else 1


# ----------------------------------------------------------- membrane


def cmd_membrane_enumerate(args) -> int:
    from . import cubillage as cb
    from . import membranes as mb

    q = cb.standard_cubillage(args.n, args.d, args.anti)
    what = f"{args.flavor}-membranes of {_cub_name(args.n, args.d, args.anti)}"
    census = mb.membrane_census(q, args.flavor.upper())
    if census.undecided is not None:
        print(f"{what}: {_incomplete(census.undecided)}")
        return EXIT_INCOMPLETE
    print(f"{what}: {census.count}")
    blob = {
        "schema": SCHEMA,
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
        if args.flavor == "s":
            # an uncut fragment is its cube, so the order is the cube precedence
            dot = cb.precedence_dot([delta.cube for delta in census.deltas], census.succs)
        else:
            dot = mb.precedence_to_dot(census.deltas, census.succs)
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


def _print_scan_stats(what: str, report: mb.MembraneScanReport) -> None:
    """One stderr line of counters and phase seconds for a decided scan."""
    if report.undecided is not None:
        return
    s = report.stats
    print(
        f"decided {what}: {s['fragments']} fragments, {s['vertices']} vertices, "
        f"{s['states']} memo states, {s['pairs']} pairs tested; "
        f"precedence {s['precedence_s']:.3f} s, lifespans and intervals "
        f"{s['intervals_s']:.3f} s, count {s['count_s']:.3f} s, "
        f"pairs {s['pairs_s']:.3f} s",
        file=sys.stderr,
    )


def cmd_membrane_scan(args) -> int:
    from . import cubillage as cb
    from . import membranes as mb

    q = cb.standard_cubillage(args.n, args.d, args.anti)
    report = mb.scan_membranes(
        q,
        flavor=args.flavor.upper(),
        r=args.r,
        check_combs=args.combs,
    )
    name = _cub_name(args.n, args.d, args.anti)
    _print_scan_stats(f"{args.flavor}-membranes of {name}", report)
    status, code = _scan_status(report)
    print(
        f"scan {args.flavor}-membranes of {name}: {report.membrane_count} scanned, "
        f"sizes {sorted(report.sizes_seen)}, expected {report.expected_size}, {status}"
    )
    if args.combs:
        print(f"double-comb free: {report.comb_free}")
    for violation in report.violations[:10]:
        print(f"  violation: {violation}")
    _emit_json(args, report.to_json())
    return code


def _scan_status(report: mb.MembraneScanReport) -> tuple[str, int]:
    """Verdict and exit code of a scan: an undecided run is never PASS."""
    if report.ok:
        return "PASS", 0
    if report.violations:
        return "FAIL", 1
    return _incomplete(report.undecided), EXIT_INCOMPLETE


def _incomplete(reason: str) -> str:
    return f"INCOMPLETE (not decided: {reason})"


# --------------------------------------------------------------- flip


def _site(args) -> fl.FlipSite:
    from . import flips as fl

    return fl.FlipSite(
        args.n,
        _parse_set(args.x, args.n),
        _parse_set(args.p, args.n),
        _parse_set(args.q, args.n),
    )


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
        "schema": SCHEMA,
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


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _suite_range(option: str, top: int, low: int = 2, *limit) -> range:
    """low..top, a suite's range of n (--nmax) or d (--dmax), checked whole
    before its first line: an empty range, or a top past the limit given
    as check_limit's arguments, is a usage error."""
    if top < low:
        raise UsageError(f"{option} {top} leaves no {option[2]} in {low}..{option[2:]} to verify")
    if limit:
        check_limit(top, *limit)
    return range(low, top + 1)


def _verify_sizes(name: str, what: str, instances) -> int:
    """Search each (n, predicate) and hold its maximum to s(n, r): one line
    per instance, then one stderr line with the instances, their search
    nodes in total and the seconds."""
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
            f"{_verdict(ok)}"
        )
    seconds = time.perf_counter() - start
    print(
        f"{name}: {count} instances, {nodes} search nodes, {seconds:.2f} s, "
        f"{_nodes_per_s(nodes, seconds)}",
        file=sys.stderr,
    )
    return 0 if all_ok else 1


def cmd_verify_snr(args) -> int:
    ns = _suite_range("--nmax", args.nmax, 2, *CLI_SEARCH_LIMIT)
    strong_r = ((n, PairwisePredicate(KIND_STRONG, r)) for n in ns for r in range(1, n))
    return _verify_sizes("snr", "strong", strong_r)


def cmd_verify_wnr(args) -> int:
    ns = _suite_range("--nmax", args.nmax, 2, *CLI_SEARCH_LIMIT)
    weak_r = (
        (n, PairwisePredicate(KIND_WEAK_ODD, r)) for r in (1, 3) for n in range(r + 1, ns.stop)
    )
    return _verify_sizes("wnr", "weak", weak_r)


def _print_harness_stats(report: fl.HarnessReport) -> None:
    """One stderr line of counters and phase seconds for a harness run."""
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


def _print_harness(report: fl.HarnessReport) -> None:
    _print_harness_stats(report)
    shard = f" shard {report.shard}" if report.shard else ""
    print(
        f"{report.name} n={report.n} r={report.r}{shard}: "
        f"{report.sites} sites, {report.checks} checks, "
        f"{report.recorded} recorded, {_verdict(report.ok)}"
    )
    for bad in report.counterexamples[:10]:
        print(f"  counterexample: {bad}")


def cmd_verify_flips(args) -> int:
    from . import flips as fl

    shard = _parse_shard(args.shard) if args.shard else None
    if args.parity == "odd":
        report = fl.verify_flip_theorem_odd(args.n, args.r, shard=shard)
    else:
        report = fl.verify_local_neighb_even(args.n, args.r, shard=shard)
    _print_harness(report)
    _emit_json(args, report.to_json())
    return 0 if report.ok else 1


def cmd_verify_refined(args) -> int:
    from . import flips as fl

    report = fl.verify_refined_lemma(args.n, args.r)
    _print_harness(report)
    _emit_json(args, report.to_json())
    return 0 if report.ok else 1


def _precedence_digraphs(ns: range, dmax: int):
    """Each digraph `verify acyclicity` judges, as (name, nodes, successors)."""
    from . import cubillage as cb
    from . import membranes as mb

    for n in ns:
        for d in range(2, min(n, dmax) + 1):
            cubes, succs = cb.gamma_graph(n, d)
            yield f"precedence on all cubes, n={n} d={d}", len(cubes), succs
    for n, d in STRUCTURAL:
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
        print(f"{name}: {_verdict(ok)}")
    seconds = time.perf_counter() - start
    print(
        f"acyclicity: {digraphs} digraphs, {nodes} nodes, {arcs} arcs, {seconds:.2f} s",
        file=sys.stderr,
    )
    return 0 if all_ok else 1


def cmd_verify_membranes(args) -> int:
    from . import cubillage as cb
    from . import membranes as mb

    ns = _suite_range("--nmax", args.nmax, 3, RELATION_TABLE_CAP)
    targets = [(n, 3) for n in ns] + [(5, 5)]
    codes = set()
    for n, d in targets:
        q = cb.standard_cubillage(n, d)
        report = mb.scan_membranes(q)
        _print_scan_stats(f"w-membranes of Z({n},{d})", report)
        status, code = _scan_status(report)
        codes.add(code)
        print(
            f"w-membranes of Z({n},{d}): {report.membrane_count} scanned, "
            f"size {report.expected_size}, {status}"
        )
    if 1 in codes:
        return 1
    return EXIT_INCOMPLETE if EXIT_INCOMPLETE in codes else 0


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
    print(f"vertex system of Z(6,4): {len(verts)} members")
    print(f"non-vertex subsets of [6]: {len(missing)}")
    print(
        f"maximal witness: {len(witness)} members, weakly 3-separated "
        f"{str(sep_ok).lower()}, maximal {str(maximal).lower()}"
    )
    print(f"maximum size: {maximum}")
    print(f"nonpurity: {_verdict(ok)}")
    print(
        f"nonpurity: {len(verts) + len(missing)} subsets of [6], "
        f"{comb(len(witness), 2)} witness pairs, {seconds:.2f} s",
        file=sys.stderr,
    )
    return 0 if ok else 1


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


def _add_nd(parser) -> None:
    parser.add_argument("--n", type=int, required=True, help="ground set size")
    parser.add_argument("--d", type=int, required=True, help="dimension, at most n")


def _sep_commands(sub) -> None:
    check = sub.add_parser("check", help="evaluate one pair")
    check.add_argument("--n", type=int, required=True)
    check.add_argument("--a", required=True, help="comma-separated elements")
    check.add_argument("--b", required=True)
    group = check.add_mutually_exclusive_group(required=True)
    group.add_argument("--weak", action="store_true")
    group.add_argument("--strong", action="store_true")
    check.add_argument("--r", type=int, required=True)
    _add_json(check)
    check.set_defaults(func=cmd_sep_check)
    cortege = sub.add_parser("cortege", help="interval cortege of one pair")
    cortege.add_argument("--n", type=int, required=True)
    cortege.add_argument("--a", required=True)
    cortege.add_argument("--b", required=True)
    _add_json(cortege)
    cortege.set_defaults(func=cmd_sep_cortege)


def _search_commands(sub) -> None:
    mx = sub.add_parser("max", help="maximum compatible system")
    mx.add_argument("--n", type=int, required=True)
    mx.add_argument("--kind", choices=sorted(KINDS), required=True)
    mx.add_argument("--r", type=int, required=True)
    _add_json(mx)
    mx.set_defaults(func=cmd_search_max)
    maximal = sub.add_parser("maximal", help="inclusion-maximal systems")
    maximal.add_argument("--n", type=int, required=True)
    maximal.add_argument("--kind", choices=sorted(KINDS), required=True)
    maximal.add_argument("--r", type=int, required=True)
    maximal.add_argument("--limit", type=int, default=None)
    _add_json(maximal)
    maximal.set_defaults(func=cmd_search_maximal)


def _zono_commands(sub) -> None:
    vertices = sub.add_parser("vertices", help="boundary vertex system")
    _add_nd(vertices)
    _add_json(vertices)
    vertices.set_defaults(func=cmd_zono_vertices)
    sides = sub.add_parser("sides", help="front and rear boundary")
    _add_nd(sides)
    _add_json(sides)
    sides.set_defaults(func=cmd_zono_sides)


def _cub_commands(sub) -> None:
    standard = sub.add_parser("standard", help="build and validate")
    _add_nd(standard)
    _add_json(standard)
    standard.set_defaults(func=cmd_cub_build, anti=False)
    anti = sub.add_parser("anti", help="anti-standard build and validate")
    _add_nd(anti)
    _add_json(anti)
    anti.set_defaults(func=cmd_cub_build, anti=True)
    validate = sub.add_parser("validate", help="validate a cubillage JSON file")
    validate.add_argument("--in", dest="infile", required=True, metavar="PATH")
    _add_json(validate)
    validate.set_defaults(func=cmd_cub_validate)
    beads = sub.add_parser("beads", help="bead threads")
    _add_nd(beads)
    beads.add_argument("--anti", action="store_true")
    _add_dot(beads)
    beads.set_defaults(func=cmd_cub_beads)
    gamma = sub.add_parser("gamma", help="precedence digraph on all cubes")
    _add_nd(gamma)
    _add_dot(gamma)
    gamma.set_defaults(func=cmd_cub_gamma)


def _membrane_commands(sub) -> None:
    enumerate_ = sub.add_parser("enumerate", help="count membranes by flavor")
    _add_nd(enumerate_)
    enumerate_.add_argument("--anti", action="store_true")
    enumerate_.add_argument("--flavor", choices=("s", "w", "e"), default="w")
    _add_json(enumerate_)
    _add_dot(enumerate_)
    enumerate_.set_defaults(func=cmd_membrane_enumerate)
    flipwalk = sub.add_parser("flipwalk", help="raising flips front to rear")
    _add_nd(flipwalk)
    flipwalk.add_argument("--anti", action="store_true")
    flipwalk.set_defaults(func=cmd_membrane_flipwalk)
    scan = sub.add_parser("scan", help="decide the claims over every membrane")
    _add_nd(scan)
    scan.add_argument("--anti", action="store_true")
    scan.add_argument("--flavor", choices=("w", "e"), default="w")
    scan.add_argument("--r", type=int, default=None)
    scan.add_argument("--combs", action="store_true", help="also scan for double combs")
    _add_json(scan)
    scan.set_defaults(func=cmd_membrane_scan)


def _flip_commands(sub) -> None:
    from . import flips as fl

    witnesses = sub.add_parser("witnesses", help="witness pools of a site")
    witnesses.add_argument("--n", type=int, required=True)
    witnesses.add_argument("--x", default="", help="comma-separated, may be empty")
    witnesses.add_argument("--p", required=True)
    witnesses.add_argument("--q", required=True)
    _add_json(witnesses)
    witnesses.set_defaults(func=cmd_flip_witnesses)
    apply_ = sub.add_parser("apply", help="apply one flip to a collection")
    apply_.add_argument("--n", type=int, required=True)
    apply_.add_argument("--x", default="")
    apply_.add_argument("--p", required=True)
    apply_.add_argument("--q", required=True)
    apply_.add_argument("--members", required=True, help="semicolon-separated sets")
    apply_.add_argument(
        "--direction", choices=(fl.RAISE, fl.LOWER), default=fl.RAISE
    )
    apply_.add_argument(
        "--mode", choices=(fl.MODE_SHARP, fl.MODE_FULL), default=fl.MODE_SHARP
    )
    _add_json(apply_)
    apply_.set_defaults(func=cmd_flip_apply)


def _verify_commands(sub) -> None:
    snr = sub.add_parser("snr", help="strong separation maximum sizes")
    snr.add_argument("--nmax", type=int, default=6)
    snr.set_defaults(func=cmd_verify_snr)
    wnr = sub.add_parser("wnr", help="weak separation maximum sizes")
    wnr.add_argument("--nmax", type=int, default=6)
    wnr.set_defaults(func=cmd_verify_wnr)
    flips_ = sub.add_parser("flips", help="flip witness theorem harness")
    flips_.add_argument("--n", type=int, required=True)
    flips_.add_argument("--r", type=int, required=True)
    flips_.add_argument("--parity", choices=("odd", "even"), default="odd")
    flips_.add_argument("--shard", default=None, metavar="K/M")
    _add_json(flips_)
    flips_.set_defaults(func=cmd_verify_flips)
    refined = sub.add_parser("refined", help="refined-element dichotomy harness")
    refined.add_argument("--n", type=int, required=True)
    refined.add_argument("--r", type=int, required=True)
    _add_json(refined)
    refined.set_defaults(func=cmd_verify_refined)
    acyclicity = sub.add_parser("acyclicity", help="precedence digraphs are acyclic")
    acyclicity.add_argument("--nmax", type=int, default=5)
    acyclicity.add_argument("--dmax", type=int, default=3)
    acyclicity.set_defaults(func=cmd_verify_acyclicity)
    membranes_ = sub.add_parser("membranes", help="membrane vertex systems")
    membranes_.add_argument("--nmax", type=int, default=6)
    membranes_.set_defaults(func=cmd_verify_membranes)
    nonpurity = sub.add_parser("nonpurity", help="two maximal sizes exist")
    nonpurity.set_defaults(func=cmd_verify_nonpurity)


def _demo_commands(sub) -> None:
    nonpure = sub.add_parser("nonpurity", help="the 52/55/57 story")
    nonpure.set_defaults(func=cmd_demo_nonpurity)


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
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
