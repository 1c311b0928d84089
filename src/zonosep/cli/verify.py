"""`zonosep verify`: the exhaustive suites, each ending in one verdict."""

from __future__ import annotations

import sys
import time
from collections import Counter
from math import comb
from typing import TYPE_CHECKING

from ..systems import (
    RELATION_TABLE_CAP,
    check_limit,
    check_pairwise,
    extend_to_maximal,
    s_formula,
    strong,
    weak_odd,
)
from . import (
    _add_json,
    _add_nr,
    _command,
    _cub_name,
    _emit_json,
    _nodes_per_s,
    _nonpurity_instance,
    _print_scan,
    _search_limit,
    _status,
)

if TYPE_CHECKING:  # for annotations only: the handlers import these where they run them
    from .. import flips as fl


def _parse_shard(text: str) -> tuple[int, int]:
    try:
        k, m = text.split("/")
        return int(k), int(m)
    except ValueError:
        raise ValueError(f"shard must look like k/m, got {text!r}") from None


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
    from ..search import search_max

    ns = _suite_range("--nmax", args.nmax, 2, *_search_limit())
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
    from .. import flips as fl

    shard = _parse_shard(args.shard) if args.shard else None
    if args.parity == "odd":
        report = fl.verify_flip_theorem_odd(args.n, args.r, shard=shard)
    else:
        report = fl.verify_local_neighb_even(args.n, args.r, shard=shard)
    return _harness(args, report)


def cmd_verify_refined(args) -> int:
    from .. import flips as fl

    return _harness(args, fl.verify_refined_lemma(args.n, args.r))


def _precedence_digraphs(ns: range, dmax: int):
    """Each digraph `verify acyclicity` judges, as (name, nodes, successors)."""
    from .. import cubillage as cb
    from .. import membranes as mb

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
    from ..posets import is_acyclic

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
    from .. import cubillage as cb
    from .. import membranes as mb

    ns = _suite_range("--nmax", args.nmax, 3, RELATION_TABLE_CAP)
    targets = [(n, 3) for n in ns] + [(5, 5)]
    all_ok, undecided = True, None
    for n, d in targets:
        report = mb.scan_membranes(cb.standard_cubillage(n, d))
        _print_scan(f"w-membranes of Z({n},{d})", report, f"size {report.expected_size}")
        all_ok &= not report.violations
        undecided = undecided or report.undecided
    return _status(all_ok, undecided)[1]


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


def add_commands(sub) -> None:
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
