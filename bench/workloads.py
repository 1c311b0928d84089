"""The benchmark's workloads and layer probes, each with its exact expected results.

An item is one search instance, one harness call, one scan or one CLI
command.  Calling it returns the observed counts and verdicts; the
runner compares them with the item's expected values, so an item can
only get faster by doing the same work.  Builders do the imports and
build the inputs an item reuses: that is the workload's set-up.

The counts below are exact results of the package, not tolerances.
The predicate-probe pair counts are checked against the brute-force
predicates of tests/oracles.py by the benchmark's own tests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from zonosep.cubillage import standard_cubillage, validate_cubillage
from zonosep.flips import verify_flip_theorem_odd, verify_local_neighb_even
from zonosep.geometry import zonotope_sides
from zonosep.ground import interlacing_degree
from zonosep.membranes import fragment_precedence, scan_membranes
from zonosep.posets import scan_ideals
from zonosep.separation import (
    is_double_r_comb,
    is_strongly_r_separated,
    is_weakly_r_separated_even,
    is_weakly_r_separated_odd,
)
from zonosep.systems import (
    check_pairwise,
    compatibility_adjacency,
    max_size,
    strong,
    weak_even,
    weak_even_no_comb,
    weak_odd,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_TIMEOUT_S = 120

Z73_MEMBRANES = 1_406_640
PROBE_PAIRS = 1 << 16  # all ordered pairs of subsets of [8]


@dataclass(frozen=True)
class Item:
    """One unit of work; `call(tracer)` returns the observed results."""

    name: str
    call: Callable
    expected: dict


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[Path], list[Item]]
    spawns: bool = False  # runs child processes, whose memory counts too


# ---------------------------------------------------------------- scan-z73


def build_scan_z73(scratch: Path) -> list[Item]:
    q = standard_cubillage(7, 3)

    def scan(tr):
        with tr.span("membranes.scan_membranes"):
            report = scan_membranes(q)
        return {
            "membranes": report.membrane_count,
            "sizes": sorted(report.sizes_seen),
            "violations": len(report.violations),
            "capped": report.capped,
        }

    return [
        Item(
            "membranes.scan_w_z73",
            scan,
            # 29 = s(7,1): every w-membrane of Z(7,3) has the maximum size
            {"membranes": Z73_MEMBRANES, "sizes": [29], "violations": 0, "capped": False},
        )
    ]


# ---------------------------------------------------------------- flips-n9


def _harness(span: str, harness, n: int, r: int):
    def call(tr):
        with tr.span(span):
            report = harness(n, r)
        return {
            "sites": report.sites,
            "checks": report.checks,
            "recorded": report.recorded,
            "counterexamples": len(report.counterexamples),
        }

    return call


def build_flips_n9(scratch: Path) -> list[Item]:
    return [
        Item(
            "flips.odd_n9_r3",
            _harness("flips.verify_flip_theorem_odd", verify_flip_theorem_odd, 9, 3),
            {"sites": 2016, "checks": 1_028_160, "recorded": 0, "counterexamples": 0},
        ),
        Item(
            "flips.even_n8_r2",
            _harness("flips.verify_local_neighb_even", verify_local_neighb_even, 8, 2),
            {"sites": 1120, "checks": 288_064, "recorded": 4890, "counterexamples": 0},
        ),
    ]


# ---------------------------------------------------------------- search-n8

# (instance id, n, predicate, exact maximum size, compatible pairs)
SEARCH_INSTANCES = (
    ("n8_strong_r1", 8, strong(1), 37, 17_496),
    ("n8_strong_r3", 8, strong(3), 163, 31_104),
    ("n8_weak_even_r2", 8, weak_even(2), 121, 29_699),
    ("n7_weak_odd_r1", 7, weak_odd(1), 29, 5_512),
    ("n7_weak_even_no_comb_r2", 7, weak_even_no_comb(2), 67, 7_438),
)


def search_item(inst: str, n: int, predicate, size: int) -> Item:
    def call(tr):
        with tr.span(f"systems.max_size.{inst}"):
            found, witness = max_size(n, predicate, bound=n)
        with tr.span(f"systems.check_pairwise.{inst}"):
            ok, _ = check_pairwise(witness, predicate)
        return {"size": found, "witness_size": len(witness), "witness_ok": ok}

    return Item(
        f"systems.{inst}", call, {"size": size, "witness_size": size, "witness_ok": True}
    )


def build_search_n8(scratch: Path) -> list[Item]:
    return [search_item(inst, n, p, size) for inst, n, p, size, _ in SEARCH_INSTANCES]


# ---------------------------------------------------------------- cli-suite


@dataclass(frozen=True)
class Command:
    """One `python -m zonosep.cli` call: exit 0 and print every line in `lines`."""

    id: str
    args: tuple[str, ...]
    lines: tuple[str, ...]
    passes: int | None = None  # exact number of lines ending in PASS, when several


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_command(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv,
        cwd=ROOT,
        env=cli_env(),
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )


def run_cli(tr, cmd: Command) -> dict:
    with tr.span(f"cli.{cmd.id}"):
        proc = run_command([sys.executable, "-m", "zonosep.cli", *cmd.args])
    out = proc.stdout.splitlines()
    observed = {
        "rc": proc.returncode,
        "missing": [line for line in cmd.lines if line not in out],
        "fails": sum("FAIL" in line for line in out),
    }
    if cmd.passes is not None:
        observed["passes"] = sum(line.endswith("PASS") for line in out)
    return observed


def cli_expected(cmd: Command) -> dict:
    expected = {"rc": 0, "missing": [], "fails": 0}
    if cmd.passes is not None:
        expected["passes"] = cmd.passes
    return expected


def cli_item(cmd: Command) -> Item:
    return Item(f"cli.{cmd.id}", lambda tr: run_cli(tr, cmd), cli_expected(cmd))


SUITE = (
    Command("sep_check", ("sep", "check", "--n", "6", "--a", "1,2,6", "--b", "2,3,4,5",
                          "--weak", "--r", "1"),
            ("weak r=1 {1,2,6} vs {2,3,4,5}: true",)),
    Command("search_max_n7_weak_odd_r1",
            ("search", "max", "--n", "7", "--kind", "weak_odd", "--r", "1"),
            ("max WEAK_ODD(1) on [7]: 29",)),
    Command("search_max_n7_weak_even_no_comb_r2",
            ("search", "max", "--n", "7", "--kind", "weak_even_no_comb", "--r", "2"),
            ("max WEAK_EVEN_NO_COMB(2) on [7]: 67",)),
    Command("verify_snr", ("verify", "snr"),
            ("strong n=6 r=3: max 57, bound 57, PASS",
             "strong n=6 r=5: max 64, bound 64, PASS"), passes=15),
    Command("verify_wnr", ("verify", "wnr"),
            ("weak n=6 r=1: max 22, bound 22, PASS",
             "weak n=6 r=3: max 57, bound 57, PASS"), passes=8),
    Command("verify_nonpurity", ("verify", "nonpurity"),
            ("vertex system of Z(6,4): 52 members",
             "maximal witness: 55 members, weakly 3-separated true, maximal true",
             "maximum size: 57", "nonpurity: PASS")),
    Command("verify_acyclicity", ("verify", "acyclicity"),
            ("fragment precedence anti-Z(5,5): PASS",), passes=21),
    Command("cub_standard_z63", ("cub", "standard", "--n", "6", "--d", "3"),
            ("Z(6,3): 20 cubes, validator PASS",)),
    Command("cub_anti_z63", ("cub", "anti", "--n", "6", "--d", "3"),
            ("anti-Z(6,3): 20 cubes, validator PASS",)),
    Command("cub_beads_z63", ("cub", "beads", "--n", "6", "--d", "3"),
            ("bead threads of Z(6,3): 20 arcs, 10 threads, PASS",)),
    Command("cub_gamma_z63", ("cub", "gamma", "--n", "6", "--d", "3"),
            ("precedence digraph on all 160 cubes of C(6,3): 720 arcs, acyclic PASS",)),
    Command("membrane_scan_z63", ("membrane", "scan", "--n", "6", "--d", "3"),
            ("scan w-membranes of Z(6,3): 17812 scanned, sizes [22], expected 22, PASS",)),
    Command("membrane_scan_anti_z63", ("membrane", "scan", "--n", "6", "--d", "3", "--anti"),
            ("scan w-membranes of anti-Z(6,3): 17812 scanned, sizes [22], expected 22, PASS",)),
    Command("membrane_scan_e_combs_z64",
            ("membrane", "scan", "--n", "6", "--d", "4", "--flavor", "e", "--combs"),
            ("scan e-membranes of Z(6,4): 3256 scanned, sizes [42], expected 42, PASS",
             "double-comb free: True")),
    Command("membrane_scan_e_combs_anti_z64",
            ("membrane", "scan", "--n", "6", "--d", "4", "--flavor", "e", "--combs", "--anti"),
            ("scan e-membranes of anti-Z(6,4): 3256 scanned, sizes [42], expected 42, PASS",
             "double-comb free: True")),
    Command("membrane_enumerate_z53", ("membrane", "enumerate", "--n", "5", "--d", "3"),
            ("w-membranes of Z(5,3): 496", "vertex-system sizes: 16")),
    Command("membrane_flipwalk_z53", ("membrane", "flipwalk", "--n", "5", "--d", "3"),
            ("front to rear in 30 raising flips",)),
    Command("verify_flips_n8_r3", ("verify", "flips", "--n", "8", "--r", "3"),
            ("flip_theorem_odd n=8 r=3: 448 sites, 113792 checks, 0 recorded, PASS",)),
    Command("verify_flips_even_n8_r2",
            ("verify", "flips", "--n", "8", "--r", "2", "--parity", "even"),
            ("local_neighb_even n=8 r=2: 1120 sites, 288064 checks, 4890 recorded, PASS",)),
    Command("verify_refined_n8_r3", ("verify", "refined", "--n", "8", "--r", "3"),
            ("refined_lemma n=8 r=3: 448 sites, 0 checks, 0 recorded, PASS",)),
    Command("verify_membranes_nmax6", ("verify", "membranes", "--nmax", "6"),
            ("w-membranes of Z(6,3): 17812 scanned, size 22, PASS",
             "w-membranes of Z(5,5): 6 scanned, size 31, PASS"), passes=5),
    Command("zono_sides_z73", ("zono", "sides", "--n", "7", "--d", "3"),
            ("front facets: 21", "rear facets: 21", "front-only vertices: 29",
             "rear-only vertices: 29", "rim vertices: 14")),
    Command("zono_vertices_z64", ("zono", "vertices", "--n", "6", "--d", "4"),
            ("vertices of Z(6,4): 52",)),
)


def json_roundtrip_item(scratch: Path) -> Item:
    """`cub standard --json P`, then `cub validate --in P`: one item, fixed order."""
    path = scratch / "cub_z64.json"
    write = Command("cub_json_write", ("cub", "standard", "--n", "6", "--d", "4",
                                       "--json", str(path)),
                    ("Z(6,4): 15 cubes, validator PASS", f"wrote json to {path}"))
    read = Command("cub_json_read", ("cub", "validate", "--in", str(path)),
                   (f"cubillage of Z(6,4) from {path}: validator PASS",))

    def call(tr):
        return {"write": run_cli(tr, write), "read": run_cli(tr, read)}

    return Item("cli.cub_json_roundtrip", call,
                {"write": cli_expected(write), "read": cli_expected(read)})


def flips_json_item(scratch: Path) -> Item:
    path = scratch / "flips_n7_r3.json"
    cmd = Command("verify_flips_json_n7_r3",
                  ("verify", "flips", "--n", "7", "--r", "3", "--json", str(path)),
                  ("flip_theorem_odd n=7 r=3: 84 sites, 10584 checks, 0 recorded, PASS",))

    def call(tr):
        observed = run_cli(tr, cmd)
        blob = json.loads(path.read_text())
        observed["json"] = {k: blob[k] for k in ("ok", "sites", "checks", "counterexamples")}
        return observed

    expected = dict(cli_expected(cmd),
                    json={"ok": True, "sites": 84, "checks": 10584, "counterexamples": []})
    return Item(f"cli.{cmd.id}", call, expected)


CLI_COMMAND_IDS = tuple(c.id for c in SUITE) + (
    "cub_json_write", "cub_json_read", "verify_flips_json_n7_r3")


def build_cli_suite(scratch: Path) -> list[Item]:
    return [cli_item(c) for c in SUITE] + [json_roundtrip_item(scratch), flips_json_item(scratch)]


# ---------------------------------------------------------------- registry

# Why each workload was chosen, the layers it loads and its expected
# results are recorded with it in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan-z73", build_scan_z73),
        Workload("flips-n9", build_flips_n9),
        Workload("search-n8", build_search_n8),
        Workload("cli-suite", build_cli_suite, spawns=True),
    )
}


# ---------------------------------------------------------------- layer probes

REPEATS = 5  # short probes are taken several times and reported by their median


def _pair_probe(name: str, predicate, count: int) -> Item:
    def call(tr):
        with tr.span(name):
            total = sum(predicate(a, b) for a in range(256) for b in range(256))
        return {"total": total}

    return Item(f"probe.{name}", call, {"total": count})


# (span name, predicate over masks, exact total over all 2^16 ordered pairs)
PAIR_PROBES = (
    ("ground.degree", interlacing_degree, 163_712),  # sum of interlacing degrees
    ("separation.strong", lambda a, b: is_strongly_r_separated(a, b, 2), 53_690),
    ("separation.weak_odd", lambda a, b: is_weakly_r_separated_odd(a, b, 3), 63_034),
    ("separation.weak_even", lambda a, b: is_weakly_r_separated_even(a, b, 2), 59_654),
    ("separation.comb", lambda a, b: is_double_r_comb(a, b, 2), 2_240),
)


def _timed_call(name: str, fn, check):
    def call(tr):
        with tr.span(name):
            value = fn()
        return check(value)

    return call


def _input_probes() -> list[Item]:
    q = standard_cubillage(7, 3)

    def sides(s):
        return {"front_facets": len(s.front_facets), "rear_facets": len(s.rear_facets),
                "front": len(s.front), "rear": len(s.rear), "rim": len(s.rim)}

    return [
        Item("probe.geometry.sides", _timed_call("geometry.zonotope_sides",
                                            lambda: zonotope_sides(7, 3), sides),
             {"front_facets": 21, "rear_facets": 21, "front": 29, "rear": 29, "rim": 14}),
        Item("probe.cubillage.build", _timed_call("cubillage.standard_cubillage",
                                             lambda: standard_cubillage(7, 3),
                                             lambda c: {"cubes": len(c.cubes)}),
             {"cubes": 35}),
        Item("probe.cubillage.validate", _timed_call("cubillage.validate_cubillage",
                                                lambda: validate_cubillage(q),
                                                lambda v: {"ok": v.ok}),
             {"ok": True}),
        Item("probe.membranes.precedence", _timed_call("membranes.fragment_precedence",
                                                  lambda: fragment_precedence(q),
                                                  lambda p: {"fragments": len(p[0])}),
             {"fragments": 105}),
    ]


def _walk_probe() -> Item:
    """The bare order-ideal walk under scan-z73, with no-op callbacks."""
    deltas, succs = fragment_precedence(standard_cubillage(7, 3))

    def noop(_):
        pass

    def call(tr):
        with tr.span("posets.scan_ideals"):
            count = scan_ideals(len(deltas), succs, visit=noop, enter=noop, leave=noop)
        return {"ideals": count}

    return Item("probe.posets.walk_z73", call, {"ideals": Z73_MEMBRANES})


def _adjacency_probe(inst: str, n: int, predicate, pairs: int) -> Item:
    """compatibility_adjacency alone, as max_size builds it first."""
    def call(tr):
        with tr.span(f"systems.compatibility_adjacency.{inst}"):
            adj = compatibility_adjacency(n, predicate)
        return {"pairs": sum(row.bit_count() for row in adj) // 2}

    return Item(f"probe.systems.adjacency_{inst}", call, {"pairs": pairs})


def _startup_probe(name: str, argv: list[str]) -> Item:
    def call(tr):
        with tr.span(name):
            proc = run_command(argv)
        return {"rc": proc.returncode}

    return Item(f"probe.{name}", call, {"rc": 0})


def build_probes() -> list[Item]:
    """Layer probes of the traced run, in a fixed order."""
    short = [_pair_probe(*p) for p in PAIR_PROBES] + _input_probes() + [
        _startup_probe("cli.interpreter", [sys.executable, "-c", "pass"]),
        _startup_probe("cli.help", [sys.executable, "-m", "zonosep.cli", "--help"]),
    ]
    return (
        short * REPEATS
        + [_adjacency_probe(inst, n, p, pairs) for inst, n, p, _, pairs in SEARCH_INSTANCES]
        + [_walk_probe()]
    )
