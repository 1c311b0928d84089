"""Command-line behavior: output shape, exit codes, file export, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import zonosep.cli as cli
import zonosep.cubillage as cubillage
import zonosep.flips as fl
import zonosep.geometry as geometry
import zonosep.membranes as mb
import zonosep.posets as posets
import zonosep.systems as systems
from zonosep.cli import _status, main
from zonosep.cubillage import Cubillage, standard_cubillage
from zonosep.membranes import scan_membranes
from zonosep.systems import SCHEMA, dump_json, search_max, strong

from oracles import (
    e_membranes,
    reference_flip_theorem_odd,
    reference_local_neighb_even,
    s_membranes,
    w_membranes,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sep_check(capsys):
    code, out, _ = run(
        capsys, "sep", "check", "--n", "6", "--a", "1,2,6", "--b", "2,3,4,5",
        "--weak", "--r", "1",
    )
    assert code == 0
    assert out == "weak r=1 {1,2,6} vs {2,3,4,5}: true\n"
    code, out, _ = run(
        capsys, "sep", "check", "--n", "4", "--a", "1,3", "--b", "2,4",
        "--strong", "--r", "1",
    )
    assert code == 0
    assert "false" in out


def test_sep_cortege(capsys):
    code, out, _ = run(capsys, "sep", "cortege", "--n", "6", "--a", "1,2,6", "--b", "2,3,4,5")
    assert code == 0
    assert "degree 3" in out
    assert "[3,5] side B" in out


def test_sep_check_json_export(capsys, tmp_path):
    path = tmp_path / "check.json"
    code, out, _ = run(
        capsys, "sep", "check", "--n", "4", "--a", "2", "--b", "1,3",
        "--weak", "--r", "1", "--json", str(path),
    )
    assert code == 0  # a false verdict is an answer, not a failure
    blob = json.loads(path.read_text())
    assert blob["schema"] == "zonosep/1"
    assert blob["verdict"] is False
    assert f"wrote json to {path}" in out


def test_search_max(capsys):
    code, out, _ = run(capsys, "search", "max", "--n", "4", "--kind", "weak_odd", "--r", "1")
    assert code == 0
    assert "max WEAK_ODD(1) on [4]: 11" in out


def test_search_max_counters_stay_out_of_json(capsys, tmp_path):
    blobs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, out, err = run(
            capsys, "search", "max", "--n", "6", "--kind", "weak_odd", "--r", "1",
            "--json", str(path),
        )
        assert code == 0
        assert "max WEAK_ODD(1) on [6]: 22" in out
        assert re.fullmatch(
            r"search: \d+ nodes, 12 universal, 4 symmetries, "
            r"\d+ candidates pruned by symmetry, 1 process, \d+\.\d\d s, \d+ nodes/s\n",
            err,
        ), err
        assert "nodes" not in out
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    assert set(json.loads(blobs[0])) == {"members", "n", "predicate", "schema", "size"}
    assert b"nodes" not in blobs[0] and b"second" not in blobs[0]


def test_search_max_reports_the_group_order(capsys):
    # STRONG(1) keeps complement, reversal and the twisted rotation: 4n
    code, out, err = run(capsys, "search", "max", "--n", "7", "--kind", "strong", "--r", "1")
    assert code == 0
    assert "max STRONG(1) on [7]: 29" in out
    assert ", 28 symmetries, " in err


def test_search_beyond_the_command_line_bound(capsys):
    for argv in (
        ("search", "max", "--n", "8", "--kind", "strong", "--r", "1"),
        ("search", "maximal", "--n", "8", "--kind", "strong", "--r", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == (
            "error: n = 8 exceeds 7, the largest ground set the command line "
            "searches exhaustively\n"
        )


def test_search_maximal(capsys):
    code, out, _ = run(
        capsys, "search", "maximal", "--n", "4", "--kind", "strong", "--r", "1",
        "--limit", "5",
    )
    assert code == 0
    assert "first 5 maximal STRONG(1) systems on [4]: 5" in out


def test_search_maximal_limit_zero_and_negative(capsys):
    argv = ("search", "maximal", "--n", "4", "--kind", "strong", "--r", "1", "--limit")
    code, out, _ = run(capsys, *argv, "0")
    assert code == 0
    assert "first 0 maximal STRONG(1) systems on [4]: 0" in out
    code, out, err = run(capsys, *argv, "-1")
    assert code == 2
    assert out == ""
    assert err == "error: limit must be at least 0, got -1\n"


def test_zono_vertices(capsys):
    code, out, _ = run(capsys, "zono", "vertices", "--n", "6", "--d", "4")
    assert code == 0
    assert "vertices of Z(6,4): 52" in out


def test_zono_vertices_is_not_held_to_the_search_bound(capsys):
    code, out, _ = run(capsys, "zono", "vertices", "--n", "8", "--d", "3")
    assert code == 0
    assert "vertices of Z(8,3): 58" in out
    code, out, err = run(capsys, "zono", "vertices", "--n", "13", "--d", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: n = 13 exceeds") and err.count("\n") == 1


def test_zono_sides(capsys, tmp_path):
    path = tmp_path / "sides.json"
    code, out, _ = run(capsys, "zono", "sides", "--n", "4", "--d", "3", "--json", str(path))
    assert code == 0
    blob = json.loads(path.read_text())
    assert len(blob["front_facets"]) + len(blob["rear_facets"]) >= 2
    assert "rim vertices" in out


def test_cub_standard_roundtrip(capsys, tmp_path):
    path = tmp_path / "cub.json"
    code, out, _ = run(capsys, "cub", "standard", "--n", "4", "--d", "2", "--json", str(path))
    assert code == 0
    assert "Z(4,2): 6 cubes, validator PASS" in out
    loaded = Cubillage.from_json(json.loads(path.read_text()))
    assert loaded == standard_cubillage(4, 2)

    code, out, _ = run(capsys, "cub", "validate", "--in", str(path))
    assert code == 0
    assert "validator PASS" in out


def test_cub_validate_rejects_broken(capsys, tmp_path):
    blob = standard_cubillage(4, 2).to_json()
    blob["cubes"] = blob["cubes"][1:]  # drop one cube
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(blob))
    code, out, _ = run(capsys, "cub", "validate", "--in", str(path))
    assert code == 1
    assert "validator FAIL" in out
    assert "problem" in out


def test_cub_validate_reports_a_cube_of_wrong_dimension(capsys, tmp_path):
    # a 3-set type in Z(4,2) is a validator FAIL (exit 1), not a load error
    blob = standard_cubillage(4, 2).to_json()
    blob["cubes"][0]["type"] = [1, 2, 3]
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(blob))
    code, out, _ = run(capsys, "cub", "validate", "--in", str(path))
    assert code == 1
    assert out.splitlines()[:2] == [
        f"cubillage of Z(4,2) from {path}: validator FAIL",
        "  problem: cube of wrong dimension",
    ]


def test_cub_validate_refuses_a_one_dimensional_file(capsys, tmp_path):
    # three edges of Z(3,1): the loader refuses d = 1, as the builders and the validator do
    z31 = {"n": 3, "d": 1, "cubes": [
        {"root": [], "type": [1]}, {"root": [1], "type": [2]}, {"root": [1, 2], "type": [3]}]}
    path = tmp_path / "z31.json"
    path.write_text(json.dumps(z31))
    code, out, err = run(capsys, "cub", "validate", "--in", str(path))
    assert (code, out, err) == (2, "", "error: need 2 <= d <= n, got d=1, n=3\n")


@pytest.mark.parametrize(
    "blob",
    [
        {"n": 4, "d": 2},  # no "cubes"
        [],
        {"n": 4, "d": 2, "cubes": [{"root": []}]},
        {"n": 4, "d": 2, "cubes": [{"root": 5, "type": [1, 2]}]},
        {"n": 4, "d": "2", "cubes": []},
    ],
)
def test_cub_validate_malformed_json(capsys, tmp_path, blob):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(blob))
    code, out, err = run(capsys, "cub", "validate", "--in", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cub_anti(capsys):
    code, out, _ = run(capsys, "cub", "anti", "--n", "4", "--d", "3")
    assert code == 0
    assert "anti-Z(4,3): 4 cubes, validator PASS" in out


def test_cub_beads(capsys, tmp_path):
    path = tmp_path / "beads.dot"
    code, out, _ = run(capsys, "cub", "beads", "--n", "4", "--d", "3", "--dot", str(path))
    assert code == 0
    assert "4 arcs, 3 threads, PASS" in out
    assert path.read_text().startswith("digraph beads {")


def test_cub_gamma(capsys, tmp_path):
    path = tmp_path / "gamma.dot"
    code, out, _ = run(capsys, "cub", "gamma", "--n", "4", "--d", "2", "--dot", str(path))
    assert code == 0
    assert "all 24 cubes" in out
    assert "acyclic PASS" in out
    assert path.read_text().count("->") == 48


def test_cub_gamma_dimension_outside_1_to_n_is_a_usage_error(capsys):
    for d in ("7", "0"):
        code, out, err = run(capsys, "cub", "gamma", "--n", "5", "--d", d)
        assert code == 2 and out == ""
        assert err == f"error: need 1 <= d <= n, got d={d}, n=5\n"
    code, out, _ = run(capsys, "cub", "gamma", "--n", "5", "--d", "1")
    assert code == 0
    assert out == "precedence digraph on all 80 cubes of C(5,1): 160 arcs, acyclic PASS\n"


def test_membrane_enumerate(capsys):
    code, out, _ = run(capsys, "membrane", "enumerate", "--n", "4", "--d", "3")
    assert code == 0
    assert "w-membranes of Z(4,3): 30" in out
    assert "vertex-system sizes: 11" in out
    code, out, _ = run(
        capsys, "membrane", "enumerate", "--n", "4", "--d", "4", "--flavor", "e"
    )
    assert code == 0
    assert "e-membranes of Z(4,4): 4" in out
    code, out, _ = run(
        capsys, "membrane", "enumerate", "--n", "3", "--d", "2", "--flavor", "s"
    )
    assert code == 0
    assert "s-membranes of Z(3,2): 4" in out


def test_membrane_flipwalk(capsys):
    code, out, _ = run(capsys, "membrane", "flipwalk", "--n", "4", "--d", "3")
    assert code == 0
    # one raising flip per fragment: 3 * C(4,3) = 12
    assert "front to rear in 12 raising flips" in out


def test_membrane_flipwalk_failing_flip_is_an_internal_error(capsys, monkeypatch):
    # the walk raises the fragments in topological order, so every flip is legal
    def blocked(m, delta):
        raise ValueError(f"raising flip at {delta.label()} blocked")

    monkeypatch.setattr(mb, "raising_flip", blocked)
    code, out, err = run(capsys, "membrane", "flipwalk", "--n", "5", "--d", "3")
    assert code == 1 and out == ""
    assert err.startswith("internal error: raising flip at ") and err.count("\n") == 1


def test_membrane_scan(capsys, tmp_path):
    path = tmp_path / "scan.json"
    code, out, _ = run(
        capsys, "membrane", "scan", "--n", "4", "--d", "4", "--flavor", "e",
        "--combs", "--json", str(path),
    )
    assert code == 0
    assert "PASS" in out
    assert "double-comb free: True" in out
    blob = json.loads(path.read_text())
    assert blob["membranes"] == 4


def test_membrane_scan_z94_is_decided(capsys):
    # ~20,000 memo states: the count stays far inside its budget
    code, out, err = run(
        capsys, "membrane", "scan", "--n", "9", "--d", "4", "--flavor", "e", "--combs",
    )
    assert code == 0
    assert out == (
        "scan e-membranes of Z(9,4): 900508869423234 scanned, sizes [130], "
        "expected 130, PASS\ndouble-comb free: True\n"
    )
    assert err.startswith("decided e-membranes of Z(9,4): 378 fragments, 256 vertices, ")


def test_flip_witnesses(capsys):
    code, out, _ = run(capsys, "flip", "witnesses", "--n", "3", "--p", "2", "--q", "1,3")
    assert code == 0
    assert "parity odd, r = 1" in out
    assert "raised witnesses: {1}, {3}, {1,2}, {2,3}" in out
    assert "full pool: 4 members" in out


def test_flip_apply(capsys):
    code, out, _ = run(
        capsys, "flip", "apply", "--n", "3", "--p", "2", "--q", "1,3",
        "--members", "1;3;1,2;2,3;2",
    )
    assert code == 0
    assert "result: {{1}, {3}, {1,2}, {1,3}, {2,3}}" in out


def test_flip_apply_falsification_is_one_line(capsys, monkeypatch):
    # a flip whose re-check fails falsifies a claim: its own label, not an internal error
    def falsified(w, site, direction, mode):
        raise fl.FalsificationError("flip at 2 -> 1,3 left {2}, {1,3} unseparated")

    monkeypatch.setattr(fl, "apply_flip", falsified)
    code, out, err = run(
        capsys, "flip", "apply", "--n", "3", "--p", "2", "--q", "1,3",
        "--members", "1;3;1,2;2,3;2",
    )
    assert code == 1 and out == ""
    assert err == "FALSIFICATION: flip at 2 -> 1,3 left {2}, {1,3} unseparated\n"


def test_flip_apply_missing_witness_is_usage(capsys):
    code, _, err = run(
        capsys, "flip", "apply", "--n", "3", "--p", "2", "--q", "1,3",
        "--members", "1;3;1,2;2",
    )
    assert code == 2
    assert "missing witnesses" in err


def test_verify_snr(capsys):
    code, out, err = run(capsys, "verify", "snr", "--nmax", "4")
    assert code == 0
    assert "strong n=4 r=1: max 11, bound 11, PASS" in out
    assert "FAIL" not in out
    # n = 2..4, r = 1..n-1: six searches, counted on stderr only
    assert re.fullmatch(r"snr: 6 instances, \d+ search nodes, \d+\.\d\d s, \d+ nodes/s\n", err)


def test_verify_wnr(capsys):
    code, out, err = run(capsys, "verify", "wnr", "--nmax", "4")
    assert code == 0
    assert "weak n=4 r=3: max 16, bound 16, PASS" in out
    # r = 1 at n = 2..4 and r = 3 at n = 4
    assert re.fullmatch(r"wnr: 4 instances, \d+ search nodes, \d+\.\d\d s, \d+ nodes/s\n", err)


def test_size_suites_count_their_search_nodes(capsys):
    code, out, err = run(capsys, "verify", "snr", "--nmax", "3")
    want = sum(search_max(n, strong(r)).nodes for n in (2, 3) for r in range(1, n))
    assert code == 0 and out.count("PASS") == 3
    assert err.startswith(f"snr: 3 instances, {want} search nodes, ")


def test_verify_sizes_beyond_the_bound_fail_before_searching(capsys):
    # the bound is checked up front, so no PASS line precedes the error
    for command in ("snr", "wnr"):
        code, out, err = run(capsys, "verify", command, "--nmax", "8")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "exceeds 7," in err


def test_verify_flips_odd_and_even(capsys):
    code, out, _ = run(capsys, "verify", "flips", "--n", "4", "--r", "1")
    assert code == 0
    assert "flip_theorem_odd n=4 r=1: 8 sites" in out
    code, out, _ = run(
        capsys, "verify", "flips", "--n", "4", "--r", "2", "--parity", "even"
    )
    assert code == 0
    assert "local_neighb_even" in out


def test_verify_flips_sharded(capsys):
    code, out, _ = run(capsys, "verify", "flips", "--n", "5", "--r", "1", "--shard", "1/2")
    assert code == 0
    assert "shard 1/2: 20 sites" in out


def test_empty_shard_count_is_a_usage_error(capsys):
    for parity in ("odd", "even"):
        for shard in ("0/0", "1/0", "0/-1"):
            code, out, err = run(
                capsys, "verify", "flips", "--n", "8", "--r", "2" if parity == "even" else "3",
                "--parity", parity, "--shard", shard,
            )
            assert code == 2 and out == ""
            assert err == f"error: shard count m must be at least 1, got {shard}\n"


def test_verify_refined_and_even(capsys):
    code, out, _ = run(capsys, "verify", "refined", "--n", "5", "--r", "1")
    assert code == 0
    assert "refined_lemma n=5 r=1: 40 sites, 0 checks" in out
    code, out, _ = run(
        capsys, "verify", "flips", "--n", "5", "--r", "2", "--parity", "even"
    )
    assert code == 0
    assert "10 sites" in out
    assert "4 recorded" in out


def test_verify_acyclicity(capsys):
    code, out, err = run(capsys, "verify", "acyclicity", "--nmax", "4", "--dmax", "2")
    assert code == 0
    assert "FAIL" not in out
    assert "enlarged precedence Z(6,4): PASS" in out
    # 3 cube digraphs (n = 2..4, d = 2) and 14 fragment digraphs, one per line
    assert out.count(": PASS\n") == 17
    assert re.fullmatch(r"acyclicity: 17 digraphs, 371 nodes, 868 arcs, \d+\.\d\d s\n", err)


def test_verify_membranes(capsys):
    code, out, _ = run(capsys, "verify", "membranes", "--nmax", "4")
    assert code == 0
    assert "w-membranes of Z(4,3): 30 scanned, size 11, PASS" in out
    assert "w-membranes of Z(5,5): 6 scanned, size 31, PASS" in out


def test_verify_membranes_cap_is_incomplete(capsys, monkeypatch):
    # a count past its memo budget is neither a pass nor a failure
    monkeypatch.setattr(posets, "IDEAL_STATE_BUDGET", 10)
    code, out, _ = run(capsys, "verify", "membranes", "--nmax", "4")
    assert code == 3
    assert "w-membranes of Z(3,3): 4 scanned, size 7, PASS" in out
    assert (
        "w-membranes of Z(4,3): 0 scanned, size 11, INCOMPLETE "
        "(not decided: ideal count's memo exceeded the cap of 10)" in out
    )
    assert "w-membranes of Z(5,5): 6 scanned, size 31, PASS" in out


def test_membrane_scan_cap_is_incomplete(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(posets, "IDEAL_STATE_BUDGET", 10)
    path = tmp_path / "scan.json"
    code, out, err = run(
        capsys, "membrane", "scan", "--n", "5", "--d", "3", "--json", str(path),
    )
    assert code == 3
    assert (
        "scan w-membranes of Z(5,3): 0 scanned, sizes [], expected 16, "
        "INCOMPLETE (not decided: ideal count's memo exceeded the cap of 10)" in out
    )
    assert "PASS" not in out
    assert "decided" not in err
    blob = json.loads(path.read_text())
    assert blob["capped"] is True and blob["membranes"] == 0
    assert blob["undecided"] == "ideal count's memo exceeded the cap of 10"


def test_status_rule():
    # a failure outranks an undecided part; an undecided run is never PASS
    assert _status(True) == ("PASS", 0)
    assert _status(False) == ("FAIL", 1)
    assert _status(True, "why") == ("INCOMPLETE (not decided: why)", 3)
    assert _status(False, "why") == ("FAIL", 1)


def _with_counterexample(report):
    report.counterexamples.append({"clause": "forced"})
    return report


# one command of each report kind that cannot be undecided, forced to fail: its
# command line, the function whose result is changed, the change, and the
# lines the failure prints.  Census and scan reports, the kinds that can be
# undecided, have their FAIL and INCOMPLETE cases in the tests above.
FORCED_FAILURES = {
    "validation": (
        ("cub", "standard", "--n", "4", "--d", "2"),
        (cubillage, "validate_cubillage"), lambda report: report._replace(problems=["forced"]),
        "Z(4,2): 6 cubes, validator FAIL\n  problem: forced\n",
    ),
    "beads": (
        ("cub", "beads", "--n", "4", "--d", "3"),
        (cubillage, "bead_thread_graph"), lambda threads: threads._replace(problems=["forced"]),
        "bead threads of Z(4,3): 4 arcs, 3 threads, FAIL\n",
    ),
    "gamma": (
        ("cub", "gamma", "--n", "4", "--d", "2"),
        (posets, "is_acyclic"), lambda acyclic: False,
        "precedence digraph on all 24 cubes of C(4,2): 48 arcs, acyclic FAIL\n",
    ),
    "harness": (
        ("verify", "refined", "--n", "5", "--r", "1"),
        (fl, "verify_refined_lemma"), _with_counterexample,
        "refined_lemma n=5 r=1: 40 sites, 0 checks, 0 recorded, FAIL\n"
        "  counterexample: {'clause': 'forced'}\n",
    ),
    "sizes": (
        ("verify", "snr", "--nmax", "3"),
        (cli, "s_formula"), lambda want: want + 1,
        "strong n=3 r=2: max 8, bound 9, FAIL\n",
    ),
    "acyclicity": (
        ("verify", "acyclicity", "--nmax", "2", "--dmax", "2"),
        (posets, "is_acyclic"), lambda acyclic: False,
        "fragment precedence anti-Z(5,5): FAIL\n",
    ),
    "nonpurity": (
        ("verify", "nonpurity"),
        (cli, "s_formula"), lambda want: want + 1,
        "maximum size: 58\nnonpurity: FAIL\n",
    ),
}


@pytest.mark.parametrize("kind", FORCED_FAILURES)
def test_a_forced_failure_is_fail_and_exit_1(capsys, monkeypatch, kind):
    argv, (module, name), change, line = FORCED_FAILURES[kind]
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: change(real(*args, **kwargs)))
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert line in out and "PASS" not in out


def test_verify_membranes_failure_beats_undecided(capsys, monkeypatch):
    # Z(4,3) is undecided and a scan before or after it fails: the suite failed
    real = mb.scan_membranes
    for failing in ((3, 3), (5, 5)):
        def forced(q, *args, **kwargs):
            report = real(q, *args, **kwargs)
            if (q.n, q.d) == failing:
                report.violations.append("forced")
            elif (q.n, q.d) == (4, 3):
                report.undecided = "forced"
            return report

        monkeypatch.setattr(mb, "scan_membranes", forced)
        code, out, _ = run(capsys, "verify", "membranes", "--nmax", "4")
        assert code == 1
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        assert lines["w-membranes of Z({},{})".format(*failing)].endswith(", FAIL")
        assert lines["w-membranes of Z(4,3)"] == (
            "30 scanned, size 11, INCOMPLETE (not decided: forced)"
        )
        assert out.count("PASS") == 1


def test_scan_cap_flag_is_a_usage_error(capsys):
    # the scans decide every membrane without visiting one: no --cap to take
    for argv in (
        ("membrane", "scan", "--n", "5", "--d", "3", "--cap", "10"),
        ("verify", "membranes", "--nmax", "3", "--cap", "4"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: --cap {argv[-1]}" in captured.err


def _w_scan_at_even_d(monkeypatch):
    """Make `membrane scan --flavor e` print the library's w-flavor report,
    which the command refuses at even d: the one scan that fails."""
    real = mb.scan_membranes
    monkeypatch.setattr(
        mb, "scan_membranes", lambda q, flavor, r, check_combs: real(q, "W", r, check_combs)
    )


def test_w_scan_at_even_d_is_refused_before_the_scan(capsys, monkeypatch):
    def no_scan(*args):
        raise AssertionError("scan started")

    monkeypatch.setattr(mb, "scan_membranes", no_scan)
    code, out, err = run(capsys, "membrane", "scan", "--n", "6", "--d", "4")
    assert code == 2 and out == ""
    assert err == (
        "error: w-membranes are held to the odd-d contract (size s(n, d-2), weak "
        "(d-2)-separation), got d=4; use --flavor e at even d\n"
    )


def test_membrane_scan_failure_names_pairs_and_fragments(capsys, tmp_path, monkeypatch):
    # w-membranes of Z(5,4) vary in size and carry double 2-combs
    _w_scan_at_even_d(monkeypatch)
    path = tmp_path / "scan.json"
    code, out, _ = run(
        capsys, "membrane", "scan", "--n", "5", "--d", "4", "--flavor", "e", "--combs",
        "--json", str(path),
    )
    assert code == 1
    assert "sizes [26, 27, 28, 29], expected 26, FAIL" in out
    assert "  violation: sizes [26, 27, 28, 29]; size-changing fragments: {}|{1,2,3,4}#h2 +1," in out
    assert (
        "  violation: {1,3} vs {2,4} (comb), witness ideal "
        "['{}|{1,2,3,4}#h1', '{}|{1,2,3,4}#h2']" in out
    )
    blob = json.loads(path.read_text())
    assert "cap" not in blob and blob["comb_free"] is False
    size, first = blob["violations"][:2]
    assert size["kind"] == "size" and size["sizes"] == [26, 27, 28, 29]
    assert {"fragment": "{}|{1,2,3,4}#h3", "change": -1} in size["fragments"]
    assert first == {
        "kind": "comb",
        "pair": [[1, 3], [2, 4]],
        "witness": ["{}|{1,2,3,4}#h1", "{}|{1,2,3,4}#h2"],
    }
    assert len(blob["violations"]) == 9


def test_scan_stats_line_stays_out_of_json(capsys, tmp_path):
    path = tmp_path / "scan.json"
    code, out, err = run(
        capsys, "membrane", "scan", "--n", "6", "--d", "4", "--flavor", "e", "--combs",
        "--json", str(path),
    )
    assert code == 0
    assert re.fullmatch(
        r"decided e-membranes of Z\(6,4\): 45 fragments, 57 vertices, \d+ memo states, "
        r"52 pairs tested; precedence [\d.]+ s, lifespans and intervals [\d.]+ s, "
        r"count [\d.]+ s, pairs [\d.]+ s\n",
        err,
    )
    report = scan_membranes(standard_cubillage(6, 4), flavor="E", check_combs=True)
    assert path.read_text() == dump_json(report.to_json())
    code, _, err = run(capsys, "verify", "membranes", "--nmax", "4")
    assert code == 0 and err.count("decided w-membranes of Z(") == 3


def test_internal_error_is_one_line_and_not_usage(capsys, monkeypatch):
    # an empty front boundary breaks the tile lifespans
    real = mb.base_membrane
    monkeypatch.setattr(
        mb,
        "base_membrane",
        lambda q, flavor="W": real(q, flavor)._replace(tiles=frozenset()),
    )
    code, out, err = run(capsys, "membrane", "scan", "--n", "4", "--d", "3")
    assert code == 1 and out == ""
    assert err.startswith("internal error: tile ") and err.count("\n") == 1
    assert "multiplicity -1" in err


def test_combs_at_odd_r_are_refused_before_the_census(capsys, monkeypatch):
    # a double-comb check needs even r; the refusal comes before phases 1-3,
    # so neither a long census nor one past its memo budget runs first
    def no_census(q, flavor):
        raise AssertionError("census started before the r check")

    monkeypatch.setattr(mb, "membrane_census", no_census)
    for argv in (("--n", "5", "--d", "3"), ("--n", "6", "--d", "4", "--flavor", "e", "--r", "3")):
        code, out, err = run(capsys, "membrane", "scan", *argv, "--combs")
        assert code == 2 and out == ""
        assert err == "error: WEAK_EVEN_NO_COMB needs even positive r\n"


def test_witness_replay_failure_is_an_internal_error(capsys, monkeypatch):
    # the scan built the witness itself, so a flip it cannot replay is no usage error
    def refuse(m, delta):
        raise ValueError(f"raising flip at {delta.label()} blocked")

    monkeypatch.setattr(mb, "raising_flip", refuse)
    _w_scan_at_even_d(monkeypatch)
    code, out, err = run(
        capsys, "membrane", "scan", "--n", "5", "--d", "4", "--flavor", "e", "--combs"
    )
    assert code == 1 and out == ""
    assert err.startswith("internal error: witness replay failed: raising flip at ")
    assert err.count("\n") == 1


def test_precedence_cycle_is_an_internal_error(capsys, monkeypatch):
    # a broken piece whose two sides share a tile shows as a self-arc
    real = mb.side_precedence

    def with_self_arc(fronts, rears):
        succs = real(fronts, rears)
        succs[0] = [0] + succs[0]
        return succs

    monkeypatch.setattr(mb, "side_precedence", with_self_arc)
    for command in ("scan", "enumerate"):
        code, out, err = run(capsys, "membrane", command, "--n", "5", "--d", "3")
        assert code == 1 and out == ""
        assert err == "internal error: cycle among 30 of 30 nodes\n"


def test_internal_errors_from_any_module_are_one_line(capsys, monkeypatch):
    # a symmetry check that breaks at once raises RuntimeError in systems;
    # a layout memoised by an earlier search would skip the check
    systems._search_layout.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(systems, "_first_break", lambda table, image: 0)
        code, out, err = run(capsys, "search", "max", "--n", "4", "--kind", "strong", "--r", "1")
    assert code == 1 and out == ""
    assert err == "internal error: relation table not invariant under complement at {}\n"
    # an ArithmeticError from geometry is the same one line
    def on_the_span(n, typemask):
        raise ArithmeticError("generator on the span of a type")

    monkeypatch.setattr(geometry, "side_roots", on_the_span)
    code, out, err = run(capsys, "zono", "sides", "--n", "5", "--d", "3")
    assert code == 1 and out == ""
    assert err == "internal error: generator on the span of a type\n"


def test_membrane_enumerate_cap_is_one_line_error(capsys):
    for flavor in ("w", "e", "s"):
        with pytest.raises(SystemExit) as exc:
            main(["membrane", "enumerate", "--n", "5", "--d", "4", "--flavor", flavor,
                  "--cap", "5"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --cap 5" in captured.err


def _walked(walker, q):
    """Count and vertex-set sizes of every membrane the walker visits."""
    sizes = []
    walker(q, visit=lambda mem: sizes.append(len(mem.vertex_masks())))
    return len(sizes), sorted(set(sizes))


@pytest.mark.parametrize("anti", [False, True], ids=["standard", "anti"])
@pytest.mark.parametrize("n, d", [(n, d) for n in range(3, 7) for d in range(2, n + 1)])
def test_membrane_enumerate_matches_the_walkers(capsys, tmp_path, n, d, anti):
    # the decided count and sizes print what the walk over every membrane sees
    q = standard_cubillage(n, d, anti)
    name = f"{'anti-' if anti else ''}Z({n},{d})"
    path = tmp_path / "enumerate.json"
    head = {"schema": SCHEMA, "n": n, "d": d}
    count = len(s_membranes(q))
    expected = {
        "s": (f"s-membranes of {name}: {count}\n", {**head, "flavor": "s", "count": count})
    }
    for flavor, walker in (("w", w_membranes), ("e", e_membranes)):
        if flavor == "e" and d % 2:
            continue
        count, sizes = _walked(walker, q)
        expected[flavor] = (
            f"{flavor}-membranes of {name}: {count}\n"
            f"vertex-system sizes: {', '.join(str(s) for s in sizes)}\n",
            {**head, "flavor": flavor.upper(), "count": count, "sizes": sizes},
        )
    for flavor, (lines, blob) in expected.items():
        argv = ["membrane", "enumerate", "--n", str(n), "--d", str(d), "--flavor", flavor]
        code, out, err = run(capsys, *argv, *(["--anti"] if anti else []), "--json", str(path))
        assert code == 0 and err == ""
        assert out == lines + f"wrote json to {path}\n"
        assert path.read_text() == dump_json(blob)


def test_membrane_enumerate_undecided_is_incomplete(capsys, tmp_path, monkeypatch):
    # a count past its memo budget is neither a count nor a failure
    monkeypatch.setattr(posets, "IDEAL_STATE_BUDGET", 10)
    path = tmp_path / "enumerate.json"
    for flavor in ("w", "e", "s"):
        code, out, err = run(
            capsys, "membrane", "enumerate", "--n", "6", "--d", "4", "--flavor", flavor,
            "--json", str(path),
        )
        assert code == 3 and err == ""
        assert out == (
            f"{flavor}-membranes of Z(6,4): INCOMPLETE "
            "(not decided: ideal count's memo exceeded the cap of 10)\n"
        )
        assert not path.exists()
    reason = "presence of vertex {1} is not one interval of the ideal lattice"
    monkeypatch.setattr(mb, "_presence_intervals", lambda *args: reason)
    code, out, _ = run(capsys, "membrane", "enumerate", "--n", "5", "--d", "3")
    assert code == 3
    assert out == f"w-membranes of Z(5,3): INCOMPLETE (not decided: {reason})\n"


def test_membrane_enumerate_dot(capsys, tmp_path):
    # the DOT file holds the precedence the membranes are the ideals of
    path = tmp_path / "precedence.dot"
    for flavor, header, arcs in (("w", "digraph fragments {", 2), ("s", "digraph gamma {", 0)):
        code, out, _ = run(
            capsys, "membrane", "enumerate", "--n", "3", "--d", "3", "--flavor", flavor,
            "--dot", str(path),
        )
        assert code == 0 and f"wrote dot to {path}" in out
        assert path.read_text().startswith(header)
        assert path.read_text().count("->") == arcs


def test_verify_nonpurity(capsys):
    code, out, err = run(capsys, "verify", "nonpurity")
    # all 2^6 subsets scanned, C(55, 2) witness pairs checked
    assert re.fullmatch(r"nonpurity: 64 subsets of \[6\], 1485 witness pairs, \d+\.\d\d s\n", err)
    assert code == 0
    assert "52 members" in out
    assert "non-vertex subsets of [6]: 12" in out
    assert "55 members" in out
    assert "maximum size: 57" in out
    assert "nonpurity: PASS" in out


def test_demo_nonpurity(capsys):
    code, out, _ = run(capsys, "demo", "nonpurity")
    assert code == 0
    assert "52 vertices" in out
    assert "maximum over [6] is 57" in out
    assert "not pure" in out


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sep"])  # missing subcommand
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, _, err = run(capsys, "sep", "check", "--n", "4", "--a", "x", "--b", "1", "--weak", "--r", "1")
    assert code == 2
    assert "cannot parse set" in err
    code, _, err = run(capsys, "sep", "check", "--n", "4", "--a", "5", "--b", "1", "--weak", "--r", "1")
    assert code == 2
    assert "leaves the ground set" in err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "flips", "--n", "4", "--r", "1", "--threads", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 0" in capsys.readouterr().err
    # no command accepts a --threads it would ignore
    sized = ("--n", "4", "--r", "1")
    for command in (
        ("snr",), ("wnr",), ("acyclicity",), ("membranes",), ("nonpurity",),
        ("flips", *sized), ("refined", *sized),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *command, "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "even", "--n", "5", "--r", "2"])  # now verify flips --parity even
    assert exc.value.code == 2
    capsys.readouterr()
    code, _, err = run(capsys, "verify", "flips", "--n", "5", "--r", "1", "--shard", "nope")
    assert code == 2
    harnesses = ((("flips",), "3"), (("refined",), "3"), (("flips", "--parity", "even"), "2"))
    for command, r in harnesses:
        code, out, err = run(capsys, "verify", *command, "--n", "13", "--r", r)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "relation-table cap 12" in err


def test_output_is_deterministic(capsys, tmp_path):
    # the counters and seconds go to stderr only: the --json report is the
    # reference loop's report, byte for byte, on every run
    for args, reference in (
        (("--n", "4", "--r", "1"), reference_flip_theorem_odd(4, 1)),
        (("--n", "7", "--r", "3"), reference_flip_theorem_odd(7, 3)),
        (("--n", "6", "--r", "2", "--parity", "even", "--shard", "2/3"),
         reference_local_neighb_even(6, 2, shard=(2, 3))),
    ):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        code_a, out_a, _ = run(capsys, "verify", "flips", *args, "--json", str(a))
        code_b, out_b, _ = run(capsys, "verify", "flips", *args, "--json", str(b))
        assert code_a == code_b == 0
        assert out_a.replace(str(a), "") == out_b.replace(str(b), "")
        assert a.read_bytes() == b.read_bytes() == dump_json(reference.to_json()).encode()
        assert set(json.loads(a.read_bytes())) == {
            "schema", "name", "n", "r", "sites", "checks", "ok",
            "counterexamples", "recorded", "shard",
        }


def test_empty_site_ranges_are_usage_errors(capsys):
    # r + 2 > n leaves no site: the run must not print PASS over nothing
    for command in (
        ("flips", "--n", "3", "--r", "3"),
        ("flips", "--parity", "even", "--n", "3", "--r", "2"),
        ("refined", "--n", "1", "--r", "1"),
    ):
        code, out, err = run(capsys, "verify", *command)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: r = ") and "leaves no flip site" in err


def test_empty_suite_ranges_are_usage_errors(capsys):
    # an empty range of n or d checks nothing: the run must not exit 0 over it
    for argv, empty in (
        (("snr", "--nmax", "1"), "--nmax 1 leaves no n in 2..nmax"),
        (("wnr", "--nmax", "1"), "--nmax 1 leaves no n in 2..nmax"),
        (("snr", "--nmax", "0"), "--nmax 0 leaves no n in 2..nmax"),
        (("acyclicity", "--nmax", "1"), "--nmax 1 leaves no n in 2..nmax"),
        (("acyclicity", "--dmax", "1"), "--dmax 1 leaves no d in 2..dmax"),
        (("membranes", "--nmax", "2"), "--nmax 2 leaves no n in 3..nmax"),
    ):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {empty} to verify\n"


def test_all_cube_runs_past_the_scan_cap_are_usage_errors(capsys, monkeypatch):
    # C(n, d) * 2^(n-d) cubes, or the C(n, d) of one cubillage, or the
    # C(n, d - 1) facets of a side: the ground size is checked before any
    # output, and before the first cube or facet is cut
    def no_cuts(*args, **kwargs):
        raise AssertionError("cut before the limit check")

    monkeypatch.setattr(geometry, "side_roots", no_cuts)
    monkeypatch.setattr(cubillage, "from_inversions", no_cuts)
    built = [
        (*command, "--n", n, "--d", d)
        for command in (
            ("zono", "sides"),
            ("cub", "standard"),
            ("cub", "anti"),
            ("cub", "beads"),
            ("membrane", "enumerate"),
            ("membrane", "flipwalk"),
        )
        for n, d in (("13", "3"), ("26", "13"))
    ]
    for argv in (
        ("cub", "gamma", "--n", "13", "--d", "3"),
        ("verify", "acyclicity", "--nmax", "13"),
        *built,
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert re.match(r"error: n = (13|26) exceeds the relation-table cap 12", err), argv
        assert err.count("\n") == 1


def test_scans_past_the_table_limit_are_refused_before_the_census(capsys, monkeypatch):
    # the pair phase needs the n = 13 table, so no count may start first
    def no_census(*args):
        raise AssertionError("census started before the limit check")

    monkeypatch.setattr(mb, "fragments", no_census)
    for argv in (
        ("membrane", "scan", "--n", "13", "--d", "4", "--flavor", "e"),
        ("membrane", "scan", "--n", "14", "--d", "3"),
        ("verify", "membranes", "--nmax", "13"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert re.fullmatch(r"error: n = 1[34] exceeds the relation-table cap 12 .*\n", err)


HARNESS_STATS = re.compile(
    r"(flip_theorem_odd|refined_lemma|local_neighb_even): \d+ sites in \d+ patterns, "
    r"\d+ checks, \d+ recorded, \d+ counterexamples( \((\S+ \d+(, )?)+\))?, "
    r"\d+ judged, \d+ memo entries; "
    r"table \d+\.\d{3} s, sites \d+\.\d{3} s, \d+ checks/s\n"
)


def test_harness_stats_line(capsys, monkeypatch):
    code, out, err = run(capsys, "verify", "flips", "--n", "8", "--r", "2", "--parity", "even")
    assert code == 0 and out.endswith("PASS\n")
    assert HARNESS_STATS.fullmatch(err)
    assert err.startswith(
        "local_neighb_even: 1120 sites in 70 patterns, 288064 checks, 4890 recorded, "
        "0 counterexamples, 3584 judged, 448 memo entries; table "
    )
    code, _, err = run(capsys, "verify", "flips", "--n", "7", "--r", "3", "--shard", "1/3")
    assert code == 0 and HARNESS_STATS.fullmatch(err)
    assert err.startswith("flip_theorem_odd: 28 sites in 21 patterns, 3528 checks, ")
    code, _, err = run(capsys, "verify", "refined", "--n", "6", "--r", "1")
    assert code == 0 and HARNESS_STATS.fullmatch(err)
    # counterexamples are counted by clause
    monkeypatch.setattr(fl, "is_double_r_comb", lambda a, b, r: False)
    code, _, err = run(capsys, "verify", "flips", "--n", "6", "--r", "2", "--parity", "even")
    assert code == 1 and HARNESS_STATS.fullmatch(err)
    assert (
        "66 recorded, 96 counterexamples (uniqueness-lower 48, uniqueness-upper 48), "
        "96 judged, 48 memo entries; "
    ) in err


ROOT = Path(__file__).resolve().parent.parent

# runs main on the command line it is given, then prints the zonosep modules it
# loaded and those of STDLIB it loaded, which a command should not pay for idly
FOOTPRINT = """
import sys
STDLIB = ("dataclasses", "json")
from zonosep.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(" ".join(sorted(m for m in sys.modules if m.startswith("zonosep.") or m in STDLIB)))
sys.exit(code)
"""


# (command line, modules it must load, modules it must not)
FOOTPRINTS = [
    (("sep", "check", "--n", "6", "--a", "1,2,6", "--b", "2,3,4,5", "--weak", "--r", "1"),
     {"systems"}, {"geometry", "posets", "cubillage", "membranes", "flips"}),
    (("search", "max", "--n", "5", "--kind", "weak_odd", "--r", "1"),
     {"systems"}, {"geometry", "posets", "cubillage", "membranes", "flips"}),
    (("zono", "vertices", "--n", "5", "--d", "3"), {"geometry"}, {"cubillage", "membranes", "flips"}),
    (("cub", "standard", "--n", "5", "--d", "3"), {"cubillage"}, {"posets", "membranes", "flips"}),
    (("cub", "validate", "--in", "z53.json"), {"cubillage"}, {"posets", "membranes", "flips"}),
    (("cub", "anti", "--n", "5", "--d", "3", "--json", "anti.json"), {"cubillage"},
     {"posets", "membranes", "flips"}),
    (("verify", "flips", "--n", "6", "--r", "3"), {"flips"}, {"membranes", "cubillage"}),
    (("membrane", "scan", "--n", "5", "--d", "3"), {"membranes"}, {"flips"}),
    (("--help",), {"systems"}, {"geometry", "posets", "cubillage", "membranes", "flips"}),
]


@pytest.mark.parametrize(
    "argv, loaded, absent", FOOTPRINTS, ids=["-".join(argv[:2]) for argv, _, _ in FOOTPRINTS]
)
def test_a_command_imports_only_the_modules_it_runs(argv, loaded, absent, tmp_path):
    (tmp_path / "z53.json").write_text(dump_json(standard_cubillage(5, 3).to_json()))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, *argv],
        env=env, capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    modules = {name.removeprefix("zonosep.") for name in done.stdout.splitlines()[-1].split()}
    assert loaded <= modules and not absent & modules, modules
    assert "dataclasses" not in modules
    # only a command that reads or writes a JSON file imports json
    assert ("json" in modules) == ("--in" in argv or "--json" in argv), modules


GROUP_COMMANDS = {
    "sep": ("check", "cortege"),
    "search": ("max", "maximal"),
    "zono": ("vertices", "sides"),
    "cub": ("standard", "anti", "validate", "beads", "gamma"),
    "membrane": ("enumerate", "flipwalk", "scan"),
    "flip": ("witnesses", "apply"),
    "verify": ("snr", "wnr", "flips", "refined", "acyclicity", "membranes", "nonpurity"),
    "demo": ("nonpurity",),
}


@pytest.fixture
def columns_80(monkeypatch):
    # argparse wraps help and usage to the terminal width it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")


def _exit(capsys, *argv) -> tuple[int, str, str]:
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def _choose_from(names) -> str:
    # older argparse releases quote each choice, newer ones do not
    return r"\(choose from " + ", ".join(f"'?{name}'?" for name in names) + r"\)"


def test_help_lists_every_group_and_its_commands(capsys, columns_80):
    code, out, _ = _exit(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: zonosep [-h]")
    assert "{sep,search,zono,cub,membrane,flip,verify,demo}" in out
    for group in GROUP_COMMANDS:
        assert re.search(rf"^    {group} +\S", out, re.M), group
    for group, commands in GROUP_COMMANDS.items():
        code, out, _ = _exit(capsys, group, "--help")
        assert code == 0
        assert out.startswith(f"usage: zonosep {group} [-h]")
        assert f"{{{','.join(commands)}}}" in out
        for command in commands:
            assert re.search(rf"^    {command} +\S", out, re.M), (group, command)
            code, out_, _ = _exit(capsys, group, command, "--help")
            assert code == 0 and out_.startswith(f"usage: zonosep {group} {command} [-h]")


def test_unknown_group_and_command_list_the_choices(capsys, columns_80):
    code, out, err = _exit(capsys, "membran")
    assert code == 2 and out == ""
    assert err.startswith("usage: zonosep [-h]")
    assert re.search(
        r"zonosep: error: argument group: invalid choice: 'membran' " + _choose_from(GROUP_COMMANDS),
        err,
    ), err
    code, out, err = _exit(capsys, "membrane", "bogus")
    assert code == 2 and out == ""
    assert err.startswith("usage: zonosep membrane [-h] {enumerate,flipwalk,scan}")
    assert re.search(
        r"zonosep membrane: error: argument command: invalid choice: 'bogus' "
        + _choose_from(GROUP_COMMANDS["membrane"]),
        err,
    ), err
