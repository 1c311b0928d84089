"""Command-line behavior: output shape, exit codes, file export, determinism."""

import dataclasses
import json
import re

import pytest

import zonosep.flips as fl
import zonosep.geometry as geometry
import zonosep.membranes as mb
import zonosep.posets as posets
import zonosep.systems as systems
from zonosep.cli import main
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
            r"\d+ root branches pruned by symmetry, \d+\.\d\d s\n",
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
    assert re.fullmatch(r"snr: 6 instances, \d+ search nodes, \d+\.\d\d s\n", err)


def test_verify_wnr(capsys):
    code, out, err = run(capsys, "verify", "wnr", "--nmax", "4")
    assert code == 0
    assert "weak n=4 r=3: max 16, bound 16, PASS" in out
    # r = 1 at n = 2..4 and r = 3 at n = 4
    assert re.fullmatch(r"wnr: 4 instances, \d+ search nodes, \d+\.\d\d s\n", err)


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
    code, out, _ = run(capsys, "verify", "acyclicity", "--nmax", "4", "--dmax", "2")
    assert code == 0
    assert "FAIL" not in out
    assert "enlarged precedence Z(6,4): PASS" in out


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


def test_scan_cap_flag_is_a_usage_error(capsys):
    for argv in (
        ("membrane", "scan", "--n", "5", "--d", "3", "--cap", "10"),
        ("verify", "membranes", "--nmax", "3", "--cap", "4"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == (
            "error: --cap has nothing to cap: the scan decides every membrane "
            "without visiting it\n"
        )


def test_membrane_scan_failure_names_pairs_and_fragments(capsys, tmp_path):
    # w-membranes of Z(5,4) vary in size and carry double 2-combs
    path = tmp_path / "scan.json"
    code, out, _ = run(
        capsys, "membrane", "scan", "--n", "5", "--d", "4", "--combs", "--json", str(path),
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
        lambda q, flavor="W": dataclasses.replace(real(q, flavor), tiles=frozenset()),
    )
    code, out, err = run(capsys, "membrane", "scan", "--n", "4", "--d", "3")
    assert code == 1 and out == ""
    assert err.startswith("internal error: tile ") and err.count("\n") == 1
    assert "multiplicity -1" in err


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
    # a symmetry check that breaks at once raises RuntimeError in systems
    with monkeypatch.context() as patch:
        patch.setattr(systems, "_first_break", lambda table, image: 0)
        code, out, err = run(capsys, "search", "max", "--n", "4", "--kind", "strong", "--r", "1")
    assert code == 1 and out == ""
    assert err == "internal error: relation table not invariant under complement at {}\n"
    # a normal with a zero last coordinate raises ArithmeticError in geometry
    real = geometry.normal_vector
    monkeypatch.setattr(geometry, "normal_vector", lambda c, t: real(c, t)[:-1] + (0,))
    code, out, err = run(capsys, "zono", "sides", "--n", "5", "--d", "3")
    assert code == 1 and out == ""
    assert err == "internal error: normal with zero last coordinate\n"


def test_membrane_enumerate_cap_is_one_line_error(capsys):
    for flavor in ("w", "e", "s"):
        code, out, err = run(
            capsys, "membrane", "enumerate", "--n", "5", "--d", "4", "--flavor", flavor,
            "--cap", "5",
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: --cap has nothing to cap: the scan decides every membrane "
            "without visiting it\n"
        )


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
    code, out, _ = run(capsys, "verify", "nonpurity")
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


def test_all_cube_runs_past_the_scan_cap_are_usage_errors(capsys):
    # C(n, d) * 2^(n-d) cubes: the ground size is checked before any output
    for argv in (("cub", "gamma", "--n", "13", "--d", "3"), ("verify", "acyclicity", "--nmax", "13")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: n = 13 exceeds the relation-table cap 12")
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

