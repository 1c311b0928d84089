"""Command-line behavior: output shape, exit codes, file export, determinism."""

import json

import pytest

from zonosep.cli import main
from zonosep.cubillage import Cubillage, standard_cubillage


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


def test_search_maximal(capsys):
    code, out, _ = run(
        capsys, "search", "maximal", "--n", "4", "--kind", "strong", "--r", "1",
        "--limit", "5",
    )
    assert code == 0
    assert "first 5 maximal STRONG(1) systems on [4]: 5" in out


def test_zono_vertices(capsys):
    code, out, _ = run(capsys, "zono", "vertices", "--n", "6", "--d", "4")
    assert code == 0
    assert "vertices of Z(6,4): 52" in out


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
    code, out, _ = run(capsys, "verify", "snr", "--nmax", "4")
    assert code == 0
    assert "strong n=4 r=1: max 11, bound 11, PASS" in out
    assert "FAIL" not in out


def test_verify_wnr(capsys):
    code, out, _ = run(capsys, "verify", "wnr", "--nmax", "4")
    assert code == 0
    assert "weak n=4 r=3: max 16, bound 16, PASS" in out


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


def test_verify_refined_and_even(capsys):
    code, out, _ = run(capsys, "verify", "refined", "--n", "5", "--r", "1")
    assert code == 0
    assert "refined_lemma n=5 r=1: 40 sites, 0 checks" in out
    code, out, _ = run(capsys, "verify", "even", "--n", "5", "--r", "2")
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


def test_verify_membranes_cap_reports_skip(capsys):
    code, out, _ = run(capsys, "verify", "membranes", "--nmax", "3", "--cap", "2")
    assert code == 0  # capped is a skip, not a failure
    assert "capped at 2, remainder skipped" in out


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
        main(["verify", "snr", "--threads", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, _, err = run(capsys, "verify", "flips", "--n", "5", "--r", "1", "--shard", "nope")
    assert code == 2
    for command in ("flips", "refined", "even"):
        r = "2" if command == "even" else "3"
        code, out, err = run(capsys, "verify", command, "--n", "13", "--r", r)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "relation-table cap 12" in err


def test_output_is_deterministic(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    code_a, out_a, _ = run(
        capsys, "verify", "flips", "--n", "4", "--r", "1", "--threads", "1",
        "--json", str(a),
    )
    code_b, out_b, _ = run(
        capsys, "verify", "flips", "--n", "4", "--r", "1", "--threads", "7",
        "--json", str(b),
    )
    assert code_a == code_b == 0
    assert out_a.replace(str(a), "") == out_b.replace(str(b), "")
    assert a.read_bytes() == b.read_bytes()
