"""Tests of the benchmark itself: its exact-answer gate, seeds, spans and contract.

    PYTHONPATH=src python3 -m pytest -q bench

They are not part of the tier-1 suite (pytest's testpaths is tests/).
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src", ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from oracles import (  # noqa: E402
    alternation_degree,
    raw_double_comb,
    raw_strongly_separated,
    raw_weakly_separated,
)
from spans import NullTracer, Span, Tracer  # noqa: E402
from zonosep.ground import elements  # noqa: E402
from zonosep.systems import weak_even_no_comb  # noqa: E402


def test_pair_probe_counts_match_the_brute_force_oracles():
    oracle = {
        "ground.degree": lambda a, b: alternation_degree(a, b),
        "separation.strong": lambda a, b: raw_strongly_separated(a, b, 2),
        "separation.weak_odd": lambda a, b: raw_weakly_separated(a, b, 3, 8),
        "separation.weak_even": lambda a, b: raw_weakly_separated(a, b, 2, 8),
        "separation.comb": lambda a, b: raw_double_comb(a, b, 2),
    }
    sets = [set(elements(m)) for m in range(256)]
    for name, _, count in workloads.PAIR_PROBES:
        total = sum(oracle[name](a, b) for a in sets for b in sets)
        assert total == count, name


def _run_main(monkeypatch, capsys, tmp_path, items) -> dict:
    """Timed run of a stand-in workload through run.main; returns the result line."""
    fake = workloads.Workload("flips-n9", lambda scratch: items)
    monkeypatch.setitem(workloads.WORKLOADS, "flips-n9", fake)
    monkeypatch.setattr(run, "setup_seconds", lambda name: 0.1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(["--workload", "flips-n9", "--seed", "3", "--seconds", "1"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_wrong_expected_value_makes_the_run_fail(monkeypatch, capsys, tmp_path):
    good = workloads.search_item("n7_weak_even_no_comb_r2", 7, weak_even_no_comb(2), 67)
    bad = workloads.search_item("n7_weak_even_no_comb_r2", 7, weak_even_no_comb(2), 68)

    result = _run_main(monkeypatch, capsys, tmp_path, [good])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    result = _run_main(monkeypatch, capsys, tmp_path, [good, bad])
    assert not result["correct"]
    assert result["failed"] * 2 == result["attempted"]  # every pass fails the bad item
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}


def test_raising_item_is_a_failure_not_a_crash():
    def boom(tr):
        raise RuntimeError("boom")

    outcome = run.run_item(workloads.Item("boom", boom, {}), NullTracer())
    assert not outcome.ok and "boom" in outcome.error


def test_cli_item_checks_its_verdict_line():
    cmd = workloads.SUITE[0]
    wrong = workloads.Command(cmd.id, cmd.args, ("weak r=1 {1,2,6} vs {2,3,4,5}: false",))
    assert run.run_item(workloads.cli_item(cmd), NullTracer()).ok
    assert not run.run_item(workloads.cli_item(wrong), NullTracer()).ok


def test_seed_permutes_the_order_and_nothing_else():
    def order(seed: int) -> list[str]:
        seen: list[str] = []
        items = [
            workloads.Item(str(i), lambda tr, i=i: seen.append(str(i)) or {}, {})
            for i in range(20)
        ]
        rng = random.Random(seed)
        run.run_pass(items, rng, NullTracer())
        run.run_pass(items, rng, NullTracer())
        return seen

    assert order(1) == order(1)
    assert order(1) != order(2)
    assert sorted(order(1)) == sorted(order(2))


def test_self_time_subtracts_the_children():
    tracer = Tracer()
    tracer.spans = [
        Span(0, "outer", None, 0.0, 10.0),
        Span(1, "inner", 0, 1.0, 4.0),
        Span(2, "inner", 0, 3.0, 6.0),  # overlaps its sibling: covered once
        Span(3, "leaf", 2, 4.0, 5.0),
    ]
    self_s = tracer.self_times()
    assert self_s["outer"] == 5.0
    assert self_s["inner"] == 3.0 + 2.0
    assert self_s["leaf"] == 1.0


def test_benchmark_json_names_every_workload_and_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in layers.LAYER_METRICS
    ]


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "flips-n9", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
