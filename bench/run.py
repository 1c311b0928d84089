"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 bench/run.py --workload scan-z73 --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports zonosep from src/ and
drives the CLI as `python -m zonosep.cli` with PYTHONPATH=src, so the
package need not be installed.  One client runs the workload's items
one after another in this process (a closed loop, no threads).

--trace 0  times passes over the workload's items until --seconds is
           used up and reports the end-to-end metrics: verdict_s (median
           pass), setup_s (median of fresh-interpreter set-ups) and
           peak_rss_mib.
--trace 1  runs one untraced pass of the workload, then one traced pass
           of every workload and the layer probes, and reports the
           per-layer metrics of layers.py, including the tracing
           overhead on this workload.

The seed only permutes the order of items inside each pass.  Every item
checks its exact expected results; a mismatch or an exception counts as
a failed item and the run goes on.  A record of the run, with the
machine's load before and after, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from spans import NullTracer, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 6  # half before the timed passes and half after, to sample the host twice
SETUP_TIMEOUT_S = 60


@dataclass
class Outcome:
    item: str
    ok: bool
    observed: dict | None
    error: str | None = None


def run_item(item, tracer) -> Outcome:
    try:
        with tracer.span(f"item.{item.name}"):
            observed = item.call(tracer)
    except Exception as exc:  # an item that raises is a failed item, not a failed run
        return Outcome(item.name, False, None, f"{type(exc).__name__}: {exc}")
    return Outcome(item.name, observed == item.expected, observed)


def run_pass(items, rng: random.Random, tracer) -> tuple[float, list[Outcome]]:
    """One pass over the items in a seeded order: (seconds to the last verdict, outcomes)."""
    order = list(items)
    rng.shuffle(order)
    start = perf_counter()
    outcomes = [run_item(item, tracer) for item in order]
    return perf_counter() - start, outcomes


def setup_seconds(workload: str) -> float:
    """Wall time of a fresh interpreter that imports zonosep and builds the inputs."""
    start = perf_counter()
    subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--setup-only"],
        cwd=ROOT,
        check=True,
        capture_output=True,
        timeout=SETUP_TIMEOUT_S,
    )
    return perf_counter() - start


def peak_rss_mib(with_children: bool) -> float:
    """Peak RSS of this process, plus the largest child's when the workload spawns them."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def timed_run(workload, seed: int, seconds: int, scratch: Path) -> dict:
    setups = [setup_seconds(workload.name) for _ in range(SETUP_PROBES // 2)]
    items = workload.build(scratch)
    rng = random.Random(seed)
    passes: list[float] = []
    outcomes: list[Outcome] = []
    start = perf_counter()
    # start another pass only while it is expected to end within --seconds
    while not passes or perf_counter() - start + statistics.median(passes) <= seconds:
        elapsed, done = run_pass(items, rng, NullTracer())
        passes.append(elapsed)
        outcomes += done
    setups += [setup_seconds(workload.name) for _ in range(SETUP_PROBES - len(setups))]
    return {
        "outcomes": outcomes,
        "metrics": {
            "verdict_s": (statistics.median(passes), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (peak_rss_mib(workload.spawns), "MiB"),
        },
        "notes": {
            "verdict_s": f"median of {len(passes)} passes",
            "setup_s": f"median of {len(setups)} fresh interpreters",
            "peak_rss_mib": "this process plus its largest child" if workload.spawns
            else "this process",
        },
        "record": {"passes_s": passes, "setups_s": setups},
    }


def traced_run(workload, seed: int, scratch: Path) -> dict:
    import layers
    import workloads

    rng = random.Random(seed)
    builds = {name: w.build(scratch) for name, w in workloads.WORKLOADS.items()}
    reference_s, outcomes = run_pass(builds[workload.name], rng, NullTracer())
    tracer = Tracer()
    traced: list[Outcome] = []
    for name in [workload.name] + [n for n in builds if n != workload.name]:
        with tracer.span(f"workload.{name}"):
            traced += run_pass(builds[name], rng, tracer)[1]
    traced += [run_item(item, tracer) for item in workloads.build_probes()]
    facts = layers.Facts(
        tracer, {o.item: o.observed for o in traced if o.ok}, workload.name, reference_s
    )
    values = layers.layer_values(facts)
    units = {m.name: m.unit for m in layers.LAYER_METRICS}
    return {
        "outcomes": outcomes + traced,
        "metrics": {name: (value, units[name]) for name, value in values.items()},
        "notes": {m.name: f"moves {m.moves}" for m in layers.LAYER_METRICS},
        "record": {"reference_s": reference_s, "trace": tracer.to_json()},
    }


# ---------------------------------------------------------------- environment


def _loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": _loadavg(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------- entry point


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the workload's inputs, then exit")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "zonosep").is_dir():
        print(f"error: {SRC / 'zonosep'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        workload.build(OUT / "setup")
        return 0

    env = environment()
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir()
    try:
        if args.trace:
            result = traced_run(workload, args.seed, scratch)
        else:
            result = timed_run(workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    env["loadavg_end"] = _loadavg()

    outcomes = result["outcomes"]
    failures = [o for o in outcomes if not o.ok]
    metrics = result["metrics"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "attempted": len(outcomes),
        "failed": len(failures),
        "failed_share": len(failures) / len(outcomes),
        "failures": [vars(o) for o in failures],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": result["notes"],
        **result["record"],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True))

    print(f"env {json.dumps(env, sort_keys=True)}")
    for o in failures:
        print(f"FAILED {o.item}: {o.error or o.observed}")
    for key, (value, unit) in metrics.items():
        print(f"{key:<48} {value:14.6g} {unit:<6} {result['notes'][key]}")
    print(f"failed_share {record['failed_share']:.6g} "
          f"({len(failures)} of {len(outcomes)} items); record bench/out/{name}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
