"""Per-layer metrics of the traced run, and the end-to-end metric each should move.

Every value is derived from the spans the traced run records around the
benchmark's own calls into zonosep, or from the counts its items
observed.  `moves` states the prediction written down before any
optimisation: which end-to-end metric, on which workload, a change to
that layer should show up in.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable

from spans import Tracer
from workloads import CLI_COMMAND_IDS, PAIR_PROBES, PROBE_PAIRS, SEARCH_INSTANCES, Z73_MEMBRANES


@dataclass(frozen=True)
class Facts:
    tracer: Tracer
    observed: dict[str, dict]  # item name -> observed results of its traced run
    workload: str  # the workload whose untraced and traced passes are compared
    reference_s: float  # its untraced pass


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str
    value: Callable[[Facts], float]


def _total(f: Facts, name: str) -> float:
    durations = f.tracer.durations(name)
    if not durations:
        raise LookupError(name)
    return sum(durations)


def _total_under(f: Facts, prefix: str) -> float:
    durations = f.tracer.durations_under(prefix)
    if not durations:
        raise LookupError(prefix)
    return sum(durations)


def _median(f: Facts, name: str) -> float:
    return statistics.median(f.tracer.durations(name))


FLIPS = "verdict_s on flips-n9"
SEARCH = "verdict_s on search-n8"
INPUTS = "setup_s on scan-z73 and verdict_s on cli-suite"
SCAN = "verdict_s on scan-z73"
CLI = "verdict_s on cli-suite"
TRACE = "nothing: it is the tracing overhead on the run's workload"


def _walk(f: Facts) -> float:
    return _total(f, "posets.scan_ideals")


def _scan(f: Facts) -> float:
    return _total(f, "membranes.scan_membranes")


def _adjacency(f: Facts) -> float:
    return _total_under(f, "systems.compatibility_adjacency.")


def _search(f: Facts) -> float:
    return _total_under(f, "systems.max_size.")


def _flip_count(item: str, key: str) -> Callable[[Facts], float]:
    return lambda f: f.observed[item][key]


def _flip_rate(item: str, span: str) -> Callable[[Facts], float]:
    return lambda f: f.observed[item]["checks"] / _total(f, span)


def _metrics() -> list[LayerMetric]:
    m = [
        LayerMetric(f"{span}.pairs_per_s", "1/s", "higher", FLIPS,
                    lambda f, span=span: PROBE_PAIRS / _median(f, span))
        for span, _, _ in PAIR_PROBES
    ]
    m += [
        LayerMetric("systems.adjacency_s", "s", "lower", SEARCH, _adjacency),
        LayerMetric("systems.search_s", "s", "lower", SEARCH, _search),
        LayerMetric("systems.search_self_s", "s", "lower", SEARCH,
                    lambda f: _search(f) - _adjacency(f)),
        LayerMetric("systems.check_pairwise_s", "s", "lower", SEARCH,
                    lambda f: _total_under(f, "systems.check_pairwise.")),
    ]
    m += [
        LayerMetric(f"systems.search_s.{inst}", "s", "lower", SEARCH,
                    lambda f, inst=inst: _total(f, f"systems.max_size.{inst}"))
        for inst, *_ in SEARCH_INSTANCES
    ]
    m += [
        LayerMetric(name, "s", "lower", INPUTS, lambda f, span=span: _median(f, span))
        for name, span in (
            ("geometry.sides_s", "geometry.zonotope_sides"),
            ("cubillage.build_s", "cubillage.standard_cubillage"),
            ("cubillage.validate_s", "cubillage.validate_cubillage"),
            ("membranes.precedence_s", "membranes.fragment_precedence"),
        )
    ]
    m += [
        LayerMetric("posets.walk_s", "s", "lower", SCAN, _walk),
        LayerMetric("posets.ideals_per_s", "1/s", "higher", SCAN,
                    lambda f: Z73_MEMBRANES / _walk(f)),
        LayerMetric("membranes.scan_s", "s", "lower", SCAN, _scan),
        LayerMetric("membranes.per_s", "1/s", "higher", SCAN,
                    lambda f: Z73_MEMBRANES / _scan(f)),
        LayerMetric("membranes.bookkeeping_s", "s", "lower", SCAN,
                    lambda f: _scan(f) - _walk(f)),
    ]
    for parity, item, span in (
        ("odd", "flips.odd_n9_r3", "flips.verify_flip_theorem_odd"),
        ("even", "flips.even_n8_r2", "flips.verify_local_neighb_even"),
    ):
        m.append(LayerMetric(f"flips.{parity}.checks_per_s", "1/s", "higher", FLIPS,
                             _flip_rate(item, span)))
        keys = ("sites", "checks", "recorded") if parity == "even" else ("sites", "checks")
        m += [
            LayerMetric(f"flips.{parity}.{key}", "count", "higher", FLIPS,
                        _flip_count(item, key))
            for key in keys  # the odd harness records nothing: 0 is not reported
        ]
    m += [
        LayerMetric("cli.interpreter_s", "s", "lower", CLI,
                    lambda f: _median(f, "cli.interpreter")),
        LayerMetric("cli.import_s", "s", "lower", CLI,
                    lambda f: _median(f, "cli.help") - _median(f, "cli.interpreter")),
    ]
    m += [
        LayerMetric(f"cli.{cid}_s", "s", "lower", CLI, lambda f, cid=cid: _total(f, f"cli.{cid}"))
        for cid in CLI_COMMAND_IDS
    ]
    m += [
        LayerMetric("trace.verdict_s", "s", "lower", TRACE,
                    lambda f: _total(f, f"workload.{f.workload}")),
        LayerMetric("trace.slowdown", "ratio", "lower", TRACE,
                    lambda f: _total(f, f"workload.{f.workload}") / f.reference_s),
    ]
    return m


LAYER_METRICS = _metrics()


def layer_values(facts: Facts) -> dict[str, float]:
    """Every layer metric the traced run could measure; a failed item leaves gaps."""
    values = {}
    for metric in LAYER_METRICS:
        try:
            values[metric.name] = metric.value(facts)
        except (LookupError, ZeroDivisionError, statistics.StatisticsError):
            continue
    return values
