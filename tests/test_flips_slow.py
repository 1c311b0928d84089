"""The flip harnesses over ranges past the tier-1 suite (opt-in, a few seconds each).

    PYTHONPATH=src python -m pytest -q -m slow

Every range is exhaustive; the site, check and recorded counts pin the
amount of work, so a run cannot pass by covering less.
"""

from math import comb

import pytest

from oracles import reference_flip_theorem_odd, reference_local_neighb_even
from zonosep.flips import (
    verify_flip_theorem_odd,
    verify_local_neighb_even,
    verify_refined_lemma,
)

pytestmark = pytest.mark.slow


def _sites(n, r):
    return comb(n, r + 2) * 2 ** (n - r - 2)


@pytest.mark.parametrize(
    "n, r, sites, checks",
    [
        (10, 3, 8_064, 8_241_408),
        (10, 5, 960, 981_120),
        (11, 3, 29_568, 60_496_128),
    ],
)
def test_odd_flip_theorem_wide(n, r, sites, checks):
    report = verify_flip_theorem_odd(n, r)
    assert report.counterexamples == []
    assert (report.sites, report.checks, report.recorded) == (sites, checks, 0)
    assert sites == _sites(n, r) and checks == sites * (2**n - 2)


@pytest.mark.parametrize(
    "n, r, sites, checks, recorded",
    [
        (9, 2, 4_032, 2_072_448, 31_608),
        (10, 2, 13_440, 13_800_192, 183_282),
        (10, 4, 3_360, 3_445_440, 9_938),
    ],
)
def test_even_local_classification_wide(n, r, sites, checks, recorded):
    report = verify_local_neighb_even(n, r)
    assert report.counterexamples == []
    assert (report.sites, report.checks, report.recorded) == (sites, checks, recorded)
    assert sites == _sites(n, r)


def test_refined_lemma_wide():
    report = verify_refined_lemma(10, 3)
    assert report.counterexamples == []
    assert (report.sites, report.checks) == (8_064, 0)


@pytest.mark.parametrize(
    "harness, reference, n, r",
    [
        (verify_flip_theorem_odd, reference_flip_theorem_odd, 8, 3),
        (verify_local_neighb_even, reference_local_neighb_even, 8, 2),
    ],
)
def test_bench_ranges_match_the_reference_loops(harness, reference, n, r):
    # the benchmark's ranges, whole and in three shards, against the
    # per-Y loops of tests/oracles.py
    for shard in (None, (0, 3), (1, 3), (2, 3)):
        assert harness(n, r, shard=shard).to_json() == (
            reference(n, r, shard=shard).to_json()
        )
