"""Flip sites, witness pools, flip application, and the verification harnesses.

The harnesses are exhaustive over their stated ranges, so a green run
here is a mechanical check of the local flip statements at desk scale.
"""

from math import comb
from time import sleep

import pytest

import zonosep.flips as flips_module
import zonosep.separation as separation_module
from oracles import (
    bad_pair,
    even_sites,
    membrane_vertices,
    odd_sites,
    raw_surrounds,
    reference_flip_theorem_odd,
    reference_local_neighb_even,
    reference_refined_lemma,
    set_system,
    w_membranes,
)
from zonosep.cubillage import apex_vertices, standard_cubillage
from zonosep.flips import (
    LOWER,
    MODE_FULL,
    MODE_SHARP,
    PARITY_EVEN,
    PARITY_ODD,
    RAISE,
    FalsificationError,
    FlipSite,
    apply_flip,
    neighbors,
    neighbors_down,
    neighbors_up,
    verify_flip_theorem_odd,
    verify_local_neighb_even,
    verify_refined_lemma,
    _pool,
    _singleton_bricks,
)
from zonosep.ground import elements, interlacing_degree, mask_of, set_notation
from zonosep.membranes import fragment_precedence, raising_flip
from zonosep.separation import is_double_r_comb
from zonosep.systems import (
    RELATION_TABLE_CAP,
    SetSystem,
    check_pairwise,
    complement_table,
    relation_table,
    strong,
    weak,
)


def masks(n: int, *sets) -> list[int]:
    return [mask_of(s, n) for s in sets]


def test_site_parity_and_derived_numbers():
    odd = FlipSite(5, mask_of([5], 5), mask_of([2], 5), mask_of([1, 3], 5))
    assert odd.parity == PARITY_ODD
    assert (odd.r, odd.p.bit_count()) == (1, 1)
    assert odd.xp == mask_of([2, 5], 5)
    assert odd.xq == mask_of([1, 3, 5], 5)

    even = FlipSite(5, mask_of([5], 5), mask_of([1, 3], 5), mask_of([2, 4], 5))
    assert even.parity == PARITY_EVEN
    assert (even.r, even.p.bit_count()) == (2, 2)

    big = FlipSite(7, 0, mask_of([2, 4], 7), mask_of([1, 3, 5], 7))
    assert (big.parity, big.r) == (PARITY_ODD, 3)


def test_site_validation_errors():
    with pytest.raises(ValueError):  # P and Q overlap
        FlipSite(4, 0, mask_of([1, 2], 4), mask_of([2, 3], 4))
    with pytest.raises(ValueError):  # X meets P
        FlipSite(4, mask_of([1], 4), mask_of([1], 4), mask_of([2, 3], 4))
    with pytest.raises(ValueError):  # blocks, not interleaved
        FlipSite(4, 0, mask_of([3, 4], 4), mask_of([1, 2], 4))
    with pytest.raises(ValueError):  # |P| = |Q| = 1 fits neither parity
        FlipSite(4, 0, mask_of([1], 4), mask_of([2], 4))
    # odd sizes demand starting with Q: P={1}, Q={2,3} starts with P
    with pytest.raises(ValueError):
        FlipSite(4, 0, mask_of([1], 4), mask_of([2, 3], 4))


def test_four_witness_instance():
    # the smallest flip: P = {2}, Q = {1,3}; at r' = 1 all three pools
    # coincide and consist of the four witnesses i, k, ij, jk
    site = FlipSite(3, 0, mask_of([2], 3), mask_of([1, 3], 3))
    expected = set(masks(3, [1], [3], [1, 2], [2, 3]))
    assert set(neighbors_up(site).members) == expected
    assert set(neighbors_down(site).members) == expected
    assert set(neighbors(site).members) == expected

    w = set_system(3, [[1], [3], [1, 2], [2, 3], [2]])
    flipped = apply_flip(w, site, RAISE, MODE_SHARP)
    assert set(flipped.members) == set(masks(3, [1], [3], [1, 2], [2, 3], [1, 3]))
    ok, _ = check_pairwise(flipped, weak(1))
    assert ok
    assert apply_flip(flipped, site, LOWER, MODE_SHARP) == w
    assert apply_flip(w, site, RAISE, MODE_FULL) == flipped


def test_witness_pool_sizes_r3():
    site = FlipSite(7, mask_of([6], 7), mask_of([2, 4], 7), mask_of([1, 3, 5], 7))
    rp = site.p.bit_count()
    assert rp == 2
    pool = neighbors(site)
    assert len(pool.members) == comb(5, rp) + comb(5, rp + 1) - 2
    up = neighbors_up(site)
    down = neighbors_down(site)
    # no collisions among the written-out forms
    assert len(up.members) == (rp + 1) + rp * (rp + 1)
    assert len(down.members) == (rp + 1) + rp * (rp + 1)
    assert set(up.members) <= set(pool.members)
    assert set(down.members) <= set(pool.members)
    assert set(up.members) != set(down.members)


def test_odd_site_pair_facts():
    # at every odd site: XP, XQ are (r+2)-interlaced, XQ surrounds XP,
    # |XQ| > |XP|, and {XP, XQ} is the unique bad pair among the X-shifted
    # pool {P, Q} + neighbors
    for n, r in [(5, 1), (6, 3)]:
        count = 0
        for site in odd_sites(n, r):
            count += 1
            assert interlacing_degree(site.xp, site.xq) == r + 2
            assert raw_surrounds(set(elements(site.xq)), set(elements(site.xp)), n)
            assert site.xq.bit_count() == site.xp.bit_count() + 1
            shifted = [site.xp, site.xq] + [
                site.x | s for s in neighbors(site).members
            ]
            bad = [
                (a, b)
                for i, a in enumerate(shifted)
                for b in shifted[i + 1:]
                if bad_pair(a, b, r)
            ]
            assert bad == [(site.xp, site.xq)]
        assert count == comb(n, r + 2) * 2 ** (n - r - 2)


def test_flip_theorem_odd_harness():
    for n, r, sites in [(4, 1, 8), (5, 1, 40), (6, 3, 12), (7, 3, 84)]:
        report = verify_flip_theorem_odd(n, r)
        assert report.ok, report.counterexamples[:3]
        assert report.sites == sites
        assert report.checks == sites * (2 ** n - 2)


def test_sharding_partitions_the_run():
    for harness, n, r in [
        (verify_flip_theorem_odd, 5, 1),
        (verify_local_neighb_even, 6, 2),
    ]:
        whole = harness(n, r)
        parts = [harness(n, r, shard=(k, 3)) for k in range(3)]
        assert whole.stats["patterns"] == comb(n, r + 2)
        assert sum(p.sites for p in parts) == whole.sites
        assert sum(p.checks for p in parts) == whole.checks
        assert sum(p.recorded for p in parts) == whole.recorded
        assert all(p.ok for p in parts)
        assert [p.shard for p in parts] == ["0/3", "1/3", "2/3"]
        with pytest.raises(ValueError):
            harness(n, r, shard=(3, 3))
        for k in (0, 1):
            with pytest.raises(ValueError, match="shard count m must be at least 1"):
                harness(n, r, shard=(k, 0))


def test_refined_lemma_harness_is_empty():
    # the lemma's hypothesis (bad {Y,XP} with every raised witness good)
    # never materializes once the flip statement holds, so the report is
    # empty with zero triggered cases; the harness still walks every site
    for n, r in [(5, 1), (6, 3)]:
        report = verify_refined_lemma(n, r)
        assert report.ok
        assert report.checks == 0
        assert report.sites == comb(n, r + 2) * 2 ** (n - r - 2)


def test_singleton_bricks():
    # cortege of Y = {2,5}, B = {1,3,4}: bricks 1,2,3-4,5; the singleton
    # B-bricks are {1},{3..4 is not one}; Y singletons are {2},{5}
    y = mask_of([2, 5], 5)
    b = mask_of([1, 3, 4], 5)
    y_single, b_single = _singleton_bricks(y, b)
    assert y_single == {2, 5}
    assert b_single == {1}
    # shared elements belong to no brick
    y2 = mask_of([1, 2], 4)
    b2 = mask_of([2, 3], 4)
    assert _singleton_bricks(y2, b2) == ({1}, {3})


def test_local_neighb_even_harness():
    for n, r, sites, recorded in [(4, 2, 1, 0), (5, 2, 10, 4), (6, 2, 60, 66)]:
        report = verify_local_neighb_even(n, r)
        assert report.ok, report.counterexamples[:3]
        assert report.sites == sites
        assert report.recorded == recorded


def test_normalization_preserves_verdicts():
    # moving X out of Y ({Y, XS} versus {Y - X, (X - Y) + S}) keeps the
    # two difference sets and the cardinality gap, hence every verdict
    n = 5
    full = (1 << n) - 1
    for x in range(1 << n):
        rest = full & ~x
        s = rest
        while True:
            for y in range(1 << n):
                a, b = y, x | s
                a2, b2 = y & ~x, (x & ~y) | s
                assert interlacing_degree(a, b) == interlacing_degree(a2, b2)
                assert (a.bit_count() - b.bit_count()) == (
                    a2.bit_count() - b2.bit_count()
                )
                for r in (1, 2):
                    assert bad_pair(a, b, r) == bad_pair(a2, b2, r)
            if s == 0:
                break
            s = (s - 1) & rest


def test_complement_duality_reduction():
    # the lowered clause reduces to the raised one on complements: with
    # X' the complement of XPQ and Y' of Y, the bad raised witnesses of
    # (Y', X'P) map onto the bad lowered witnesses of (Y, XQ) via
    # S -> (P + Q) - S
    n, r = 5, 1
    full = (1 << n) - 1
    for site in odd_sites(n, r):
        union = site.p | site.q
        mirror = FlipSite(n, full & ~(site.x | union), site.p, site.q)
        for y in range(1 << n):
            if y in (site.xp, site.xq):
                continue
            ym = full & ~y
            assert bad_pair(y, site.xq, r) == bad_pair(ym, mirror.xp, r)
            down_bad = {
                s
                for s in neighbors_down(site).members
                if bad_pair(y, site.x | s, r)
            }
            up_bad = {
                union ^ s
                for s in neighbors_up(mirror).members
                if bad_pair(ym, mirror.x | s, r)
            }
            assert down_bad == up_bad


def test_apply_flip_validation():
    site = FlipSite(3, 0, mask_of([2], 3), mask_of([1, 3], 3))
    w = set_system(3, [[1], [3], [1, 2], [2, 3], [2]])
    with pytest.raises(ValueError, match="not in the collection"):
        apply_flip(set_system(3, [[1], [3]]), site, RAISE)
    with pytest.raises(ValueError, match="already in the collection"):
        apply_flip(
            set_system(3, [[1], [3], [1, 2], [2, 3], [2], [1, 3]]),
            site,
            RAISE,
        )
    with pytest.raises(ValueError, match="missing witnesses"):
        apply_flip(set_system(3, [[1], [3], [1, 2], [2]]), site, RAISE)
    with pytest.raises(ValueError, match="direction"):
        apply_flip(w, site, "sideways")
    with pytest.raises(ValueError, match="witness mode"):
        apply_flip(w, site, RAISE, "loose")
    with pytest.raises(ValueError, match="ground"):
        apply_flip(set_system(4, [[2]]), site, RAISE)
    # membership and witnesses fine, but {1,3,4} clashes with {2}
    site4 = FlipSite(4, 0, mask_of([2], 4), mask_of([1, 3], 4))
    bad = set_system(4, [[2], [1], [3], [1, 2], [2, 3], [1, 3, 4]])
    with pytest.raises(ValueError, match="not weakly"):
        apply_flip(bad, site4, RAISE)


def test_full_mode_is_odd_only():
    even = FlipSite(4, 0, mask_of([1, 3], 4), mask_of([2, 4], 4))
    w = set_system(4, [[1, 3]])
    with pytest.raises(ValueError, match="odd parity"):
        apply_flip(w, even, RAISE, MODE_FULL)
    with pytest.raises(ValueError, match="odd parity"):
        neighbors(even)


def test_even_flip_can_break_separation_legitimately():
    # witnesses alone do not protect an even-parity flip: here every
    # lowered witness is present, yet the raised member meets {1,3,5}
    # badly, so the flip must fail with a plain error, not a
    # falsification (the even theory needs comb-freeness on top)
    site = FlipSite(5, 0, mask_of([1, 3], 5), mask_of([2, 4], 5))
    stranger = mask_of([1, 3, 5], 5)
    down = [site.x | s for s in neighbors_down(site).members]
    w = SetSystem(5, set(down) | {site.xp, stranger})
    ok, _ = check_pairwise(w, weak(2))
    assert ok
    with pytest.raises(ValueError, match="comb-freeness"):
        apply_flip(w, site, RAISE, MODE_SHARP)
    try:
        apply_flip(w, site, RAISE, MODE_SHARP)
    except FalsificationError:  # pragma: no cover
        raise AssertionError("even parity must not report a falsification")
    except ValueError:
        pass


def test_membrane_flip_matches_apply_flip():
    # a raising flip at the middle slab of an odd-dimensional membrane
    # is the elementary flip on its vertex system: the cube's type at
    # even positions is P, at odd positions Q
    q = standard_cubillage(4, 3)
    deltas = fragment_precedence(q)[0]
    checked = 0
    for m in w_membranes(q):
        before = SetSystem(4, membrane_vertices(m).members)
        for delta in deltas:
            if delta.h != 2:
                continue
            try:
                flipped = raising_flip(m, delta)
            except ValueError:
                continue
            after = set(membrane_vertices(flipped).members)
            cube = delta.cube
            order = elements(cube.type)
            p = mask_of(order[1::2], 4)
            qmask = mask_of(order[0::2], 4)
            site = FlipSite(4, cube.root, p, qmask)
            t, h = apex_vertices(cube)
            assert (site.xp, site.xq) == (t, h)
            result = apply_flip(before, site, RAISE, MODE_SHARP)
            assert set(result.members) == after
            checked += 1
    assert checked == 12


def test_harness_report_json():
    report = verify_flip_theorem_odd(4, 1)
    blob = report.to_json()
    assert blob["schema"] == "zonosep/1"
    assert blob["name"] == "flip_theorem_odd"
    assert blob["ok"] is True
    assert blob["counterexamples"] == []
    assert blob["shard"] is None
    sharded = verify_flip_theorem_odd(4, 1, shard=(1, 2))
    assert sharded.to_json()["shard"] == "1/2"


def test_site_iterators_reject_wrong_parity():
    with pytest.raises(ValueError):
        list(odd_sites(5, 2))
    with pytest.raises(ValueError):
        list(even_sites(5, 1))
    with pytest.raises(ValueError):
        list(even_sites(5, 0))


def test_site_json_roundtrip_fields():
    site = FlipSite(6, mask_of([6], 6), mask_of([2, 4], 6), mask_of([1, 3, 5], 6))
    blob = site.to_json()
    assert blob == {
        "x": [6],
        "p": [2, 4],
        "q": [1, 3, 5],
        "parity": "odd",
        "r": 3,
    }
    assert site.label() == "X={6} P={2,4} Q={1,3,5}"


# Every real harness run reports no counterexamples, so the row-algebra
# path that emits them is pinned against the per-Y reference loops of
# tests/oracles.py: equal reports on the real relation, and equal,
# nonempty counterexample lists once both sides get the same wrong one.

ODD_RANGES = [(n, r) for n in range(3, 8) for r in range(1, n - 1, 2)]
EVEN_RANGES = [(n, r) for n in range(4, 8) for r in range(2, n - 1, 2)]


@pytest.mark.parametrize("n, r", ODD_RANGES)
def test_odd_harnesses_match_the_reference_loops(n, r):
    assert verify_flip_theorem_odd(n, r).to_json() == (
        reference_flip_theorem_odd(n, r).to_json()
    )
    assert verify_refined_lemma(n, r).to_json() == (
        reference_refined_lemma(n, r).to_json()
    )


@pytest.mark.parametrize("n, r", EVEN_RANGES)
def test_even_harness_matches_the_reference_loop(n, r):
    assert verify_local_neighb_even(n, r).to_json() == (
        reference_local_neighb_even(n, r).to_json()
    )


def test_sharded_harnesses_match_the_reference_loops():
    for k in range(3):
        assert verify_flip_theorem_odd(6, 1, shard=(k, 3)).to_json() == (
            reference_flip_theorem_odd(6, 1, shard=(k, 3)).to_json()
        )
        assert verify_local_neighb_even(7, 2, shard=(k, 3)).to_json() == (
            reference_local_neighb_even(7, 2, shard=(k, 3)).to_json()
        )


def _strong_bad(a, b, r):
    return not separation_module.is_strongly_r_separated(a, b, r)


def _weak_good(a, b, r):
    return a != b and separation_module.is_weakly_r_separated(a, b, r)


@pytest.mark.parametrize(
    "harness, reference, n, r, clauses",
    [
        (verify_flip_theorem_odd, reference_flip_theorem_odd, 5, 1, {"up", "down"}),
        (verify_flip_theorem_odd, reference_flip_theorem_odd, 6, 3, {"up", "down"}),
        (
            verify_local_neighb_even,
            reference_local_neighb_even,
            7,
            2,
            {"XQ+a", "XP-b", "converse-up", "converse-down"},
        ),
    ],
)
def test_wrong_relation_gives_the_same_counterexamples(
    monkeypatch, harness, reference, n, r, clauses
):
    # strong instead of weak separation: more pairs are bad
    monkeypatch.setattr(
        flips_module, "_bad_rows", lambda n, r: complement_table(n, strong(r))
    )
    got = harness(n, r).to_json()
    want = reference(n, r, bad=_strong_bad).to_json()
    assert got["counterexamples"]
    assert {c["clause"] for c in got["counterexamples"]} == clauses
    assert got["counterexamples"] == want["counterexamples"]
    assert got == want


@pytest.mark.parametrize("n, r", [(6, 2), (7, 2), (7, 4)])
def test_too_narrow_near_rows_are_caught(monkeypatch, n, r):
    # degree <= r + 1 instead of <= r + 2: no bad pair is near, so every
    # unwitnessed Y is recorded, none judged, and the counts leave the reference
    monkeypatch.setattr(
        flips_module, "_near_rows", lambda n, r: relation_table(n, strong(r))
    )
    got = verify_local_neighb_even(n, r).to_json()
    want = reference_local_neighb_even(n, r).to_json()
    assert got["recorded"] > want["recorded"]
    assert got != want


def test_even_stats_time_both_tables_outside_the_site_loop(monkeypatch):
    def slowed(rows):
        def build(n, r):
            sleep(0.05)
            return rows(n, r)

        return build

    monkeypatch.setattr(flips_module, "_bad_rows", slowed(flips_module._bad_rows))
    monkeypatch.setattr(flips_module, "_near_rows", slowed(flips_module._near_rows))
    stats = verify_local_neighb_even(5, 2).stats
    assert stats["table_s"] >= 0.1
    assert stats["sites_s"] < 0.05


def test_inverted_relation_gives_the_same_refined_counterexamples(monkeypatch):
    # strong separation leaves the singleton-brick dichotomy intact, so
    # the refined harness is fed the inverted relation instead
    monkeypatch.setattr(
        flips_module, "_bad_rows", lambda n, r: list(relation_table(n, weak(r)))
    )
    got = verify_refined_lemma(6, 1).to_json()
    want = reference_refined_lemma(6, 1, bad=_weak_good).to_json()
    assert len(got["counterexamples"]) == 26
    assert got == want


def _never_comb(a, b, r):
    return False


def _comb_below_6(a, b, r):
    # misses every partner whose difference with Y holds 6: the verdict
    # then depends on a and b, but still on the difference sets only
    return is_double_r_comb(a, b, r) and not (a ^ b) >> 5


def _check_wrong_comb_predicate(monkeypatch, wrong):
    # a real run first: partner lists kept from it across calls would
    # hide every uniqueness counterexample of the patched run
    assert verify_local_neighb_even(6, 2).ok
    monkeypatch.setattr(flips_module, "is_double_r_comb", wrong)
    monkeypatch.setattr(separation_module, "is_double_r_comb", wrong)
    got = verify_local_neighb_even(6, 2).to_json()
    want = reference_local_neighb_even(6, 2).to_json()
    assert {c["clause"] for c in got["counterexamples"]} == {
        "uniqueness-upper",
        "uniqueness-lower",
    }
    assert got == want


def test_wrong_comb_predicate_gives_the_same_uniqueness_counterexamples(monkeypatch):
    _check_wrong_comb_predicate(monkeypatch, _never_comb)


def test_partner_dependent_comb_predicate_gives_the_same_counterexamples(monkeypatch):
    # a verdict kept per (P, Q) alone, not per (P, Q, a) and (P, Q, b), fails here
    _check_wrong_comb_predicate(monkeypatch, _comb_below_6)


@pytest.mark.parametrize(
    "harness", [verify_flip_theorem_odd, verify_refined_lemma, verify_local_neighb_even]
)
def test_harness_range_is_checked_before_the_run(monkeypatch, harness):
    def no_table(n, r):
        raise AssertionError("table built before the range check")

    monkeypatch.setattr(flips_module, "_bad_rows", no_table)
    r = 2 if harness is verify_local_neighb_even else 3
    with pytest.raises(ValueError, match="relation-table cap"):
        harness(RELATION_TABLE_CAP + 1, r)


@pytest.mark.parametrize(
    "harness, n, r",
    [
        (verify_flip_theorem_odd, 3, 3),
        (verify_refined_lemma, 1, 1),
        (verify_local_neighb_even, 3, 2),
    ],
)
def test_empty_site_range_is_an_error(monkeypatch, harness, n, r):
    # r + 2 > n leaves no site; a run over nothing must not pass
    def no_table(n, r):
        raise AssertionError("table built before the range check")

    monkeypatch.setattr(flips_module, "_bad_rows", no_table)
    with pytest.raises(ValueError, match="leaves no flip site"):
        harness(n, r)
    sites = even_sites if harness is verify_local_neighb_even else odd_sites
    with pytest.raises(ValueError, match="needs n >= "):
        sites(n, r)  # raised on the call, before the first site is drawn


def _partners(y, x, pool, r):
    return [s for s in pool if is_double_r_comb(y, x | s, r)]


def test_even_judge_verdicts_do_not_depend_on_x():
    # the even harness works out the double-comb partners of Y = XQ + {a}
    # once per (P, Q, a), and of Y = XP - {b} once per (P, Q, b); they, and
    # the degree with the lead set, must equal those at the smallest X
    # carrying a or b
    judged = 0
    for n in range(4, 8):
        for r in (2, 4):
            if r + 2 > n:
                continue
            for site in even_sites(n, r):
                p, q, x = site.p, site.q, site.x
                rp = p.bit_count()
                upper, lower = _pool(p, q, rp, rp + 1), _pool(p, q, rp - 1, rp)
                p1 = elements(p)[0]
                for a in range(p1 + 1, n + 1):
                    bit = 1 << (a - 1)
                    if bit & (x | p | q):
                        continue
                    y, y0 = site.xq | bit, q | bit
                    assert _partners(y, x, upper, r) == _partners(y0, 0, upper, r)
                    assert interlacing_degree(y, site.xp) == interlacing_degree(y0, p)
                    judged += 1
                for b in elements(x):
                    if b <= p1:
                        continue
                    bit = 1 << (b - 1)
                    y = site.xp & ~bit
                    assert _partners(y, x, lower, r) == _partners(p, bit, lower, r)
                    assert interlacing_degree(y, site.xq) == interlacing_degree(p, q | bit)
                    judged += 1
    assert judged == 788
