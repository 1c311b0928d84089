"""Acceptance gate: the headline exact results, one criterion per test.

Each test prints a single PASS line on success (visible with -s); every
check is exact integer equality, never approximate.  Ranges are chosen
so the whole gate is exhaustive yet runs in minutes on a desk machine.
"""

import random

from oracles import (
    alternation_degree,
    odd_sites,
    raw_double_comb,
    raw_strongly_separated,
    raw_weakly_separated,
)
from zonosep.cubillage import (
    bead_thread_graph,
    gamma_graph,
    standard_cubillage,
    validate_cubillage,
)
from zonosep.flips import (
    LOWER,
    MODE_SHARP,
    RAISE,
    apply_flip,
    neighbors,
    verify_flip_theorem_odd,
    verify_local_neighb_even,
    verify_refined_lemma,
)
from zonosep.geometry import boundary_vertices
from zonosep.ground import elements, interlacing_degree, mask_of
from zonosep.membranes import (
    FLAVOR_E,
    fragment_precedence,
    scan_membranes,
)
from zonosep.posets import is_acyclic
from zonosep.separation import (
    is_double_r_comb,
    is_strongly_r_separated,
    is_weakly_r_separated,
)
from zonosep.systems import (
    SetSystem,
    check_pairwise,
    extend_to_maximal,
    max_size,
    nonpurity_witness,
    s_formula,
    strong,
    weak,
    weak_odd,
)

STRUCTURAL = ((4, 2), (4, 3), (5, 3), (6, 4), (5, 5))


def both_cubillages(n: int, d: int):
    yield standard_cubillage(n, d)
    yield standard_cubillage(n, d, anti=True)


def test_criterion_01_strong_maximum_sizes():
    for n in range(2, 7):
        for r in range(1, n):
            size, witness = max_size(n, strong(r))
            assert size == s_formula(n, r), (n, r, size)
            ok, _ = check_pairwise(witness, strong(r))
            assert ok and len(witness) == size
    print("criterion 01 strong maximum C(n,<=r+1) on n<=6: PASS")


def test_criterion_02_weak_maximum_sizes():
    for r in (1, 3):
        for n in range(r + 1, 7):
            size, witness = max_size(n, weak_odd(r))
            assert size == s_formula(n, r), (n, r, size)
            ok, _ = check_pairwise(witness, weak_odd(r))
            assert ok and len(witness) == size
    special, _ = max_size(4, weak_odd(1))
    assert special == 11
    print("criterion 02 weak maximum C(n,<=r+1), r in {1,3}, n<=6: PASS")


def test_criterion_03_nonpurity():
    verts = boundary_vertices(6, 4)
    assert len(verts) == 52
    m = lambda *es: mask_of(es, 6)
    twelve = [
        m(2, 4), m(2, 5), m(3, 5),
        m(1, 3, 5), m(1, 3, 6), m(1, 4, 6), m(2, 3, 5), m(2, 4, 5), m(2, 4, 6),
        m(1, 2, 4, 6), m(1, 3, 4, 6), m(1, 3, 5, 6),
    ]
    assert set(range(64)) - verts.member_set() == set(twelve)
    witness = nonpurity_witness(verts)
    assert len(witness) == 55
    ok, _ = check_pairwise(witness, weak_odd(3))
    assert ok
    assert extend_to_maximal(witness, weak_odd(3)) == witness
    assert len(witness) < 57 == s_formula(6, 3)
    print("criterion 03 nonpurity 52 vertices, 12 outsiders, 55 < 57: PASS")


def test_criterion_04_cubillages_validate():
    for n, d in STRUCTURAL:
        for q in both_cubillages(n, d):
            report = validate_cubillage(q)
            assert report.ok, (n, d, report.problems)
            verts = q.vertex_set()
            assert len(verts) == min(s_formula(n, d - 1), 1 << n)
            members = verts.members
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    assert is_strongly_r_separated(a, b, d - 1)
    print("criterion 04 cubillage validation and vertex separation: PASS")


def test_criterion_05_precedence_acyclic():
    for n in range(2, 6):
        for d in range(2, min(n, 3) + 1):
            cubes, succs = gamma_graph(n, d)
            assert is_acyclic(len(cubes), succs), (n, d)
    for n, d in STRUCTURAL:
        for q in both_cubillages(n, d):
            deltas, succs = fragment_precedence(q)
            assert is_acyclic(len(deltas), succs)
            if d % 2 == 0:
                deltas, succs = fragment_precedence(q, FLAVOR_E)
                assert is_acyclic(len(deltas), succs)
    print("criterion 05 precedence digraphs acyclic: PASS")


def test_criterion_06_bead_threads():
    for n, d in STRUCTURAL:
        for q in both_cubillages(n, d):
            threads = bead_thread_graph(q)
            assert threads.ok, (n, d, threads.problems)
            assert len(threads.arcs) == len(q.cubes)
    print("criterion 06 bead threads chain front to rear: PASS")


def test_criterion_07_membrane_vertex_systems():
    targets = [(3, 3), (4, 3), (5, 3), (6, 3), (5, 5)]
    counts = {}
    for n, d in targets:
        q = standard_cubillage(n, d)
        report = scan_membranes(q)
        assert not report.violations, report.violations[:3]
        assert not report.capped
        assert report.sizes_seen == {s_formula(n, d - 2)}
        counts[n, d] = report.membrane_count
    assert counts == {(3, 3): 4, (4, 3): 30, (5, 3): 496, (6, 3): 17812, (5, 5): 6}
    print("criterion 07 membrane systems weakly (d-2)-separated, shared size: PASS")


def test_criterion_08_flip_harnesses_empty():
    for n, r in [(4, 1), (5, 1), (6, 3), (7, 3)]:
        report = verify_flip_theorem_odd(n, r)
        assert report.ok, (n, r, report.counterexamples[:3])
        refined = verify_refined_lemma(n, r)
        assert refined.ok, (n, r, refined.counterexamples[:3])
    print("criterion 08 flip witness harnesses empty up to (7,3): PASS")


def test_criterion_09_even_local_harness_empty():
    for n, r in [(4, 2), (5, 2), (6, 2)]:
        report = verify_local_neighb_even(n, r)
        assert report.ok, (n, r, report.counterexamples[:3])
    print("criterion 09 even-parity local classification harness empty: PASS")


def test_criterion_10_comb_free_scan():
    for n in (4, 5):
        for q in both_cubillages(n, 4):
            report = scan_membranes(q, FLAVOR_E, check_combs=True)
            assert not report.violations and not report.capped
            assert report.comb_free is True
            assert report.sizes_seen == {s_formula(n, 2)}
    print("criterion 10 comb-free scan over center-avoiding membranes: PASS")


def test_criterion_11_property_suites():
    rng = random.Random(20260822)
    for _ in range(2500):
        n = rng.randint(2, 7)
        a = rng.getrandbits(n)
        b = rng.getrandbits(n)
        r = rng.randint(1, n)
        full = (1 << n) - 1
        # symmetry
        assert is_weakly_r_separated(a, b, r) == is_weakly_r_separated(b, a, r)
        assert is_strongly_r_separated(a, b, r) == is_strongly_r_separated(b, a, r)
        # complement invariance
        assert is_weakly_r_separated(a, b, r) == is_weakly_r_separated(
            full & ~a, full & ~b, r
        )
        # strong implies weak
        if is_strongly_r_separated(a, b, r):
            assert is_weakly_r_separated(a, b, r)
        # oracle equivalences on raw set arithmetic
        sa, sb = set(elements(a)), set(elements(b))
        assert interlacing_degree(a, b) == alternation_degree(sa, sb)
        assert is_strongly_r_separated(a, b, r) == raw_strongly_separated(sa, sb, r)
        assert is_weakly_r_separated(a, b, r) == raw_weakly_separated(sa, sb, r, n)
        if r % 2 == 0 and r >= 2:
            assert is_double_r_comb(a, b, r) == raw_double_comb(sa, sb, r)
    # flip involution across every small site with the full witness pool
    flips_done = 0
    for site in odd_sites(4, 1):
        members = {site.xp} | {site.x | s for s in neighbors(site).members}
        w = SetSystem(4, members)
        ok, _ = check_pairwise(w, weak(1))
        assert ok  # witnesses plus the lower member always coexist
        raised = apply_flip(w, site, RAISE, MODE_SHARP)
        assert apply_flip(raised, site, LOWER, MODE_SHARP) == w
        flips_done += 1
    assert flips_done == 8
    print("criterion 11 fixed-seed randomized and exhaustive properties: PASS")
