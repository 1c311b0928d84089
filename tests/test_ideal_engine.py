"""The ideal walker, the ideal count and the decided membrane scan against oracles.

`tests/oracles.py` keeps the recursive walker, a breadth-first ideal
counter, the middle-split ideal count and the per-tile refcount walk
over every membrane; the walker's callbacks, the counts, the sizes and
the exact sets of violating pairs must agree with them.
"""

import random
from functools import lru_cache
from itertools import product

import pytest

import zonosep.membranes as mb
import zonosep.posets as posets
from zonosep.cubillage import Cubillage, from_inversions, precedence_digraph, standard_cubillage
from zonosep.membranes import (
    FLAVOR_E,
    FLAVOR_S,
    FLAVOR_W,
    KIND_COMB,
    KIND_SIZE,
    KIND_WEAK,
    MembraneInvariantError,
    fragment_precedence,
    membrane_from_ideal,
    scan_membranes,
)
from zonosep.posets import IdealCapExceeded, Poset, scan_ideals
from zonosep.separation import is_double_r_comb, is_strongly_r_separated
from zonosep.systems import complement_table, strong, weak, weak_odd

from oracles import (
    bruhat_order,
    capped,
    count_ideals_bfs,
    reference_count_ideals,
    reference_scan_ideals,
    reference_scan_membranes,
)


def _events(walker, count, succs, cap=None):
    """The full callback stream of one walk, ending in the cap if hit."""
    log = []
    try:
        total = walker(
            count,
            succs,
            visit=capped(lambda ideal: log.append(("visit", ideal)), cap),
            enter=lambda node: log.append(("enter", node)),
            leave=lambda node: log.append(("leave", node)),
        )
    except IdealCapExceeded:
        log.append(("capped", cap))
    else:
        log.append(("total", total))
    return log


def _precedences(n, d, anti):
    q = standard_cubillage(n, d, anti)
    yield "fragment", fragment_precedence(q)[1]
    yield "cube", precedence_digraph(q.cubes)
    if d % 2 == 0:
        yield "enlarged", fragment_precedence(q, FLAVOR_E)[1]


@pytest.mark.parametrize("anti", [False, True], ids=["standard", "anti"])
def test_callback_sequence_matches_recursive_walker(anti):
    for n in range(2, 7):
        for d in range(2, n + 1):
            for kind, succs in _precedences(n, d, anti):
                count = len(succs)
                for cap in (None, 0, 7):
                    got = _events(scan_ideals, count, succs, cap)
                    want = _events(reference_scan_ideals, count, succs, cap)
                    assert got == want, (n, d, anti, kind, cap)


def test_callbacks_are_optional():
    q = standard_cubillage(5, 3)
    deltas, succs = fragment_precedence(q)
    assert scan_ideals(len(deltas), succs) == 496
    with pytest.raises(IdealCapExceeded):
        scan_ideals(len(deltas), succs, visit=capped(None, 495))
    assert scan_ideals(len(deltas), succs, visit=capped(None, 496)) == 496


def test_deep_chain_does_not_recurse():
    # the recursive walker needed one Python frame per chain element
    count = 1200
    succs = [[i + 1] for i in range(count - 1)] + [[]]
    depth = []
    assert scan_ideals(count, succs, visit=lambda ideal: depth.append(len(ideal))) == 1201
    assert depth == list(range(count + 1))


def test_deep_fragment_precedence_scans_to_its_cap():
    # Z(10,5) has 1,260 fragments, chained deeper than the recursion limit
    deltas, succs = fragment_precedence(standard_cubillage(10, 5))
    assert len(deltas) == 1260
    seen = []
    with pytest.raises(IdealCapExceeded):
        scan_ideals(len(deltas), succs, visit=capped(seen.append, 3000))
    assert len(seen) == 3000


@pytest.mark.parametrize("anti", [False, True], ids=["standard", "anti"])
def test_count_matches_breadth_first_oracle(anti):
    for n in range(2, 6):
        for d in range(2, n + 1):
            for kind, succs in _precedences(n, d, anti):
                assert Poset(len(succs), succs).count_ideals() == count_ideals_bfs(
                    len(succs), succs
                ), (n, d, anti, kind)


def test_count_on_random_posets():
    for count, succs in _random_posets():
        assert Poset(count, succs).count_ideals() == count_ideals_bfs(count, succs)


def _random_posets():
    rng = random.Random(20261018)
    for _ in range(300):
        count = rng.randint(0, 12)
        density = rng.random()
        yield count, [
            [j for j in range(i + 1, count) if rng.random() < density / 3]
            for i in range(count)
        ]


def _split_states(succs):
    """(memo states of the product split, of the middle split), counts checked equal."""
    poset = posets.Poset(len(succs), succs)
    count = poset.count_ideals()
    want, states = reference_count_ideals(len(succs), succs)
    assert count == want
    return poset.states, states


def test_count_matches_middle_split_on_small_posets():
    # the product split may hold a few more states than the middle split
    # on a small poset, but fewer in total on each family
    for family in (
        [succs for _, succs in _random_posets()],
        [
            succs
            for n in range(2, 7)
            for d in range(2, n + 1)
            for anti in (False, True)
            for _, succs in _precedences(n, d, anti)
        ],
    ):
        got, want = map(sum, zip(*map(_split_states, family)))
        assert got < want


@pytest.mark.parametrize("anti", [False, True], ids=["standard", "anti"])
@pytest.mark.parametrize(
    "n, d, flavor",
    [(8, 3, FLAVOR_W), (8, 4, FLAVOR_E)],
    ids=["8-3-fragment_precedence", "8-4-enlarged_precedence"],
)
def test_product_split_needs_fewer_states_at_n8(n, d, flavor, anti):
    # Z(8,3) w: 3,211 / 3,211 states against 30,575 / 15,862;
    # Z(8,4) e: 1,770 / 1,772 against 65,490 / 64,321
    got, want = _split_states(fragment_precedence(standard_cubillage(n, d, anti), flavor)[1])
    assert 3 * got < want


def _against_local_product(succs):
    """(memo states of the split, of the local product alone), counts checked equal."""
    poset = posets.Poset(len(succs), succs)
    count = poset.count_ideals()
    want, states = reference_count_ideals(len(succs), succs, split="product")
    assert count == want
    return poset.states, states


@pytest.mark.parametrize("anti", [False, True], ids=["standard", "anti"])
@pytest.mark.parametrize("d, flavor", [(3, FLAVOR_W), (4, FLAVOR_E)], ids=["w", "e"])
def test_split_never_needs_more_states_than_the_local_product(d, flavor, anti):
    # the whole-poset factors |up(x)| * |down(x)| cut the states on both
    # standard cubillages up to n = 8 (Z(8,3) w: 4,517 -> 3,211)
    for n in range(d, 9):
        got, want = _against_local_product(
            fragment_precedence(standard_cubillage(n, d, anti), flavor)[1]
        )
        assert got <= want, (n, d, anti)


@pytest.mark.parametrize("n, d, flavor", [(6, 3, FLAVOR_W), (7, 4, FLAVOR_E)])
def test_split_needs_fewer_states_over_every_cubillage(n, d, flavor):
    # summed over B(6,3) (148 cubillages) 27,425 states against 32,161,
    # over B(7,4) (338) 88,306 against 98,974; single cubillages can need
    # more (4 and 10 of them), so only the sums are compared
    got, want = map(sum, zip(*(
        _against_local_product(fragment_precedence(from_inversions(n, d, u), flavor)[1])
        for u in bruhat_order(n, d)
    )))
    assert got < want


def test_deep_chain_counts_without_recursion():
    count = 5000
    succs = [[i + 1] for i in range(count - 1)] + [[]]
    assert Poset(count, succs).count_ideals() == count + 1
    assert Poset(20, [[] for _ in range(20)]).count_ideals() == 1 << 20


def test_count_stops_at_its_state_budget(monkeypatch):
    deltas, succs = fragment_precedence(standard_cubillage(6, 3))
    assert Poset(len(deltas), succs).count_ideals() == 17812
    monkeypatch.setattr(posets, "IDEAL_STATE_BUDGET", 50)
    with pytest.raises(IdealCapExceeded, match="exceeded the cap of 50"):
        Poset(len(deltas), succs).count_ideals()


def _instances():
    """Every scan with n <= 6: both flavours where defined, combs at even d.

    The last field is a memo budget for the count, or None; a budget
    too small stops the scan undecided and never changes a result.
    """
    out = []
    for n in range(3, 7):
        for d in range(3, n + 1):
            for flavor in (FLAVOR_W, FLAVOR_E) if d % 2 == 0 else (FLAVOR_W,):
                for combs in (False, True) if d % 2 == 0 else (False,):
                    out.append((n, d, flavor, combs, None))
    return out + [
        (6, 3, FLAVOR_W, False, 200),
        (6, 4, FLAVOR_W, False, 1500),
        (6, 4, FLAVOR_E, True, 1000),
    ]


@lru_cache(maxsize=None)
def _walked(n, d, anti, flavor):
    # the walk with combs sees the weak pairs too, so one walk serves both
    q = standard_cubillage(n, d, anti)
    return reference_scan_membranes(q, flavor=flavor, check_combs=d % 2 == 0)


def _pairs(report, kind):
    return {v.pair for v in report.violations if v.kind == kind}


@pytest.mark.parametrize("anti", [False, True], ids=["standard", "anti"])
@pytest.mark.parametrize("n, d, flavor, check_combs, cap", _instances())
def test_scan_report_matches_per_tile_scan(n, d, flavor, check_combs, cap, anti, monkeypatch):
    want = _walked(n, d, anti, flavor)
    if cap is not None:
        monkeypatch.setattr(posets, "IDEAL_STATE_BUDGET", cap)
    got = scan_membranes(standard_cubillage(n, d, anti), flavor=flavor, check_combs=check_combs)
    if got.capped:
        assert cap is not None and not got.ok and not got.violations
        assert got.undecided == f"ideal count's memo exceeded the cap of {cap}"
        return
    assert got.membrane_count == want.membrane_count
    assert got.sizes_seen == want.sizes_seen
    assert _pairs(got, KIND_WEAK) == want.bad_pairs
    if check_combs:
        assert _pairs(got, KIND_COMB) == want.comb_pairs
        assert got.comb_free == want.comb_free
    else:
        assert got.comb_free is None and not _pairs(got, KIND_COMB)
    assert got.ok == (not want.bad_pairs and not (check_combs and want.comb_pairs)
                      and want.sizes_seen == {got.expected_size})


def test_budget_entries_stop_the_scan():
    # the smallest budget above is below the states Z(6,3) needs (295 / 283)
    for anti in (False, True):
        deltas, succs = fragment_precedence(standard_cubillage(6, 3, anti))
        poset = posets.Poset(len(deltas), succs)
        poset.count_ideals()
        assert poset.states > 200


WRONG_TABLES = [
    # (n, d, flavor, stand-in for weak(r) at r = d - 2, violating pairs)
    (5, 3, FLAVOR_W, strong, 7),
    (6, 4, FLAVOR_E, lambda r: weak_odd(r - 1), 249),
]


def test_scan_and_oracle_agree_on_a_wrong_table(monkeypatch):
    # count stricter relations than weak r-separation as violations on
    # both sides: the scans then fail, and must name the same pairs
    for (n, d, flavor, stand_in, pairs), anti in product(WRONG_TABLES, (False, True)):
        q = standard_cubillage(n, d, anti)
        want = reference_scan_membranes(
            q, flavor=flavor, incompat=complement_table(n, stand_in(d - 2))
        )
        with monkeypatch.context() as patch:
            patch.setattr(mb, "weak", stand_in)
            got = scan_membranes(q, flavor=flavor)
        assert len(want.bad_pairs) == pairs
        assert _pairs(got, KIND_WEAK) == want.bad_pairs
        assert not got.ok


class _StrongOrComb:
    """Stand-in for weak(r): strongly (r-1)-separated, or a double r-comb."""

    def __init__(self, r):
        self.r = r

    def holds(self, a, b):
        return is_strongly_r_separated(a, b, self.r - 1) or is_double_r_comb(a, b, self.r)


@pytest.mark.parametrize("flavor, weak_pairs, comb_pairs", [(FLAVOR_W, 70, 8), (FLAVOR_E, 68, 0)])
def test_one_pass_finds_both_kinds(flavor, weak_pairs, comb_pairs, monkeypatch):
    # claim strong 1-separation with combs: the pairs outside it are the
    # double 2-combs, of kind comb, and pairs the stand-in for weak(2)
    # rejects, of kind weak; one pass finds them all, weak ones first
    monkeypatch.setattr(mb, "weak_even_no_comb", lambda r: strong(r - 1))
    monkeypatch.setattr(mb, "weak", _StrongOrComb)
    for anti in (False, True):
        q = standard_cubillage(5, 4, anti)
        want = reference_scan_membranes(
            q, flavor=flavor, check_combs=True, incompat=complement_table(5, strong(1))
        )
        got = scan_membranes(q, flavor=flavor, check_combs=True)
        pairs = [v for v in got.violations if v.kind != KIND_SIZE]
        kinds = [v.kind for v in pairs]
        assert kinds == [KIND_WEAK] * weak_pairs + [KIND_COMB] * comb_pairs
        weak, combs = pairs[:weak_pairs], pairs[weak_pairs:]
        assert [v.pair for v in weak] == sorted(v.pair for v in weak)
        assert [v.pair for v in combs] == sorted(v.pair for v in combs)
        assert {v.pair for v in pairs} == want.bad_pairs
        assert _pairs(got, KIND_COMB) == want.comb_pairs
        assert got.comb_free is (comb_pairs == 0) is want.comb_free
        assert got.stats["pairs"] == 80


def test_witnesses_replay_to_violating_membranes():
    # each reported witness ideal rebuilds a membrane carrying its pair
    for anti in (False, True):
        q = standard_cubillage(5, 4, anti)
        deltas, _ = fragment_precedence(q)
        by_label = {delta.label(): delta for delta in deltas}
        report = scan_membranes(q, check_combs=True)
        combs = [v for v in report.violations if v.kind == KIND_COMB]
        assert len(combs) == 8 and report.comb_free is False
        for violation in combs:
            u, v = violation.pair
            mem = membrane_from_ideal(q, [by_label[x] for x in violation.witness])
            assert {u, v} <= mem.vertex_masks()
            assert is_double_r_comb(u, v, 2) and weak(2).holds(u, v)


def test_pairs_need_both_vertices_present():
    # on the chain 0 < 1 < 2, {3} lives until fragment 0, {2} from
    # fragment 1 on and {1} from 1 until 2: only {1} and {2} meet, and
    # {3}, the larger mask of its pairs, is the one that leaves first
    chain = posets.Poset(3, [[1], [2], []])
    early, late, middle = 0b100, 0b10, 0b1
    intervals = {early: (None, 0), late: (1, None), middle: (1, 2)}
    table = [0] * 8
    for u, v in ((early, late), (early, middle), (late, middle)):
        table[u] |= 1 << v
        table[v] |= 1 << u
    found, tested = mb._coexisting_pairs(chain, intervals, table)
    assert tested == 3
    assert found == [(middle, late, chain.down[1])]


def test_negative_multiplicity_is_an_internal_error(monkeypatch):
    # start from an empty front boundary: the first raising flip then
    # removes tiles that were never there; the census reads the boundary
    # on every call, so a memo warmed by an earlier census still meets it
    q = standard_cubillage(4, 3)
    assert scan_membranes(q).ok
    real = mb.base_membrane
    monkeypatch.setattr(
        mb,
        "base_membrane",
        lambda q, flavor=FLAVOR_W: real(q, flavor)._replace(tiles=frozenset()),
    )
    with pytest.raises(MembraneInvariantError, match="multiplicity -1"):
        scan_membranes(q)
    assert not issubclass(MembraneInvariantError, ValueError)


def test_tile_born_twice_is_an_internal_error(monkeypatch):
    # give the first fragment the second one's place and sides, after the
    # cube memo: a warm memo cannot skip the fault
    q = standard_cubillage(4, 3)
    assert scan_membranes(q).ok
    real = mb._fragment_sides

    def twinned(q, flavor):
        *parts, succs = real(q, flavor)
        return (*([part[1], *part[1:]] for part in parts), succs)

    monkeypatch.setattr(mb, "_fragment_sides", twinned)
    with pytest.raises(MembraneInvariantError, match="born at both"):
        scan_membranes(q)


def test_facet_born_twice_is_an_internal_error():
    # a cube listed twice sweeps its rear facets in twice
    q = standard_cubillage(4, 3)
    doubled = Cubillage(q.n, q.d, (q.cubes[0],) + q.cubes)
    with pytest.raises(MembraneInvariantError, match="^tile V.* is born at both"):
        mb.membrane_census(doubled, FLAVOR_S)


def test_witness_mismatch_is_an_internal_error(monkeypatch):
    # a replay that loses the pair's vertices contradicts the intervals
    q = standard_cubillage(5, 3)
    monkeypatch.setattr(mb, "weak", strong)
    monkeypatch.setattr(
        mb, "_replay", lambda *args: mb.base_membrane(q)._replace(tiles=frozenset())
    )
    with pytest.raises(MembraneInvariantError, match="does not replay"):
        scan_membranes(q)


def _sides(q):
    """The front boundary's tiles, and the W fragments with their sides."""
    deltas, fronts, rears, _, _ = mb._fragment_sides(q, FLAVOR_W)
    return mb.base_membrane(q).tiles, deltas, fronts, rears


def test_tile_born_onto_the_front_boundary_is_an_internal_error():
    # a front boundary that already holds the rear one: each rear tile is born twice
    q = standard_cubillage(4, 3)
    base, deltas, fronts, rears = _sides(q)
    mb._check_lifespans(base, deltas, fronts, rears)
    with pytest.raises(MembraneInvariantError, match=r"^front-boundary tile V.* is born again "
                       r"at .*: multiplicity 2$"):
        mb._check_lifespans(base | mb.rear_boundary_tiles(q), deltas, fronts, rears)


def test_tile_dying_twice_is_an_internal_error():
    # give the second fragment the first one's front side
    base, deltas, fronts, rears = _sides(standard_cubillage(4, 3))
    fronts = [fronts[0], fronts[0], *fronts[2:]]
    with pytest.raises(MembraneInvariantError, match=(
        f"dies at both {deltas[0].label()} and {deltas[1].label()}$"
    )):
        mb._check_lifespans(base, deltas, fronts, rears)


def test_flip_onto_a_present_rear_side_is_blocked():
    q = standard_cubillage(4, 3)
    base = mb.base_membrane(q)
    first = fragment_precedence(q)[0][0]  # the bottom slab of the first cube
    assert mb.raising_flip(base, first).ideal == (first,)
    doubled = base._replace(tiles=base.tiles | first.eps_rear())
    with pytest.raises(ValueError, match=r"blocked: present (H|V)\["):
        mb.raising_flip(doubled, first)


def test_witness_breaking_no_claim_is_an_internal_error(monkeypatch):
    # report every pair as outside the claim: the first one replays to a
    # membrane carrying it and is weakly 1-separated, so it breaks no claim
    full = (1 << 32) - 1
    monkeypatch.setattr(mb, "complement_table", lambda n, claim: [full] * 32)
    with pytest.raises(MembraneInvariantError, match=r"^witness of \{.*\} vs \{.*\} replays, "
                       r"but the pair breaks no claim$"):
        scan_membranes(standard_cubillage(5, 3))
