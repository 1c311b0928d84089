"""Set-system container, predicates, and exact clique search."""

from __future__ import annotations

import random

import pytest

from zonosep import cubillage, flips, geometry, membranes, search, systems
from zonosep.cubillage import (
    Cube,
    Cubillage,
    all_cubes,
    from_inversions,
    standard_cubillage,
    validate_cubillage,
)
from zonosep.flips import verify_flip_theorem_odd, verify_local_neighb_even, verify_refined_lemma
from zonosep.geometry import boundary_vertices, zonotope_sides
from zonosep.ground import mask_of, set_notation
from zonosep.posets import Poset
from zonosep.search import enumerate_maximal, search_max
from zonosep.systems import (
    DEFAULT_EXHAUSTIVE_BOUND,
    HARD_EXHAUSTIVE_CAP,
    RELATION_TABLE_CAP,
    PairwisePredicate,
    SetSystem,
    check_pairwise,
    compatibility_adjacency,
    extend_to_maximal,
    max_size,
    relation_table,
    s_formula,
    strong,
    weak,
    weak_even,
    weak_even_no_comb,
    weak_odd,
)

from oracles import (
    alternation_degree,
    brute_force_max_system,
    every_predicate,
    raw_weakly_separated,
    reference_extend_to_maximal,
    set_system,
)


def m(*elems: int) -> int:
    return mask_of(elems, 64)


def test_set_system_canonical_order():
    s = set_system(4, [{2, 3}, {1}, set(), {1, 2, 3}, {1, 3}])
    assert s.to_lists() == [[], [1], [1, 3], [2, 3], [1, 2, 3]]
    assert len(s) == 5 and m(1, 3) in s
    # masks in any order, and repeated ones, are kept once in canonical order
    assert SetSystem(4, (m(2), m(1))).members == (m(1), m(2))
    assert SetSystem(4, (m(2), m(2))) == SetSystem(4, (m(2),))
    with pytest.raises(ValueError):
        SetSystem(3, (m(4),))  # element outside ground set


def test_set_system_json_round_trip():
    s = set_system(5, [{1, 4}, {2}])
    blob = s.to_json(weak_odd(1))
    assert blob["schema"] == "zonosep/1"
    assert blob["predicate"] == {"kind": "WEAK_ODD", "r": 1}
    assert set_system(blob["n"], blob["members"]) == s


def test_predicate_validation():
    with pytest.raises(ValueError):
        PairwisePredicate("WEAK_ODD", 2)
    with pytest.raises(ValueError):
        PairwisePredicate("WEAK_EVEN", 3)
    with pytest.raises(ValueError):
        PairwisePredicate("STRONG", -1)
    with pytest.raises(ValueError):
        PairwisePredicate("SORTA", 1)
    assert weak(1).kind == "WEAK_ODD" and weak(2).kind == "WEAK_EVEN"
    assert weak_even_no_comb(2).holds(m(1, 3), m(2, 4, 5)) is False


def test_no_comb_predicate_strictly_refines_weak_even():
    p_plain = weak_even(2)
    p_nc = weak_even_no_comb(2)
    a, b = m(2, 4), m(1, 3)
    assert p_plain.holds(a, b) and not p_nc.holds(a, b)  # the comb itself
    assert p_nc.holds(m(1, 3), m(2, 4, 5)) == p_plain.holds(m(1, 3), m(2, 4, 5))


def test_s_formula_values():
    assert s_formula(4, 1) == 11
    assert s_formula(5, 2) == 26
    assert s_formula(6, 3) == 57
    assert s_formula(6, 1) == 22
    assert [s_formula(n, 1) for n in range(2, 7)] == [
        n * (n + 1) // 2 + 1 for n in range(2, 7)
    ]
    with pytest.raises(ValueError):
        s_formula(4, 4)


def test_check_pairwise_reports_first_violation():
    s = set_system(6, [{1, 3}, {2, 6}, {2, 4}])
    ok, pair = check_pairwise(s, strong(1))
    assert not ok and pair == (m(1, 3), m(2, 4))
    ok, pair = check_pairwise(s, strong(3))
    assert ok and pair is None


@pytest.mark.parametrize("predicate", every_predicate(5), ids=lambda p: p.label())
def test_check_pairwise_calls_the_predicate_once_per_pair(predicate, monkeypatch):
    # the first failing pair of the plain double loop, the empty set
    # included, and one call of the resolved predicate per pair up to it
    rng = random.Random(predicate.label())
    holds, r = predicate.rule()
    calls = []

    def counted(a, b, r):
        calls.append((a, b))
        return holds(a, b, r)

    monkeypatch.setattr(PairwisePredicate, "rule", lambda self: (counted, r))
    for _ in range(20):
        system = SetSystem(5, rng.sample(range(32), rng.choice((2, 5, 9))))
        pairs = [(a, b) for i, a in enumerate(system) for b in system.members[i + 1 :]]
        first = next((pair for pair in pairs if not holds(*pair, r)), None)
        calls.clear()
        assert check_pairwise(system, predicate) == (first is None, first)
        assert calls == pairs[: pairs.index(first) + 1 if first else len(pairs)]


def test_extend_to_maximal_deterministic():
    base = SetSystem(2, ())
    full = extend_to_maximal(base, strong(0))
    assert full.to_lists() == [[], [1], [1, 2]]  # the canonical 0-separated chain
    again = extend_to_maximal(full, strong(0))
    assert again == full
    bad = set_system(6, [{1, 3}, {2, 4}])
    with pytest.raises(ValueError):
        extend_to_maximal(bad, strong(1))


def _random_inputs(n: int, predicate, rng: random.Random):
    """The empty system, three compatible ones (greedy over the first 1 to 2n
    sets of a shuffled 2^[n], judged by predicate.holds) and one with an
    unrelated pair."""
    yield SetSystem(n, ())
    for _ in range(3):
        order = rng.sample(range(1 << n), 1 << n)
        chosen: list[int] = []
        for mask in order[: rng.randint(1, 2 * n)]:
            if all(predicate.holds(mask, other) for other in chosen):
                chosen.append(mask)
        yield SetSystem(n, chosen)
    pairs = [(a, b) for a in range(1 << n) for b in range(a) if not predicate.holds(a, b)]
    if pairs:
        extra = rng.sample(range(1 << n), rng.randint(0, 4))
        yield SetSystem(n, [*rng.choice(pairs), *extra])


@pytest.mark.parametrize("n", range(2, 8))
def test_extend_to_maximal_matches_the_predicate_loop(n):
    # the row-reading completion against the greedy loop it replaced, and an
    # incompatible input refused on check_pairwise's first pair
    rng = random.Random(20261019 + n)
    refused = 0
    for predicate in every_predicate(n):
        for system in _random_inputs(n, predicate, rng):
            ok, bad = check_pairwise(system, predicate)
            if ok:
                assert extend_to_maximal(system, predicate) == reference_extend_to_maximal(
                    system, predicate
                ), (predicate.label(), system)
                continue
            refused += 1
            with pytest.raises(ValueError) as got:
                extend_to_maximal(system, predicate)
            with pytest.raises(ValueError) as want:
                reference_extend_to_maximal(system, predicate)
            assert str(got.value) == str(want.value)
            assert str(got.value).endswith(f"on {set_notation(bad[0])}, {set_notation(bad[1])}")
    assert refused


def test_max_size_small_against_brute_force():
    for n in (2, 3):
        for r in range(n):
            size, witness = max_size(n, strong(r))
            assert size == s_formula(n, r)
            ok, _ = check_pairwise(witness, strong(r))
            assert ok and len(witness) == size
            brute = brute_force_max_system(
                n, lambda a, b, r=r: alternation_degree(a, b) <= r + 1
            )
            assert brute == size
    # independent recursion oracle on the weak predicate for n = 4, r = 1
    brute = brute_force_max_system(4, lambda a, b: raw_weakly_separated(a, b, 1, 4))
    assert brute == 11


def test_max_size_known_values():
    size, witness = max_size(4, weak_odd(1))
    assert size == 11 and len(witness) == 11
    ok, _ = check_pairwise(witness, weak_odd(1))
    assert ok
    size, _ = max_size(5, strong(2))
    assert size == 26
    with pytest.raises(ValueError):
        max_size(8, strong(1))  # needs the explicit opt-in bound
    with pytest.raises(ValueError):
        max_size(9, strong(1), bound=9)  # beyond the hard cap


def test_enumerate_maximal_chains():
    # the complete compatibility graph has exactly one maximal clique
    systems = list(enumerate_maximal(3, strong(2)))
    assert len(systems) == 1 and len(systems[0]) == 8
    # purity at r = 1, n = 4: every maximal system hits the maximum 11
    sizes = {len(s) for s in enumerate_maximal(4, weak_odd(1))}
    assert sizes == {11}
    for s in enumerate_maximal(4, weak_odd(1), limit=3):
        ok, _ = check_pairwise(s, weak_odd(1))
        assert ok
        assert extend_to_maximal(s, weak_odd(1)) == s


def test_enumerate_maximal_respects_limit():
    got = list(enumerate_maximal(4, strong(1), limit=5))
    assert len(got) == 5


def test_enumerate_maximal_limit_zero_and_negative():
    assert list(enumerate_maximal(4, strong(1), limit=0)) == []
    # checked on the call, before any system is searched for
    with pytest.raises(ValueError, match="limit must be at least 0, got -1"):
        enumerate_maximal(4, strong(1), limit=-1)


def test_adjacency_is_symmetric_and_irreflexive():
    adj = compatibility_adjacency(4, weak_odd(1))
    for u in range(16):
        assert not adj[u] >> u & 1
        for v in range(16):
            assert (adj[u] >> v & 1) == (adj[v] >> u & 1)


def test_strong_purity_characterization():
    # maximal strongly r-separated systems all share one size exactly
    # when min(r, n - r) <= 2; the grid n <= 6 is fully enumerable and
    # (6,3) is the first non-pure case. Counts are frozen behavior.
    frozen_counts = {
        (2, 1): 1, (3, 1): 2, (3, 2): 1,
        (4, 1): 8, (4, 2): 2, (4, 3): 1,
        (5, 1): 62, (5, 2): 10, (5, 3): 2, (5, 4): 1,
        (6, 1): 908, (6, 2): 148, (6, 3): 16, (6, 4): 2, (6, 5): 1,
    }
    for n in range(2, 7):
        for r in range(1, n):
            sizes: dict[int, int] = {}
            count = 0
            for system in enumerate_maximal(n, strong(r)):
                sizes[len(system)] = sizes.get(len(system), 0) + 1
                count += 1
            assert count == frozen_counts[n, r]
            assert max(sizes) == s_formula(n, r)  # the top size is the maximum
            if min(r, n - r) <= 2:
                assert len(sizes) == 1, (n, r, sorted(sizes))
            else:
                assert len(sizes) > 1, (n, r)
    # the lone non-pure case pairs the 55-member witness size with the maximum
    sizes = {len(s) for s in enumerate_maximal(6, strong(3))}
    assert sizes == {55, 57}


def test_weak_nonpurity_streams_both_sizes():
    # streaming maximal weakly 3-separated systems on [6] meets both a
    # 55-member and a 57-member system early; stop as soon as both appear
    seen: set[int] = set()
    for count, system in enumerate(enumerate_maximal(6, weak_odd(3)), start=1):
        seen.add(len(system))
        if {55, 57} <= seen:
            break
        assert count < 3000, f"sizes seen so far: {sorted(seen)}"
    assert {55, 57} <= seen


def _unreachable(*args, **kwargs):
    pytest.fail("the expensive stage ran before the limit check")


class _UnreachablePredicate:
    holds = staticmethod(_unreachable)


TABLE = RELATION_TABLE_CAP + 1
SEARCH = DEFAULT_EXHAUSTIVE_BOUND + 1
# an even d and only TABLE cubes, given as data because the builder
# refuses TABLE itself, so the e-membrane scan gets as far as its limit
WIDE = Cubillage(
    TABLE, TABLE - 1, [Cube(0, (1 << TABLE) - 1 ^ 1 << i) for i in range(TABLE)]
)
PAST_THE_LIMIT = {
    "relation_table": lambda: relation_table(TABLE, _UnreachablePredicate()),
    "search_max": lambda: search_max(SEARCH, strong(1)),
    "search_max bound=": lambda: search_max(
        HARD_EXHAUSTIVE_CAP + 1, strong(1), bound=HARD_EXHAUSTIVE_CAP + 1
    ),
    "enumerate_maximal": lambda: enumerate_maximal(SEARCH, strong(1)),
    "extend_to_maximal": lambda: extend_to_maximal(SetSystem(TABLE, ()), _UnreachablePredicate()),
    "boundary_vertices": lambda: boundary_vertices(TABLE, 3),
    "all_cubes": lambda: all_cubes(TABLE, 3),
    "standard_cubillage": lambda: standard_cubillage(TABLE, 3),
    "from_inversions": lambda: from_inversions(TABLE, 3, 0),
    "validate_cubillage": lambda: validate_cubillage(WIDE),
    "zonotope_sides": lambda: zonotope_sides(TABLE, 3),
    "flip_theorem_odd": lambda: verify_flip_theorem_odd(TABLE, 3),
    "refined_lemma": lambda: verify_refined_lemma(TABLE, 3),
    "local_neighb_even": lambda: verify_local_neighb_even(TABLE, 2),
    "scan_membranes": lambda: membranes.scan_membranes(WIDE),
    "property_P_scan": lambda: membranes.scan_membranes(WIDE, membranes.FLAVOR_E, check_combs=True),
}


@pytest.mark.parametrize("entry", PAST_THE_LIMIT)
def test_every_limit_is_checked_before_the_expensive_stage(monkeypatch, entry):
    # n = limit + 1 is refused on the call: no table, ideal count or membrane
    # census, and no 2^n scan of the entry point's own, is started first
    for module, stage in (
        (systems, "relation_table"),
        (search, "relation_table"),
        (search, "compatibility_adjacency"),
        (membranes, "complement_table"),
        (flips, "relation_table"),
        (membranes, "membrane_census"),
        (geometry, "side_roots"),
        (cubillage, "submasks"),
        (cubillage, "from_inversions"),
        (cubillage, "combinations"),
    ):
        monkeypatch.setattr(module, stage, _unreachable)
    monkeypatch.setattr(Poset, "count_ideals", _unreachable)
    with pytest.raises(ValueError, match=r"^n = \d+ exceeds "):
        PAST_THE_LIMIT[entry]()
