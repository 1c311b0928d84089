"""The exact maximum search against the earlier branch and bound.

reference_max_size in oracles.py is the plain greedy-colouring search
that max_size used before the universal-vertex reduction, the colour
class bound and the complement-orbit pruning; it builds its own
adjacency from the predicate.
"""

from __future__ import annotations

import random

import pytest

from zonosep.systems import (
    check_pairwise,
    max_clique,
    max_size,
    relation_table,
    search_max,
    strong,
    weak_even,
    weak_even_no_comb,
    weak_odd,
)

from oracles import brute_force_max_clique, reference_max_size


def _predicates(n):
    """Every kind with every r in 0..n-1 that the kind accepts."""
    return (
        [strong(r) for r in range(n)]
        + [weak_odd(r) for r in range(1, n, 2)]
        + [weak_even(r) for r in range(2, n, 2)]
        + [weak_even_no_comb(r) for r in range(2, n, 2)]
    )


CASES = [(n, p) for n in range(1, 7) for p in _predicates(n)] + [
    (7, weak_odd(1)),
    (7, weak_even_no_comb(2)),
]


@pytest.mark.parametrize("n, predicate", CASES, ids=[f"n{n}-{p.label()}" for n, p in CASES])
def test_search_matches_reference(n, predicate):
    found = search_max(n, predicate)
    size, witness = reference_max_size(n, predicate)
    assert found.size == size == len(witness)
    assert len(found.witness) == found.size
    ok, bad = check_pairwise(found.witness, predicate)
    assert ok, bad
    # every universal set is in the witness
    full = (1 << (1 << n)) - 1
    table = relation_table(n, predicate)
    universal = {v for v, row in enumerate(table) if row | 1 << v == full}
    assert found.universal == len(universal)
    assert universal <= found.witness.member_set()
    assert max_size(n, predicate) == (found.size, found.witness)


def test_search_is_deterministic():
    for n, predicate in ((6, weak_odd(1)), (7, weak_even_no_comb(2))):
        first = search_max(n, predicate)
        relation_table.cache_clear()  # the second run rebuilds its table
        again = search_max(n, predicate)
        assert first == again
        assert first.witness.members == again.witness.members


def test_counters_show_the_reductions():
    found = search_max(7, weak_odd(1))
    assert found.size == 29
    assert found.universal == 14
    assert found.symmetry_pruned > 0
    assert found.nodes > 1


def test_hand_made_table():
    # [2]: {} - {1} and {2} - {1,2} are the only relations; complement swaps them
    invariant = (0b0010, 0b0001, 0b1000, 0b0100)
    found = max_clique(2, invariant)
    assert found.size == 2 and found.universal == 0
    assert found.witness.members in ((0b00, 0b01), (0b10, 0b11))
    # the single edge {} - {1} without its complement image {2} - {1,2}
    with pytest.raises(RuntimeError, match="not invariant under complement"):
        max_clique(2, (0b0010, 0b0001, 0, 0))
    with pytest.raises(ValueError, match="needs 4 rows"):
        max_clique(2, (0b0010, 0b0001, 0b1000))


def _random_invariant_table(n, rng):
    """Random edges, each with its complement image, plus a planted clique."""
    size = 1 << n
    top = size - 1
    rows = [0] * size

    def relate(u, v):
        for a, b in ((u, v), (top - u, top - v)):
            rows[a] |= 1 << b
            rows[b] |= 1 << a

    density = rng.choice((0.1, 0.2, 0.3, 0.5))
    for u in range(size):
        for v in range(u + 1, size):
            if rng.random() < density:
                relate(u, v)
    planted = rng.sample(range(size), rng.choice((3, 4, 5)))
    for i, u in enumerate(planted):
        for v in planted[i + 1 :]:
            relate(u, v)
    return tuple(rows)


def test_random_invariant_tables_against_brute_force():
    # among these graphs are some whose maximum clique is lost when the
    # complement of a branched vertex is dropped below the root
    for seed in range(2000):
        table = _random_invariant_table(4, random.Random(seed))
        found = max_clique(4, table)
        assert found.size == brute_force_max_clique(table), seed
        clique = sum(1 << v for v in found.witness)
        assert all((table[v] | 1 << v) & clique == clique for v in found.witness), seed
