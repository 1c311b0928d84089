"""The exact maximum search against the earlier branch and bound.

reference_max_size in oracles.py is the plain greedy-colouring search
that max_size used before the universal-vertex reduction, the colour
class bound and the orbital branching; it builds its own
adjacency from the predicate.  Random tables closed under subgroups of
the candidate symmetries are checked against plain clique enumeration.
"""

from __future__ import annotations

import gc
import os
import random
import time
from itertools import combinations

import pytest

import zonosep.search as search
from zonosep.ground import elements
from zonosep.search import (
    FORK_CROSSOVER,
    _permuted_rows,
    _processes,
    _search_layout,
    enumerate_maximal,
    max_clique,
    search_max,
    symmetry_group,
)
from zonosep.systems import (
    check_pairwise,
    max_size,
    relation_table,
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
        # the second run rebuilds its table and its layout
        relation_table.cache_clear()
        _search_layout.cache_clear()
        again = search_max(n, predicate)
        assert first == again
        assert first.witness.members == again.witness.members


def test_counters_show_the_reductions():
    found = search_max(7, weak_odd(1))
    assert found.size == 29
    assert found.universal == 14
    assert found.symmetry_pruned > 0
    assert found.nodes > 1


# The search tree, pinned: size, nodes, candidates pruned by symmetry
# and the witness as a bitset over 2^[n].  Any change to the numbering or
# the colouring must walk exactly these nodes and find these witnesses.
# No table on n <= 7 searches FORK_CROSSOVER sets, so each is one tree.
PINNED = [
    (7, weak_odd(1), 29, 9402, 84, 0xD1D1000100F100018080000080BB808B),
    (7, weak_even_no_comb(2), 67, 692, 13, 0xFBAB819F8189819FF3A90009F3E9D1DF),
    # every set universal: nothing is left to search (m = 0), and the
    # search expands the root alone
    (7, strong(6), 128, 1, 0, (1 << 128) - 1),
    # all but {2,4,6} and {1,3,5,7} universal: the least m above 0 is 2,
    # since the non-universal sets are closed under the complement, which
    # fixes no set; so m = 1 never reaches the search
    (7, weak_odd(5), 127, 1, 0, ((1 << 128) - 1) ^ 1 << 0b0101010),
]


@pytest.mark.parametrize(
    "n, predicate, size, nodes, pruned, witness",
    PINNED,
    ids=[f"n{n}-{p.label()}" for n, p, *_ in PINNED],
)
def test_search_tree_is_pinned(n, predicate, size, nodes, pruned, witness):
    found = search_max(n, predicate)
    assert (found.size, found.nodes, found.symmetry_pruned) == (size, nodes, pruned)
    assert sum(1 << v for v in found.witness) == witness


def test_row_permutation_at_zero_one_and_many_bits():
    # the renumbering keeps m of a row's bits, m = 0 and m = 1 included
    rows = [0b0000, 0b1010, 0b0110, 0b1111]
    assert list(_permuted_rows(rows, 4, [])) == [0, 0, 0, 0]
    assert list(_permuted_rows(rows, 4, [1])) == [0, 1, 1, 1]
    # bits 3, 0, 2 become bits 2, 1, 0
    assert list(_permuted_rows(rows, 4, [3, 0, 2])) == [0b000, 0b100, 0b001, 0b111]
    assert list(_permuted_rows(rows, 4, [3, 2, 1, 0])) == rows


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


# The four candidate maps, written over element lists rather than bits.
def _complement(v, n):
    return (1 << n) - 1 - v


def _reversal(v, n):  # i -> n + 1 - i
    return sum(1 << (n - i) for i in elements(v))


def _rotation(v, n):  # i -> i + 1, n -> 1
    return sum(1 << (i % n) for i in elements(v))


def _twisted_rotation(v, n):  # the rotation, then element 1 toggled
    return _rotation(v, n) ^ 1


EXTRA_MAPS = {"reversal": _reversal, "rotation": _rotation, "twisted": _twisted_rotation}
SUBGROUPS = [
    (n, names)
    for n in (4, 5)
    for k in range(len(EXTRA_MAPS) + 1)
    for names in combinations(EXTRA_MAPS, k)
    if (n, names) != (4, ())  # complement alone on [4]: the test above
]


def _group_order(generators):
    """Order of the permutation group the generators span, by closure."""
    identity = tuple(range(len(generators[0])))
    group = {identity}
    todo = [identity]
    while todo:
        g = todo.pop()
        for h in generators:
            hg = tuple(h[x] for x in g)
            if hg not in group:
                group.add(hg)
                todo.append(hg)
    return len(group)


def _random_closed_table(n, generators, rng):
    """Random edge orbits up to a target density, plus a planted clique.

    Each edge joins with its whole orbit, so the group the generators
    span preserves the table.
    """
    size = 1 << n
    rows = [0] * size

    def relate(u, v):
        todo = [(u, v)]
        while todo:
            a, b = todo.pop()
            if not rows[a] >> b & 1:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
                todo.extend((g[a], g[b]) for g in generators)

    pairs = [(u, v) for u in range(size) for v in range(u + 1, size)]
    rng.shuffle(pairs)
    goal = rng.choice((0.1, 0.2, 0.3, 0.5)) * len(pairs)
    for u, v in pairs:
        if sum(row.bit_count() for row in rows) >= 2 * goal:
            break
        relate(u, v)
    planted = rng.sample(range(size), rng.choice((3, 4, 5)))
    for i, u in enumerate(planted):
        for v in planted[i + 1 :]:
            relate(u, v)
    return tuple(rows)


@pytest.mark.parametrize(
    "n, names", SUBGROUPS, ids=[f"n{n}-" + "+".join(("complement",) + s) for n, s in SUBGROUPS]
)
def test_random_group_closed_tables_against_brute_force(n, names):
    maps = [_complement] + [EXTRA_MAPS[name] for name in names]
    generators = [tuple(f(v, n) for v in range(1 << n)) for f in maps]
    order = _group_order(generators)
    for seed in range(100):
        table = _random_closed_table(n, generators, random.Random(seed))
        found = max_clique(n, table)
        assert found.size == brute_force_max_clique(table), seed
        clique = sum(1 << v for v in found.witness)
        assert all((table[v] | 1 << v) & clique == clique for v in found.witness), seed
        # the checked group contains the one the table was closed under
        assert found.symmetries % order == 0, seed
        assert found == max_clique(n, table)


# (n, extra maps, seed of _random_closed_table, maximum): tables on which
# the search loses its maximum if a child's stabiliser is taken in the
# whole group instead of in its parent's, so that it keeps elements that
# move an earlier set of the clique; the 100 seeds above miss both
STABILISER_CASES = [
    (4, ("reversal", "twisted"), 571, 5),
    (5, ("reversal", "rotation"), 764, 6),
]


@pytest.mark.parametrize(
    "n, names, seed, size",
    STABILISER_CASES,
    ids=[f"n{n}-seed{seed}" for n, _, seed, _ in STABILISER_CASES],
)
def test_stabiliser_fixes_the_whole_clique(n, names, seed, size):
    maps = [_complement] + [EXTRA_MAPS[name] for name in names]
    generators = [tuple(f(v, n) for v in range(1 << n)) for f in maps]
    table = _random_closed_table(n, generators, random.Random(seed))
    assert brute_force_max_clique(table) == size
    found = max_clique(n, table)
    assert found.size == size
    clique = sum(1 << v for v in found.witness)
    assert all((table[v] | 1 << v) & clique == clique for v in found.witness)


def _group_orders(n, predicates):
    return {p.label(): len(symmetry_group(n, relation_table(n, p))) for p in predicates}


@pytest.mark.parametrize("n", (6, 7, 8))
def test_group_order_per_kind(n):
    # r <= n - 3; tables nearer to complete keep more (see below)
    predicates = _predicates(n - 2)
    expected = {p.label(): {"STRONG": 4 * n, "WEAK_ODD": 4}.get(p.kind, 2) for p in predicates}
    assert _group_orders(n, predicates) == expected


def test_group_order_near_complete_tables():
    # every pair related: all four maps hold, and rotation with twisted
    # rotation gives every XOR, so 2^n masks times the dihedral group
    assert _group_orders(6, [strong(5)]) == {"STRONG(5)": 64 * 12}
    assert _group_orders(6, [weak_odd(5), weak_even_no_comb(4)]) == {
        "WEAK_ODD(5)": 768,
        "WEAK_EVEN_NO_COMB(4)": 24,
    }
    assert _group_orders(7, [weak_odd(5)]) == {"WEAK_ODD(5)": 28}


def test_orbits_partition_the_sets():
    for n, predicate in ((6, strong(1)), (6, weak_odd(1)), (7, weak_even(2))):
        group = symmetry_group(n, relation_table(n, predicate))
        assert group[0] == tuple(range(1 << n))  # the identity first
        assert len(set(group)) == len(group)
        orbits = [frozenset(g[v] for g in group) for v in range(1 << n)]
        for v, orbit in enumerate(orbits):
            assert v in orbit and all(orbits[u] == orbit for u in orbit)
            assert len(group) % len(orbit) == 0  # orbit-stabiliser
            # the complement is always in the group
            assert (1 << n) - 1 - v in orbit


def test_searches_leave_no_cycle_behind():
    # max_clique's expand and the maximal-clique stream's bk refer to
    # themselves; each is dropped on return, so the relabelled adjacency
    # goes with the call instead of waiting for a full collection
    table = relation_table(7, weak_odd(1))
    gc.collect()
    gc.disable()
    try:
        assert max_clique(7, table).size == 29
        assert gc.collect() == 0
        assert len(list(enumerate_maximal(4, strong(1)))) == 8  # exhausted
        assert gc.collect() == 0
        assert len(list(enumerate_maximal(5, strong(1), limit=3))) == 3  # cut short
        assert gc.collect() == 0
    finally:
        gc.enable()


# The two parts of the tree, run in one process and in two.


def _in(processes, monkeypatch):
    """Make every search below split its tree, whatever its size, and run
    the parts in the given number of processes."""
    monkeypatch.setattr(search, "FORK_CROSSOVER", 0)
    monkeypatch.setattr(search, "_processes", lambda: processes)


def _counted(found):
    return found.size, found.witness, found.nodes, found.symmetry_pruned


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n, predicate", [(n, p) for n, p, *_ in PINNED[:2]], ids=["wo1", "wenc2"])
def test_forked_search_equals_the_in_process_one(n, predicate, monkeypatch):
    table = relation_table(n, predicate)
    _in(1, monkeypatch)
    here = max_clique(n, table)
    _in(2, monkeypatch)
    forked = max_clique(n, table)
    assert (here.processes, forked.processes) == (1, 2)
    assert _counted(forked) == _counted(here)
    assert forked.witness.members == here.witness.members
    _no_child_left()


def test_forked_search_equals_the_in_process_one_on_group_closed_tables(monkeypatch):
    for n, names in SUBGROUPS:
        maps = [_complement] + [EXTRA_MAPS[name] for name in names]
        generators = [tuple(f(v, n) for v in range(1 << n)) for f in maps]
        for seed in range(10):
            table = _random_closed_table(n, generators, random.Random(seed))
            with monkeypatch.context() as patch:
                whole = max_clique(n, table)  # one tree: no table here reaches the crossover
                _in(1, patch)
                here = max_clique(n, table)
                _in(2, patch)
                assert _counted(max_clique(n, table)) == _counted(here), (n, names, seed)
            # the split gives back the one tree's witness, with more nodes
            assert (here.size, here.witness) == (whole.size, whole.witness), (n, names, seed)
            assert here.nodes >= whole.nodes
    _no_child_left()


def test_a_failing_child_is_an_error_of_the_parent(monkeypatch):
    real = search._search_part

    def part_1_breaks(layout, part):
        if part == 1:
            raise ValueError("part 1 broke\nat the root")
        return real(layout, part)

    _in(2, monkeypatch)
    monkeypatch.setattr(search, "_search_part", part_1_breaks)
    with pytest.raises(RuntimeError, match=r"^search child failed: ValueError: part 1 broke$"):
        max_clique(5, relation_table(5, weak_odd(1)))
    _no_child_left()


def test_an_interrupted_parent_kills_and_reaps_its_child(monkeypatch):
    def part(layout, part):
        if part == 1:
            time.sleep(60)  # the child: killed long before it wakes
        raise KeyboardInterrupt

    _in(2, monkeypatch)
    monkeypatch.setattr(search, "_search_part", part)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        max_clique(5, relation_table(5, weak_odd(1)))
    assert time.perf_counter() - start < 30
    _no_child_left()


def test_when_the_search_forks(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert _processes() == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert _processes() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delattr(os, "fork")
    assert _processes() == 1
    # below the crossover, and so on n <= 7, where at most 2^7 - 2 sets are
    # searched, one tree in one process, whatever the host
    assert FORK_CROSSOVER > (1 << 7) - 2
    monkeypatch.setattr(search, "_processes", lambda: 2)
    assert search_max(7, weak_odd(1)).processes == 1


def test_a_second_search_of_a_table_adds_no_subgroup(monkeypatch):
    _in(1, monkeypatch)
    _search_layout.cache_clear()
    layout = _search_layout(7, weak_odd(1))
    search_max(7, weak_odd(1))
    built = len(layout.subgroups)
    assert built > 1
    search_max(7, weak_odd(1))
    assert len(layout.subgroups) == built


def test_a_child_that_dies_is_an_error_of_the_parent(monkeypatch):
    real = search._search_part

    def part_1_dies(layout, part):
        if part == 1:
            os._exit(3)  # the child only: gone before it answers
        return real(layout, part)

    _in(2, monkeypatch)
    monkeypatch.setattr(search, "_search_part", part_1_dies)
    with pytest.raises(RuntimeError, match=r"^search child ended without a result \(exit status 3\)$"):
        max_clique(5, relation_table(5, weak_odd(1)))
    _no_child_left()


def test_no_process_to_fork_searches_in_one(monkeypatch):
    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    table = relation_table(6, weak_odd(1))
    _in(1, monkeypatch)
    here = max_clique(6, table)
    _in(2, monkeypatch)
    monkeypatch.setattr(os, "fork", no_fork)
    fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    assert max_clique(6, table) == here  # processes 1 included
    if fds is not None:
        assert len(os.listdir("/proc/self/fd")) == fds  # the pipe is closed
