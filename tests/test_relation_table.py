"""The relation kernel, row by row against the raw predicates of the oracles.

relation_table is the one pair-table builder behind the searches, the
membrane scans and the flip harnesses, so every predicate kind, and the
double-comb rows the membrane scans derive from two of its tables, is
checked exhaustively over small ground sets.  Its rows come from one
predicate call per disjoint pair of difference sets; they are also
checked against the per-pair builder it replaced
(reference_relation_table), at n <= 7 here and at n = 8, 9 as `slow`.
"""

import pytest

from oracles import (
    every_predicate,
    raw_double_comb,
    raw_strongly_separated,
    raw_weakly_separated,
    reference_relation_table,
)
from zonosep.ground import elements
from zonosep.membranes import _comb_rows
from zonosep.systems import (
    RELATION_TABLE_CAP,
    PairwisePredicate,
    complement_table,
    relation_table,
    strong,
    weak_even,
    weak_even_no_comb,
    weak_odd,
)


def _relations(n: int):
    """(label, kernel rows, raw oracle on Python sets) for every kind over [n]."""
    for r in range(n + 1):
        yield f"strong({r})", relation_table(n, strong(r)), (
            lambda a, b, r=r: raw_strongly_separated(a, b, r)
        )
    for r in range(1, n + 1, 2):
        yield f"weak_odd({r})", relation_table(n, weak_odd(r)), (
            lambda a, b, r=r: raw_weakly_separated(a, b, r, n)
        )
    for r in range(2, n + 1, 2):
        yield f"weak_even({r})", relation_table(n, weak_even(r)), (
            lambda a, b, r=r: raw_weakly_separated(a, b, r, n)
        )
        yield f"weak_even_no_comb({r})", relation_table(n, weak_even_no_comb(r)), (
            lambda a, b, r=r: raw_weakly_separated(a, b, r, n)
            and not raw_double_comb(a, b, r)
        )
        yield f"comb({r})", _comb_rows(n, r), (
            lambda a, b, r=r: raw_double_comb(a, b, r)
        )


@pytest.mark.parametrize("n", range(1, 8))
def test_kernel_rows_match_the_raw_predicates(n):
    sets = [set(elements(m)) for m in range(1 << n)]
    for label, rows, raw in _relations(n):
        assert len(rows) == 1 << n, label
        for v, row in enumerate(rows):
            want = sum(
                1 << u for u in range(1 << n) if u != v and raw(sets[u], sets[v])
            )
            assert row == want, (label, elements(v))


@pytest.mark.parametrize("n", range(1, 8))
def test_kernel_rows_are_symmetric_with_empty_diagonal(n):
    for label, rows, _ in _relations(n):
        for v, row in enumerate(rows):
            assert not row >> v & 1, (label, v)
            bits = row
            while bits:
                low = bits & -bits
                assert rows[low.bit_length() - 1] >> v & 1, (label, v)
                bits ^= low


def test_complement_rows_partition_the_other_sets():
    n = 5
    full = (1 << (1 << n)) - 1
    rows = relation_table(n, weak_odd(3))
    for v, (row, other) in enumerate(zip(rows, complement_table(n, weak_odd(3)))):
        assert row & other == 0
        assert row | other | 1 << v == full


def test_tables_are_memoised_and_immutable():
    first = relation_table(6, strong(2))
    assert relation_table(6, strong(2)) is first
    assert isinstance(first, tuple)


def test_equal_predicates_share_one_table():
    first, second = weak_odd(1), weak_odd(1)
    assert first is not second
    table = relation_table(7, first)
    hits = relation_table.cache_info().hits
    assert relation_table(7, second) is table
    assert relation_table.cache_info().hits == hits + 1


def test_table_size_is_capped():
    with pytest.raises(ValueError, match="relation-table cap"):
        relation_table(RELATION_TABLE_CAP + 1, strong(1))


def test_kernel_calls_the_predicate_once_per_disjoint_pair(monkeypatch):
    seen = []

    def holds(a, b, r):
        assert not a & b, "the kernel asks only about disjoint difference sets"
        seen.append((a, b))
        return True

    monkeypatch.setattr(PairwisePredicate, "rule", lambda self: (holds, self.r))
    table = relation_table.__wrapped__(6, strong(1))  # fresh, not from the cache
    assert len(seen) == 3**6 == 729
    assert len(set(seen)) == 729
    full = (1 << 64) - 1
    assert table == tuple(full ^ 1 << v for v in range(64))


def _check_against_the_reference(n: int):
    for predicate in every_predicate(n):
        assert relation_table.__wrapped__(n, predicate) == reference_relation_table(
            n, predicate
        ), predicate.label()


@pytest.mark.parametrize("n", range(1, 8))
def test_kernel_equals_the_per_pair_builder(n):
    _check_against_the_reference(n)


@pytest.mark.slow
@pytest.mark.parametrize("n", [8, 9])
def test_kernel_equals_the_per_pair_builder_wide(n):
    _check_against_the_reference(n)
