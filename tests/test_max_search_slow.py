"""The exact maximum search at the n = 8 cap (opt-in, a few seconds each).

    PYTHONPATH=src python -m pytest -q -m slow

Every witness is re-checked pair by pair.  WEAK_EVEN_NO_COMB(2) is also
pinned against the earlier branch and bound in oracles.py (~10 s).
"""

from functools import lru_cache

import pytest

from zonosep.systems import (
    check_pairwise,
    s_formula,
    search_max,
    strong,
    weak_even,
    weak_even_no_comb,
    weak_odd,
)

from oracles import reference_max_size

pytestmark = pytest.mark.slow


@lru_cache(maxsize=None)
def _search8(predicate):
    """One search per predicate for the tests below (WEAK_ODD(1) takes ~10 s)."""
    return search_max(8, predicate, bound=8)


N8 = [(weak_odd(1), 37), (weak_odd(3), 163), (strong(2), 93), (weak_even_no_comb(2), 101)]


@pytest.mark.parametrize("predicate, size", N8, ids=[p.label() for p, _ in N8])
def test_n8_maximum(predicate, size):
    found = _search8(predicate)
    assert found.size == size == len(found.witness)
    ok, bad = check_pairwise(found.witness, predicate)
    assert ok, bad
    if predicate.kind != "WEAK_EVEN_NO_COMB":
        assert size == s_formula(8, predicate.r)


# (size, nodes, candidates pruned by symmetry, witness as a bitset over
# 2^[8]) at n = 8: the first three are the bench's search-n8 instances, the
# rest README's table.
TREES = [
    (strong(1), 37, 15_040, 460, 0xD1D1000100FB000B000000000008000B8080000000880000808000008088808B),
    (strong(3), 163, 5_961, 154, 0xFFFFF1FFF1BBF1FFF1310001F133F1FFFBBB808BA0BBA0ABFBBB808BFBBBFBFF),
    (weak_even(2), 121, 6_956, 74, 0xFB8B8B8B8000819F81019F9F81019FDFFB8B9F8980008001FF01FF89F901D9DF),
    (strong(2), 93, 25_210, 463, 0xFBFB808B8000808BD1FFC0DFD151D1DFD101000100000001D1010001D101D1DF),
    (weak_odd(1), 37, 1_407_215, 782, 0xD1D1000100D1000100000000000000018080000000D7004B8080000080C0808B),
    (weak_odd(3), 163, 124_638, 170, 0xFFFFF1FFD333F1FFF32BE0ABFBBBF1FFFBABA08B8000808BFB8B808BFBBBFBFF),
    (weak_even_no_comb(2), 101, 132_082, 85, 0xFB9F909F9119F9DF910980019101D1DFF989800100008001F9818001D101D1DF),
]


@pytest.mark.parametrize(
    "predicate, size, nodes, pruned, witness", TREES, ids=[p.label() for p, *_ in TREES]
)
def test_n8_search_tree_is_pinned(predicate, size, nodes, pruned, witness):
    found = _search8(predicate)
    assert (found.size, found.nodes, found.symmetry_pruned) == (size, nodes, pruned)
    assert sum(1 << v for v in found.witness) == witness


def test_n8_weak_even_no_comb_matches_reference():
    size, witness = reference_max_size(8, weak_even_no_comb(2))
    assert size == len(witness) == 101
