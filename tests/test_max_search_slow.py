"""The exact maximum search at the n = 8 cap (opt-in, a few seconds each).

    PYTHONPATH=src python -m pytest -q -m slow

Every witness is re-checked pair by pair.  WEAK_EVEN_NO_COMB(2) is also
pinned against the earlier branch and bound in oracles.py (~10 s).
"""

import pytest

from zonosep.systems import (
    check_pairwise,
    s_formula,
    search_max,
    strong,
    weak_even_no_comb,
    weak_odd,
)

from oracles import reference_max_size

pytestmark = pytest.mark.slow


N8 = [(weak_odd(1), 37), (weak_odd(3), 163), (strong(2), 93), (weak_even_no_comb(2), 101)]


@pytest.mark.parametrize("predicate, size", N8, ids=[p.label() for p, _ in N8])
def test_n8_maximum(predicate, size):
    found = search_max(8, predicate, bound=8)
    assert found.size == size == len(found.witness)
    ok, bad = check_pairwise(found.witness, predicate)
    assert ok, bad
    if predicate.kind != "WEAK_EVEN_NO_COMB":
        assert size == s_formula(8, predicate.r)


def test_n8_weak_even_no_comb_matches_reference():
    size, witness = reference_max_size(8, weak_even_no_comb(2))
    assert size == len(witness) == 101
