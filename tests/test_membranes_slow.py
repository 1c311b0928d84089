"""The property-P scan over every e-membrane of Z(7,4) (opt-in, seconds per cubillage).

    PYTHONPATH=src python -m pytest -q -m slow

The membrane count pins the amount of work, so a run cannot pass by
covering less.
"""

import pytest

from zonosep.cubillage import standard_cubillage
from zonosep.membranes import property_P_scan
from zonosep.systems import s_formula

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("anti", [False, True], ids=["standard", "anti"])
def test_property_p_scan_z74(anti):
    rep = property_P_scan(standard_cubillage(7, 4, anti))
    assert not rep.capped
    assert rep.membrane_count == 1_575_598
    assert rep.sizes_seen == {64} == {s_formula(7, 2)}
    assert rep.violations == []
    assert rep.comb_free is True
    assert rep.ok
