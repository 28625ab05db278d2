"""End-to-end reports of the weighted-cycle character demo."""

import pytest

from wck.cycle_demo import demo_report


@pytest.mark.parametrize(
    "k, t, weighted, unweighted",
    [(3, [2, 1, 1], 4, 2), (4, [2, 1, 3, 1], 8, 2)],
)
def test_demo_report_family_counts(k, t, weighted, unweighted):
    rep = demo_report(k, t)
    assert rep["weighted_family_count"] == weighted
    assert rep["unweighted_family_count"] == unweighted
    assert rep["verify_ok"]
    assert rep["kernel_family_nontrivial"]
