"""End-to-end reports of the weighted-cycle character demo."""

import pytest

from wck.cycle_demo import build_cycle, demo_report
from wck.errors import DomainError


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


@pytest.mark.parametrize(
    "k, t",
    [
        (3, [2, 1, "x"]),
        ("abc", [2, 1, 1]),
        (3, None),
        (3, [2, 1, 1j]),
        (2.7, [2, 1]),
        (3, "211"),
    ],
    ids=["string_weight", "string_length", "no_weights", "complex_weight",
         "float_length", "string_weights"],
)
def test_malformed_input_raises_domain_error(k, t):
    with pytest.raises(DomainError):
        build_cycle(k, t)
    with pytest.raises(DomainError):
        demo_report(k, t)
