"""End-to-end reports of the weighted-cycle character demo."""

import pytest

from wck import cycle_demo
from wck.cycle_demo import build_cycle, demo_report
from wck.errors import DomainError


@pytest.mark.parametrize(
    "k, t, weighted, unweighted",
    [(3, [2, 1, 1], 4, 2), (4, [2, 1, 3, 1], 8, 2)],
)
def test_demo_report_family_counts(k, t, weighted, unweighted, monkeypatch):
    read = set()
    diag_entry = cycle_demo._diag_entry

    def spy(model, level, i, x):
        read.add((model.graph, level, i))
        return diag_entry(model, level, i, x)

    monkeypatch.setattr(cycle_demo, "_diag_entry", spy)
    rep = demo_report(k, t)
    assert rep["weighted_family_count"] == weighted
    assert rep["unweighted_family_count"] == unweighted
    assert rep["verify_ok"]
    assert rep["kernel_family_nontrivial"]
    # _diag_entry reads the one level path out of i as starting_at(level, i)[0]
    assert read
    for g, level, i in read:
        assert g.starting_at(level, i)[0] == g.path_index(g.xi(i, level))


@pytest.mark.parametrize(
    "k, t",
    [
        (3, [2, 1, "x"]),
        ("abc", [2, 1, 1]),
        (3, None),
        (3, [2, 1, 1j]),
        (2.7, [2, 1]),
        (3, "211"),
        (1, [2]),
    ],
    ids=["string_weight", "string_length", "no_weights", "complex_weight",
         "float_length", "string_weights", "one_vertex"],
)
def test_malformed_input_raises_domain_error(k, t):
    with pytest.raises(DomainError):
        build_cycle(k, t)
    with pytest.raises(DomainError):
        demo_report(k, t)
