"""End-to-end reports of the weighted-cycle character demo."""

import pytest

from wck import cycle_demo
from wck.cycle_demo import build_cycle, demo_report
from wck.elements import parse_element
from wck.errors import DomainError
from wck.windows import eval_block


@pytest.mark.parametrize(
    "k, t, weighted, unweighted",
    [(3, [2, 1, 1], 4, 2), (4, [2, 1, 3, 1], 8, 2)],
)
def test_demo_report_family_counts(k, t, weighted, unweighted, monkeypatch):
    read = set()
    diag_entries = cycle_demo._diag_entries

    def spy(model, level, x, pos):
        read.add((model.graph, level, tuple(pos)))
        return diag_entries(model, level, x, pos)

    monkeypatch.setattr(cycle_demo, "_diag_entries", spy)
    rep = demo_report(k, t)
    assert rep["weighted_family_count"] == weighted
    assert rep["unweighted_family_count"] == unweighted
    assert rep["verify_ok"]
    assert rep["kernel_family_nontrivial"]
    # _diag_entries reads, for each i, the one level path out of i
    assert read
    for g, level, pos in read:
        assert len(pos) == k
        for i, j in enumerate(pos):
            assert j == g.path_index(g.xi(i, level))


@pytest.mark.parametrize("k, t, pairs", [(3, [2, 1, 1], 144), (4, [2, 1, 3, 1], 128)])
def test_demo_report_evaluates_each_word_once(k, t, pairs, monkeypatch):
    """Each distinct (word, level) is one word_matrix call per model."""
    calls = []
    word_matrix = cycle_demo.word_matrix

    def spy(weights, word, level):
        calls.append((word, level))
        return word_matrix(weights, word, level)

    monkeypatch.setattr(cycle_demo, "word_matrix", spy)
    demo_report(k, t)
    assert len(calls) == len(set(calls)) == pairs


@pytest.mark.parametrize("k, t", [(3, [2, 1, 1]), (4, [2, 1, 3, 1])])
def test_character_table_reads_each_start_vertex(k, t):
    """Row n of the z table holds the level-matrix entries of the k paths.

    Entry i is the diagonal entry of z at the level path out of vertex
    i, on a deep level congruent to n mod L, evaluated on its own.
    """
    g, w, model = build_cycle(k, t)
    z = parse_element(g, "z")
    table = demo_report(k, t)["character_table_z"]
    for n, row in enumerate(table):
        level = n + 2 * model.L
        block = eval_block(z, level, w)
        paths = [g.path_index(g.xi(i, level)) for i in range(k)]
        ref = [block[j, j].real for j in paths]
        assert row == pytest.approx(ref, abs=1e-12)


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
