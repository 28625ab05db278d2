"""Weight sequence loading, extension rule, and periodicity checks.

Closed-form oracle used throughout: on the k-cycle with level-1 values
t_i on the edge starting at v_i (period 2, N = 0), stripping length-2
operator prefixes leaves weight t_i on odd-length paths from v_i and 1
on even-length paths.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from util import (
    THETA_BLOCK,
    compose,
    corpus_graphs,
    cycle_graph,
    cycle_weight_doc,
    cycle_weight_spec,
    inline_level_matrix,
    random_diag_spec,
    weight_entry,
    weight_of,
)
from wck.errors import WeightError
from wck.graphs import Path
from wck.weights import (
    WeightSpec,
    check_condition_Ap,
    from_dict,
    load_weights,
    minimal_period,
)

T = (2.0, 1.0, 3.0)


@pytest.fixture(scope="module")
def c3w():
    return cycle_weight_spec(cycle_graph(3), T)


def test_cycle_spec_passes_period_two(c3w):
    report = check_condition_Ap(c3w, 2)
    assert report.exact
    assert max(report.residuals) <= 1e-12


def test_cycle_spec_fails_period_one(c3w):
    report = check_condition_Ap(c3w, 1)
    assert not report.exact
    # I_1 (x) Z_k and Z_{k+1} have opposite parity profiles, so every
    # residual equals max_i |t_i - 1|
    for r in report.residuals:
        assert r == pytest.approx(2.0, abs=1e-12)


def test_minimal_period_cycle(c3w):
    assert minimal_period(c3w) == 2


def test_minimal_period_all_equal_values():
    spec = cycle_weight_spec(cycle_graph(3), (2.0, 2.0, 2.0))
    assert minimal_period(spec) == 2


def test_minimal_period_trivial_values():
    spec = cycle_weight_spec(cycle_graph(3), (1.0, 1.0, 1.0))
    assert spec.is_trivial
    assert minimal_period(spec) == 1


def test_unweighted_spec_is_exact_period_one():
    g = corpus_graphs()["O2"]
    w = WeightSpec.unweighted(g)
    report = check_condition_Ap(w, 1)
    assert report.exact
    assert all(r == 0.0 for r in report.residuals)
    assert minimal_period(w) == 1
    assert w.is_trivial
    assert w.epsilon == 1.0


def test_weight_of_cycle_closed_form(c3w):
    g = c3w.graph
    for k in range(8):
        for v in range(3):
            path = g.xi(v, k)
            expected = T[v] if k % 2 == 1 else 1.0
            assert weight_of(c3w, path) == pytest.approx(expected, abs=0)


def test_level_five_diagonal_order(c3w):
    # canonical order at level 5 lists the paths from v3, v1, v2
    g = c3w.graph
    sources = [p.source for p in g.paths(5)]
    assert [g.vertices[s] for s in sources] == ["v3", "v1", "v2"]
    assert np.allclose(c3w.level_diag(5), [3.0, 2.0, 1.0])


def test_level_matrix_matches_entry_oracle():
    rng = np.random.default_rng(7)
    g = corpus_graphs()["theta"]
    w = random_diag_spec(g, 2, 1, rng)
    for k in range(6):
        mat = w.level_matrix(k)
        ps = g.paths(k)
        for ia in range(len(ps)):
            for ib in range(len(ps)):
                assert mat[ia, ib] == pytest.approx(
                    weight_entry(w, ps[ia], ps[ib]), abs=1e-13
                )


@settings(deadline=None, max_examples=40)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from(["O2", "C3", "theta", "P2", "G2"]),
    st.integers(1, 3),
    st.integers(0, 2),
)
def test_prefix_stripping_invariance(seed, name, p, N):
    g = corpus_graphs()[name]
    w = random_diag_spec(g, p, N, np.random.default_rng(seed))
    for k in range(N, N + 3):
        for gamma in g.paths(k):
            for beta in g.paths(p):
                if beta.source != g.range_of(gamma):
                    continue
                assert weight_of(w, compose(g, beta, gamma)) == pytest.approx(
                    weight_of(w, gamma), abs=1e-13
                )


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**31 - 1), st.integers(1, 3), st.integers(0, 2))
def test_declared_period_always_exact(seed, p, N):
    g = corpus_graphs()["G2"]
    w = random_diag_spec(g, p, N, np.random.default_rng(seed))
    assert check_condition_Ap(w, minimal_period(w)).exact


def test_tensor_extension_definition(c3w):
    # entries of I_2 (x) Z_3 vanish across differing length-2 prefixes and
    # copy the level-3 entry of the suffixes otherwise
    g = c3w.graph
    ext = c3w.tensor_extension(3, 2)
    ps5 = g.paths(5)
    for i, a in enumerate(ps5):
        for j, b in enumerate(ps5):
            if a.edges[:2] != b.edges[:2]:
                assert ext[i, j] == 0
            else:
                ia = g.path_index(Path(a.edges[2:], a.source))
                ib = g.path_index(Path(b.edges[2:], b.source))
                assert ext[i, j] == c3w.level_matrix(3)[ia, ib]


# -- block kind ---------------------------------------------------------------


def block_doc(block):
    return {
        "kind": "block",
        "p": 2,
        "N": 0,
        "levels": {"1": {"v1:v2": block}},
    }


def test_block_spec_roundtrip():
    g = corpus_graphs()["theta"]
    w = from_dict(block_doc([[2.0, 1.0], [1.0, 2.0]]), g)
    m1 = w.level_matrix(1)
    # canonical level-1 order on theta is a, b, c, d; the a/b class from v1
    # carries the seed block and the c/d class stays identity
    assert np.allclose(m1[:2, :2], [[2, 1], [1, 2]])
    assert np.allclose(m1[2:, 2:], np.eye(2))
    assert np.allclose(m1[:2, 2:], 0)
    assert w.epsilon == pytest.approx(1.0)
    assert check_condition_Ap(w, 2).exact
    assert not check_condition_Ap(w, 1).exact
    assert minimal_period(w) == 2


def test_block_extension_matches_entry_oracle():
    g = corpus_graphs()["theta"]
    w = from_dict(block_doc([[2.0, 1.0], [1.0, 2.0]]), g)
    for k in (2, 3, 4):
        mat = w.level_matrix(k)
        ps = g.paths(k)
        for ia in range(len(ps)):
            for ib in range(len(ps)):
                assert mat[ia, ib] == pytest.approx(
                    weight_entry(w, ps[ia], ps[ib]), abs=1e-13
                )


@pytest.mark.parametrize("kind", ["diagonal", "block"])
def test_level_matrix_matches_the_inline_extension(kind):
    """The periodic branch through tensor_extension equals I_p (x) Z_{k-p} inline."""
    g = corpus_graphs()["theta"]
    if kind == "diagonal":
        w = random_diag_spec(g, 2, 1, np.random.default_rng(7))
    else:
        w = from_dict(THETA_BLOCK, g)
    for k in range(w.N + 3 * w.p + 1):
        assert np.array_equal(w.level_matrix(k), inline_level_matrix(w, k)), k


def test_block_spec_rejects_non_hermitian():
    g = corpus_graphs()["theta"]
    with pytest.raises(WeightError, match="self-adjoint"):
        from_dict(block_doc([[2.0, 1.0], [0.0, 2.0]]), g)


def test_block_spec_rejects_non_positive():
    g = corpus_graphs()["theta"]
    with pytest.raises(WeightError, match="positive definite"):
        from_dict(block_doc([[1.0, 2.0], [2.0, 1.0]]), g)


def test_block_spec_rejects_wrong_shape():
    g = corpus_graphs()["theta"]
    with pytest.raises(WeightError, match="bimodule"):
        from_dict(block_doc([[2.0]]), g)


def test_block_spec_rejects_unknown_class():
    g = corpus_graphs()["theta"]
    doc = block_doc([[2.0, 1.0], [1.0, 2.0]])
    doc["levels"]["1"] = {"v1:v1": [[2.0]]}
    with pytest.raises(WeightError, match="no level-1 paths"):
        from_dict(doc, g)


# -- loader validation --------------------------------------------------------


def test_load_weights_parses_json():
    g = cycle_graph(3)
    w = load_weights(json.dumps(cycle_weight_doc(T)), g)
    assert w.p == 2 and w.N == 0
    assert weight_of(w, g.xi(0, 1)) == 2.0


def test_load_weights_rejects_bad_json():
    with pytest.raises(WeightError, match="JSON"):
        load_weights("{not json", cycle_graph(3))


def test_missing_level_rejected():
    g = cycle_graph(3)
    doc = cycle_weight_doc(T, p=3, N=0)
    del doc["levels"]["2"]
    with pytest.raises(WeightError, match="missing seed levels"):
        from_dict(doc, g)


def test_huge_period_rejected_without_listing_every_level():
    # the required levels 1..N+p-1 must not be materialized to find a gap
    doc = {"kind": "diagonal", "p": 10 ** 12, "N": 0, "levels": {}}
    with pytest.raises(WeightError, match=r"missing seed levels \[1, 2,"):
        from_dict(doc, cycle_graph(3))


def test_extra_level_rejected():
    g = cycle_graph(3)
    doc = cycle_weight_doc(T)
    doc["levels"]["2"] = {}
    with pytest.raises(WeightError, match="outside the required seed range"):
        from_dict(doc, g)


def test_unknown_path_rejected():
    g = cycle_graph(3)
    doc = cycle_weight_doc(T)
    doc["levels"]["1"]["nope"] = 1.0
    with pytest.raises(WeightError):
        from_dict(doc, g)


def test_wrong_length_path_rejected():
    g = cycle_graph(3)
    doc = cycle_weight_doc(T)
    doc["levels"]["1"]["e1.e2"] = 1.0
    with pytest.raises(WeightError, match="length"):
        from_dict(doc, g)


def test_nonpositive_value_rejected():
    g = cycle_graph(3)
    doc = cycle_weight_doc((2.0, -1.0, 3.0))
    with pytest.raises(WeightError, match="positive"):
        from_dict(doc, g)


def test_value_below_declared_epsilon_rejected():
    g = cycle_graph(3)
    doc = cycle_weight_doc((2.0, 0.5, 3.0))
    doc["epsilon"] = 0.75
    with pytest.raises(WeightError, match="epsilon"):
        from_dict(doc, g)


def test_epsilon_defaults_to_minimum_eigenvalue():
    g = cycle_graph(3)
    w = from_dict(cycle_weight_doc((2.0, 0.5, 3.0)), g)
    assert w.epsilon == pytest.approx(0.5)


def test_missing_paths_default_to_one():
    g = cycle_graph(3)
    doc = cycle_weight_doc(T)
    del doc["levels"]["1"]["e2"]
    w = from_dict(doc, g)
    assert weight_of(w, g.xi(1, 1)) == 1.0


def test_bad_parameters_rejected():
    g = cycle_graph(3)
    with pytest.raises(WeightError):
        from_dict({"kind": "diagonal", "p": 0, "N": 0, "levels": {}}, g)
    with pytest.raises(WeightError):
        from_dict({"kind": "other", "p": 1, "N": 0, "levels": {}}, g)
    with pytest.raises(WeightError):
        from_dict({"kind": "diagonal", "p": 1, "N": -1, "levels": {}}, g)
    with pytest.raises(WeightError, match="missing key"):
        from_dict({"kind": "diagonal", "levels": {}}, g)


# JSON texts, since the standard JSON parser reads NaN and 1e400 (inf)
NON_FINITE_DOCS = {
    "nan_diagonal": '{"p": 2, "N": 0, "levels": {"1": {"e1": NaN}}}',
    "inf_diagonal": '{"p": 2, "N": 0, "levels": {"1": {"e1": 1e400}}}',
    "bool_period": '{"p": true, "N": 0, "levels": {}}',
    "bool_offset": '{"p": 1, "N": true, "levels": {"1": {}}}',
    "nan_epsilon": '{"p": 1, "N": 0, "epsilon": NaN, "levels": {}}',
    "bool_epsilon": '{"p": 1, "N": 0, "epsilon": true, "levels": {}}',
    "nan_block": '{"kind": "block", "p": 2, "N": 0, "levels": {"1": {"v1:v2": [[NaN]]}}}',
    "bool_block": '{"kind": "block", "p": 1, "N": 1, "levels": {"1": {"v1:v2": [[true]]}}}',
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_DOCS))
def test_non_finite_or_bool_values_rejected(name):
    with pytest.raises(WeightError):
        load_weights(NON_FINITE_DOCS[name], cycle_graph(3))


def test_constructor_rejects_non_finite_seed():
    g = cycle_graph(3)
    with pytest.raises(WeightError, match="non-finite"):
        WeightSpec(g, "diagonal", 2, 0, {1: np.array([2.0, np.nan, 1.0])})


@pytest.mark.parametrize(
    "doc",
    [
        {"p": 2, "N": 0, "epsilon": "x", "levels": {"1": {"e1": 2.0}}},
        {"kind": "block", "p": 2, "N": 0, "levels": {"1": {"v1:v2": [["a"]]}}},
    ],
    ids=["string_epsilon", "string_block_entry"],
)
def test_load_weights_malformed_values_raise_weight_error(doc):
    with pytest.raises(WeightError):
        load_weights(json.dumps(doc), cycle_graph(3))
