"""Truncated Fock representation and its relation checks."""

import numpy as np
import pytest
import scipy.sparse as sp

from util import (
    THETA_BLOCK,
    SparseFock,
    compact_decay,
    corpus_graphs,
    cycle_graph,
    cycle_weight_spec,
    graded_commutator_decay,
    map_matrix,
    mkgraph,
    random_diag_spec,
    sparse_relations,
)
from wck.errors import DomainError, WeightError, WindowUnstableError
from wck.fock import build_truncated, verify_relations
from wck.graphs import MAX_LEVEL_DIM
from wck.weights import WeightSpec, from_dict

T = (2.0, 1.0, 3.0)


def source_vertex_graph():
    return mkgraph(
        ["v0", "v1", "v2"],
        [("a", "v0", "v1"), ("b", "v1", "v2"), ("c", "v2", "v1")],
    )


@pytest.fixture(scope="module")
def c3():
    return cycle_graph(3)


@pytest.fixture(scope="module")
def c3_weighted_rep(c3):
    return build_truncated(c3, cycle_weight_spec(c3, T), 8)


@pytest.fixture(scope="module")
def c3_weighted_oracle(c3):
    return SparseFock(c3, cycle_weight_spec(c3, T), 8)


@pytest.mark.parametrize("name", ["O2", "G2", "C3", "theta", "P2", "chain13"])
def test_relations_unweighted(name):
    g = corpus_graphs()[name]
    rep = build_truncated(g, WeightSpec.unweighted(g), 6)
    report = verify_relations(rep)
    assert report.max_deviation <= 1e-12, report.deviations


@pytest.mark.parametrize("name,p,N", [("O2", 2, 1), ("G2", 2, 0), ("C3", 3, 2)])
def test_relations_weighted_random(name, p, N):
    g = corpus_graphs()[name]
    w = random_diag_spec(g, p, N, np.random.default_rng(11))
    report = verify_relations(build_truncated(g, w, 6))
    assert report.max_deviation <= 1e-12, report.deviations


def test_relations_cycle_weights(c3_weighted_rep):
    report = verify_relations(c3_weighted_rep)
    assert report.max_deviation <= 1e-12, report.deviations
    assert set(report.deviations) == {
        "pair_isometry",
        "range_sum",
        "range_sum_per_vertex",
        "z_vertex_commutation",
        "partial_isometry",
    }


def test_relations_with_source_vertex():
    g = source_vertex_graph()
    assert g.validate().no_sources is False
    rep = build_truncated(g, WeightSpec.unweighted(g), 6)
    report = verify_relations(rep)
    assert report.max_deviation <= 1e-12, report.deviations


# -- the index maps against the sparse operators -------------------------------


def _oracle_inputs():
    corpus = corpus_graphs()
    out = {}
    for name, g in corpus.items():
        out["unweighted:" + name] = (g, WeightSpec.unweighted(g), 6)
        w = random_diag_spec(g, 2, 1, np.random.default_rng(11))
        out["random:" + name] = (g, w, 6)
    out["block:theta"] = (corpus["theta"], from_dict(THETA_BLOCK, corpus["theta"]), 6)
    g = source_vertex_graph()
    out["source-vertex"] = (g, WeightSpec.unweighted(g), 6)
    g = corpus["C3"]
    for K in (0, 1, 8):
        out["C3w:K=%d" % K] = (g, cycle_weight_spec(g, T), K)
    return out


ORACLE_INPUTS = _oracle_inputs()


@pytest.mark.parametrize("key", sorted(ORACLE_INPUTS))
def test_deviations_match_sparse_oracle(key):
    g, w, K = ORACLE_INPUTS[key]
    got = verify_relations(build_truncated(g, w, K)).deviations
    assert got == sparse_relations(SparseFock(g, w, K))


@pytest.mark.parametrize("name", sorted(corpus_graphs()))
def test_edge_maps_are_the_sparse_creators(name):
    g = corpus_graphs()[name]
    rep = build_truncated(g, WeightSpec.unweighted(g), 5)
    oracle = SparseFock(g, WeightSpec.unweighted(g), 5)
    for e, f in enumerate(rep.maps):
        j = np.flatnonzero(f >= 0)
        assert (map_matrix(rep.dim, j, f[j]) != oracle.S(e)).nnz == 0


@pytest.mark.parametrize("kind", ["collision", "dropped", "shared"])
def test_corrupted_edge_map_matches_sparse_oracle(kind):
    """A collision inside one map, a dropped entry, and an image shared
    with another edge's map (each map stays injective)."""
    g = corpus_graphs()["G2"]
    w = WeightSpec.unweighted(g)
    rep = build_truncated(g, w, 6)
    oracle = SparseFock(g, w, 6)
    e = g.eindex["l2"]
    f = rep.maps[e]
    j = np.flatnonzero(f >= 0)
    lo, hi = j[-2:]
    # two paths of level K - 1, the top level the creator still acts on
    assert lo >= rep.offsets[5]
    other = rep.maps[g.eindex["a"]]
    f[hi] = {"collision": f[lo], "dropped": -1, "shared": other.max()}[kind]
    j = np.flatnonzero(f >= 0)
    oracle.creators[e] = map_matrix(rep.dim, j, f[j])
    report = verify_relations(rep)
    assert report.max_deviation > 0
    assert report.deviations == sparse_relations(oracle)


# -- the Fock depth -------------------------------------------------------------


@pytest.mark.parametrize("K", [-1, True, "3", 2.7, None])
def test_depth_must_be_a_nonnegative_int(c3, K):
    with pytest.raises(DomainError):
        build_truncated(c3, WeightSpec.unweighted(c3), K)


def test_weights_of_another_graph_raise_before_any_work(c3):
    o2 = corpus_graphs()["O2"]
    o2_weights = random_diag_spec(o2, 2, 1, np.random.default_rng(7))
    for g, w in ((c3, o2_weights), (o2, cycle_weight_spec(c3, T))):
        with pytest.raises(WeightError, match="different graph"):
            build_truncated(g, w, 3)


@pytest.mark.parametrize("K", [12, 40])
def test_a_level_above_the_guard_is_refused_before_any_work(K):
    # O2 has 2^K paths at level K; at K = 40 the maps alone would take
    # 32 TB, so the count has to come first, and no level above the guard
    # is enumerated into the path caches
    g = corpus_graphs()["O2"]
    with pytest.raises(WindowUnstableError, match="exceeds the guard %d" % MAX_LEVEL_DIM):
        build_truncated(g, WeightSpec.unweighted(g), K)
    built = set(g._paths) | set(g._levels)
    assert all(g.level_dim(k) <= MAX_LEVEL_DIM for k in built)


def test_the_deepest_theta_depth_builds():
    # theta at K = 8 has 512 paths on its top level, under the guard
    g = corpus_graphs()["theta"]
    assert g.level_dim(8) == 512 <= MAX_LEVEL_DIM
    assert build_truncated(g, from_dict(THETA_BLOCK, g), 8).dim == 1022


def test_depth_zero_reports_no_deviation(c3):
    report = verify_relations(build_truncated(c3, WeightSpec.unweighted(c3), 0))
    assert len(report.deviations) == 5
    assert report.max_deviation == 0.0, report.deviations


# -- the representation itself, read off the maps or the oracle ----------------


def test_g2_level_one_range_sum():
    g = corpus_graphs()["G2"]
    rep = SparseFock(g, WeightSpec.unweighted(g), 6)
    total = sp.csr_matrix((rep.dim, rep.dim), dtype=np.complex128)
    for a in g.paths(1):
        Sa = rep.S_path(a)
        total = total + Sa @ Sa.conj().T
    expect = rep.identity() - rep.Q(0)
    assert abs(total - expect).max() == 0


def test_creation_moves_basis_paths(c3, c3_weighted_rep):
    rep = c3_weighted_rep
    src = rep.index(c3.xi(1, 2))
    dst = rep.index(c3.xi(1, 3))
    assert rep.maps[0, src] == dst


def test_z_acts_by_weight_on_level_five(c3, c3_weighted_oracle):
    rep = c3_weighted_oracle
    for i in range(3):
        vec = np.zeros(rep.dim, dtype=np.complex128)
        vec[rep.offsets[5] + c3.path_index(c3.xi(i, 5))] = 1.0
        out = rep.Z @ vec
        assert np.allclose(out, T[i] * vec)


def test_index_roundtrip(c3_weighted_rep, c3_weighted_oracle):
    rep = c3_weighted_rep
    for i in range(0, rep.dim, 3):
        assert rep.index(c3_weighted_oracle.basis_path(i)) == i


def test_compact_decay_of_level_projection(c3):
    rep = SparseFock(c3, WeightSpec.unweighted(c3), 6)
    decay = compact_decay(rep, rep.Q(3))
    assert decay == [0, 0, 0, 1, 0, 0, 0]


def test_compact_decay_z_minus_identity(c3_weighted_oracle):
    rep = c3_weighted_oracle
    decay = compact_decay(rep, rep.Z - rep.identity())
    expected = [0.0 if k % 2 == 0 else 2.0 for k in range(9)]
    assert decay == pytest.approx(expected, abs=1e-14)


def test_commutator_vanishes_iff_period_multiple(c3, c3_weighted_oracle):
    rep = c3_weighted_oracle
    # length-2 words are period multiples: all graded commutator blocks die
    for path in c3.paths(2):
        assert max(graded_commutator_decay(rep, path)) <= 1e-14
    # length-1 words are not: some block survives at every stable level
    for path in c3.paths(1):
        profile = graded_commutator_decay(rep, path)
        assert max(profile) > 0.5


def test_commutator_unweighted_always_vanishes(c3):
    rep = SparseFock(c3, WeightSpec.unweighted(c3), 8)
    for k in (1, 2, 3):
        for path in c3.paths(k):
            assert max(graded_commutator_decay(rep, path)) == 0.0
