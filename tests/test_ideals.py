"""Invariant corner-ideal machinery: transports, families, lattices."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from util import (
    O2_BLOCK,
    compose,
    corpus_graphs,
    cycle_weight_spec,
    dense_check_H,
    dense_check_S,
    dense_enumerate_families,
    dense_hasse_edges,
    dense_ideal_chain,
    dense_ideal_subspace,
    load_workloads,
    looped_transport_edges,
    looped_verify_fully_invariant,
    random_diag_spec,
)
from test_golden import KEYS as GOLDEN_KEYS
from test_golden import golden_case
from wck import ideals, tower
from wck.cycle_demo import build_cycle, demo_tower_config
from wck.errors import DomainError, GraphError, ProtocolError, WckError
from wck.graphs import Path, load_graph
from wck.ideals import (
    IdealFamily,
    _family,
    build_fully_invariant,
    check_H,
    check_S,
    enumerate_families,
    family_of_subset,
    hereditary_saturated,
    ideal_subspace,
    pi_map,
    simplicity_verdict,
    unweighted_simplicity,
    verify_fully_invariant,
)
from wck.tower import TowerConfig, build_tower
from wck.weights import WeightSpec, from_dict, load_weights

RT_TOL = 1e-8

CORPUS = corpus_graphs()

# gauge-invariant ideal counts, one per corpus graph, equal by the
# classical correspondence to the number of hereditary saturated sets
FAMILY_COUNTS = {
    "O2": 2,
    "G2": 3,
    "C2": 2,
    "C3": 2,
    "C4": 2,
    "C5": 2,
    "P2": 2,
    "theta": 2,
    "C3chord": 2,
    "G3": 4,
    "chain13": 3,
}

_CACHE = {}


def same_span(a, b):
    """Whether two orthonormal row bases span the same space."""
    off = b - (b @ a.conj().T) @ a
    return a.shape == b.shape and np.abs(off).max(initial=0.0) <= RT_TOL


def unweighted_tower(name, n_max=3):
    key = (name, n_max)
    if key not in _CACHE:
        g = CORPUS[name]
        _CACHE[key] = build_tower(
            g, WeightSpec.unweighted(g), TowerConfig(n_max=n_max)
        )
    return _CACHE[key]


@pytest.fixture(scope="module")
def g2t():
    return unweighted_tower("G2")


@pytest.fixture(scope="module")
def c13t():
    return unweighted_tower("chain13")


def _o2_weighted(cfg):
    g = CORPUS["O2"]
    w = random_diag_spec(g, 2, 1, np.random.default_rng(7))
    return build_tower(g, w, cfg)


def _demo_tower(k, t):
    g, w, model = build_cycle(k, t)
    return build_tower(g, w, demo_tower_config(model))


WEIGHTED = {
    "C3w": lambda: build_tower(
        CORPUS["C3"],
        cycle_weight_spec(CORPUS["C3"], (2.0, 1.0, 3.0)),
        TowerConfig(n_max=3),
    ),
    "O2w": lambda: _o2_weighted(TowerConfig(n_max=1, M=6, W=2)),
    # the tight window of the O2 simplicity verdict
    "O2w:tight": lambda: _o2_weighted(TowerConfig(n_max=0, M=4, W=3)),
    "demo:3": lambda: _demo_tower(3, [2, 1, 1]),
    "demo:4": lambda: _demo_tower(4, [2, 1, 3, 1]),
    # two summands of size d = 4 on its one vertex
    "O2block": lambda: build_tower(
        CORPUS["O2"], from_dict(O2_BLOCK, CORPUS["O2"]), TowerConfig(n_max=1, M=6, W=2)
    ),
}


def tower_of(key):
    """An unweighted corpus tower by graph name, or a WEIGHTED tower."""
    if key in CORPUS:
        return unweighted_tower(key)
    if key not in _CACHE:
        _CACHE[key] = WEIGHTED[key]()
    return _CACHE[key]


@pytest.fixture(scope="module")
def c3w_tower():
    return tower_of("C3w")


@pytest.fixture(scope="module")
def o2w_tower():
    return tower_of("O2w")


@pytest.fixture(scope="module")
def c3chord_w_tower(corpus):
    g = corpus["C3chord"]
    w = random_diag_spec(g, 2, 1, np.random.default_rng(1))
    return build_tower(g, w, TowerConfig(n_max=1))


@pytest.fixture(scope="module")
def c3chord_w_lattice(c3chord_w_tower):
    return enumerate_families(c3chord_w_tower)


class TestPiMap:
    def test_unweighted_loop_transport_is_identity(self):
        tw = unweighted_tower("O2")
        for name in ("e", "f"):
            mat = pi_map(tw, name, name)
            assert mat.shape == (1, 1)
            assert abs(mat[0, 0] - 1.0) <= RT_TOL

    def test_unweighted_parallel_pair_vanishes(self):
        tw = unweighted_tower("O2")
        assert np.abs(pi_map(tw, "e", "f")).max() <= RT_TOL
        tht = unweighted_tower("theta")
        assert np.abs(pi_map(tht, "a", "b")).max() <= RT_TOL

    def test_weighted_cycle_loop_transports_are_unital(self, c3w_tower):
        g = c3w_tower.graph
        for edge in g.edges:
            pth = g.edge_path(edge.name)
            cs = c3w_tower.corners[g.source_of(pth)]
            cw = c3w_tower.corners[g.range_of(pth)]
            mat = pi_map(c3w_tower, pth, pth)
            dev = np.linalg.norm(mat @ cw.algebra.unit - cs.algebra.unit)
            assert dev <= RT_TOL, edge.name

    def test_transport_composition_reverses_order(self, o2w_tower):
        g = o2w_tower.graph
        singles = [g.edge_path(e.name) for e in g.edges]
        worst = 0.0
        for a1 in singles:
            for b1 in singles:
                outer = pi_map(o2w_tower, a1, b1)
                for a2 in singles:
                    for b2 in singles:
                        inner = pi_map(o2w_tower, a2, b2)
                        left = pi_map(
                            o2w_tower, compose(g, a1, a2), compose(g, b1, b2)
                        )
                        worst = max(
                            worst,
                            float(np.abs(left - inner @ outer).max()),
                        )
        assert worst <= RT_TOL

    def test_rejects_mismatched_paths(self, g2t):
        g = g2t.graph
        with pytest.raises(GraphError):
            pi_map(g2t, "l1", "a")
        with pytest.raises(GraphError):
            pi_map(g2t, "l1", g.parse_path("l1.l1"))


class TestCheckH:
    def test_g2_lower_vertex_passes(self, g2t):
        ok, violations = check_H(g2t, family_of_subset(g2t, {"v1"}))
        assert ok and not violations

    def test_g2_upper_vertex_fails(self, g2t):
        ok, violations = check_H(g2t, family_of_subset(g2t, {"v2"}))
        assert not ok
        assert violations[0]["from"] == "v2"
        assert violations[0]["to"] == "v1"
        assert violations[0]["residual"] > 0.1

    def test_trivial_families_pass(self, g2t, c13t):
        for tw in (g2t, c13t):
            for subset in (set(), set(tw.graph.vertices)):
                ok, violations = check_H(tw, family_of_subset(tw, subset))
                assert ok and not violations


class TestCheckS:
    def test_closure_failure_detected_at_stage_one(self, c13t):
        fam = family_of_subset(c13t, {"v1"})
        assert check_H(c13t, fam)[0]
        ok, violations = check_S(c13t, fam)
        assert not ok
        assert violations == [{"vertex": "v2", "summand": 0}]

    def test_closed_family_without_transport_invariance(self, g2t):
        fam = family_of_subset(g2t, {"v2"})
        assert not check_H(g2t, fam)[0]
        assert check_S(g2t, fam) == (True, [])

    def test_trivial_families_stabilize_immediately(self, g2t):
        for subset in (set(), {"v1", "v2"}):
            fam = family_of_subset(g2t, subset)
            assert check_S(g2t, fam) == (True, [])


class TestFullyInvariantBasis:
    def test_g2_ideal_dims_grow_like_path_counts(self, g2t):
        fam = family_of_subset(g2t, {"v1"})
        dims = [
            build_fully_invariant(g2t, fam, n).shape[0] for n in range(4)
        ]
        assert dims == [1, 4, 9, 16]

    def test_stage_zero_dim_matches_summand_pattern(self, c3w_tower):
        lattice = enumerate_families(c3w_tower)
        for fam in lattice:
            expected = 0
            for v in range(c3w_tower.graph.n_vertices):
                m = c3w_tower.stages[0].counts[v]
                dsq = sum(
                    c3w_tower.corners[v].dec.summands[i].d ** 2
                    for i in fam.choices[v]
                )
                expected += m * m * dsq
            assert fam.j0_dim == expected

    def test_stage_above_tower_cap_rejected(self, g2t):
        fam = family_of_subset(g2t, {"v1"})
        with pytest.raises(DomainError):
            build_fully_invariant(g2t, fam, 4)

    def test_basis_rows_are_orthonormal(self, g2t):
        fam = family_of_subset(g2t, {"v1"})
        basis = build_fully_invariant(g2t, fam, 2)
        gram = basis.conj() @ basis.T
        assert np.abs(gram - np.eye(basis.shape[0])).max() <= RT_TOL

    @pytest.mark.parametrize(
        "key", ["G2", "chain13", "C3w", "O2w", "demo:3", "demo:4"]
    )
    def test_placed_chain_matches_gathered_conjugates(self, key):
        """Every stage of the placed ideal spans what the conjugates span.

        Beside the lattice families, the single-vertex full families that
        are transport invariant are compared, saturated or not.
        """
        tw = tower_of(key)
        fams = set(enumerate_families(tw))
        for v in tw.graph.vertices:
            fam = family_of_subset(tw, {v})
            if check_H(tw, fam)[0]:
                fams.add(fam)
        n = tw.config.n_max
        for fam in fams:
            placed = [build_fully_invariant(tw, fam, m) for m in range(n + 1)]
            for m, (a, b) in enumerate(zip(placed, dense_ideal_chain(tw, fam, n))):
                assert same_span(a, b), (fam, m)


@pytest.mark.parametrize("key", ["C3w", "O2w"])
def test_ideal_subspace_matches_one_span(key):
    """The stacked summand ideals span the ideal of every summand subset."""
    tw = tower_of(key)
    for v, corner in tw.corners.items():
        count = len(corner.dec.summands)
        for bits in range(2 ** count):
            subset = {i for i in range(count) if bits >> i & 1}
            assert same_span(
                ideal_subspace(tw, v, subset), dense_ideal_subspace(tw, v, subset)
            )


class TestVerify:
    def test_unweighted_lattice_families_verify(self, g2t):
        for fam in enumerate_families(g2t):
            report = verify_fully_invariant(g2t, fam, n_cap=3)
            assert report.ok, report.failures

    def test_weighted_lattice_families_verify(self, c3w_tower):
        for fam in enumerate_families(c3w_tower):
            report = verify_fully_invariant(c3w_tower, fam, n_cap=3)
            assert report.ok, report.failures

    def test_unsaturated_family_grows(self, c13t):
        fam = family_of_subset(c13t, {"v1"})
        report = verify_fully_invariant(c13t, fam, n_cap=3)
        assert not report.ok
        relations = {entry["relation"] for entry in report.fiber_checks}
        assert "grew" in relations
        assert "uncertified" not in relations
        assert any("grew" in msg for msg in report.failures)

    def test_weighted_o2_family_verifies(self, o2w_tower):
        fam = enumerate_families(o2w_tower).families[1]
        report = verify_fully_invariant(o2w_tower, fam, n_cap=1)
        assert report.ok, report.failures

    def test_bad_caps_rejected(self, g2t):
        fam = family_of_subset(g2t, {"v1"})
        with pytest.raises(DomainError):
            verify_fully_invariant(g2t, fam, n_cap=0)
        with pytest.raises(DomainError):
            verify_fully_invariant(g2t, fam, n_cap=4)


# verification stage cap per tower of the looped-oracle comparison; the
# theta tower is capped at 1, as orthonormalizing its deeper strips
# (32 or 128 renders of 86,016 entries) takes 4 to 16 s per
# verification on either side
ORACLE_CAPS = {
    "G2": 3, "C3": 3, "chain13": 3, "theta": 1, "C3chord": 3, "C3w": 2, "O2w": 1,
}


def _outcome(verify, tw, fam, cap):
    """The report of a verification as a dict, or the error it raised."""
    try:
        rep = verify(tw, fam, cap)
    except WckError as exc:
        return (type(exc).__name__, str(exc))
    return vars(rep)


def _split_residuals(checks):
    """The check entries without residuals, and the residuals in order."""
    keys = [{k: v for k, v in c.items() if k != "residual"} for c in checks]
    return keys, np.array([c.get("residual", 0.0) for c in checks])


@pytest.mark.parametrize("key", GOLDEN_KEYS)
def test_transport_edges_match_looped_oracle(key):
    """The stacked transport products give the per-summand loop's edges."""
    tw = build_tower(*golden_case(key))
    got = ideals._transport_edges(tw)
    ref = looped_transport_edges(tw)
    assert [edge[:4] for edge in got] == [edge[:4] for edge in ref]
    margins = np.array([edge[4] for edge in got]) - [edge[4] for edge in ref]
    assert np.abs(margins).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("key", sorted(ORACLE_CAPS))
def test_verify_matches_looped_oracle(key):
    """Stacked re-verification gives the reports of the per-row loops.

    Every lattice family and the full family on the first vertex (only
    family 1 on O2w) give the same ok, failures, fiber relations and
    pairs, or the same raised error; residuals agree within 1e-12.
    """
    tw = tower_of(key)
    fams = list(enumerate_families(tw))
    if key == "O2w":
        fams = fams[1:2]
    elif key in CORPUS:
        fams.append(family_of_subset(tw, {tw.graph.vertices[0]}))
    for fam in fams:
        got = _outcome(verify_fully_invariant, tw, fam, ORACLE_CAPS[key])
        ref = _outcome(looped_verify_fully_invariant, tw, fam, ORACLE_CAPS[key])
        if isinstance(ref, tuple) or isinstance(got, tuple):
            assert got == ref, fam
            continue
        for name in ("ok", "n_cap", "failures"):
            assert got[name] == ref[name], (fam, name)
        for name in ("fiber_checks", "strip_checks", "push_checks"):
            (gk, gr), (rk, rr) = map(_split_residuals, (got[name], ref[name]))
            assert gk == rk, (fam, name)
            assert np.abs(gr - rr).max(initial=0.0) <= 1e-12, (fam, name)


def test_strip_and_push_failures_match_looped_oracle(monkeypatch):
    """Renders moved off the ideals give the oracle's failures and residuals.

    No family that passes the stage inclusion fails a strip or push
    check, so both sides get the same shift added to every entry of
    every edge render on its levels: the stacked renders come back as
    every position of those levels, the render's own entries included.
    """
    tw = tower_of("C3w")
    fam = enumerate_families(tw).families[3]
    dims = [tw.graph.level_dim(k) for k in range(tw.M, tw.G1)]
    off = np.cumsum([0] + [d * d for d in dims])
    stacked, looped = ideals._edge_renders, util._looped_edge_render

    def shifted(tw, render, push):
        nrows, cand, pos, vals = stacked(tw, render, push)
        lo, hi = off[int(push)], off[tw.W - 1 + int(push)]
        dense = np.zeros((tw.graph.n_edges ** 2 * nrows, hi - lo), dtype=complex)
        dense[cand, pos - lo] = vals
        dense += 0.5 if push else 0.25
        rows, cols = np.indices(dense.shape)
        return nrows, rows.ravel(), cols.ravel() + lo, dense.ravel()

    monkeypatch.setattr(ideals, "_edge_renders", shifted)
    monkeypatch.setattr(
        util, "_looped_edge_render",
        lambda tw, b, e, f, push: looped(tw, b, e, f, push) + (0.5 if push else 0.25),
    )
    got = verify_fully_invariant(tw, fam, 1)
    ref = looped_verify_fully_invariant(tw, fam, 1)
    assert len(got.failures) == 2 * tw.graph.n_edges ** 2
    assert got.failures == ref.failures
    for name in ("strip_checks", "push_checks"):
        (gk, gr), (rk, rr) = map(_split_residuals, (vars(got)[name], vars(ref)[name]))
        assert gk == rk and np.abs(gr - rr).max() <= 1e-12


class TestUnweightedLattice:
    def test_matches_hereditary_saturated_sets(self, corpus):
        for name, g in corpus.items():
            tw = unweighted_tower(name)
            lattice = enumerate_families(tw)
            sets = hereditary_saturated(g)
            assert len(lattice) == FAMILY_COUNTS[name], name
            assert len(sets) == FAMILY_COUNTS[name], name
            fams = [family_of_subset(tw, hs.subset) for hs in sets]
            assert set(fams) == set(lattice), name
            for i, hi in enumerate(sets):
                for j, hj in enumerate(sets):
                    assert fams[i].leq(fams[j]) == (
                        hi.subset <= hj.subset
                    ), name

    def test_extremes_are_the_trivial_families(self, corpus):
        for name in corpus:
            lattice = enumerate_families(unweighted_tower(name))
            assert lattice.minimum.trivial_zero
            assert lattice.maximum.trivial_full

    def test_g2_hasse_chain(self, g2t):
        lattice = enumerate_families(g2t)
        assert lattice.hasse_edges() == [(0, 1), (1, 2)]
        assert [fam.j0_dim for fam in lattice] == [0, 1, 2]

    def test_families_carry_stage_zero_annotations(self):
        for key in list(CORPUS) + ["C3w"]:
            tw = tower_of(key)
            for fam in enumerate_families(tw):
                assert fam.j0_dim == build_fully_invariant(tw, fam, 0).shape[0]


class TestWeightedCycleLattice:
    def test_eight_families(self, c3w_tower):
        lattice = enumerate_families(c3w_tower)
        assert len(lattice) == 8
        assert [fam.j0_dim for fam in lattice] == [
            0, 3, 6, 6, 9, 9, 12, 15,
        ]

    def test_minimal_nontrivial_family(self, c3w_tower):
        lattice = enumerate_families(c3w_tower)
        fam = lattice.families[1]
        assert fam.choices == (
            frozenset({4}), frozenset({4}), frozenset({4}),
        )
        assert not fam.trivial_zero and not fam.trivial_full

    def test_hasse_and_extremes(self, c3w_tower):
        lattice = enumerate_families(c3w_tower)
        assert len(lattice.hasse_edges()) == 12
        assert lattice.minimum.trivial_zero
        assert lattice.maximum.trivial_full

    def test_json_round_trip_shape(self, c3w_tower):
        doc = enumerate_families(c3w_tower).to_json()
        assert set(doc) == {"families", "hasse", "minimum", "maximum"}
        assert doc["minimum"] == 0
        assert doc["maximum"] == len(doc["families"]) - 1
        for entry in doc["families"]:
            assert set(entry["choices"]) == {"v1", "v2", "v3"}


class TestSimplicity:
    def test_unweighted_verdicts(self, corpus):
        expected = {
            "O2": "Simple",
            "P2": "Simple",
            "theta": "Simple",
            "C3chord": "Simple",
            "C2": "NotSimple",
            "C3": "NotSimple",
            "C4": "NotSimple",
            "C5": "NotSimple",
            "G2": "NotApplicable",
            "G3": "NotApplicable",
            "chain13": "NotApplicable",
        }
        for name, g in corpus.items():
            assert unweighted_simplicity(g).kind == expected[name], name

    def test_trivial_weights_agree_with_classical_verdict(self, corpus):
        for name, g in corpus.items():
            w = WeightSpec.unweighted(g)
            assert (
                simplicity_verdict(g, w).kind
                == unweighted_simplicity(g).kind
            ), name

    def test_weighted_cycle_not_simple(self, corpus):
        w = cycle_weight_spec(corpus["C3"], (2.0, 1.0, 3.0))
        verdict = simplicity_verdict(corpus["C3"], w)
        assert verdict.kind == "NotSimple"
        assert "cycle" in verdict.reason

    def test_weighted_loops_not_simple(self, corpus):
        g = corpus["O2"]
        w = random_diag_spec(g, 2, 1, np.random.default_rng(7))
        # tight explicit window; the default is safe but deep, and the
        # level dimensions here grow exponentially
        verdict = simplicity_verdict(
            g, w, config=TowerConfig(n_max=0, M=4, W=3)
        )
        assert verdict.kind == "NotSimple"
        assert "nontrivial" in verdict.reason
        assert not verdict.simple

    def test_sink_is_not_applicable(self):
        from util import mkgraph

        g = mkgraph(
            ["v1", "v2"], [("l", "v1", "v1"), ("a", "v1", "v2")]
        )
        assert unweighted_simplicity(g).kind == "NotApplicable"
        w = WeightSpec.unweighted(g)
        assert simplicity_verdict(g, w).kind == "NotApplicable"

    def test_simple_property(self, corpus):
        assert unweighted_simplicity(corpus["O2"]).simple
        assert not unweighted_simplicity(corpus["C4"]).simple


class TestGuards:
    def test_unknown_vertex_rejected(self, g2t):
        with pytest.raises(GraphError):
            family_of_subset(g2t, {"bogus"})
        with pytest.raises(GraphError):
            family_of_subset(g2t, {5})

    def test_bad_summand_index_rejected(self):
        with pytest.raises(DomainError):
            IdealFamily([frozenset({3}), frozenset()], [1, 1])


class TestWeightedChordLattice:
    """C3chord with generic p=2 weights: 30 labels, 2^30 label subsets."""

    def test_lattice_has_unique_extremes(self, c3chord_w_lattice):
        doc = c3chord_w_lattice.to_json()
        assert len(doc["families"]) == 32
        assert doc["minimum"] == 0
        assert doc["maximum"] == len(doc["families"]) - 1

    def test_families_pass_both_checks(self, c3chord_w_tower, c3chord_w_lattice):
        tw = c3chord_w_tower
        for fam in c3chord_w_lattice:
            assert check_H(tw, fam) == (True, [])
            assert check_S(tw, fam) == (True, [])

    def test_nontrivial_family_verifies(self, c3chord_w_tower, c3chord_w_lattice):
        fam = c3chord_w_lattice.families[1]
        assert not (fam.trivial_zero or fam.trivial_full)
        report = verify_fully_invariant(c3chord_w_tower, fam, n_cap=1)
        assert report.ok, report.failures


@pytest.mark.parametrize("key", ["C3w", "O2w", "C3chord:generic"])
def test_hasse_edges_match_triple_search(key, request):
    if key == "C3chord:generic":
        lattice = request.getfixturevalue("c3chord_w_lattice")
    else:
        lattice = enumerate_families(tower_of(key))
    assert lattice.hasse_edges() == dense_hasse_edges(lattice)


@pytest.mark.parametrize("key", sorted(CORPUS) + sorted(WEIGHTED))
def test_families_match_linear_search(key):
    tw = tower_of(key)
    assert set(enumerate_families(tw)) == set(dense_enumerate_families(tw))


def test_o2_block_label_checks_match_linear_ones():
    """Every label subset of the d = 4 tower, by labels and by linear algebra."""
    tw = tower_of("O2block")
    assert [sm.d for sm in tw.corners[0].dec.summands] == [4, 4]
    for mask in range(2 ** len(tw.labels)):
        fam = _family(tw, mask)
        assert check_H(tw, fam)[0] == dense_check_H(tw, fam)
        assert check_S(tw, fam)[0] == dense_check_S(tw, fam)


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_subset_families_match_closure_predicates(data):
    """Full-corner families pass both checks exactly on the classical sets.

    On the weighted C3 and O2 towers, arbitrary label subsets are drawn
    as well, and the label checks must agree with the linear ones.
    """
    name = data.draw(st.sampled_from(sorted(CORPUS)))
    tw = unweighted_tower(name)
    g = tw.graph
    mask = data.draw(st.integers(0, 2 ** g.n_vertices - 1))
    subset = {g.vertices[v] for v in range(g.n_vertices) if mask >> v & 1}
    fam = family_of_subset(tw, subset)
    classical = frozenset(subset) in {
        hs.subset for hs in hereditary_saturated(g)
    }
    passes = check_H(tw, fam)[0] and check_S(tw, fam)[0]
    assert passes == classical

    tw = tower_of(data.draw(st.sampled_from(["C3w", "O2w"])))
    fam = _family(tw, data.draw(st.integers(0, 2 ** len(tw.labels) - 1)))
    assert check_H(tw, fam)[0] == dense_check_H(tw, fam)
    assert check_S(tw, fam)[0] == dense_check_S(tw, fam)


# families shaped for another tower than C3w, where every vertex has 5
# summands: too few vertices, too many, and one summand per vertex
MISFITS = {
    "two_vertices": ([{0}, {0}], [5, 5]),
    "four_vertices": ([{0}] * 4, [5] * 4),
    "one_summand_each": ([{0}] * 3, [1, 1, 1]),
}


@pytest.mark.parametrize("key", sorted(MISFITS))
def test_family_that_does_not_fit_the_tower_is_refused(c3w_tower, key):
    """Every family check names both shapes instead of misreading labels."""
    assert [len(c.dec.summands) for c in c3w_tower.corners.values()] == [5, 5, 5]
    fam = IdealFamily(*MISFITS[key])
    calls = (
        lambda: verify_fully_invariant(c3w_tower, fam, 1),
        lambda: build_fully_invariant(c3w_tower, fam, 1),
        lambda: check_H(c3w_tower, fam),
        lambda: check_S(c3w_tower, fam),
    )
    for call in calls:
        with pytest.raises(DomainError, match=r"\(5, 5, 5\)"):
            call()


def spy_transports(monkeypatch):
    """Record the pairs of every stacked tower._transport call, one list per call."""
    calls = []
    compute = tower._transport

    def counted(tw, pairs, messages):
        calls.append(list(pairs))
        return compute(tw, pairs, messages)

    monkeypatch.setattr(tower, "_transport", counted)
    return calls


def pair_class(g, pair):
    return (pair[0].source, g.range_of(pair[0]), len(pair[0]))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_fibers_are_the_shared_edge_transports(name, monkeypatch):
    """On p = 1 the fiber along e is pi_map(e, e), the same read-only matrix.

    A build and its lattice compute each path pair's transport once, in
    one stacked call per (source, range, length) class and caller: the
    build stacks the fibers of each class, and the lattice the parallel
    edge pairs of each class that the fibers leave.
    """
    calls = spy_transports(monkeypatch)
    g = CORPUS[name]
    tw = build_tower(g, WeightSpec.unweighted(g), TowerConfig(n_max=3))
    built = len(calls)
    enumerate_families(tw)
    computed = [pair for pairs in calls for pair in pairs]
    assert len(computed) == len(set(computed))
    assert all(len({pair_class(g, pair) for pair in pairs}) == 1 for pairs in calls)
    fibers = [(mu, mu) for mu in g.paths(1)]
    edge_pairs = [
        (Path((e,), g.esrc[e]), Path((f,), g.esrc[f]))
        for e, f in ideals._parallel_edge_pairs(g)
    ]
    assert set(computed) == set(fibers + edge_pairs)
    assert built == len({pair_class(g, pair) for pair in fibers})
    left = {pair_class(g, pair) for pair in edge_pairs if pair not in fibers}
    assert len(calls) - built == len(left)
    assert len(tw.fibers) == g.n_edges
    for mu, fib in zip(g.paths(1), tw.fibers):
        edge = g.edges[mu.edges[0]].name
        assert pi_map(tw, edge, edge) is fib
        assert not fib.flags.writeable
    assert [pair for pairs in calls for pair in pairs] == computed


def test_closure_o2_stacks_two_transport_classes(monkeypatch):
    """The closure-o2 tower and its lattice make two stacked calls: its
    four fibers (length 2) and its four parallel edge pairs (length 1)."""
    calls = spy_transports(monkeypatch)
    workloads = util.load_workloads()
    g = load_graph(json.dumps(workloads.corpus_docs()["O2"]))
    w = load_weights(json.dumps(workloads.o2_weights_doc(np.random.default_rng(1))), g)
    enumerate_families(build_tower(g, w, TowerConfig(n_max=1, M=6, W=2)))
    assert [len(pairs) for pairs in calls] == [4, 4]
    assert [len(pairs[0][0]) for pairs in calls] == [2, 1]


def _generic_theta():
    """Theta with the benchmark's generic p=2, N=1 draw of seed 1, M=6, W=2."""
    workloads = load_workloads()
    doc = workloads.corpus_docs()["theta"]
    g = load_graph(json.dumps(doc))
    wdoc = workloads.diagonal_weights_doc(doc, 2, 1, np.random.default_rng(1))
    cfg = TowerConfig(n_max=1, M=6, W=2)
    return build_tower(g, load_weights(json.dumps(wdoc), g), cfg)


def test_theta_verification_stays_within_its_memory_budget():
    """Family 1 and the full family of generic theta verify below 200 MB.

    The dense stacks of their verification took 575 MB and, on the full
    family, ended in a MemoryError; the stacks now carry their support.
    """
    tw = _generic_theta()
    lattice = enumerate_families(tw)
    for fam in (lattice.families[1], lattice.maximum):
        tracemalloc.start()
        try:
            report = verify_fully_invariant(tw, fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok, report.failures
        assert peak < 200e6, peak


def test_o2_block_full_family_verifies(monkeypatch):
    """The full family of the d = 4 tower verifies, its stacks counted first.

    Its dense stacks needed 640 MiB copies and ended in a MemoryError.
    Below the entry limit of a stack the verification is refused with a
    certified error naming the count, before anything is allocated.
    """
    tw = tower_of("O2block")
    fam = enumerate_families(tw).maximum
    report = verify_fully_invariant(tw, fam)
    assert report.ok, report.failures
    monkeypatch.setattr(ideals, "MAX_STACK_ENTRIES", 10_000)
    with pytest.raises(ProtocolError, match=r"would hold \d+ entries"):
        verify_fully_invariant(tw, fam)
