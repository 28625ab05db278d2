"""Core tower structure: corners, fibers, stage maps, Bratteli data."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from util import (
    O2_BLOCK,
    O2_BLOCK_D2,
    O2_BLOCK_N0,
    P2_BLOCK,
    THETA_BLOCK,
    adjacency,
    assert_matches_oracle,
    concrete_stage_algebra,
    corpus_graphs,
    cycle_weight_spec,
    dense_tau,
    dense_tau_inverse,
    diagonal_c0_generators,
    element,
    embedding_multiplicities,
    full_rows,
    load_workloads,
    looped_tau,
    looped_gathers,
    looped_tau_inverse,
    looped_transport,
    mkgraph,
    pairwise_fiber_multiplicities,
    projection_rank,
    projector_gap,
    random_diag_spec,
    stage_adjoint,
    stage_mul,
    stage_unit,
)
from wck import findim, graphs, ideals, tower
from wck.cycle_demo import build_cycle, demo_tower_config
from wck.errors import (
    DomainError,
    ElementError,
    GraphError,
    MultiplicityError,
    ProtocolError,
    WindowUnstableError,
)
from wck.findim import _enumerated_layout, blocks_vec, central_decomposition
from wck.graphs import Path, load_graph
from wck.ideals import _parallel_edge_pairs
from wck.tower import TowerConfig, build_C0, build_tower
from wck.weights import WeightSpec, from_dict, load_weights
from wck.windows import onb

RT_TOL = 1e-8

# weighted builds verified to stay inside the level-dimension guard;
# exponential-growth graphs need the tight explicit windows
WEIGHTED_CASES = [
    ("O2", 2, 1, 6, 2, [8], [32, 512]),
    ("G2", 2, 0, 6, 4, [2, 6], [14, 38]),
    ("G2", 3, 0, 9, 3, [3, 12], [39, 120]),
    ("P2", 2, 1, 6, 2, [4, 4], [20, 80]),
]

UNWEIGHTED_DIMS = {
    "O2": [1, 4, 16],
    "G2": [2, 5, 10],
    "C2": [2, 2, 2],
    "C3": [3, 3, 3],
    "C4": [4, 4, 4],
    "C5": [5, 5, 5],
    "P2": [2, 5, 8],
    "theta": [2, 8, 32],
    "C3chord": [3, 6, 9],
    "G3": [3, 9, 26],
    "chain13": [3, 6, 11],
}


@pytest.fixture(scope="module")
def c3_weighted(corpus):
    w = cycle_weight_spec(corpus["C3"], (2.0, 1.0, 3.0))
    return build_tower(corpus["C3"], w)


def roundtrip_dev(tw, n, rng):
    x = tw.stage_random(n, rng)
    blocks = tw.tau_inverse(n, x)
    back = tw.tau(n, blocks)
    return max(np.abs(back[v] - x[v]).max() for v in x)


def stage_render(tw, n, v, i):
    """Window blocks of the minimal central projection of summand (v, i)."""
    corner = tw.corners[v]
    z = corner.dec.summands[i].z
    x = tw.stage_zero(n)
    for a in range(tw.stages[n].counts[v]):
        x[v][a, a] = z
    return tw.tau_inverse(n, x)


def match_renders(tw_a, tw_b, n, tol=1e-9):
    """Pair stage-n central projections of two towers by window blocks.

    The projections are canonical operators, so towers built with
    different window or prefix choices must render the same set, up to
    a permutation of summand labels within each vertex.
    """
    lo = max(tw_a.M, tw_b.M)
    hi = min(tw_a.M + tw_a.W, tw_b.M + tw_b.W)
    assert lo < hi, "towers share no window levels"

    def restricted(tw, v, i):
        blocks = stage_render(tw, n, v, i)
        return np.concatenate(
            [blocks[k - tw.M].ravel() for k in range(lo, hi)]
        )

    for tw in (tw_a, tw_b):
        for v, i in tw.labels:
            # a render that vanishes on the shared levels matches anything
            assert np.linalg.norm(restricted(tw, v, i)) > 0.5, (
                "summand (%r, %d) renders to zero on levels [%d, %d)"
                % (v, i, lo, hi)
            )
    perm = {}
    for v, i in tw_a.labels:
        vec = restricted(tw_a, v, i)
        dists = [
            (np.linalg.norm(vec - restricted(tw_b, v, j)), j)
            for (w, j) in tw_b.labels
            if w == v
        ]
        best, j = min(dists)
        assert best <= tol, (
            "no matching projection for summand (%r, %d): %g" % (v, i, best)
        )
        perm[(v, i)] = (v, j)
    assert len(set(perm.values())) == len(perm)
    return perm


def permuted_multiplicity(tw_b, perm, labels_a):
    pos = {lab: k for k, lab in enumerate(tw_b.labels)}
    idx = [pos[perm[lab]] for lab in labels_a]
    return tw_b.multiplicity[np.ix_(idx, idx)]


class TestUnweightedCorpus:
    def test_multiplicity_matches_adjacency(self, corpus):
        for name, g in corpus.items():
            tw = build_tower(g, WeightSpec.unweighted(g))
            assert [c.r for c in tw.corners.values()] == [1] * g.n_vertices
            assert np.array_equal(tw.multiplicity, adjacency(g)), name
            assert tw.stage_dims() == UNWEIGHTED_DIMS[name], name

    def test_o2_summand_sizes_double(self, o2):
        tw = build_tower(o2, WeightSpec.unweighted(o2))
        for n in range(3):
            assert tw.stages[n].summand_sizes == [2 ** n]

    def test_g2_bratteli(self, g2):
        tw = build_tower(g2, WeightSpec.unweighted(g2))
        assert tw.multiplicity.tolist() == [[1, 0], [1, 1]]
        for n in range(3):
            assert tw.stages[n].summand_sizes == [n + 1, 1]

    def test_unweighted_roundtrips(self, o2, g2):
        rng = np.random.default_rng(5)
        for g in (o2, g2):
            tw = build_tower(g, WeightSpec.unweighted(g))
            for n in range(3):
                assert roundtrip_dev(tw, n, rng) <= RT_TOL


class TestWeightedCycle:
    def test_c0_dimension(self, c3_weighted):
        assert c3_weighted.C0.dim == 15

    def test_corner_dimensions(self, c3_weighted):
        assert [c.r for c in c3_weighted.corners.values()] == [5, 5, 5]

    def test_stage_dims_constant(self, c3_weighted):
        assert c3_weighted.stage_dims() == [15, 15, 15]
        for st in c3_weighted.stages:
            assert st.summand_sizes == [1] * 15

    def test_multiplicity_is_permutation(self, c3_weighted):
        m = c3_weighted.multiplicity
        assert m.shape == (15, 15)
        assert np.array_equal(m @ m.T, np.eye(15, dtype=int))

    def test_tau_roundtrip(self, c3_weighted):
        rng = np.random.default_rng(11)
        for n in range(3):
            assert roundtrip_dev(c3_weighted, n, rng) <= RT_TOL

    def test_restricted_pinv_is_numpy_pinv(self, c3_weighted, corpus):
        # the certificate, the pseudo-inverse and the span share one SVD;
        # the pseudo-inverse is the one np.linalg.pinv gives, and the span
        # is an orthonormal basis of the rows of mat; mat is the support
        # part of the columns, which are zero off it
        tw = c3_weighted
        for v, corner in tw.corners.items():
            for n in range(tw.config.n_max + 1):
                lo, hi = tw.M - n * tw.p, tw.M + tw.W - n * tw.p
                place = tw.placement(n, v)
                assert (place.lo, place.hi) == (lo, hi)
                mat, sup = place.mat, place.sup
                pinv, span = place.solver
                full = corner.columns(lo, hi)
                assert np.array_equal(full[:, sup], mat)
                assert not np.delete(full, sup, axis=1).any()
                ref = np.linalg.pinv(mat.T)
                assert np.linalg.norm(pinv - ref) <= 1e-12 * np.linalg.norm(ref)
                assert span.shape == (corner.r, mat.shape[1])
                assert np.linalg.norm(span @ span.conj().T - np.eye(corner.r)) <= 1e-12
                assert projector_gap(span, onb(mat)) <= 1e-12
        w = cycle_weight_spec(corpus["C3"], (2.0, 1.0, 3.0))
        refused = r"not faithful on levels \[6, 11\)"
        with pytest.raises(WindowUnstableError, match=refused):
            build_tower(corpus["C3"], w, TowerConfig(n_max=0))

    def test_psi_agrees_with_inclusion(self, c3_weighted):
        tw = c3_weighted
        rng = np.random.default_rng(2)
        for n in range(2):
            x = tw.stage_random(n, rng)
            lo = tw.tau_inverse(n, x)
            hi = tw.tau_inverse(n + 1, tw.psi(n, x))
            assert max(np.abs(a - b).max() for a, b in zip(lo, hi)) <= RT_TOL

    def test_psi_is_unital_star_homomorphism(self, c3_weighted):
        tw = c3_weighted
        rng = np.random.default_rng(3)
        x = tw.stage_random(0, rng)
        y = tw.stage_random(0, rng)

        lhs = tw.psi(0, stage_mul(tw, 0, x, y))
        rhs = stage_mul(tw, 1, tw.psi(0, x), tw.psi(0, y))
        assert max(np.abs(lhs[v] - rhs[v]).max() for v in lhs) <= RT_TOL

        lhs = tw.psi(0, stage_adjoint(tw, 0, x))
        rhs = stage_adjoint(tw, 1, tw.psi(0, x))
        assert max(np.abs(lhs[v] - rhs[v]).max() for v in lhs) <= RT_TOL

        lhs = tw.psi(0, stage_unit(tw, 0))
        rhs = stage_unit(tw, 1)
        assert max(np.abs(lhs[v] - rhs[v]).max() for v in lhs) <= RT_TOL

    def test_stage_unit_renders_to_identity(self, c3_weighted):
        tw = c3_weighted
        blocks = tw.tau_inverse(0, stage_unit(tw, 0))
        for off, blk in enumerate(blocks):
            d = tw.graph.level_dim(tw.M + off)
            assert np.abs(blk - np.eye(d)).max() <= RT_TOL

    def test_stage_dimension_formula(self, c3_weighted):
        tw = c3_weighted
        for st in tw.stages:
            total = sum(
                st.counts[v] ** 2 * tw.corners[v].r for v in st.counts
            )
            assert st.dim == total

    def test_concrete_stages_confirm_multiplicity(self, c3_weighted):
        tw = c3_weighted
        a0 = concrete_stage_algebra(tw, 0)
        a1 = concrete_stage_algebra(tw, 1)
        assert a0.dim == 15 and a1.dim == 15
        dec0 = central_decomposition(a0)
        dec1 = central_decomposition(a1)
        assert_matches_oracle(dec0)
        assert_matches_oracle(dec1)
        m = embedding_multiplicities(dec0, dec1, lambda blocks: blocks)

        def match(dec, n):
            idx = []
            for sm in dec.summands:
                vec = blocks_vec(element(dec.algebra, sm.z))
                dists = []
                for k, (v, i) in enumerate(tw.labels):
                    ren = stage_render(tw, n, v, i)
                    rvec = np.concatenate([b.ravel() for b in ren])
                    dists.append((np.linalg.norm(vec - rvec), k))
                best, k = min(dists)
                assert best <= 1e-6
                idx.append(k)
            return idx

        rows = match(dec0, 0)
        cols = match(dec1, 1)
        assert np.array_equal(m, tw.multiplicity[np.ix_(rows, cols)])


class TestWeightedWindows:
    @pytest.mark.parametrize(
        "name, p, N, M, W, corners, dims", WEIGHTED_CASES
    )
    def test_tight_window_builds(self, corpus, name, p, N, M, W,
                                 corners, dims):
        g = corpus[name]
        w = random_diag_spec(g, p, N, np.random.default_rng(7))
        tw = build_tower(g, w, TowerConfig(n_max=1, M=M, W=W))
        assert [c.r for c in tw.corners.values()] == corners
        assert tw.stage_dims() == dims
        rng = np.random.default_rng(1)
        assert roundtrip_dev(tw, 0, rng) <= RT_TOL
        x = tw.stage_random(0, rng)
        lo = tw.tau_inverse(0, x)
        hi = tw.tau_inverse(1, tw.psi(0, x))
        assert max(np.abs(a - b).max() for a, b in zip(lo, hi)) <= RT_TOL


class TestChoiceInvariance:
    def test_xi_choice_o2(self, corpus):
        g = corpus["O2"]
        w = random_diag_spec(g, 2, 1, np.random.default_rng(7))
        cfg = dict(n_max=1, M=6, W=2)
        ta = build_tower(g, w, TowerConfig(**cfg))
        tb = build_tower(g, w, TowerConfig(xi_choice="max", **cfg))
        assert ta.stage_dims() == tb.stage_dims()
        perm = match_renders(ta, tb, 0)
        assert np.array_equal(
            ta.multiplicity, permuted_multiplicity(tb, perm, ta.labels)
        )

    def test_xi_choice_g2(self, corpus):
        g = corpus["G2"]
        w = random_diag_spec(g, 2, 0, np.random.default_rng(7))
        cfg = dict(n_max=1, M=6, W=4)
        ta = build_tower(g, w, TowerConfig(**cfg))
        tb = build_tower(g, w, TowerConfig(xi_choice="max", **cfg))
        assert ta.stage_dims() == tb.stage_dims()
        perm = match_renders(ta, tb, 0)
        assert np.array_equal(
            ta.multiplicity, permuted_multiplicity(tb, perm, ta.labels)
        )

    @pytest.mark.parametrize(
        "name, p, N, M, Wa, Wb",
        [("C3", 2, 0, 11, 8, 6), ("P2", 2, 1, 6, 4, 2), ("G2", 3, 0, 9, 6, 3)],
    )
    def test_window_shift_by_period(self, corpus, name, p, N, M, Wa, Wb):
        g = corpus[name]
        if name == "C3":
            w = cycle_weight_spec(g, (2.0, 1.0, 3.0))
        else:
            w = random_diag_spec(g, p, N, np.random.default_rng(7))
        ta = build_tower(g, w, TowerConfig(n_max=1, M=M, W=Wa))
        tb = build_tower(g, w, TowerConfig(n_max=1, M=M + p, W=Wb))
        assert ta.stage_dims() == tb.stage_dims()
        perm = match_renders(ta, tb, 0)
        assert np.array_equal(
            ta.multiplicity, permuted_multiplicity(tb, perm, ta.labels)
        )


# calls with a stage index, a stage cap or a summand index that is not
# an int in range, on the C3w tower (n_max = 2) with its stage-0 zero x
# and the full family on its first vertex
BAD_INDEX_CALLS = {
    "tau_inverse(5)": lambda tw, x, fam: tw.tau_inverse(5, x),
    "tau_inverse(-1)": lambda tw, x, fam: tw.tau_inverse(-1, x),
    "tau_inverse(True)": lambda tw, x, fam: tw.tau_inverse(True, x),
    "tau(-1)": lambda tw, x, fam: tw.tau(-1, tw.tau_inverse(0, x)),
    "tau(3)": lambda tw, x, fam: tw.tau(3, tw.tau_inverse(0, x)),
    "tau(1.0)": lambda tw, x, fam: tw.tau(1.0, tw.tau_inverse(0, x)),
    "psi(-1)": lambda tw, x, fam: tw.psi(-1, x),
    "psi(2)": lambda tw, x, fam: tw.psi(2, x),
    "psi(False)": lambda tw, x, fam: tw.psi(False, x),
    "stage_unvec(-1)": lambda tw, x, fam: tw.stage_unvec(-1, tw.stage_vec(0, x)),
    "stage_unvec(3)": lambda tw, x, fam: tw.stage_unvec(3, tw.stage_vec(0, x)),
    "stage_unvec('0')": lambda tw, x, fam: tw.stage_unvec("0", tw.stage_vec(0, x)),
    "n_cap=2.7": lambda tw, x, fam: ideals.verify_fully_invariant(tw, fam, 2.7),
    "n_cap=True": lambda tw, x, fam: ideals.verify_fully_invariant(tw, fam, True),
    "n_cap='2'": lambda tw, x, fam: ideals.verify_fully_invariant(tw, fam, "2"),
    "n_cap='abc'": lambda tw, x, fam: ideals.verify_fully_invariant(tw, fam, "abc"),
    "n_cap=0": lambda tw, x, fam: ideals.verify_fully_invariant(tw, fam, 0),
    "n_cap=3": lambda tw, x, fam: ideals.verify_fully_invariant(tw, fam, 3),
    "ideal stage -1": lambda tw, x, fam: ideals.build_fully_invariant(tw, fam, -1),
    "summands {'a'}": lambda tw, x, fam: ideals.ideal_subspace(tw, 0, {"a"}),
    "summands 3": lambda tw, x, fam: ideals.ideal_subspace(tw, 0, 3),
    "summands {1, 'a'}": lambda tw, x, fam: ideals.ideal_subspace(tw, 0, {1, "a"}),
    "summands {True}": lambda tw, x, fam: ideals.ideal_subspace(tw, 0, {True}),
    "summands {-1}": lambda tw, x, fam: ideals.ideal_subspace(tw, 0, {-1}),
    "summands {5}": lambda tw, x, fam: ideals.ideal_subspace(tw, 0, {5}),
    "family {'a'}": lambda tw, x, fam: ideals.IdealFamily([{"a"}, (), ()], [5, 5, 5]),
}


# stage-element helpers called with a stage index out of range or not an
# int, on unweighted C3chord at n_max = 2 with its stage-0 zero x
STAGE_INDEX_CALLS = {
    "block_shapes(-1)": lambda tw, x: tw.block_shapes(-1),
    "stage_zero(3)": lambda tw, x: tw.stage_zero(3),
    "stage_random(3)": lambda tw, x: tw.stage_random(3, np.random.default_rng(0)),
    "stage_zero(1.0)": lambda tw, x: tw.stage_zero(1.0),
    "stage_vec(-1)": lambda tw, x: tw.stage_vec(-1, x),
}


@pytest.fixture(scope="module")
def c3chord_tower(corpus):
    g = corpus["C3chord"]
    return build_tower(g, WeightSpec.unweighted(g), TowerConfig(n_max=2))


@pytest.mark.parametrize("call", STAGE_INDEX_CALLS.values(), ids=list(STAGE_INDEX_CALLS))
def test_stage_index_is_checked_first(c3chord_tower, call):
    tw = c3chord_tower
    with pytest.raises(DomainError, match="the stage must be an int in \\[0, 2\\]"):
        call(tw, tw.stage_zero(0))


class TestGuards:
    def test_source_or_sink_rejected(self):
        g = mkgraph(["v1", "v2"], [("e", "v1", "v2"), ("f", "v2", "v2")])
        with pytest.raises(GraphError):
            build_tower(g, WeightSpec.unweighted(g))

    def test_level_dimension_guard(self):
        # fresh graphs: the refusal must come before any level above the
        # guard is enumerated into the path caches
        guard = graphs.MAX_LEVEL_DIM
        for name in ("O2", "theta"):
            g = corpus_graphs()[name]
            w = random_diag_spec(g, 2, 1, np.random.default_rng(7))
            with pytest.raises(WindowUnstableError, match="exceeds the guard"):
                build_tower(g, w)
            built = set(g._paths) | set(g._levels)
            assert all(g.level_dim(k) <= guard for k in built), name

    def test_window_too_low(self, corpus):
        g = corpus["C3"]
        w = cycle_weight_spec(g, (2.0, 1.0, 3.0))
        with pytest.raises(GraphError):
            build_tower(g, w, TowerConfig(n_max=2, M=4, W=2))

    @pytest.mark.parametrize(
        "name, p, W, shallow, deep, levels",
        [("G2", 3, 3, 8, 9, "[3, 11)"), ("theta", 2, 2, 4, 5, "[1, 6)")],
        ids=["G2", "theta"],
    )
    def test_shallow_window_is_named_in_the_refusal(
        self, name, p, W, shallow, deep, levels
    ):
        # one level below the deep window no summand of the top corner
        # receives a connecting edge; the refusal names the window
        g = corpus_graphs()[name]
        w = random_diag_spec(g, p, 0, np.random.default_rng(1))
        message = "window levels %s (M=%d, W=%d)" % (levels, shallow, W)
        with pytest.raises(MultiplicityError, match=re.escape(message)) as info:
            build_tower(g, w, TowerConfig(n_max=1, M=shallow, W=W))
        assert info.value.exit_code == 2
        tw = build_tower(g, w, TowerConfig(n_max=1, M=deep, W=W))
        assert (tw.M, tw.W) == (deep, W)

    def test_build_C0_level_below_period(self, corpus):
        g = corpus["C3"]
        w = cycle_weight_spec(g, (2.0, 1.0, 3.0), p=3)
        with pytest.raises(GraphError, match="p - 1"):
            build_C0(g, w, [1, 2, 3])

    def test_stage_beyond_tower(self, c3_weighted):
        tw = c3_weighted
        x = tw.stage_zero(tw.config.n_max)
        with pytest.raises(DomainError):
            tw.psi(tw.config.n_max, x)

    @pytest.mark.parametrize(
        "call", BAD_INDEX_CALLS.values(), ids=list(BAD_INDEX_CALLS)
    )
    def test_bad_indices_raise_domain_error(self, c3_weighted, call):
        """Stage indices, stage caps and summand indices are ints in range."""
        tw = c3_weighted
        assert tw.config.n_max == 2
        fam = ideals.family_of_subset(tw, {tw.graph.vertices[0]})
        with pytest.raises(DomainError):
            call(tw, tw.stage_zero(0), fam)

    def test_corrupted_window_data_detected(self, c3_weighted):
        # tau certifies the entries it gathers, so the corruption has to
        # push the read data out of the corner spans; generic dense noise
        # does that, while special single entries can stay in-span
        tw = c3_weighted
        rng = np.random.default_rng(9)
        blocks = tw.tau_inverse(0, tw.stage_random(0, rng))
        noise = rng.normal(size=blocks[0].shape) + 1j * rng.normal(
            size=blocks[0].shape
        )
        blocks[0] = blocks[0] + 1e-3 * (noise + noise.conj().T)
        with pytest.raises(WindowUnstableError):
            tw.tau(0, blocks)


class TestExports:
    def test_bratteli_json(self, c3_weighted):
        doc = c3_weighted.bratteli_json()
        assert len(doc["labels"]) == 15
        assert len(doc["multiplicity"]) == 15
        assert len(doc["stages"]) == 3
        assert doc["stages"][0]["dim"] == 15

    def test_bratteli_dot(self, c3_weighted):
        dot = c3_weighted.bratteli_dot()
        assert dot.startswith("digraph")
        assert "->" in dot


# -- stacked fiber multiplicities against the per-pair loop --------------------


def fiber_tower(corpus, key):
    if key == "C3chord:generic":
        g = corpus["C3chord"]
        w = random_diag_spec(g, 2, 1, np.random.default_rng(1))
        return build_tower(g, w, TowerConfig(n_max=1))
    if key in corpus:
        g = corpus[key]
        return build_tower(g, WeightSpec.unweighted(g), TowerConfig(n_max=3))
    if key == "C3w":
        g = corpus["C3"]
        return build_tower(g, cycle_weight_spec(g, (2.0, 1.0, 3.0)))
    if key == "O2w":
        g = corpus["O2"]
        w = random_diag_spec(g, 2, 1, np.random.default_rng(7))
        return build_tower(g, w, TowerConfig(n_max=1, M=6, W=2))
    if key == "O2block":
        g = corpus["O2"]
        return build_tower(g, from_dict(O2_BLOCK, g), TowerConfig(n_max=1, M=6, W=2))
    if key in ("O2block:N0", "O2block:d2"):
        g = corpus["O2"]
        spec = O2_BLOCK_N0 if key == "O2block:N0" else O2_BLOCK_D2
        return build_tower(g, from_dict(spec, g), TowerConfig(n_max=1, M=6, W=2))
    if key == "P2block":
        g = corpus["P2"]
        return build_tower(g, from_dict(P2_BLOCK, g), TowerConfig(n_max=1, M=6, W=2))
    if key == "THETA_BLOCK":
        g = corpus["theta"]
        w = from_dict(THETA_BLOCK, g)
        return build_tower(g, w, TowerConfig(n_max=1, M=7, W=2))
    if key.startswith("G3:"):
        g = corpus["G3"]
        w = random_diag_spec(g, 2, 1, np.random.default_rng(int(key[3:])))
        return build_tower(g, w, TowerConfig(n_max=1, M=9, W=3))
    g = corpus["G2"]
    w = random_diag_spec(g, 3, 0, np.random.default_rng(1))
    return build_tower(g, w, TowerConfig(n_max=1, M=9, W=3))


@pytest.mark.parametrize("key", ["C3w", "G2", "G2p3"])
def test_bratteli_dot_draws_the_diagram(corpus, key):
    """One node per (stage, label), one edge per nonzero multiplicity
    between consecutive stages, labelled exactly where it is above 1."""
    tw = fiber_tower(corpus, key)
    dot = tw.bratteli_dot()
    nodes = re.findall(
        r'^    "s(\d+)_(\d+)" \[label="([^:"]+):(\d+)\\nM_(\d+)"\];$', dot, re.M
    )
    assert nodes == [
        (str(n), str(li), tw.graph.vertices[v], str(i), str(st.summand_sizes[li]))
        for n, st in enumerate(tw.stages)
        for li, (v, i) in enumerate(tw.labels)
    ]
    edges = re.findall(
        r'^  "s(\d+)_(\d+)" -> "s(\d+)_(\d+)"(?: \[label="(\d+)"\])?;$', dot, re.M
    )
    mult = tw.multiplicity
    assert sorted(edges) == sorted(
        (str(n), str(a), str(n + 1), str(b), str(mult[a, b]) if mult[a, b] > 1 else "")
        for n in range(len(tw.stages) - 1)
        for a, b in zip(*np.nonzero(mult))
    )
    if key == "G2p3":
        assert any(m for *_, m in edges)
    # nothing else: the header, a rank group per stage, the edges, the close
    per_stage = 2 + len(tw.labels)
    assert dot.count("\n") == 3 + len(tw.stages) * per_stage + len(edges)


# towers whose integers are read off traces, checked against numerical ranks
TRACE_KEYS = sorted(UNWEIGHTED_DIMS) + [
    "C3w",
    "O2w",
    "G2p3",
    "C3chord:generic",
    "THETA_BLOCK",
    "G3:1",
    "G3:2",
    "G3:15",
    "O2block",
    "O2block:N0",
    "O2block:d2",
    "P2block",
]

# the towers whose C0 takes the general route of star_closure
GENERAL_ROUTE_KEYS = ["THETA_BLOCK", "O2block:N0", "O2block:d2", "P2block"]


def fiber_multiplicities(tw, mu, fib):
    """tower._fiber_multiplicities of one fiber, a stack of one; a failure raises."""
    (got,) = tower._fiber_multiplicities(tw, [mu], fib[None])
    if isinstance(got, Exception):
        raise got
    return got


def path_class(tw, a):
    return (a.source, tw.graph.range_of(a), len(a))


@pytest.mark.parametrize("key", TRACE_KEYS)
def test_fiber_multiplicities_match_pairwise_loop(corpus, key):
    """Each class's stacked blocks against the per-summand-pair loop."""
    tw = fiber_tower(corpus, key)
    classes = {}
    for mu, fib in zip(tw.graph.paths(tw.p), tw.fibers):
        classes.setdefault(path_class(tw, mu), []).append((mu, fib))
    for members in classes.values():
        mus = [mu for mu, _ in members]
        got = tower._fiber_multiplicities(tw, mus, np.stack([f for _, f in members]))
        for block, (mu, fib) in zip(got, members):
            assert np.array_equal(block, pairwise_fiber_multiplicities(tw, mu, fib))


@pytest.mark.parametrize("key", TRACE_KEYS)
def test_summand_sizes_match_svd_ranks(corpus, key):
    """d^2 and the ambient rank of each summand against SVD ranks.

    The decomposition reads both off traces; the ranks are those of the
    map x -> z x on coordinates and of the rendered central projection.
    """
    tw = fiber_tower(corpus, key)
    for corner in tw.corners.values():
        for sm in corner.dec.summands:
            assert sm.d ** 2 == projection_rank(np.einsum("i,ijk->kj", sm.z, corner.T))
            blocks = corner.algebra.render(sm.z)
            assert sm.ambient_rank == sum(projection_rank(b) for b in blocks)


@pytest.mark.parametrize(
    "key",
    sorted(UNWEIGHTED_DIMS)
    + ["C3w", "O2w", "G2p3", "C3chord:generic", "O2block", "O2block:N0", "O2block:d2"],
)
def test_corner_decompositions_match_oracle(corpus, key):
    tw = fiber_tower(corpus, key)
    for corner in tw.corners.values():
        assert_matches_oracle(corner.dec)


def transport_pairs(tw):
    """The fiber pairs (mu, mu) and the pairs of parallel edges."""
    g = tw.graph
    pairs = [(mu, mu) for mu in g.paths(tw.p)]
    for e, f in _parallel_edge_pairs(g):
        pairs.append((Path((e,), g.esrc[e]), Path((f,), g.esrc[f])))
    return pairs


@pytest.mark.parametrize(
    "key",
    sorted(UNWEIGHTED_DIMS) + ["C3w", "O2w", "G2p3", "O2block"] + GENERAL_ROUTE_KEYS,
)
def test_window_gathers_match_looped_oracles(corpus, key):
    """transport, tau_inverse and tau against their per-element loops."""
    tw = fiber_tower(corpus, key)
    for a, b in transport_pairs(tw):
        got = tw.transport(a, b, "transport left the corner")
        assert np.abs(got - looped_transport(tw, a, b)).max() <= 1e-12
    rng = np.random.default_rng(4)
    for n in range(tw.config.n_max + 1):
        x = tw.stage_random(n, rng)
        ref = looped_tau_inverse(tw, n, x)
        got = tw.tau_inverse(n, x)
        assert max(np.abs(a - b).max() for a, b in zip(got, ref)) <= 1e-12
        got, ref = tw.tau(n, ref), looped_tau(tw, n, ref)
        assert max(np.abs(got[v] - ref[v]).max() for v in got) <= 1e-12


@pytest.mark.parametrize("key", TRACE_KEYS)
def test_support_stage_maps_match_dense_oracle(corpus, key):
    """tau_inverse and tau on the corner support against the full window.

    The oracle renders through the (m, m, L) window index and solves on
    all columns; renders and coordinates agree within 1e-12 at every
    stage.
    """
    tw = fiber_tower(corpus, key)
    rng = np.random.default_rng(6)
    for n in range(tw.config.n_max + 1):
        x = tw.stage_random(n, rng)
        got, ref = tw.tau_inverse(n, x), dense_tau_inverse(tw, n, x)
        assert max(np.abs(a - b).max() for a, b in zip(got, ref)) <= 1e-12
        got, ref = tw.tau(n, ref), dense_tau(tw, n, ref)
        assert max(np.abs(got[v] - ref[v]).max() for v in got) <= 1e-12


@pytest.mark.parametrize("key", ["C3", "theta", "G2"])
def test_entry_between_two_vertices_is_refused(corpus, key):
    """tau certifies the window entries between the rows of two vertices.

    A stage-1 render with one entry of 1e3 placed between the first rows
    of vertices 0 and 1, at the first window level, is refused.
    """
    tw = fiber_tower(corpus, key)
    x = tw.stage_random(1, np.random.default_rng(0))
    blocks = tw.tau_inverse(1, x)
    assert max(np.abs(tw.tau(1, blocks)[v] - x[v]).max() for v in x) <= RT_TOL
    r0, r1 = tw.placement(1, 0).rows[0], tw.placement(1, 1).rows[0]
    blocks[0][r0[0, 0], r1[0, 0]] = 1e3
    with pytest.raises(WindowUnstableError, match="between the rows of two vertices"):
        tw.tau(1, blocks)


def test_off_support_entry_is_refused_on_both_routes(corpus):
    """An entry off the corner support, inside a compressed entry, is seen.

    On unweighted theta the corner support is the slot diagonal; entry
    (0, 1) of the slot block of stage-2 block entry (0, 0) is off it.
    """
    tw = fiber_tower(corpus, "theta")
    place = tw.placement(2, 0)
    assert place.lo == tw.M - 2 * tw.p
    assert 1 not in place.levels[2]
    lo = tw.tau_inverse(2, tw.stage_random(2, np.random.default_rng(8)))
    r = place.rows[2]
    lo[2][r[0, 0], r[0, 1]] += 1e-3
    for route in (tw.tau, lambda n, blocks: dense_tau(tw, n, blocks)):
        with pytest.raises(WindowUnstableError, match="does not lie in the stage-2"):
            route(2, lo)


# a non-finite or non-numeric value in a stage-1 window block of unweighted
# C3, at the first row of vertex 0 on the first window level: on its slot
# diagonal (a support entry) or between the rows of vertices 0 and 1
NOT_FINITE = {"nan": np.nan, "inf": np.inf, "object": "a"}


@pytest.mark.parametrize("where", ["support", "off the support"])
@pytest.mark.parametrize("value", sorted(NOT_FINITE))
def test_tau_refuses_blocks_that_are_not_finite_numbers(corpus, value, where):
    tw = build_tower(corpus["C3"], WeightSpec.unweighted(corpus["C3"]),
                     TowerConfig(n_max=1))
    blocks = tw.tau_inverse(1, tw.stage_random(1, np.random.default_rng(4)))
    r0, r1 = tw.placement(1, 0).rows[0], tw.placement(1, 1).rows[0]
    col = r0[0, 0] if where == "support" else r1[0, 0]
    if value == "object":
        blocks[0] = blocks[0].astype(object)
    blocks[0][r0[0, 0], col] = NOT_FINITE[value]
    with pytest.raises(ElementError, match="stage-1 window blocks"):
        tw.tau(1, blocks)


def test_o2_block_corners_are_noncommutative(corpus):
    """O2 with block weights: two summands of size 4 on one vertex.

    Stage sizes are counts times d, and the fibers join each summand to
    itself 4 times; round trips and the inclusion hold on the window.
    """
    tw = fiber_tower(corpus, "O2block")
    assert tw.C0.rows is None
    assert tw.stage_dims() == [128, 2048]
    assert [sm.d for sm in tw.corners[0].dec.summands] == [4, 4]
    assert tw.multiplicity.tolist() == [[4, 0], [0, 4]]
    assert [st.summand_sizes for st in tw.stages] == [[8, 8], [32, 32]]
    rng = np.random.default_rng(12)
    for n in range(2):
        assert roundtrip_dev(tw, n, rng) <= RT_TOL
    x = tw.stage_random(0, rng)
    lo, hi = tw.tau_inverse(0, x), tw.tau_inverse(1, tw.psi(0, x))
    assert max(np.abs(a - b).max() for a, b in zip(lo, hi)) <= RT_TOL


def traced_peak(call):
    """The result of call() and the peak of the memory traced during it."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stage_maps_stay_within_their_memory_budget(corpus):
    """On unweighted theta, n_max=3, the stage maps allocate no window copy.

    After one warm-up call per stage, which fills the per-(n, v) and
    per-level index caches, tau's traced peak stays below the bytes of one
    window render (5.5 MB), and tau_inverse's below 1.2 times the blocks
    it returns.
    """
    tw = fiber_tower(corpus, "theta")
    rng = np.random.default_rng(10)
    for n in range(tw.config.n_max + 1):
        x = tw.stage_random(n, rng)
        tw.tau(n, tw.tau_inverse(n, x))
        blocks, peak = traced_peak(lambda: tw.tau_inverse(n, x))
        render = sum(b.nbytes for b in blocks)
        assert render > 5e6
        assert peak < 1.2 * render, (n, peak, render)
        _, peak = traced_peak(lambda: tw.tau(n, blocks))
        assert peak < render, (n, peak, render)


# malformed stage elements and window blocks on unweighted theta
# (n_max = 3, stage dims 2, 8, 32, 128); x0 is a stage-0 element
BAD_SHAPE_CALLS = {
    "stage_unvec(1, 100 entries)": lambda tw, x0: tw.stage_unvec(1, np.zeros(100)),
    "psi(1, stage-0 element)": lambda tw, x0: tw.psi(1, x0),
    "psi(0, list)": lambda tw, x0: tw.psi(0, list(x0.values())),
    "tau_inverse(0, vertex missing)": lambda tw, x0: tw.tau_inverse(0, {0: x0[0]}),
    "tau_inverse(0, leading axes differ)": lambda tw, x0: tw.tau_inverse(
        0, {0: x0[0], 1: np.stack([x0[1]] * 2)}
    ),
    "tau(0, one level short)": lambda tw, x0: tw.tau(0, tw.tau_inverse(0, x0)[:-1]),
    "tau(0, wrong block sizes)": lambda tw, x0: tw.tau(
        0, [b[:-1] for b in tw.tau_inverse(0, x0)]
    ),
    "tau(0, stacked blocks)": lambda tw, x0: tw.tau(
        0, tw.tau_inverse(0, {v: b[None] for v, b in x0.items()})
    ),
    "tau(0, dict)": lambda tw, x0: tw.tau(0, dict(enumerate(tw.tau_inverse(0, x0)))),
}


@pytest.mark.parametrize("call", BAD_SHAPE_CALLS.values(), ids=list(BAD_SHAPE_CALLS))
def test_malformed_stage_data_is_refused(corpus, call):
    """Stage elements and window blocks of the wrong shape raise ElementError.

    The message names the shapes the stage expects.
    """
    tw = fiber_tower(corpus, "theta")
    assert tw.stage_dims() == [2, 8, 32, 128]
    with pytest.raises(ElementError, match=r"must (end in|have) the shapes") as info:
        call(tw, tw.stage_zero(0))
    assert isinstance(info.value, DomainError)


def test_short_stage_vector_names_the_stage_dimension(corpus):
    tw = fiber_tower(corpus, "theta")
    with pytest.raises(ElementError, match=re.escape("shapes [(8,)], got [(100,)]")):
        tw.stage_unvec(1, np.zeros(100))
    with pytest.raises(ElementError, match=re.escape("{0: (2, 2, 1), 1: (2, 2, 1)}")):
        tw.tau_inverse(1, tw.stage_zero(0))


@pytest.mark.parametrize("key", ["C3w", "O2w", "G2p3", "G2", "theta", "chain13"])
def test_stacked_stage_maps_match_single_calls(corpus, key):
    """psi and tau_inverse on a stack of 5 elements, element by element."""
    tw = fiber_tower(corpus, key)
    rng = np.random.default_rng(5)
    for n in range(tw.config.n_max + 1):
        xs = [tw.stage_random(n, rng) for _ in range(5)]
        stack = tw.stage_unvec(n, np.array([tw.stage_vec(n, x) for x in xs]))
        got = tw.tau_inverse(n, stack)
        for i, x in enumerate(xs):
            ref = tw.tau_inverse(n, x)
            assert max(np.abs(a[i] - b).max() for a, b in zip(got, ref)) <= 1e-12
        if n < tw.config.n_max:
            got = tw.stage_vec(n + 1, tw.psi(n, stack))
            ref = [tw.stage_vec(n + 1, tw.psi(n, x)) for x in xs]
            assert np.abs(got - np.array(ref)).max() <= 1e-12


def test_g3_generic_draws_agree():
    """G3 with the benchmark's p=2, N=1 weight draws, default window.

    All 8 resamples of a randomized central decomposition failed on draw
    15; the deterministic one builds it, with the diagram of draw 1.
    """
    workloads = load_workloads()
    doc = workloads.corpus_docs()["G3"]
    g = load_graph(json.dumps(doc))

    def bratteli(draw):
        wdoc = workloads.diagonal_weights_doc(doc, 2, 1, np.random.default_rng(draw))
        return build_tower(g, load_weights(json.dumps(wdoc), g)).bratteli_json()

    assert bratteli(15) == bratteli(1)


def bench_draw(name, draw):
    """Tower of one draw of the lattice-g2p3 or closure-o2-uniform workload."""
    workloads = load_workloads()
    graph, p, N, cfg = {
        "lattice-g2p3": ("G2", 3, 0, TowerConfig(n_max=1, M=9, W=3)),
        "closure-o2-uniform": ("O2", 2, 1, TowerConfig(n_max=1, M=6, W=2)),
    }[name]
    doc = workloads.corpus_docs()[graph]
    g = load_graph(json.dumps(doc))
    wdoc = workloads.diagonal_weights_doc(doc, p, N, np.random.default_rng(draw))
    return build_tower(g, load_weights(json.dumps(wdoc), g), cfg)


# Corners compressed the unit-scaled candidate basis of C0, badly
# conditioned enough that the corner onb dropped a true direction on
# these draws ("corner basis is not closed under products"); they
# compress the orthonormal rows of C0 now.


def test_formerly_failing_g2p3_draw_builds_and_verifies():
    tw = bench_draw("lattice-g2p3", 24)
    assert tw.bratteli_json() == bench_draw("lattice-g2p3", 1).bratteli_json()
    lattice = ideals.enumerate_families(tw)
    for fam in lattice.families:
        assert ideals.verify_fully_invariant(tw, fam, n_cap=1).ok


def test_formerly_failing_uniform_o2_draw_builds():
    tw = bench_draw("closure-o2-uniform", 664086002)
    ref = bench_draw("closure-o2-uniform", 1)
    assert tw.bratteli_json() == ref.bratteli_json()


@pytest.mark.parametrize("key", ["C3w", "THETA_BLOCK"])
def test_scaled_fiber_is_rejected(corpus, key):
    """Twice a fiber sends the z_i, and the f_i of the oracle, to 2 y_i."""
    tw = fiber_tower(corpus, key)
    mu, fib = tw.graph.paths(tw.p)[0], 2 * tw.fibers[0]
    path = re.escape(tw.graph.path_str(mu))
    with pytest.raises(MultiplicityError, match="along %s .*central" % path):
        fiber_multiplicities(tw, mu, fib)
    with pytest.raises(MultiplicityError, match="along %s " % path):
        pairwise_fiber_multiplicities(tw, mu, fib)


def test_doubled_ambient_rank_breaks_fiber_integrality(c3_weighted, monkeypatch):
    """Doubling a summand's ambient rank halves the multiplicities into it."""
    tw = c3_weighted
    mu, fib = tw.graph.paths(tw.p)[0], tw.fibers[0]
    block = fiber_multiplicities(tw, mu, fib)
    j = np.flatnonzero(block.any(axis=0))[0]
    assert block[:, j].max() == 1
    sm = tw.corners[tw.graph.source_of(mu)].dec.summands[j]
    monkeypatch.setattr(sm, "ambient_rank", 2 * sm.ambient_rank)
    with pytest.raises(MultiplicityError, match="not integers"):
        fiber_multiplicities(tw, mu, fib)


def test_doubled_connecting_maps_fail_the_stage_sizes(corpus, monkeypatch):
    stacked = tower._fiber_multiplicities
    monkeypatch.setattr(
        tower,
        "_fiber_multiplicities",
        lambda tw, mus, fibs: [2 * m for m in stacked(tw, mus, fibs)],
    )
    g = corpus["C3"]
    with pytest.raises(MultiplicityError, match="connecting maps give"):
        build_tower(g, cycle_weight_spec(g, (2.0, 1.0, 3.0)), TowerConfig(n_max=1))


# -- corners read off C0's matrix units against the numerical route -------------


def closure_o2_tower(seed=1):
    """The closure-o2 benchmark tower: O2 near the fixed point, M=6, W=2."""
    workloads = load_workloads()
    g = load_graph(json.dumps(workloads.corpus_docs()["O2"]))
    wdoc = workloads.o2_weights_doc(np.random.default_rng(seed))
    return build_tower(g, load_weights(json.dumps(wdoc), g), TowerConfig(n_max=1, M=6, W=2))


def route_tower(corpus, key):
    """A tower whose C0 is the closed form of star_closure."""
    if key == "closure-o2":
        return closure_o2_tower()
    if key.startswith("generic:"):
        g = corpus[key[8:]]
        w = random_diag_spec(g, 2, 1, np.random.default_rng(7))
        if key[8:] in ("O2", "theta"):
            return build_tower(g, w, TowerConfig(n_max=1, M=6, W=2))
        return build_tower(g, w, TowerConfig(n_max=1))
    if key.startswith("unweighted:"):
        g = corpus[key[11:]]
        return build_tower(g, WeightSpec.unweighted(g))
    return fiber_tower(corpus, key)


# C5 with generic weights is refused ("not faithful") on both routes
MAP_ROUTE_KEYS = (
    ["unweighted:" + name for name in sorted(UNWEIGHTED_DIMS)]
    + ["generic:" + name for name in sorted(UNWEIGHTED_DIMS) if name != "C5"]
    + ["C3w", "G2p3", "G3:1", "G3:2", "G3:15"]
)


def drop_the_map(monkeypatch):
    """Make Tower build its C0 with the closed form's unit rows marked general.

    The corners then orthonormalize their kept rows and are decomposed
    numerically, and the transports carry general rows.
    """
    build = tower.build_C0

    def general(*args):
        C0 = build(*args)
        C0.rows = np.eye(C0.dim, dtype=np.complex128)
        return C0

    monkeypatch.setattr(tower, "build_C0", general)


# every tower whose corners are read off C0's matrix units
CLOSED_FORM_KEYS = MAP_ROUTE_KEYS + ["O2block", "closure-o2"]


def rendered(corner, coords):
    return blocks_vec(corner.algebra.render(coords))


@pytest.mark.parametrize("key", CLOSED_FORM_KEYS)
def test_map_route_corners_match_the_numerical_route(corpus, key, monkeypatch):
    """Corners, decompositions, transports and lattices of both routes.

    The transports on units (fibers and pi_map alike) must match the
    looped least-squares oracle in their own bases, and the transports
    of the general rows once both are rendered on the source corner.
    """
    tw = route_tower(corpus, key)
    assert tw.C0.rows is None
    lattice = ideals.enumerate_families(tw).to_json()
    drop_the_map(monkeypatch)
    ref = route_tower(corpus, key)
    assert all(c.algebra.rows is not None for c in ref.corners.values())
    assert tw.bratteli_json() == ref.bratteli_json()
    assert lattice == ideals.enumerate_families(ref).to_json()
    g = tw.graph
    assert tw._transports.keys() == ref._transports.keys()
    for (a, b), got in tw._transports.items():
        assert np.abs(got - looped_transport(tw, a, b)).max() <= 1e-12
        # the image of each target unit, rendered on the source corner
        cs, cw = tw.corners[g.source_of(a)], tw.corners[g.range_of(a)]
        rs, rw = ref.corners[g.source_of(a)], ref.corners[g.range_of(a)]
        change = full_rows(cw.algebra) @ full_rows(rw.algebra).conj().T
        image = change @ ref._transports[(a, b)].T @ full_rows(rs.algebra)
        assert np.abs(got.T @ full_rows(cs.algebra) - image).max() <= 1e-12
    for v, corner in tw.corners.items():
        other = ref.corners[v]
        assert corner.r == other.r
        assert [(sm.d, sm.ambient_rank) for sm in corner.dec.summands] == [
            (sm.d, sm.ambient_rank) for sm in other.dec.summands
        ]
        gap = projector_gap(full_rows(corner.algebra), full_rows(other.algebra))
        assert gap <= 1e-12
        for i, (sm, rm) in enumerate(zip(corner.dec.summands, other.dec.summands)):
            # the map's z renders to a 0/1 diagonal up to one rounding
            z = rendered(corner, sm.z)
            assert np.abs(z - np.round(z.real)).max() <= 1e-15
            assert np.abs(z - rendered(other, rm.z)).max() <= 1e-14
            assert projector_gap(
                corner.dec.ideals[i] @ full_rows(corner.algebra),
                other.dec.ideals[i] @ full_rows(other.algebra),
            ) <= 1e-12


@pytest.mark.parametrize(
    "key, drop",
    [(key, False) for key in GENERAL_ROUTE_KEYS]
    + [(key, True) for key in CLOSED_FORM_KEYS],
)
def test_rotated_structure_constants_are_the_dense_products(
    corpus, key, drop, monkeypatch
):
    """corner.T and corner.S of corners rotated onto matrix units are the
    products and adjoints of the rendered basis, level by level: on the
    general-route towers, and on every closed-form tower with its map
    dropped."""
    if drop:
        drop_the_map(monkeypatch)
    tw = route_tower(corpus, key)
    for corner in tw.corners.values():
        assert corner.algebra.rows is not None
        q = full_rows(corner.algebra)
        at = 0
        for d in corner.algebra.dims:
            e = q[:, at:at + d * d].reshape(-1, d, d)
            at += d * d
            adj = np.einsum("il,lab->iab", corner.S, e)
            assert np.abs(e.conj().swapaxes(1, 2) - adj).max() <= 1e-12
            for i, x in enumerate(e):
                prod = np.einsum("jl,lab->jab", corner.T[i], e)
                assert np.abs(x @ e - prod).max() <= 1e-12


def test_tied_summands_keep_their_order_in_every_basis(corpus, monkeypatch):
    """The O2block:d2 corner has two pairs of summands with equal d,
    ambient rank and rounded diagonal of z; the rendered z breaks the
    ties. A second weight sequence of the rotation gives other units,
    and still the same summands in the same order and the same lattice."""
    tw = fiber_tower(corpus, "O2block:d2")
    [corner] = tw.corners.values()
    keys = [
        (sm.d, sm.ambient_rank, tuple(np.round(corner.algebra.diagonal(sm.z).real, 6)))
        for sm in corner.dec.summands
    ]
    assert len(keys) == 4 and len(set(keys)) == 2
    monkeypatch.setattr(findim, "_generic", lambda n: np.sin(0.7 * np.arange(n) + 0.3))
    ref = fiber_tower(corpus, "O2block:d2")
    [other] = ref.corners.values()
    assert np.abs(full_rows(corner.algebra) - full_rows(other.algebra)).max() > 0.1
    for sm, rm in zip(corner.dec.summands, other.dec.summands):
        assert np.abs(rendered(corner, sm.z) - rendered(other, rm.z)).max() <= 1e-12
    assert tw.bratteli_json() == ref.bratteli_json()
    lattice = ideals.enumerate_families(tw).to_json()
    assert lattice == ideals.enumerate_families(ref).to_json()


@pytest.fixture
def numerical_calls(monkeypatch):
    """Names of the numerical steps that ran, one per call.

    The steps are the rotation of general rows onto matrix units
    (findim._rotate) and the least-squares corner coordinates (the SVD
    Placement.solver and Placement.certified_coords).
    """
    calls = []

    def spy(name, call):
        def run(*args, **kwargs):
            calls.append(name)
            return call(*args, **kwargs)
        return run

    monkeypatch.setattr(findim, "_rotate", spy("rotate", findim._rotate))
    solver = tower.Placement.solver.func
    monkeypatch.setattr(tower.Placement, "solver", property(spy("solver", solver)))
    monkeypatch.setattr(
        tower.Placement, "certified_coords",
        spy("certified_coords", tower.Placement.certified_coords),
    )
    return calls


@pytest.mark.parametrize("key", CLOSED_FORM_KEYS)
def test_closed_form_corners_run_no_numerical_decomposition(
    corpus, key, numerical_calls
):
    """Build and lattice of a closed-form tower run no numerical step.

    Corners are read off C0's matrix units and transports are counted
    on them, so C0 and every corner keep their unit rows implicit.
    """
    tw = route_tower(corpus, key)
    ideals.enumerate_families(tw)
    assert tw.C0.rows is None
    for corner in tw.corners.values():
        assert corner.algebra.rows is None
    assert numerical_calls == []


@pytest.mark.parametrize(
    "key, dim, sizes",
    [
        ("THETA_BLOCK", 16, [[1, 1], [1, 1]]),
        ("O2block:N0", 12, [[1, 1, 1]]),
        ("O2block:d2", 64, [[2, 2, 2, 2]]),
        ("P2block", 30, [[1, 1, 2], [1, 1, 2]]),
    ],
)
def test_block_weight_corners_are_decomposed_numerically(
    corpus, key, dim, sizes, numerical_calls
):
    """One rotation onto matrix units per vertex, and no least squares.

    The general route gives C0 of the given dim and corners with the
    given summand sizes. The transports carry the corners' unit rows
    over the counted entry map, so building the tower and its lattice
    solves no corner coordinates. The full family verifies.
    """
    tw = fiber_tower(corpus, key)
    lattice = ideals.enumerate_families(tw)
    assert tw.C0.rows is not None and tw.C0.dim == dim
    assert [[sm.d for sm in c.dec.summands] for c in tw.corners.values()] == sizes
    n = tw.graph.n_vertices
    assert numerical_calls.count("rotate") == n
    assert tw._transports
    assert "certified_coords" not in numerical_calls
    assert "solver" not in numerical_calls
    assert ideals.verify_fully_invariant(tw, lattice.maximum).ok


@pytest.mark.parametrize("key", TRACE_KEYS)
def test_renders_solve_no_corner_coordinates(corpus, key, numerical_calls):
    """tau_inverse, psi and the ideal renders never run the placement SVD.

    Only tau solves corner coordinates, so only tau can raise the
    faithfulness error of Placement.solver. The renders are those of the
    maximum family's corner ideals.
    """
    tw = fiber_tower(corpus, key)
    subs = ideals._family_subspaces(tw, ideals.enumerate_families(tw).maximum)
    rng = np.random.default_rng(9)
    for n in range(tw.config.n_max + 1):
        x = tw.stage_random(n, rng)
        tw.tau_inverse(n, x)
        if n < tw.config.n_max:
            tw.psi(n, x)
        assert ideals._render(tw, n, subs)
    assert "solver" not in numerical_calls
    assert "certified_coords" not in numerical_calls
    tw.tau(0, tw.tau_inverse(0, tw.stage_random(0, rng)))
    assert "solver" in numerical_calls


@pytest.mark.parametrize("key", TRACE_KEYS)
def test_ideal_render_matches_dense_oracle(corpus, key):
    """Each placed row renders as the shared rows of its vertex, on its entry.

    Row (v, a, b, j) of stage n of the maximum family's ideal, rendered
    by dense_tau_inverse through its own window index, is rows[j] of
    _render's vertex v on pos[a m + b] and zero everywhere else. Stages
    0 and 1 are checked, stage 1 only where its dense renders hold at
    most 2e7 entries (the stage-1 renders of THETA_BLOCK, O2block and
    O2block:d2 hold more, and took over a second each).
    """
    tw = fiber_tower(corpus, key)
    family = ideals.enumerate_families(tw).maximum
    subs = ideals._family_subspaces(tw, family)
    window = sum(tw.graph.level_dim(k) ** 2 for k in range(tw.M, tw.G1))
    for n in range(min(tw.config.n_max, 1) + 1):
        basis = ideals.build_fully_invariant(tw, family, n)
        if n and len(basis) * window > 2e7:
            break
        render = ideals._render(tw, n, subs)
        counts = tw.stages[n].counts
        assert [v for v, _, _ in render] == [v for v in sorted(counts) if len(subs[v])]
        start = 0
        for v, pos, rows in render:
            assert pos.shape == (counts[v] ** 2, rows.shape[1])
            assert len(rows) == len(subs[v])
            for entry in pos:
                block = basis[start:start + len(rows)]
                start += len(rows)
                got = blocks_vec(dense_tau_inverse(tw, n, tw.stage_unvec(n, block)))
                assert np.abs(got[:, entry] - rows).max() <= 1e-12
                got[:, entry] = 0
                assert not np.any(got)
        assert start == len(basis)


def test_block_weight_build_allocates_no_window_row(corpus):
    """The THETA_BLOCK build stays below the bytes of one complex row of
    window length, where its dense C0 rows took 16 such rows (85 MB).

    A first build warms the graph's path caches.
    """
    g = corpus["theta"]
    cfg = TowerConfig(n_max=1, M=7, W=2)
    build_tower(g, from_dict(THETA_BLOCK, g), cfg)
    tw, peak = traced_peak(lambda: build_tower(g, from_dict(THETA_BLOCK, g), cfg))
    length = sum(d * d for d in tw.C0.dims)
    assert length == 349184
    assert peak < 16 * length, peak


@pytest.mark.parametrize("key", sorted(set(TRACE_KEYS + CLOSED_FORM_KEYS)))
def test_no_algebra_keeps_full_length_rows(corpus, key):
    """C0 and the corners keep their rows on their distinct entries.

    After the build, the lattice and the re-verification of its middle
    family, no algebra holds an onb, and general rows run over the
    distinct entries alone.
    """
    tw = route_tower(corpus, key)
    families = ideals.enumerate_families(tw).families
    family = families[len(families) // 2]
    assert ideals.verify_fully_invariant(tw, family, n_cap=1).ok
    for alg in [tw.C0] + [c.algebra for c in tw.corners.values()]:
        assert "onb" not in vars(alg)
        assert alg.rows is None or alg.rows.shape == (alg.dim, len(alg.copies))


def counted_witness(corpus):
    """A closed-form transport and two of its source units j, j2.

    j and j2 gather from two different target units, and j2 has at least
    two copies on the source levels. Returns (tower, a, b, source corner,
    cut, j, j2), cut the range of the source map's entries on those
    levels.
    """
    tw = route_tower(corpus, "closure-o2")
    g = tw.graph
    for a, b in transport_pairs(tw):
        got = tw.transport(a, b, "transport left the corner")
        cs = tw.corners[g.source_of(a)]
        bounds = cs.offsets[[0, tw.G1 - len(a) - tw.G0]]
        cut = np.searchsorted(cs.algebra.entries[0], bounds)
        have = np.bincount(cs.algebra.entries[1][slice(*cut)], minlength=cs.r)
        target = {j: np.flatnonzero(row) for j, row in enumerate(got)}
        for j, j2 in zip(range(cs.r), range(1, cs.r)):
            if len(target[j]) == len(target[j2]) == 1 and have[j2] > 1:
                if target[j][0] != target[j2][0]:
                    return tw, a, b, cs, cut, j, j2
    raise AssertionError("no witness transport")


def class_pairs(tw, a):
    """The transport pairs of the class of a, each once, in order."""
    pairs = dict.fromkeys(transport_pairs(tw))
    return [pair for pair in pairs if path_class(tw, pair[0]) == path_class(tw, a)]


def assert_witness_refused(tw, a, b):
    """The pair (a, b) is refused with its own message, alone and as one
    pair of its whole class in one stacked call, the other pairs named by
    their index."""
    whole = class_pairs(tw, a)
    assert len(whole) > 1
    for pairs in ([(a, b)], whole):
        i = pairs.index((a, b))
        messages = ["pair %d left the corner" % j for j in range(len(pairs))]
        messages[i] = "witness left the corner"
        failure = tower._transport(tw, pairs, messages)[1][i]
        assert isinstance(failure, WindowUnstableError)
        assert str(failure) == "witness left the corner"


def test_counted_transport_refuses_copies_from_two_target_units(corpus, monkeypatch):
    """Relabelling one copy of source unit j2 as j makes j gather from two
    target units; the count refuses it."""
    tw, a, b, cs, cut, j, j2 = counted_witness(corpus)
    pos, copy = cs.algebra.entries
    copy = copy.copy()
    copy[cut[0] + np.flatnonzero(copy[slice(*cut)] == j2)[1:]] = j
    monkeypatch.setattr(cs.algebra, "entries", (pos, copy))
    assert_witness_refused(tw, a, b)


def test_counted_transport_refuses_an_image_off_the_source_support(corpus, monkeypatch):
    """Moving one copy of source unit j2 to the next free position of its
    level leaves the target entry that gathered into it off the source
    support. Every source unit keeps its copy count, so only the support
    check can refuse it."""
    tw, a, b, cs, cut, j, j2 = counted_witness(corpus)
    pos, copy = cs.algebra.entries
    pos = pos.copy()
    ends = cs.offsets[1:]
    for at in cut[0] + np.flatnonzero(copy[slice(*cut)] == j2):
        if pos[at] + 1 not in pos and pos[at] + 1 not in ends:
            pos[at] += 1
            break
    else:
        raise AssertionError("no free position after a copy of j2")
    monkeypatch.setattr(cs.algebra, "entries", (pos, copy))
    assert_witness_refused(tw, a, b)


def test_transport_refuses_an_image_off_the_source_rows(corpus, monkeypatch):
    """Dropping a row of a general-route source corner leaves the images
    of the target rows off its span; the residual certificate refuses
    them, while the integer checks on the entries still pass."""
    tw = fiber_tower(corpus, "THETA_BLOCK")
    g = tw.graph
    a, b = next((a, b) for a, b in transport_pairs(tw) if len(a) == 1)
    cs = tw.corners[g.source_of(a)]
    assert cs is not tw.corners[g.range_of(a)]
    monkeypatch.setattr(cs.algebra, "rows", cs.algebra.rows[:-1])
    assert_witness_refused(tw, a, b)


def test_window_without_a_fiber_source_level_is_refused(corpus):
    """Unweighted O2 at n_max=0, W=1: the fibers (p = 1) have no source
    level, so the build refuses the window as too short, as
    Tower.transport does, and names no empty level range."""
    g = corpus["O2"]
    with pytest.raises(GraphError) as info:
        build_tower(g, WeightSpec.unweighted(g), TowerConfig(n_max=0, W=1))
    assert type(info.value) is GraphError
    assert str(info.value) == "the window is too short to transport a length-1 path"


# the refusal of each deep O2 window: the fibers' corner, or a multiplicity
DEEP_REFUSALS = {
    7: (WindowUnstableError, r"^corner at 'v' is not faithful on levels \[2, 7\)"),
    8: (MultiplicityError, r"^summand \(0, 0\) receives no connecting edges"),
}


@pytest.mark.parametrize("M", [7, 8])
def test_o2_p3_deep_windows_are_refused_with_a_certificate(M, monkeypatch):
    """O2 with p=3, N=1 at W=3: a corner or a multiplicity is refused.

    These windows used to end in a raw MemoryError, from the full-length
    rows of C0 and of its corners (2.7 GB at M=7, 10 GiB asked at M=8).
    The refusal keeps its class and message with the fibers stacked.
    """
    workloads = load_workloads()
    doc = workloads.corpus_docs()["O2"]
    g = load_graph(json.dumps(doc))
    wdoc = workloads.diagonal_weights_doc(doc, 3, 1, np.random.default_rng(1))
    monkeypatch.setattr(graphs, "MAX_LEVEL_DIM", 4100)
    cfg = TowerConfig(n_max=1, M=M, W=3)
    error, message = DEEP_REFUSALS[M]
    with pytest.raises(ProtocolError) as info:
        build_tower(g, load_weights(json.dumps(wdoc), g), cfg)
    assert type(info.value) is error
    assert re.search(message, str(info.value))


@pytest.mark.parametrize("key", TRACE_KEYS)
def test_transport_gathers_are_shifts(corpus, key):
    """The per-level gathers of the looped oracle are the rank shifts.

    Graph lists each level by first edge, then by tail rank, so the
    target slot positions of a*d are prepend_rank + arange(S).
    """
    tw = fiber_tower(corpus, key)
    g = tw.graph
    for a, b in transport_pairs(tw):
        for ell, (_, r1, r2) in zip(range(tw.G0, tw.G1), looped_gathers(tw, a, b)):
            k = ell - tw.q
            assert np.array_equal(r1, g.prepend_rank(k, a) + np.arange(len(r1)))
            assert np.array_equal(r2, g.prepend_rank(k, b) + np.arange(len(r2)))


@pytest.mark.parametrize("key", TRACE_KEYS)
def test_stacked_transports_match_batches_of_one(corpus, key):
    """Each class's stack against its pairs one at a time, and the cache.

    On closed-form towers the matrices agree exactly, and on the others
    within 1e-15; no pair fails.
    """
    tw = fiber_tower(corpus, key)
    exact = all(c.algebra.rows is None for c in tw.corners.values())
    classes = {}
    for pair in dict.fromkeys(transport_pairs(tw)):
        classes.setdefault(path_class(tw, pair[0]), []).append(pair)

    def same(x, y):
        return np.array_equal(x, y) if exact else np.abs(x - y).max() <= 1e-15

    for pairs in classes.values():
        stack, failures = tower._transport(tw, pairs, ["left"] * len(pairs))
        assert failures == [None] * len(pairs)
        for pair, got in zip(pairs, stack):
            (one,), (failure,) = tower._transport(tw, [pair], ["left"])
            assert failure is None
            assert same(got, one)
            assert same(tw.transport(*pair, "left"), got)


def test_transport_refuses_pairs_that_are_not_parallel(corpus):
    """Tower.transport checks its pair: paths that are not parallel, of
    unequal or zero length, or too long for the window raise GraphError."""
    g = corpus["G2"]
    tw = build_tower(g, WeightSpec.unweighted(g), TowerConfig(n_max=1))
    l1, l2, v1 = (g.parse_path(s) for s in ("l1", "l2", "v1"))
    deep = g.parse_path("l1.l1.l1.l1")
    assert tw.G1 - tw.G0 == len(deep)
    for a, b in [(l1, l2), (l1, g.parse_path("l1.l1")), (v1, v1), (deep, deep)]:
        with pytest.raises(GraphError):
            tw.transport(a, b, "left")


# -- C0's layout read off the paths against the enumerated layout --------------


class _AtC0(Exception):
    """Stops a tower build at its build_C0 call, holding the arguments."""


def c0_arguments(build):
    """The (graph, weights, levels) that build() passes to build_C0."""
    def stop(*args):
        raise _AtC0(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tower, "build_C0", stop)
        with pytest.raises(_AtC0) as info:
            build()
    return info.value.args


def demo_tower(k, t):
    g, w, model = build_cycle(k, t)
    return build_tower(g, w, demo_tower_config(model))


BLOCK_KEYS = GENERAL_ROUTE_KEYS + ["O2block"]

# every diagonal tower of the trace and closed-form keys (G2p3 and
# closure-o2 among them) and the two towers of the cycle demo
DIAGONAL_KEYS = [
    key for key in sorted(set(TRACE_KEYS + CLOSED_FORM_KEYS)) if key not in BLOCK_KEYS
] + ["demo:3", "demo:4"]


def diagonal_build(corpus, key):
    if key == "demo:3":
        return lambda: demo_tower(3, (2.0, 1.0, 1.0))
    if key == "demo:4":
        return lambda: demo_tower(4, (2.0, 1.0, 3.0, 1.0))
    return lambda: route_tower(corpus, key)


@pytest.mark.parametrize("key", DIAGONAL_KEYS)
def test_diagonal_layout_is_the_enumerated_layout(corpus, key):
    """The layout read off the path classes and the weights is the one
    star_closure reads off the listed generators, bit for bit: the
    stacks, the map (pos, copy, copies), the values of the unit and the
    generators on the distinct entries, and C0's unit."""
    g, w, levels = c0_arguments(diagonal_build(corpus, key))
    assert w.kind == "diagonal"
    dims = [g.level_dim(k) for k in levels]
    gens = diagonal_c0_generators(g, w, levels)
    stacks, *arrays = tower._diagonal_layout(g, w, levels)
    want_stacks, *want = _enumerated_layout(dims, gens)
    assert stacks == want_stacks
    assert all(type(x) is int for stack in stacks for x in stack)
    for got, ref in zip(arrays, want):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    C0, ref = build_C0(g, w, levels), findim.star_closure(dims, gens)
    assert C0.unit.dtype == ref.unit.dtype and np.array_equal(C0.unit, ref.unit)
    assert C0.rows is None and ref.rows is None


def test_only_block_weights_list_the_generators(corpus, monkeypatch):
    """Diagonal weights never call _c0_generators; block weights do, once."""
    calls = []
    listed = tower._c0_generators

    def spy(graph, weights, levels):
        calls.append(weights.kind)
        return listed(graph, weights, levels)

    monkeypatch.setattr(tower, "_c0_generators", spy)
    for key in ["closure-o2", "C3w", "G2p3", "generic:G3", "unweighted:theta"]:
        route_tower(corpus, key)
    demo_tower(3, (2.0, 1.0, 1.0))
    assert calls == []
    for key in BLOCK_KEYS:
        fiber_tower(corpus, key)
    assert calls == ["block"] * len(BLOCK_KEYS)
