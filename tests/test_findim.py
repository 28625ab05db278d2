"""Structure recovery on finite-dimensional block matrix algebras."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from util import (
    THETA_BLOCK,
    assert_matches_oracle,
    basis_elements,
    blocks_eye,
    blocks_mul,
    blocks_zero,
    contains,
    coords,
    corpus_graphs,
    cycle_weight_spec,
    dense_c0_generators,
    dense_star_closure,
    dimension_adds_up,
    element,
    embedding_multiplicities,
    entries_of,
    full_rows,
    pairwise_fiber_multiplicities,
    projector_gap,
    random_diag_spec,
    scattered_units,
    support_star_closure,
)
from wck import findim, tower
from wck.errors import ClosureOverflowError, DecompositionError, MultiplicityError
from wck.findim import (
    _compress_units,
    _distinct_blocks,
    _support_layout,
    blocks_vec,
    central_decomposition,
    integer_traces,
    star_closure,
)
from wck.weights import from_dict


def random_unitary(n, rng):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def conjugated_sum(dims, rng, gens=2):
    """Generators of a unitary conjugate of M_d1 + ... inside M_n.

    Generic self-adjoint block-diagonal elements generate the full sum,
    so the closure has to do real work to recover it.
    """
    n = sum(dims)
    u = random_unitary(n, rng)
    out = []
    for _ in range(gens):
        blocks = []
        for d in dims:
            x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            blocks.append(0.5 * (x + x.conj().T))
        big = np.zeros((n, n), dtype=np.complex128)
        pos = 0
        for blk, d in zip(blocks, dims):
            big[pos:pos + d, pos:pos + d] = blk
            pos += d
        out.append([u @ big @ u.conj().T])
    return out


def matrix_units(dims):
    """Full matrix-unit generating set of a multi-level block space."""
    gens = []
    for lev, d in enumerate(dims):
        for i in range(d):
            for j in range(d):
                blocks = [np.zeros((k, k), dtype=np.complex128) for k in dims]
                blocks[lev][i, j] = 1.0
                gens.append(blocks)
    return gens


def random_dims(rng):
    dims = []
    while True:
        d = int(rng.integers(1, 6))
        if sum(x * x for x in dims) + d * d > 64:
            break
        dims.append(d)
        if len(dims) == 4 or rng.random() < 0.25:
            break
    return dims


@pytest.fixture
def closure_runs(monkeypatch):
    """Counts the runs of the general bicommutant solve inside star_closure."""
    runs = []
    solve = findim._bicommutant

    def spy(*args):
        runs.append(args)
        return solve(*args)

    monkeypatch.setattr(findim, "_bicommutant", spy)
    return runs


class TestClosure:
    def test_two_generic_hermitians_generate_full_matrix_algebra(self):
        rng = np.random.default_rng(5)
        gens = conjugated_sum([3], rng)
        A = star_closure([3], entries_of(gens))
        assert A.dim == 9

    def test_no_generators_leaves_the_scalars(self, closure_runs):
        # the unit alone splits the level into 1 x 1 class blocks, all
        # bit-identical, so the distinct block is one 1 x 1 block and
        # its commutant is its scalars: the closed form gives C
        A = star_closure([4], [])
        assert A.dim == 1
        assert contains(A, blocks_eye([4]))
        assert not closure_runs

    def test_closure_contains_products_and_adjoints(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        A = star_closure([3], entries_of([[x]]))
        assert contains(A, [x @ x])
        assert contains(A, [x.conj().T])
        assert contains(A, [x @ x.conj().T @ x])

    def test_overflow_guard_raises(self, closure_runs):
        # M_8 is certified by its commutant; M_4 + M_4 on one 8 x 8
        # block is not, and the general solve overflows
        rng = np.random.default_rng(11)
        for dims, runs in (([8], 0), ([4, 4], 1)):
            gens = conjugated_sum(dims, rng)
            with pytest.raises(ClosureOverflowError):
                star_closure([8], entries_of(gens), max_dim=10)
            assert len(closure_runs) == runs

    def test_multi_level_block_space(self):
        # one copy of M_2 acting diagonally on two levels
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        A = star_closure([2, 2], entries_of([[x, x], [y, y]]))
        assert A.dim == 4


class TestCentralDecomposition:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_conjugated_sums_recover_dims_and_ideals(self, seed):
        rng = np.random.default_rng(seed)
        dims = random_dims(rng)
        n = sum(dims)
        A = star_closure([n], entries_of(conjugated_sum(dims, rng)))
        assert A.dim == sum(d * d for d in dims)
        dec = central_decomposition(A)
        assert sorted(dec.dims) == sorted(dims)
        assert dimension_adds_up(dec)
        for sm in dec.summands:
            assert sm.multiplicity == 1
            assert sm.ambient_rank == sm.d
        assert_matches_oracle(dec)

    def test_commutative_diagonal_algebra(self):
        gens = [
            [np.diag([1.0, 0, 0, 0]).astype(np.complex128)],
            [np.diag([0, 1.0, 0, 0]).astype(np.complex128)],
            [np.diag([0, 0, 1.0, 0]).astype(np.complex128)],
        ]
        A = star_closure([4], entries_of(gens))
        assert A.dim == 4
        dec = central_decomposition(A)
        assert dec.dims == [1, 1, 1, 1]

    def test_represented_with_multiplicity(self):
        # M_2 sitting twice in the block space, once per level
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        A = star_closure([2, 2], entries_of([[x, x], [y, y]]))
        dec = central_decomposition(A)
        assert dec.dims == [2]
        assert dec.summands[0].ambient_rank == 4
        assert dec.summands[0].multiplicity == 2

    def test_summand_order_is_canonical(self):
        # the same algebra as matrix units (certified by its commutant)
        # and closed up from the reversed generators has other bases,
        # and must still give the same summands in the same order
        gens = matrix_units([2, 3])
        one = central_decomposition(star_closure([2, 3], entries_of(gens)))
        two = central_decomposition(dense_star_closure([2, 3], gens[::-1]))
        assert one.dims == two.dims == [2, 3]
        for a, b in zip(one.summands, two.summands):
            assert np.allclose(
                blocks_vec(element(one.algebra, a.z)),
                blocks_vec(element(two.algebra, b.z)),
                atol=1e-7,
            )

    @staticmethod
    def mutated(mutation, monkeypatch):
        """An algebra and a mutation of its rotation onto matrix units.

        equal-weights: the units of M_3 + M_2 marked general, as
        test_tower.drop_the_map does, with all weights 1, so that h is
        twice the all-ones matrix on each block and its eigenvalue 0 is
        double on the M_3 block; dropped-row: the theta_block closure
        less its last row; scaled-pairing: the theta_block closure,
        whose summands sit on several blocks, with the compression on
        the first block of every pairing doubled.
        """
        if mutation == "equal-weights":
            A = star_closure([3, 2], entries_of(matrix_units([3, 2])))
            monkeypatch.setattr(findim, "_generic", np.ones)
            return findim.StarAlgebra(
                A.dims, A.unit, A.stacks, A.pos, A.copy, A.copies,
                np.eye(A.dim, dtype=np.complex128),
            )
        dims, gens = closure_case("theta_block")
        A = star_closure(dims, entries_of(gens))
        if mutation == "dropped-row":
            A.rows = A.rows[:-1]
            return A
        pairing = findim._pairing

        def doubled(ys, copies):
            return pairing([2 * ys[0]] + ys[1:], copies)

        monkeypatch.setattr(findim, "_pairing", doubled)
        return A

    @pytest.mark.parametrize(
        "mutation", ["equal-weights", "dropped-row", "scaled-pairing"]
    )
    def test_a_wrong_rotation_raises(self, mutation, monkeypatch):
        """Each mutation is refused, never decomposed wrongly: unequal
        ranks in a summand make a pairing that is not square, a missing
        row leaves sizes that do not add up, and a pairing that is not
        one multiple of unitaries on all blocks is not unitary."""
        A = self.mutated(mutation, monkeypatch)
        with pytest.raises(DecompositionError):
            central_decomposition(A)


@pytest.mark.parametrize("error", [DecompositionError, MultiplicityError])
def test_integer_traces_raise_the_given_error(error):
    got = integer_traces([2 + 1e-9, 3 - 1e-9j, -1e-12], error, "traces")
    assert got.tolist() == [2, 3, 0]
    for off in (1e-3, -1e-3, 1e-3j):
        with pytest.raises(error, match="not integers"):
            integer_traces(np.array([2.0, 3 + off]), error, "traces")


class TestEmbeddings:
    def build_pair(self):
        # A = C + C on levels (1, 1); B = M_3 + M_2 on levels (3, 2)
        A = star_closure([1, 1], entries_of(matrix_units([1, 1])))
        B = star_closure([3, 2], entries_of(matrix_units([3, 2])))
        dec_a = central_decomposition(A)
        dec_b = central_decomposition(B)

        def phi(x):
            a = x[0][0, 0]
            b = x[1][0, 0]
            return [np.diag([a, a, b]), np.diag([a, b])]

        return dec_a, dec_b, phi

    def test_known_multiplicity_matrix(self):
        dec_a, dec_b, phi = self.build_pair()
        m = embedding_multiplicities(dec_a, dec_b, phi)
        # canonical order puts the (0, 1)-supported scalar summand first
        # and the M_2 summand of the target before M_3
        assert m.tolist() == [[1, 1], [1, 2]]

    def test_column_sums_match_target_dims(self):
        dec_a, dec_b, phi = self.build_pair()
        m = embedding_multiplicities(dec_a, dec_b, phi)
        d_a = [sm.d for sm in dec_a.summands]
        d_b = [sm.d for sm in dec_b.summands]
        for j, dj in enumerate(d_b):
            assert sum(m[i, j] * d_a[i] for i in range(len(d_a))) == dj

    def test_identity_embedding(self):
        A = star_closure([3], entries_of(matrix_units([3])))
        dec = central_decomposition(A)
        m = embedding_multiplicities(dec, dec, lambda x: x)
        assert m.tolist() == [[1]]

    def test_fiber_multiplicities_divide_by_the_source_size(self):
        """The image of z_i is d_i minimal projections, so its trace is
        divided by d_i; every corner of the corpus towers has d_i = 1.

        A = M_2 goes into B = M_2 + M_4 by x -> (x, x (x) I_2), read as a
        fiber between two corners of a stand-in tower.
        """
        A = star_closure([2], entries_of(matrix_units([2])))
        B = star_closure([4, 2], entries_of(matrix_units([4, 2])))
        dec_a, dec_b = central_decomposition(A), central_decomposition(B)

        def phi(x):
            return [np.kron(x[0], np.eye(2)), x[0]]

        fib = np.array([coords(B, phi(blocks)) for blocks in basis_elements(A)]).T
        corners = {
            name: SimpleNamespace(
                dec=dec, algebra=dec.algebra, T=dec.T, r=dec.algebra.dim
            )
            for name, dec in (("a", dec_a), ("b", dec_b))
        }
        graph = SimpleNamespace(
            source_of=lambda mu: "b", range_of=lambda mu: "a", path_str=str
        )
        stand_in = SimpleNamespace(graph=graph, corners=corners)
        (got,) = tower._fiber_multiplicities(stand_in, ["mu"], fib[None])
        assert got.tolist() == [[1, 2]]
        assert np.array_equal(got, embedding_multiplicities(dec_a, dec_b, phi))
        assert np.array_equal(got, pairwise_fiber_multiplicities(stand_in, "mu", fib))

    def test_non_unital_map_rejected(self):
        dec_a, dec_b, _ = self.build_pair()

        def phi(x):
            a = x[0][0, 0]
            return [np.diag([a, 0, 0]), np.diag([a, 0])]

        with pytest.raises(MultiplicityError, match="unital"):
            embedding_multiplicities(dec_a, dec_b, phi)

    def test_transpose_is_not_multiplicative(self):
        A = star_closure([2], entries_of(matrix_units([2])))
        dec = central_decomposition(A)

        def phi(x):
            return [x[0].T]

        with pytest.raises(MultiplicityError, match="multiplicative"):
            embedding_multiplicities(dec, dec, phi)


# -- support-block closure against the dense reference ------------------------


def c0_window(g, w, n_max=2, M=None, W=None):
    """Graph, weights and the window levels a Tower would use."""
    p, q = w.p, w.q
    M = M if M is not None else w.N + q + (n_max + 3) * p
    W = W if W is not None else 3 * p
    return g, w, list(range(M - n_max * p - q, M + W))


def c0_inputs(g, w, n_max=2, M=None, W=None):
    """Window dims and C0 generators as dense blocks, on a Tower's window."""
    g, w, levels = c0_window(g, w, n_max, M, W)
    return [g.level_dim(k) for k in levels], dense_c0_generators(g, w, levels)


def closure_case(name):
    kind, _, key = name.partition(":")
    if kind == "dense":
        rng = np.random.default_rng(int(key))
        dims = random_dims(rng)
        return [sum(dims)], conjugated_sum(dims, rng)
    g, w, levels = c0_case(name)
    return [g.level_dim(k) for k in levels], dense_c0_generators(g, w, levels)


def c0_case(name):
    """(graph, weights, window levels) of a named stage-zero case."""
    corpus = corpus_graphs()
    kind, _, key = name.partition(":")
    if kind == "unweighted":
        g = corpus[key]
        return c0_window(g, from_dict({"p": 1, "N": 0}, g))
    if name == "C3w":
        g = corpus["C3"]
        return c0_window(g, cycle_weight_spec(g, (2.0, 1.0, 3.0)))
    if name == "O2w":
        g = corpus["O2"]
        w = random_diag_spec(g, 2, 1, np.random.default_rng(7))
        return c0_window(g, w, n_max=0, M=4, W=3)
    if name == "G2p3":
        g = corpus["G2"]
        w = random_diag_spec(g, 3, 0, np.random.default_rng(7))
        return c0_window(g, w, n_max=1, M=9, W=3)
    if name == "theta_block":
        g = corpus["theta"]
        return c0_window(g, from_dict(THETA_BLOCK, g), n_max=1, M=5, W=2)
    if kind == "generic":
        g = corpus[key]
        w = random_diag_spec(g, 2, 1, np.random.default_rng(7))
        return c0_window(g, w, n_max=1, M=6, W=2)
    if name == "C3w223":
        g = corpus["C3"]
        return c0_window(g, cycle_weight_spec(g, (2.0, 2.0, 3.0)))
    if kind == "G3":
        g = corpus["G3"]
        w = random_diag_spec(g, 2, 1, np.random.default_rng(int(key)))
        return c0_window(g, w, n_max=1, M=9, W=3)
    raise KeyError(name)


CLOSURE_CASES = (
    ["unweighted:" + name for name in sorted(corpus_graphs())]
    + ["C3w", "O2w", "G2p3", "theta_block"]
    + ["dense:%d" % seed for seed in range(20)]
)

# diagonal weights, on which the distinct blocks generate all of + M_s
FULL_BLOCK_CASES = (
    ["generic:" + name for name in sorted(corpus_graphs())] + ["C3w", "C3w223"]
)

# star_closure certifies + M_s by the commutant on all of these
CERTIFIED_CASES = (
    ["unweighted:" + name for name in sorted(corpus_graphs())]
    + FULL_BLOCK_CASES
    + ["G2p3"]
)

ENTRY_CASES = (
    ["unweighted:" + name for name in sorted(corpus_graphs())]
    + ["generic:" + name for name in sorted(corpus_graphs())]
    + ["C3w", "theta_block", "G2p3"]
)


def distinct_block_sizes(dims, gens):
    """Size of each distinct class block that star_closure closes on."""
    vecs = np.array([blocks_vec(x) for x in [blocks_eye(dims), *gens]])
    support = np.flatnonzero(np.any(vecs != 0, axis=0))
    stacks, _, pos = _support_layout(dims, support)
    stacks = _distinct_blocks(stacks, vecs[:, pos])[0]
    return [s for _, c, s in stacks for _ in range(c)]


def support_masks(dims, elements):
    """Per level, True where i and j share a class of the nonzero pattern."""
    masks = []
    for lev, d in enumerate(dims):
        nz = np.zeros((d, d), dtype=bool)
        for x in elements:
            nz |= x[lev] != 0
        _, label = connected_components(csr_matrix(nz), directed=False)
        masks.append(label[:, None] == label[None, :])
    return masks


class TestStageZeroEntries:
    @pytest.mark.parametrize("name", ENTRY_CASES)
    def test_entries_match_the_dense_window_blocks(self, name):
        g, w, levels = c0_case(name)
        got = tower._c0_generators(g, w, levels)
        ref = entries_of(dense_c0_generators(g, w, levels))
        assert len(got) == len(ref)
        for (pos, values), (ref_pos, ref_values) in zip(got, ref):
            order = np.argsort(pos)
            assert np.array_equal(pos[order], ref_pos)
            if w.kind == "diagonal":
                assert np.array_equal(values[order], ref_values)
            else:
                assert np.abs(values[order] - ref_values).max(initial=0) <= 1e-14

    def test_no_dense_window_block_is_allocated(self):
        # the closure-o2 window: O2, p=2, N=1, levels [3, 8), where dense
        # d x d window blocks peaked at 5.9 MB; a first call warms the
        # graph's path caches, and the weights of the measured call are
        # a fresh copy of the same draw
        g = corpus_graphs()["O2"]
        levels = list(range(3, 8))
        draw = random_diag_spec(g, 2, 1, np.random.default_rng(7))
        tower._c0_generators(g, draw, levels)
        fresh = random_diag_spec(g, 2, 1, np.random.default_rng(7))
        tracemalloc.start()
        try:
            gens = tower._c0_generators(g, fresh, levels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(len(pos) for pos, _ in gens) == 2232
        assert peak < 1 << 20, peak


class TestSupportBlockClosure:
    @pytest.mark.parametrize("name", CLOSURE_CASES)
    def test_matches_dense_closure(self, name):
        dims, gens = closure_case(name)
        A = star_closure(dims, entries_of(gens))
        ref = dense_star_closure(dims, gens)
        assert A.dim == ref.dim
        assert projector_gap(full_rows(A), full_rows(ref)) <= 1e-8
        masks = support_masks(dims, [blocks_eye(dims)] + gens)
        off = np.concatenate([~m.ravel() for m in masks])
        assert not np.any(full_rows(A)[:, off])

    @pytest.mark.parametrize("seed", [1, 2, 15])
    def test_g3_matches_closure_on_every_class_block(self, seed, closure_runs):
        # the dense reference takes about 17 s per draw here
        dims, gens = closure_case("G3:%d" % seed)
        A = star_closure(dims, entries_of(gens))
        assert not closure_runs
        ref = support_star_closure(dims, gens)
        assert A.dim == ref.dim == 56
        assert projector_gap(full_rows(A), full_rows(ref)) <= 1e-8
        q = full_rows(A)
        assert np.linalg.norm(q @ q.conj().T - np.eye(A.dim), 2) <= 1e-12

    @pytest.mark.parametrize("name", CERTIFIED_CASES)
    def test_commutant_certificate_matches_closure_on_every_class_block(
        self, name, closure_runs
    ):
        dims, gens = closure_case(name)
        A = star_closure(dims, entries_of(gens))
        assert not closure_runs
        ref = support_star_closure(dims, gens)
        assert A.dim == ref.dim
        assert projector_gap(full_rows(A), full_rows(ref)) <= 1e-8
        q = full_rows(A)
        assert np.linalg.norm(q @ q.conj().T - np.eye(A.dim), 2) <= 1e-12

    @pytest.mark.parametrize("name", CERTIFIED_CASES)
    def test_general_solve_matches_the_closed_form(
        self, name, monkeypatch, closure_runs
    ):
        dims, gens = closure_case(name)
        closed = star_closure(dims, entries_of(gens))
        monkeypatch.setattr(findim, "_scalar_commutant", lambda *args: False)
        A = star_closure(dims, entries_of(gens))
        assert len(closure_runs) == 1
        sizes = distinct_block_sizes(dims, gens)
        assert A.dim == closed.dim == sum(s * s for s in sizes)
        assert projector_gap(full_rows(A), full_rows(closed)) <= 1e-8
        q = full_rows(A)
        assert np.linalg.norm(q @ q.conj().T - np.eye(A.dim), 2) <= 1e-12

    def test_blocks_of_different_sizes_are_intertwined(self, closure_runs):
        # x on a 2 x 2 block and u (x + x) u^* on a 4 x 4 block: the
        # algebra is one M_2, of ambient rank 2 + 4
        rng = np.random.default_rng(8)
        u = random_unitary(4, rng)
        gens = []
        for _ in range(2):
            x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            gens.append([x, u @ np.kron(np.eye(2), x) @ u.conj().T])
        A = star_closure([2, 4], entries_of(gens))
        assert len(closure_runs) == 1
        ref = dense_star_closure([2, 4], gens)
        assert A.dim == ref.dim == 4
        assert projector_gap(full_rows(A), full_rows(ref)) <= 1e-8
        summands = central_decomposition(A).summands
        assert [(sm.d, sm.ambient_rank, sm.multiplicity) for sm in summands] == [
            (2, 6, 3)
        ]

    @pytest.mark.parametrize("name", FULL_BLOCK_CASES)
    def test_dim_is_the_sum_of_squares_of_distinct_blocks(self, name):
        dims, gens = closure_case(name)
        sizes = distinct_block_sizes(dims, gens)
        assert star_closure(dims, entries_of(gens)).dim == sum(s * s for s in sizes)

    def test_block_weights_give_a_proper_subalgebra(self, closure_runs):
        dims, gens = closure_case("theta_block")
        sizes = distinct_block_sizes(dims, gens)
        assert sum(s * s for s in sizes) == 40
        assert star_closure(dims, entries_of(gens)).dim == 16
        assert len(closure_runs) == 1

    def test_blocks_merge_only_when_bit_identical(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        y = x.copy()
        y[0, 1] = complex(np.nextafter(x[0, 1].real, np.inf), x[0, 1].imag)
        for gens, distinct in (([[x, x]], 1), ([[x, y]], 2)):
            assert distinct_block_sizes([2, 2], gens) == [2] * distinct
            A = star_closure([2, 2], entries_of(gens))
            ref = dense_star_closure([2, 2], gens)
            assert A.dim == ref.dim
            assert projector_gap(full_rows(A), full_rows(ref)) <= 1e-8

    def test_unitarily_equivalent_blocks_are_not_certified(self, closure_runs):
        # two distinct blocks carrying x and v x v^*: v intertwines them,
        # so the algebra is one M_2, not M_2 + M_2
        rng = np.random.default_rng(4)
        v = random_unitary(2, rng)
        gens = []
        for _ in range(2):
            x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            gens.append([x, v @ x @ v.conj().T])
        A = star_closure([2, 2], entries_of(gens))
        assert len(closure_runs) == 1
        ref = dense_star_closure([2, 2], gens)
        assert A.dim == ref.dim == 4
        assert projector_gap(full_rows(A), full_rows(ref)) <= 1e-8

    @pytest.mark.parametrize("gap", [1e-5, 1e-7])
    def test_close_block_values_stay_apart(self, gap, closure_runs):
        # blocks 1 and 1 + gap: the closed-form check cuts eigenvalues of
        # the commutant Grams, squared singular values, and sends them to
        # the general solve, which cuts singular values and keeps them apart
        gens = [[np.diag([1.0, 1.0 + gap, 2.0]).astype(complex)]]
        A = star_closure([3], entries_of(gens))
        assert len(closure_runs) == 1
        ref = dense_star_closure([3], gens)
        assert A.dim == ref.dim == 3
        assert projector_gap(full_rows(A), full_rows(ref)) <= 1e-8

    @pytest.mark.parametrize("name", ["theta_block", "dense:0"])
    def test_image_batches_give_the_same_algebra(self, name, monkeypatch):
        # with CHUNK = 1 every image of the refinement is its own batch
        dims, gens = closure_case(name)
        A = star_closure(dims, entries_of(gens))
        monkeypatch.setattr(findim, "CHUNK", 1)
        B = star_closure(dims, entries_of(gens))
        assert A.dim == B.dim
        assert projector_gap(full_rows(A), full_rows(B)) <= 1e-10

    def test_general_solve_missing_a_generator_raises(self, monkeypatch):
        solve = findim._bicommutant
        monkeypatch.setattr(findim, "_bicommutant", lambda *args: solve(*args)[:1])
        dims, gens = closure_case("theta_block")
        with pytest.raises(DecompositionError, match="misses a generator"):
            star_closure(dims, entries_of(gens))

    def test_block_weights_give_coarser_classes(self):
        theta = corpus_graphs()["theta"]
        diagonal = dict(THETA_BLOCK, kind="diagonal", levels={"1": {}})
        block = c0_inputs(theta, from_dict(THETA_BLOCK, theta), n_max=1, M=5, W=2)
        diag = c0_inputs(theta, from_dict(diagonal, theta), n_max=1, M=5, W=2)

        def largest_class(dims, gens):
            masks = support_masks(dims, [blocks_eye(dims)] + gens)
            return max(int(m.sum(axis=1).max()) for m in masks)

        assert largest_class(*block) > largest_class(*diag)

    def test_multi_class_invariants(self):
        dims, gens = closure_case("G2p3")
        masks = support_masks(dims, [blocks_eye(dims)] + gens)
        sizes = {int(n) for m in masks for n in m.sum(axis=1)}
        assert sizes == {1, 3}
        A = star_closure(dims, entries_of(gens))
        q = full_rows(A)
        assert np.linalg.norm(q @ q.conj().T - np.eye(A.dim), 2) <= 1e-12
        basis = basis_elements(A)
        for a in basis:
            for b in basis:
                assert contains(A, blocks_mul(a, b))
        c = np.random.default_rng(0).normal(size=A.dim) + 0.5j
        assert np.allclose(
            blocks_vec(A.render(c)), blocks_vec(element(A, c)), atol=1e-12
        )
        with pytest.raises(ClosureOverflowError):
            star_closure(dims, entries_of(gens), max_dim=A.dim - 1)

    @pytest.mark.parametrize("name", sorted(corpus_graphs()))
    def test_unit_coordinates_match_the_full_window(self, name):
        # star_closure reads the unit's coordinates off the distinct
        # entries weighted by their copy counts; over the full window
        # they are the inner products of the onb rows with the identity
        g = corpus_graphs()[name]
        for seed in (1, 2):
            w = random_diag_spec(g, 2, 1, np.random.default_rng(seed))
            C0 = tower.build_C0(g, w, list(range(3, 7)))
            full = full_rows(C0).conj() @ blocks_vec(blocks_eye(C0.dims))
            assert np.abs(C0.unit - full).max() <= 1e-12, (name, seed)

    def test_empty_levels_and_zero_generators(self):
        A = star_closure([0, 2], entries_of([blocks_zero([0, 2])]))
        assert A.dim == 1
        assert full_rows(A).shape == (1, 4)


# -- the closed form kept as its map -------------------------------------------


class TestMatrixUnitMap:
    def test_build_C0_allocates_no_full_window(self):
        # the closure-o2 window, O2, p=2, N=1, levels [3, 8): the closed
        # form used to be scattered to 32 x 21,824 complex rows, 11.2 MB;
        # a first call warms the graph's path caches, and the weights of
        # the measured call are a fresh copy of the same draw
        g = corpus_graphs()["O2"]
        levels = list(range(3, 8))
        tower.build_C0(g, random_diag_spec(g, 2, 1, np.random.default_rng(7)), levels)
        fresh = random_diag_spec(g, 2, 1, np.random.default_rng(7))
        tracemalloc.start()
        try:
            C0 = tower.build_C0(g, fresh, levels)
            assert (C0.dim, len(C0.unit)) == (32, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert C0.rows is None and "onb" not in vars(C0)
        assert peak < 2 << 20, peak

    # generic:O2 is on the closure-o2 window, levels [3, 8)
    @pytest.mark.parametrize(
        "name", ["generic:O2"] + ["unweighted:" + name for name in sorted(corpus_graphs())]
    )
    def test_onb_read_is_the_full_scatter(self, name):
        g, w, levels = c0_case(name)
        C0 = tower.build_C0(g, w, levels)
        assert C0.rows is None and "onb" not in vars(C0)
        ref = scattered_units(C0.dims, tower._c0_generators(g, w, levels))
        assert np.array_equal(full_rows(C0), ref)
        full = full_rows(C0).conj() @ blocks_vec(blocks_eye(C0.dims))
        assert np.abs(C0.unit - full).max() <= 1e-12

    @staticmethod
    def two_copies():
        """M_2 copied on two levels of [2, 2], as its matrix units."""
        x = np.array([[1.0, 2.0], [3.0, 5.0]], dtype=complex)
        A = star_closure([2, 2], entries_of([[x, x]]))
        assert A.rows is None
        assert (A.dim, A.copies.tolist()) == (4, [2, 2, 2, 2])
        return A

    def test_a_corner_is_read_off_the_map(self):
        # entry (0, 0) of each level: M_1, copied twice
        A = self.two_copies()
        alg = _compress_units(A, [1, 1], np.array([0, 4]))
        dec = central_decomposition(alg)
        T, S, summands, ideals = dec.T, dec.S, dec.summands, dec.ideals
        assert dec.algebra is alg and alg.dim == 1 and alg.rows is None
        assert np.allclose(full_rows(alg), [[2 ** -0.5] * 2], rtol=0, atol=1e-15)
        assert np.allclose(T, [[[2 ** -0.5]]]) and np.array_equal(S, [[1]])
        [sm] = summands
        assert (sm.d, sm.ambient_rank, sm.multiplicity) == (1, 2, 2)
        assert np.array_equal(ideals[0], [[1]]) and not ideals[0].flags.writeable

    @pytest.mark.parametrize(
        "positions, message",
        [([0, 1, 2, 3], "split the copies"), ([0, 1, 4, 5], "not square")],
        ids=["split-copies", "not-square"],
    )
    def test_a_set_that_is_no_compression_raises(self, positions, message):
        # level 0 alone keeps one copy of each entry; the entries (0, 0)
        # and (0, 1) of both levels keep a 1 x 2 part of the block
        A = self.two_copies()
        with pytest.raises(DecompositionError, match=message):
            _compress_units(A, [2], np.array(positions))
