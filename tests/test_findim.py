"""Structure recovery on finite-dimensional block matrix algebras."""

import numpy as np
import pytest

from wck.errors import ClosureOverflowError, MultiplicityError
from wck.findim import (
    blocks_adj,
    blocks_eye,
    blocks_mul,
    blocks_rank,
    blocks_vec,
    central_decomposition,
    embedding_multiplicities,
    star_closure,
)


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


class TestClosure:
    def test_two_generic_hermitians_generate_full_matrix_algebra(self):
        rng = np.random.default_rng(5)
        gens = conjugated_sum([3], rng)
        A = star_closure([3], gens)
        assert A.dim == 9

    def test_no_generators_leaves_the_scalars(self):
        A = star_closure([4], [])
        assert A.dim == 1
        assert A.contains(blocks_eye([4]))

    def test_closure_contains_products_and_adjoints(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        A = star_closure([3], [[x]])
        assert A.contains([x @ x])
        assert A.contains([x.conj().T])
        assert A.contains([x @ x.conj().T @ x])

    def test_overflow_guard_raises(self):
        rng = np.random.default_rng(11)
        gens = conjugated_sum([8], rng)
        with pytest.raises(ClosureOverflowError):
            star_closure([8], gens, max_dim=10)

    def test_multi_level_block_space(self):
        # one copy of M_2 acting diagonally on two levels
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        A = star_closure([2, 2], [[x, x], [y, y]])
        assert A.dim == 4


class TestCentralDecomposition:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_conjugated_sums_recover_dims_and_ideals(self, seed):
        rng = np.random.default_rng(seed)
        dims = random_dims(rng)
        n = sum(dims)
        A = star_closure([n], conjugated_sum(dims, rng))
        assert A.dim == sum(d * d for d in dims)
        dec = central_decomposition(A, seed=seed)
        assert sorted(dec.dims) == sorted(dims)
        assert dec.check_dimension()
        for sm in dec.summands:
            assert sm.multiplicity == 1
            assert sm.ambient_rank == sm.d

    def test_commutative_diagonal_algebra(self):
        gens = [
            [np.diag([1.0, 0, 0, 0]).astype(np.complex128)],
            [np.diag([0, 1.0, 0, 0]).astype(np.complex128)],
            [np.diag([0, 0, 1.0, 0]).astype(np.complex128)],
        ]
        A = star_closure([4], gens)
        assert A.dim == 4
        dec = central_decomposition(A)
        assert dec.dims == [1, 1, 1, 1]

    def test_represented_with_multiplicity(self):
        # M_2 sitting twice in the block space, once per level
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        A = star_closure([2, 2], [[x, x], [y, y]])
        dec = central_decomposition(A)
        assert dec.dims == [2]
        assert dec.summands[0].ambient_rank == 4
        assert dec.summands[0].multiplicity == 2

    def test_minimal_projections_are_certified(self):
        A = star_closure([3, 2], matrix_units([3, 2]))
        dec = central_decomposition(A)
        assert dec.dims == [2, 3]
        for sm in dec.summands:
            f = sm.minimal_projection
            assert blocks_rank(f) == 1
            assert A.contains(f)
            assert np.allclose(
                blocks_vec(blocks_mul(f, f)), blocks_vec(f), atol=1e-8
            )
            assert np.allclose(
                blocks_vec(blocks_adj(f)), blocks_vec(f), atol=1e-8
            )

    def test_summand_order_is_canonical(self):
        A = star_closure([2, 3], matrix_units([2, 3]))
        one = central_decomposition(A, seed=0)
        two = central_decomposition(A, seed=17)
        for a, b in zip(one.summands, two.summands):
            assert a.d == b.d
            assert np.allclose(
                blocks_vec(a.projection), blocks_vec(b.projection), atol=1e-7
            )


class TestEmbeddings:
    def build_pair(self):
        # A = C + C on levels (1, 1); B = M_3 + M_2 on levels (3, 2)
        A = star_closure([1, 1], matrix_units([1, 1]))
        B = star_closure([3, 2], matrix_units([3, 2]))
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
        A = star_closure([3], matrix_units([3]))
        dec = central_decomposition(A)
        m = embedding_multiplicities(dec, dec, lambda x: x)
        assert m.tolist() == [[1]]

    def test_non_unital_map_rejected(self):
        dec_a, dec_b, _ = self.build_pair()

        def phi(x):
            a = x[0][0, 0]
            return [np.diag([a, 0, 0]), np.diag([a, 0])]

        with pytest.raises(MultiplicityError, match="unital"):
            embedding_multiplicities(dec_a, dec_b, phi)

    def test_transpose_is_not_multiplicative(self):
        A = star_closure([2], matrix_units([2]))
        dec = central_decomposition(A)

        def phi(x):
            return [x[0].T]

        with pytest.raises(MultiplicityError, match="multiplicative"):
            embedding_multiplicities(dec, dec, phi)

