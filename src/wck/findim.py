"""Structure analysis of finite-dimensional *-algebras of block matrices.

Elements live in a fixed block space: a direct sum of full matrix
blocks, one per window level. A *-algebra has one form (StarAlgebra):
orthonormal rows over the distinct entries of its support, with the
map of those entries to their copies. Its elements, the unit and the
central projections included, are coordinate vectors over the rows,
and StarAlgebra.render turns one into blocks where needed. The analysis
follows the standard route: find the algebra the generators generate
and split its center into its minimal projections, one per matrix
summand. A summand is its central projection z: its size d and its
ambient rank are traces of z, and so are the multiplicities of a
*-homomorphism between two such algebras (tower._fiber_multiplicities).

Generators come in as sparse entries, (positions, values) pairs over
the blocks_vec layout, and the algebra they generate is found on the
support blocks of its input. Per level, the indices i and j are joined
when some generator or the unit has an entry at (i, j); the classes of
that relation (one min-label propagation over the entry pairs) split
the level into diagonal blocks. Sums, products and adjoints of
elements supported on those blocks stay on them, and every entry off
them is an exact 0.0, so the algebra is computed on the compressed
blocks alone. A dense generator set is one class per level and takes
the same route.

Many of those blocks are copies: eventually periodic weights repeat
the same entries at many levels and positions, so class blocks of one
size hold bit-identical entries in the unit and in every generator.
Products, sums and adjoints act block by block, so copies stay copies,
and keeping one block per distinct content, found by exact byte
equality, is an injective *-homomorphism that needs no tolerance. The
algebra is found and kept on the distinct blocks only.

On the distinct blocks the algebra is found by the bicommutant
theorem: a unital *-algebra is the commutant of its commutant. The
commutant is the set of block matrices X with X g = g X for every
generator and adjoint g; it splits into the intertwiners of the pairs
(t, u) of distinct blocks, the nullspace of one small Gram matrix per
pair (_commutant_grams). Often the commutant is one scalar per block,
which one batched eigvalsh per block size decides (_scalar_commutant;
by Schur's lemma blocks of different sizes need no check), and the
rows are the matrix units of the distinct blocks: the closed form,
whose rows stay implicit. Otherwise (block weights, reducible blocks)
the algebra is the nullspace of one Gram matrix of the constraints
Y_t X = X Y_u over the intertwiners X (_bicommutant). Both nullspaces
are cut on singular values, refined from the Gram's eigenvectors on
their images (_null), and the result must hold the unit and every
generator, or the call raises. No product of two elements is formed.
The rows come out orthonormal with each distinct entry weighted by its
number of copies, as they would be at full length.

A compression onto block-space positions, as a corner by a projection
of the algebra, is read off the map (_compress_units): two exact
integer checks hold it to the same S x S entries of every distinct
block on all of its copies, and it keeps the algebra's rows there,
orthonormalized. On matrix units it is M_|S| on each block that keeps
any, with exact structure constants, central projections and summand
ideals (_unit_structure).

Otherwise the decomposition is numerical and deterministic, on the
structure constants in the coordinates of the rows (tables). The
center is the nullspace of the commutator map. Its joint eigenspaces
under left multiplication by the hermitian parts of a center basis are
refined one element at a time until each is a line, the line of one
central projection. Every result is certified, and a failed
certificate raises; a wrong answer is never returned silently.

The integers, the sizes d^2 and ambient ranks of the summands, are
traces of certified projections (integer_traces), never numerical
ranks: x -> z x is an idempotent on coordinates, and the rows are
orthonormal for tr(a^* b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .errors import ClosureOverflowError, DecompositionError
from .windows import RANK_TOL, onb

CHUNK = 1 << 20  # entries in one batch of images in _null's refinement
CLUSTER_GAP = 1e-6
INT_TOL = 1e-6


# -- block elements ----------------------------------------------------------


def blocks_vec(a):
    """The blocks raveled and joined; leading axes of the blocks stay."""
    if not a:
        return np.zeros(0, dtype=np.complex128)
    return np.concatenate(
        [x.reshape(x.shape[:-2] + (math.prod(x.shape[-2:]),)) for x in a], axis=-1
    )


def blocks_unvec(vec, dims):
    """The d x d blocks of a blocks_vec layout; leading axes of vec stay."""
    vec = np.asarray(vec)
    out = []
    pos = 0
    for d in dims:
        out.append(vec[..., pos:pos + d * d].reshape(vec.shape[:-1] + (d, d)))
        pos += d * d
    return out


# -- star algebras ------------------------------------------------------------


class StarAlgebra:
    """A unital *-subalgebra of a block space, on its distinct entries.

    Entry j of the map sits at position pos[j] of blocks_vec and is a
    copy of distinct entry copy[j], one of copies[copy[j]]; stacks lists
    (offset, count, s) per stack of distinct s x s blocks, the layout of
    the distinct entries. Row i of rows is the i-th element of an
    orthonormal basis, its values on the distinct entries times
    sqrt(copies), so that the rows are orthonormal for tr(a^* b) on the
    block space. An element is its coordinate vector over the rows, and
    unit holds the unit's. On the matrix units of the distinct blocks
    (the closed form of star_closure and its compressions) rows is None,
    and rows_at reads the unit rows without forming them. Every reader
    works off the map; no full-length row is formed.
    """

    def __init__(self, dims, unit, stacks, pos, copy, copies, rows=None):
        self.dims = tuple(dims)
        self.unit = unit
        self.stacks, self.pos, self.copy, self.copies = stacks, pos, copy, copies
        self.rows = rows

    @property
    def dim(self):
        return len(self.copies) if self.rows is None else len(self.rows)

    def rows_at(self, entries):
        """The columns of the weighted rows at the given distinct entries."""
        if self.rows is not None:
            return self.rows[:, entries]
        out = np.zeros((self.dim, len(entries)), dtype=np.complex128)
        out[entries, np.arange(len(entries))] = 1
        return out

    def _entry_columns(self, entries):
        """Block-space columns of the basis at copies of the given entries."""
        return self.rows_at(entries) / np.sqrt(self.copies[entries])

    @cached_property
    def entries(self):
        """(pos, copy) of the map, in ascending order of position."""
        order = np.argsort(self.pos, kind="stable")
        return self.pos[order], self.copy[order]

    def lookup(self, positions):
        """(entry, hit): the distinct entry at each block-space position.

        hit marks the positions that hold an entry of the map; entry is
        arbitrary where it is False.
        """
        pos, copy = self.entries
        at = np.minimum(np.searchsorted(pos, positions), len(pos) - 1)
        return copy[at], pos[at] == positions

    def support_columns(self, start, end):
        """(pos, mat): the support positions in [start, end), and the
        block-space columns of the basis there."""
        pos, copy = self.entries
        cut = slice(*np.searchsorted(pos, [start, end]))
        return pos[cut], self._entry_columns(copy[cut])

    def columns(self, positions):
        """The block-space columns of the basis at the given positions."""
        entry, hit = self.lookup(positions)
        out = np.zeros((self.dim, len(positions)), dtype=np.complex128)
        out[:, hit] = self._entry_columns(entry[hit])
        return out

    def coordinates(self, values):
        """(coords, off): the coordinates of elements given by their
        weighted values, one element per row of values, and the norm of
        each element's part off the span of the rows."""
        if self.rows is None:
            return values, np.zeros(len(values))
        coords = values @ self.rows.conj().T
        return coords, np.linalg.norm(values - coords @ self.rows, axis=1)

    def render(self, coeffs):
        """Blocks of the element with the given coordinates."""
        coeffs = np.asarray(coeffs)
        values = coeffs if self.rows is None else coeffs @ self.rows
        full = np.zeros(
            coeffs.shape[:-1] + (sum(d * d for d in self.dims),), dtype=np.complex128
        )
        full[..., self.pos] = (values / np.sqrt(self.copies))[..., self.copy]
        return blocks_unvec(full, self.dims)

    @cached_property
    def _diagonal(self):
        """The columns of the basis on the block diagonals, read once."""
        return self.columns(_diagonal_positions(self.dims))

    def diagonal(self, coeffs):
        """Diagonal entries of the blocks of the element, levels joined."""
        return coeffs @ self._diagonal

    @cached_property
    def tables(self):
        """Structure constants in the coordinates of the rows.

        (T, S, resid): with e_i the element of row i, e_i e_j = sum_k
        T[i, j, k] e_k and e_i^* = sum_k S[i, k] e_k up to what the span
        misses; resid[i] holds the norms of the part of e_i^* and of the
        worst product e_i e_j off the span. Computed once, on the
        distinct stacks, each entry weighted by its copies.
        """
        root = np.sqrt(self.copies)
        rows = self.rows_at(np.arange(len(root)))
        q = rows / root
        dual = (rows.conj() * root).T
        adj = q[:, _transpose(self.stacks)].conj()
        S = adj @ dual
        resid = np.zeros((len(q), 2))
        resid[:, 0] = np.linalg.norm((adj - S @ q) * root, axis=1)
        T = np.empty((len(q),) * 3, dtype=np.complex128)
        for i, a in enumerate(q):
            prods = _stack_products(a, q, self.stacks)[:, 0]
            T[i] = prods @ dual
            resid[i, 1] = np.linalg.norm((prods - T[i] @ q) * root, axis=1).max()
        return T, S, resid


def _diagonal_positions(dims):
    """Positions in blocks_vec of the diagonal entries of every block."""
    starts = np.cumsum([0] + [d * d for d in dims])
    return np.concatenate(
        [off + np.arange(d) * (d + 1) for off, d in zip(starts, dims)]
    )


def _components(rows, cols, n):
    """Class label of each of n indices under the pairs (rows[i], cols[i]).

    Min-label propagation with pointer jumping; each class ends up
    labelled by its smallest index, and an index in no pair is a class
    of its own.
    """
    lab = np.arange(n)
    while True:
        low = np.minimum(lab[rows], lab[cols])
        new = lab.copy()
        np.minimum.at(new, rows, low)
        np.minimum.at(new, cols, low)
        new = new[new]
        if np.array_equal(new, lab):
            return lab
        lab = new


def _support_layout(dims, positions):
    """Stacks, transpose and vector positions of the support blocks.

    positions lists, in any order and with repeats, the positions in
    blocks_vec of the entries that may be nonzero. Per level, indices i
    and j are joined when some listed entry sits at (i, j); every index
    is in a class, its own at least. The classes of each level are
    grouped by size into one (count, s, s) stack per (level, size), in
    ascending order of size and then of smallest index, each class in
    ascending index order; a compressed vector is the concatenation of
    the raveled stacks. stacks lists (offset, count, s) per stack, tpos
    is the permutation that transposes every block of a compressed
    vector, and pos[i] is the position in blocks_vec of the full element
    of entry i of the compressed vector.
    """
    dims = np.asarray(dims, dtype=int)
    starts = np.concatenate([[0], np.cumsum(dims * dims)])
    first = np.concatenate([[0], np.cumsum(dims)])
    lev = np.searchsorted(starts, positions, side="right") - 1
    i, j = np.divmod(positions - starts[lev], dims[lev])
    lab = _components(first[lev] + i, first[lev] + j, first[-1])
    order = np.argsort(lab, kind="stable")
    _, begin, sizes = np.unique(lab[order], return_index=True, return_counts=True)
    levels = np.searchsorted(first, order[begin], side="right") - 1
    pieces = []
    for lv, d in enumerate(dims):
        here = levels == lv
        for s in np.unique(sizes[here]):
            sel = begin[here & (sizes == s)]
            idx = order[sel[:, None] + np.arange(s)] - first[lv]
            pieces.append(starts[lv] + idx[:, :, None] * d + idx[:, None, :])
    return _stack_layout(pieces)


def _stack_layout(pieces):
    """Stacks, transpose and flat positions of (count, s, s) int stacks.

    pieces[i][b] holds the positions, in some vector, of the entries of
    block b of stack i; the layout concatenates the raveled stacks.
    """
    stacks = []
    off = 0
    for x in pieces:
        c, s, _ = x.shape
        stacks.append((off, c, s))
        off += x.size
    flat = blocks_vec([x.ravel() for x in pieces])
    return stacks, _transpose(stacks), flat.astype(int)


def _transpose(stacks):
    """The permutation of a stack layout that transposes every block."""
    return blocks_vec([
        off + np.arange(c * s * s).reshape(c, s, s).swapaxes(1, 2).ravel()
        for off, c, s in stacks
    ]).astype(int)


def _distinct_blocks(stacks, vecs):
    """Layout of one block per distinct content of the class blocks.

    vecs holds compressed vectors, one per row, in the layout of stacks.
    The class blocks of each size s, over all levels, are compared by
    the bytes of their entries in every row, one dict lookup per block,
    and numbered in order of first appearance; blocks that differ in any
    bit, -0.0 against 0.0 included, stay apart. Returns (stacks, tpos,
    rep, copy, copies): the stacks and transpose of the distinct blocks,
    one stack per size; rep, the compressed position of each distinct
    entry in its first copy; copy, the distinct position of each
    compressed entry, so that x[:, copy] puts every copy back; and
    copies, how many class blocks share each distinct entry.
    """
    pieces = []
    groups = []
    for s in sorted({s for _, _, s in stacks}):
        blocks = np.concatenate([
            np.arange(off, off + c * s * s).reshape(c, s * s)
            for off, c, t in stacks
            if t == s
        ])
        content = vecs[:, blocks].swapaxes(0, 1).reshape(len(blocks), -1)
        ids = {}
        inv = np.array(
            [ids.setdefault(row.tobytes(), len(ids)) for row in content],
            dtype=int,
        )
        _, first, count = np.unique(inv, return_index=True, return_counts=True)
        pieces.append(blocks[first].reshape(-1, s, s))
        groups.append((blocks, inv, count))
    stacks, tpos, rep = _stack_layout(pieces)
    copy = np.empty(vecs.shape[1], dtype=int)
    copies = [np.zeros(0, dtype=int)]
    for (off, _, s), (blocks, inv, count) in zip(stacks, groups):
        copy[blocks] = off + inv[:, None] * s * s + np.arange(s * s)
        copies.append(np.repeat(count, s * s))
    return stacks, tpos, rep, copy, np.concatenate(copies)


def _stack_products(a, basis, stacks):
    """Products a b and b a for every row b of basis, as an (n, 2, L) block.

    a and the rows of basis are compressed vectors. Each stack is
    multiplied by a loop over the inner index with broadcast products,
    which on stacks of small blocks beats einsum and stacked matmul.
    """
    n, length = basis.shape
    out = np.empty((n, 2, length), dtype=np.complex128)
    for off, c, s in stacks:
        end = off + c * s * s
        x = a[off:end].reshape(c, s, s)
        y = basis[:, off:end].reshape(n, c, s, s)
        ab = np.zeros((n, c, s, s), dtype=np.complex128)
        ba = np.zeros((n, c, s, s), dtype=np.complex128)
        for j in range(s):
            ab += x[None, :, :, j, None] * y[:, :, j, None, :]
            ba += y[:, :, :, j, None] * x[None, :, j, None, :]
        out[:, 0, off:end] = ab.reshape(n, -1)
        out[:, 1, off:end] = ba.reshape(n, -1)
    return out


def _kron(a, b):
    """Kronecker products of (..., m, m) and (..., n, n) stacks."""
    m, n = a.shape[-1], b.shape[-1]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (m * n, m * n))


def _commutant_grams(stacks, pool, i, j):
    """Gram matrices whose nullspaces are the intertwiners of pool.

    pool holds compressed vectors in the layout of stacks, closed under
    adjoints. For stacks i and j of sizes s and r, a block t of stack i
    and a block u of stack j, the intertwiners X (s x r) with g_t X =
    X g_u for every g in pool are the nullspace of sum_g K_g^H K_g, with
    K_g = kron(I, g_u^T) - kron(g_t, I) on row-major vec(X). All of
    them, (c_i, c_j, s r, s r), are assembled from per-block sums and
    one cross product of the pool, never from the K_g.
    """
    (oi, ci, s), (oj, cj, r) = stacks[i], stacks[j]
    at = pool[:, oi:oi + ci * s * s]
    au = pool[:, oj:oj + cj * r * r]
    gt = at.reshape(len(pool), ci, s, s)
    gu = au.reshape(len(pool), cj, r, r)
    # per block, the pool sums of kron(I, (g_u g_u^H)^T) and of
    # kron(g_t^H g_t, I), the squares of the two terms of K_g
    left = _kron(np.eye(s), np.einsum("gubx,gudx->udb", gu, gu.conj()))
    right = _kron(np.einsum("gtxa,gtxc->tac", gt.conj(), gt), np.eye(r))
    # per pair, the pool sum of kron(g_t, conj(g_u)), the cross term
    cross = (at.T @ au.conj()).reshape(ci, s, s, cj, r, r)
    cross = cross.transpose(0, 3, 1, 4, 2, 5).reshape(ci, cj, s * r, s * r)
    return left[None] + right[:, None] - cross - cross.conj().swapaxes(-1, -2)


def _scalar_commutant(stacks, pool):
    """Whether the commutant of pool on the distinct blocks is scalar.

    The Grams of the pairs of blocks of one size are decided by one
    batched eigvalsh per size: the commutant is one scalar per block
    when t = u has exactly one eigenvalue at or below the cut RANK_TOL
    times the largest one (the scalars) and t != u has none. That cuts
    squared singular values, so it errs towards failing, and a failure
    goes to the general route, which cuts finer (_null). Intertwiners
    between irreducible blocks of different sizes vanish (Schur's
    lemma), so sizes are not paired.
    """
    for i, (_, c, _) in enumerate(stacks):
        vals = np.linalg.eigvalsh(_commutant_grams(stacks, pool, i, i))
        low = np.sum(vals <= RANK_TOL * vals.max(), axis=-1)
        if not np.array_equal(low, np.eye(c, dtype=int)):
            return False
    return True


def _null(gram, floor, image_gram):
    """Orthonormal null vectors of a map K from gram = K^H K, batched.

    Rounding blurs the eigenvalues of gram, the squared singular values
    of K, below about eps times the largest, so the cut RANK_TOL on
    singular values cannot be read off them. The eigenvectors with
    eigenvalue at most RANK_TOL top, top = max(floor, the largest), are
    candidates; image_gram(v) is the Gram of their images K v, accurate
    at its own scale, and its eigenvectors with eigenvalue at most
    RANK_TOL^2 top are kept. Short items are padded with zero columns.
    """
    vals, vecs = np.linalg.eigh(gram)
    top = max(floor, vals.max())
    v = vecs[..., :np.sum(vals <= RANK_TOL * top, axis=-1).max()]
    if not v.shape[-1]:
        return v
    mu, w = np.linalg.eigh(image_gram(v))
    keep = mu <= RANK_TOL ** 2 * top
    return v @ (w * keep[..., None, :])[..., :keep.sum(axis=-1).max()]


def _intertwiners(stacks, pool, i, j):
    """Orthonormal bases (c_i, c_j, m, s, r) of the intertwiners of pool.

    The Grams are those of _commutant_grams; the images g_t X - X g_u
    are formed a few pool elements at a time, CHUNK entries at most.
    """
    (oi, ci, s), (oj, cj, r) = stacks[i], stacks[j]
    gt = pool[:, oi:oi + ci * s * s].reshape(-1, ci, s, s)
    gu = pool[:, oj:oj + cj * r * r].reshape(-1, cj, r, r)

    def image_gram(v):
        x = np.moveaxis(v.reshape(ci, cj, s, r, -1), -1, 2)
        step = max(1, CHUNK // x.size)
        out = 0
        for g in range(0, len(pool), step):
            d = np.einsum("gtab,tukbc->gtukac", gt[g:g + step], x)
            d -= np.einsum("tukab,gubc->gtukac", x, gu[g:g + step])
            out = out + np.einsum("gtuksr,gtulsr->tukl", d.conj(), d)
        return out

    x = _null(_commutant_grams(stacks, pool, i, j), 0.0, image_gram)
    return np.moveaxis(x.reshape(ci, cj, s, r, -1), -1, 2)


def _add_block_diag(out, y):
    """Add the block-diagonal matrix of a (c, m, m) stack to out in place."""
    c, m, _ = y.shape
    out.reshape(c, m, c, m)[np.arange(c), :, np.arange(c)] += y


def _bicommutant(stacks, pool):
    """Rows of the bicommutant of pool on the distinct blocks.

    A unital *-algebra is its own bicommutant, so + Y_t is in the
    algebra exactly when Y_t X = X Y_u for every intertwiner X from
    block u to block t: the null vectors of the maps C_X: Y -> Y_t X -
    X Y_u, X over the bases of _intertwiners for every ordered pair of
    stacks. Their L x L Gram sum_X C_X^H C_X, L the number of distinct
    entries, is accumulated one pair of stacks at a time from the sums
    of X X^H, of X^H X and of kron(X, conj(X)), and the images C_X Y a
    few X at a time; the constraint rows are never stacked. Each X has
    norm 1, so _null cuts relative to max(1, the largest eigenvalue):
    the Gram is all rounding when the commutant is scalar.
    """
    length = sum(c * s * s for _, c, s in stacks)
    gram = np.zeros((length, length), dtype=np.complex128)
    pairs = {}
    for i, j in product(range(len(stacks)), repeat=2):
        (oi, ci, s), (oj, cj, r) = stacks[i], stacks[j]
        t = slice(oi, oi + ci * s * s)
        u = slice(oj, oj + cj * r * r)
        if j < i:
            # pool is closed under adjoints, so the X^H of (j, i) serve
            x = pairs[j, i][2].transpose(1, 0, 2, 4, 3).conj()
        else:
            x = _intertwiners(stacks, pool, i, j)
        pairs[i, j] = (t, u, x)
        xx = np.einsum("tumac,tumbc->tba", x, x.conj())
        hh = np.einsum("tumac,tumad->ucd", x.conj(), x)
        cross = np.einsum("tumac,tumbd->tabucd", x, x.conj())
        _add_block_diag(gram[t, t], _kron(np.eye(s), xx))
        _add_block_diag(gram[u, u], _kron(hh, np.eye(r)))
        gram[t, u] -= cross.reshape(ci * s * s, cj * r * r)
        gram[u, t] -= cross.reshape(ci * s * s, cj * r * r).conj().T

    def image_gram(v):
        out = 0
        for t, u, x in pairs.values():
            ci, cj, m, s, r = x.shape
            yt = v[t].reshape(ci, s, s, -1)
            yu = v[u].reshape(cj, r, r, -1)
            step = max(1, CHUNK // (ci * cj * s * r * v.shape[1]))
            for n in range(0, m, step):
                xn = x[:, :, n:n + step]
                d = np.einsum("tack,tumcb->tumabk", yt, xn)
                d -= np.einsum("tumac,ucbk->tumabk", xn, yu)
                d = d.reshape(-1, v.shape[1])
                out = out + d.conj().T @ d
        return out

    return _null(gram, 1.0, image_gram).T


def star_closure(dims, gens, max_dim=4096):
    """The unital *-algebra that the generators generate.

    Each generator is a pair (positions, values): the positions in
    blocks_vec of its nonzero entries and their values; every other
    entry is an exact zero. The identity of the block space is always
    included, so the result is unital. Growth beyond max_dim raises
    ClosureOverflowError; the general route holds L x L Grams, L the
    number of distinct entries, before that check.

    The algebra is found on one block per distinct content among the
    support class blocks of the unit and the generators, whose entries
    are placed by one searchsorted per generator, as the module
    docstring sets out: the matrix units of the distinct blocks when
    their commutant is scalar (_scalar_commutant), and otherwise the
    bicommutant (_bicommutant), orthonormalized once with each entry
    weighted by its copy count (onb) and certified to hold the unit,
    the generators and their adjoints, or DecompositionError is raised.
    Either way the result keeps the map of the distinct entries to their
    copies, and the closed form keeps its unit rows implicit. The unit's
    coordinates are read off the distinct entries by their copy counts.
    """
    dims = tuple(dims)
    diag = _diagonal_positions(dims)
    stacks, _, pos = _support_layout(
        dims, np.concatenate([diag] + [p for p, _ in gens])
    )
    order = np.argsort(pos)
    vecs = np.zeros((1 + len(gens), len(pos)), dtype=np.complex128)
    for vec, (p, values) in zip(vecs, [(diag, 1.0), *gens]):
        vec[order[np.searchsorted(pos[order], p)]] = values
    stacks, tpos, rep, copy, copies = _distinct_blocks(stacks, vecs)
    gen = vecs[1:, rep]
    pool = np.stack([gen, gen[:, tpos].conj()], axis=1).reshape(-1, len(rep))
    root = np.sqrt(copies)
    rows = None
    if not _scalar_commutant(stacks, pool):
        # the weighted rows have singular values in [1, sqrt(max copies)],
        # so onb keeps them all
        rows = onb(_bicommutant(stacks, pool) * root)
        held = np.vstack([vecs[:1, rep], pool]) * root
        miss = np.linalg.norm(held - held @ rows.conj().T @ rows, axis=1)
        if np.any(miss > RANK_TOL * np.linalg.norm(held, axis=1)):
            raise DecompositionError("the algebra found misses a generator")
    if (len(rep) if rows is None else len(rows)) > max_dim:
        raise ClosureOverflowError("closure exceeded %d dimensions" % max_dim)
    # a distinct entry stands for `copies` entries of the full vector, so
    # the unit's weighted values are root on its diagonal entries
    unit = root * vecs[0, rep]
    if rows is not None:
        unit = rows.conj() @ unit
    return StarAlgebra(dims, unit, stacks, pos, copy, copies, rows)


# -- central decomposition ----------------------------------------------------


@dataclass
class Summand:
    """One matrix summand M_d of a finite-dimensional algebra.

    The summand is its central projection z, a coordinate vector over
    the rows of the algebra; M_d acts ambient_rank / d times.
    """

    z: np.ndarray       # central projection
    d: int              # matrix size
    ambient_rank: int   # rank of z in the block space

    @property
    def multiplicity(self):
        return self.ambient_rank // self.d


@dataclass
class CentralDecomposition:
    algebra: StarAlgebra
    summands: list

    @property
    def dims(self):
        return [s.d for s in self.summands]


def _cluster_eigenvalues(values):
    order = np.argsort(values)
    clusters = []
    for idx in order:
        if clusters and values[idx] - values[clusters[-1][-1]] <= CLUSTER_GAP:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    return clusters


def _left(h, T):
    """Matrix of x -> h x on coordinate vectors."""
    return np.einsum("i,ijk->kj", h, T)


def _refine(pieces, hs, T):
    """Split subspaces into the joint eigenspaces of the maps x -> h x.

    Each piece is an (r, m) matrix of orthonormal coordinate columns
    spanning a subspace that every x -> h x maps into itself. For each
    hermitian h in turn, every piece of dimension above one is split by
    the eigenvalue clusters of that map restricted to it, in ascending
    order of the eigenvalues.
    """
    for h in hs:
        lh = _left(h, T)
        out = []
        for v in pieces:
            if v.shape[1] == 1:
                out.append(v)
                continue
            vals, vecs = np.linalg.eigh(v.conj().T @ lh @ v)
            out.extend(v @ vecs[:, c] for c in _cluster_eigenvalues(vals))
        pieces = out
    return pieces


def integer_traces(traces, error, what):
    """Traces of certified projections, which are their ranks, as ints.

    Raises error unless every trace is within INT_TOL of an integer.
    """
    traces = np.asarray(traces)
    ints = np.rint(traces.real)
    if np.any(np.abs(traces - ints) > INT_TOL):
        raise error("the traces %s of %s are not integers" % (traces, what))
    return ints.astype(int)


def _summand_sort_key(A, sm):
    diag = A.diagonal(sm.z).real
    return (sm.d, sm.ambient_rank, tuple(np.round(diag, 6)))


def central_decomposition(A):
    """Split a finite-dimensional *-algebra into matrix summands.

    Everything runs on the structure constants A.tables, in the
    coordinates of the orthonormal rows of A, where x -> h x is a
    hermitian matrix for self-adjoint h. The center is the nullspace of
    the commutator map, from a thin SVD. Its joint eigenspaces under
    x -> h x, h over the hermitian parts of a center basis, are refined
    one h at a time (_refine) down to one line per summand, and each
    line is scaled to its central projection z. The result is certified
    or the call raises DecompositionError: each z is a self-adjoint
    idempotent, the z sum to the unit, the trace of x -> z x is a square
    d^2, the d^2 sum to dim A and d divides the ambient rank of z, its
    trace in the block space; both traces must be integers. A summand
    is that z with d and the ambient rank; the multiplicities of a map
    out of A are traces of the images of the z. Nothing is random, and
    the summands come back in a canonical order that only depends on
    the projections.
    """
    T, S, _ = A.tables
    r = A.dim
    unit = A.unit
    comm = (T - T.transpose(1, 0, 2)).transpose(1, 2, 0).reshape(r * r, r)
    sv, vh = np.linalg.svd(comm, full_matrices=False)[1:]
    rank = int(np.sum(sv > RANK_TOL * max(1.0, *sv[:1])))
    center = vh[rank:].conj()
    s = len(center)
    if s == 0:
        raise DecompositionError("algebra has no central elements")
    # the hermitian parts (y + y^*) / 2 of y = c and y = i c
    hs = [0.5 * (y + np.conj(y) @ S) for c in center for y in (c, 1j * c)]
    pieces = _refine([center.T], hs, T)
    if len(pieces) != s:
        raise DecompositionError(
            "the center of dimension %d split into %d pieces"
            % (s, len(pieces))
        )
    trace = A._diagonal.sum(axis=1)
    summands = []
    total = np.zeros_like(unit)
    for v in pieces:
        # e e is a multiple of e, and z is the idempotent on its line
        e = v[:, 0]
        alpha = np.vdot(e, np.einsum("i,j,ijk->k", e, e, T)) / np.vdot(e, e)
        if abs(alpha) <= RANK_TOL:
            raise DecompositionError("a central piece squares to zero")
        z = e / alpha
        zz = np.einsum("i,j,ijk->k", z, z, T)
        off = max(np.linalg.norm(zz - z), np.linalg.norm(np.conj(z) @ S - z))
        if off / max(1.0, float(np.linalg.norm(z))) > 100 * RANK_TOL:
            raise DecompositionError("a central piece is not a projection")
        rank, ambient_rank = integer_traces(
            [np.einsum("i,ijj->", z, T), trace @ z], DecompositionError, "a summand"
        ).tolist()
        d = math.isqrt(rank)
        if d == 0 or d * d != rank or ambient_rank % d:
            raise DecompositionError(
                "central projection of rank %d in the algebra and %d in the "
                "block space is not a matrix summand" % (rank, ambient_rank)
            )
        total += z
        summands.append(Summand(z, d, ambient_rank))
    bound = 100 * RANK_TOL * max(1.0, np.linalg.norm(unit))
    if np.linalg.norm(total - unit) > bound:
        raise DecompositionError(
            "the central projections do not sum to the unit"
        )
    if sum(sm.d ** 2 for sm in summands) != r:
        raise DecompositionError(
            "summand sizes do not add up to the dimension %d" % r
        )
    summands.sort(key=lambda sm: _summand_sort_key(A, sm))
    return CentralDecomposition(algebra=A, summands=summands)


# -- compressions --------------------------------------------------------------


def _compress_units(A, dims, positions):
    """The compression of an algebra onto block-space positions.

    positions lists distinct positions in A's blocks_vec; position i is
    entry i of the compression, a vector of the block space of dims. A
    compression by a projection of A, as a corner by u_xi u_xi^*, keeps
    an S x S part of each distinct block on all of its copies. Two exact
    integer checks hold it to that, or DecompositionError is raised:
    every distinct entry has all of its copies among the positions or
    none, and the entries kept in each distinct block form a square.
    The compression keeps those entries, one stack (offset, 1, |S|) per
    block, and A's rows there, orthonormalized (onb); on matrix units
    they stay implicit. No dense row is formed.
    """
    entry, hit = A.lookup(positions)
    entry = entry[hit]
    count = np.bincount(entry, minlength=len(A.copies))
    kept = count > 0
    if not np.array_equal(count[kept], A.copies[kept]):
        raise DecompositionError("the positions split the copies of a block")
    new = np.cumsum(kept) - 1
    stacks = []
    on_diagonal = np.zeros(len(kept), dtype=bool)
    for off, c, s in A.stacks:
        mask = kept[off:off + c * s * s].reshape(c, s, s)
        diag = mask[:, np.arange(s), np.arange(s)]
        if not np.array_equal(mask, diag[:, :, None] & diag[:, None, :]):
            raise DecompositionError(
                "the positions keep a part of a block that is not square"
            )
        blocks = np.flatnonzero(diag.any(axis=1))
        first = mask[blocks].reshape(len(blocks), s * s).argmax(axis=1)
        first = new[off + blocks * s * s + first].tolist()
        sizes = diag[blocks].sum(axis=1).tolist()
        stacks.extend((o, 1, d) for o, d in zip(first, sizes))
        entries = np.arange(c)[:, None] * s * s + np.arange(s) * (s + 1)
        on_diagonal[off + entries] = True
    copies = A.copies[kept]
    # the unit's weighted values, sqrt(copies) on the kept diagonal entries
    unit = (np.sqrt(A.copies) * on_diagonal)[kept].astype(np.complex128)
    rows = None
    if A.rows is not None:
        rows = onb(A.rows[:, kept])
        unit = rows.conj() @ unit
    pos = np.flatnonzero(hit)
    return StarAlgebra(dims, unit, stacks, pos, new[entry], copies, rows)


def _unit_structure(A):
    """Structure constants, summands and summand ideals of matrix units.

    A keeps its unit rows implicit. Unit e_xy of a distinct block with c
    copies is 1/sqrt(c) on each copy, so e_xy e_yw = e_xw / sqrt(c) and
    e_xy^* = e_yx give T and S; the block is one summand M_s, with z the
    sum of the sqrt(c) e_xx and ambient rank s c, and its ideal rows are
    the coordinate rows of its units. All of it is exact, with no
    numerical step.

    Returns (T, S, summands, ideals), the summands in the order of
    central_decomposition and ideals[i] the read-only rows of summand i.
    """
    r = A.dim
    root = np.sqrt(A.copies)
    T = np.zeros((r, r, r), dtype=np.complex128)
    S = np.zeros((r, r), dtype=np.complex128)
    found = []
    for s in sorted({s for _, _, s in A.stacks}):
        # the units of every distinct s x s block, (blocks, s, s)
        first = np.concatenate(
            [off + np.arange(c) * s * s for off, c, t in A.stacks if t == s]
        )
        units = first[:, None, None] + np.arange(s * s).reshape(s, s)
        scale = root[first]
        T[units[:, :, :, None], units[:, None], units[:, :, None]] = (
            1 / scale[:, None, None, None]
        )
        S[units, units.swapaxes(1, 2)] = 1
        z = np.zeros((len(first), r), dtype=np.complex128)
        z[np.arange(len(first))[:, None], np.diagonal(units, axis1=1, axis2=2)] = (
            scale[:, None]
        )
        ideals = np.eye(r, dtype=np.complex128)[units.reshape(len(first), -1)]
        ideals.flags.writeable = False
        found.extend(
            (Summand(zb, s, s * int(A.copies[f])), ideal)
            for zb, f, ideal in zip(z, first, ideals)
        )
    found.sort(key=lambda pair: _summand_sort_key(A, pair[0]))
    return T, S, [sm for sm, _ in found], [x for _, x in found]
